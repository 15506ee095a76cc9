"""CLI tests: config resolution, subcommands, determinism, error lines."""

import math
import re
import struct

import numpy as np
import pytest
from oracles import NON_FINITE_MODEL_EDITS

from rxgb import cli, data, gbdt, netspec, network


def write_synthetic_cache(cache, n_train=64, n_test=16, seed=0):
    """Four IDX files with random pixels and labels, canonical names."""
    rng = np.random.default_rng(seed)
    cache.mkdir(parents=True, exist_ok=True)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        pixels = rng.integers(0, 256, size=n * 28 * 28).astype(np.uint8)
        (cache / f"{prefix}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x00000803, n, 28, 28) + pixels.tobytes()
        )
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        (cache / f"{prefix}-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 0x00000801, n) + labels.tobytes()
        )


SMOKE_ARGS = [
    "--net.width_mult", "0.125",
    "--train.epochs", "1",
    "--train.batch_size", "16",
    "--data.val_count", "16",
    "--gbdt.max_trees", "10",
    "--gbdt.max_depth", "3",
]


# --- configuration -------------------------------------------------------------


def test_config_defaults_and_precedence(tmp_path):
    cfg = cli.resolve_config(None, {})
    assert cfg["train.epochs"] == 120
    assert cfg["gbdt.max_trees"] == 20
    assert cfg["binary.weight_scaling"] is True

    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "train.epochs = 7\n"
        "seed = 3   # inline comment\n"
        "train.augment = true\n"
    )
    cfg = cli.resolve_config(str(path), {"train.epochs": "9"})
    assert cfg["train.epochs"] == 9                      # flag beats file
    assert cfg["seed"] == 3
    assert cfg["train.augment"] is True


def test_config_rejects_unknown_keys_and_bad_values(tmp_path):
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.resolve_config(None, {"train.epoch": "3"})
    path = tmp_path / "bad.cfg"
    path.write_text("nota.key = 1\n")
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.resolve_config(str(path), {})
    with pytest.raises(cli.ConfigError, match="bad value"):
        cli.resolve_config(None, {"train.epochs": "many"})
    with pytest.raises(cli.ConfigError, match="bad value"):
        cli.resolve_config(None, {"binary.weight_scaling": "maybe"})
    path.write_text("train.epochs\n")
    with pytest.raises(cli.ConfigError, match="key=value"):
        cli.resolve_config(str(path), {})


def test_config_render_parses_back_identically():
    cfg = cli.resolve_config(None, {"train.lr": "0.02", "data.subset": "512"})
    text = cli.render_config(cfg)
    assert cli.parse_config_text(text) == cfg


def test_override_splitting():
    assert cli._split_overrides(["--a.b", "1", "--c.d=x"]) == {
        "a.b": "1", "c.d": "x"
    }
    with pytest.raises(cli.ConfigError, match="needs a value"):
        cli._split_overrides(["--a.b"])
    with pytest.raises(cli.ConfigError, match="unexpected argument"):
        cli._split_overrides(["oops"])


def test_threads_flag_sets_blas_env(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    cli._setup_threads(["cost", "--threads", "2"])
    import os
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    with pytest.raises(cli.ConfigError, match="threads"):
        cli._setup_threads(["--threads", "zero"])


# --- cost subcommand -----------------------------------------------------------


def test_cost_reference_diff_prints_published_deltas(capsys):
    assert cli.main(["cost", "--spec", "reference",
                     "--diff", "reference-nofc"]) == 0
    out = capsys.readouterr().out
    assert "140423168" in out                            # reference BOPs total
    assert "-10,240" in out
    assert "-0.04 MB" in out
    assert "FLOPs -7.14%" in out
    assert "size -1.02%" in out
    assert "budget residuals" in out


def test_cost_machine_format(capsys):
    assert cli.main(["cost", "--machine"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("stem.conv\t")
    assert all(len(line.split("\t")) == 4 for line in lines)
    assert lines[-1].startswith("TOTAL\t")
    total = lines[-1].split("\t")
    assert total[1] == "140423168"                       # BOPs grand total


def test_cost_rejects_unknown_spec(capsys):
    assert cli.main(["cost", "--spec", "resnet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("RXGB-ERROR config:")
    assert err.count("\n") == 1                          # single line


def test_cost_rejects_a_depth_past_the_costed_bound(capsys):
    # 64 is the first depth past gbdt_cost's bound; a vast depth is never run
    # here, as 2**depth of it would exhaust CPU and memory.
    assert cli.main(["cost", "--gbdt.max_depth", "63"]) == 0
    capsys.readouterr()
    assert cli.main(["cost", "--gbdt.max_depth", "64"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("RXGB-ERROR invalid-value: max_depth 64")
    assert err.count("\n") == 1


def test_non_utf8_config_file_is_one_config_line(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_bytes(b"seed = 1\n\xff\xfe\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("RXGB-ERROR config: cannot read config file")
    assert err.count("\n") == 1
    assert not out.exists()


def _config_mutants(blob, rng, count):
    """Seeded mutants of a config file: half truncations, half 1-4 random
    byte writes; every fourth write rewrites digits as digits instead, so
    that numbers change and still parse."""
    digits = [i for i, b in enumerate(blob) if 0x30 <= b <= 0x39]
    for k in range(count):
        if k % 2 == 0:
            yield blob[:int(rng.integers(0, len(blob)))]
            continue
        m = bytearray(blob)
        for _ in range(int(rng.integers(1, 5))):
            if k % 4 == 1:
                m[int(rng.integers(0, len(m)))] = int(rng.integers(0, 256))
            else:
                m[digits[int(rng.integers(0, len(digits)))]] = 0x30 + int(rng.integers(0, 10))
        yield bytes(m)


def test_config_mutants_through_cost_print_one_config_line(tmp_path, capsys):
    # A rendered config, truncated or overwritten: each mutant runs, or fails
    # as one config line. The one other outcome is a tree depth past the
    # costed bound, which the cost model refuses as invalid-value (see
    # test_cost_rejects_a_depth_past_the_costed_bound).
    blob = cli.render_config(cli.resolve_config(None, {})).encode()
    config = tmp_path / "config.txt"
    outcomes = {"ok": 0, "config": 0, "depth": 0}
    for k, mutant in enumerate(_config_mutants(blob, np.random.default_rng(11), 300)):
        config.write_bytes(mutant)
        capsys.readouterr()
        rc = cli.main(["cost", "--config", str(config)])
        err = capsys.readouterr().err
        if rc == 0:
            assert err == "", (k, mutant, err)
            outcomes["ok"] += 1
            continue
        assert err.count("\n") == 1, (k, mutant, err)
        if err.startswith("RXGB-ERROR invalid-value: max_depth"):
            assert rc == 1 and "past the deepest costed tree" in err, (k, mutant, err)
            outcomes["depth"] += 1
            continue
        assert rc == 2 and err.startswith("RXGB-ERROR config:"), (k, mutant, err)
        outcomes["config"] += 1
    assert outcomes["config"] >= 150 and outcomes["ok"] >= 30, outcomes


@pytest.mark.parametrize("flag, value", [
    ("net.width_mult", "inf"), ("net.width_mult", "1e400"), ("net.width_mult", "nan"),
    ("net.width_mult", "0"), ("net.width_mult", "2.8"),
    ("gbdt.learning_rate", "nan"), ("gbdt.reg_lambda", "-1"),
    ("gbdt.budget_mode", "total_tr"),
])
def test_config_values_that_build_no_model_are_one_config_line(capsys, flag, value):
    # 2.8 rounds block4's channels to 358 -> 717, which is not a doubling;
    # inf used to escape as an internal OverflowError.
    assert cli.main(["cost", f"--{flag}", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("RXGB-ERROR config:"), err
    assert err.count("\n") == 1


# --- pipeline and stage commands -------------------------------------------------


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    write_synthetic_cache(cache)
    return cache


def run_pipeline(cache, out):
    return cli.main(["pipeline", "--out", str(out),
                     "--data.dir", str(cache), *SMOKE_ARGS])


ARTIFACTS = ("config.txt", "checkpoint.ckpt", "metrics.tsv",
             "features-train.rxgbfeat", "features-test.rxgbfeat",
             "gbdt-model.txt")


def test_pipeline_smoke_writes_all_artifacts(tmp_path, cache_dir, capsys):
    out = tmp_path / "run"
    assert run_pipeline(cache_dir, out) == 0
    text = capsys.readouterr().out
    assert "pipeline complete" in text
    assert "fc head top-1 accuracy" in text
    assert "gbdt head top-1 accuracy" in text
    assert "confusion matrix" in text
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    config = (out / "config.txt").read_text()
    assert "net.width_mult = 0.125" in config
    assert "train.epochs = 1" in config


def test_pipeline_prints_the_paired_table_of_its_two_heads(tmp_path, cache_dir, capsys):
    out = tmp_path / "run"
    assert run_pipeline(cache_dir, out) == 0
    text = capsys.readouterr().out
    m = re.search(r"paired heads on (\d+) test images: both right (\d+), fc only (\d+), "
                  r"hybrid only (\d+), neither (\d+)\nexact McNemar p \(two-sided\): (\S+)\n",
                  text)
    assert m, text
    total, both, fc_only, hybrid_only, neither = map(int, m.groups()[:5])
    assert both + fc_only + hybrid_only + neither == total
    fc, hybrid = (float(v) for v in re.search(
        r"pipeline complete in [\d.]+s: fc ([\d.]+), hybrid ([\d.]+)", text).groups())
    assert f"{(both + fc_only) / total:.4f}" == f"{fc:.4f}"
    assert f"{(both + hybrid_only) / total:.4f}" == f"{hybrid:.4f}"
    assert m.group(6) == f"{cli._mcnemar_p(fc_only, hybrid_only):.3g}"


def test_mcnemar_p_matches_hand_computed_tails():
    assert cli._mcnemar_p(0, 0) == 1.0
    assert cli._mcnemar_p(3, 3) == 1.0                   # tail 42/64 doubled, capped
    assert cli._mcnemar_p(1, 0) == 1.0                   # 2 * 1/2
    assert cli._mcnemar_p(0, 5) == 2 / 32
    # 32 against 4: 2 * (1 + 36 + 630 + 7140 + 58905) / 2**36
    assert cli._mcnemar_p(32, 4) == 2 * 66712 / 2 ** 36
    assert abs(cli._mcnemar_p(4, 32) - 1.9415e-6) < 1e-9
    # 183 against 145 (the one-epoch desk run): p ~ 0.041
    assert 0.040 < cli._mcnemar_p(183, 145) < 0.042


def test_pipeline_is_deterministic(tmp_path, cache_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_pipeline(cache_dir, a) == 0
    assert run_pipeline(cache_dir, b) == 0
    for name in ("checkpoint.ckpt", "features-train.rxgbfeat",
                 "features-test.rxgbfeat", "gbdt-model.txt", "config.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_pipeline_equals_manual_command_sequence(tmp_path, cache_dir, capsys):
    pipe = tmp_path / "pipe"
    assert run_pipeline(cache_dir, pipe) == 0
    manual = tmp_path / "manual"
    base = ["--data.dir", str(cache_dir), *SMOKE_ARGS]
    assert cli.main(["train", "--out", str(manual), *base]) == 0
    assert cli.main(["extract", "--checkpoint", str(manual / "checkpoint.ckpt"),
                     "--out", str(manual), *base]) == 0
    assert cli.main(["train-gbdt",
                     "--features", str(manual / "features-train.rxgbfeat"),
                     "--out", str(manual), *base]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--head", "fc",
                     "--checkpoint", str(manual / "checkpoint.ckpt"), *base]) == 0
    assert cli.main(["eval", "--head", "gbdt",
                     "--checkpoint", str(manual / "checkpoint.ckpt"),
                     "--model", str(manual / "gbdt-model.txt"), *base]) == 0
    evals = capsys.readouterr().out
    assert "fc head top-1 accuracy" in evals
    assert "gbdt head top-1 accuracy" in evals
    for name in ("checkpoint.ckpt", "features-train.rxgbfeat",
                 "features-test.rxgbfeat", "gbdt-model.txt"):
        assert (pipe / name).read_bytes() == (manual / name).read_bytes(), name


@pytest.mark.parametrize("flag, value", [
    ("train.lr", "nan"), ("train.lr", "inf"), ("train.momentum", "nan"),
    ("train.weight_decay", "inf"), ("train.batch_size", "0"), ("train.epochs", "0"),
])
def test_train_settings_that_build_no_trainer_are_one_config_line(
        tmp_path, cache_dir, capsys, flag, value):
    # non-finite lr, momentum and weight decay used to run one SGD step and
    # abort with a runtime error, leaving an out dir behind
    out = tmp_path / "run"
    rc = cli.main(["train", "--out", str(out), "--data.dir", str(cache_dir),
                   *SMOKE_ARGS, f"--{flag}", value])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("RXGB-ERROR config:"), err
    assert err.count("\n") == 1
    assert not out.exists()


def test_train_gbdt_reports_round_losses(tmp_path, cache_dir, capsys):
    out = tmp_path / "gb"
    manual = tmp_path / "m"
    base = ["--data.dir", str(cache_dir), *SMOKE_ARGS]
    assert cli.main(["train", "--out", str(manual), *base]) == 0
    assert cli.main(["extract", "--checkpoint", str(manual / "checkpoint.ckpt"),
                     "--out", str(manual), *base]) == 0
    capsys.readouterr()
    assert cli.main(["train-gbdt",
                     "--features", str(manual / "features-train.rxgbfeat"),
                     "--out", str(out), *base]) == 0
    text = capsys.readouterr().out
    assert "initial  train log-loss" in text
    assert "round  1  train log-loss" in text


def test_compliance_refuses_oversized_head_before_compute(tmp_path, capsys):
    missing = str(tmp_path / "never-read.rxgbfeat")
    assert cli.main(["train-gbdt", "--features", missing,
                     "--gbdt.max_trees", "21"]) == 2
    err = capsys.readouterr().err
    assert "RXGB-ERROR config:" in err
    assert "21 total trees exceeds 20" in err

    assert cli.main(["train-gbdt", "--features", missing,
                     "--gbdt.max_depth", "11"]) == 2
    err = capsys.readouterr().err
    assert "depth 11 exceeds 10" in err

    # rounds mode counts trees-per-class x classes against the same bound
    assert cli.main(["train-gbdt", "--features", missing,
                     "--gbdt.budget_mode", "rounds",
                     "--gbdt.max_trees", "3"]) == 2
    err = capsys.readouterr().err
    assert "30 total trees" in err


def test_no_compliance_unlocks_and_runs(tmp_path, cache_dir, capsys):
    manual = tmp_path / "m"
    base = ["--data.dir", str(cache_dir), *SMOKE_ARGS]
    assert cli.main(["train", "--out", str(manual), *base]) == 0
    assert cli.main(["extract", "--checkpoint", str(manual / "checkpoint.ckpt"),
                     "--out", str(manual), *base]) == 0
    capsys.readouterr()
    rc = cli.main(["train-gbdt", "--no-compliance",
                   "--features", str(manual / "features-train.rxgbfeat"),
                   "--out", str(tmp_path / "big"),
                   "--data.dir", str(cache_dir),
                   "--gbdt.max_trees", "22", "--gbdt.max_depth", "2"])
    assert rc == 0
    assert "22 trees" in capsys.readouterr().out


def test_missing_artifact_error_line(tmp_path, capsys):
    rc = cli.main(["extract", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("RXGB-ERROR missing-artifact:")


def _artifact(tmp_path, spec, seed=0):
    """The checkpoint file bytes of a freshly built backbone."""
    path = tmp_path / "artifact.ckpt"
    network.save_checkpoint(network.build_network(spec, seed=seed), path)
    return path.read_bytes()


def _real_offset(blob, spec, name):
    """Offset in a checkpoint of the first float32 of parameter ``name``: past
    the header, the spec JSON and the sign bits, then the reals in layout
    order, one alpha per output channel standing for each latent."""
    layout = list(network._param_layout(spec))
    bits = sum(math.prod(shape) for n, shape, _, _ in layout if n.endswith(".w_latent"))
    at = 16 + struct.unpack_from("<I", blob, 12)[0] + -(-bits // 8)
    for n, shape, _, _ in layout:
        if n == name:
            return at
        at += 4 * (shape[0] if n.endswith(".w_latent") else math.prod(shape))
    raise KeyError(name)


def _checkpoint_mutants(blob, spec):
    """One mutant per way a checkpoint can be malformed."""
    var = _real_offset(blob, spec, "block1.bn_conv3x3.run_var")
    stem = _real_offset(blob, spec, "stem.conv.w")

    def real_at(at, value):
        return blob[:at] + struct.pack("<f", value) + blob[at + 4:]

    mutants = {
        "format version 2": blob[:8] + struct.pack("<I", 2) + blob[12:],
        "non-UTF-8 spec": blob.replace(b'"layers"', b'"\xffayers"', 1),
        "unknown layer kind": blob.replace(b'"binary_block_normal"',
                                           b'"binary_block_xormal"', 1),
        "spec dict missing its layers": blob.replace(b'"layers":', b'"layerz":', 1),
        "spec length past the end": blob[:12] + struct.pack("<I", len(blob)) + blob[16:],
        "truncated payload": blob[:-1],
        "trailing bytes": blob + b"\x00",
        "NaN running variance": real_at(var, float("nan")),
        "negative running variance": real_at(var, -1.0),
        "infinite stem weight": real_at(stem, float("inf")),
    }
    assert all(m != blob for m in mutants.values())
    return mutants


# Warnings are errors: a mutant must be refused before any arithmetic warns on
# it (the plan folds sqrt(run_var + eps), so a negative variance is refused
# first), and an error raised from a warning would not be a checkpoint-format
# line.
@pytest.mark.filterwarnings("error")
def test_checkpoint_mutants_print_one_checkpoint_format_line(tmp_path, cache_dir,
                                                             capsys):
    spec = netspec.reference_spec(width_mult=0.125)
    for kind, mutant in _checkpoint_mutants(_artifact(tmp_path, spec), spec).items():
        path = tmp_path / "mutant.ckpt"
        path.write_bytes(mutant)
        capsys.readouterr()
        rc = cli.main(["extract", "--checkpoint", str(path),
                       "--out", str(tmp_path / "o"), "--data.dir", str(cache_dir),
                       *SMOKE_ARGS])
        err = capsys.readouterr().err
        assert rc == 1, kind
        assert err.startswith("RXGB-ERROR checkpoint-format:"), (kind, err)
        assert err.count("\n") == 1, (kind, err)
        assert not (tmp_path / "o").exists(), kind


def test_seeded_checkpoint_mutants_through_extract_fail_closed(tmp_path, capsys):
    # 200 truncations and 1-4 byte writes of a width-0.125 artifact, most of
    # whose bytes are sign bits: each either extracts features or prints one
    # checkpoint-format line and leaves no output dir
    cache = tmp_path / "cache"
    write_synthetic_cache(cache, n_train=12, n_test=6)
    spec = netspec.reference_spec(width_mult=0.125, include_fc=False)
    blob = _artifact(tmp_path, spec)
    path = tmp_path / "mutant.ckpt"
    outcomes = {"ok": 0, "checkpoint-format": 0}
    for k, mutant in enumerate(_byte_mutants(blob, np.random.default_rng(17), 200)):
        path.write_bytes(mutant)
        out = tmp_path / f"o{k}"
        capsys.readouterr()
        rc = cli.main(["extract", "--checkpoint", str(path), "--data.dir", str(cache),
                       "--out", str(out)])
        err = capsys.readouterr().err
        if rc == 0:
            outcomes["ok"] += 1
            assert (out / "features-test.rxgbfeat").exists(), k
            continue
        assert rc == 1, (k, err)
        assert err.startswith("RXGB-ERROR checkpoint-format:"), (k, err)
        assert err.count("\n") == 1, (k, err)
        assert not out.exists(), k
        outcomes["checkpoint-format"] += 1
    assert outcomes["checkpoint-format"] >= 100, outcomes  # every truncation at least
    assert outcomes["ok"] > 0, outcomes


def test_eval_gbdt_requires_model_flag(tmp_path, cache_dir, capsys):
    manual = tmp_path / "m"
    base = ["--data.dir", str(cache_dir), *SMOKE_ARGS]
    assert cli.main(["train", "--out", str(manual), *base]) == 0
    capsys.readouterr()
    rc = cli.main(["eval", "--head", "gbdt",
                   "--checkpoint", str(manual / "checkpoint.ckpt"), *base])
    assert rc == 2
    assert "requires --model" in capsys.readouterr().err


def _deep_tree(depth):
    return "(split f=0 t=0.5 d=left " * depth + "(leaf w=1)" + " (leaf w=0))" * depth


@pytest.mark.parametrize("tree", ["(split f=-1 t=0.5 d=left (leaf w=1) (leaf w=0))",
                                  "(split f=99 t=0.5 d=left (leaf w=1) (leaf w=0))",
                                  _deep_tree(3000)],
                         ids=["negative-feature", "feature-past-n_features",
                              "nested-3000-deep"])
def test_eval_gbdt_malformed_tree_is_one_model_format_line(tmp_path, capsys, tree):
    ens = gbdt.TreeEnsemble(config=gbdt.GBDTConfig(n_classes=2, max_trees=2),
                            n_features=4)
    text = gbdt.serialize(ens).replace("trees=0\n", f"trees=1\n(tree class=0 {tree})\n")
    model = tmp_path / "gbdt-model.txt"
    model.write_text(text, encoding="utf-8")
    capsys.readouterr()
    # the model is parsed first, so the checkpoint need not exist
    rc = cli.main(["eval", "--head", "gbdt", "--model", str(model),
                   "--checkpoint", str(tmp_path / "absent.ckpt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("RXGB-ERROR model-format:"), err[:200]
    assert err.count("\n") == 1


@pytest.mark.parametrize("case, pattern, repl", NON_FINITE_MODEL_EDITS,
                         ids=[e[0] for e in NON_FINITE_MODEL_EDITS])
def test_eval_gbdt_non_finite_model_value_is_one_model_format_line(
        tmp_path, capsys, case, pattern, repl):
    x = np.random.default_rng(14).normal(size=(20, 4)).astype(np.float32)
    ens = gbdt.train_ensemble(x, np.arange(20) % 2,
                              gbdt.GBDTConfig(n_classes=2, max_trees=2, max_depth=2))
    text, n = re.subn(pattern, repl, gbdt.serialize(ens), count=1)
    assert n == 1
    model = tmp_path / "gbdt-model.txt"
    model.write_text(text, encoding="utf-8")
    capsys.readouterr()
    rc = cli.main(["eval", "--head", "gbdt", "--model", str(model),
                   "--checkpoint", str(tmp_path / "absent.ckpt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("RXGB-ERROR model-format:"), err[:200]
    assert err.count("\n") == 1


def test_eval_gbdt_non_utf8_model_is_one_model_format_line(tmp_path, capsys):
    model = tmp_path / "gbdt-model.txt"
    model.write_bytes(b"RXGB-GBDT v1\n\xff\xfe\n")
    capsys.readouterr()
    rc = cli.main(["eval", "--head", "gbdt", "--model", str(model),
                   "--checkpoint", str(tmp_path / "absent.ckpt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("RXGB-ERROR model-format:"), err[:200]
    assert err.count("\n") == 1


def test_eval_fc_without_fc_head_is_one_invalid_value_line(tmp_path, cache_dir,
                                                           capsys):
    spec = netspec.reference_spec(width_mult=0.125, include_fc=False)
    ckpt = tmp_path / "nofc.ckpt"
    network.save_checkpoint(network.build_network(spec, seed=0), ckpt)
    capsys.readouterr()
    rc = cli.main(["eval", "--head", "fc", "--checkpoint", str(ckpt),
                   "--data.dir", str(cache_dir), *SMOKE_ARGS])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("RXGB-ERROR invalid-value:")
    assert err.count("\n") == 1                          # single line


def test_fetch_data_verifies_existing_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    write_synthetic_cache(cache, n_train=4, n_test=2)
    assert cli.main(["fetch-data", "--data.dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert out.count("verified") == 4
    assert (cache / "digests.lock").exists()


# --- failed commands leave no output ----------------------------------------------


def test_failed_extract_creates_no_dir_and_keeps_an_existing_config(
        tmp_path, cache_dir, capsys):
    blob = _artifact(tmp_path, netspec.reference_spec(width_mult=0.125))
    v2 = tmp_path / "v2.ckpt"
    v2.write_bytes(blob[:8] + struct.pack("<I", 2) + blob[12:])
    base = ["extract", "--checkpoint", str(v2), "--data.dir", str(cache_dir),
            *SMOKE_ARGS]

    fresh = tmp_path / "fresh"
    assert cli.main([*base, "--out", str(fresh)]) == 1
    assert capsys.readouterr().err.startswith("RXGB-ERROR checkpoint-format:")
    assert not fresh.exists()

    run = tmp_path / "run"                     # an earlier command's run dir
    run.mkdir()
    (run / "config.txt").write_bytes(b"seed = 5\n")
    assert cli.main([*base, "--out", str(run), "--seed", "6"]) == 1
    assert capsys.readouterr().err.startswith("RXGB-ERROR checkpoint-format:")
    assert (run / "config.txt").read_bytes() == b"seed = 5\n"
    assert sorted(p.name for p in run.iterdir()) == ["config.txt"]


def _byte_mutants(blob, rng, count):
    """Seeded mutants of a file's bytes: half truncations, half 1-4 random
    byte writes."""
    for k in range(count):
        if k % 2 == 0:
            yield blob[:int(rng.integers(0, len(blob)))]
        else:
            m = bytearray(blob)
            for _ in range(int(rng.integers(1, 5))):
                m[int(rng.integers(0, len(m)))] = int(rng.integers(0, 256))
            yield bytes(m)


def test_feature_file_mutants_print_one_data_format_line(tmp_path, capsys):
    rng = np.random.default_rng(8)
    path = tmp_path / "f.rxgbfeat"
    data.save_features(path, rng.standard_normal((40, 6)).astype(np.float32),
                       np.arange(40) % 10)
    blob = path.read_bytes()
    outcomes = {"ok": 0, "data-format": 0}
    for k, mutant in enumerate(_byte_mutants(blob, rng, 80)):
        path.write_bytes(mutant)
        out = tmp_path / f"o{k}"
        capsys.readouterr()
        rc = cli.main(["train-gbdt", "--features", str(path), "--out", str(out),
                       "--gbdt.max_trees", "2", "--gbdt.max_depth", "2"])
        err = capsys.readouterr().err
        if rc == 0:
            outcomes["ok"] += 1
            assert (out / "gbdt-model.txt").exists(), k
            continue
        assert rc == 1, (k, err)
        assert err.startswith("RXGB-ERROR data-format:"), (k, err)
        assert err.count("\n") == 1, (k, err)
        assert not out.exists(), k
        outcomes["data-format"] += 1
    assert outcomes["data-format"] >= 40, outcomes      # every truncation at least


def _idx_mutants(blob, rng, count, header):
    """Seeded mutants of an IDX file: a third truncations, a third 1-4 random
    byte writes anywhere, a third 1-4 within the ``header`` first bytes."""
    for k in range(count):
        if k % 3 == 0:
            yield blob[:int(rng.integers(0, len(blob)))]
            continue
        m = bytearray(blob)
        span = len(m) if k % 3 == 1 else header
        for _ in range(int(rng.integers(1, 5))):
            m[int(rng.integers(0, span))] = int(rng.integers(0, 256))
        yield bytes(m)


def test_idx_mutants_through_extract_print_one_data_format_line(tmp_path, capsys):
    cache = tmp_path / "cache"
    write_synthetic_cache(cache, n_train=12, n_test=6)
    ckpt = tmp_path / "b.ckpt"
    network.save_checkpoint(network.build_network(
        netspec.reference_spec(width_mult=0.125, include_fc=False), seed=0), ckpt)
    rng = np.random.default_rng(10)
    images = (cache / "train-images-idx3-ubyte").read_bytes()
    # files that parse but make no dataset: 56x14 images, one image too few
    mutants = [("train-images-idx3-ubyte",
                images[:8] + struct.pack(">II", 56, 14) + images[16:]),
               ("train-images-idx3-ubyte",
                images[:4] + struct.pack(">I", 11) + images[8:-28 * 28])]
    for name, header, count in (("train-images-idx3-ubyte", 16, 60),
                                ("train-labels-idx1-ubyte", 8, 60),
                                ("t10k-images-idx3-ubyte", 16, 60),
                                ("t10k-labels-idx1-ubyte", 8, 60)):
        blob = (cache / name).read_bytes()
        mutants += [(name, m) for m in _idx_mutants(blob, rng, count, header)]
    outcomes = {"ok": 0, "data-format": 0}
    for k, (name, mutant) in enumerate(mutants):
        original = (cache / name).read_bytes()
        (cache / name).write_bytes(mutant)
        out = tmp_path / f"o{k}"
        capsys.readouterr()
        rc = cli.main(["extract", "--checkpoint", str(ckpt), "--data.dir", str(cache),
                       "--out", str(out)])
        err = capsys.readouterr().err
        (cache / name).write_bytes(original)
        if rc == 0:
            outcomes["ok"] += 1
            assert (out / "features-test.rxgbfeat").exists(), (k, name)
            continue
        assert rc == 1, (k, name, err)
        assert err.startswith("RXGB-ERROR data-format:"), (k, name, err)
        assert err.count("\n") == 1, (k, name, err)
        assert not out.exists(), (k, name)
        outcomes["data-format"] += 1
    assert outcomes["data-format"] >= 2 + 4 * 20, outcomes  # every truncation at least
    assert outcomes["ok"] > 0, outcomes


def _model_mutants(blob, rng, count):
    """Seeded mutants of a model file: a third truncations, a third 1-4 random
    byte writes, a third 1-4 digits rewritten as digits, so most still parse
    and carry other numbers."""
    digits = [i for i, b in enumerate(blob) if 0x30 <= b <= 0x39]
    for k in range(count):
        if k % 3 == 0:
            yield blob[:int(rng.integers(0, len(blob)))]
            continue
        m = bytearray(blob)
        for _ in range(int(rng.integers(1, 5))):
            if k % 3 == 1:
                m[int(rng.integers(0, len(m)))] = int(rng.integers(0, 256))
            else:
                i = digits[int(rng.integers(0, len(digits)))]
                m[i] = 0x30 + int(rng.integers(0, 10))
        yield bytes(m)


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A width-0.125 backbone checkpoint and a 10-class, 10-tree model for
    its 128 features."""
    root = tmp_path_factory.mktemp("eval")
    spec = netspec.reference_spec(width_mult=0.125, include_fc=False)
    ckpt = root / "b.ckpt"
    network.save_checkpoint(network.build_network(spec, seed=0), ckpt)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, spec.feature_dim)).astype(np.float32)
    ens = gbdt.train_ensemble(x, np.arange(40) % 10,
                              gbdt.GBDTConfig(n_classes=10, max_trees=10, max_depth=2))
    return ckpt, gbdt.serialize(ens)


def _eval_gbdt(model, ckpt, cache_dir, capsys):
    capsys.readouterr()
    rc = cli.main(["eval", "--head", "gbdt", "--model", str(model),
                   "--checkpoint", str(ckpt), "--data.dir", str(cache_dir)])
    return rc, capsys.readouterr().err


def test_model_mutants_print_one_model_format_line(tmp_path, cache_dir, eval_inputs,
                                                   capsys):
    ckpt, text = eval_inputs
    rng = np.random.default_rng(10)
    model = tmp_path / "gbdt-model.txt"
    outcomes = {"ok": 0, "model-format": 0}
    for k, mutant in enumerate(_model_mutants(text.encode(), rng, 300)):
        model.write_bytes(mutant)
        rc, err = _eval_gbdt(model, ckpt, cache_dir, capsys)
        if rc == 0:
            outcomes["ok"] += 1
            continue
        assert rc == 1, (k, err)
        assert err.startswith("RXGB-ERROR model-format:"), (k, err)
        assert err.count("\n") == 1, (k, err)
        outcomes["model-format"] += 1
    assert outcomes["model-format"] >= 100, outcomes     # every truncation at least
    assert outcomes["ok"] >= 30, outcomes


@pytest.mark.parametrize("edits", [
    [("n_features=128", "n_features=129")],              # wider than the features
    [("n_features=128", "n_features=0"),                 # unrecorded, and splits
     ("(split f=", "(split f=500")],                     # on columns >= 128
    [("n_classes=10", "n_classes=11"),                   # a class the data lacks,
     ("\nn_features=", " 9.0\nn_features=")],            # which wins every row
])
def test_eval_gbdt_model_that_does_not_fit_is_one_model_format_line(
        tmp_path, cache_dir, eval_inputs, capsys, edits):
    ckpt, text = eval_inputs
    for old, new in edits:
        text = text.replace(old, new)
    model = tmp_path / "gbdt-model.txt"
    model.write_text(text, encoding="utf-8")
    rc, err = _eval_gbdt(model, ckpt, cache_dir, capsys)
    assert rc == 1
    assert err.startswith("RXGB-ERROR model-format:"), err[:200]
    assert err.count("\n") == 1
