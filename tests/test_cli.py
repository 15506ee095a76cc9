"""CLI tests: config resolution, subcommands, determinism, error lines."""

import struct

import numpy as np
import pytest

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


def _checkpoint_mutants(blob):
    """One mutant per way a checkpoint used to escape CheckpointError."""
    name = b"block1.conv3x3.w_latent"
    mutants = {
        "format version 1": blob[:8] + struct.pack("<I", 1) + blob[12:],
        "non-UTF-8 record name": blob.replace(name, b"\xff" + name[1:], 1),
        "garbled dtype": blob.replace(b"<f8", b"<x8", 1),
        "unknown layer kind": blob.replace(b'"binary_block_normal"',
                                           b'"binary_block_xormal"', 1),
        "spec dict missing its layers": blob.replace(b'"layers":', b'"layerz":', 1),
        "record not in the plan": blob.replace(name, name[:-1] + b"x", 1),
        "record of the wrong shape": blob.replace(
            name + b"\x03<f8\x04" + struct.pack("<4I", 8, 8, 3, 3),
            name + b"\x03<f8\x04" + struct.pack("<4I", 8, 4, 6, 3), 1),
    }
    assert all(m != blob and len(m) == len(blob) for m in mutants.values())
    return mutants


def test_checkpoint_mutants_print_one_checkpoint_format_line(tmp_path, cache_dir,
                                                             capsys):
    spec = netspec.reference_spec(width_mult=0.125)
    blob = network.checkpoint_bytes(network.build_network(spec, seed=0))
    for kind, mutant in _checkpoint_mutants(blob).items():
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
        assert not list((tmp_path / "o").glob("*.rxgbfeat")), kind


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
    spec = netspec.reference_spec(width_mult=0.125)
    blob = network.checkpoint_bytes(network.build_network(spec, seed=0))
    v1 = tmp_path / "v1.ckpt"
    v1.write_bytes(blob[:8] + struct.pack("<I", 1) + blob[12:])
    base = ["extract", "--checkpoint", str(v1), "--data.dir", str(cache_dir),
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


def _feature_mutants(blob, rng, count):
    """Seeded mutants of a feature file: half truncations, half 1-4 random
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
    for k, mutant in enumerate(_feature_mutants(blob, rng, 80)):
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
