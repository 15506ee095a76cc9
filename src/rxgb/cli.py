"""Command-line pipeline driver.

Subcommands cover the full two-stage workflow::

    rxgb fetch-data                      download + verify the dataset
    rxgb train --out DIR                 stage 1: SGD-train backbone + FC head
    rxgb extract --checkpoint F --out DIR   pooled features for train and test
    rxgb train-gbdt --features F --out DIR  stage 2: boosted-tree head
    rxgb eval --checkpoint F [--model M]  score every head, paired if both
    rxgb cost --spec reference [--diff reference-nofc]   cost report / delta
    rxgb pipeline --out DIR              all stages with one seed

The train, extract, boost and eval stages are one function each; every
subcommand loads its inputs and calls one, and ``pipeline`` calls all four in
turn, so its artifacts and scores are the manual sequence's by construction.
The train stage freezes the trained backbone once (``network.freeze``) and
saves that plan, the one ``extract`` and ``eval`` load from ``checkpoint.ckpt``;
eval scores every head the run holds on the test features extracted once, and
prints the paired table of the FC and tree heads when it has both.

``checkpoint.ckpt`` is the deployed backbone: a header and then one sign bit
per binary weight and a float32 per real (about 1.06 MB at width 0.5). It
holds no latent magnitudes, so no command resumes training from it. The
``best epoch`` line of ``train`` prints the sha256 of the best state's float64
parameters, which shows training changes smaller than the float32 rounding.

Configuration is a flat key=value namespace (see DEFAULTS). Values come
from ``--config FILE`` and are overridden by ``--<key> <value>`` flags, e.g.
``--train.epochs 1 --data.subset 512``. ``gbdt.max_trees`` counts the trees
of all classes together. What no run varies is fixed, not a key: every binary
conv scales its signs by alpha = mean |W| per filter, and every tree's base
margin is 0. Unknown keys are rejected, and every command that writes
artifacts echoes the fully resolved configuration to ``<out>/config.txt``.
It does so only once its inputs are loaded and validated, so a command that
fails on its inputs writes nothing.

Failures print a single machine-parsable line to stderr::

    RXGB-ERROR <class>: <detail>

with exit code 2 for configuration/usage errors and 1 for everything else.
Compliance mode (default on) refuses tree heads beyond the deployable
envelope — more than 20 trees in total or depth over 10 — before any
compute; ``--no-compliance`` unlocks exploration. ``--threads N`` caps BLAS
worker threads; outputs are independent of N because binary-conv products
are exact integer sums and every real matrix product is reduced in
fixed-width contraction blocks (see ``tensor_ops``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

# key -> (default, parser); parsers raise ValueError on bad input
DEFAULTS: dict[str, tuple] = {
    "seed": (0, int),
    "net.width_mult": (1.0, float),
    "train.epochs": (120, int),
    "train.batch_size": (128, int),
    "train.lr": (0.01, float),
    "train.momentum": (0.9, float),
    "train.weight_decay": (1e-5, float),
    "train.augment": (False, None),                       # bool, see _parse_bool
    "gbdt.max_trees": (20, int),
    "gbdt.max_depth": (10, int),
    "gbdt.learning_rate": (0.3, float),
    "gbdt.reg_lambda": (1.0, float),
    "gbdt.gamma": (0.0, float),
    "gbdt.min_child_weight": (1.0, float),
    "data.dir": ("", str),
    "data.subset": (0, int),
    "data.test_subset": (0, int),
    "data.val_count": (5000, int),
}

COMPLIANCE_MAX_TREES = 20
COMPLIANCE_MAX_DEPTH = 10
_CLASSES = 10                        # labels lie in [0, 10) (see data)


class ConfigError(ValueError):
    """Bad configuration key, value, or file."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _coerce(key: str, raw: str):
    default, parser = DEFAULTS[key]
    try:
        if isinstance(default, bool):
            return _parse_bool(raw)
        return parser(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {e}") from e


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines; '#' starts a comment; unknown keys rejected."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def resolve_config(config_path: str | None, overrides: dict) -> dict:
    """Defaults <- config file <- CLI overrides, strictly in that order."""
    values = {key: default for key, (default, _) in DEFAULTS.items()}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        values.update(parse_config_text(text, source=config_path))
    for key, raw in overrides.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def render_config(cfg: dict) -> str:
    """Deterministic key=value text of the resolved configuration."""
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _split_overrides(rest: list[str]) -> dict:
    """Turn trailing `--some.key value` pairs into an override mapping."""
    overrides = {}
    i = 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, raw = key.split("=", 1)
        else:
            if i + 1 >= len(rest):
                raise ConfigError(f"flag --{key} needs a value")
            raw = rest[i + 1]
            i += 1
        overrides[key] = raw
        i += 1
    return overrides


def _setup_threads(argv: list[str]) -> None:
    """Apply --threads N to the BLAS thread pools before numpy loads."""
    n = None
    for i, tok in enumerate(argv):
        if tok == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif tok.startswith("--threads="):
            n = tok.split("=", 1)[1]
    if n is None:
        return
    try:
        count = int(n)
        if count < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"--threads must be a positive integer, got {n!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(count)


# --- shared helpers ----------------------------------------------------------


def _out_dir(args, cfg) -> str:
    """Create the artifact directory and write config.txt into it; called
    after the command's inputs are loaded and validated."""
    from . import data

    out = args.out or time.strftime(f"runs/%Y%m%d-%H%M%S-seed{cfg['seed']}")
    os.makedirs(out, exist_ok=True)
    with data.atomic_open(os.path.join(out, "config.txt"), "w",
                          encoding="utf-8") as f:
        f.write(render_config(cfg))
    return out


def _batch_size(cfg) -> int:
    """train.batch_size, the batch extraction and scoring run in, once checked."""
    if cfg["train.batch_size"] < 1:
        raise ConfigError(f"train.batch_size = {cfg['train.batch_size']}: must be >= 1")
    return cfg["train.batch_size"]


def _load_split(cfg, split: str):
    from . import data

    ds = data.load_dataset(split, cache_dir=cfg["data.dir"] or None)
    key, limit = (("data.subset", cfg["data.subset"]) if split == "train" else
                  ("data.test_subset", cfg["data.test_subset"]))
    try:
        return data.subset(ds, limit) if limit else ds
    except ValueError as e:
        raise ConfigError(f"{key} = {limit}: {e}") from e


_SPEC_NAMES = ("reference", "reference-nofc")


def _build_spec(cfg, name: str = "reference"):
    from . import netspec

    if name not in _SPEC_NAMES:
        raise ConfigError(f"unknown spec {name!r}; choose from {_SPEC_NAMES}")
    try:
        spec = netspec.reference_spec(width_mult=cfg["net.width_mult"],
                                      include_fc=(name == "reference"))
        netspec.shape_chain(spec)
    except ValueError as e:
        raise ConfigError(f"net.width_mult = {cfg['net.width_mult']}: {e}") from e
    return spec


def _gbdt_config(cfg, compliance: bool):
    from . import gbdt

    try:
        config = gbdt.GBDTConfig(n_classes=_CLASSES, **{   # gbdt.<field> = value
            key[5:]: value for key, value in cfg.items() if key.startswith("gbdt.")
        })
    except ValueError as e:
        raise ConfigError(f"bad gbdt config: {e}") from e
    if compliance:
        if config.max_trees > COMPLIANCE_MAX_TREES:
            raise ConfigError(
                f"compliance mode: {config.max_trees} total trees "
                f"exceeds {COMPLIANCE_MAX_TREES} (use --no-compliance to override)"
            )
        if config.max_depth > COMPLIANCE_MAX_DEPTH:
            raise ConfigError(
                f"compliance mode: depth {config.max_depth} exceeds "
                f"{COMPLIANCE_MAX_DEPTH} (use --no-compliance to override)"
            )
    return config


# --- stages: every subcommand, pipeline included, composes these -----------


def _train_inputs(cfg, full):
    """Stage 1's validated inputs from the loaded train split ``full``:
    (train split, validation split, fresh model, hyperparameters)."""
    from . import data, network

    try:
        hp = network.StageOneConfig(
            epochs=cfg["train.epochs"],
            batch_size=cfg["train.batch_size"],
            learning_rate=cfg["train.lr"],
            momentum=cfg["train.momentum"],
            weight_decay=cfg["train.weight_decay"],
            seed=cfg["seed"],
            augment=cfg["train.augment"],
        )
    except ValueError as e:
        raise ConfigError(f"bad train config: {e}") from e
    try:
        train_ds, val_ds = data.split_train_val(full, cfg["data.val_count"])
    except ValueError as e:
        raise ConfigError(f"data.val_count = {cfg['data.val_count']}: {e}") from e
    model = network.build_network(_build_spec(cfg), seed=cfg["seed"])
    return train_ds, val_ds, model, hp


def _stage_train(inputs, out: str):
    """Stage 1: train backbone + FC head on ``_train_inputs``; write
    metrics.tsv and the checkpoint; returns the plan the checkpoint holds."""
    from . import data, network

    train_ds, val_ds, model, hp = inputs
    print(f"training {len(train_ds)} samples, validating {len(val_ds)}, "
          f"{hp.epochs} epochs")
    result = network.train_stage1(model, train_ds, val_ds, hp)
    metrics_path = os.path.join(out, "metrics.tsv")
    with data.atomic_open(metrics_path, "w", encoding="utf-8") as f:
        f.write("epoch\ttrain_loss\tval_top1\twall_seconds\tlearning_rate\n")
        for m in result.metrics:
            f.write(f"{m.epoch}\t{m.train_loss:.6f}\t{m.val_top1:.4f}\t"
                    f"{m.wall_seconds:.2f}\t{m.learning_rate:.6g}\n")
            print(f"epoch {m.epoch:3d}  loss {m.train_loss:.4f}  "
                  f"val top-1 {m.val_top1:.4f}  {m.wall_seconds:.1f}s")
    if result.aborted:
        raise RuntimeError(f"training aborted: {result.abort_reason}")
    ckpt_path = os.path.join(out, "checkpoint.ckpt")
    plan = network.freeze(result.model)
    network.save_checkpoint(plan, ckpt_path)
    print(f"best epoch {result.best_epoch} (val top-1 {result.best_val_top1:.4f}, "
          f"params sha256 {result.model.param_digest()}) -> {ckpt_path}")
    print(f"metrics -> {metrics_path}")
    return plan


def _stage_extract(cfg, model, ds, out: str):
    """Pooled features of one loaded split -> features-<split>.rxgbfeat;
    returns them."""
    from . import data, network

    feats, labels = network.extract_features(model, ds, batch_size=_batch_size(cfg))
    path = os.path.join(out, f"features-{ds.split}.rxgbfeat")
    data.save_features(path, feats, labels)
    print(f"{ds.split}: {feats.shape[0]} x {feats.shape[1]} features -> {path}")
    return feats, labels


def _stage_boost(config, feats, labels, out: str):
    """Stage 2: boost the tree head on features read from a feature file
    -> gbdt-model.txt."""
    from . import data, gbdt

    print(f"training tree head on {feats.shape[0]} x {feats.shape[1]} features "
          f"({config.max_trees} trees, depth <= {config.max_depth})")
    ens = gbdt.train_ensemble(feats, labels, config)
    for rnd, loss in enumerate(gbdt.round_losses(ens, feats, labels)):
        label = "initial" if rnd == 0 else f"round {rnd:2d}"
        print(f"{label}  train log-loss {loss:.6f}")
    path = os.path.join(out, "gbdt-model.txt")
    with data.atomic_open(path, "w", encoding="utf-8") as f:
        f.write(gbdt.serialize(ens))
    print(f"{len(ens.trees)} trees -> {path}")
    return ens


def _stage_eval(cfg, model, ens, feats, labels):
    """Print the top-1 and confusion matrix of every head on extracted features
    (FC if the plan has one, trees if ``ens``), and with both their paired
    table and exact McNemar p; returns {head: top-1}."""
    import numpy as np

    from . import gbdt, network

    preds = {}
    if model.spec.has_fc_head():
        logits = network.fc_logits(model, feats, _batch_size(cfg))
        preds["fc"] = np.argmax(logits, axis=1)
    if ens is not None:
        preds["gbdt"] = gbdt.predict_class(ens, feats)
    right, top1 = {}, {}
    for head, pred in preds.items():
        right[head] = pred == labels
        hits = int(right[head].sum())
        top1[head] = hits / len(labels)
        print(f"{head} head top-1 accuracy: {top1[head]:.4f} ({hits}/{len(labels)})")
        cm = np.zeros((_CLASSES, _CLASSES), dtype=np.int64)
        np.add.at(cm, (labels, pred), 1)
        print("confusion matrix (rows = true, cols = predicted):")
        width = max(len(str(cm.max())), 3)
        print("     " + " ".join(f"{c:>{width}}" for c in range(cm.shape[1])))
        for row in range(cm.shape[0]):
            cells = " ".join(f"{v:>{width}}" for v in cm[row])
            print(f"  {row:>2} {cells}")
    if len(right) == 2:
        fc, hybrid = right["fc"], right["gbdt"]
        fc_only, hybrid_only = int((fc & ~hybrid).sum()), int((hybrid & ~fc).sum())
        print(f"paired heads on {len(labels)} test images: "
              f"both right {int((fc & hybrid).sum())}, fc only {fc_only}, "
              f"hybrid only {hybrid_only}, neither {int((~fc & ~hybrid).sum())}")
        print(f"exact McNemar p (two-sided): {_mcnemar_p(fc_only, hybrid_only):.3g}")
    return top1


def _mcnemar_p(fc_only: int, hybrid_only: int) -> float:
    """Exact two-sided McNemar p-value of two classifiers scored on one test
    set: twice the binomial(n, 1/2) tail at the rarer of the n discordant
    images, capped at 1 (McNemar, Psychometrika 12, 1947)."""
    n = fc_only + hybrid_only
    tail = sum(math.comb(n, k) for k in range(min(fc_only, hybrid_only) + 1))
    return min(1.0, 2 * tail / 2 ** n)


# --- subcommands -------------------------------------------------------------


def cmd_fetch_data(args, cfg) -> int:
    from . import data

    paths = data.fetch(cache_dir=cfg["data.dir"] or None)
    for name in sorted(paths):
        print(f"verified {name} -> {paths[name]}")
    return 0


def cmd_train(args, cfg) -> int:
    inputs = _train_inputs(cfg, _load_split(cfg, "train"))
    _stage_train(inputs, _out_dir(args, cfg))
    return 0


def cmd_extract(args, cfg) -> int:
    from . import network

    model = network.load_checkpoint(args.checkpoint)
    splits = [_load_split(cfg, split) for split in ("train", "test")]
    _batch_size(cfg)                                  # refuse before the out dir
    out = _out_dir(args, cfg)
    for ds in splits:
        _stage_extract(cfg, model, ds, out)
    return 0


def cmd_train_gbdt(args, cfg) -> int:
    from . import data

    config = _gbdt_config(cfg, args.compliance)       # refuse before compute
    feats, labels = data.load_features(args.features)
    _stage_boost(config, feats, labels, _out_dir(args, cfg))
    return 0


def cmd_eval(args, cfg) -> int:
    from . import gbdt, network

    ens = None
    if args.model:
        try:
            with open(args.model, encoding="utf-8") as f:
                text = f.read()
        except UnicodeDecodeError as e:
            raise gbdt.FormatError(f"model file is not UTF-8 text: {e}") from e
        ens = gbdt.deserialize(text)
    model = network.load_checkpoint(args.checkpoint)
    if ens is not None:
        gbdt.check_fits(ens, model.spec.feature_dim, _CLASSES)
    elif not model.spec.has_fc_head():
        raise ConfigError(f"{args.checkpoint} has no FC head and no --model to score")
    feats, labels = network.extract_features(
        model, _load_split(cfg, "test"), batch_size=_batch_size(cfg)
    )
    _stage_eval(cfg, model, ens, feats, labels)
    return 0


def cmd_cost(args, cfg) -> int:
    from . import costmodel

    spec_a = _build_spec(cfg, args.spec)
    report_a = costmodel.cost_report(spec_a)
    with_budget = cfg["net.width_mult"] == 1.0
    config = _gbdt_config(cfg, compliance=False)
    try:
        tree_head = costmodel.gbdt_cost(config)
    except ValueError as e:
        raise ConfigError(f"gbdt.max_depth = {cfg['gbdt.max_depth']}: {e}") from e
    if args.machine:
        print(costmodel.render_machine(report_a), end="")
    else:
        print(costmodel.render_table(
            report_a,
            budget=costmodel.DESIGN_BUDGET if with_budget else None,
            with_fc=spec_a.has_fc_head(),
            tree_head=tree_head,
        ))
    if not args.diff:
        return 0
    spec_b = _build_spec(cfg, args.diff)
    report_b = costmodel.cost_report(spec_b)
    if args.machine:
        print(costmodel.render_machine(report_b), end="")
    else:
        print(costmodel.render_table(report_b, with_fc=spec_b.has_fc_head()))
    diff = costmodel.diff_reports(report_a, report_b)
    print(f"delta {args.diff} vs {args.spec}:")
    print(f"  headline FLOPs {diff.delta_headline_flops:+,}")
    print(f"  parameter bytes {diff.delta_param_bytes:+,.0f} "
          f"({diff.delta_param_megabytes:+.2f} MB)")
    if (with_budget and args.spec == "reference"
            and args.diff == "reference-nofc"):
        rec = costmodel.fc_removal_vs_budget(diff, costmodel.DESIGN_BUDGET)
        print(f"  vs budget table: FLOPs {rec.flops_pct:+.2f}%, "
              f"size {rec.param_pct:+.2f}%")
    return 0


def cmd_pipeline(args, cfg) -> int:
    from . import data, network

    config = _gbdt_config(cfg, args.compliance)       # refuse before compute
    started = time.perf_counter()
    train, test = (_load_split(cfg, split) for split in ("train", "test"))
    inputs = _train_inputs(cfg, train)
    out = _out_dir(args, cfg)
    plan = _stage_train(inputs, out)                  # the saved plan serves the rest
    _stage_extract(cfg, plan, train, out)
    test_feats, test_labels = _stage_extract(cfg, plan, test, out)
    # boost on the features as written (float32), as train-gbdt reads them
    feats, labels = data.load_features(os.path.join(out, "features-train.rxgbfeat"))
    ens = _stage_boost(config, feats, labels, out)
    top1 = _stage_eval(cfg, plan, ens, test_feats, test_labels)
    print(f"pipeline complete in {time.perf_counter() - started:.1f}s: "
          f"fc {top1['fc']:.4f}, hybrid {top1['gbdt']:.4f} -> {out}")
    return 0


# --- entry point ---------------------------------------------------------------

_ERROR_CLASSES = [
    # (exception qualifier, printed class, exit code); first match wins
    ("ConfigError", "config", 2),
    ("FormatError", "model-format", 1),
    ("CheckpointError", "checkpoint-format", 1),
    ("IdxError", "data-format", 1),
    ("FileNotFoundError", "missing-artifact", 1),
    ("ValueError", "invalid-value", 1),
    ("RuntimeError", "runtime", 1),
    ("OSError", "io", 1),
]


def _error_line(exc: BaseException) -> tuple[str, int]:
    mro_names = [base.__name__ for base in type(exc).__mro__]
    for qualifier, cls, code in _ERROR_CLASSES:
        if qualifier in mro_names:
            return f"RXGB-ERROR {cls}: {exc}", code
    return f"RXGB-ERROR internal: {exc}", 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxgb",
        description="Two-stage hybrid classifier: 1-bit CNN features + "
                    "bounded boosted-tree head.",
    )
    parser.add_argument("--threads", type=int, metavar="N",
                        help="cap BLAS worker threads (default: library choice)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, out=False):
        p.add_argument("--config", metavar="FILE",
                       help="key=value configuration file")
        p.add_argument("--threads", type=int, metavar="N",
                       help="cap BLAS worker threads (default: library choice)")
        if out:
            p.add_argument("--out", metavar="DIR",
                           help="artifact directory (default runs/<stamp>-seed<s>)")

    common(sub.add_parser("fetch-data", help="download and verify the dataset"))
    common(sub.add_parser("train", help="stage 1: train backbone + FC head"),
           out=True)
    p = sub.add_parser("extract", help="write pooled features for train/test")
    common(p, out=True)
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p = sub.add_parser("train-gbdt", help="stage 2: train the tree head")
    common(p, out=True)
    p.add_argument("--features", required=True, metavar="FILE")
    p.add_argument("--no-compliance", dest="compliance", action="store_false",
                   help="lift the 20-tree/depth-10 deployment bound")
    p = sub.add_parser("eval", help="score every head; pair the FC and tree heads")
    common(p)
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--model", metavar="FILE",
                   help="gbdt model, scored beside any FC head")
    p = sub.add_parser("cost", help="cost report for a named plan")
    common(p)
    p.add_argument("--spec", default="reference", metavar="NAME",
                   help="one of: reference, reference-nofc")
    p.add_argument("--diff", metavar="NAME",
                   help="second plan; prints both reports plus deltas")
    p.add_argument("--machine", action="store_true",
                   help="tab-separated rows instead of the aligned table")
    p = sub.add_parser("pipeline", help="train, extract, boost, evaluate")
    common(p, out=True)
    p.add_argument("--no-compliance", dest="compliance", action="store_false")
    return parser


_COMMANDS = {
    "fetch-data": cmd_fetch_data,
    "train": cmd_train,
    "extract": cmd_extract,
    "train-gbdt": cmd_train_gbdt,
    "eval": cmd_eval,
    "cost": cmd_cost,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _setup_threads(argv)
        parser = build_parser()
        args, rest = parser.parse_known_args(argv)
        overrides = _split_overrides(rest)
        cfg = resolve_config(args.config, overrides)
        return _COMMANDS[args.cmd](args, cfg)
    except KeyboardInterrupt:
        print("RXGB-ERROR interrupted: stopped by user", file=sys.stderr)
        return 130
    except Exception as exc:                   # noqa: BLE001 - CLI boundary
        line, code = _error_line(exc)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
