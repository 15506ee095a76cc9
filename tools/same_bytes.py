"""Same-seed ``rxgb pipeline`` artifacts of a revision against the working tree.

    python3 tools/same_bytes.py REV

The parent side is ``git archive REV``, the change side a snapshot of the
working tree, both as ``tools/bench_pairs.py`` makes them. Both run
``rxgb pipeline`` with seed 9301 for one epoch (batch 128) on 640 train and
160 test images from ``perfbench/gen.py``, seed 9301, written as IDX files.
``--data.val_count 127`` leaves 513 training images, so the last batch holds
one image. Each side runs once per config of ``CONFIGS`` (width, alpha
scaling, BLAS threads), one run at a time. Per config the script compares the
sha256 of the four artifacts whose bytes are the contract (``ARTIFACTS``);
``metrics.tsv`` holds wall seconds and is left out. It prints one row per
config and exits 1 if any artifact differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_rev, snapshot_worktree

sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

SEED = 9301
N_TRAIN, N_TEST = 640, 160
# (width_mult, alpha scaling, BLAS threads)
CONFIGS = ((0.25, True, 1), (0.25, False, 1), (0.5, True, 1), (0.5, False, 1),
           (0.5, True, 2))
ARTIFACTS = ("checkpoint.ckpt", "features-train.rxgbfeat", "features-test.rxgbfeat",
             "gbdt-model.txt")


def write_data(dest: Path) -> None:
    dest.mkdir()
    for prefix, offset, n in (("train", 0, N_TRAIN), ("t10k", N_TRAIN, N_TEST)):
        px, labels = gen.images(SEED, n, offset=offset)
        (dest / f"{prefix}-images-idx3-ubyte").write_bytes(gen.idx_images(px))
        (dest / f"{prefix}-labels-idx1-ubyte").write_bytes(gen.idx_labels(labels))


def run_pipeline(tree: Path, data_dir: Path, out: Path, config: tuple) -> dict:
    """sha256 of each of ARTIFACTS after one pipeline run in ``tree``."""
    width, alpha, threads = config
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, "-m", "rxgb.cli", "pipeline", "--seed", str(SEED),
           "--data.dir", str(data_dir), "--out", str(out),
           "--net.width_mult", str(width), "--binary.weight_scaling", str(alpha).lower(),
           "--train.epochs", "1", "--train.batch_size", "128",
           "--data.val_count", "127"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="parent revision, e.g. HEAD or a commit id")
    args = ap.parse_args(argv)

    differ = False
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        for tree in trees.values():
            tree.mkdir()
        export_rev(args.rev, trees["parent"])
        snapshot_worktree(trees["change"])
        write_data(tmp / "data")
        print(f"{'width':>5} {'alpha':>5} {'threads':>7}  "
              + "  ".join(f"{name:>23}" for name in ARTIFACTS))
        for i, config in enumerate(CONFIGS):
            digests = {side: run_pipeline(tree, tmp / "data", tmp / f"{side}{i}", config)
                       for side, tree in trees.items()}
            cells = []
            for name in ARTIFACTS:
                p, c = digests["parent"][name], digests["change"][name]
                cells.append(f"same {p[:18]}" if p == c else "DIFFERS")
                differ |= p != c
            width, alpha, threads = config
            print(f"{width:>5} {'on' if alpha else 'off':>5} {threads:>7}  "
                  + "  ".join(f"{cell:>23}" for cell in cells), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
