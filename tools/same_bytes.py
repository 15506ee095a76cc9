"""Same-seed ``rxgb pipeline`` artifacts of a revision against the working tree.

    python3 tools/same_bytes.py REV

The parent side is ``git archive REV``, the change side a snapshot of the
working tree, both as ``tools/bench_pairs.py`` makes them. Both run
``rxgb pipeline`` with seed 9301 for one epoch (batch 128) on 640 train and
160 test images from ``perfbench/gen.py``, seed 9301, written as IDX files.
``--data.val_count 127`` leaves 513 training images, so the last batch holds
one image. Each side runs once per config of ``CONFIGS`` (width, BLAS
threads), one run at a time. Per config the script compares the
sha256 of the four artifacts whose bytes are the contract (``ARTIFACTS``) and,
as a fifth column, the sha256 of the best state's float64 parameters that the
``best epoch`` line prints: the checkpoint holds float32 reals and sign bits,
which cannot show a training change below float32 rounding. A revision from
before that line wrote float64 checkpoints (format v2); for it the digest is
taken from the checkpoint's parameters, read by that revision's own code.
A sixth column is the sha256 of the float64 features of the 160 test images,
computed by each side's own code from its checkpoint, as one batch, then in
batches of four and then one image at a time: the feature files hold
float32, which cannot show an inference change below float32 rounding, and
the batch sizes take different conv paths (batches of one and four run the
XNOR kernel on the 4x4 or 2x2 grids, one with a single image per XOR and
one with several). A seventh column is the sha256 of the float64 margins
``gbdt.predict_margins`` gives for the test feature file from the model read
back from ``gbdt-model.txt``, by each side's own code, for the whole file and
then one row at a time: the model text can stay equal while routing changes.
The last two columns cross the sides: the change's code computes the
FEATURES digest from the parent's ``checkpoint.ckpt`` and the MARGINS digest
from the parent's ``gbdt-model.txt`` and test feature file, and each is
compared with the parent's own digest of the same files. A change that
trains to other bytes can so still show that inference kept its bytes.
``metrics.tsv`` holds wall seconds and is left out. It prints one row per
config and exits 1 if any column differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_rev, snapshot_worktree

sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

SEED = 9301
N_TRAIN, N_TEST = 640, 160
# (width_mult, BLAS threads)
CONFIGS = ((0.25, 1), (0.5, 1), (0.5, 2))
ARTIFACTS = ("checkpoint.ckpt", "features-train.rxgbfeat", "features-test.rxgbfeat",
             "gbdt-model.txt")
PARAMS = "params (float64)"
FEATURES = "features (float64)"
MARGINS = "margins (float64)"
# the change's digests of the parent's artifacts
CROSS = {FEATURES: "features x parent ckpt", MARGINS: "margins x parent model"}
_DIGEST = re.compile(r"^best epoch .*params sha256 ([0-9a-f]{64})", re.M)
# the same digest from a format-v2 checkpoint, whose records hold the float64
# parameters
_V2_DIGEST = """
import hashlib, sys
import numpy as np
from rxgb import network
params = network.load_checkpoint(sys.argv[1]).params
h = hashlib.sha256()
for name in sorted(params):
    h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
print(h.hexdigest())
"""


# the FEATURES digest: the test images' float64 features from the saved
# backbone, as one batch, then in batches of four, then one image at a time
_FEATURE_DIGEST = """
import hashlib, sys
import numpy as np
from rxgb import data, network
model = network.load_checkpoint(sys.argv[1])
x = data.load_dataset("test", cache_dir=sys.argv[2]).images
parts = [network.features_forward(model, x)]
parts += [network.features_forward(model, x[i:i + 4]) for i in range(0, len(x), 4)]
parts += [network.features_forward(model, x[i:i + 1]) for i in range(len(x))]
h = hashlib.sha256()
for part in parts:
    h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
print(h.hexdigest())
"""


# the MARGINS digest: the tree head's float64 margins of the test feature
# file, for the whole file and then one row at a time
_MARGIN_DIGEST = """
import hashlib, sys
import numpy as np
from rxgb import data, gbdt
with open(sys.argv[1], encoding="utf-8") as f:
    ens = gbdt.deserialize(f.read())
x, _ = data.load_features(sys.argv[2])
parts = [gbdt.predict_margins(ens, x)]
parts += [gbdt.predict_margins(ens, x[i:i + 1]) for i in range(len(x))]
h = hashlib.sha256()
for part in parts:
    h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
print(h.hexdigest())
"""


def write_data(dest: Path) -> None:
    dest.mkdir()
    for prefix, offset, n in (("train", 0, N_TRAIN), ("t10k", N_TRAIN, N_TEST)):
        px, labels = gen.images(SEED, n, offset=offset)
        (dest / f"{prefix}-images-idx3-ubyte").write_bytes(gen.idx_images(px))
        (dest / f"{prefix}-labels-idx1-ubyte").write_bytes(gen.idx_labels(labels))


def _env(tree: Path, threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def inference_digests(tree: Path, threads: int, out: Path, data_dir: Path) -> dict:
    """The FEATURES and MARGINS digests of the artifacts in ``out``, by the
    code of ``tree``."""
    scripts = {FEATURES: (_FEATURE_DIGEST, out / ARTIFACTS[0], data_dir),
               MARGINS: (_MARGIN_DIGEST, out / ARTIFACTS[3], out / ARTIFACTS[2])}
    return {name: subprocess.run([sys.executable, "-c", *map(str, args)], cwd=tree,
                                 env=_env(tree, threads), capture_output=True,
                                 text=True, check=True).stdout.strip()
            for name, args in scripts.items()}


def run_pipeline(tree: Path, data_dir: Path, out: Path, config: tuple) -> dict:
    """sha256 of each of ARTIFACTS, of the parameters (PARAMS), of the
    float64 features (FEATURES) and of the tree head's float64 margins
    (MARGINS) after one pipeline run in ``tree``."""
    width, threads = config
    env = _env(tree, threads)
    cmd = [sys.executable, "-m", "rxgb.cli", "pipeline", "--seed", str(SEED),
           "--data.dir", str(data_dir), "--out", str(out),
           "--net.width_mult", str(width),
           "--train.epochs", "1", "--train.batch_size", "128",
           "--data.val_count", "127"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ARTIFACTS}
    m = _DIGEST.search(proc.stdout)
    if m:
        digests[PARAMS] = m.group(1)
    else:
        v2 = subprocess.run([sys.executable, "-c", _V2_DIGEST, str(out / ARTIFACTS[0])],
                            cwd=tree, env=env, capture_output=True, text=True, check=True)
        digests[PARAMS] = v2.stdout.strip()
    digests.update(inference_digests(tree, threads, out, data_dir))
    return digests


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
        columns = (*ARTIFACTS, PARAMS, FEATURES, MARGINS, *CROSS.values())
        print(f"{'width':>5} {'threads':>7}  "
              + "  ".join(f"{name:>23}" for name in columns))
        for i, config in enumerate(CONFIGS):
            digests = {side: run_pipeline(tree, tmp / "data", tmp / f"{side}{i}", config)
                       for side, tree in trees.items()}
            cross = inference_digests(trees["change"], config[1], tmp / f"parent{i}",
                                      tmp / "data")
            for name, column in CROSS.items():
                digests["parent"][column] = digests["parent"][name]
                digests["change"][column] = cross[name]
            cells = []
            for name in columns:
                p, c = digests["parent"][name], digests["change"][name]
                cells.append(f"same {p[:18]}" if p == c else "DIFFERS")
                differ |= p != c
            width, threads = config
            print(f"{width:>5} {threads:>7}  "
                  + "  ".join(f"{cell:>23}" for cell in cells), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
