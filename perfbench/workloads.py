"""The four workloads: inputs, timed set-up, closed-loop ops and output checks.

Each workload runs in one process with one caller. ``prepare`` builds the
inputs and artifacts from the seed and is not timed; ``setup`` is the timed
set-up, repeated through the run and reported as a median; the phases then
take turns running ops back to back until the run's seconds are spent. An op
returns its timed intervals, as (start, end) ``perf_counter`` pairs (one per
step, tree, request or pipeline run), and its timed wall time, then checks its
outputs outside the timed part.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import numpy as np

from rxgb import bitops, cli, costmodel, data, gbdt, netspec, network, tensor_ops

import gen
from stats import median, tail

RX = SimpleNamespace(tensor_ops=tensor_ops, bitops=bitops, network=network,
                     gbdt=gbdt, data=data, cli=cli, costmodel=costmodel)
WIDTH = 0.5
# Calls after which an untraced op may pause for a host-speed probe (probe.py):
# frequent in every workload but b1, and each a clean boundary between kernels.
PAUSE_POINTS = ((tensor_ops, "conv2d_forward"), (tensor_ops, "conv2d_backward"),
                (gbdt, "best_split"))
BATCH = 128
N_FEATURES = netspec.reference_spec(WIDTH).feature_dim    # 512 at width 0.5


class Checks:
    """Named output checks: pass/fail counts and the first failure's detail."""

    def __init__(self):
        self.results: dict[str, list] = {}
        self.failed = 0

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        r = self.results.setdefault(name, [0, 0, ""])
        r[0 if ok else 1] += 1
        if not ok:
            self.failed += 1
            if not r[2]:
                r[2] = detail or "failed"
                print(f"check {name} failed: {r[2]}", file=sys.stderr)
        return ok


@dataclass
class Phase:
    name: str
    count: int                       # ops per turn when phases take turns
    per_op: int                      # latency samples one op yields
    op: Callable[[int], tuple[list[tuple[float, float]], float]]


class Workload:
    name = ""
    SETUP_REPS = 7                   # timed set-ups per run
    spec = netspec.reference_spec(WIDTH)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.check = Checks()
        self.tracer = None
        self.report: dict[str, object] = {}

    @contextlib.contextmanager
    def untimed(self):
        """Calls made here (output checks) stay out of the traced op."""
        tracer, op = self.tracer, None
        if tracer is not None:
            op, tracer.op = tracer.op, -1
        try:
            yield
        finally:
            if tracer is not None:
                tracer.op = op

    def prepare(self) -> None:
        """Build inputs and artifacts from the seed (not timed)."""
        raise NotImplementedError

    def setup(self) -> None:
        """The timed set-up: what a caller pays before its first op, ending
        with the model's first forward (a build alone is a ~50 ms allocation
        burst whose time on a shared 2-core VM flips between two levels)."""
        raise NotImplementedError

    def phases(self) -> list[Phase]:
        raise NotImplementedError

    def items_per_s(self, samples: dict[str, list[float]]) -> float:
        raise NotImplementedError

    def summary(self, samples: dict[str, list[float]]) -> dict[str, tuple]:
        """Workload-specific figures: {name: (value, unit, sample count or None)}."""
        raise NotImplementedError


@contextlib.contextmanager
def step_clock():
    """Times SGD steps inside train_stage1: loss_and_grads start to sgd_step end."""
    grads, step = network.loss_and_grads, tensor_ops.sgd_step
    started, steps = [], []

    def timed_grads(*a, **k):
        started.append(perf_counter())
        return grads(*a, **k)

    def timed_step(*a, **k):
        out = step(*a, **k)
        steps.append((started[-1], perf_counter()))
        return out

    network.loss_and_grads, tensor_ops.sgd_step = timed_grads, timed_step
    try:
        yield steps
    finally:
        network.loss_and_grads, tensor_ops.sgd_step = grads, step


class Train(Workload):
    name = "train"
    PRIMARY = "step"                 # phase whose latency is op_p50_ms
    STEPS_PER_OP = 4

    def prepare(self):
        px, labels = gen.images(self.seed, (self.STEPS_PER_OP + 1) * BATCH)
        ds = data.Dataset(images=data.normalize(px[:, None]), labels=labels,
                          split="train")
        self.train_ds, self.val_ds = data.split_train_val(ds, BATCH)
        self.hp = network.StageOneConfig(epochs=1, batch_size=BATCH,
                                         seed=self.seed, augment=False)

    def setup(self):
        self.model = None                 # free the last copy: steadier peak RSS
        self.model = network.build_network(self.spec, seed=self.seed)
        network.features_forward(self.model, self.val_ds.images[:1])

    def phases(self):
        return [Phase("step", 1, self.STEPS_PER_OP, self.op)]

    def op(self, i):
        t0 = perf_counter()
        with step_clock() as steps:
            result = network.train_stage1(self.model, self.train_ds, self.val_ds,
                                          self.hp)
        wall = perf_counter() - t0
        with self.untimed():
            self.check("train.not_aborted", not result.aborted, result.abort_reason)
            loss = result.metrics[-1].train_loss
            self.check("train.loss_finite", bool(np.isfinite(loss)), f"loss {loss}")
            self.check("train.steps_timed", len(steps) == self.STEPS_PER_OP,
                       f"{len(steps)} steps")
            self.report["train_loss"] = loss
        return steps, wall

    def items_per_s(self, samples):
        return BATCH * len(samples["step"]) / sum(samples["step"])

    def summary(self, samples):
        s = samples["step"]
        return {"train_step_s": (median(s), "s", len(s)),
                "train_loss": (self.report.get("train_loss"), "nats", None)}


class Boost(Workload):
    name = "boost"
    PRIMARY = "tree"                 # phase whose latency is op_p50_ms
    ROWS = 10_000
    DEPTH = 10
    SETUP_REPS = 21                  # a set-up is ~10 ms; more of them steady the median

    def prepare(self):
        x, y = gen.features(self.seed, self.ROWS, N_FEATURES)
        self.path = self.work / "boost.rxgbfeat"
        data.save_features(self.path, x, y)
        self.cfg = gbdt.GBDTConfig(n_classes=10, max_trees=1, max_depth=self.DEPTH)
        self.text = None

    def setup(self):
        self.x = self.y = None
        self.x, self.y = data.load_features(self.path)

    def phases(self):
        return [Phase("tree", 1, 1, self.op)]

    def op(self, i):
        t0 = perf_counter()
        ens = gbdt.train_ensemble(self.x, self.y, self.cfg)
        wall = perf_counter() - t0
        with self.untimed():
            losses = gbdt.round_losses(ens, self.x, self.y)
            self.check("boost.loss_non_increasing",
                       all(np.isfinite(losses))
                       and all(b <= a for a, b in zip(losses, losses[1:])),
                       f"losses {losses}")
            depths = [t.depth() for _, t in ens.trees]
            self.check("boost.trees_le_20", len(ens.trees) <= 20, f"{len(ens.trees)}")
            self.check("boost.depth_is_10", all(d == self.DEPTH for d in depths),
                       f"depths {depths}")
            text = gbdt.serialize(ens)
            self.check("boost.serialize_round_trip",
                       gbdt.serialize(gbdt.deserialize(text)) == text)
            self.text = self.text or text
            self.check("boost.same_model_each_op", text == self.text)
            self.report["boost_train_logloss"] = losses[-1]
            self.report["internal_nodes"] = ens.trees[0][1].node_counts()[0]
        return [(t0, t0 + wall)], wall

    def items_per_s(self, samples):
        return self.ROWS * len(samples["tree"]) / sum(samples["tree"])

    def summary(self, samples):
        s = samples["tree"]
        return {"boost_s_per_tree": (median(s), "s", len(s)),
                "boost_train_logloss": (self.report.get("boost_train_logloss"),
                                        "nats", None),
                "boost_internal_nodes": (self.report.get("internal_nodes"),
                                         "count", None)}


class Infer(Workload):
    name = "infer"
    PRIMARY = "b1"                 # phase whose latency is op_p50_ms
    BATCH_B256 = 256
    spec = netspec.reference_spec(WIDTH, include_fc=False)

    def prepare(self):
        model = network.build_network(self.spec, seed=self.seed)
        self.ckpt = self.work / "backbone.ckpt"
        network.save_checkpoint(model, self.ckpt)
        px, labels = gen.images(self.seed, self.BATCH_B256)
        self.x = data.normalize(px[:, None])
        self.feats = network.features_forward(model, self.x)
        ens = gbdt.train_ensemble(self.feats, labels,
                                  gbdt.GBDTConfig(max_trees=20, max_depth=10))
        self.head = self.work / "head.txt"
        self.head.write_text(gbdt.serialize(ens), encoding="utf-8")
        self.b1 = {}

    def setup(self):
        self.model = self.ens = None
        self.model = network.load_checkpoint(self.ckpt)
        self.ens = gbdt.deserialize(self.head.read_text(encoding="utf-8"))
        network.infer_hybrid(self.model, self.ens, self.x[:1])

    def phases(self):
        with self.untimed():
            self.ref = gbdt.predict_class(self.ens, self.feats)
        # seven batch-1 requests take about as long as one batch-256 request;
        # eight and two give the b1 tail its 40 samples and b256 about ten
        return [Phase("b1", 8, 1, self.op_b1), Phase("b256", 2, 1, self.op_b256)]

    def op_b1(self, i):
        j = i % self.BATCH_B256
        t0 = perf_counter()
        classes, _ = network.infer_hybrid(self.model, self.ens, self.x[j:j + 1])
        wall = perf_counter() - t0
        self.b1[j] = int(classes[0])
        self.check("infer.b1_equals_reference", self.b1[j] == self.ref[j],
                   f"request {i}: {self.b1[j]} != {self.ref[j]}")
        return [(t0, t0 + wall)], wall

    def op_b256(self, i):
        t0 = perf_counter()
        classes, _ = network.infer_hybrid(self.model, self.ens, self.x)
        wall = perf_counter() - t0
        self.check("infer.b256_equals_reference", bool((classes == self.ref).all()),
                   f"{int((classes != self.ref).sum())} rows differ")
        self.check("infer.b1_equals_b256_rows",
                   all(classes[j] == c for j, c in self.b1.items()))
        return [(t0, t0 + wall)], wall

    def items_per_s(self, samples):
        return self.BATCH_B256 / median(samples["b256"])

    def summary(self, samples):
        b1 = [1e3 * v for v in samples["b1"]]
        out = {"infer_b1_p50_ms": (median(b1), "ms", len(b1))}
        t = tail(b1)
        if t and t[0] > 50:
            out[f"infer_b1_p{t[0]:g}_ms"] = (t[1], "ms", len(b1))
        out["infer_b256_images_per_s"] = (self.items_per_s(samples), "1/s",
                                          len(samples["b256"]))
        return out


class Pipeline(Workload):
    name = "pipeline"
    PRIMARY = "run"                 # phase whose latency is op_p50_ms
    N_TRAIN = 2 * BATCH              # one SGD step plus a one-batch val split
    N_TEST = 256
    _SUMMARY = re.compile(r"pipeline complete in [\d.]+s: fc ([\d.]+), hybrid ([\d.]+)")

    def prepare(self):
        self.data_dir = self.work / "data"
        self.data_dir.mkdir()
        splits = (("train", 0, self.N_TRAIN), ("t10k", self.N_TRAIN, self.N_TEST))
        for prefix, offset, n in splits:
            px, labels = gen.images(self.seed, n, offset=offset)
            (self.data_dir / f"{prefix}-images-idx3-ubyte").write_bytes(gen.idx_images(px))
            (self.data_dir / f"{prefix}-labels-idx1-ubyte").write_bytes(gen.idx_labels(labels))
        self.argv = [
            "pipeline", "--seed", str(self.seed), "--data.dir", str(self.data_dir),
            "--net.width_mult", str(WIDTH), "--train.epochs", "1",
            "--train.batch_size", str(BATCH), "--data.val_count", str(BATCH),
            "--gbdt.max_trees", "20", "--gbdt.max_depth", "10",
        ]
        self.runs = 0

    def setup(self):
        data.load_dataset("train", self.data_dir)
        test = data.load_dataset("test", self.data_dir)
        model = network.build_network(self.spec, seed=self.seed)
        network.features_forward(model, test.images[:1])

    def phases(self):
        return [Phase("run", 1, 1, self.op)]

    def op(self, i):
        self.runs += 1
        out = self.work / f"run{self.runs}"
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(self.argv + ["--out", str(out)])
        wall = perf_counter() - t0
        with self.untimed():
            m = self._SUMMARY.search(buf.getvalue())
            if not (self.check("pipeline.exit_code_0", rc == 0, buf.getvalue()[-300:])
                    and self.check("pipeline.summary_printed", m is not None)):
                return [(t0, t0 + wall)], wall
            fc, hybrid = self._recompute(out)
            self.check("pipeline.hybrid_top1_matches_artifacts",
                       f"{hybrid:.4f}" == m.group(2), f"{hybrid:.4f} vs {m.group(2)}")
            self.check("pipeline.fc_top1_matches_artifacts",
                       f"{fc:.4f}" == m.group(1), f"{fc:.4f} vs {m.group(1)}")
            self.report.update(hybrid_top1=hybrid, fc_top1=fc, artifacts={
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())})
            shutil.rmtree(out)
        return [(t0, t0 + wall)], wall

    def _recompute(self, out: Path) -> tuple[float, float]:
        """(fc top-1, hybrid top-1) from the written checkpoint, model and features."""
        model = network.load_checkpoint(out / "checkpoint.ckpt")
        ens = gbdt.deserialize((out / "gbdt-model.txt").read_text(encoding="utf-8"))
        feats, labels = data.load_features(out / "features-test.rxgbfeat")
        hybrid = float((gbdt.predict_class(ens, feats) == labels).mean())
        test = data.load_dataset("test", self.data_dir)
        logits = np.concatenate([
            network.forward(model, test.images[s:s + BATCH])[0]
            for s in range(0, len(test), BATCH)])
        fc = float((np.argmax(logits, axis=1) == test.labels).mean())
        return fc, hybrid

    def items_per_s(self, samples):
        return (self.N_TRAIN + self.N_TEST) * len(samples["run"]) / sum(samples["run"])

    def summary(self, samples):
        s = samples["run"]
        return {"pipeline_s": (median(s), "s", len(s)),
                "hybrid_top1": (self.report.get("hybrid_top1"), "ratio", None),
                "fc_top1": (self.report.get("fc_top1"), "ratio", None)}


WORKLOADS = {w.name: w for w in (Train, Boost, Infer, Pipeline)}
