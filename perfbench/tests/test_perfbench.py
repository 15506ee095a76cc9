"""Tests of the benchmark's own arithmetic: spans, tail percentiles, inputs.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import breakdown  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
import stats  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


# --- self time from nested spans ------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("other_root", 11.0, 12.5, -1, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_self_times_of_a_traced_run_sum_to_the_roots_duration():
    mod = SimpleNamespace()
    mod.leaf = lambda n: sum(range(n))
    mod.mid = lambda: mod.leaf(20000) + mod.leaf(30000)
    mod.top = lambda: mod.mid() + mod.leaf(10000)
    tracer = Tracer()
    for name in ("leaf", "mid", "top"):
        tracer.wrap(mod, name, f"mod.{name}")
    tracer.op = 7
    mod.top()
    tracer.restore()
    names = [s.name for s in tracer.spans]
    assert names == ["mod.top", "mod.mid", "mod.leaf", "mod.leaf", "mod.leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1, 0]
    assert all(s.op == 7 for s in tracer.spans)
    selfs = self_times(tracer.spans)
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(tracer.spans[0].duration, rel=1e-9)
    assert mod.top.__name__ == "<lambda>"                # originals restored
    assert not hasattr(mod.top, "__wrapped__")


def test_marks_do_not_become_parents():
    mod = SimpleNamespace()
    mod.inner = lambda: 1
    mod.layer = lambda params, name, x: mod.inner()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "mod.inner")
    tracer.mark(mod, "layer", lambda a, k: (a[1], {"dir": "fwd"}))
    tracer.op = 0
    mod.layer(None, "block1", None)
    tracer.restore()
    assert [s.parent for s in tracer.spans] == [-1]
    assert [(m.name, m.info["dir"]) for m in tracer.marks] == [("block1", "fwd")]


def test_aggregate_keys_conv_groups_and_skips_untimed_spans():
    spans = [
        Span("tensor_ops.conv2d_forward", 0.0, 2.0, -1, 0, {"group": "k3", "flops": 10}),
        Span("tensor_ops.conv2d_forward", 2.0, 3.0, -1, 0, {"group": "k3", "flops": 6}),
        Span("tensor_ops.conv2d_forward", 3.0, 3.5, -1, 0, {"group": "k1", "flops": 2}),
        Span("tensor_ops.conv2d_forward", 4.0, 9.0, -1, -1, {"group": "k3", "flops": 99}),
    ]
    agg = breakdown.aggregate(spans, self_times(spans), lambda s: s.op >= 0)
    assert agg["tensor_ops.conv2d_forward.k3"]["calls"] == 2
    assert agg["tensor_ops.conv2d_forward.k3"]["flops"] == 16
    assert agg["tensor_ops.conv2d_forward.k3"]["self_s"] == pytest.approx(3.0)
    assert agg["tensor_ops.conv2d_forward.k1"]["calls"] == 1


# --- highest percentile with ten samples beyond it ------------------------------

@pytest.mark.parametrize("n, p", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_picks_the_highest_rung_with_ten_samples_beyond(n, p):
    values = list(range(n, 0, -1))                      # unsorted on purpose
    got = stats.tail(values)
    if p is None:
        assert got is None
        return
    assert got[0] == p
    assert sum(v > got[1] for v in values) >= stats.MIN_BEYOND
    assert got[1] == stats.nearest_rank(sorted(values), p)


def test_nearest_rank_at_p90_of_100_leaves_exactly_ten_above():
    xs = list(range(1, 101))
    assert stats.nearest_rank(xs, 90.0) == 90
    assert stats.tail(xs) == (90.0, 90)


# --- generator determinism ---------------------------------------------------------

def test_images_are_byte_identical_per_seed_and_differ_across_seeds():
    a_px, a_y = gen.images(5, 64)
    b_px, b_y = gen.images(5, 64)
    assert a_px.tobytes() == b_px.tobytes() and a_y.tobytes() == b_y.tobytes()
    c_px, _ = gen.images(6, 64)
    assert a_px.tobytes() != c_px.tobytes()
    d_px, _ = gen.images(5, 64, offset=64)
    assert a_px.tobytes() != d_px.tobytes()
    assert a_px.dtype == np.uint8 and a_px.shape == (64, 28, 28)
    assert set(np.unique(a_y)) <= set(range(10))


def test_features_are_byte_identical_per_seed():
    a, ya = gen.features(3, 200, 16)
    b, yb = gen.features(3, 200, 16)
    c, _ = gen.features(4, 200, 16)
    assert a.dtype == np.float32 and a.shape == (200, 16)
    assert a.tobytes() == b.tobytes() and ya.tobytes() == yb.tobytes()
    assert a.tobytes() != c.tobytes()


def test_idx_containers_parse_back_to_the_generated_arrays():
    from rxgb import data

    px, y = gen.images(1, 10)
    images = data.decode_images(data.parse_idx(gen.idx_images(px)))
    labels = data.decode_labels(data.parse_idx(gen.idx_labels(y)))
    assert np.array_equal(data.denormalize(images)[:, 0], px)
    assert np.array_equal(labels, y)


def test_feature_classes_overlap_enough_for_depth_10_trees():
    from rxgb import gbdt

    x, y = gen.features(0, 3000, 32)
    ens = gbdt.train_ensemble(x, y, gbdt.GBDTConfig(max_trees=1, max_depth=10))
    assert ens.trees[0][1].depth() == 10


# --- scaling to the reference host speed -----------------------------------------

def _probe_at(mids, times):
    p = probe.Probe.__new__(probe.Probe)
    p.starts = [m - t / 2 for m, t in zip(mids, times)]
    p.mids, p.times = list(mids), list(times)
    return p


def test_scale_uses_the_median_probe_within_the_window():
    # probes at 0.5 s spacing; [3.0, 3.2] sees the five at 2.0 .. 4.0
    p = _probe_at([0.5 * i for i in range(12)],
                  [0.09, 0.09, 0.09, 0.09, 0.01, 0.05, 0.03, 0.02, 0.04, 0.09, 0.09, 0.09])
    assert p.speed(3.0, 3.2) == pytest.approx(0.03)
    assert p.scale(3.0, 3.2) == pytest.approx(0.2 * probe.REF_S / 0.03)


def test_a_long_event_is_bracketed_by_the_nearest_probes():
    # no probe within WINDOW_S of [10, 20]: the one before and the one after count
    p = _probe_at([0.0, 5.0, 30.0, 40.0], [0.01, 0.02, 0.04, 0.08])
    assert p.speed(10.0, 20.0) == pytest.approx(0.03)
    assert p.scale(10.0, 20.0) == pytest.approx(10.0 * probe.REF_S / 0.03)


def test_scaled_time_equals_raw_time_at_the_reference_speed():
    p = _probe_at([0.0, 1.0], [probe.REF_S, probe.REF_S])
    assert p.scale(0.2, 0.7) == pytest.approx(0.5)


def test_probes_inside_an_event_split_it_and_leave_its_busy_time():
    # probes of 0.01 s at -3, 0.02 s in [4.00, 4.02] (inside the event [0, 10])
    # and 0.04 s at 13; each stretch is bracketed by its nearest probes
    p = _probe_at([-3.0, 4.01, 13.0], [0.01, 0.02, 0.04])
    assert p.busy(0.0, 10.0) == pytest.approx(9.98)
    assert p.speed(0.0, 4.0) == pytest.approx(0.015)
    assert p.speed(4.02, 10.0) == pytest.approx(0.03)
    assert p.scale(0.0, 10.0) == pytest.approx(
        4.0 * probe.REF_S / 0.015 + 5.98 * probe.REF_S / 0.03)


def test_pausing_probes_after_a_pause_point_and_restores_it():
    mod = SimpleNamespace(step=lambda x: x + 1)
    original = mod.step
    p = probe.Probe()
    p.mark()
    with p.pausing([(mod, "step")]):
        assert mod.step(1) == 2                       # too soon after the last probe
        assert len(p.times) == 1
        p.starts[-1] -= probe.PAUSE_EVERY_S + 1.0
        mod.step(1)
        assert len(p.times) == 2
    assert mod.step is original


def test_probe_marks_are_recorded_in_order():
    p = probe.Probe()
    for _ in range(3):
        assert p.mark() > 0.0
    assert len(p.times) == 3 and p.mids == sorted(p.mids)


# --- the declared metric names match what the code reports -----------------------

def test_benchmark_json_declares_exactly_the_reported_metrics():
    import run
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        breakdown.per_layer_metrics()
    assert len(spec["per_layer"]) <= 128
