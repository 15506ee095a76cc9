"""Which package calls the traced run wraps, and the per-layer table.

Every public function of ``tensor_ops``, ``bitops``, ``network``, ``gbdt`` and
``data`` becomes a span named ``<module>.<function>``; conv spans carry a
group suffix (``k3``, ``k1`` or ``stem``). The pipeline's FC evaluation
``cli._batched_logits`` is a span too. The per-layer forward and backward
helpers of ``network`` become transparent marks named after the spec layer
they run, so ``network.forward`` keeps the glue between layers (pad, concat,
adds) as its own self time.

FLOPs and bytes are computed from array shapes, not counted by hardware.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict

from spans import ancestors, self_times

CONV_GROUPS = ("k3", "k1", "stem")
# Spec layers of the width-0.5 reference plan that have a traceable boundary;
# the FC head is an inline product in network._run and has none.
LAYERS = ("stem",) + tuple(f"block{i}" for i in range(1, 11)) + ("pool",)
_FWD_HELPERS = ("_stem_forward", "_normal_forward", "_reduction_forward")
_BWD_HELPERS = ("_stem_backward", "_normal_backward", "_reduction_backward")
_POOL_SPANS = {"tensor_ops.avgpool_global": "fwd",
               "tensor_ops.avgpool_global_backward": "bwd"}
STAGES = {
    "train": ("network.build_network", "network.train_stage1"),
    "extract": ("network.extract_features",),
    "boost": ("gbdt.train_ensemble",),
    "eval": ("cli._batched_logits", "gbdt.predict_class"),
    "io": ("data.load_dataset", "data.save_features", "data.load_features",
           "network.save_checkpoint", "gbdt.serialize"),
}


def _stat_unit(stat: str) -> tuple[str, str]:
    if stat in ("calls", "rows", "row_features"):
        return "count", "lower"
    if stat == "flops":
        return "flop", "lower"
    if stat == "bytes":
        return "B", "lower"
    if stat == "modelled_ops":
        return "op", "lower"
    if stat.startswith("ns_per_"):
        return "ns", "lower"
    if stat == "split_rate":
        return "ratio", "higher"
    if stat.endswith("_pct"):
        return "%", "higher" if stat == "accounted_pct" else "lower"
    return "s", "lower"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for fn in ("conv2d_forward", "conv2d_backward"):
        for g in CONV_GROUPS:
            names += [f"tensor_ops.{fn}.{g}.{s}"
                      for s in ("calls", "self_s", "flops", "ns_per_flop")]
    names += [f"tensor_ops.{f}.self_s"
              for f in ("batchnorm_forward", "batchnorm_backward", "sgd_step")]
    names += [f"bitops.effective_weights.{s}" for s in ("calls", "self_s", "bytes")]
    names += [f"bitops.{f}.self_s" for f in (
        "rsign_forward", "rsign_backward", "rprelu_forward", "rprelu_backward",
        "ste_mask")]
    names += [f"network.{f}.self_s"
              for f in ("forward", "backward", "features_forward")]
    names += [f"gbdt.best_split.{s}" for s in (
        "calls", "self_s", "row_features", "ns_per_row_feature", "split_rate")]
    names += [f"gbdt.{f}.self_s"
              for f in ("grow_tree", "softmax_grad_hess", "train_ensemble")]
    names += [f"gbdt.predict_margins.{s}" for s in ("calls", "self_s", "rows")]
    for f in ("parse_idx", "decode_images", "save_features", "load_features"):
        names += [f"data.{f}.self_s", f"data.{f}.bytes"]
    for f in ("save_checkpoint", "load_checkpoint"):
        names += [f"network.{f}.self_s", f"network.{f}.bytes"]
    names += ["gbdt.serialize.self_s", "gbdt.deserialize.self_s"]
    names += [f"pipeline.stage.{s}_s" for s in STAGES]
    names.append("pipeline.backbone_images_per_test_image")
    for layer in LAYERS:
        names += [f"layer.{layer}.{s}"
                  for s in ("fwd_s", "bwd_s", "modelled_ops", "ns_per_op")]
    names += ["trace.op_s_untraced", "trace.op_s_traced", "trace.overhead_pct",
              "trace.accounted_pct"]
    out = []
    for n in names:
        stat = n.rsplit(".", 1)[1]
        if n == "pipeline.backbone_images_per_test_image":
            out.append((n, "ratio", "lower"))
        else:
            out.append((n, *_stat_unit(stat)))
    return out


# --- counters taken from each call's arguments and result ----------------------

def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _conv_modelled(costmodel, w, n, oh, ow) -> float:
    co, ci, kh, kw = w.shape
    if ci == 1:
        return costmodel.fp32_conv_cost(co, ci, kh, kw, oh, ow)[0] * n
    bops = costmodel.binary_conv_cost(co, ci, kh, kw, oh, ow)[0] * n
    return costmodel.ops_from_totals(bops, 0)


def _group(w) -> str:
    return "stem" if w.shape[1] == 1 else f"k{w.shape[-1]}"


def _infos(costmodel):
    def conv_fwd(args, kwargs, out):
        w = _arg(args, kwargs, 1, "w")
        n, _, oh, ow = out.shape
        return {"group": _group(w), "flops": 2 * out.size * (w.size // w.shape[0]),
                "modelled_ops": _conv_modelled(costmodel, w, n, oh, ow)}

    def conv_bwd(args, kwargs, out):
        gy = _arg(args, kwargs, 0, "grad_y")
        w = _arg(args, kwargs, 2, "w")
        return {"group": _group(w), "flops": 4 * gy.size * (w.size // w.shape[0])}

    def size_of(i, name):
        return lambda a, k, out: {"bytes": os.path.getsize(_arg(a, k, i, name))}

    def images(i, name):
        return lambda a, k, out: {"images": _arg(a, k, i, name).shape[0]}

    return {
        "tensor_ops.conv2d_forward": conv_fwd,
        "tensor_ops.conv2d_backward": conv_bwd,
        "tensor_ops.avgpool_global": images(0, "x"),
        "tensor_ops.avgpool_global_backward": images(0, "grad_y"),
        "bitops.effective_weights": lambda a, k, out: {
            "bytes": _arg(a, k, 0, "w_latent").nbytes + out.nbytes},
        "network.features_forward": lambda a, k, out: {
            "images": _arg(a, k, 1, "x").shape[0], "inference": 1},
        "network.forward": lambda a, k, out: {
            "images": _arg(a, k, 1, "x").shape[0],
            "inference": int(not _arg(a, k, 2, "training", False))},
        "gbdt.best_split": lambda a, k, out: {
            "row_features": _arg(a, k, 0, "x").size, "splits": int(out is not None)},
        "gbdt.predict_margins": lambda a, k, out: {"rows": _arg(a, k, 1, "x").shape[0]},
        "data.parse_idx": lambda a, k, out: {"bytes": len(_arg(a, k, 0, "data"))},
        "data.decode_images": lambda a, k, out: {"bytes": out.nbytes},
        "data.save_features": size_of(0, "path"),
        "data.load_features": size_of(0, "path"),
        "network.save_checkpoint": size_of(1, "path"),
        "network.load_checkpoint": size_of(0, "path"),
    }


def _layer_mark(direction, x_pos):
    def name_of(args, kwargs):
        return args[1], {"dir": direction, "images": args[x_pos].shape[0]}
    return name_of


def instrument(tracer, rx) -> None:
    """Wrap the package modules in ``rx`` (a namespace of rxgb modules)."""
    infos = _infos(rx.costmodel)
    for mod in (rx.tensor_ops, rx.bitops, rx.network, rx.gbdt, rx.data):
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)):
                continue
            name = f"{short}.{attr}"
            tracer.wrap(mod, attr, name, infos.get(name))
    if hasattr(rx.cli, "_batched_logits"):
        tracer.wrap(rx.cli, "_batched_logits", "cli._batched_logits")
    for helpers, direction, x_pos in ((_FWD_HELPERS, "fwd", 2),
                                      (_BWD_HELPERS, "bwd", 3)):
        for attr in helpers:
            if hasattr(rx.network, attr):
                tracer.mark(rx.network, attr, _layer_mark(direction, x_pos))


# --- aggregation ----------------------------------------------------------------

def aggregate(spans, selfs, keep=lambda s: True):
    """Per span key (name plus conv group): calls, self_s and summed counters."""
    agg = defaultdict(lambda: defaultdict(float))
    for s, st in zip(spans, selfs):
        if not keep(s):
            continue
        info = s.info or {}
        key = s.name + (f".{info['group']}" if "group" in info else "")
        a = agg[key]
        a["calls"] += 1
        a["self_s"] += st
        for k, v in info.items():
            if k != "group":
                a[k] += v
    return agg


def layer_costs(costmodel, spec) -> dict[str, float]:
    """Modelled OPs per image (BOPs/64 + FLOPs) of each spec layer."""
    per = defaultdict(lambda: [0, 0])
    for row in costmodel.cost_report(spec).rows:
        name = row.name.split(".", 1)[0]
        per[name][0] += row.bops
        per[name][1] += row.flops
    return {k: costmodel.ops_from_totals(b, f) for k, (b, f) in per.items()}


def layer_times(tracer):
    """{layer: {fwd_s, bwd_s, fwd_images}} from marks and pool spans."""
    out = defaultdict(lambda: defaultdict(float))
    for m in tracer.marks:
        if m.op < 0:
            continue
        d = m.info["dir"]
        out[m.name][f"{d}_s"] += m.duration
        if d == "fwd":
            out[m.name]["fwd_images"] += m.info["images"]
    for s in tracer.spans:
        d = _POOL_SPANS.get(s.name)
        if d and s.op >= 0:
            out["pool"][f"{d}_s"] += s.duration
            if d == "fwd":
                out["pool"]["fwd_images"] += (s.info or {}).get("images", 0)
    return out


def stage_times(spans) -> dict[str, float]:
    """Durations of top-level spans, summed per pipeline stage."""
    by_name = {n: stage for stage, names in STAGES.items() for n in names}
    out = dict.fromkeys(STAGES, 0.0)
    for s in spans:
        if s.parent < 0 and s.name in by_name and s.op >= 0:
            out[by_name[s.name]] += s.duration
    return out


def inference_images_outside_training(spans) -> int:
    """Images the backbone saw in inference mode, not under train_stage1."""
    total = 0
    for i, s in enumerate(spans):
        info = s.info or {}
        if s.op < 0 or not info.get("inference"):
            continue
        chain = [spans[p].name for p in ancestors(spans, i)]
        if "network.train_stage1" in chain or any(
                n in ("network.forward", "network.features_forward") for n in chain):
            continue
        total += info["images"]
    return total


_PER_OP = ("calls", "self_s", "flops", "bytes", "rows", "row_features")


def per_layer_values(tracer, n_ops, rx, spec, trace_times, pipeline_sizes=None):
    """Every per-layer metric: counts and seconds per op over the traced ops.

    ``trace_times`` holds op_s_untraced, op_s_traced and the traced ops'
    summed wall time (wall_s); ``pipeline_sizes`` is (train images, test
    images) on the pipeline workload and None elsewhere.
    """
    selfs = self_times(tracer.spans)
    agg = aggregate(tracer.spans, selfs, lambda s: s.op >= 0)
    layers = layer_times(tracer)
    costs = layer_costs(rx.costmodel, spec)
    stages = stage_times(tracer.spans)
    accounted = sum(st for s, st in zip(tracer.spans, selfs) if s.op >= 0)
    untraced, traced = trace_times["op_s_untraced"], trace_times["op_s_traced"]
    trace = {
        "op_s_untraced": untraced,
        "op_s_traced": traced,
        "overhead_pct": 100.0 * (traced / untraced - 1.0) if untraced else 0.0,
        "accounted_pct": 100.0 * accounted / trace_times["wall_s"],
    }
    values = {}
    for name, _, _ in per_layer_metrics():
        key, stat = name.rsplit(".", 1)
        if key == "trace":
            v = trace[stat]
        elif key.startswith("layer."):
            lt, ops = layers.get(key[6:], {}), costs.get(key[6:], 0.0)
            if stat == "modelled_ops":
                v = ops
            elif stat == "ns_per_op":
                done = ops * lt.get("fwd_images", 0)
                v = 1e9 * lt.get("fwd_s", 0.0) / done if done else 0.0
            else:
                v = lt.get(stat, 0.0) / n_ops
        elif key == "pipeline.stage":
            v = stages[stat[:-2]] / n_ops if pipeline_sizes else 0.0
        elif name == "pipeline.backbone_images_per_test_image":
            v = 0.0
            if pipeline_sizes:
                seen = inference_images_outside_training(tracer.spans) / n_ops
                v = (seen - pipeline_sizes[0]) / pipeline_sizes[1]
        else:
            a = agg.get(key, {})
            if stat in _PER_OP:
                v = a.get(stat, 0.0) / n_ops
            elif stat == "split_rate":
                v = a["splits"] / a["calls"] if a.get("calls") else 0.0
            else:                                        # ns_per_<counter>
                work = a.get(stat[len("ns_per_"):] + "s", 0.0)
                v = 1e9 * a.get("self_s", 0.0) / work if work else 0.0
        values[name] = float(v)
    return values


def render_table(tracer, phases, rx, spec, top: int = 12) -> str:
    """Self-time shares per phase, the conv join and the per-layer join."""
    selfs = self_times(tracer.spans)
    lines = []
    for phase, (op_ids, wall) in phases.items():
        agg = aggregate(tracer.spans, selfs, lambda s: s.op in op_ids)
        lines.append(f"== self time by call, phase {phase}: {len(op_ids)} ops, "
                     f"{wall:.3f} s traced wall ==")
        lines.append(f"{'call':44} {'calls':>8} {'self_s':>10} {'share':>7}")
        for key, a in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"])[:top]:
            lines.append(f"{key:44} {int(a['calls']):8d} {a['self_s']:10.4f} "
                         f"{100 * a['self_s'] / wall:6.1f}%")
    agg = aggregate(tracer.spans, selfs, lambda s: s.op >= 0)
    lines.append("== conv groups vs cost model (computed gemm FLOPs; modelled "
                 "OPs = BOPs/64 for binary convs, FLOPs for the stem) ==")
    lines.append(f"{'group':34} {'calls':>6} {'self_s':>9} {'GFLOP':>9} "
                 f"{'ns/flop':>8} {'Gop_model':>9} {'ns/op':>8}")
    for fn in ("conv2d_forward", "conv2d_backward"):
        for g in CONV_GROUPS:
            a = agg.get(f"tensor_ops.{fn}.{g}")
            if not a:
                continue
            model = a.get("modelled_ops", 0.0)
            lines.append(
                f"tensor_ops.{fn}.{g:5} {int(a['calls']):6d} {a['self_s']:9.4f} "
                f"{a['flops'] / 1e9:9.3f} {1e9 * a['self_s'] / a['flops']:8.3f} "
                + (f"{model / 1e9:9.4f} {1e9 * a['self_s'] / model:8.2f}"
                   if model else f"{'-':>9} {'-':>8}"))
    layers = layer_times(tracer)
    costs = layer_costs(rx.costmodel, spec)
    lines.append("== spec layers: inclusive fwd/bwd wall, cost_report OPs per image ==")
    lines.append(f"{'layer':8} {'fwd_s':>9} {'bwd_s':>9} {'images':>7} "
                 f"{'ops/image':>11} {'ns/op':>8}")
    for layer in LAYERS:
        lt = layers.get(layer, {})
        done = costs.get(layer, 0.0) * lt.get("fwd_images", 0)
        ns = f"{1e9 * lt.get('fwd_s', 0.0) / done:8.2f}" if done else f"{'-':>8}"
        lines.append(f"{layer:8} {lt.get('fwd_s', 0.0):9.4f} {lt.get('bwd_s', 0.0):9.4f} "
                     f"{int(lt.get('fwd_images', 0)):7d} {costs.get(layer, 0.0):11.0f} {ns}")
    return "\n".join(lines)
