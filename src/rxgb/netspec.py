"""Declarative network description and shape-chain validation.

A NetworkSpec is an ordered list of LayerSpecs: one fp32 3x3 stride-2 stem
conv (with its BatchNorm), a run of binary blocks, a global average pool, and
an optional FC head. Binary blocks come in two shapes:

* normal: RSign -> 3x3 binary conv -> BN -> +identity -> RPReLU -> RSign ->
  1x1 binary conv -> BN -> +shortcut -> RPReLU; channels preserved.
* reduction: the 3x3 conv doubles channels via two parallel 1x1 branches
  (shared RSign input, separate conv+BN, each adding the shortcut, outputs
  concatenated, one RPReLU on the doubled width). With stride 2 the 3x3 conv
  downsamples and the shortcut is a 2x2 average pool; with stride 1 it only
  widens and shortcuts are identities.

A stride-2 reduction entered at an odd extent zero-pads the input to the next
even extent first (bottom/right), so the conv and the 2x2 pool shortcut see
the same even-sized tensor.

The shipped reference plan: 3x3 stride-2 fp32 stem 1->64 at 14x14, then
blocks N64, R64->128, N128, R128->256 (7x7 padded to 8x8), N256, R256->512,
N512, W512->1024 (stride-1 reduction), N1024, N1024, global pool to 1024
features, FC 1024->10. `width_mult` scales every channel count for smaller
budgets.

`layer_ops` expands a resolved layer into its primitives (convs, BN, RSign,
RPReLU, pools, FC), each named by its parameter prefix. It is the one block
inventory: the network's parameter layout (hence its checkpoints and deployed
payload) and the cost model's rows are both read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FIRST_CONV = "first_conv_fp32"
NORMAL = "binary_block_normal"
REDUCTION = "binary_block_reduction"
GLOBAL_POOL = "global_pool"
FC_HEAD = "fc_head"

_KINDS = (FIRST_CONV, NORMAL, REDUCTION, GLOBAL_POOL, FC_HEAD)

# primitive kinds of layer_ops; the global pool and FC head layers are one
# primitive each, of their own layer kind
STEM_CONV = "stem_conv"
BINARY_CONV = "binary_conv"
BATCH_NORM = "batch_norm"
RSIGN = "rsign"
RPRELU = "rprelu"
SHORTCUT_POOL = "shortcut_pool"


@dataclass(frozen=True)
class LayerSpec:
    """One network stage: kind, channel widths, and stride where relevant."""

    kind: str
    name: str
    in_channels: int = 0
    out_channels: int = 0
    stride: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")


@dataclass(frozen=True)
class ShapeStep:
    """Resolved shapes for one layer: input, padded input, output.

    Shapes are (C, H, W) for spatial layers and (D,) after the pool / head.
    padded differs from in_shape only for stride-2 reductions entered at an
    odd extent.
    """

    layer: LayerSpec
    in_shape: tuple
    padded: tuple
    out_shape: tuple


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layers plus the external contract (input, features, classes)."""

    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int] = (1, 28, 28)
    feature_dim: int = 1024
    class_count: int = 10

    def has_fc_head(self) -> bool:
        return bool(self.layers) and self.layers[-1].kind == FC_HEAD


def _stem_out(h: int, w: int) -> tuple[int, int]:
    # 3x3, stride 2, pad 1
    return (h + 2 - 3) // 2 + 1, (w + 2 - 3) // 2 + 1


def resolve_layer(layer: LayerSpec, in_shape: tuple) -> ShapeStep:
    """Resolve one layer's padded-input and output shapes against in_shape.

    Checks only per-layer invariants (channel match, stride, widths); the
    whole-network ordering rules live in shape_chain.
    """
    if layer.kind == FIRST_CONV:
        c, h, w = in_shape
        if layer.in_channels != c:
            raise ValueError(
                f"in_channels {layer.in_channels} != input channels {c}"
            )
        if layer.stride != 2:
            raise ValueError(f"the stem conv runs stride 2, got {layer.stride}")
        oh, ow = _stem_out(h, w)
        if oh < 1 or ow < 1:
            raise ValueError("input too small for the stem conv")
        return ShapeStep(layer, in_shape, in_shape, (layer.out_channels, oh, ow))
    if layer.kind in (NORMAL, REDUCTION):
        if len(in_shape) != 3:
            raise ValueError("binary block needs a spatial (C, H, W) input")
        c, h, w = in_shape
        if layer.in_channels != c:
            raise ValueError(
                f"in_channels {layer.in_channels} != incoming width {c}"
            )
        if layer.kind == NORMAL:
            if layer.out_channels != c:
                raise ValueError(
                    f"normal block must preserve width, got {c} -> "
                    f"{layer.out_channels}"
                )
            if layer.stride != 1:
                raise ValueError("normal blocks use stride 1")
            return ShapeStep(layer, in_shape, in_shape, in_shape)
        if layer.out_channels != 2 * c:
            raise ValueError(
                f"reduction must double width, got {c} -> {layer.out_channels}"
            )
        if layer.stride not in (1, 2):
            raise ValueError(f"reduction stride must be 1 or 2, got {layer.stride}")
        if layer.stride == 2:
            ph, pw = h + h % 2, w + w % 2
            if ph < 2 or pw < 2:
                raise ValueError("extent too small to downsample")
            return ShapeStep(
                layer, in_shape, (c, ph, pw), (layer.out_channels, ph // 2, pw // 2)
            )
        return ShapeStep(layer, in_shape, in_shape, (layer.out_channels, h, w))
    if layer.kind == GLOBAL_POOL:
        if len(in_shape) != 3:
            raise ValueError("pool needs a spatial (C, H, W) input")
        return ShapeStep(layer, in_shape, in_shape, (in_shape[0],))
    if layer.kind == FC_HEAD:
        if in_shape != (layer.in_channels,):
            raise ValueError(
                f"fc input shape {in_shape} != ({layer.in_channels},)"
            )
        return ShapeStep(layer, in_shape, in_shape, (layer.out_channels,))
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def shape_chain(spec: NetworkSpec) -> list[ShapeStep]:
    """Validate the layer sequence and resolve every intermediate shape.

    Raises ValueError naming the offending layer index on any violation:
    wrong first/last kinds, channel mismatches, bad strides, or a
    feature_dim that differs from the width entering the pool.
    """
    layers = spec.layers
    if not layers:
        raise ValueError("network has no layers")
    if layers[0].kind != FIRST_CONV:
        raise ValueError(f"layer 0 must be {FIRST_CONV}, got {layers[0].kind}")
    steps: list[ShapeStep] = []
    shape: tuple = spec.input_shape
    seen_pool = False
    for i, layer in enumerate(layers):
        if layer.kind == FIRST_CONV and i != 0:
            raise ValueError(f"layer {i}: {FIRST_CONV} only allowed first")
        if layer.kind == FC_HEAD and i != len(layers) - 1:
            raise ValueError(f"layer {i} ({layer.name}): {FC_HEAD} must be last")
        if layer.kind == GLOBAL_POOL and shape[0] != spec.feature_dim:
            raise ValueError(
                f"layer {i} ({layer.name}): pool width {shape[0]} != "
                f"feature_dim {spec.feature_dim}"
            )
        if layer.kind == FC_HEAD and (
            layer.in_channels, layer.out_channels
        ) != (spec.feature_dim, spec.class_count):
            raise ValueError(
                f"layer {i} ({layer.name}): fc dims {layer.in_channels}->"
                f"{layer.out_channels} != spec {spec.feature_dim}->"
                f"{spec.class_count}"
            )
        try:
            step = resolve_layer(layer, shape)
        except ValueError as e:
            raise ValueError(f"layer {i} ({layer.name}): {e}") from e
        steps.append(step)
        shape = step.out_shape
        if layer.kind == GLOBAL_POOL:
            seen_pool = True
    if not seen_pool:
        raise ValueError("network must contain a global_pool layer")
    return steps


@dataclass(frozen=True)
class Op:
    """One primitive of a resolved layer.

    ``prefix`` names its parameters (``{prefix}.{suffix}``) and its cost row.
    ``hw`` is the (H, W) extent it is costed at: the output grid of a conv
    and of the elementwise ops after it, the pooled input grid of a pool,
    (1, 1) for the FC head. BN, RSign, RPReLU and the pools have
    in_channels == out_channels and kernel 1.
    """

    prefix: str
    kind: str
    in_channels: int
    out_channels: int
    kernel: int
    hw: tuple[int, int]


def layer_ops(step: ShapeStep) -> list[Op]:
    """The primitives of one resolved layer, in parameter creation order."""
    layer, name = step.layer, step.layer.name
    if layer.kind == FIRST_CONV:
        co, oh, ow = step.out_shape
        return [Op(f"{name}.conv", STEM_CONV, layer.in_channels, co, 3, (oh, ow)),
                Op(f"{name}.bn", BATCH_NORM, co, co, 1, (oh, ow))]
    if layer.kind == GLOBAL_POOL:
        c, h, w = step.in_shape
        return [Op(f"{name}.global", GLOBAL_POOL, c, c, 1, (h, w))]
    if layer.kind == FC_HEAD:
        return [Op(name, FC_HEAD, layer.in_channels, layer.out_channels, 1, (1, 1))]
    c, ph, pw = step.padded
    co, oh, ow = step.out_shape

    def chan(suffix, kind, hw=(oh, ow), width=c):
        return Op(f"{name}.{suffix}", kind, width, width, 1, hw)

    def conv(suffix, k):
        return Op(f"{name}.{suffix}", BINARY_CONV, c, c, k, (oh, ow))

    ops = [chan("rsign_conv3x3", RSIGN, (ph, pw)), conv("conv3x3", 3),
           chan("bn_conv3x3", BATCH_NORM)]
    if layer.kind == NORMAL:
        return ops + [chan("rprelu_conv3x3", RPRELU), chan("rsign_conv1x1", RSIGN),
                      conv("conv1x1", 1), chan("bn_conv1x1", BATCH_NORM),
                      chan("rprelu_conv1x1", RPRELU)]
    if layer.stride == 2:
        ops.append(chan("pool_shortcut", SHORTCUT_POOL, (ph, pw)))
    return ops + [chan("rprelu_conv3x3", RPRELU), chan("rsign_conv1x1", RSIGN),
                  conv("conv1x1_a", 1), conv("conv1x1_b", 1),
                  chan("bn_conv1x1_a", BATCH_NORM), chan("bn_conv1x1_b", BATCH_NORM),
                  chan("rprelu_out", RPRELU, width=co)]


def _scaled(c: int, width_mult: float) -> int:
    if not math.isfinite(width_mult):
        raise ValueError(f"width_mult must be finite, got {width_mult}")
    s = int(round(c * width_mult))
    if s < 1:
        raise ValueError(f"width_mult {width_mult} collapses a {c}-wide layer")
    return s


def reference_spec(width_mult: float = 1.0, include_fc: bool = True) -> NetworkSpec:
    """The shipped default plan (see module docstring), width-scalable.

    width_mult 1.0 gives the full 1024-feature network; 0.5 halves every
    width (512 features) for desk-scale runs.
    """
    def w(c):
        return _scaled(c, width_mult)

    layers = [LayerSpec(FIRST_CONV, "stem", 1, w(64), stride=2)]
    plan = [
        (NORMAL, 64, 64, 1), (REDUCTION, 64, 128, 2),
        (NORMAL, 128, 128, 1), (REDUCTION, 128, 256, 2),
        (NORMAL, 256, 256, 1), (REDUCTION, 256, 512, 2),
        (NORMAL, 512, 512, 1), (REDUCTION, 512, 1024, 1),
        (NORMAL, 1024, 1024, 1), (NORMAL, 1024, 1024, 1),
    ]
    for i, (kind, ci, co, stride) in enumerate(plan, start=1):
        layers.append(LayerSpec(kind, f"block{i}", w(ci), w(co), stride=stride))
    layers.append(LayerSpec(GLOBAL_POOL, "pool", w(1024), w(1024)))
    if include_fc:
        layers.append(LayerSpec(FC_HEAD, "fc", w(1024), 10))
    return NetworkSpec(
        layers=tuple(layers), input_shape=(1, 28, 28),
        feature_dim=w(1024), class_count=10,
    )


def spec_to_dict(spec: NetworkSpec) -> dict:
    """Plain-dict form for embedding in checkpoints and config files."""
    return {
        "input_shape": list(spec.input_shape),
        "feature_dim": spec.feature_dim,
        "class_count": spec.class_count,
        "layers": [
            {
                "kind": l.kind, "name": l.name, "in_channels": l.in_channels,
                "out_channels": l.out_channels, "stride": l.stride,
            }
            for l in spec.layers
        ],
    }


def spec_from_dict(d: dict) -> NetworkSpec:
    try:
        layers = tuple(
            LayerSpec(
                kind=l["kind"], name=l["name"], in_channels=l["in_channels"],
                out_channels=l["out_channels"], stride=l["stride"],
            )
            for l in d["layers"]
        )
        spec = NetworkSpec(
            layers=layers, input_shape=tuple(d["input_shape"]),
            feature_dim=d["feature_dim"], class_count=d["class_count"],
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed network spec dict: {e}") from e
    shape_chain(spec)  # validate
    return spec
