"""Binary CNN backbone: construction, forward/backward, training, export.

The network follows the plan described by a ``netspec.NetworkSpec``: a real
3x3 stride-2 stem, a stack of binary blocks, a global average pool, and an
optional fully connected head used only while training the feature extractor.
The block inventory lives in ``netspec.layer_ops``: ``_param_layout`` maps
each layer's primitives through ``_PARAMS`` to the parameter names, shapes and
initial values that build the model and order the deployed payload, and the
cost model reads the same primitives.

Block wiring (all convs bias-free, BN after every conv):

* normal block (channel-preserving)::

      x -> RSign -> binconv3x3 -> BN -> (+x) -> RPReLU
        -> RSign -> binconv1x1 -> BN -> (+prev) -> RPReLU

* reduction block (channel-doubling; stride 2 halves the grid, stride 1
  keeps it)::

      x -> RSign -> binconv3x3(stride) -> BN -> (+shortcut) -> RPReLU -> d
      d -> RSign -> binconv1x1_a -> BN_a -> (+d) --+
      d -> RSign -> binconv1x1_b -> BN_b -> (+d) --+-> concat -> RPReLU

  where the 3x3 shortcut is a 2x2 average pool of the input at stride 2
  and the identity at stride 1, and both 1x1 branches share one RSign.
  Stride-2 blocks with odd spatial extent zero-pad the input on the
  bottom/right edge first; the pad ring flows through the whole block.

Binary convolutions run forward on +-1 sign planes (boolean activations
from RSign, True for +1; sign(latent) and alpha from ``bitops.sign_weights``
for the weights) and give their exact integer sums. Both executors lay the
filters out as one [Co, K] matrix of rows in im2col order
(``tensor_ops.filter_rows``) and run their product convs through
``tensor_ops.conv2d_forward``, which multiplies the sign planes by those
rows as float32, transposed: training holds int8 sign filters, the frozen
plan a float32 view of its rows. Training scales the sums by the
per-channel alpha once at the end. The frozen plan runs a conv of at most
``tensor_ops._POPCOUNT_MAX_ROWS`` (32) patch rows, N * H' * W', as
XNOR-popcount (``bitops.xnor_conv2d``) on the RSign compare packed into
words: at batch 1 that is every conv on a 4x4 or 2x2 grid, whose float32
+-1 rows (28.3 MB at width 0.5) would otherwise be read whole for a few
patch rows, against 1.63 MB of filter words laid out for each output
position's interior taps; the pad ring's taps cost a constant per position
and filter, not an XOR. Larger convs stay on the float32 product, which is
faster once the rows amortise the matrix. Both give the same bytes. The
plan folds alpha into the batch norm that follows. The backward pass trains
with real arithmetic on the effective weights alpha * sign(latent): it keeps
the forward's boolean sign planes, int8 sign filters and alpha, and
``tensor_ops.conv2d_backward`` casts them to the training dtype block by
block, over the taps that read the input on the 2x2 grids of a full batch
(the forward's rule, where grad_y is scaled by alpha and multiplied by the
+-1 filter rows) and otherwise one chunk of whole images at a time whose
size follows from the shapes alone (by the filter rows times alpha);
``bitops.sign_weights`` lays the rows out so that neither direction
transposes them.
Gradients reach the latents through the straight-through clip mask with
alpha held constant (a multiply skipped while every latent lies in [-1, 1],
where the mask is all ones), and latents are clipped to [-1, 1] after every
optimizer step. Sign activations route gradients through the
piecewise-quadratic surrogate in ``bitops``.

One block wiring serves two executors. Training runs the graph on the live
params in the dtype of its batch: float32 from :func:`train_stage1`, as the
paper's ReActNet backbone trains, or float64 for a float64 batch, which
keeps the arithmetic the finite-difference and byte tests check. The
activations, gradients and batch statistics are of that dtype; the params,
the BN running statistics and the SGD velocities stay float64 masters,
each op casts the params it reads, and the float32 gradients are added into
the float64 velocities (Micikevicius et al., arXiv 1710.03740; BinaryConnect,
Courbariaux et al., arXiv 1511.00363, keeps real latents for the same
reason). Each op records its backward on a tape, a closure over its
cache that runs once and is then freed, and the backward reads layer shapes
(the pad crop, the pool's padded grid) from ``netspec.shape_chain``. Inference
(``features_forward``, ``extract_features``, ``infer_hybrid``, ``fc_logits``,
``evaluate`` and ``forward(..., training=False)``) runs from a frozen
:class:`InferencePlan`: the deployed model, +-1 weights laid out as float32
filter rows and as XNOR filter words, and the reals as float32 values. The
plan folds each batch norm's running statistics, gamma and beta, and the
alpha of the conv before it, into one float64 scale and shift per channel
(the usual deployment fold; Jacob et al., arXiv 1712.05877, section 3.2), so
a binary conv's integer sums take one multiply and one add where training
takes an alpha pass and four batch-norm passes, and RSign compares
x >= shift without forming x - shift, into the boolean plane training's
RSign returns too, which the next conv packs into words or writes into its
float32 buffer as +-1. The fold rounds differently from the training graph
run with the running statistics: its features differ in the last bits of a
float64 (about 1e-13 relative at most in the tests). It caches nothing. A
ModelState is frozen once per inference call (:func:`freeze`).

The backbone artifact is the deployed model and nothing more: a header
(magic, format version, spec JSON) and then :func:`deployed_payload`, one sign
bit per binary weight and a float32 per real, which is exactly the cost
model's ``total_param_bits`` (about 1.06 MB at width 0.5 and 3.90 MB at 1.0,
where the float64 parameters take 56.9 and 226.9 MB). One decoder builds
every plan from these bytes and keeps them: :func:`freeze` encodes a
ModelState and :func:`load_checkpoint` reads a file, so a frozen model and
its saved file are the same plan. The trade-off: the artifact keeps no
latent magnitudes, so no training resumes from it; the float64 masters stay
in memory.

In both executors the shortcut adds write into the batch norm's output, and
batch norm (training's, and the plan's on the stem's float64 conv output)
and RPReLU compute in the array they are given, which nothing else reads.
That keeps the bytes: a fresh ufunc result takes its input's memory order,
so the in-place result holds the same values in the same layout, and every
later reduction adds in the same order.

Every activation and gradient of the block wiring, in both executors, lies in
NHWC memory (see ``tensor_ops``): the reduction block pads and concatenates
channels on NHWC views and the shortcut gradients are copied in their own
order, so no elementwise op mixes layouts.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import bitops, data, gbdt, netspec, tensor_ops
from .tensor_ops import ConvGeometry

_STEM_GEOM = ConvGeometry((3, 3), stride=2, padding=1)
_GEOM_3X3 = ConvGeometry((3, 3), stride=1, padding=1)
_GEOM_3X3_S2 = ConvGeometry((3, 3), stride=2, padding=1)
_GEOM_1X1 = ConvGeometry((1, 1), stride=1, padding=0)

# {suffix: fill} of the parameters of each primitive kind of netspec.layer_ops,
# in creation order; a None fill draws Kaiming-uniform values
_PARAMS = {
    netspec.STEM_CONV: {"w": None},
    netspec.BINARY_CONV: {"w_latent": None},
    netspec.BATCH_NORM: {"gamma": 1.0, "beta": 0.0, "run_mean": 0.0, "run_var": 1.0},
    netspec.RSIGN: {"shift": 0.0},
    netspec.RPRELU: {"beta": 0.25, "gamma": 0.0, "zeta": 0.0},
    netspec.FC_HEAD: {"w": None},
}
_DECAYED_PARAMS = ("stem.conv.w", "fc.w")
# [256, 8] float32: the signs +-1 of each byte's bits, LSB first
_BYTE_SIGNS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                            bitorder="little").astype(np.float32) * 2 - 1


# --- model state ---------------------------------------------------------


@dataclass
class ModelState:
    """A backbone's parameters and position; no optimizer state.

    ``params`` maps hierarchical names (e.g. ``block3.conv3x3.w_latent``) to
    float64 arrays and includes the BN running statistics. Momentum buffers
    belong to :func:`train_stage1`, not to the model. Every inference call
    freezes the state afresh (:func:`freeze`).
    """

    spec: netspec.NetworkSpec
    params: dict[str, np.ndarray]

    def learnable_keys(self) -> list[str]:
        """Parameter names updated by SGD, in creation order."""
        return [k for k in self.params if _is_learnable(k)]

    def param_digest(self) -> str:
        """sha256 of the float64 parameters' raw bytes, sorted by name: shows
        training changes below the float32 rounding of the artifact."""
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(np.ascontiguousarray(self.params[name], dtype="<f8").tobytes())
        return h.hexdigest()

    def copy(self) -> "ModelState":
        return ModelState(spec=self.spec,
                          params={k: v.copy() for k, v in self.params.items()})


def _kaiming_uniform(rng: np.random.Generator, shape: tuple, fan_in: int):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _param_layout(spec: netspec.NetworkSpec):
    """(name, shape, fan_in, fill) of every parameter of ``spec``, in creation
    order: fan_in > 0 draws Kaiming-uniform values, otherwise the constant
    fill. Computed from the spec alone, without allocating anything; the plan
    is validated (``netspec.shape_chain``) before the first name is yielded."""
    for step in netspec.shape_chain(spec):
        for op in netspec.layer_ops(step):
            ci, co, k = op.in_channels, op.out_channels, op.kernel
            for suffix, fill in _PARAMS.get(op.kind, {}).items():
                name = f"{op.prefix}.{suffix}"
                if fill is not None:
                    yield name, (co,), 0, fill
                elif op.kind == netspec.FC_HEAD:
                    yield name, (ci, co), ci, 0.0
                else:
                    yield name, (co, ci, k, k), ci * k * k, 0.0


def _is_learnable(name: str) -> bool:
    return not name.endswith(("run_mean", "run_var"))


def build_network(spec: netspec.NetworkSpec, seed: int = 0) -> ModelState:
    """Construct a freshly initialized backbone for ``spec``.

    Conv latents, the stem filters, and the FC weights draw from a
    Kaiming-uniform fan-in distribution using one ``default_rng(seed)``
    stream consumed in layer order; RSign shifts start at 0, RPReLU at
    (beta, gamma, zeta) = (0.25, 0, 0), and BN at identity.
    """
    rng = np.random.default_rng(seed)
    params = {name: (_kaiming_uniform(rng, shape, fan_in) if fan_in
                     else np.full(shape, fill))
              for name, shape, fan_in, fill in _param_layout(spec)}
    return ModelState(spec=spec, params=params)


# --- block wiring, shared by training and inference --------------------------
#
# The per-layer forwards run on an executor ``ops``: a training _Tape (ops in
# the batch's dtype on the live params, each recording its backward) or an
# InferencePlan (frozen weights, float64 reals, no caches). Each op is named
# by its parameter prefix.


def _stem_forward(ops, name, x):
    return ops.bn(f"{name}.bn", ops.conv(f"{name}.conv", x, _STEM_GEOM))


def _normal_forward(ops, name, x):
    a1 = ops.rsign(f"{name}.rsign_conv3x3", x)
    b1 = ops.bn(f"{name}.bn_conv3x3", ops.binconv(f"{name}.conv3x3", a1, _GEOM_3X3))
    d1 = ops.rprelu(f"{name}.rprelu_conv3x3", np.add(b1, x, out=b1))
    a2 = ops.rsign(f"{name}.rsign_conv1x1", d1)
    b2 = ops.bn(f"{name}.bn_conv1x1", ops.binconv(f"{name}.conv1x1", a2, _GEOM_1X1))
    return ops.rprelu(f"{name}.rprelu_conv1x1", np.add(b2, d1, out=b2))


def _reduction_forward(ops, name, x, stride):
    _, _, h, w = x.shape
    if stride == 2 and (h % 2 or w % 2):
        x = np.pad(x.transpose(0, 2, 3, 1),
                   ((0, 0), (0, h % 2), (0, w % 2), (0, 0))).transpose(0, 3, 1, 2)
    a1 = ops.rsign(f"{name}.rsign_conv3x3", x)
    geom = _GEOM_3X3_S2 if stride == 2 else _GEOM_3X3
    b1 = ops.bn(f"{name}.bn_conv3x3", ops.binconv(f"{name}.conv3x3", a1, geom))
    shortcut = tensor_ops.avgpool_2x2(x) if stride == 2 else x
    d1 = ops.rprelu(f"{name}.rprelu_conv3x3", np.add(b1, shortcut, out=b1))
    a2 = ops.rsign(f"{name}.rsign_conv1x1", d1)
    ba = ops.bn(f"{name}.bn_conv1x1_a",
                ops.binconv(f"{name}.conv1x1_a", a2, _GEOM_1X1))
    bb = ops.bn(f"{name}.bn_conv1x1_b",
                ops.binconv(f"{name}.conv1x1_b", a2, _GEOM_1X1))
    n, c, oh, ow = d1.shape
    cat = np.empty((n, oh, ow, 2 * c), d1.dtype).transpose(0, 3, 1, 2)
    np.add(ba, d1, out=cat[:, :c])
    np.add(bb, d1, out=cat[:, c:])
    return ops.rprelu(f"{name}.rprelu_out", cat)


def _run(ops, spec: netspec.NetworkSpec, x: np.ndarray, dtype=np.float64):
    """Forward pass on executor ``ops`` with x cast to ``dtype``: returns
    (head_output, features)."""
    h = np.asarray(x, dtype=dtype)
    if h.ndim != 4 or h.shape[1:] != spec.input_shape:
        raise ValueError(
            f"input shape {h.shape} incompatible with [N, "
            f"{', '.join(str(d) for d in spec.input_shape)}]"
        )
    feats = None
    for layer in spec.layers:
        if layer.kind == netspec.FIRST_CONV:
            h = _stem_forward(ops, layer.name, h)
        elif layer.kind == netspec.NORMAL:
            h = _normal_forward(ops, layer.name, h)
        elif layer.kind == netspec.REDUCTION:
            h = _reduction_forward(ops, layer.name, h, layer.stride)
        elif layer.kind == netspec.GLOBAL_POOL:
            h = feats = tensor_ops.avgpool_global(h)
        else:                                            # fc_head
            h = ops.linear(layer.name, h)
    return h, feats


# --- inference: the frozen plan -------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class CheckpointError(ValueError):
    """Malformed checkpoint bytes, or a payload no plan can be built from."""


@dataclass(frozen=True, eq=False)
class InferencePlan:
    """A backbone frozen for inference, as it is deployed: the plan of a
    payload (:func:`_plan`), whose bytes it keeps as ``payload``.

    ``filters`` maps each binary conv's prefix to its +-1 weights as float32
    filters [Co, Ci, kh, kw], a view of rows [Co, kh*kw*Ci] in im2col order
    that ``tensor_ops.filter_rows`` takes without a copy and the product
    multiplies by transposed. ``xnor`` maps each binary conv whose output
    grid has at most ``tensor_ops._POPCOUNT_MAX_ROWS`` cells to the same
    weights packed per tap, with the pad ring's constants, for the input
    extent the spec gives it (``bitops.xnor_filters``). binconv runs a conv
    of at most that many patch rows, N * H' * W', as XNOR-popcount
    (``bitops.xnor_conv2d``) and any other as ``tensor_ops.conv2d_forward``'s
    float32 product; the integer sums, and so the bytes, are the same.
    ``reals`` holds the stem and FC weights, the RSign shifts and the RPReLU
    parameters, float32 values in float64 arrays. ``affine`` maps each batch norm's prefix to
    the float64 (scale, shift) the plan computes with, folded from alpha and
    BN parameters it does not keep:

        g = gamma / sqrt(run_var + eps)
        scale = alpha * g            (alpha of the conv the BN follows; 1 at the stem)
        shift = beta - run_mean * g

    All arrays are read-only. As an executor of the block wiring it keeps no
    caches: rsign returns the compare x >= shift, a boolean plane (True for
    +1) that binconv packs into words or writes into the product's float32
    pad buffer as +-1; binconv returns the sign conv's exact integer sums, bn
    applies sums * scale + shift, and bn (on the stem's float64 output) and
    rprelu compute in the array they are given.
    """

    spec: netspec.NetworkSpec
    filters: MappingProxyType
    xnor: MappingProxyType
    reals: MappingProxyType
    affine: MappingProxyType
    payload: bytes

    def conv(self, prefix, x, geom):
        return tensor_ops.conv2d_forward(x, self.reals[f"{prefix}.w"], geom)

    def rsign(self, prefix, x):
        # x >= shift is (x - shift) >= 0 for every x and finite shift: the
        # rounded difference of two doubles is zero only when they are equal
        # and keeps its sign otherwise (gradual underflow), and NaN fails both.
        return np.greater_equal(x, self.reals[f"{prefix}.shift"][None, :, None, None])

    def binconv(self, prefix, x, geom):
        n, _, h, w = x.shape
        oh, ow = geom.out_extent(h, w)
        if n * oh * ow <= tensor_ops._POPCOUNT_MAX_ROWS and prefix in self.xnor:
            return bitops.xnor_conv2d(x, self.xnor[prefix])
        return tensor_ops.conv2d_forward(x, self.filters[prefix], geom, pad_value=-1)

    def bn(self, prefix, x):
        scale, shift = self.affine[prefix]
        y = np.multiply(x, scale[None, :, None, None],
                        out=x if x.dtype == np.float64 else None)
        y += shift[None, :, None, None]
        return y

    def rprelu(self, prefix, x):
        beta, gamma, zeta = (self.reals[f"{prefix}.{k}"] for k in _PARAMS[netspec.RPRELU])
        u = np.subtract(x, gamma[None, :, None, None], out=x)
        return bitops._shifted_prelu(u, beta, zeta, out=u)

    def linear(self, prefix, x):
        return tensor_ops.linear_forward(x, self.reals[f"{prefix}.w"])


def _binary_conv_inputs(spec: netspec.NetworkSpec):
    """{prefix: (geometry, input (H, W))} of every binary conv of ``spec``, as
    the block wiring runs them: the 3x3 conv on the block's padded input at
    the block's stride, the 1x1 convs on its output grid."""
    convs = {}
    for step in netspec.shape_chain(spec):
        for op in netspec.layer_ops(step):
            if op.kind != netspec.BINARY_CONV:
                continue
            if op.kernel == 1:
                convs[op.prefix] = (_GEOM_1X1, op.hw)
            else:
                geom = _GEOM_3X3_S2 if step.layer.stride == 2 else _GEOM_3X3
                convs[op.prefix] = (geom, step.padded[1:])
    return convs


def _plan(spec: netspec.NetworkSpec, payload: bytes) -> InferencePlan:
    """The plan of ``spec`` from its deployed payload (:func:`deployed_payload`),
    the one decoder of a payload. Raises CheckpointError unless it is exactly
    as long as the spec's parameters need, with zero padding bits, finite
    reals and non-negative BN running variances. Each binary conv's bits go
    straight to its float32 filter rows and XNOR words in row order; each
    batch norm and the alpha of its conv fold into ``affine``."""
    # (name, shape, shape of its reals): a latent's reals are its alpha [Co]
    layout = [(name, shape, shape[:1] if name.endswith(".w_latent") else shape)
              for name, shape, _, _ in _param_layout(spec)]
    n_bits = sum(math.prod(s) for name, s, _ in layout if name.endswith(".w_latent"))
    n_reals = sum(math.prod(r) for _, _, r in layout)
    bit_bytes = -(-n_bits // 8)
    if len(payload) != bit_bytes + 4 * n_reals:
        raise CheckpointError(f"payload of {len(payload)} bytes; the plan has "
                              f"{bit_bytes + 4 * n_reals}")
    packed = np.frombuffer(payload, np.uint8, bit_bytes)
    if n_bits % 8 and packed[-1] >> n_bits % 8:
        raise CheckpointError("nonzero padding bits after the sign bits")
    reals = np.frombuffer(payload, "<f4", n_reals, offset=bit_bytes)
    if not np.isfinite(reals).all():
        raise CheckpointError("non-finite real in the payload")
    filters, xnor, params = {}, {}, {}
    convs = _binary_conv_inputs(spec)
    i = j = 0                                  # read positions in the bits and the reals
    for name, shape, real_shape in layout:
        params[name] = _read_only(
            reals[j:j + math.prod(real_shape)].astype(np.float64).reshape(real_shape))
        j += math.prod(real_shape)
        if name.endswith(".w_latent"):
            prefix, n = name[:-len(".w_latent")], math.prod(shape)
            # bits 0/1 from [Co, Ci, kh, kw] into row order; rows by byte lookup
            bits = np.unpackbits(packed[i // 8:-(-(i + n) // 8)], bitorder="little")
            bits = bits[i % 8:i % 8 + n].reshape(shape).transpose(0, 2, 3, 1)
            bits = bits.reshape(shape[0], -1)
            r = np.take(_BYTE_SIGNS, np.packbits(bits, bitorder="little"), axis=0)
            co, ci, kh, kw = shape
            filters[prefix] = _read_only(
                r.ravel()[:n].reshape(co, kh, kw, ci).transpose(0, 3, 1, 2))
            geom, (h, w) = convs[prefix]
            if math.prod(geom.out_extent(h, w)) <= tensor_ops._POPCOUNT_MAX_ROWS:
                xnor[prefix] = bitops.xnor_filters(bits.view(bool), geom, h, w)
            i += n
    affine = {}
    for name in [name for name in params if name.endswith(".run_var")]:
        bn = name[:-len(".run_var")]
        gamma, beta, mu, var = (params.pop(f"{bn}.{k}") for k in _PARAMS[netspec.BATCH_NORM])
        if (var < 0).any():                    # before the square root
            raise CheckpointError(f"{name} holds a negative variance")
        g = gamma / np.sqrt(var + tensor_ops.BN_EPS)
        # the alpha of block3.conv1x1_a for block3.bn_conv1x1_a; 1.0 at the stem
        alpha = params.pop(f"{bn.replace('.bn_', '.', 1)}.w_latent", 1.0)
        affine[bn] = (_read_only(alpha * g), _read_only(beta - mu * g))
    return InferencePlan(spec=spec, filters=MappingProxyType(filters),
                         xnor=MappingProxyType(xnor), reals=MappingProxyType(params),
                         affine=MappingProxyType(affine), payload=bytes(payload))


def _encode(model: ModelState) -> bytes:
    """The payload of ``model`` (:func:`deployed_payload`): sign bits and
    alpha as ``bitops.sign_weights`` takes them, and every real, as float32;
    a value past float32's range becomes inf, which :func:`_plan` refuses."""
    bits, reals = [np.zeros(0, bool)], [np.zeros(0)]
    for name, _, _, _ in _param_layout(model.spec):
        arr = model.params[name]
        if name.endswith(".w_latent"):
            bits.append(bitops.sign_bits(arr).ravel())
            arr = bitops.weight_alpha(arr)
        reals.append(arr.ravel())
    with np.errstate(over="ignore"):
        reals = np.concatenate(reals).astype("<f4")
    return np.packbits(np.concatenate(bits), bitorder="little").tobytes() + reals.tobytes()


def freeze(model: ModelState) -> InferencePlan:
    """The deployed model of a backbone, as a plan for inference.

    Encodes the payload :func:`deployed_payload` stores (sign(0) = +1, alpha
    = mean|latent| per filter, every real rounded to float32) and builds the
    plan from those bytes, as :func:`load_checkpoint` does from the saved
    model, so the two plans are equal. Later writes to ``model`` do not reach
    it. Raises CheckpointError (a ValueError) on a real that is not finite in
    float32 or a negative BN running variance: no such model is served or saved.
    """
    return _plan(model.spec, _encode(model))


def _plan_of(model) -> InferencePlan:
    """The plan to serve ``model`` from: itself if it is one, else a freeze."""
    return model if isinstance(model, InferencePlan) else freeze(model)


# --- training: the tape and the backward ---------------------------------------


class _Tape:
    """Training executor: ops on the live params with batch-statistic BN, in
    ``dtype`` (float32 or float64, the input batch's ``tensor_ops._real_dtype``).
    Activations, gradients and batch statistics are of that dtype; the
    params stay float64 masters and each op casts the ones it reads. Each op
    records, under its parameter prefix, its backward: a closure over its
    cache, returning the input gradient and the gradients of the parameters
    it names, in ``dtype``. :meth:`back` runs each recorded backward once.
    bn and rprelu consume the conv output or block sum they are given: it
    becomes the cached xhat or u. bn's backward likewise consumes the
    gradient it is given, which the block backwards read for nothing else."""

    def __init__(self, params: dict, dtype=np.float64):
        self.params = params
        self.dtype = dtype
        self.ops: dict[str, tuple] = {}
        self.grads: dict[str, np.ndarray] = {}

    def back(self, prefix, grad_y):
        """Run and drop the backward recorded under ``prefix``, filing its
        parameter gradients in ``grads``; returns the input gradient."""
        keys, op_backward = self.ops.pop(prefix)
        grad_x, *grads = op_backward(grad_y)
        for key, g in zip(keys, grads):
            self.grads[f"{prefix}.{key}"] = g
        return grad_x

    def conv(self, prefix, x, geom):
        w = self.params[f"{prefix}.w"]
        self.ops[prefix] = (("w",), lambda g: tensor_ops.conv2d_backward(g, x, w, geom))
        return tensor_ops.conv2d_forward(x, w, geom)

    def rsign(self, prefix, x):
        y, cache = bitops.rsign_forward(x, self.params[f"{prefix}.shift"])
        self.ops[prefix] = (("shift",), lambda g: bitops.rsign_backward(g, cache))
        return y

    def binconv(self, prefix, x_sign, geom):
        latent = self.params[f"{prefix}.w_latent"]
        w_sign, alpha = bitops.sign_weights(latent)

        def op_backward(g):
            gx, gw = tensor_ops.conv2d_backward(g, x_sign, w_sign, geom, pad_value=-1,
                                                alpha=alpha)
            # Kaiming init draws the latents within [-1, 1] and train_stage1
            # clips them back after every step, so the clip mask is all ones
            # there, and gw * 1 is gw to the byte
            if not -1.0 <= latent.min() <= latent.max() <= 1.0:     # NaN fails
                gw *= bitops.ste_mask(latent)
            return gx, gw

        self.ops[prefix] = (("w_latent",), op_backward)
        y = tensor_ops.conv2d_forward(x_sign, w_sign, geom, pad_value=-1)
        return np.multiply(y, alpha[None, :, None, None], dtype=self.dtype)

    def bn(self, prefix, x):
        y, cache = tensor_ops.batchnorm_forward(
            x, *(self.params[f"{prefix}.{k}"] for k in _PARAMS[netspec.BATCH_NORM]),
            out=x)
        self.ops[prefix] = (("gamma", "beta"),
                            lambda g: tensor_ops.batchnorm_backward(g, cache, out=g))
        return y

    def rprelu(self, prefix, x):
        keys = _PARAMS[netspec.RPRELU]
        y, cache = bitops.rprelu_forward(
            x, *(self.params[f"{prefix}.{k}"] for k in keys), out=x)
        self.ops[prefix] = (keys, lambda g: bitops.rprelu_backward(g, cache))
        return y

    def linear(self, prefix, x):
        w = self.params[f"{prefix}.w"]
        self.ops[prefix] = (("w",), lambda g: tensor_ops.linear_backward(g, x, w))
        return tensor_ops.linear_forward(x, w)


# The block backwards keep the signature (tape, name, step, grad_y) and are
# called as module globals: perfbench marks them by name and argument position.


def _stem_backward(tape, name, step, grad_y):
    return tape.back(f"{name}.conv", tape.back(f"{name}.bn", grad_y))


def _normal_backward(tape, name, step, grad_y):
    g_c2 = tape.back(f"{name}.rprelu_conv1x1", grad_y)
    g_d1 = g_c2.copy(order="K")                          # shortcut branch
    g_z2 = tape.back(f"{name}.bn_conv1x1", g_c2)
    g_a2 = tape.back(f"{name}.conv1x1", g_z2)
    g_d1 += tape.back(f"{name}.rsign_conv1x1", g_a2)

    g_c1 = tape.back(f"{name}.rprelu_conv3x3", g_d1)
    g_x = g_c1.copy(order="K")                           # shortcut branch
    g_z1 = tape.back(f"{name}.bn_conv3x3", g_c1)
    g_a1 = tape.back(f"{name}.conv3x3", g_z1)
    g_x += tape.back(f"{name}.rsign_conv3x3", g_a1)
    return g_x


def _reduction_backward(tape, name, step, grad_y):
    g_cat = tape.back(f"{name}.rprelu_out", grad_y)
    c = g_cat.shape[1] // 2
    g_ca, g_cb = g_cat[:, :c], g_cat[:, c:]
    g_d1 = g_ca + g_cb                                   # branch shortcuts

    g_za = tape.back(f"{name}.bn_conv1x1_a", g_ca)
    g_a2 = tape.back(f"{name}.conv1x1_a", g_za)
    g_zb = tape.back(f"{name}.bn_conv1x1_b", g_cb)
    g_a2 += tape.back(f"{name}.conv1x1_b", g_zb)
    g_d1 += tape.back(f"{name}.rsign_conv1x1", g_a2)

    g_c1 = tape.back(f"{name}.rprelu_conv3x3", g_d1)
    if step.layer.stride == 2:
        g_xp = tensor_ops.avgpool_2x2_backward(g_c1, (len(g_c1), *step.padded))
    else:
        g_xp = g_c1.copy(order="K")
    g_z1 = tape.back(f"{name}.bn_conv3x3", g_c1)
    g_a1 = tape.back(f"{name}.conv3x3", g_z1)
    g_xp += tape.back(f"{name}.rsign_conv3x3", g_a1)
    _, h, w = step.in_shape                              # crop the pad ring
    return g_xp[:, :, :h, :w]


def forward(model, x: np.ndarray, training: bool = False):
    """Class logits [N, K]; requires a plan with an FC head.

    Returns (logits, tape). Training mode runs the training graph in x's
    dtype if it is float32 and in float64 otherwise (``_Tape``): BN uses
    batch statistics (and updates the float64 running estimates in place)
    and every op records its backward on the tape, which :func:`backward`
    consumes. Inference mode runs the frozen plan (see :func:`freeze`;
    ``model`` may be an InferencePlan), whose batch norms apply the stored
    running statistics folded into a scale and shift, is batch-invariant,
    and returns tape None.
    """
    if not model.spec.has_fc_head():
        raise ValueError("plan has no fc_head; use features_forward")
    if not training:
        return _run(_plan_of(model), model.spec, x)[0], None
    tape = _Tape(model.params, tensor_ops._real_dtype(x))
    return _run(tape, model.spec, x, tape.dtype)[0], tape


def features_forward(model, x: np.ndarray) -> np.ndarray:
    """Pooled feature vectors [N, feature_dim] in inference mode.

    ``model`` is a ModelState or an InferencePlan; either way the features
    come from the frozen plan (see :func:`freeze`).
    """
    plan = _plan_of(model)
    return _run(plan, plan.spec, x)[1]


def backward(model: ModelState, tape: _Tape, grad_out: np.ndarray):
    """Chain gradients from d(loss)/d(logits) back to every learnable param.

    Walks ``netspec.shape_chain(model.spec)`` in reverse and runs each op
    backward recorded on ``tape`` once, freeing its cache as it goes.

    Args:
        model: the state used for the forward pass.
        tape: second element of a training-mode :func:`forward` return.
        grad_out: [N, K] gradient at the head output.

    Returns:
        dict keyed exactly like ``model.learnable_keys()``, the gradients in
        the tape's dtype.
    """
    g = np.asarray(grad_out, dtype=tape.dtype)
    for step in reversed(netspec.shape_chain(model.spec)):
        layer = step.layer
        if layer.kind == netspec.FC_HEAD:
            g = tape.back(layer.name, g)
        elif layer.kind == netspec.GLOBAL_POOL:
            g = tensor_ops.avgpool_global_backward(g, (len(g), *step.in_shape))
        elif layer.kind == netspec.REDUCTION:
            g = _reduction_backward(tape, layer.name, step, g)
        elif layer.kind == netspec.NORMAL:
            g = _normal_backward(tape, layer.name, step, g)
        else:
            g = _stem_backward(tape, layer.name, step, g)
    return tape.grads


def loss_and_grads(model: ModelState, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of a batch plus gradients for every learnable param,
    computed in float32 for a float32 batch and in float64 otherwise."""
    logits, tape = forward(model, x, training=True)
    loss, grad_logits = tensor_ops.softmax_cross_entropy(logits, labels)
    return loss, backward(model, tape, grad_logits)


# --- training --------------------------------------------------------------


@dataclass(frozen=True)
class StageOneConfig:
    """Hyperparameters for SGD training of the backbone + FC head.

    The learning rate follows a cosine schedule 0.5*lr*(1 + cos(pi*e/E))
    evaluated once per epoch; weight decay applies only to the real-valued
    weights (stem conv and FC head). Latent weights are clipped to [-1, 1]
    after every step. Each step computes in float32 and updates float64
    master weights (:func:`train_stage1`).
    """

    epochs: int = 120
    batch_size: int = 128
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    seed: int = 0
    augment: bool = False

    def __post_init__(self):
        for key in ("learning_rate", "momentum", "weight_decay"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    val_top1: float
    wall_seconds: float
    learning_rate: float


@dataclass
class TrainResult:
    """Outcome of stage-1 training: best-validation state plus the log."""

    model: ModelState
    metrics: list[EpochMetrics] = field(default_factory=list)
    best_epoch: int = -1
    best_val_top1: float = 0.0
    aborted: bool = False
    abort_reason: str = ""

    def abort(self, best: ModelState, reason: str) -> "TrainResult":
        self.aborted, self.model = True, best
        self.abort_reason = f"{reason}; returning best checkpoint from epoch {self.best_epoch}"
        return self


def evaluate(model, ds, batch_size: int = 256) -> float:
    """FC-head top-1 accuracy over a dataset from one plan: the argmax of
    :func:`fc_logits` on :func:`extract_features`, as ``rxgb eval`` scores it."""
    plan = _plan_of(model)
    feats, labels = extract_features(plan, ds, batch_size)
    pred = np.argmax(fc_logits(plan, feats, batch_size), axis=1)
    return int((pred == labels).sum()) / len(ds)


def train_stage1(model: ModelState, train_ds, val_ds,
                 hp: StageOneConfig) -> TrainResult:
    """SGD with momentum over epochs of shuffled minibatches.

    Each batch is cast to float32, so its forward and backward run in
    float32 (:func:`loss_and_grads`); the params, the BN running statistics
    and the momentum buffers stay float64 masters, and each float32 gradient
    is added into its float64 buffer. The momentum buffers are local to the
    call: they start at zero and are dropped on return, so a checkpoint is
    not a resume point. Tracks
    validation top-1 after every epoch and returns the state snapshot of
    the best epoch (ties keep the earlier one). A non-finite training loss
    aborts immediately — before the poisoned step is applied — and returns
    the best snapshot seen so far with ``aborted`` set and a diagnostic; so
    does an epoch whose model :func:`freeze` refuses, before validation.
    """
    keys = model.learnable_keys()
    decay_mask = [k in _DECAYED_PARAMS for k in keys]
    latent_keys = [k for k in keys if k.endswith(".w_latent")]
    velocities = [np.zeros_like(model.params[k]) for k in keys]
    best = model.copy()
    result = TrainResult(model=best)
    for epoch in range(hp.epochs):
        start = time.perf_counter()
        lr = 0.5 * hp.learning_rate * (1.0 + np.cos(np.pi * epoch / hp.epochs))
        aug_rng = np.random.default_rng((hp.seed, epoch, 1))
        loss_sum = 0.0
        seen = 0
        for xb, yb in data.batches(
            train_ds, hp.batch_size, seed=hp.seed, shuffle=True, epoch=epoch
        ):
            xb = xb.astype(np.float32)
            if hp.augment:
                xb = data.augment_batch(xb, aug_rng)
            loss, grads = loss_and_grads(model, xb, yb)
            if not np.isfinite(loss):
                return result.abort(best, f"non-finite training loss {loss} at epoch "
                                    f"{epoch}, batch {seen // hp.batch_size}")
            tensor_ops.sgd_step(
                [model.params[k] for k in keys],
                [grads[k] for k in keys],
                velocities,
                lr=lr,
                momentum=hp.momentum,
                weight_decay=hp.weight_decay,
                decay_mask=decay_mask,
            )
            for k in latent_keys:
                np.clip(model.params[k], -1.0, 1.0, out=model.params[k])
            loss_sum += loss * len(yb)
            seen += len(yb)
        try:
            val_top1 = evaluate(model, val_ds, batch_size=hp.batch_size)
        except CheckpointError as e:
            return result.abort(best, f"the model of epoch {epoch} does not freeze: {e}")
        result.metrics.append(EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / max(seen, 1),
            val_top1=val_top1,
            wall_seconds=time.perf_counter() - start,
            learning_rate=float(lr),
        ))
        if val_top1 > result.best_val_top1 or result.best_epoch < 0:
            result.best_epoch = epoch
            result.best_val_top1 = val_top1
            best = model.copy()
    result.model = best
    return result


# --- stage-2 interface -------------------------------------------------------


def extract_features(model, ds, batch_size: int = 256):
    """Pooled features for a whole dataset in inference mode.

    ``model`` is a ModelState or an InferencePlan; a writable state is
    frozen once for the whole dataset. Returns (features [N, D] float64,
    labels [N] int64) in dataset order.
    """
    plan = _plan_of(model)
    chunks = []
    labels = []
    for xb, yb in data.batches(ds, batch_size, shuffle=False):
        chunks.append(features_forward(plan, xb))
        labels.append(yb)
    d = model.spec.feature_dim
    if not chunks:
        return np.zeros((0, d)), np.zeros(0, dtype=np.int64)
    return np.concatenate(chunks), np.concatenate(labels)


def fc_logits(model, feats: np.ndarray, batch_size: int = 256):
    """FC-head logits [N, K] of the pooled features [N, D] of extract_features.

    Applies the head once per ``batch_size`` rows, the batches the features
    were extracted in, so the logits equal :func:`forward`'s byte for byte: a
    single product over all rows may round differently in BLAS.
    """
    if not model.spec.has_fc_head():
        raise ValueError("plan has no fc_head; use a tree head on its features")
    w = _plan_of(model).reals[f"{model.spec.layers[-1].name}.w"]
    return np.concatenate([tensor_ops.linear_forward(feats[s:s + batch_size], w)
                           for s in range(0, len(feats), batch_size)])


def infer_hybrid(model, ens: gbdt.TreeEnsemble, x: np.ndarray):
    """End-to-end prediction: binary CNN features routed through the tree head.

    Args:
        model: trained backbone, a ModelState or an InferencePlan (the FC
            head, if present, is ignored).
        ens: boosted-tree head trained on this backbone's features.
        x: image batch [N, C, H, W].

    Returns:
        (classes [N] int64, scores [N, K] softmax of the tree margins).

    Raises:
        ValueError: when the ensemble's feature width does not match the
            backbone's feature_dim.
    """
    d = model.spec.feature_dim
    if ens.n_features != d:
        raise ValueError(
            f"ensemble expects {ens.n_features} features, backbone emits {d}"
        )
    feats = features_forward(model, x)
    margins = gbdt.predict_margins(ens, feats)
    z = margins - margins.max(axis=1, keepdims=True)
    ez = np.exp(z)
    scores = ez / ez.sum(axis=1, keepdims=True)
    return np.argmax(margins, axis=1), scores


# --- the backbone artifact ----------------------------------------------------

CHECKPOINT_MAGIC = b"RXGBCKPT"
CHECKPOINT_VERSION = 3
_HEADER = struct.Struct("<II")                 # version, spec JSON length


def deployed_payload(model) -> bytes:
    """The deployable parameters: 1 bit per binary weight, 32 per real.

    Layout: first every binary conv's sign bits (1 for +1) in layer order,
    each filter bank flattened [Co, Ci, kh, kw] row-major, the whole bit
    stream packed LSB-first and padded to a byte boundary; then the
    real-valued tensors as float32 little-endian in ``_param_layout`` order,
    each binary conv's per-channel alpha standing where its latent stands in
    that order. ``model`` is an InferencePlan (its ``payload``) or a
    ModelState, frozen first, so a payload no plan holds raises CheckpointError.

    For plans whose binary-weight count is a multiple of 8 (all standard
    widths), the byte length equals the cost model's total_param_bits / 8.
    """
    return _plan_of(model).payload


def parse_checkpoint(blob: bytes) -> InferencePlan:
    """Inverse of the bytes :func:`save_checkpoint` writes; raises CheckpointError.

    Checks the header (magic, version, spec JSON) and builds the plan of the
    payload after it with the decoder :func:`freeze` uses (:func:`_plan`).
    Any other format version, the float64 records of v2 included, is rejected.
    """
    blob = bytes(blob)
    head = len(CHECKPOINT_MAGIC) + _HEADER.size
    if len(blob) < head:
        raise CheckpointError(f"truncated checkpoint: {len(blob)} bytes, "
                              f"the header alone takes {head}")
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic; expected {CHECKPOINT_MAGIC!r}")
    version, spec_len = _HEADER.unpack_from(blob, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if len(blob) < head + spec_len:
        raise CheckpointError(f"truncated checkpoint: spec of {spec_len} bytes, "
                              f"{len(blob) - head} remain")
    try:
        spec = netspec.spec_from_dict(json.loads(blob[head:head + spec_len]))
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as e:
        raise CheckpointError(f"bad plan: {e}") from e
    return _plan(spec, blob[head + spec_len:])


def save_checkpoint(model, path) -> None:
    """Write the backbone artifact of ``model`` (a ModelState or an
    InferencePlan): magic, u32 version, u32 spec JSON length and the spec
    JSON (little-endian), then :func:`deployed_payload`, whose CheckpointError
    leaves no file. Written atomically."""
    spec_json = json.dumps(
        netspec.spec_to_dict(model.spec), sort_keys=True, separators=(",", ":")
    ).encode()
    with data.atomic_open(path) as f:
        f.write(CHECKPOINT_MAGIC + _HEADER.pack(CHECKPOINT_VERSION, len(spec_json))
                + spec_json + deployed_payload(model))


def load_checkpoint(path) -> InferencePlan:
    """Read a backbone artifact into its plan (see parse_checkpoint)."""
    with open(path, "rb") as f:
        return parse_checkpoint(f.read())
