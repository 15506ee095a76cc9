"""Binary CNN backbone: construction, forward/backward, training, export.

The network follows the plan described by a ``netspec.NetworkSpec``: a real
3x3 stride-2 stem, a stack of binary blocks, a global average pool, and an
optional fully connected head used only while training the feature extractor.

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

Binary convolutions run forward as exact integer products of the int8
sign planes (activations from RSign, sign(latent) for the weights), scaled
by the per-channel alpha once at the end, so the forward equals the
XNOR-popcount ``bitops.binary_conv2d`` to the byte. The backward pass trains
with real arithmetic on the effective weights alpha * sign(latent): it keeps
the forward's int8 sign planes and alpha, and ``tensor_ops.conv2d_backward``
builds float64 from them block by block, in products whose row chunks and
column subsets equal the dense product's (a measured property of the BLAS
that holds only for large enough parts, which ``tensor_ops`` guards). Gradients reach the latents through the
straight-through clip mask with alpha held constant, and latents are
clipped to [-1, 1] after every optimizer step. Sign activations route gradients through the
piecewise-quadratic surrogate in ``bitops``.

One block wiring serves two executors. Training runs the float64 graph on
the live params; each op records its backward on a tape, a closure over its
cache that runs once and is then freed, and the backward reads layer shapes
(the pad crop, the pool's padded grid) from ``netspec.shape_chain``. Inference
(``features_forward``, ``extract_features``, ``infer_hybrid``, ``fc_logits``,
``evaluate`` and ``forward(..., training=False)``) runs from a frozen
:class:`InferencePlan` (:func:`freeze`): the +-1 weights already binarized
and laid out as float32 gemm matrices with their alpha, and copies of the
reals. It computes the same bytes in the same per-element order and caches
nothing. A checkpoint loaded by ``load_checkpoint`` is read-only and keeps
the plan it first builds, so requests pay no weight preparation; writing
into it raises, and ``copy()`` gives a writable state to train. A writable
state is frozen once per inference call.
"""

from __future__ import annotations

import json
import os
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

_BN_KEYS = ("gamma", "beta", "run_mean", "run_var")
_RPRELU_KEYS = ("beta", "gamma", "zeta")
_DECAYED_PARAMS = ("stem.conv.w", "fc.w")


# --- model state ---------------------------------------------------------


@dataclass
class ModelState:
    """A backbone's parameters and position; no optimizer state.

    ``params`` maps hierarchical names (e.g. ``block3.conv3x3.w_latent``) to
    float64 arrays and includes the BN running statistics. Momentum buffers
    belong to :func:`train_stage1`, not to the model.

    A state whose param arrays are all read-only (every loaded checkpoint)
    is immutable: it keeps the InferencePlan it first builds. A writable
    state is frozen afresh by every inference call.
    """

    spec: netspec.NetworkSpec
    params: dict[str, np.ndarray]
    seed: int = 0
    epoch: int = 0
    weight_scaling: bool = True

    # (plan, the param arrays it froze), kept while they are all read-only
    _frozen: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def learnable_keys(self) -> list[str]:
        """Parameter names updated by SGD, in creation order."""
        return [k for k in self.params if _is_learnable(k)]

    def copy(self) -> "ModelState":
        return ModelState(
            spec=self.spec,
            params={k: v.copy() for k, v in self.params.items()},
            seed=self.seed,
            epoch=self.epoch,
            weight_scaling=self.weight_scaling,
        )


def _kaiming_uniform(rng: np.random.Generator, shape: tuple, fan_in: int):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _bn_layout(prefix: str, c: int):
    yield f"{prefix}.gamma", (c,), 0, 1.0
    yield f"{prefix}.beta", (c,), 0, 0.0
    yield f"{prefix}.run_mean", (c,), 0, 0.0
    yield f"{prefix}.run_var", (c,), 0, 1.0


def _rprelu_layout(prefix: str, c: int):
    yield f"{prefix}.beta", (c,), 0, 0.25
    yield f"{prefix}.gamma", (c,), 0, 0.0
    yield f"{prefix}.zeta", (c,), 0, 0.0


def _param_layout(spec: netspec.NetworkSpec):
    """(name, shape, fan_in, fill) of every parameter of ``spec``, in creation
    order: fan_in > 0 draws Kaiming-uniform values, otherwise the constant
    fill. Computed from the spec alone, without allocating anything."""
    for layer in spec.layers:
        ci, co, name = layer.in_channels, layer.out_channels, layer.name
        if layer.kind == netspec.FIRST_CONV:
            yield f"{name}.conv.w", (co, ci, 3, 3), ci * 9, 0.0
            yield from _bn_layout(f"{name}.bn", co)
        elif layer.kind in (netspec.NORMAL, netspec.REDUCTION):
            convs = (("conv1x1",) if layer.kind == netspec.NORMAL
                     else ("conv1x1_a", "conv1x1_b"))
            yield f"{name}.rsign_conv3x3.shift", (ci,), 0, 0.0
            yield f"{name}.conv3x3.w_latent", (ci, ci, 3, 3), ci * 9, 0.0
            yield from _bn_layout(f"{name}.bn_conv3x3", ci)
            yield from _rprelu_layout(f"{name}.rprelu_conv3x3", ci)
            yield f"{name}.rsign_conv1x1.shift", (ci,), 0, 0.0
            for conv in convs:
                yield f"{name}.{conv}.w_latent", (ci, ci, 1, 1), ci, 0.0
            if layer.kind == netspec.NORMAL:
                yield from _bn_layout(f"{name}.bn_conv1x1", ci)
                yield from _rprelu_layout(f"{name}.rprelu_conv1x1", ci)
            else:
                for conv in convs:
                    yield from _bn_layout(f"{name}.bn_{conv}", ci)
                yield from _rprelu_layout(f"{name}.rprelu_out", co)
        elif layer.kind == netspec.FC_HEAD:
            yield f"{name}.w", (ci, co), ci, 0.0
        # global_pool has no parameters


def _is_learnable(name: str) -> bool:
    return not name.endswith(("run_mean", "run_var"))


def build_network(
    spec: netspec.NetworkSpec, seed: int = 0, weight_scaling: bool = True
) -> ModelState:
    """Construct a freshly initialized backbone for ``spec``.

    Conv latents, the stem filters, and the FC weights draw from a
    Kaiming-uniform fan-in distribution using one ``default_rng(seed)``
    stream consumed in layer order; RSign shifts start at 0, RPReLU at
    (beta, gamma, zeta) = (0.25, 0, 0), and BN at identity.
    """
    netspec.shape_chain(spec)  # validates the plan before allocating
    rng = np.random.default_rng(seed)
    params = {name: (_kaiming_uniform(rng, shape, fan_in) if fan_in
                     else np.full(shape, fill))
              for name, shape, fan_in, fill in _param_layout(spec)}
    return ModelState(spec=spec, params=params, seed=seed,
                      weight_scaling=weight_scaling)


# --- block wiring, shared by training and inference --------------------------
#
# The per-layer forwards run on an executor ``ops``: a training _Tape (float64
# ops on the live params, each recording its backward) or an InferencePlan
# (frozen weights, no caches). Each op is named by its parameter prefix.


def _stem_forward(ops, name, x):
    return ops.bn(f"{name}.bn", ops.conv(f"{name}.conv", x, _STEM_GEOM))


def _normal_forward(ops, name, x):
    a1 = ops.rsign(f"{name}.rsign_conv3x3", x)
    b1 = ops.bn(f"{name}.bn_conv3x3", ops.binconv(f"{name}.conv3x3", a1, _GEOM_3X3))
    d1 = ops.rprelu(f"{name}.rprelu_conv3x3", b1 + x)
    a2 = ops.rsign(f"{name}.rsign_conv1x1", d1)
    b2 = ops.bn(f"{name}.bn_conv1x1", ops.binconv(f"{name}.conv1x1", a2, _GEOM_1X1))
    return ops.rprelu(f"{name}.rprelu_conv1x1", b2 + d1)


def _reduction_forward(ops, name, x, stride):
    _, _, h, w = x.shape
    if stride == 2 and (h % 2 or w % 2):
        x = np.pad(x, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)))
    a1 = ops.rsign(f"{name}.rsign_conv3x3", x)
    geom = _GEOM_3X3_S2 if stride == 2 else _GEOM_3X3
    b1 = ops.bn(f"{name}.bn_conv3x3", ops.binconv(f"{name}.conv3x3", a1, geom))
    shortcut = tensor_ops.avgpool_2x2(x) if stride == 2 else x
    d1 = ops.rprelu(f"{name}.rprelu_conv3x3", b1 + shortcut)
    a2 = ops.rsign(f"{name}.rsign_conv1x1", d1)
    ba = ops.bn(f"{name}.bn_conv1x1_a",
                ops.binconv(f"{name}.conv1x1_a", a2, _GEOM_1X1))
    bb = ops.bn(f"{name}.bn_conv1x1_b",
                ops.binconv(f"{name}.conv1x1_b", a2, _GEOM_1X1))
    cat = np.concatenate([ba + d1, bb + d1], axis=1)
    return ops.rprelu(f"{name}.rprelu_out", cat)


def _run(ops, spec: netspec.NetworkSpec, x: np.ndarray):
    """Forward pass on executor ``ops``: returns (head_output, features)."""
    h = np.asarray(x, dtype=np.float64)
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


@dataclass(frozen=True, eq=False)
class InferencePlan:
    """A backbone frozen for inference, as it is deployed.

    ``signs`` maps each binary conv's prefix to its +-1 weights as a float32
    [kh*kw*Ci, Co] matrix in im2col order (``tensor_ops.sign_matrix``) and
    its per-channel alpha; ``reals`` holds copies of every other parameter.
    All arrays are read-only. As an executor of the block wiring it runs the
    inference-mode ops of the training graph and keeps none of their caches.
    """

    spec: netspec.NetworkSpec
    weight_scaling: bool
    signs: MappingProxyType
    reals: MappingProxyType

    def conv(self, prefix, x, geom):
        return tensor_ops.conv2d_forward(x, self.reals[f"{prefix}.w"], geom)

    def rsign(self, prefix, x):
        return bitops.rsign_forward(x, self.reals[f"{prefix}.shift"])[0]

    def binconv(self, prefix, x, geom):
        w_mat, alpha = self.signs[prefix]
        y = tensor_ops.sign_conv2d(x, w_mat, geom, pad_value=-1)
        return y * alpha[None, :, None, None]

    def bn(self, prefix, x):
        return tensor_ops.batchnorm_forward(
            x, *(self.reals[f"{prefix}.{k}"] for k in _BN_KEYS), training=False)[0]

    def rprelu(self, prefix, x):
        return bitops.rprelu_forward(
            x, *(self.reals[f"{prefix}.{k}"] for k in _RPRELU_KEYS))[0]

    def linear(self, prefix, x):
        return tensor_ops.linear_forward(x, self.reals[f"{prefix}.w"])


def freeze(model: ModelState) -> InferencePlan:
    """Binarize and lay out a backbone's weights once, for inference.

    The plan computes exactly what the inference-mode training graph would
    (same bytes), without re-deriving sign(latent) and alpha per call. It
    copies what it keeps, so later writes to ``model`` do not reach it.
    """
    signs, reals = {}, {}
    for key, arr in model.params.items():
        if key.endswith(".w_latent"):
            w_sign, alpha = bitops.sign_weights(arr, model.weight_scaling)
            signs[key[:-len(".w_latent")]] = (
                _read_only(tensor_ops.sign_matrix(w_sign)), _read_only(alpha))
        else:
            reals[key] = _read_only(np.array(arr, dtype=np.float64))
    return InferencePlan(spec=model.spec, weight_scaling=model.weight_scaling,
                         signs=MappingProxyType(signs),
                         reals=MappingProxyType(reals))


def _plan_of(model) -> InferencePlan:
    """The plan to serve ``model`` from: itself if it is one, the plan a
    read-only state keeps, else a fresh freeze (kept if all is read-only)."""
    if isinstance(model, InferencePlan):
        return model
    arrays = tuple(model.params.values())
    read_only = not any(a.flags.writeable for a in arrays)
    if read_only and model._frozen is not None:
        plan, frozen = model._frozen
        if (plan.spec is model.spec and plan.weight_scaling == model.weight_scaling
                and len(frozen) == len(arrays)
                and all(a is b for a, b in zip(frozen, arrays))):
            return plan
    plan = freeze(model)
    if read_only:
        model._frozen = (plan, arrays)
    return plan


# --- training: the tape and the backward ---------------------------------------


class _Tape:
    """Training executor: float64 ops on the live params with batch-statistic
    BN. Each op records, under its parameter prefix, its backward: a closure
    over its cache, returning the input gradient and the gradients of the
    parameters it names. :meth:`back` runs each recorded backward once."""

    def __init__(self, params: dict, scaling: bool):
        self.params = params
        self.scaling = scaling
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
        w_sign, alpha = bitops.sign_weights(latent, weight_scaling=self.scaling)

        def op_backward(g):
            gx, gw = tensor_ops.conv2d_backward(g, x_sign, w_sign, geom, pad_value=-1,
                                                alpha=alpha)
            return gx, gw * bitops.ste_mask(latent)

        self.ops[prefix] = (("w_latent",), op_backward)
        y = tensor_ops.conv2d_forward(x_sign, w_sign, geom, pad_value=-1)
        return y * alpha[None, :, None, None]

    def bn(self, prefix, x):
        y, cache = tensor_ops.batchnorm_forward(
            x, *(self.params[f"{prefix}.{k}"] for k in _BN_KEYS), training=True)
        self.ops[prefix] = (("gamma", "beta"),
                            lambda g: tensor_ops.batchnorm_backward(g, cache))
        return y

    def rprelu(self, prefix, x):
        y, cache = bitops.rprelu_forward(
            x, *(self.params[f"{prefix}.{k}"] for k in _RPRELU_KEYS))
        self.ops[prefix] = (_RPRELU_KEYS, lambda g: bitops.rprelu_backward(g, cache))
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
    g_d1 = g_c2.copy()                                   # shortcut branch
    g_z2 = tape.back(f"{name}.bn_conv1x1", g_c2)
    g_a2 = tape.back(f"{name}.conv1x1", g_z2)
    g_d1 += tape.back(f"{name}.rsign_conv1x1", g_a2)

    g_c1 = tape.back(f"{name}.rprelu_conv3x3", g_d1)
    g_x = g_c1.copy()                                    # shortcut branch
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
        g_xp = g_c1.copy()
    g_z1 = tape.back(f"{name}.bn_conv3x3", g_c1)
    g_a1 = tape.back(f"{name}.conv3x3", g_z1)
    g_xp += tape.back(f"{name}.rsign_conv3x3", g_a1)
    _, h, w = step.in_shape                              # crop the pad ring
    return g_xp[:, :, :h, :w]


def forward(model, x: np.ndarray, training: bool = False):
    """Class logits [N, K]; requires a plan with an FC head.

    Returns (logits, tape). Training mode runs the float64 training graph:
    BN uses batch statistics (and updates the running estimates in place)
    and every op records its backward on the tape, which :func:`backward`
    consumes. Inference mode runs the frozen plan (see :func:`freeze`;
    ``model`` may be an InferencePlan), uses the stored running statistics,
    is batch-invariant, and returns tape None.
    """
    if not model.spec.has_fc_head():
        raise ValueError("plan has no fc_head; use features_forward")
    if not training:
        return _run(_plan_of(model), model.spec, x)[0], None
    tape = _Tape(model.params, model.weight_scaling)
    return _run(tape, model.spec, x)[0], tape


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
        dict keyed exactly like ``model.learnable_keys()``.
    """
    g = np.asarray(grad_out, dtype=np.float64)
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
    """Mean cross-entropy of a batch plus gradients for every learnable param."""
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
    after every step.
    """

    epochs: int = 120
    batch_size: int = 128
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    seed: int = 0
    augment: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
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


def evaluate(model, ds, batch_size: int = 256) -> float:
    """Top-1 accuracy over a dataset, computed in inference mode from one plan."""
    plan = _plan_of(model)
    correct = 0
    for xb, yb in data.batches(ds, batch_size, shuffle=False):
        logits, _ = forward(plan, xb, training=False)
        correct += int((np.argmax(logits, axis=1) == yb).sum())
    return correct / len(ds)


def train_stage1(model: ModelState, train_ds, val_ds,
                 hp: StageOneConfig) -> TrainResult:
    """SGD with momentum over epochs of shuffled minibatches.

    The momentum buffers are local to the call: they start at zero and are
    dropped on return, so a checkpoint is not a resume point. Tracks
    validation top-1 after every epoch and returns the state snapshot of
    the best epoch (ties keep the earlier one). A non-finite training loss
    aborts immediately — before the poisoned step is applied — and returns
    the best snapshot seen so far with ``aborted`` set and a diagnostic.
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
            if hp.augment:
                xb = data.augment_batch(xb, aug_rng)
            loss, grads = loss_and_grads(model, xb, yb)
            if not np.isfinite(loss):
                result.aborted = True
                result.abort_reason = (
                    f"non-finite training loss {loss} at epoch {epoch}, "
                    f"batch {seen // hp.batch_size}; returning best checkpoint "
                    f"from epoch {result.best_epoch}"
                )
                result.model = best
                return result
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
        model.epoch = epoch + 1
        val_top1 = evaluate(model, val_ds, batch_size=hp.batch_size)
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
    if ens.n_features is not None and ens.n_features != d:
        raise ValueError(
            f"ensemble expects {ens.n_features} features, backbone emits {d}"
        )
    feats = features_forward(model, x)
    margins = gbdt.predict_margins(ens, feats)
    z = margins - margins.max(axis=1, keepdims=True)
    ez = np.exp(z)
    scores = ez / ez.sum(axis=1, keepdims=True)
    return np.argmax(margins, axis=1), scores


# --- checkpoint format -------------------------------------------------------

CHECKPOINT_MAGIC = b"RXGBCKPT"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """Malformed checkpoint bytes."""


def checkpoint_bytes(model: ModelState) -> bytes:
    """Serialize the model's parameters deterministically (format v2).

    Layout (little-endian): magic, u32 version, u8 weight_scaling, u64 seed,
    u32 epoch, u32 plan length + plan JSON, u32 record count, then one record
    per parameter, sorted by name: u16 name length, name, u8 dtype length,
    numpy dtype string, u8 ndim, u32 per-dim extents, u64 payload bytes, raw
    C-order little-endian payload. No optimizer state is stored.
    """
    spec_json = json.dumps(
        netspec.spec_to_dict(model.spec), sort_keys=True, separators=(",", ":")
    ).encode()
    out = [
        CHECKPOINT_MAGIC,
        struct.pack("<IBQI", CHECKPOINT_VERSION, int(model.weight_scaling),
                    model.seed, model.epoch),
        struct.pack("<I", len(spec_json)),
        spec_json,
    ]
    params = model.params
    out.append(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        dt = le.dtype.str.encode()
        payload = le.tobytes()
        out.append(struct.pack("<H", len(name)))
        out.append(name.encode())
        out.append(struct.pack("<B", len(dt)))
        out.append(dt)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(struct.pack("<Q", len(payload)))
        out.append(payload)
    return b"".join(out)


class _Reader:
    def __init__(self, view: memoryview):
        self.view = view
        self.pos = 0

    def _advance(self, n: int) -> int:
        if self.pos + n > len(self.view):
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"{len(self.view) - self.pos} remain"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        at = self._advance(n)
        return bytes(self.view[at:at + n])

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def float64s(self, shape: tuple, nbytes: int) -> np.ndarray:
        """A read-only array viewing the next nbytes, no copy."""
        at = self._advance(nbytes)
        return np.frombuffer(self.view, dtype="<f8", count=nbytes // 8,
                             offset=at).reshape(shape)


def parse_checkpoint(blob: bytes) -> ModelState:
    """Inverse of :func:`checkpoint_bytes` (format v2); raises CheckpointError.

    The records must be exactly the parameters ``build_network(spec)``
    creates: the same names, shapes and dtype (float64). Any other version,
    v1 files with their momentum records included, is rejected. The arrays
    are read-only views of ``blob``, a read-only bytes-like object (a
    writable buffer is copied first), so the returned state is immutable:
    ``copy()`` it to train.
    """
    view = memoryview(blob).cast("B")
    if not view.readonly:
        view = memoryview(bytes(view))
    r = _Reader(view)
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic; expected {CHECKPOINT_MAGIC!r}")
    version, scaling, seed, epoch = r.unpack("<IBQI")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if scaling not in (0, 1):
        raise CheckpointError(f"weight_scaling flag {scaling} is not 0 or 1")
    (spec_len,) = r.unpack("<I")
    try:
        spec = netspec.spec_from_dict(json.loads(r.take(spec_len)))
        layout = {name: shape for name, shape, _, _ in _param_layout(spec)}
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as e:
        raise CheckpointError(f"bad plan: {e}") from e
    (n_records,) = r.unpack("<I")
    if n_records != len(layout):
        raise CheckpointError(
            f"{n_records} records; the plan has {len(layout)}")
    params = {}
    for _ in range(n_records):
        (name_len,) = r.unpack("<H")
        raw = r.take(name_len)
        try:
            name = raw.decode()
        except UnicodeDecodeError as e:
            raise CheckpointError(f"record name {raw!r} is not UTF-8") from e
        want = layout.pop(name, None)
        if want is None:
            raise CheckpointError(f"record {name!r} is not in the plan or repeats")
        (dt_len,) = r.unpack("<B")
        dt = r.take(dt_len)
        if dt != b"<f8":
            raise CheckpointError(f"record {name!r}: dtype {dt!r}, expected b'<f8'")
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        if shape != want:
            raise CheckpointError(f"record {name!r}: shape {shape} != {want}")
        (nbytes,) = r.unpack("<Q")
        if nbytes != 8 * int(np.prod(shape, dtype=np.int64)):
            raise CheckpointError(
                f"record {name!r}: payload {nbytes} bytes != shape {shape} x 8"
            )
        params[name] = r.float64s(shape, nbytes)
    if r.pos != len(view):
        raise CheckpointError(f"{len(view) - r.pos} trailing bytes")
    return ModelState(spec=spec, params=params, seed=seed, epoch=epoch,
                      weight_scaling=bool(scaling))


def save_checkpoint(model: ModelState, path) -> None:
    with data.atomic_open(path) as f:
        f.write(checkpoint_bytes(model))


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint file into an immutable state (see parse_checkpoint).

    The file is read into one numpy buffer, which the records then view:
    numpy's large allocations fault in cheaply (huge pages where the kernel
    allows), a fresh ``bytes`` of the file's size does not.
    """
    with open(path, "rb") as f:
        buf = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
        buf = buf[:f.readinto(buf)]
        buf.flags.writeable = False
        if f.read(1):
            raise CheckpointError(f"{path} grew while it was read")
    return parse_checkpoint(buf)


# --- deployment export -------------------------------------------------------


def deployed_payload(model: ModelState) -> bytes:
    """Pack the deployable parameters: 1 bit per binary weight, 32 per real.

    Layout: first every binary conv's sign bits (1 where the latent is
    >= 0) in layer order, each filter bank flattened [Co, Ci, kh, kw]
    row-major, the whole bit stream packed LSB-first and padded to a byte
    boundary; then the real-valued tensors as float32 little-endian in
    ``_param_layout`` order, each binary conv's per-channel alpha standing
    where its latent stands in that order.

    For plans whose binary-weight count is a multiple of 8 (all standard
    widths), the byte length equals the cost model's total_param_bits / 8.
    """
    bit_chunks = []
    f32_chunks = []
    for name, _, _, _ in _param_layout(model.spec):
        arr = model.params[name]
        if name.endswith(".w_latent"):
            w_sign, alpha = bitops.sign_weights(arr, model.weight_scaling)
            bit_chunks.append(w_sign.reshape(-1) > 0)
            f32_chunks.append(alpha.astype("<f4"))
        else:
            f32_chunks.append(np.ascontiguousarray(arr, dtype="<f4"))
    bits = np.concatenate(bit_chunks) if bit_chunks else np.zeros(0, dtype=bool)
    packed = np.packbits(bits, bitorder="little")
    reals = (np.concatenate([c.reshape(-1) for c in f32_chunks])
             if f32_chunks else np.zeros(0, dtype="<f4"))
    return packed.tobytes() + reals.tobytes()
