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
with real arithmetic on the effective weights alpha * sign(latent);
gradients reach the latents through the straight-through clip mask with
alpha held constant, and latents are clipped to [-1, 1] after every
optimizer step. Sign activations route gradients through the
piecewise-quadratic surrogate in ``bitops``.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field

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
    """All mutable state of a backbone: parameters, optimizer, position.

    ``params`` maps hierarchical names (e.g. ``block3.conv3x3.w_latent``) to
    float64 arrays and includes the BN running statistics; ``velocities``
    carries momentum buffers for exactly the learnable subset.
    """

    spec: netspec.NetworkSpec
    params: dict[str, np.ndarray]
    velocities: dict[str, np.ndarray]
    seed: int = 0
    epoch: int = 0
    weight_scaling: bool = True

    def learnable_keys(self) -> list[str]:
        """Parameter names updated by SGD, in creation order."""
        return [k for k in self.params if not k.endswith(("run_mean", "run_var"))]

    def copy(self) -> "ModelState":
        return ModelState(
            spec=self.spec,
            params={k: v.copy() for k, v in self.params.items()},
            velocities={k: v.copy() for k, v in self.velocities.items()},
            seed=self.seed,
            epoch=self.epoch,
            weight_scaling=self.weight_scaling,
        )


def _kaiming_uniform(rng: np.random.Generator, shape: tuple, fan_in: int):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _add_bn(params: dict, prefix: str, c: int) -> None:
    params[f"{prefix}.gamma"] = np.ones(c)
    params[f"{prefix}.beta"] = np.zeros(c)
    params[f"{prefix}.run_mean"] = np.zeros(c)
    params[f"{prefix}.run_var"] = np.ones(c)


def _add_rprelu(params: dict, prefix: str, c: int) -> None:
    params[f"{prefix}.beta"] = np.full(c, 0.25)
    params[f"{prefix}.gamma"] = np.zeros(c)
    params[f"{prefix}.zeta"] = np.zeros(c)


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
    params: dict[str, np.ndarray] = {}
    for layer in spec.layers:
        ci, co, name = layer.in_channels, layer.out_channels, layer.name
        if layer.kind == netspec.FIRST_CONV:
            params[f"{name}.conv.w"] = _kaiming_uniform(
                rng, (co, ci, 3, 3), ci * 9
            )
            _add_bn(params, f"{name}.bn", co)
        elif layer.kind == netspec.NORMAL:
            params[f"{name}.rsign_conv3x3.shift"] = np.zeros(ci)
            params[f"{name}.conv3x3.w_latent"] = _kaiming_uniform(
                rng, (ci, ci, 3, 3), ci * 9
            )
            _add_bn(params, f"{name}.bn_conv3x3", ci)
            _add_rprelu(params, f"{name}.rprelu_conv3x3", ci)
            params[f"{name}.rsign_conv1x1.shift"] = np.zeros(ci)
            params[f"{name}.conv1x1.w_latent"] = _kaiming_uniform(
                rng, (ci, ci, 1, 1), ci
            )
            _add_bn(params, f"{name}.bn_conv1x1", ci)
            _add_rprelu(params, f"{name}.rprelu_conv1x1", ci)
        elif layer.kind == netspec.REDUCTION:
            params[f"{name}.rsign_conv3x3.shift"] = np.zeros(ci)
            params[f"{name}.conv3x3.w_latent"] = _kaiming_uniform(
                rng, (ci, ci, 3, 3), ci * 9
            )
            _add_bn(params, f"{name}.bn_conv3x3", ci)
            _add_rprelu(params, f"{name}.rprelu_conv3x3", ci)
            params[f"{name}.rsign_conv1x1.shift"] = np.zeros(ci)
            params[f"{name}.conv1x1_a.w_latent"] = _kaiming_uniform(
                rng, (ci, ci, 1, 1), ci
            )
            params[f"{name}.conv1x1_b.w_latent"] = _kaiming_uniform(
                rng, (ci, ci, 1, 1), ci
            )
            _add_bn(params, f"{name}.bn_conv1x1_a", ci)
            _add_bn(params, f"{name}.bn_conv1x1_b", ci)
            _add_rprelu(params, f"{name}.rprelu_out", co)
        elif layer.kind == netspec.FC_HEAD:
            params[f"{name}.w"] = _kaiming_uniform(rng, (ci, co), ci)
        # global_pool has no parameters
    model = ModelState(spec=spec, params=params, velocities={}, seed=seed,
                       weight_scaling=weight_scaling)
    model.velocities = {k: np.zeros_like(params[k])
                        for k in model.learnable_keys()}
    return model


# --- forward / backward ----------------------------------------------------


def _binconv_forward(x_sign, latent, geom, scaling):
    w_sign, alpha = bitops.sign_weights(latent, weight_scaling=scaling)
    y = tensor_ops.conv2d_forward(x_sign, w_sign, geom, pad_value=-1)
    cache = {"x": x_sign, "latent": latent, "geom": geom, "scaling": scaling}
    return y * alpha[None, :, None, None], cache


def _binconv_backward(grad_y, cache):
    w_eff = bitops.effective_weights(cache["latent"], cache["scaling"])
    gx, gw = tensor_ops.conv2d_backward(
        grad_y, cache["x"], w_eff, cache["geom"], pad_value=-1.0
    )
    g_latent = gw * bitops.ste_mask(cache["latent"])
    return gx, g_latent


def _bn_forward(params, prefix, x, training):
    return tensor_ops.batchnorm_forward(
        x,
        params[f"{prefix}.gamma"],
        params[f"{prefix}.beta"],
        params[f"{prefix}.run_mean"],
        params[f"{prefix}.run_var"],
        training=training,
    )


def _rprelu_forward(params, prefix, x):
    return bitops.rprelu_forward(
        x,
        params[f"{prefix}.beta"],
        params[f"{prefix}.gamma"],
        params[f"{prefix}.zeta"],
    )


def _stem_forward(params, name, x, training):
    z = tensor_ops.conv2d_forward(x, params[f"{name}.conv.w"], _STEM_GEOM)
    y, bn_cache = _bn_forward(params, f"{name}.bn", z, training)
    return y, {"x": x, "bn": bn_cache}


def _stem_backward(params, name, cache, grad_y, grads):
    gz, dgamma, dbeta = tensor_ops.batchnorm_backward(grad_y, cache["bn"])
    grads[f"{name}.bn.gamma"] = dgamma
    grads[f"{name}.bn.beta"] = dbeta
    gx, gw = tensor_ops.conv2d_backward(
        gz, cache["x"], params[f"{name}.conv.w"], _STEM_GEOM
    )
    grads[f"{name}.conv.w"] = gw
    return gx


def _normal_forward(params, name, x, training, scaling):
    cache = {}
    a1, cache["rs1"] = bitops.rsign_forward(
        x, params[f"{name}.rsign_conv3x3.shift"]
    )
    z1, cache["cv1"] = _binconv_forward(
        a1, params[f"{name}.conv3x3.w_latent"], _GEOM_3X3, scaling
    )
    b1, cache["bn1"] = _bn_forward(params, f"{name}.bn_conv3x3", z1, training)
    d1, cache["rp1"] = _rprelu_forward(params, f"{name}.rprelu_conv3x3", b1 + x)
    a2, cache["rs2"] = bitops.rsign_forward(
        d1, params[f"{name}.rsign_conv1x1.shift"]
    )
    z2, cache["cv2"] = _binconv_forward(
        a2, params[f"{name}.conv1x1.w_latent"], _GEOM_1X1, scaling
    )
    b2, cache["bn2"] = _bn_forward(params, f"{name}.bn_conv1x1", z2, training)
    e, cache["rp2"] = _rprelu_forward(params, f"{name}.rprelu_conv1x1", b2 + d1)
    return e, cache


def _normal_backward(params, name, cache, grad_y, grads):
    g_c2, gb, gg, gz = bitops.rprelu_backward(grad_y, cache["rp2"])
    grads[f"{name}.rprelu_conv1x1.beta"] = gb
    grads[f"{name}.rprelu_conv1x1.gamma"] = gg
    grads[f"{name}.rprelu_conv1x1.zeta"] = gz
    g_d1 = g_c2.copy()                                   # shortcut branch
    g_z2, dgamma, dbeta = tensor_ops.batchnorm_backward(g_c2, cache["bn2"])
    grads[f"{name}.bn_conv1x1.gamma"] = dgamma
    grads[f"{name}.bn_conv1x1.beta"] = dbeta
    g_a2, grads[f"{name}.conv1x1.w_latent"] = _binconv_backward(
        g_z2, cache["cv2"]
    )
    g_d1_rs, grads[f"{name}.rsign_conv1x1.shift"] = bitops.rsign_backward(
        g_a2, cache["rs2"]
    )
    g_d1 += g_d1_rs

    g_c1, gb, gg, gz = bitops.rprelu_backward(g_d1, cache["rp1"])
    grads[f"{name}.rprelu_conv3x3.beta"] = gb
    grads[f"{name}.rprelu_conv3x3.gamma"] = gg
    grads[f"{name}.rprelu_conv3x3.zeta"] = gz
    g_x = g_c1.copy()                                    # shortcut branch
    g_z1, dgamma, dbeta = tensor_ops.batchnorm_backward(g_c1, cache["bn1"])
    grads[f"{name}.bn_conv3x3.gamma"] = dgamma
    grads[f"{name}.bn_conv3x3.beta"] = dbeta
    g_a1, grads[f"{name}.conv3x3.w_latent"] = _binconv_backward(
        g_z1, cache["cv1"]
    )
    g_x_rs, grads[f"{name}.rsign_conv3x3.shift"] = bitops.rsign_backward(
        g_a1, cache["rs1"]
    )
    g_x += g_x_rs
    return g_x


def _reduction_forward(params, name, x, stride, training, scaling):
    cache = {"in_shape": x.shape, "stride": stride}
    n, c, h, w = x.shape
    if stride == 2 and (h % 2 or w % 2):
        x = np.pad(x, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)))
    cache["padded_shape"] = x.shape

    a1, cache["rs1"] = bitops.rsign_forward(
        x, params[f"{name}.rsign_conv3x3.shift"]
    )
    geom = _GEOM_3X3_S2 if stride == 2 else _GEOM_3X3
    z1, cache["cv1"] = _binconv_forward(
        a1, params[f"{name}.conv3x3.w_latent"], geom, scaling
    )
    b1, cache["bn1"] = _bn_forward(params, f"{name}.bn_conv3x3", z1, training)
    shortcut = tensor_ops.avgpool_2x2(x) if stride == 2 else x
    d1, cache["rp1"] = _rprelu_forward(
        params, f"{name}.rprelu_conv3x3", b1 + shortcut
    )
    a2, cache["rs2"] = bitops.rsign_forward(
        d1, params[f"{name}.rsign_conv1x1.shift"]
    )
    za, cache["cva"] = _binconv_forward(
        a2, params[f"{name}.conv1x1_a.w_latent"], _GEOM_1X1, scaling
    )
    ba, cache["bna"] = _bn_forward(params, f"{name}.bn_conv1x1_a", za, training)
    zb, cache["cvb"] = _binconv_forward(
        a2, params[f"{name}.conv1x1_b.w_latent"], _GEOM_1X1, scaling
    )
    bb, cache["bnb"] = _bn_forward(params, f"{name}.bn_conv1x1_b", zb, training)
    cat = np.concatenate([ba + d1, bb + d1], axis=1)
    e, cache["rp2"] = _rprelu_forward(params, f"{name}.rprelu_out", cat)
    return e, cache


def _reduction_backward(params, name, cache, grad_y, grads):
    g_cat, gb, gg, gz = bitops.rprelu_backward(grad_y, cache["rp2"])
    grads[f"{name}.rprelu_out.beta"] = gb
    grads[f"{name}.rprelu_out.gamma"] = gg
    grads[f"{name}.rprelu_out.zeta"] = gz
    c = g_cat.shape[1] // 2
    g_ca, g_cb = g_cat[:, :c], g_cat[:, c:]
    g_d1 = g_ca + g_cb                                   # branch shortcuts

    g_za, dgamma, dbeta = tensor_ops.batchnorm_backward(g_ca, cache["bna"])
    grads[f"{name}.bn_conv1x1_a.gamma"] = dgamma
    grads[f"{name}.bn_conv1x1_a.beta"] = dbeta
    g_a2, grads[f"{name}.conv1x1_a.w_latent"] = _binconv_backward(
        g_za, cache["cva"]
    )
    g_zb, dgamma, dbeta = tensor_ops.batchnorm_backward(g_cb, cache["bnb"])
    grads[f"{name}.bn_conv1x1_b.gamma"] = dgamma
    grads[f"{name}.bn_conv1x1_b.beta"] = dbeta
    g_a2_b, grads[f"{name}.conv1x1_b.w_latent"] = _binconv_backward(
        g_zb, cache["cvb"]
    )
    g_a2 += g_a2_b
    g_d1_rs, grads[f"{name}.rsign_conv1x1.shift"] = bitops.rsign_backward(
        g_a2, cache["rs2"]
    )
    g_d1 += g_d1_rs

    g_c1, gb, gg, gz = bitops.rprelu_backward(g_d1, cache["rp1"])
    grads[f"{name}.rprelu_conv3x3.beta"] = gb
    grads[f"{name}.rprelu_conv3x3.gamma"] = gg
    grads[f"{name}.rprelu_conv3x3.zeta"] = gz
    stride = cache["stride"]
    if stride == 2:
        g_xp = tensor_ops.avgpool_2x2_backward(g_c1, cache["padded_shape"])
    else:
        g_xp = g_c1.copy()
    g_z1, dgamma, dbeta = tensor_ops.batchnorm_backward(g_c1, cache["bn1"])
    grads[f"{name}.bn_conv3x3.gamma"] = dgamma
    grads[f"{name}.bn_conv3x3.beta"] = dbeta
    g_a1, grads[f"{name}.conv3x3.w_latent"] = _binconv_backward(
        g_z1, cache["cv1"]
    )
    g_x_rs, grads[f"{name}.rsign_conv3x3.shift"] = bitops.rsign_backward(
        g_a1, cache["rs1"]
    )
    g_xp += g_x_rs
    _, _, h, w = cache["in_shape"]
    return g_xp[:, :, :h, :w]


def _run(model: ModelState, x: np.ndarray, training: bool):
    """Shared forward pass: returns (head_output, features, caches)."""
    spec = model.spec
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[1:] != spec.input_shape:
        raise ValueError(
            f"input shape {x.shape} incompatible with [N, "
            f"{', '.join(str(d) for d in spec.input_shape)}]"
        )
    h = x
    feats = None
    caches = []
    for layer in spec.layers:
        if layer.kind == netspec.FIRST_CONV:
            h, cache = _stem_forward(model.params, layer.name, h, training)
        elif layer.kind == netspec.NORMAL:
            h, cache = _normal_forward(
                model.params, layer.name, h, training, model.weight_scaling
            )
        elif layer.kind == netspec.REDUCTION:
            h, cache = _reduction_forward(
                model.params, layer.name, h, layer.stride, training,
                model.weight_scaling,
            )
        elif layer.kind == netspec.GLOBAL_POOL:
            cache = {"in_shape": h.shape}
            h = tensor_ops.avgpool_global(h)
            feats = h
        else:                                            # fc_head
            cache = {"feats": h}
            h = tensor_ops.linear_forward(h, model.params[f"{layer.name}.w"])
        caches.append((layer, cache))
    return h, feats, caches


def forward(model: ModelState, x: np.ndarray, training: bool = False):
    """Class logits [N, K]; requires a plan with an FC head.

    Returns (logits, caches); pass the caches to :func:`backward`. Training
    mode uses batch statistics in BN (and updates the running estimates),
    inference mode uses the stored running statistics and is therefore
    batch-invariant.
    """
    if not model.spec.has_fc_head():
        raise ValueError("plan has no fc_head; use features_forward")
    logits, _, caches = _run(model, x, training)
    return logits, caches


def features_forward(model: ModelState, x: np.ndarray) -> np.ndarray:
    """Pooled feature vectors [N, feature_dim] in inference mode."""
    _, feats, _ = _run(model, x, training=False)
    if feats is None:
        raise ValueError("plan has no global_pool layer")
    return feats


def backward(model: ModelState, caches, grad_out: np.ndarray):
    """Chain gradients from d(loss)/d(logits) back to every learnable param.

    Args:
        model: the state used for the forward pass.
        caches: second element of the :func:`forward` return.
        grad_out: [N, K] gradient at the head output.

    Returns:
        dict keyed exactly like ``model.learnable_keys()``.
    """
    grads: dict[str, np.ndarray] = {}
    g = np.asarray(grad_out, dtype=np.float64)
    for layer, cache in reversed(caches):
        if layer.kind == netspec.FC_HEAD:
            g, grads[f"{layer.name}.w"] = tensor_ops.linear_backward(
                g, cache["feats"], model.params[f"{layer.name}.w"]
            )
        elif layer.kind == netspec.GLOBAL_POOL:
            g = tensor_ops.avgpool_global_backward(g, cache["in_shape"])
        elif layer.kind == netspec.REDUCTION:
            g = _reduction_backward(model.params, layer.name, cache, g, grads)
        elif layer.kind == netspec.NORMAL:
            g = _normal_backward(model.params, layer.name, cache, g, grads)
        else:
            g = _stem_backward(model.params, layer.name, cache, g, grads)
    return grads


def loss_and_grads(model: ModelState, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of a batch plus gradients for every learnable param."""
    logits, caches = forward(model, x, training=True)
    loss, grad_logits = tensor_ops.softmax_cross_entropy(logits, labels)
    return loss, backward(model, caches, grad_logits)


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


def evaluate(model: ModelState, ds, batch_size: int = 256) -> float:
    """Top-1 accuracy over a dataset, computed in inference mode."""
    correct = 0
    for xb, yb in data.batches(ds, batch_size, shuffle=False):
        logits, _ = forward(model, xb, training=False)
        correct += int((np.argmax(logits, axis=1) == yb).sum())
    return correct / len(ds)


def train_stage1(model: ModelState, train_ds, val_ds,
                 hp: StageOneConfig) -> TrainResult:
    """SGD with momentum over epochs of shuffled minibatches.

    Tracks validation top-1 after every epoch and returns the state snapshot of
    the best epoch (ties keep the earlier one). A non-finite training loss
    aborts immediately — before the poisoned step is applied — and returns
    the best snapshot seen so far with ``aborted`` set and a diagnostic.
    """
    keys = model.learnable_keys()
    decay_mask = [k in _DECAYED_PARAMS for k in keys]
    latent_keys = [k for k in keys if k.endswith(".w_latent")]
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
                [model.velocities[k] for k in keys],
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


def extract_features(model: ModelState, ds, batch_size: int = 256):
    """Pooled features for a whole dataset in inference mode.

    Returns (features [N, D] float64, labels [N] int64) in dataset order.
    """
    chunks = []
    labels = []
    for xb, yb in data.batches(ds, batch_size, shuffle=False):
        chunks.append(features_forward(model, xb))
        labels.append(yb)
    d = model.spec.feature_dim
    if not chunks:
        return np.zeros((0, d)), np.zeros(0, dtype=np.int64)
    return np.concatenate(chunks), np.concatenate(labels)


def fc_logits(model: ModelState, feats: np.ndarray, batch_size: int = 256):
    """FC-head logits [N, K] of the pooled features [N, D] of extract_features.

    Applies the head once per ``batch_size`` rows, the batches the features
    were extracted in, so the logits equal :func:`forward`'s byte for byte: a
    single product over all rows may round differently in BLAS.
    """
    if not model.spec.has_fc_head():
        raise ValueError("plan has no fc_head; use a tree head on its features")
    w = model.params[f"{model.spec.layers[-1].name}.w"]
    return np.concatenate([tensor_ops.linear_forward(feats[s:s + batch_size], w)
                           for s in range(0, len(feats), batch_size)])


def infer_hybrid(model: ModelState, ens: gbdt.TreeEnsemble, x: np.ndarray):
    """End-to-end prediction: binary CNN features routed through the tree head.

    Args:
        model: trained backbone (the FC head, if present, is ignored).
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
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint bytes."""


def checkpoint_bytes(model: ModelState) -> bytes:
    """Serialize the full model state deterministically.

    Layout (little-endian): magic, u32 version, u8 weight_scaling, u64 seed,
    u32 epoch, u32 plan length + plan JSON, u32 record count, then records
    sorted by name: u16 name length, name, u8 dtype length, numpy dtype
    string, u8 ndim, u32 per-dim extents, u64 payload bytes, raw C-order
    little-endian payload. Parameters are stored under ``p:`` names and
    momentum buffers under ``v:``.
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
    records = {f"p:{k}": v for k, v in model.params.items()}
    records.update({f"v:{k}": v for k, v in model.velocities.items()})
    out.append(struct.pack("<I", len(records)))
    for name in sorted(records):
        arr = np.ascontiguousarray(records[name])
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
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"{len(self.blob) - self.pos} remain"
            )
        b = self.blob[self.pos:self.pos + n]
        self.pos += n
        return b

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def parse_checkpoint(blob: bytes) -> ModelState:
    """Inverse of :func:`checkpoint_bytes`; raises CheckpointError."""
    r = _Reader(blob)
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic; expected {CHECKPOINT_MAGIC!r}")
    version, scaling, seed, epoch = r.unpack("<IBQI")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (spec_len,) = r.unpack("<I")
    try:
        spec = netspec.spec_from_dict(json.loads(r.take(spec_len)))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"bad plan JSON: {e}") from e
    (n_records,) = r.unpack("<I")
    params: dict[str, np.ndarray] = {}
    velocities: dict[str, np.ndarray] = {}
    for _ in range(n_records):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode()
        (dt_len,) = r.unpack("<B")
        dt = np.dtype(r.take(dt_len).decode())
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        (nbytes,) = r.unpack("<Q")
        want = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        if nbytes != want:
            raise CheckpointError(
                f"record {name!r}: payload {nbytes} bytes != shape "
                f"{shape} x {dt.itemsize}"
            )
        arr = np.frombuffer(r.take(nbytes), dtype=dt).reshape(shape).copy()
        if name.startswith("p:"):
            params[name[2:]] = arr
        elif name.startswith("v:"):
            velocities[name[2:]] = arr
        else:
            raise CheckpointError(f"unknown record namespace in {name!r}")
    if r.pos != len(blob):
        raise CheckpointError(f"{len(blob) - r.pos} trailing bytes")
    model = ModelState(spec=spec, params=params, velocities=velocities,
                       seed=seed, epoch=epoch, weight_scaling=bool(scaling))
    missing = [k for k in model.learnable_keys() if k not in velocities]
    if missing:
        raise CheckpointError(f"missing velocity records for {missing[:3]}")
    return model


def save_checkpoint(model: ModelState, path) -> None:
    with data.atomic_open(path) as f:
        f.write(checkpoint_bytes(model))


def load_checkpoint(path) -> ModelState:
    with open(path, "rb") as f:
        return parse_checkpoint(f.read())


# --- deployment export -------------------------------------------------------


def _payload_walk(model: ModelState):
    """Yield ("bits", latent) and ("f32", array) items in deployment order."""
    p = model.params
    for layer in model.spec.layers:
        name, kind = layer.name, layer.kind
        if kind == netspec.FIRST_CONV:
            yield "f32", p[f"{name}.conv.w"]
            for k in _BN_KEYS:
                yield "f32", p[f"{name}.bn.{k}"]
        elif kind in (netspec.NORMAL, netspec.REDUCTION):
            convs = (["conv1x1"] if kind == netspec.NORMAL
                     else ["conv1x1_a", "conv1x1_b"])
            tail_rp = "rprelu_conv1x1" if kind == netspec.NORMAL else "rprelu_out"
            yield "f32", p[f"{name}.rsign_conv3x3.shift"]
            yield "bits", p[f"{name}.conv3x3.w_latent"]
            for k in _BN_KEYS:
                yield "f32", p[f"{name}.bn_conv3x3.{k}"]
            for k in _RPRELU_KEYS:
                yield "f32", p[f"{name}.rprelu_conv3x3.{k}"]
            yield "f32", p[f"{name}.rsign_conv1x1.shift"]
            for conv in convs:
                yield "bits", p[f"{name}.{conv}.w_latent"]
            for conv in convs:
                bn = f"bn_{conv}"
                for k in _BN_KEYS:
                    yield "f32", p[f"{name}.{bn}.{k}"]
            for k in _RPRELU_KEYS:
                yield "f32", p[f"{name}.{tail_rp}.{k}"]
        elif kind == netspec.FC_HEAD:
            yield "f32", p[f"{name}.w"]


def deployed_payload(model: ModelState) -> bytes:
    """Pack the deployable parameters: 1 bit per binary weight, 32 per real.

    Layout: first every binary conv's sign bits (1 where the latent is
    >= 0) in layer order, each filter bank flattened [Co, Ci, kh, kw]
    row-major, the whole bit stream packed LSB-first and padded to a byte
    boundary; then, per layer in order, the real-valued tensors as float32
    little-endian — each binary conv contributes its per-channel alpha
    immediately after its sign bits' position in the walk.

    For plans whose binary-weight count is a multiple of 8 (all standard
    widths), the byte length equals the cost model's total_param_bits / 8.
    """
    bit_chunks = []
    f32_chunks = []
    for kind, arr in _payload_walk(model):
        if kind == "bits":
            bit_chunks.append((arr.reshape(-1) >= 0).astype(np.uint8))
            _, alpha = bitops.binarize_weights(
                arr, weight_scaling=model.weight_scaling
            )
            f32_chunks.append(alpha.astype("<f4"))
        else:
            f32_chunks.append(np.ascontiguousarray(arr, dtype="<f4"))
    bits = (np.concatenate(bit_chunks) if bit_chunks
            else np.zeros(0, dtype=np.uint8))
    packed = np.packbits(bits, bitorder="little")
    reals = (np.concatenate([c.reshape(-1) for c in f32_chunks])
             if f32_chunks else np.zeros(0, dtype="<f4"))
    return packed.tobytes() + reals.tobytes()
