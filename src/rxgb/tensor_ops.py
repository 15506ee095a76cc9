"""Dense NCHW tensor ops: convolution, batch norm, pooling, loss, SGD.

All arrays are numpy ndarrays. Training math runs in float64; inference may
feed float32 inputs but every op promotes to float64 internally so results are
identical either way. The one exception is a convolution whose input and
filters both have an integer dtype (the int8 {-1,+1} planes of a binary
conv): it returns the exact integer sums, in float32.

Layout is NCHW for activations and [Co, Ci, kh, kw] for conv weights.
Convolution output extent is floor((H + 2*pad - kh) / stride) + 1 per axis.

Determinism: products of real values (conv forward on float operands, both
conv backward products, the fully connected layer) go through
:func:`_matmul`, which splits the contraction axis into fixed K_BLOCK-wide
blocks, computes each block as one BLAS product and sums the partial products
left to right. The summation order is therefore fixed by the shapes alone, so
results are bit-identical across runs and BLAS thread counts. This rests on
one assumption: a BLAS product whose contraction is at most K_BLOCK long does
not depend on the thread count. That was measured on OpenBLAS 0.3.31 (1, 2
and 4 threads), but BLAS does not promise it; a single product over a longer
contraction does differ there (K = 784 at 1 vs 2 threads).

Products of +/-1 values need no such assumption. A convolution of integer
operands (:func:`sign_conv2d`, on filters laid out once by :func:`sign_matrix`)
is one plain float32 product whose every partial sum is an integer below
2**24 in magnitude (|sum| <= 9 * Ci <= 4608 for sign planes), so it is exact
in any summation order and at any thread count by arithmetic; the conv
refuses operands whose sums could reach 2**24 (the XNOR identity of
XNOR-Net, Rastegari et al., arXiv 1603.05279). Everything else is
elementwise or a fixed-order numpy reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Width of the contraction blocks summed in a fixed order by _matmul.
K_BLOCK = 128
# Integers below this magnitude are exact in float32 (24-bit significand).
EXACT_F32 = 1 << 24


@dataclass(frozen=True)
class ConvGeometry:
    """Static shape parameters of a 2-d convolution.

    Attributes:
        kernel: (kh, kw) filter extent.
        stride: step between output positions, shared by both axes.
        padding: symmetric zero/pad-value ring width, shared by both axes.
    """

    kernel: tuple[int, int]
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        kh, kw = self.kernel
        if kh < 1 or kw < 1:
            raise ValueError(f"kernel must be positive, got {self.kernel}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")

    def out_extent(self, h: int, w: int) -> tuple[int, int]:
        """Output (H', W') for an input of spatial extent (h, w)."""
        kh, kw = self.kernel
        oh = (h + 2 * self.padding - kh) // self.stride + 1
        ow = (w + 2 * self.padding - kw) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(
                f"kernel {self.kernel} with stride {self.stride} and padding "
                f"{self.padding} does not fit input extent {(h, w)}"
            )
        return oh, ow


def _check_conv_shapes(x: np.ndarray, w: np.ndarray, geom: ConvGeometry) -> None:
    if x.ndim != 4:
        raise ValueError(f"conv input must be 4-d NCHW, got ndim={x.ndim}")
    if w.ndim != 4:
        raise ValueError(f"conv weight must be 4-d [Co,Ci,kh,kw], got ndim={w.ndim}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(
            f"input channels {x.shape[1]} != weight input channels {w.shape[1]}"
        )
    if (w.shape[2], w.shape[3]) != geom.kernel:
        raise ValueError(
            f"weight kernel {(w.shape[2], w.shape[3])} != geometry kernel {geom.kernel}"
        )


def _pad_input(x: np.ndarray, pad: int, pad_value: float) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(
        x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
        mode="constant", constant_values=pad_value,
    )


def _im2col(xp: np.ndarray, geom: ConvGeometry) -> np.ndarray:
    """Patch matrix [N*OH*OW, kh*kw*Ci] from a padded input.

    The reduction axis is ordered (kh, kw, ci): kernel-major, then input
    channel, matching _weight_matrix. Thread invariance does not come from
    this layout but from _matmul's fixed K_BLOCK-wide blocks.
    """
    kh, kw = geom.kernel
    s = geom.stride
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::s, ::s, :, :]                      # [N, Ci, OH, OW, kh, kw]
    n, ci, oh, ow = win.shape[:4]
    cols = win.transpose(0, 2, 3, 4, 5, 1)               # [N, OH, OW, kh, kw, Ci]
    return np.ascontiguousarray(cols).reshape(n * oh * ow, kh * kw * ci)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d a [M, K] and b [K, N], reduced in fixed K blocks.

    The contraction is cut into K_BLOCK-wide blocks, each block is one BLAS
    product, and the partial products are added left to right, so the
    summation order depends only on K and not on how BLAS blocks or threads
    a long reduction. When K <= K_BLOCK this is exactly ``a @ b``.
    """
    k = a.shape[1]
    if b.shape[0] != k:
        raise ValueError(f"contraction mismatch: {a.shape} @ {b.shape}")
    if k <= K_BLOCK:
        return a @ b
    out = a[:, :K_BLOCK] @ b[:K_BLOCK]
    part = np.empty_like(out)
    for k0 in range(K_BLOCK, k, K_BLOCK):
        np.matmul(a[:, k0:k0 + K_BLOCK], b[k0:k0 + K_BLOCK], out=part)
        out += part
    return out


def _weight_matrix(w: np.ndarray) -> np.ndarray:
    """Weights as [kh*kw*Ci, Co], matching the im2col reduction layout."""
    co = w.shape[0]
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(-1, co)


def _abs_max(a: np.ndarray) -> int:
    """max |a| as a Python int, so the int8 value -128 does not wrap."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def sign_matrix(w: np.ndarray) -> np.ndarray:
    """Integer filters [Co, Ci, kh, kw] as the float32 [kh*kw*Ci, Co] matrix
    :func:`sign_conv2d` multiplies by, in the im2col reduction order."""
    return _weight_matrix(w).astype(np.float32)


def sign_conv2d(
    x: np.ndarray,
    w_mat: np.ndarray,
    geom: ConvGeometry,
    pad_value: float = -1,
    w_max: int = 1,
) -> np.ndarray:
    """Cross-correlation of integer operands as one exact float32 product.

    Args:
        x: integer input [N, Ci, H, W] (the int8 sign planes of a binary conv).
        w_mat: integer-valued float32 filters [kh*kw*Ci, Co] from
            :func:`sign_matrix`.
        geom: stride/padding/kernel description.
        pad_value: integer value of the padding ring.
        w_max: bound on |w_mat|; 1 for sign filters.

    Returns:
        Output [N, Co, H', W'] float32 holding the exact integer sums, an
        NCHW view of NHWC memory.

    Raises:
        ValueError: on a non-integer input or pad_value, or when a partial sum
            could reach 2**24 (K * max|x| * w_max), where float32 stops being
            exact.
    """
    return _sign_conv2d(x, w_mat, geom, pad_value, w_max)


def _sign_conv2d(x, w_mat, geom, pad_value, w_max):
    # conv2d_forward lays out its filters and calls this directly, not the
    # public sign_matrix / sign_conv2d, so a traced binary conv keeps its
    # layout and gemm in the conv2d_forward span.
    if x.ndim != 4 or not np.issubdtype(x.dtype, np.integer):
        raise ValueError(f"sign conv input must be 4-d integer NCHW, got "
                         f"{x.dtype} ndim={x.ndim}")
    n, ci, h, wd = x.shape
    kh, kw = geom.kernel
    k = kh * kw * ci
    if w_mat.ndim != 2 or w_mat.shape[0] != k:
        raise ValueError(f"filter matrix {w_mat.shape} != [{k}, Co] for Ci={ci} "
                         f"and kernel {geom.kernel}")
    oh, ow = geom.out_extent(h, wd)
    pad = int(pad_value)
    if pad != pad_value:
        raise ValueError(f"integer operands need an integer pad_value, got {pad_value}")
    x_max = max(_abs_max(x), abs(pad) if geom.padding else 0)
    if k * x_max * w_max >= EXACT_F32:
        raise ValueError(
            f"integer conv sums reach K*max|x|*max|w| = {k}*{x_max}*{w_max} "
            f"= {k * x_max * w_max}, not exact in float32 (limit 2**24)"
        )
    cols = _im2col(_pad_input(x, geom.padding, pad), geom).astype(np.float32)
    return (cols @ w_mat).reshape(n, oh, ow, w_mat.shape[1]).transpose(0, 3, 1, 2)


def conv2d_forward(
    x: np.ndarray,
    w: np.ndarray,
    geom: ConvGeometry,
    pad_value: float = 0.0,
) -> np.ndarray:
    """2-d cross-correlation (no bias).

    Args:
        x: input [N, Ci, H, W].
        w: filters [Co, Ci, kh, kw].
        geom: stride/padding/kernel description; geom.kernel must match w.
        pad_value: value of the padding ring (0 for real inputs, -1 for
            binarized planes).

    Returns:
        Output [N, Co, H', W']. When x and w both have an integer dtype (the
        int8 sign planes of a binary conv) it is float32 holding the exact
        integer sums from :func:`sign_conv2d`, and pad_value must be an
        integer; ValueError if the sums could reach 2**24. Otherwise it is
        float64 from :func:`_matmul`.
    """
    _check_conv_shapes(x, w, geom)
    if np.issubdtype(x.dtype, np.integer) and np.issubdtype(w.dtype, np.integer):
        return _sign_conv2d(x, _weight_matrix(w).astype(np.float32), geom,
                            pad_value, _abs_max(w))
    n, _, h, wd = x.shape
    oh, ow = geom.out_extent(h, wd)
    xp = _pad_input(np.asarray(x, dtype=np.float64), geom.padding, pad_value)
    y = _matmul(_im2col(xp, geom), _weight_matrix(np.asarray(w, dtype=np.float64)))
    return y.reshape(n, oh, ow, w.shape[0]).transpose(0, 3, 1, 2)


def conv2d_backward(
    grad_y: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    geom: ConvGeometry,
    pad_value: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward w.r.t. input and weights.

    Args:
        grad_y: upstream gradient [N, Co, H', W'].
        x, w, geom, pad_value: exactly as passed to the forward call.

    Returns:
        (grad_x [N, Ci, H, W], grad_w [Co, Ci, kh, kw]). grad_x is an NCHW
        view of NHWC memory: col2im adds the taps into an [N, Hp, Wp, Ci]
        buffer, in the layout the products emit, with no per-tap transpose.

    The padding ring receives gradient too, but it is discarded: pad cells
    are constants, not inputs.
    """
    _check_conv_shapes(x, w, geom)
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    grad_y = np.asarray(grad_y, dtype=np.float64)
    n, ci, h, wd = x.shape
    co = w.shape[0]
    kh, kw = geom.kernel
    s, p = geom.stride, geom.padding
    oh, ow = geom.out_extent(h, wd)
    if grad_y.shape != (n, co, oh, ow):
        raise ValueError(
            f"grad_y shape {grad_y.shape} != expected {(n, co, oh, ow)}"
        )

    gy = np.ascontiguousarray(grad_y.transpose(0, 2, 3, 1)).reshape(-1, co)

    xp = _pad_input(x, p, pad_value)
    cols = _im2col(xp, geom)
    gw = _matmul(gy.T, cols).reshape(co, kh, kw, ci).transpose(0, 3, 1, 2)

    gcols = _matmul(gy, _weight_matrix(w).T)              # [N*OH*OW, kh*kw*Ci]
    gcols = gcols.reshape(n, oh, ow, kh, kw, ci)
    gxp = np.zeros((n, xp.shape[2], xp.shape[3], ci))
    for i in range(kh):                                   # scatter-add col2im
        for j in range(kw):
            gxp[:, i:i + s * oh:s, j:j + s * ow:s, :] += gcols[:, :, :, i, j, :]
    if p:
        gxp = gxp[:, p:-p, p:-p, :]
    return gxp.transpose(0, 3, 1, 2), np.ascontiguousarray(gw)


def linear_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Fully connected layer without bias: x [N, D] times w [D, K] -> [N, K]."""
    return _matmul(np.asarray(x, dtype=np.float64), np.asarray(w, dtype=np.float64))


def linear_backward(
    grad_y: np.ndarray, x: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of linear_forward w.r.t. input and weights.

    Returns:
        (grad_x [N, D], grad_w [D, K]).
    """
    grad_y = np.asarray(grad_y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return _matmul(grad_y, w.T), _matmul(x.T, grad_y)


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float = 0.1,
    eps: float = 1e-5,
    training: bool = True,
) -> tuple[np.ndarray, dict]:
    """Per-channel batch normalization over (N, H, W).

    In training mode normalizes with batch statistics and updates
    running_mean / running_var in place:
        running <- (1 - momentum) * running + momentum * batch.
    In inference mode normalizes with the running statistics, making the op
    batch-invariant.

    Returns:
        (y, cache) where cache feeds batchnorm_backward.
    """
    if x.ndim != 4:
        raise ValueError(f"batchnorm input must be 4-d NCHW, got ndim={x.ndim}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(
            f"gamma/beta must have shape ({c},), got {gamma.shape}/{beta.shape}"
        )
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        if x.shape[0] == 0:
            raise ValueError("batchnorm requires a non-empty batch in training mode")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))                      # biased, matches backward
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    cache = {"xhat": xhat, "gamma": gamma, "inv_std": inv_std, "m": m,
             "training": training}
    return y, cache


def batchnorm_backward(
    grad_y: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batchnorm_forward (training mode) w.r.t. x, gamma, beta."""
    xhat = cache["xhat"]
    gamma = cache["gamma"]
    inv_std = cache["inv_std"]
    m = cache["m"]
    grad_y = np.asarray(grad_y, dtype=np.float64)
    dgamma = np.sum(grad_y * xhat, axis=(0, 2, 3))
    dbeta = np.sum(grad_y, axis=(0, 2, 3))
    if not cache["training"]:
        dx = grad_y * (gamma * inv_std)[None, :, None, None]
        return dx, dgamma, dbeta
    dxhat = grad_y * gamma[None, :, None, None]
    s1 = np.sum(dxhat, axis=(0, 2, 3))[None, :, None, None]
    s2 = np.sum(dxhat * xhat, axis=(0, 2, 3))[None, :, None, None]
    dx = (inv_std[None, :, None, None] / m) * (m * dxhat - s1 - xhat * s2)
    return dx, dgamma, dbeta


def avgpool_global(x: np.ndarray) -> np.ndarray:
    """Spatial mean: [N, C, H, W] -> [N, C]."""
    if x.ndim != 4:
        raise ValueError(f"global pool input must be 4-d NCHW, got ndim={x.ndim}")
    return np.asarray(x, dtype=np.float64).mean(axis=(2, 3))


def avgpool_global_backward(grad_y: np.ndarray, in_shape: tuple) -> np.ndarray:
    n, c, h, w = in_shape
    g = np.asarray(grad_y, dtype=np.float64) / (h * w)
    return np.broadcast_to(g[:, :, None, None], in_shape).copy()


def avgpool_2x2(x: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 mean pool; H and W must be even."""
    if x.ndim != 4:
        raise ValueError(f"2x2 pool input must be 4-d NCHW, got ndim={x.ndim}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"2x2 pool needs even spatial extent, got {(h, w)}")
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def avgpool_2x2_backward(grad_y: np.ndarray, in_shape: tuple) -> np.ndarray:
    n, c, h, w = in_shape
    g = np.asarray(grad_y, dtype=np.float64) / 4.0
    return np.repeat(np.repeat(g, 2, axis=2), 2, axis=3)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. logits.

    Args:
        logits: [N, K] real scores.
        labels: [N] integer class ids in [0, K).

    Returns:
        (loss, grad) with grad[i] = (softmax(logits[i]) - onehot(labels[i])) / N.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-d [N,K], got ndim={logits.ndim}")
    n, k = logits.shape
    if n == 0:
        raise ValueError("softmax_cross_entropy requires a non-empty batch")
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(
            f"labels must lie in [0, {k}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    logp = z[rows, labels] - np.log(ez.sum(axis=1))
    loss = float(-logp.mean())
    grad = p.copy()
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def sgd_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    velocities: list[np.ndarray],
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    decay_mask: list[bool] | None = None,
) -> None:
    """One SGD step with classic momentum, updating params in place.

    For each parameter:
        v <- momentum * v + grad + wd * param
        param <- param - lr * v
    where wd is weight_decay when the parameter's decay_mask entry is True
    (mask None means decay applies to all).
    """
    if not (len(params) == len(grads) == len(velocities)):
        raise ValueError(
            f"params/grads/velocities lengths differ: "
            f"{len(params)}/{len(grads)}/{len(velocities)}"
        )
    if decay_mask is not None and len(decay_mask) != len(params):
        raise ValueError(
            f"decay_mask length {len(decay_mask)} != params length {len(params)}"
        )
    for i, (p, g, v) in enumerate(zip(params, grads, velocities)):
        if p.shape != g.shape or p.shape != v.shape:
            raise ValueError(
                f"param {i}: shape mismatch param {p.shape} grad {g.shape} "
                f"velocity {v.shape}"
            )
        wd = weight_decay if (decay_mask is None or decay_mask[i]) else 0.0
        v *= momentum
        v += g
        if wd:
            v += wd * p
        p -= lr * v
