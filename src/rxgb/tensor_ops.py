"""Dense tensor ops: convolution, batch norm, pooling, loss, SGD.

All arrays are numpy ndarrays. Every op computes in the dtype of its
activation or gradient (:func:`_real_dtype`): float32 stays float32, and any
other dtype is promoted to float64. Weights, alpha and the batch-norm
parameters are cast to that dtype where they are used; batch norm's running
statistics and SGD's parameters and velocities keep their own dtype, the
float64 masters of training (Micikevicius et al., arXiv 1710.03740, keep
master weights in higher precision the same way). Stage-1 training feeds
float32 batches; the frozen plan computes its reals in float64. The one
exception is a convolution of a boolean input (the sign planes of a binary
conv, True for +1): it returns the exact integer sums, in float32. Batch
norm here is the training op, on batch statistics; the frozen inference
plan folds the running statistics into one scale and shift per channel
itself (``network.InferencePlan``).

Activations are indexed [N, C, H, W] and lie in NHWC memory: an NCHW view
whose ``transpose(0, 2, 3, 1)`` is C-contiguous, or a channel slice or
spatial crop of one. The conv products emit that memory, and every op here
keeps it: an elementwise result takes its operands' memory order, and the
pools and conv backward write NHWC. Conv weights are [Co, Ci, kh, kw].
Convolution output extent is floor((H + 2*pad - kh) / stride) + 1 per axis.
Inside a conv the padded input is NHWC ([N, Hp, Wp, Ci], :func:`_pad_input`),
so every im2col copy reads contiguous runs of Ci values.

Every per-channel sum over (N, H, W) (batch-norm statistics and gradients
here, the RPReLU and RSign parameter gradients in ``bitops``) goes through
:func:`_channel_sums`: the [N*H*W, C] rows in K_BLOCK-row blocks, each block
added row by row, then the block sums in order, so the order follows from
the shape alone on any layout, and a sum of M rows carries the rounding of
about K_BLOCK + M / K_BLOCK adds, not M. The global pool's mean adds the
(h, w) cells in memory order; the 2x2 pool adds each window in one written
order on any layout (:func:`avgpool_2x2`).

Determinism: products of real values (conv forward on float operands, both
conv backward products, the fully connected layer) go through
:func:`_matmul`, which splits the contraction axis into fixed K_BLOCK-wide
blocks, computes each block as one BLAS product and sums the partial products
left to right. The summation order is therefore fixed by the shapes alone,
and with each operand's memory order (see :func:`_matmul`) the bytes are, so
results are bit-identical across runs and BLAS thread counts. This rests on
one assumption: a BLAS product whose contraction is at most K_BLOCK long does
not depend on the thread count, in float64 (dgemm) and float32 (sgemm)
alike. That was measured on OpenBLAS 0.3.31 (1, 2 and 4 threads; for
float32 on every product of a training step, which the tests repeat), but
BLAS does not promise it; a single product over a longer contraction does
differ there (K = 784 at 1 vs 2 threads).

The conv backward follows the forward's rule (:func:`_interior_taps`): on a
batch of at least _SPLIT_MIN_IMAGES images where most (output, tap) pairs
read the pad ring (a 3x3 conv on a 2x2 grid), it makes both products per
output position and tap row over the taps that read the input, and adds the
ring to grad_w as pad_value times grad_y summed over images. Each of those
products is one :func:`_matmul` (grad_x's contracts over Co, grad_w's over
the batch) and the adds run in a fixed (position, tap row) order, so the
result is thread-invariant under the K_BLOCK assumption alone; its bytes
differ from the dense form's, which adds the taps in another order. Every
other conv takes the dense form: grad_w is one product over the whole patch
matrix, and grad_x one chunk of whole images at a time (:data:`_CHUNK_ROWS`
over the output grid), which bounds the product alive at once. The
chunk boundaries follow from the shapes alone and each chunk is one
:func:`_matmul`, so grad_x's thread invariance rests on the K_BLOCK
assumption alone. On OpenBLAS 0.3.31 (AVX-512 kernels) the chunks also
equal one whole-batch product to the byte, because its regular gemm kernel
computes an element independently of the rows computed with it; the tests
check that, and nothing relies on it. Another BLAS, or a column count of 4
mod 8 above 192, may round the row chunks differently from a single
product, and the result stays deterministic all the same. A binary conv's
backward takes the forward's boolean sign planes, which become int8 +/-1
in its padded copy, and its int8 filters; both reach the compute dtype
exactly, one K_BLOCK block at a time.

Products of +/-1 values need no such assumption. :func:`conv2d_forward` on
a boolean input multiplies by the transpose of the float32 rows of
:func:`filter_rows`: a plain float32 product whose every partial sum is an
integer below 2**24 in magnitude (|sum| <= 9 * Ci <= 4608 for sign
filters), so it is exact in any summation order, in any split into smaller
products and at any thread count by arithmetic; the conv refuses filters
whose sums could reach 2**24 (the XNOR identity of XNOR-Net, Rastegari et
al., arXiv 1603.05279).
The forward splits its product twice on that ground alone, with none of the
BLAS assumptions above: it makes and multiplies the patch matrix one chunk
of about _CHUNK_ROWS rows at a time, and where the pad ring dominates and
the batch has at least _SPLIT_MIN_IMAGES images it makes one product per
output position and tap row over the taps that read the input, adding the
ring as pad_value times the ring taps' filter sums. The threshold comes
from timings on one thread (OpenBLAS 0.3.31, 2-core x86_64 host): the
per-position products took 1.05-1.3x the dense product's time below 16
images, about 0.95x at 16, 0.63-0.86x at 32-64 and 0.46-0.59x at 128-256
(256 and 512 channels). The frozen plan runs a conv of at most
_POPCOUNT_MAX_ROWS patch rows as XNOR-popcount on packed sign words instead
(``bitops.xnor_conv2d``, on rows in :func:`filter_rows`' layout), which skips the
pad ring by the same tap ranges (:func:`_tap_ranges`) at any batch size,
with the same bytes: there the product would read a whole float32 matrix
for a few rows. Keeping the rows [Co, K] and multiplying by their transpose
costs the product nothing at large batches (a 1024 x 4608 x 512 product
took 21.4 ms on a C-order [K, Co] matrix and 21.7 ms on the transpose) but
about 0.3 ms more per call on a 9.4 MB matrix at a few hundred rows, about
2% of a batch-256 request on the interior-tap products; laying the rows out
takes a third of the time of the [K, Co] matrix at set-up.
Everything else is elementwise or a fixed-order numpy reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Width of the contraction blocks summed in a fixed order by _matmul.
K_BLOCK = 128
# Integers below this magnitude are exact in float32 (24-bit significand).
EXACT_F32 = 1 << 24
# Rows of one grad_x product chunk in conv2d_backward: bounds the product
# alive at once. The sign conv makes its patch matrix in chunks of
# about as many rows.
_CHUNK_ROWS = 2048
# Fewest images for which the sign conv makes one product per output
# position and tap row (see the module docstring for the timings).
_SPLIT_MIN_IMAGES = 128
# Most patch rows (N * OH * OW) for which the frozen plan runs a binary conv
# as XNOR-popcount on packed sign words (``bitops.xnor_conv2d``) rather than
# as conv2d_forward's float32 product, whose ±1 filters it then never reads.
# Timings of features_forward at width 0.5 on one thread (OpenBLAS 0.3.31,
# 2-core x86_64 host), min of 60 ms at batch 1 / 2 / 4 / 8, by threshold:
# none 4.48 / 5.31 / 6.35 / 8.95, 8 rows 1.55 / 2.17 / 6.35 / 8.92, 16 rows
# 1.47 / 2.18 / 3.30 / 9.00, 32 rows 1.47 / 2.11 / 3.29 / 5.54, 64 rows
# 1.45 / 2.12 / 3.20 / 5.59, 128 rows 1.46 / 2.14 / 3.17 / 5.52. Up to 32
# rows (the 4x4 grids of up to two images, the 2x2 grids of up to eight)
# popcount wins or ties; 64 and 128 rows, which add the 7x7 grids of one
# image and the 4x4 grids of four, gain at most 3% more and would lay out
# the 7x7 grids' filters at set-up too.
_POPCOUNT_MAX_ROWS = 32
# Batch norm's variance offset, in training and in the frozen plan's fold,
# and the weight of each batch's statistics in the running estimates.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# Elements of a parameter that sgd_step updates at once through its scratch
# buffer (256 KiB of float64). One step over the 7.1M width-0.5 masters
# (float32 grads, decay on the stem and FC) took, min of 9 in three rounds on
# one thread (2-core x86_64 host), in ms: 2**12 24.2-25.6, 2**13 20.9-22.5,
# 2**14 19.5-22.4, 2**15 18.9-20.9, 2**16 21.0-21.5, 2**17 22.3-23.1,
# 2**18 24.5-25.1, and 26.0-29.0 as whole-array expressions.
_SGD_CHUNK = 1 << 15


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


def _real_dtype(a) -> type:
    """The dtype an op computes in on the activation or gradient ``a``:
    float32 for float32, float64 for every other dtype."""
    return np.float32 if np.asarray(a).dtype == np.float32 else np.float64


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


def _pad_input(x: np.ndarray, pad: int, pad_value: float, dtype) -> np.ndarray:
    """x [N, Ci, H, W] as a new [N, H + 2*pad, W + 2*pad, Ci] array of dtype
    whose ring of width pad holds pad_value.

    On NHWC memory (every activation of the block wiring) the NHWC view of
    x is contiguous and is copied in once, cast on the way where dtype
    differs. Other input is transposed in x's dtype first and then cast
    contiguously, which is faster than casting through the strided
    transposed view. A boolean x (a binary conv's sign planes) reads +1
    where True and -1 where False; it becomes int8 signs first, which with
    the cast takes less time than any float32 arithmetic on the buffer. Its
    pad_value must be an integer in [-128, 127], which the backward's int8
    copy holds; ValueError otherwise, in both conv directions
    (:func:`_sign_pad`).
    """
    if x.dtype == bool:
        _sign_pad(pad_value)
    n, ci, h, w = x.shape
    xp = np.empty((n, h + 2 * pad, w + 2 * pad, ci), dtype)
    xp[:, :pad] = xp[:, h + pad:] = pad_value
    xp[:, :, :pad] = xp[:, :, w + pad:] = pad_value
    nhwc = x.transpose(0, 2, 3, 1)
    if x.dtype == bool:
        nhwc = nhwc.view(np.int8) * np.int8(2)
        nhwc -= 1
    elif x.dtype != dtype:
        nhwc = np.ascontiguousarray(nhwc)
    xp[:, pad:h + pad, pad:w + pad] = nhwc
    return xp


def _sign_pad(pad_value) -> int:
    """pad_value of a sign plane's pad ring as an int; ValueError unless it
    is an integer in [-128, 127], which the backward's int8 copy holds."""
    if pad_value not in range(-128, 128):
        raise ValueError(f"sign planes need an integer pad_value in [-128, 127], "
                         f"got {pad_value}")
    return int(pad_value)


def _im2col(xp: np.ndarray, geom: ConvGeometry) -> np.ndarray:
    """Patch matrix [N*OH*OW, kh*kw*Ci] from a padded NHWC input.

    The reduction axis is ordered (kh, kw, ci): kernel-major, then input
    channel, matching filter_rows, so each tap copies a contiguous run of
    Ci values. Thread invariance does not come from this layout but from
    _matmul's fixed K_BLOCK-wide blocks.
    """
    kh, kw = geom.kernel
    s = geom.stride
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::s, ::s]                               # [N, OH, OW, Ci, kh, kw]
    n, oh, ow, ci = win.shape[:4]
    cols = win.transpose(0, 1, 2, 4, 5, 3)               # [N, OH, OW, kh, kw, Ci]
    return np.ascontiguousarray(cols).reshape(n * oh * ow, kh * kw * ci)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d a [M, K] and b [K, N], reduced in fixed K blocks.

    The contraction is cut into K_BLOCK-wide blocks, each block is one BLAS
    product, and the partial products are added left to right, so the order
    of the blocks depends only on K and not on how BLAS blocks or threads a
    long reduction. When K <= K_BLOCK this is exactly ``a @ b``.

    The bytes follow from the shapes and from each operand's memory order,
    not from the shapes alone: BLAS packs a transposed operand with another
    kernel, and an F-order b (the transpose of a C-order matrix) gave other
    last bits than a C-order copy of the same values. The byte contract
    assumes the layouts the callers pass, each fixed per call site: a is
    row-major (the im2col matrix, NHWC gradient rows, a product's result) or,
    in grad_w's products, the transpose of row-major rows; b is row-major
    (the im2col matrix, a filter-row slice, a linear weight) or the
    transpose of a C-order matrix (:func:`filter_rows` in the forwards, the
    [kh*kw*Ci, Co] filter matrix in :func:`_col2im`, a linear weight in its
    backward). A change to an operand's memory order may change the bytes.

    The product computes in a's dtype, float32 or float64. b may have an
    integer dtype (the int8 im2col of a binary conv): each row block is
    converted to a's dtype just before its product, exactly, so the result
    equals the product of the converted b and b is never built whole.
    """
    k = a.shape[1]
    if b.shape[0] != k:
        raise ValueError(f"contraction mismatch: {a.shape} @ {b.shape}")

    def rows(k0):
        return b[k0:k0 + K_BLOCK].astype(a.dtype, copy=False)

    if k <= K_BLOCK:
        return a @ rows(0)
    out = a[:, :K_BLOCK] @ rows(0)
    part = np.empty_like(out)
    for k0 in range(K_BLOCK, k, K_BLOCK):
        np.matmul(a[:, k0:k0 + K_BLOCK], rows(k0), out=part)
        out += part
    return out


def _channel_sums(x: np.ndarray) -> np.ndarray:
    """Per-channel sums of x [N, C, H, W] over (N, H, W), in an order fixed by
    the shape alone: the [N*H*W, C] rows of x's NHWC view (copied unless x
    is NHWC memory) in K_BLOCK-row blocks, each block summed row by row, then
    the block sums added left to right, the remainder block last."""
    c = x.shape[1]
    rows = x.transpose(0, 2, 3, 1).reshape(-1, c)
    full = len(rows) - len(rows) % K_BLOCK
    total = rows[:full].reshape(-1, K_BLOCK, c).sum(axis=1).sum(axis=0)
    if full < len(rows):
        total += rows[full:].sum(axis=0)
    return total


def _abs_max(a: np.ndarray) -> int:
    """The least integer at or above max |a|, as a Python int, so the int8
    value -128 does not wrap."""
    return max(math.ceil(a.max()), -math.floor(a.min())) if a.size else 0


def filter_rows(w: np.ndarray) -> np.ndarray:
    """Filters [Co, Ci, kh, kw] as rows [Co, kh*kw*Ci] in the im2col reduction
    order, in w's dtype: the one layout of conv filters. Both forwards
    multiply by their transpose, the frozen plan packs them per tap
    (``bitops.xnor_filters``) and the conv backward multiplies by them.
    Filters that are a view of such rows (``bitops.sign_weights``, the
    plan's ``filters``) come back without a copy."""
    return np.ascontiguousarray(w.transpose(0, 2, 3, 1)).reshape(w.shape[0], -1)


def _sign_conv2d(x, w, geom, pad_value):
    """conv2d_forward on boolean x: one exact float32 product by the
    transpose of w's float32 :func:`filter_rows`."""
    n, ci, h, wd = x.shape
    kh, kw = geom.kernel
    oh, ow = geom.out_extent(h, wd)
    pad = _sign_pad(pad_value)                # before the bound reads it
    rows = filter_rows(w)                     # contiguous: reduces faster than w
    bound = rows.shape[1] * _abs_max(rows) * max(1, abs(pad))
    if bound >= EXACT_F32:
        raise ValueError(f"sign conv sums reach K*max|w|*max(1, |pad_value|) = "
                         f"{bound}, not exact in float32 (limit 2**24)")
    w_rows = rows.astype(np.float32, copy=False)
    xp = _pad_input(x, geom.padding, pad_value, np.float32)
    taps = _interior_taps(geom, n, h, wd)
    if taps:
        return _sign_conv_interior(xp, w_rows, geom, pad, *taps).transpose(0, 3, 1, 2)
    co = w_rows.shape[0]
    y = np.empty((n, oh, ow, co), np.float32)
    # A 1x1 stride-1 patch matrix is xp itself; any other is made and
    # multiplied one chunk of about _CHUNK_ROWS rows at a time, so it is
    # written to memory that is still in cache.
    step = max(1, n if (kh, kw, geom.stride) == (1, 1, 1) else _CHUNK_ROWS // (oh * ow))
    for n0 in range(0, n, step):
        np.matmul(_im2col(xp[n0:n0 + step], geom), w_rows.T,
                  out=y[n0:n0 + step].reshape(-1, co))
    return y.transpose(0, 3, 1, 2)


def _sign_conv_interior(xp, w_rows, geom, pad_value, rows, cols):
    """The sign conv over the taps that read the input (``_interior_taps``
    ranges): per output position and tap row, one product over that row's
    interior tap columns, read in place from xp [N, Hp, Wp, Ci], plus
    pad_value times the filter sums of the position's ring taps. Every
    partial sum is an integer below 2**24, so the result equals the dense
    product to the byte. Returns [N, OH, OW, Co]."""
    kh, kw = geom.kernel
    s = geom.stride
    n, ci, co = xp.shape[0], xp.shape[3], w_rows.shape[0]
    # one float32 product sums each tap's Ci integers exactly, in a third of
    # the time of the equal sum(axis=3)
    tap_sums = (w_rows.reshape(-1, ci) @ np.ones(ci, np.float32)).reshape(co, kh, kw)
    all_taps = tap_sums.sum(axis=(1, 2))
    y = np.zeros((n, len(rows), len(cols), co), np.float32)
    for a, ti in enumerate(rows):
        for b, tj in enumerate(cols):
            out = y[:, a, b]
            for i in ti if tj else ():
                patch = xp[:, a * s + i, b * s + tj.start:b * s + tj.stop].reshape(n, -1)
                out += patch @ w_rows[:, (i * kw + tj.start) * ci:(i * kw + tj.stop) * ci].T
            if pad_value:
                interior = tap_sums[:, ti.start:ti.stop, tj.start:tj.stop].sum(axis=(1, 2))
                out += pad_value * (all_taps - interior)
    return y


def conv2d_forward(
    x: np.ndarray,
    w: np.ndarray,
    geom: ConvGeometry,
    pad_value: float = 0.0,
) -> np.ndarray:
    """2-d cross-correlation (no bias).

    Args:
        x: input [N, Ci, H, W]; boolean for the sign planes of a binary conv,
            read as +1 where True and -1 where False.
        w: filters [Co, Ci, kh, kw].
        geom: stride/padding/kernel description; geom.kernel must match w.
        pad_value: value of the padding ring (0 for real inputs, -1 for
            sign planes).

    Returns:
        Output [N, Co, H', W'], an NCHW view of NHWC memory. On a boolean x
        it is float32 holding the exact integer sums: w holds integers
        (training's int8 signs from ``bitops.sign_weights``, or the frozen
        plan's float32 view of its filter rows; :func:`filter_rows` takes
        either without a copy), pad_value must be an integer in [-128, 127],
        and ValueError if a sum could reach 2**24 (K * max|w| * max(1, |pad_value|)).
        Otherwise it is in x's :func:`_real_dtype` from :func:`_matmul`, w
        cast to that dtype.
    """
    _check_conv_shapes(x, w, geom)
    if x.dtype == bool:
        return _sign_conv2d(x, w, geom, pad_value)
    n, _, h, wd = x.shape
    oh, ow = geom.out_extent(h, wd)
    dtype = _real_dtype(x)
    xp = _pad_input(x, geom.padding, pad_value, dtype)
    y = _matmul(_im2col(xp, geom), filter_rows(np.asarray(w, dtype=dtype)).T)
    return y.reshape(n, oh, ow, w.shape[0]).transpose(0, 3, 1, 2)


def conv2d_backward(
    grad_y: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    geom: ConvGeometry,
    pad_value: float = 0.0,
    alpha: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward w.r.t. input and weights.

    Args:
        grad_y: upstream gradient [N, Co, H', W'].
        x, w, geom, pad_value: exactly as passed to the forward call.
        alpha: optional per-output-channel scale [Co]; the filters are then
            ``alpha[co] * w``. A binary conv passes its forward's boolean
            sign planes and int8 sign filters with its alpha: the planes
            become int8 +/-1 in the padded copy, whose patches reach the
            compute dtype one K_BLOCK row block at a time inside
            :func:`_matmul`, and the filters are the forward's filter rows
            (:func:`filter_rows`, no copy for the signs of
            ``bitops.sign_weights``).

    Returns:
        (grad_x [N, Ci, H, W], grad_w [Co, Ci, kh, kw]) in grad_y's
        :func:`_real_dtype`, grad_w w.r.t. the (scaled) filters; a float x,
        w and alpha are cast to that dtype. grad_x is an NCHW view of NHWC
        memory, the layout the products emit, with no per-tap transpose.

    The padding ring receives no gradient: pad cells are constants, not
    inputs. Both forms read the padded copy of x (:func:`_pad_input`). Where
    the forward's rule holds (:func:`_interior_taps`) both products run over
    the taps that read the input (:func:`_conv_backward_interior`), into an
    unpadded buffer; grad_x's products scale grad_y's columns by alpha and
    multiply by the filter rows. Elsewhere grad_w is one product over the
    patch matrix and grad_x is made one chunk of whole images at a time
    (:func:`_col2im`) by the filter matrix alpha * w, made once. Both forms
    are the same at any BLAS thread count under the K_BLOCK assumption
    alone, and they add in different orders, so their bytes differ (see the
    module docstring).
    """
    _check_conv_shapes(x, w, geom)
    dtype = _real_dtype(grad_y)
    grad_y = np.asarray(grad_y, dtype=dtype)
    n, ci, h, wd = x.shape
    co = w.shape[0]
    kh, kw = geom.kernel
    p = geom.padding
    oh, ow = geom.out_extent(h, wd)
    if grad_y.shape != (n, co, oh, ow):
        raise ValueError(
            f"grad_y shape {grad_y.shape} != expected {(n, co, oh, ow)}"
        )
    if alpha is not None and np.shape(alpha) != (co,):
        raise ValueError(f"alpha shape {np.shape(alpha)} != ({co},)")

    # A view of NHWC memory, channel slices included, reaches BLAS uncopied;
    # other memory (NCHW, or one image's column-major NCHW) is copied to
    # NHWC, the layout both forms multiply.
    gy = grad_y.transpose(0, 2, 3, 1)                     # [N, OH, OW, Co]
    if gy.strides[3] != gy.itemsize:
        gy = np.ascontiguousarray(gy)
    scale = 1.0 if alpha is None else np.asarray(alpha, dtype=dtype)
    xp = _pad_input(x, p, pad_value, np.int8 if x.dtype == bool else dtype)
    taps = _interior_taps(geom, n, h, wd)
    if taps:
        gx, gw = _conv_backward_interior(gy, xp, filter_rows(w).astype(dtype), scale,
                                         geom, pad_value, *taps)
    else:
        gy = gy.reshape(-1, co)
        gw = _matmul(gy.T, _im2col(xp, geom)).reshape(co, kh, kw, ci)
        gx = np.zeros(xp.shape, dtype)
        w_mat = np.multiply(filter_rows(w).T, scale, dtype=dtype,
                            order="C")                    # [kh*kw*Ci, Co]
        _col2im(gx, gy, w_mat, geom, oh, ow)
        if p:
            gx = gx[:, p:-p, p:-p, :]
    return gx.transpose(0, 3, 1, 2), np.ascontiguousarray(gw.transpose(0, 3, 1, 2))


def _tap_ranges(geom: ConvGeometry, h: int, w: int):
    """Per output row and per output column, the range of kernel taps that
    read the input rather than the pad ring, as (rows, cols) lists of
    ranges; a range is empty where every tap reads the ring."""
    (kh, kw), s, p = geom.kernel, geom.stride, geom.padding
    oh, ow = geom.out_extent(h, w)
    rows, cols = ([range(max(0, p - o * s), min(k, e + p - o * s)) for o in range(out)]
                  for out, k, e in ((oh, kh, h), (ow, kw, w)))
    return rows, cols


def _interior_taps(geom: ConvGeometry, n: int, h: int, w: int):
    """The rule both conv directions follow: the :func:`_tap_ranges` of the
    conv, or None unless the batch has at least _SPLIT_MIN_IMAGES images and
    more than half of the (output, tap) pairs read the ring (a 3x3 conv on a
    2x2 grid). The frozen plan's XNOR kernel skips the ring at any batch
    (``bitops.xnor_filters``)."""
    if n < _SPLIT_MIN_IMAGES:
        return None
    rows, cols = _tap_ranges(geom, h, w)
    kh, kw = geom.kernel
    if 2 * sum(map(len, rows)) * sum(map(len, cols)) < len(rows) * len(cols) * kh * kw:
        return rows, cols
    return None


def _conv_backward_interior(gy, xp, w_rows, scale, geom, pad_value, rows, cols):
    """Both conv backward products over the taps that read the input
    (``_interior_taps`` ranges), from gy [N, OH, OW, Co], the padded NHWC
    input xp [N, Hp, Wp, Ci] (:func:`_pad_input`; int8 or of gy's dtype),
    the filter rows w_rows [Co, kh*kw*Ci] (:func:`filter_rows`) and the
    per-filter scale (alpha [Co], or 1.0), all in gy's dtype.

    Per output position (a, b), in row-major order, and per interior tap row
    i: grad_x adds (gy[:, a, b] * scale) @ the row's filter columns into the
    input cells the row reads, and grad_w adds gy[:, a, b].T @ x_patch into
    the row's taps. Each product is one :func:`_matmul`. Then every tap gets
    pad_value times the sum over the positions where it reads the ring, in
    row-major order, of the position's gy summed over images (in image
    order). Returns (grad_x [N, H, W, Ci], grad_w [Co, kh, kw, Ci]).
    """
    kh, kw = geom.kernel
    s, p = geom.stride, geom.padding
    n, hp, wp, ci = xp.shape
    co = w_rows.shape[0]
    gx = np.zeros((n, hp - 2 * p, wp - 2 * p, ci), gy.dtype)
    gw = np.zeros((co, kh, kw, ci), gy.dtype)
    ring = np.zeros((co, kh, kw), gy.dtype)
    g_sums = gy.sum(axis=0)                               # [OH, OW, Co]
    for a, ti in enumerate(rows):
        for b, tj in enumerate(cols):
            g = gy[:, a, b]                               # [N, Co]
            g_scaled = g * scale
            c0, c1 = b * s + tj.start, b * s + tj.stop    # columns of xp
            for i in ti if tj else ():
                r = a * s + i                             # row of xp
                w_cols = w_rows[:, (i * kw + tj.start) * ci:(i * kw + tj.stop) * ci]
                gx[:, r - p, c0 - p:c1 - p] += _matmul(g_scaled, w_cols).reshape(n, -1, ci)
                gw[:, i, tj.start:tj.stop] += _matmul(
                    g.T, xp[:, r, c0:c1].reshape(n, -1)).reshape(co, -1, ci)
            reads_ring = np.ones((kh, kw), bool)
            reads_ring[ti.start:ti.stop, tj.start:tj.stop] = False
            ring[:, reads_ring] += g_sums[a, b, :, None]
    if pad_value:
        gw += pad_value * ring[..., None]
    return gx, gw


def _col2im(gxp, gy, w_mat, geom, oh, ow):
    """Add gy @ w_mat.T into gxp [N, Hp, Wp, Ci], each tap as a strided slice
    in (i, j) order, one chunk of _CHUNK_ROWS // (oh * ow) whole images at a
    time, the last chunk taking the remainder."""
    kh, kw = geom.kernel
    s = geom.stride
    n, ci = gxp.shape[0], gxp.shape[3]
    per_image = oh * ow
    step = max(1, _CHUNK_ROWS // per_image)
    starts = range(0, max(n - step, 0) + 1, step)
    for n0, n1 in zip(starts, [*starts[1:], n]):
        gcols = _matmul(gy[n0 * per_image:n1 * per_image], w_mat.T)
        gcols = gcols.reshape(-1, oh, ow, kh, kw, ci)
        dst = gxp[n0:n1]
        for i in range(kh):
            for j in range(kw):
                dst[:, i:i + s * oh:s, j:j + s * ow:s, :] += gcols[:, :, :, i, j, :]


def linear_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Fully connected layer without bias: x [N, D] times w [D, K] -> [N, K],
    in x's :func:`_real_dtype`."""
    dtype = _real_dtype(x)
    return _matmul(np.asarray(x, dtype=dtype), np.asarray(w, dtype=dtype))


def linear_backward(
    grad_y: np.ndarray, x: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of linear_forward w.r.t. input and weights.

    Returns:
        (grad_x [N, D], grad_w [D, K]) in grad_y's :func:`_real_dtype`.
    """
    dtype = _real_dtype(grad_y)
    grad_y, x, w = (np.asarray(a, dtype=dtype) for a in (grad_y, x, w))
    return _matmul(grad_y, w.T), _matmul(x.T, grad_y)


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Per-channel batch normalization over (N, H, W) with batch statistics,
    as training runs it; updates running_mean / running_var in place:
        running <- (1 - BN_MOMENTUM) * running + BN_MOMENTUM * batch,
    and normalizes by sqrt(var + BN_EPS).
    Inference does not come here: the frozen plan folds the running
    statistics into one scale and shift per channel (``network.InferencePlan``).

    It computes in x's :func:`_real_dtype`, gamma and beta cast to it; the
    running statistics stay in their own dtype (float64 in a model). ``out``,
    if given, is an array of x's shape and compute dtype that receives the
    normalized x (the cache's ``xhat``); pass x itself to consume it. With
    out=x the values and the layout equal the fresh array's, since a fresh
    ufunc result takes x's memory order.

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
    if x.shape[0] == 0:
        raise ValueError("batchnorm requires a non-empty batch")
    x = np.asarray(x, dtype=_real_dtype(x))
    gamma, beta = (np.asarray(a, dtype=x.dtype) for a in (gamma, beta))
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean = _channel_sums(x) / m
    xhat = np.subtract(x, mean[None, :, None, None], out=out)
    y = np.multiply(xhat, xhat)                          # squares; y's buffer
    var = _channel_sums(y) / m                           # biased
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mean
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std[None, :, None, None]
    np.multiply(xhat, gamma[None, :, None, None], out=y)
    y += beta[None, :, None, None]
    cache = {"xhat": xhat, "gamma": gamma, "inv_std": inv_std, "m": m}
    return y, cache


def batchnorm_backward(
    grad_y: np.ndarray, cache: dict, grad_sums: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batchnorm_forward w.r.t. x, gamma, beta.

    Works in two buffers made by ufuncs of grad_y: one holds the summed
    products, and grad_y * gamma becomes dx, a fresh array in grad_y's
    memory layout. grad_y is only read, so a caller may add into it once
    this returns. Channel sums go through :func:`_channel_sums`, whose order
    does not depend on either layout. It computes in grad_y's
    :func:`_real_dtype`, the forward's. ``grad_sums``, if given, is
    ``_channel_sums(grad_y)``, which is dbeta: the block backwards hand in
    the sum the RPReLU after the batch norm took of the same gradient (its
    grad_gamma negated, ``bitops.rprelu_backward``), or that sum's slice for
    a channel slice, so it is not taken twice.
    """
    xhat = cache["xhat"]
    gamma = cache["gamma"]
    inv_std = cache["inv_std"]
    m = cache["m"]
    grad_y = np.asarray(grad_y, dtype=_real_dtype(grad_y))
    buf = np.multiply(grad_y, xhat)
    dgamma = _channel_sums(buf)
    dbeta = _channel_sums(grad_y) if grad_sums is None else grad_sums
    dxhat = np.multiply(grad_y, gamma[None, :, None, None])
    s1 = _channel_sums(dxhat)[None, :, None, None]
    s2 = _channel_sums(np.multiply(dxhat, xhat, out=buf))[None, :, None, None]
    dx = dxhat                                           # m * dxhat - s1 - xhat * s2
    dx *= m
    dx -= s1
    dx -= np.multiply(xhat, s2, out=buf)
    dx *= inv_std[None, :, None, None] / m
    return dx, dgamma, dbeta


def avgpool_global(x: np.ndarray) -> np.ndarray:
    """Spatial mean: [N, C, H, W] -> [N, C] in x's :func:`_real_dtype`; each
    channel's sum adds the (h, w) cells in x's memory order (row by row in
    NHWC memory)."""
    if x.ndim != 4:
        raise ValueError(f"global pool input must be 4-d NCHW, got ndim={x.ndim}")
    return np.asarray(x, dtype=_real_dtype(x)).mean(axis=(2, 3))


def avgpool_global_backward(grad_y: np.ndarray, in_shape: tuple) -> np.ndarray:
    """Gradient of avgpool_global: grad_y [N, C] / (H * W) spread over every
    cell, as an [N, C, H, W] view of NHWC memory."""
    n, c, h, w = in_shape
    g = np.asarray(grad_y, dtype=_real_dtype(grad_y)) / (h * w)
    gx = np.broadcast_to(g[:, None, None, :], (n, h, w, c)).copy()
    return gx.transpose(0, 3, 1, 2)


def avgpool_2x2(x: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 mean pool; H and W must be even.

    Each window [[x00, x01], [x10, x11]] is summed as (x00 + x01) + (x10 + x11)
    on the four strided quarter views of x and then divided by 4, so the bytes
    do not depend on x's layout; the result takes x's memory order (NHWC in,
    NHWC out) and its :func:`_real_dtype`.
    """
    if x.ndim != 4:
        raise ValueError(f"2x2 pool input must be 4-d NCHW, got ndim={x.ndim}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"2x2 pool needs even spatial extent, got {(h, w)}")
    x = np.asarray(x, dtype=_real_dtype(x))
    y = np.add(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2])
    y += np.add(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2])
    y /= 4
    return y


def avgpool_2x2_backward(grad_y: np.ndarray, in_shape: tuple) -> np.ndarray:
    """Gradient of avgpool_2x2: each grad_y / 4 copied to its window's four
    cells, as an [N, C, H, W] view of NHWC memory."""
    n, c, h, w = in_shape
    g = np.asarray(grad_y, dtype=_real_dtype(grad_y)) / 4.0
    gx = np.empty((n, h // 2, 2, w // 2, 2, c), g.dtype)
    gx[...] = g.transpose(0, 2, 3, 1)[:, :, None, :, None, :]
    return gx.reshape(n, h, w, c).transpose(0, 3, 1, 2)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. logits.

    Args:
        logits: [N, K] real scores.
        labels: [N] integer class ids in [0, K).

    Returns:
        (loss, grad) with grad[i] = (softmax(logits[i]) - onehot(labels[i])) / N,
        computed in the logits' :func:`_real_dtype`.
    """
    logits = np.asarray(logits, dtype=_real_dtype(logits))
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
    (mask None means decay applies to all). params and velocities are the
    float64 masters of training, C-contiguous, and are written through flat
    views, _SGD_CHUNK elements at a time, with one scratch buffer t per call:
        v *= momentum; v += g; t = wd * p; v += t; t = lr * v; p -= t
    Each element sees the operations of the whole-array formula in its
    order, so the bytes are its bytes, and no temporary of a parameter's size
    is made. A param or velocity that is not C-contiguous float64 raises
    ValueError, before any parameter is updated, rather than being updated
    through a copy. A grad may be float32 (added into its float64 velocity)
    and of any layout; one that is not C-contiguous is read in C order a
    chunk at a time.
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
        if not all(a.dtype == np.float64 and a.flags.c_contiguous for a in (p, v)):
            raise ValueError(f"param {i}: params and velocities must be "
                             f"C-contiguous float64 arrays")
    scratch = np.empty(_SGD_CHUNK)
    for i, (p, g, v) in enumerate(zip(params, grads, velocities)):
        wd = weight_decay if (decay_mask is None or decay_mask[i]) else 0.0
        p_flat, v_flat = p.reshape(-1), v.reshape(-1)
        g_flat = g.reshape(-1) if g.flags.c_contiguous else g.flat
        for s in range(0, p.size, _SGD_CHUNK):
            pc, vc = p_flat[s:s + _SGD_CHUNK], v_flat[s:s + _SGD_CHUNK]
            t = scratch[:len(pc)]
            vc *= momentum
            vc += g_flat[s:s + _SGD_CHUNK]
            if wd:
                vc += np.multiply(pc, wd, out=t)
            pc -= np.multiply(vc, lr, out=t)
