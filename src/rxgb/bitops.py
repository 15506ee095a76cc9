"""1-bit compute: packed sign words, the XNOR-popcount binary conv, weight
binarization, and the shifted sign / shifted PReLU activations.

Encoding: sign(0) is +1 everywhere. A sign activation is a boolean plane,
True for +1, in both executors: :func:`rsign_forward` returns the compare
:func:`sign_bits` that the frozen plan's RSign makes. Training's sign
filters are int8 {-1,+1} (:func:`sign_weights`). A bit value of 1 means +1
and 0 means -1: each row of K booleans is packed LSB-first into
little-endian uint64 words (:func:`pack_rows`, word_bits = 64); the pad
bits past K are zero.

The XNOR identity for K-length {-1,+1} vectors packed with zero pad bits:
    dot(a, b) = K - 2 * popcount(a XOR b),
since each mismatched position adds -1 instead of +1 and the pad bits of
both operands XOR to zero (XNOR-Net, Rastegari et al., arXiv 1603.05279).

There is one binary conv kernel, :func:`xnor_conv2d`. Activations and
filters are packed per pixel and per tap: ceil(Ci/64) words each, so a patch
row is a gather of whole words. It XORs each output position's interior taps
only, those that read the input, and adds a constant per position and filter
for the pad ring's taps, where the input reads -1: the ring costs no XOR at
any batch size (:func:`xnor_filters` builds the words and constants once).
It gives exact integer sums as float32, the bytes of
``tensor_ops.conv2d_forward`` on the same planes. The frozen plan runs it
for convs of at most ``tensor_ops._POPCOUNT_MAX_ROWS`` patch rows, where it
reads 1 bit per weight instead of a float32 (``network.InferencePlan``), on
the RSign compare packed straight into words, and scales the sums by alpha
in the batch norm it folds. :func:`sign_weights` binarizes latent weights
into the int8 signs and per-output-channel alpha of training, by the rule
the payload encodes.

Activation gradients use the piecewise surrogate

    approxsign(u) = -1          u < -1
                    u^2 + 2u    -1 <= u < 0
                    2u - u^2    0 <= u < 1
                    1           u >= 1

whose derivative (2+2u on [-1,0), 2-2u on [0,1), else 0) replaces the true
zero-almost-everywhere derivative of sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import _channel_sums, _real_dtype, _tap_ranges

WORD_BITS = 64
# uint64 words XORed at once by xnor_conv2d (at least one image of one tap
# count): keeps its XOR words (512 KiB) and their counts in cache. Features
# at width 0.5 took 2.05-2.06 / 3.27-3.30 / 5.55-5.58 ms at batch 2 / 4 / 8
# with 2**15 or 2**16 words, 2.10-2.12 / 3.33-3.34 / 5.67-5.75 ms with 2**14
# or 2**17 to 2**20 (min of 60, one thread, 2-core x86_64 host); batch 1
# took 1.45 ms with any of them, since one image is at most 2**16 words.
_CHUNK_WORDS = 1 << 16
# Latent elements whose |w| weight_alpha holds at once (256 KiB). The 24
# width-0.5 latents took 8.3 ms with 2**15 or 2**16, 8.6-8.7 ms with 2**14 or
# 2**17, 10-12 ms with 2**12, 2**13 or 2**18, and 11.3 ms as one np.abs
# temporary per latent (min of 9, one thread, 2-core x86_64 host).
_ALPHA_CHUNK = 1 << 15


def sign_bits(x: np.ndarray, order: str = "K") -> np.ndarray:
    """sign(x) with sign(0) = +1 as booleans, True for +1, in x's memory
    order, or in C order of x's shape with order="C"."""
    return np.greater_equal(x, 0, order=order)      # a tenth of np.where's time


def weight_alpha(w_latent: np.ndarray, *, abs_max: bool = False):
    """alpha[co] = mean(|w_latent[co]|) of latents [Co, Ci, kh, kw], XNOR-Net's scale.

    |w| is taken a chunk of about _ALPHA_CHUNK elements of whole filters at
    a time, in one reused buffer rather than a temporary of the latent's
    size. Each filter's sum is numpy's pairwise sum over its contiguous row,
    as in ``np.abs(w).mean(axis=(1, 2, 3))``, whose bytes this gives. With
    abs_max, returns (alpha, max|w_latent|), the max taken over the same
    chunks while they are in cache: NaN if any latent is NaN, 0.0 for an
    empty latent. Training's straight-through mask reads it; the payload
    encoder does not ask for it."""
    w = np.asarray(w_latent, dtype=np.float64)
    co, k = w.shape[0], int(np.prod(w.shape[1:]))
    rows = w.reshape(co, k)
    step = max(1, _ALPHA_CHUNK // max(k, 1))
    buf = np.empty((min(step, co), k))
    sums = np.empty(co)
    peak = 0.0
    for r0 in range(0, co, step):
        chunk = rows[r0:r0 + step]
        a = np.abs(chunk, out=buf[:len(chunk)])
        a.sum(axis=1, out=sums[r0:r0 + step])
        if abs_max:
            peak = np.maximum(peak, a.max(initial=0.0))    # NaN propagates
    return (sums / k, float(peak)) if abs_max else sums / k


def sign_weights(w_latent: np.ndarray, *, abs_max: bool = False):
    """Binarize latent conv weights [Co, Ci, kh, kw]: (int8 sign(w_latent),
    :func:`weight_alpha`), and with abs_max a third value, max|w_latent|
    from the alpha pass (see weight_alpha). The signs are an [Co, Ci, kh, kw]
    view of [Co, kh, kw, Ci] memory, the filter rows of
    ``tensor_ops.filter_rows``, which then takes them without a copy: the
    training forward casts those rows to float32 and its backward scales the
    same rows by alpha, with no transpose in either. The deployed payload
    takes the same two functions."""
    w_latent = np.asarray(w_latent, dtype=np.float64)
    rows = sign_bits(w_latent.transpose(0, 2, 3, 1), order="C").view(np.int8)
    rows *= 2
    rows -= 1
    alpha = weight_alpha(w_latent, abs_max=abs_max)
    signs = rows.transpose(0, 3, 1, 2)
    return (signs, *alpha) if abs_max else (signs, alpha)


def ste_mask(w_latent: np.ndarray) -> np.ndarray:
    """Straight-through clip indicator 1{|w| <= 1} as float64."""
    return (np.abs(w_latent) <= 1.0).astype(np.float64)


def pack_rows(signs: np.ndarray) -> np.ndarray:
    """Boolean rows [R, K] (True for +1) as [R, ceil(K/64)] uint64 rows: bit
    1 for +1, LSB-first, the pad bits past K zero."""
    r, k = signs.shape
    n_words = -(-k // WORD_BITS)
    packed = np.packbits(signs, axis=1, bitorder="little")  # [R, ceil(K/8)] bytes
    if packed.shape[1] != n_words * 8:
        padded = np.zeros((r, n_words * 8), np.uint8)
        padded[:, :packed.shape[1]] = packed
        packed = padded
    return packed.view("<u8").reshape(r, n_words)


@dataclass(frozen=True, eq=False)
class XnorFilters:
    """A binary conv's filters laid out for :func:`xnor_conv2d` on one input
    extent, as :func:`xnor_filters` builds them.

    ``in_shape`` is (Ci, H, W) and ``out_shape`` (Co, OH, OW). ``groups``
    holds, per count T of interior taps (the taps of an output position that
    read the input, ``tensor_ops._tap_ranges``), a tuple (positions,
    pixels, words, offset): the flat output positions [P] with T interior
    taps; the flat input pixels [P, T] their taps read, in tap order; those
    taps' filter words [P, T * ceil(Ci/64), Co], or [1, ...] when all P
    positions have the same taps; and the float32 offset [P, Co], T * Ci
    less the filter sums of the position's ring taps, where the input reads
    -1. The words put Co last, so that the XOR of a position's patch row
    against them runs along Co for each word of the row. All arrays are
    read-only.
    """

    in_shape: tuple
    out_shape: tuple
    groups: tuple


def xnor_filters(rows: np.ndarray, geom, h: int, w: int) -> XnorFilters:
    """The :class:`XnorFilters` of boolean sign filter rows [Co, K] (True for
    +1) in im2col order (``tensor_ops.filter_rows``, K = kh*kw*Ci) for an
    [Ci, h, w] input under ``geom`` (tensor_ops.ConvGeometry), whose pad
    ring reads -1. Each tap's Ci signs are packed into its own words."""
    co, k = rows.shape
    kh, kw = geom.kernel
    if k % (kh * kw):
        raise ValueError(f"filter rows of {k} signs do not fit a {kh}x{kw} kernel")
    ci = k // (kh * kw)
    n_words = -(-ci // WORD_BITS)
    taps = pack_rows(rows.reshape(-1, ci)).reshape(co, kh * kw, n_words)
    tap_sums = 2 * np.bitwise_count(taps).sum(axis=2, dtype=np.int64) - ci  # [Co, taps]
    ring_all = tap_sums.sum(axis=1)
    rows_in, cols_in = _tap_ranges(geom, h, w)
    s, p = geom.stride, geom.padding
    by_count: dict[int, list] = {}
    for a, ti in enumerate(rows_in):
        for b, tj in enumerate(cols_in):
            tap = [i * kw + j for i in ti for j in tj]
            pix = [(a * s + i - p) * w + b * s + j - p for i in ti for j in tj]
            by_count.setdefault(len(tap), []).append((a * len(cols_in) + b, tap, pix))
    groups = []
    for t, members in sorted(by_count.items()):
        positions = np.array([m[0] for m in members], np.intp)
        tap = np.array([m[1] for m in members], np.intp).reshape(len(members), t)
        pixels = np.array([m[2] for m in members], np.intp).reshape(len(members), t)
        shared = tap[:1] if (tap == tap[:1]).all() else tap
        words = taps[:, shared].transpose(1, 2, 3, 0).reshape(len(shared), -1, co)
        offset = t * ci - ring_all + tap_sums[:, tap].sum(axis=2).T          # [P, Co]
        group = (positions, pixels, np.ascontiguousarray(words), offset.astype(np.float32))
        for a in group:
            a.flags.writeable = False
        groups.append(group)
    return XnorFilters(in_shape=(ci, h, w), out_shape=(co, len(rows_in), len(cols_in)),
                       groups=tuple(groups))


def xnor_conv2d(x: np.ndarray, filters: XnorFilters) -> np.ndarray:
    """Binary convolution by XNOR-popcount on packed sign words.

    Args:
        x: [N, Ci, H, W] boolean sign planes (True for +1, the frozen
            plan's RSign compare); the pad ring reads -1.
        filters: the conv's :class:`XnorFilters` for this input extent.

    Returns:
        [N, Co, H', W'] float32 holding the exact integer sums, an NCHW view
        of NHWC memory: the bytes of ``tensor_ops.conv2d_forward`` on the
        same operands. x is packed per pixel along its channels into the
        words of the filters' layout, and each output position's patch row
        is a gather of its interior taps' words. Per tap count T, one XOR of the
        rows of every position with T interior taps against their filter
        words, at most _CHUNK_WORDS words at a time (whole images); the
        popcounts, summed over the row's words, give
        sum = popcount(x_row XOR w_row), and the output is offset - 2 * sum.
        The pad bits XOR to zero and need no mask. Each word's popcount is
        at most 64, so a row of fewer than 512 words keeps 2 * sum below
        2**16 and sums as uint16, which takes about half the time of uint32,
        and a longer row sums as uint32; each sum is at most K, so every
        value is an exact integer in float32.
    """
    n, ci, h, w = x.shape
    if (ci, h, w) != filters.in_shape:
        raise ValueError(f"input [{ci}, {h}, {w}] does not match filters laid out "
                         f"for {list(filters.in_shape)}")
    co, oh, ow = filters.out_shape
    words = pack_rows(x.transpose(0, 2, 3, 1).reshape(-1, ci))
    words = words.reshape(n, h * w, words.shape[1])            # [N, pixels, words]
    y = np.empty((n, oh * ow, co), np.float32)
    for positions, pixels, w_words, offset in filters.groups:
        p, length = len(positions), w_words.shape[1]
        step = max(1, _CHUNK_WORDS // max(1, p * length * co))
        for n0 in range(0, n, step):
            rows = words[n0:n0 + step, pixels]                   # [n', P, T, words]
            rows = rows.reshape(len(rows), p, length, 1)
            counts = np.bitwise_count(rows ^ w_words)            # [n', P, T*words, Co]
            total = counts.sum(axis=2, dtype=np.uint16 if length < 512 else np.uint32)
            y[n0:n0 + step, positions] = offset - 2 * total
    return y.reshape(n, oh, ow, co).transpose(0, 3, 1, 2)


def rsign_forward(x: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, dict]:
    """Per-channel shifted sign: y = sign(x - shift[c]), sign(0) = +1.

    Returns (y, cache); y is the boolean sign plane of x's shape (True for
    +1, :func:`sign_bits`), the operand of a binary conv. u = x - shift
    computes in x's ``tensor_ops._real_dtype``, shift cast to it.
    """
    x = np.asarray(x, dtype=_real_dtype(x))
    c = x.shape[1]
    if shift.shape != (c,):
        raise ValueError(f"shift shape {shift.shape} != ({c},)")
    u = x - shift.astype(x.dtype, copy=False)[None, :, None, None]
    return sign_bits(u), {"u": u}


def _approxsign_dydu(u: np.ndarray) -> np.ndarray:
    """Surrogate derivative max(2 - 2|u|, 0); NaN maps to 0 through fmax.

    Equal to the piecewise 2 + 2u on [-1, 0), 2 - 2u on [0, 1), else 0 to
    the byte: 2u and 2|u| are exact, and 2 + (-2|u|) is 2 - 2|u|.
    """
    d = np.abs(u)
    d *= -2.0
    d += 2.0
    return np.fmax(d, 0.0, out=d)


def rsign_backward(grad_y: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """Surrogate gradients of rsign: (grad_x, grad_shift).

    grad_x routes through the approxsign derivative; grad_shift[c] is the
    negated channel sum of grad_x (chain through u = x - shift).
    """
    grad_x = _approxsign_dydu(cache["u"])
    grad_x *= grad_y
    grad_shift = -_channel_sums(grad_x)
    return grad_x, grad_shift


def rprelu_forward(
    x: np.ndarray, beta: np.ndarray, gamma: np.ndarray, zeta: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Shifted PReLU: y = f(x - gamma[c]) + zeta[c], f(u) = u if u >= 0 else beta[c]*u.

    The kink at u = 0 takes the positive branch. f is computed branch-free
    as max(0, u) + beta*min(0, u): one term is a zero, so y is the selected
    branch's to the byte, with one exception. For u = -0 that rests on
    maximum and minimum returning their second operand on a tie of zeros, so
    that f(-0) = -0 as the branch form gives. numpy does not promise this; it
    was measured in numpy 2.4's x86 SIMD loops (its scalar loop returns the
    first operand, and NEON orders -0 < +0), and tests/test_bitops.py checks
    it with zeta = -0. The exception: where beta < 0 (or beta = -0), beta*-0
    is +0, so f(-0) = +0, and with zeta = -0 y is +0 where the branch gives
    -0; any other zeta gives the branch's y. It computes in x's
    ``tensor_ops._real_dtype``, the parameters cast to it. ``out``, if given, is an array of x's shape and
    compute dtype that receives u (the cache's ``u``); pass x itself to
    consume it. y is a fresh array either way, in x's memory order. Returns
    (y, cache).
    """
    x = np.asarray(x, dtype=_real_dtype(x))
    c = x.shape[1]
    for name, arr in (("beta", beta), ("gamma", gamma), ("zeta", zeta)):
        if arr.shape != (c,):
            raise ValueError(f"{name} shape {arr.shape} != ({c},)")
    beta, gamma, zeta = (arr.astype(x.dtype, copy=False) for arr in (beta, gamma, zeta))
    u = np.subtract(x, gamma[None, :, None, None], out=out)
    return _shifted_prelu(u, beta, zeta), {"u": u, "beta": beta}


def _shifted_prelu(u: np.ndarray, beta: np.ndarray, zeta: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """f(u) + zeta[c], rprelu_forward's arithmetic on u = x - gamma[c], into
    ``out`` (u itself computes in place; the frozen plan keeps no u) or a
    fresh array in u's memory order. It is the selected branch to the byte
    except at u = -0 with beta < 0 (or -0) and zeta = -0, where it gives +0
    and the branch -0 (see rprelu_forward)."""
    t = np.minimum(0.0, u)
    t *= beta[None, :, None, None]
    y = np.maximum(0.0, u, out=out)
    y += t
    y += zeta[None, :, None, None]
    return y


def _product_out(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An empty array of the dtype and memory order of a fresh ``a * b``:
    numpy's iterator allocates ufunc outputs this way (in a and b's layout
    when they share one, else in C order)."""
    return np.nditer([a, b, None], flags=["zerosize_ok"]).operands[2]


def rprelu_backward(
    grad_y: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of rprelu: (grad_x, grad_beta, grad_gamma, grad_zeta).

    The slope (1 where u >= 0, else beta) is built from the 0/1 masks of
    the cached u, and d f / d beta is min(u, 0), +0 on the positive branch.
    grad_x is computed in the slope's buffer, laid out as a fresh product of
    grad_y and u would be. The beta term is a product with a temporary,
    which numpy computes in the temporary's buffer from 256 KiB up (every
    plane of a batch-128 step). The three parameter gradients are
    ``tensor_ops._channel_sums``, whose order does not depend on layout;
    grad_gamma is the negated sum of grad_x, which the block backwards hand,
    negated back, to the batch norm that grad_x reaches as its dbeta.
    """
    u, beta = cache["u"], cache["beta"]
    pos = u >= 0
    g = np.asarray(grad_y, dtype=_real_dtype(grad_y))
    slope = np.multiply(~pos, beta[None, :, None, None], out=_product_out(g, u))
    slope += pos
    grad_x = np.multiply(g, slope, out=slope)
    grad_gamma = -_channel_sums(grad_x)
    grad_beta = _channel_sums(g * np.minimum(u, 0.0))
    grad_zeta = _channel_sums(g)
    return grad_x, grad_beta, grad_gamma, grad_zeta
