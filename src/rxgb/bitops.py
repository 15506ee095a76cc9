"""1-bit compute: packed sign rows, the XNOR-popcount binary conv, weight
binarization, and the shifted sign / shifted PReLU activations.

Encoding: a bit value of 1 means +1 and 0 means -1; sign(0) is +1 everywhere.
Each row of K signs is packed LSB-first into little-endian uint64 words
(:func:`pack_rows`, word_bits = 64); the pad bits past K are zero.

The XNOR identity for K-length {-1,+1} vectors packed with zero pad bits:
    dot(a, b) = K - 2 * popcount(a XOR b),
since each mismatched position adds -1 instead of +1 and the pad bits of
both operands XOR to zero (XNOR-Net, Rastegari et al., arXiv 1603.05279).

There is one binary conv kernel, :func:`xnor_conv2d`, on packed patch and
filter rows in im2col order. It gives exact integer sums as float32, the
bytes of ``tensor_ops.sign_conv2d``. The frozen plan runs it for convs of at
most ``tensor_ops._POPCOUNT_MAX_ROWS`` patch rows, where it reads 1 bit per
weight instead of a float32 (``network.InferencePlan``), and scales the sums
by alpha in the batch norm it folds. :func:`sign_weights` binarizes latent
weights into the int8 signs and per-output-channel alpha both executors use.

Activation gradients use the piecewise surrogate

    approxsign(u) = -1          u < -1
                    u^2 + 2u    -1 <= u < 0
                    2u - u^2    0 <= u < 1
                    1           u >= 1

whose derivative (2+2u on [-1,0), 2-2u on [0,1), else 0) replaces the true
zero-almost-everywhere derivative of sign.
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import _channel_sums, _im2col, _pad_input

WORD_BITS = 64
# uint64 words XORed at once by xnor_conv2d (at least one patch row): keeps
# its XOR words (512 KiB) and their counts in cache. Batch-1 features at
# width 0.5 took 2.05 ms with 2**14 to 2**16 words and 2.14 ms with 2**17 to
# 2**20 (one thread, 2-core x86_64 host).
_CHUNK_WORDS = 1 << 16


def _sign(x: np.ndarray) -> np.ndarray:
    """sign(x) with sign(0) = +1, as an int8 {-1,+1} array."""
    s = (x >= 0).view(np.int8) * np.int8(2)    # a tenth of np.where's time
    s -= 1
    return s


def sign_weights(w_latent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binarize latent conv weights [Co, Ci, kh, kw]: (int8 sign(w_latent),
    alpha [Co]), alpha[co] = mean(|w_latent[co]|), XNOR-Net's per-channel
    scale."""
    w_latent = np.asarray(w_latent, dtype=np.float64)
    return _sign(w_latent), np.abs(w_latent).mean(axis=(1, 2, 3))


def ste_mask(w_latent: np.ndarray) -> np.ndarray:
    """Straight-through clip indicator 1{|w| <= 1} as float64."""
    return (np.abs(w_latent) <= 1.0).astype(np.float64)


def pack_rows(signs: np.ndarray) -> np.ndarray:
    """Integer {-1,+1} rows [R, K] as [R, ceil(K/64)] uint64 rows: bit 1 for
    +1, LSB-first, the pad bits past K zero."""
    r, k = signs.shape
    n_words = -(-k // WORD_BITS)
    packed = np.packbits((signs > 0).view(np.uint8), axis=1, bitorder="little")
    out = np.zeros((r, n_words * 8), np.uint8)
    out[:, :packed.shape[1]] = packed                      # [R, ceil(K/8)] bytes
    return out.view("<u8").reshape(r, n_words)


def xnor_conv2d(x: np.ndarray, w_rows: np.ndarray, geom) -> np.ndarray:
    """Binary convolution on packed sign rows, by XNOR-popcount.

    Args:
        x: int8 {-1,+1} input [N, Ci, H, W]; the pad ring reads -1.
        w_rows: [Co, ceil(K/64)] uint64 filter rows, :func:`pack_rows` of the
            [Co, K] filters in im2col order (``tensor_ops.filter_rows``),
            K = kh*kw*Ci.
        geom: tensor_ops.ConvGeometry.

    Returns:
        [N, Co, H', W'] float32 holding the exact integer sums
        K - 2 * popcount(x_row XOR w_row), an NCHW view of NHWC memory: the
        bytes of ``tensor_ops.sign_conv2d`` on the same operands. The patch
        rows are packed the same way, so the pad bits XOR to zero and need no
        mask. Each word's popcount is at most 64 and each sum at most K, so
        the per-row sums, taken as one float32 product with a vector of ones,
        are exact.
    """
    n, ci, h, w = x.shape
    kh, kw = geom.kernel
    k = kh * kw * ci
    oh, ow = geom.out_extent(h, w)
    co, n_words = w_rows.shape
    if n_words != -(-k // WORD_BITS):
        raise ValueError(f"filter rows of {n_words} words do not hold K = {k} bits")
    x_rows = pack_rows(_im2col(_pad_input(x, geom.padding, -1, np.int8), geom))
    ones = np.ones(n_words, np.float32)
    y = np.empty((len(x_rows), co), np.float32)
    step = max(1, _CHUNK_WORDS // (co * n_words))
    for lo in range(0, len(x_rows), step):
        diff = np.bitwise_count(x_rows[lo:lo + step, None] ^ w_rows)   # [r, Co, words]
        np.matmul(diff.astype(np.float32), ones, out=y[lo:lo + step])
    y *= -2
    y += k
    return y.reshape(n, oh, ow, co).transpose(0, 3, 1, 2)


def rsign_forward(x: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, dict]:
    """Per-channel shifted sign: y = sign(x - shift[c]), sign(0) = +1.

    Returns (y, cache); y is the {-1,+1} int8 plane of x's shape, the exact
    integer operand of a binary conv.
    """
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[1]
    if shift.shape != (c,):
        raise ValueError(f"shift shape {shift.shape} != ({c},)")
    u = x - shift[None, :, None, None]
    return _sign(u), {"u": u}


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
    as max(0, u) + beta*min(0, u): one term is a zero, so f(u) is the
    selected branch to the byte. For u = -0 that rests on maximum and minimum
    returning their second operand on a tie of zeros, so that f(-0) = -0 as
    the branch form gives. numpy does not promise this; it was measured in
    numpy 2.4's x86 SIMD loops (its scalar loop returns the first operand,
    and NEON orders -0 < +0), and tests/test_bitops.py checks it with
    zeta = -0. ``out``, if given, is a float64 array of x's shape that
    receives u (the cache's ``u``); pass x itself to consume it. y is a
    fresh array either way, in x's memory order. Returns (y, cache).
    """
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[1]
    for name, arr in (("beta", beta), ("gamma", gamma), ("zeta", zeta)):
        if arr.shape != (c,):
            raise ValueError(f"{name} shape {arr.shape} != ({c},)")
    u = np.subtract(x, gamma[None, :, None, None], out=out)
    return _shifted_prelu(u, beta, zeta), {"u": u, "beta": beta}


def _shifted_prelu(u: np.ndarray, beta: np.ndarray, zeta: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """f(u) + zeta[c], rprelu_forward's arithmetic on u = x - gamma[c], into
    ``out`` (u itself computes in place; the frozen plan keeps no u) or a
    fresh array in u's memory order."""
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
    ``tensor_ops._channel_sums``, whose order does not depend on layout.
    """
    u, beta = cache["u"], cache["beta"]
    pos = u >= 0
    g = np.asarray(grad_y, dtype=np.float64)
    slope = np.multiply(~pos, beta[None, :, None, None], out=_product_out(g, u))
    slope += pos
    grad_x = np.multiply(g, slope, out=slope)
    grad_gamma = -_channel_sums(grad_x)
    grad_beta = _channel_sums(g * np.minimum(u, 0.0))
    grad_zeta = _channel_sums(g)
    return grad_x, grad_beta, grad_gamma, grad_zeta
