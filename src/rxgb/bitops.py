"""1-bit compute: bit-packed planes, the XNOR-popcount binary conv,
weight binarization, and the shifted sign / shifted PReLU activations.

Encoding: a bit value of 1 means +1 and 0 means -1; sign(0) is +1 everywhere.
Bits are packed LSB-first into little-endian uint64 words (word_bits = 64),
row-major over the logical tensor. Padding bits past the payload are zero and
are masked out of every popcount.

The XNOR identity for n-length {-1,+1} vectors:
    dot(a, b) = 2 * popcount(NOT(a XOR b) AND payload_mask) - n.

Binary convolution accumulates exact integers via popcount and applies the
per-output-channel scale once at the end, so its output is bit-identical to
the real-valued convolution of the unpacked operands whenever those integer
sums are exactly representable (always, at these sizes).

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

from .tensor_ops import _channel_sums

WORD_BITS = 64


@dataclass
class BitPlane:
    """Bit-packed view of a {-1,+1} tensor.

    Attributes:
        words: 1-d uint64 array, LSB-first packed bits.
        n_bits: payload length (= prod(shape)); trailing bits are zero.
        shape: logical tensor shape.
    """

    words: np.ndarray
    n_bits: int
    shape: tuple[int, ...]

    def __post_init__(self):
        if self.words.dtype != np.uint64:
            raise ValueError(f"words must be uint64, got {self.words.dtype}")
        expect = (self.n_bits + WORD_BITS - 1) // WORD_BITS
        if self.words.shape != (expect,):
            raise ValueError(
                f"words length {self.words.shape} != expected ({expect},) "
                f"for {self.n_bits} bits"
            )
        if int(np.prod(self.shape)) != self.n_bits:
            raise ValueError(f"shape {self.shape} does not hold {self.n_bits} bits")


def _payload_mask(n_bits: int, n_words: int) -> np.ndarray:
    mask = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    rem = n_bits % WORD_BITS
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


def _pack_bit_rows(bits: np.ndarray) -> np.ndarray:
    """[R, K] 0/1 uint8 -> [R, ceil(K/64)] uint64, LSB-first per row."""
    r, k = bits.shape
    n_words = (k + WORD_BITS - 1) // WORD_BITS
    packed = np.packbits(bits, axis=1, bitorder="little")  # [R, ceil(K/8)] u8
    out = np.zeros((r, n_words * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8").reshape(r, n_words)


def pack(x: np.ndarray) -> BitPlane:
    """Binarize a real tensor (sign with sign(0)=+1) and bit-pack it."""
    x = np.asarray(x)
    bits = (x >= 0).astype(np.uint8).reshape(1, -1)
    words = _pack_bit_rows(bits)[0]
    return BitPlane(words=words, n_bits=x.size, shape=tuple(x.shape))


def unpack(plane: BitPlane) -> np.ndarray:
    """Inverse of pack: {-1,+1} float64 tensor of plane.shape."""
    bits = np.unpackbits(
        plane.words.view(np.uint8), count=plane.n_bits, bitorder="little"
    )
    return (bits.astype(np.float64) * 2.0 - 1.0).reshape(plane.shape)


def _alpha(w_latent: np.ndarray, weight_scaling: bool) -> np.ndarray:
    """Per-output-channel scale [Co]: mean(|w_latent[co]|), or ones."""
    if weight_scaling:
        return np.abs(w_latent).mean(axis=(1, 2, 3))
    return np.ones(w_latent.shape[0])


def binarize_weights(
    w_latent: np.ndarray, weight_scaling: bool = True
) -> tuple[BitPlane, np.ndarray]:
    """Binarize latent conv weights.

    Args:
        w_latent: [Co, Ci, kh, kw] real latent weights.
        weight_scaling: when True, alpha[co] = mean(|w_latent[co]|); when
            False, alpha is all ones.

    Returns:
        (bits, alpha): packed sign bits in canonical [Co, Ci, kh, kw] row-major
        order and the per-output-channel scale.
    """
    if w_latent.ndim != 4:
        raise ValueError(f"latent weights must be 4-d, got ndim={w_latent.ndim}")
    w_latent = np.asarray(w_latent, dtype=np.float64)
    return pack(w_latent), _alpha(w_latent, weight_scaling)


def _sign(x: np.ndarray) -> np.ndarray:
    """sign(x) with sign(0) = +1, as an int8 {-1,+1} array."""
    s = (x >= 0).view(np.int8) * np.int8(2)    # a tenth of np.where's time
    s -= 1
    return s


def sign_weights(
    w_latent: np.ndarray, weight_scaling: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Integer twin of binarize_weights: (int8 sign(w_latent), alpha [Co])."""
    w_latent = np.asarray(w_latent, dtype=np.float64)
    return _sign(w_latent), _alpha(w_latent, weight_scaling)


def ste_mask(w_latent: np.ndarray) -> np.ndarray:
    """Straight-through clip indicator 1{|w| <= 1} as float64."""
    return (np.abs(w_latent) <= 1.0).astype(np.float64)


def binary_conv2d(x_bits: BitPlane, w_bits: BitPlane, alpha: np.ndarray, geom) -> np.ndarray:
    """Convolution over bit-packed operands via XNOR-popcount.

    Args:
        x_bits: packed input, logical shape [N, Ci, H, W].
        w_bits: packed filters, logical shape [Co, Ci, kh, kw].
        alpha: [Co] per-output-channel scale applied after the integer
            accumulation.
        geom: tensor_ops.ConvGeometry; padding contributes -1 (bit 0).

    Returns:
        [N, Co, H', W'] float64, equal to alpha[co] times the exact integer
        XNOR accumulation.
    """
    n, ci, h, w = x_bits.shape
    co, ci2, kh, kw = w_bits.shape
    if ci != ci2:
        raise ValueError(f"input channels {ci} != weight input channels {ci2}")
    if (kh, kw) != geom.kernel:
        raise ValueError(f"weight kernel {(kh, kw)} != geometry kernel {geom.kernel}")
    if alpha.shape != (co,):
        raise ValueError(f"alpha shape {alpha.shape} != ({co},)")
    s, p = geom.stride, geom.padding
    oh, ow = geom.out_extent(h, w)

    x = unpack(x_bits)
    xp = np.full((n, ci, h + 2 * p, w + 2 * p), -1.0)
    xp[:, :, p:p + h, p:p + w] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::s, ::s, :, :]
    # (kh, kw, ci) reduction order, same blocking as the real conv path
    cols = win.transpose(0, 2, 3, 4, 5, 1).reshape(n * oh * ow, kh * kw * ci)
    patch_words = _pack_bit_rows((cols >= 0).astype(np.uint8))

    wf = unpack(w_bits).transpose(0, 2, 3, 1).reshape(co, kh * kw * ci)
    filt_words = _pack_bit_rows((wf >= 0).astype(np.uint8))

    k = kh * kw * ci
    mask = _payload_mask(k, patch_words.shape[1])
    dots = np.empty((patch_words.shape[0], co), dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, co * patch_words.shape[1]))
    for lo in range(0, patch_words.shape[0], chunk):
        pw = patch_words[lo:lo + chunk]
        xnor = ~(pw[:, None, :] ^ filt_words[None, :, :]) & mask
        pop = np.bitwise_count(xnor).sum(axis=2, dtype=np.int64)
        dots[lo:lo + chunk] = 2 * pop - k
    y = dots.astype(np.float64) * np.asarray(alpha, dtype=np.float64)[None, :]
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
