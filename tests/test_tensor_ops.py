"""Tensor-op checks against loop oracles and finite differences."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rxgb import bitops, netspec, tensor_ops
from rxgb.tensor_ops import (
    _SPLIT_MIN_IMAGES,
    K_BLOCK,
    ConvGeometry,
    _matmul,
    avgpool_2x2,
    avgpool_2x2_backward,
    avgpool_global,
    avgpool_global_backward,
    batchnorm_backward,
    batchnorm_forward,
    conv2d_backward,
    conv2d_forward,
    sgd_step,
    softmax_cross_entropy,
)

from oracles import (
    blocked_channel_sums,
    dense_conv2d_backward,
    dense_sign_conv2d,
    effective_weights,
    fd_grad,
    interior_conv2d_backward,
    is_nhwc_memory,
    naive_conv2d,
    nchw_conv2d_backward,
    rel_err,
    temporaries_batchnorm_backward,
    temporaries_batchnorm_forward,
    written_order_avgpool_2x2,
)
from test_acceptance import FD_TOL


def random_conv_case(rng):
    n = int(rng.integers(1, 3))
    ci = int(rng.integers(1, 5))
    co = int(rng.integers(1, 5))
    kh = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 3))
    h = int(rng.integers(kh, 8))
    w = int(rng.integers(kw, 8))
    x = rng.standard_normal((n, ci, h, w))
    wt = rng.standard_normal((co, ci, kh, kw))
    return x, wt, ConvGeometry((kh, kw), stride, pad)


def test_conv_forward_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        x, w, geom = random_conv_case(rng)
        pad_value = float(rng.choice([0.0, -1.0]))
        got = conv2d_forward(x, w, geom, pad_value=pad_value)
        want = naive_conv2d(x, w, geom.stride, geom.padding, pad_value)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12


def test_conv_forward_known_value():
    # 1x1x3x3 input, single 2x2 filter of ones, stride 1, no pad: windowed sums.
    x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    w = np.ones((1, 1, 2, 2))
    y = conv2d_forward(x, w, ConvGeometry((2, 2)))
    assert np.array_equal(y[0, 0], [[8.0, 12.0], [20.0, 24.0]])


def test_conv_shape_diagnostics():
    geom = ConvGeometry((3, 3), 1, 1)
    x = np.zeros((1, 2, 5, 5))
    w = np.zeros((4, 3, 3, 3))
    with pytest.raises(ValueError, match="input channels 2"):
        conv2d_forward(x, w, geom)
    with pytest.raises(ValueError, match="kernel"):
        conv2d_forward(np.zeros((1, 3, 5, 5)), w, ConvGeometry((2, 2)))
    with pytest.raises(ValueError, match="does not fit"):
        ConvGeometry((7, 7)).out_extent(5, 5)
    with pytest.raises(ValueError, match="grad_y shape"):
        conv2d_backward(np.zeros((1, 4, 9, 9)), np.zeros((1, 3, 5, 5)), w, geom)
    with pytest.raises(ValueError, match="stride"):
        ConvGeometry((3, 3), stride=0)


def test_conv_backward_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(12):
        x, w, geom = random_conv_case(rng)
        r = rng.standard_normal(conv2d_forward(x, w, geom).shape)

        gx, gw = conv2d_backward(r, x, w, geom)
        fx = fd_grad(lambda xv: float(np.sum(conv2d_forward(xv, w, geom) * r)), x.copy())
        fw = fd_grad(lambda wv: float(np.sum(conv2d_forward(x, wv, geom) * r)), w.copy())
        assert rel_err(gx, fx) <= 1e-6
        assert rel_err(gw, fw) <= 1e-6


def test_conv_backward_respects_pad_value_path():
    # Gradient is independent of pad_value (pads are constants), but the
    # backward must still accept and use the same geometry without error.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    geom = ConvGeometry((3, 3), 2, 1)
    r = rng.standard_normal(conv2d_forward(x, w, geom, pad_value=-1.0).shape)
    gx0, gw0 = conv2d_backward(r, x, w, geom, pad_value=0.0)
    gx1, gw1 = conv2d_backward(r, x, w, geom, pad_value=-1.0)
    assert np.array_equal(gx0, gx1)
    # grad_w differs: the -1 ring contributes to the weight gradient.
    fw = fd_grad(
        lambda wv: float(np.sum(conv2d_forward(x, wv, geom, pad_value=-1.0) * r)),
        w.copy(),
    )
    assert rel_err(gw1, fw) <= 1e-6
    assert not np.array_equal(gw0, gw1)


# (Ci = Co, H = W, stride) of the 3x3 convs of the width-0.5 plan, plus odd
# extents at stride 2.
_DESK_3X3 = [(32, 14, 1), (32, 14, 2), (64, 7, 1), (64, 7, 2), (64, 8, 2),
             (128, 4, 1), (128, 4, 2), (256, 2, 1), (512, 2, 1), (16, 5, 2)]


def test_conv_backward_equals_nchw_scatter_reference_byte_for_byte():
    rng = np.random.default_rng(14)
    for c, hw, stride in _DESK_3X3:
        geom = ConvGeometry((3, 3), stride, 1)
        x = rng.standard_normal((3, c, hw, hw))
        w = rng.standard_normal((c, c, 3, 3))
        oh, ow = geom.out_extent(hw, hw)
        gy = rng.standard_normal((3, c, oh, ow))
        for pad_value in (-1.0, 0.0):
            gx, gw = conv2d_backward(gy, x, w, geom, pad_value=pad_value)
            rx, rw = nchw_conv2d_backward(gy, x, w, geom, pad_value=pad_value)
            case = f"c={c} {hw}x{hw} s{stride} pad {pad_value}"
            assert gx.shape == rx.shape and gw.shape == rw.shape, case
            assert np.ascontiguousarray(gx).tobytes() == rx.tobytes(), case
            assert gw.tobytes() == rw.tobytes(), case


# (N, C, H=W, k, stride) of binary convs: the desk 3x3s above (256 and 512
# channels are Co > 128); batches of one and two images on 2x2 grids; 1x1s;
# batches whose grad_x products span two image chunks, at 32 channels and at
# width 0.25's block 1 (16 channels); and 2x2 grids at N = 127 and N = 128,
# either side of the interior-tap rule.
_BINARY_CASES = ([(3, c, hw, 3, s) for c, hw, s in _DESK_3X3]
                 + [(1, 256, 2, 3, 1), (1, 512, 2, 3, 1), (2, 256, 2, 3, 1),
                    (1, 32, 3, 3, 2), (3, 32, 14, 1, 1), (3, 512, 2, 1, 1),
                    (3, 16, 7, 1, 2), (21, 32, 14, 3, 1), (21, 16, 14, 3, 1),
                    (_SPLIT_MIN_IMAGES - 1, 48, 2, 3, 1),
                    (_SPLIT_MIN_IMAGES, 256, 2, 3, 1), (_SPLIT_MIN_IMAGES, 48, 2, 3, 1)])


def _sign_plane(rng, shape):
    """Boolean sign planes, True for +1, as RSign emits them."""
    return rng.standard_normal(shape) >= 0


def _sign_filters(rng, shape):
    """int8 {-1,+1} filters, as training holds them."""
    return np.where(rng.standard_normal(shape) >= 0, 1, -1).astype(np.int8)


def _plan_filters(w):
    """Filters [Co, Ci, kh, kw] as the frozen plan holds them: a float32 view
    of their filter rows."""
    co, ci, kh, kw = w.shape
    rows = tensor_ops.filter_rows(w).astype(np.float32)
    return rows.reshape(co, kh, kw, ci).transpose(0, 3, 1, 2)


def test_binary_conv_backward_equals_dense_float64_backward_byte_for_byte(monkeypatch):
    # The forward's sign planes, int8 filters and alpha against the float64
    # effective weights alpha * sign(latent) through one dense grad_x product; where
    # the backward takes the forward's interior-tap rule (3x3 on a 2x2 grid,
    # at least _SPLIT_MIN_IMAGES images), through the interior-tap oracle
    # instead, which scales grad_y by alpha as that form does, and within
    # 1e-12 of the dense form.
    interior = []
    conv_backward_interior = tensor_ops._conv_backward_interior

    def spy(*args):
        interior.append(case[:5])
        return conv_backward_interior(*args)

    monkeypatch.setattr(tensor_ops, "_conv_backward_interior", spy)
    rng = np.random.default_rng(15)
    for n, c, hw, k, stride in _BINARY_CASES:
        geom = ConvGeometry((k, k), stride, k // 2)
        x = _sign_plane(rng, (n, c, hw, hw))
        latent = rng.uniform(-1.0, 1.0, (c, c, k, k))
        oh, ow = geom.out_extent(hw, hw)
        gy = rng.standard_normal((n, c, oh, ow))
        case = (n, c, hw, k, stride)
        w_sign, alpha = bitops.sign_weights(latent)
        gx, gw = conv2d_backward(gy, x, w_sign, geom, pad_value=-1, alpha=alpha)
        w_eff = effective_weights(latent)
        rx, rw = dense_conv2d_backward(gy, x, w_eff, geom, pad_value=-1.0)
        if n >= _SPLIT_MIN_IMAGES and (hw, k, stride) == (2, 3, 1):
            for a, b in ((gx, rx), (gw, rw)):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), case
            assert is_nhwc_memory(gx), case
            rx, rw = interior_conv2d_backward(gy, x, w_sign, geom, pad_value=-1.0,
                                              alpha=alpha)
        assert gx.tobytes(order="A") == rx.tobytes(order="A"), case
        assert gx.strides == rx.strides and gw.tobytes() == rw.tobytes(), case
    assert sorted(set(interior)) == [(_SPLIT_MIN_IMAGES, c, 2, 3, 1) for c in (48, 256)]


def test_interior_tap_conv_backward_matches_directional_finite_differences(monkeypatch):
    # Criterion 5 at the interior-tap form, which its cases (N <= 2) never
    # reach: <grad_x, v> and <grad_w, u> against central differences of the
    # forward along random directions, float64 operands, 3x3 on a 2x2 grid.
    interior = []
    conv_backward_interior = tensor_ops._conv_backward_interior

    def spy(*args):
        interior.append(args[5])
        return conv_backward_interior(*args)

    monkeypatch.setattr(tensor_ops, "_conv_backward_interior", spy)
    rng = np.random.default_rng(51)
    geom = ConvGeometry((3, 3), 1, 1)
    x = rng.standard_normal((_SPLIT_MIN_IMAGES, 3, 2, 2))
    w = rng.standard_normal((4, 3, 3, 3))
    r = rng.standard_normal((_SPLIT_MIN_IMAGES, 4, 2, 2))
    v, u = rng.standard_normal(x.shape), rng.standard_normal(w.shape)
    h = 1e-5
    for pad_value in (-1.0, 0.0):
        def loss(xv, wv):
            return float(np.sum(conv2d_forward(xv, wv, geom, pad_value=pad_value) * r))

        gx, gw = conv2d_backward(r, x, w, geom, pad_value=pad_value)
        assert interior[-1] == pad_value
        fx = (loss(x + h * v, w) - loss(x - h * v, w)) / (2 * h)
        fw = (loss(x, w + h * u) - loss(x, w - h * u)) / (2 * h)
        assert rel_err(np.sum(gx * v), fx) <= FD_TOL, pad_value
        assert rel_err(np.sum(gw * u), fw) <= FD_TOL, pad_value


def test_integer_conv_is_exact_and_guards_float32_range():
    # The sign branch bounds a sum by K * max|w| * max(1, |pad_value|):
    # 132,104 * 127 is 16,777,208, below 2**24, and one more channel is not;
    # |-128| is read in a wider type, and 131,072 * 128 is exactly 2**24.
    geom = ConvGeometry((1, 1))
    k = tensor_ops.EXACT_F32 // 127
    y = conv2d_forward(np.ones((1, k, 1, 1), bool), np.full((1, k, 1, 1), 127, np.int8), geom)
    assert y.dtype == np.float32 and y[0, 0, 0, 0] == k * 127
    for ci, value in ((k + 1, 127), (1 << 17, -128)):
        with pytest.raises(ValueError, match=r"2\*\*24"):
            conv2d_forward(np.ones((1, ci, 1, 1), bool),
                           np.full((1, ci, 1, 1), value, np.int8), geom)
    # The pad value counts toward the bound: 1x1 taps of 3 pad cells reach 3,
    # and 2**17 one-tap channels of unit filters reach 2**24 at pad -128.
    ones, w = np.ones((1, 1, 1, 1), bool), np.ones((1, 1, 1, 1), np.int8)
    padded = conv2d_forward(ones, w, ConvGeometry((1, 1), 1, 1), pad_value=3)
    assert padded[0, 0].tolist() == [[3, 3, 3], [3, 1, 3], [3, 3, 3]]
    ci = 1 << 17
    with pytest.raises(ValueError, match=r"2\*\*24"):
        conv2d_forward(np.ones((1, ci, 1, 1), bool), np.ones((1, ci, 1, 1), np.int8),
                       ConvGeometry((1, 1), 1, 1), pad_value=-128)
    with pytest.raises(ValueError, match="integer pad_value"):
        conv2d_forward(ones, w, ConvGeometry((1, 1), 1, 1), pad_value=-0.5)


@pytest.mark.parametrize("n, hw", [(2, 4), (_SPLIT_MIN_IMAGES, 2)],
                         ids=["dense", "interior-taps"])
def test_sign_plane_conv_backward_refuses_the_pads_its_forward_refuses(
        monkeypatch, n, hw):
    # The backward's padded copy of a sign plane is int8: a pad of 0.5 used to
    # act as 0 in the dense form and halve the ring sums in the interior-tap
    # form, and 300 raised numpy's OverflowError. The forward checks the pad
    # before its 2**24 bound reads it: inf, nan and 1e300 used to raise
    # OverflowError, numpy's NaN-to-integer error and the bound's error.
    interior = []
    conv_backward_interior = tensor_ops._conv_backward_interior
    monkeypatch.setattr(tensor_ops, "_conv_backward_interior",
                        lambda *a: interior.append(a[5]) or conv_backward_interior(*a))
    rng = np.random.default_rng(29)
    geom = ConvGeometry((3, 3), 1, 1)
    x = _sign_plane(rng, (n, 2, hw, hw))
    w = _sign_filters(rng, (3, 2, 3, 3))
    gy = rng.standard_normal((n, 3, hw, hw))
    for pad_value in (0.5, 300, -129, np.inf, np.nan, 1e300):
        for conv in (lambda: conv2d_forward(x, w, geom, pad_value=pad_value),
                     lambda: conv2d_backward(gy, x, w, geom, pad_value=pad_value)):
            with pytest.raises(ValueError, match="integer pad_value"):
                conv()
    conv2d_backward(gy, x, w, geom, pad_value=-128)
    assert interior == ([-128] if n >= _SPLIT_MIN_IMAGES else [])


def test_sign_conv_refuses_float32_filters_whose_sums_could_reach_2_24():
    # The plan's float32 view of its filter rows gives training's int8 bytes,
    # and the guard reads float32 filters too, rounding |w| up: at K = 45,
    # 45 * 372,827 is 16,777,215 and exact, while 372,828 and 372,827.5 reach
    # 2**24. A bound of 1 taken on trust would accept them.
    rng = np.random.default_rng(6)
    x = _sign_plane(rng, (2, 5, 7, 7))
    w = _sign_filters(rng, (3, 5, 3, 3))
    geom = ConvGeometry((3, 3), 2, 1)
    view = _plan_filters(w)
    assert view.dtype == np.float32 and view.shape == w.shape
    assert np.shares_memory(tensor_ops.filter_rows(view), view)    # no copy
    want = conv2d_forward(x, w, geom, pad_value=-1)
    assert conv2d_forward(x, view, geom, pad_value=-1).tobytes() == want.tobytes()
    x_real = np.where(x, 1.0, -1.0)
    for value in (372_827, 372_828, 372_827.5):
        big = w.astype(np.float32) * np.float32(value)
        if value == 372_827:
            got = conv2d_forward(x, big, geom, pad_value=-1)
            real = conv2d_forward(x_real, big.astype(np.float64), geom, pad_value=-1.0)
            assert np.array_equal(got, real)
            continue
        with pytest.raises(ValueError, match=r"2\*\*24"):
            conv2d_forward(x, big, geom, pad_value=-1)


def _two_by_two_binary_convs():
    """(Ci, Co, H=W, k, stride) of every binary conv with a 2x2 output grid
    in the width-0.25 and width-0.5 nets: each such block's 3x3 and 1x1."""
    shapes = set()
    for width in (0.25, 0.5):
        for step in netspec.shape_chain(netspec.reference_spec(width)):
            kind, stride = step.layer.kind, step.layer.stride
            if kind in (netspec.NORMAL, netspec.REDUCTION) and step.out_shape[1:] == (2, 2):
                ci, hw = step.padded[:2]
                shapes |= {(ci, ci, hw, 3, stride), (ci, ci, 2, 1, 1)}
    return sorted(shapes)


def test_sign_conv_equals_the_dense_product_byte_for_byte(monkeypatch):
    # The interior-tap products against one product over the whole patch
    # matrix, pad ring included, at batches either side of the threshold, on
    # training's int8 filters and on the plan's float32 view.
    interior = []
    sign_conv_interior = tensor_ops._sign_conv_interior

    def spy(*args):
        interior.append(case)
        return sign_conv_interior(*args)

    monkeypatch.setattr(tensor_ops, "_sign_conv_interior", spy)
    rng = np.random.default_rng(16)
    shapes = _two_by_two_binary_convs()
    assert len(shapes) == 9
    for ci, co, hw, k, stride in shapes:
        geom = ConvGeometry((k, k), stride, k // 2)
        w = _sign_filters(rng, (co, ci, k, k))
        w_rows = tensor_ops.filter_rows(w).astype(np.float32)
        for n in (_SPLIT_MIN_IMAGES - 1, _SPLIT_MIN_IMAGES, 256):
            x = _sign_plane(rng, (n, ci, hw, hw))
            for pad in (-1, 0):
                case = (n, ci, hw, k, stride, pad)
                want = dense_sign_conv2d(x, w_rows, geom, pad)
                for filters in (w, _plan_filters(w)):
                    got = conv2d_forward(x, filters, geom, pad_value=pad)
                    assert got.strides == want.strides, case
                    assert got.tobytes(order="A") == want.tobytes(order="A"), case
    assert sorted({c[:5] for c in interior}) == sorted(
        (n, c, 2, 3, 1) for c in (128, 256, 512) for n in (_SPLIT_MIN_IMAGES, 256))
    # The dense product made one patch-matrix chunk at a time: 45 images are
    # 5 chunks on a 14x14 output grid (the last a remainder), 2 on 7x7.
    for c, hw, stride in _DESK_3X3:
        for k in (3, 1):
            geom = ConvGeometry((k, k), stride, k // 2)
            w = _sign_filters(rng, (c, c, k, k))
            x = _sign_plane(rng, (45, c, hw, hw))
            case = (45, c, hw, k, stride)
            want = dense_sign_conv2d(x, tensor_ops.filter_rows(w).astype(np.float32), geom, -1)
            for filters in (w, _plan_filters(w)):
                got = conv2d_forward(x, filters, geom, pad_value=-1)
                assert got.strides == want.strides, case
                assert got.tobytes(order="A") == want.tobytes(order="A"), case
    # Integer filters whose sums come within 1% of the 2**24 guard:
    # K * 14,563 = 16,776,576 at K = 9 * 128, the ring's cells included.
    geom = ConvGeometry((3, 3), 1, 1)
    x = rng.random((_SPLIT_MIN_IMAGES, 128, 2, 2)) < 0.9
    w = rng.choice(np.array([14563, 14562, -14563], np.float32), (128, 128, 3, 3),
                   p=[0.8, 0.1, 0.1])
    for pad in (1, -1, 0):
        interior.clear()
        case = ("near the guard", pad)
        got = conv2d_forward(x, w, geom, pad_value=pad)
        want = dense_sign_conv2d(x, tensor_ops.filter_rows(w), geom, pad)
        assert interior and got.tobytes(order="A") == want.tobytes(order="A"), case
        assert pad != 1 or want.max() > 0.5 * tensor_ops.EXACT_F32, case
    with pytest.raises(ValueError, match=r"2\*\*24"):
        conv2d_forward(x, w + np.float32(1), geom, pad_value=1)


def test_sign_convs_of_an_empty_batch_are_empty():
    # conv2d_forward's sign branch on training's int8 filters and on the
    # plan's float32 view, 1x1 stride 1 included, at N = 0
    for k, stride in ((1, 1), (3, 1), (3, 2)):
        geom = ConvGeometry((k, k), stride, k // 2)
        x = np.zeros((0, 4, 5, 5), bool)
        w = np.ones((3, 4, k, k), np.int8)
        oh = (5 + 2 * (k // 2) - k) // stride + 1
        for filters in (w, _plan_filters(w)):
            y = conv2d_forward(x, filters, geom, pad_value=-1)
            assert y.dtype == np.float32 and y.shape == (0, 3, oh, oh)


def test_batchnorm_forward_manual():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 3, 2, 2))
    gamma = rng.standard_normal(3)
    beta = rng.standard_normal(3)
    rm = np.zeros(3)
    rv = np.ones(3)
    y, _ = batchnorm_forward(x, gamma, beta, rm, rv)      # momentum 0.1, eps 1e-5
    for c in range(3):
        xc = x[:, c]
        want = gamma[c] * (xc - xc.mean()) / np.sqrt(xc.var() + 1e-5) + beta[c]
        assert np.max(np.abs(y[:, c] - want)) <= 1e-12
    # running stats: (1-m)*old + m*batch
    assert np.allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)))
    assert np.allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3)))


def test_batchnorm_rejects_empty_batch():
    with pytest.raises(ValueError, match="non-empty"):
        batchnorm_forward(
            np.zeros((0, 3, 2, 2)), np.ones(3), np.zeros(3), np.zeros(3), np.ones(3)
        )


def test_batchnorm_backward_finite_difference():
    rng = np.random.default_rng(9)
    for _ in range(8):
        x = rng.standard_normal((3, 2, 3, 3))
        gamma = rng.uniform(0.5, 1.5, 2)
        beta = rng.standard_normal(2)
        r = rng.standard_normal(x.shape)

        def run(xv, gv, bv):
            y, _ = batchnorm_forward(xv, gv, bv, np.zeros(2), np.ones(2))
            return float(np.sum(y * r))

        _, cache = batchnorm_forward(x, gamma, beta, np.zeros(2), np.ones(2))
        dx, dgamma, dbeta = batchnorm_backward(r, cache)
        assert rel_err(dx, fd_grad(lambda v: run(v, gamma, beta), x.copy())) <= 1e-4
        assert rel_err(dgamma, fd_grad(lambda v: run(x, v, beta), gamma.copy())) <= 1e-6
        assert rel_err(dbeta, fd_grad(lambda v: run(x, gamma, v), beta.copy())) <= 1e-6


def _nhwc(a):
    """The same values in NHWC memory, viewed as NCHW (a conv's output layout)."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def test_batchnorm_equals_the_temporaries_form_byte_for_byte():
    # Both layouts of x and grad_y, planes below and above the size at which
    # numpy reuses temporaries in place (256 KiB), and both forms of each call:
    # a fresh xhat, and out=x on a copy of x in its layout, consumed as xhat;
    # a backward that takes its own dbeta, and one handed grad_y's channel
    # sums. The backward only reads grad_y and returns dx in grad_y's layout.
    rng = np.random.default_rng(23)
    for shape in ((3, 8, 5, 5), (64, 32, 14, 14)):
        c = shape[1]
        gamma, beta = rng.uniform(0.5, 1.5, c), rng.standard_normal(c)
        for x_layout, consume in itertools.product(
                (np.ascontiguousarray, _nhwc), (False, True)):
            x = x_layout(rng.standard_normal(shape) * 3.0 + 1.0)
            stats = (rng.standard_normal(c), rng.uniform(0.5, 2.0, c))
            new_stats = tuple(a.copy() for a in stats)
            xin = x.copy(order="K")
            y, cache = batchnorm_forward(xin, gamma, beta, *new_stats,
                                         out=xin if consume else None)
            ry, rcache = temporaries_batchnorm_forward(x, gamma, beta, *stats)
            case = (shape, x_layout.__name__, consume)
            assert (cache["xhat"] is xin) == consume, case
            for a, b in ((y, ry), (cache["xhat"], rcache["xhat"])):
                assert a.tobytes(order="A") == b.tobytes(order="A"), case
                assert a.strides == b.strides, case
            for a, b in zip(new_stats, stats):
                assert a.tobytes() == b.tobytes(), case
            for g_layout in (np.ascontiguousarray, _nhwc):
                gy = g_layout(rng.standard_normal(shape))
                before = gy.copy(order="K")
                got = batchnorm_backward(gy, cache)
                want = temporaries_batchnorm_backward(gy, rcache)
                handed = batchnorm_backward(gy, cache, blocked_channel_sums(gy))
                assert gy.tobytes(order="A") == before.tobytes(order="A"), case
                for dx in (got[0], handed[0]):
                    assert dx.strides == gy.strides and not np.shares_memory(dx, gy), case
                for a, b, d in zip(got, want, handed):
                    assert (np.ascontiguousarray(a).tobytes()
                            == np.ascontiguousarray(b).tobytes()
                            == np.ascontiguousarray(d).tobytes()), case


def test_channel_sums_add_fixed_row_blocks_and_stay_near_the_exact_sum():
    # The per-channel sum of batch norm, RSign and RPReLU against the oracle's
    # loops, byte for byte, on NHWC memory, NCHW memory and a channel slice;
    # and against math.fsum: within the recursive-summation bound of its two
    # levels, (K_BLOCK + blocks) * 2**-53 * sum|x|, and closer on block 1's
    # shape than adding the N*H*W rows one after another.
    rng = np.random.default_rng(24)
    for shape in ((128, 32, 14, 14), (1, 512, 2, 2), (3, 8, 5, 5), (129, 16, 1, 1)):
        x = _nhwc(rng.standard_normal(shape) + 0.5)
        want = blocked_channel_sums(x)
        wide = _nhwc(np.concatenate([x, x], axis=1))[:, shape[1]:]
        for layout in (x, np.ascontiguousarray(x), wide):
            assert tensor_ops._channel_sums(layout).tobytes() == want.tobytes(), shape
        rows = x.transpose(0, 2, 3, 1).reshape(-1, shape[1])
        exact = np.array([math.fsum(col) for col in rows.T])
        blocks = -(-len(rows) // K_BLOCK)
        bound = (K_BLOCK + blocks) * 2.0 ** -53 * np.abs(rows).sum(axis=0)
        assert np.all(np.abs(want - exact) <= bound), shape
        if shape == (128, 32, 14, 14):
            one_by_one = np.zeros(shape[1])
            for row in rows:
                one_by_one += row
            assert np.max(np.abs(want - exact)) < np.max(np.abs(one_by_one - exact))


def test_pools_forward_and_backward():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 3, 4, 6))

    g = avgpool_global(x)
    for n in range(2):
        for c in range(3):
            assert abs(g[n, c] - x[n, c].mean()) <= 1e-12
    r = rng.standard_normal(g.shape)
    fx = fd_grad(lambda v: float(np.sum(avgpool_global(v) * r)), x.copy())
    assert rel_err(avgpool_global_backward(r, x.shape), fx) <= 1e-6

    p = avgpool_2x2(x)
    assert p.shape == (2, 3, 2, 3)
    for n in range(2):
        for c in range(3):
            for i in range(2):
                for j in range(3):
                    want = x[n, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].mean()
                    assert abs(p[n, c, i, j] - want) <= 1e-12
    r2 = rng.standard_normal(p.shape)
    fx2 = fd_grad(lambda v: float(np.sum(avgpool_2x2(v) * r2)), x.copy())
    assert rel_err(avgpool_2x2_backward(r2, x.shape), fx2) <= 1e-6

    with pytest.raises(ValueError, match="even"):
        avgpool_2x2(np.zeros((1, 1, 3, 4)))


def test_avgpool_2x2_adds_in_the_written_order_on_every_layout():
    # NCHW, NHWC, a channel slice of NHWC and a plane of 64 KiB (numpy's
    # reduction buffer size), with magnitudes far apart so that another
    # order would round differently. On NCHW input the written order is also
    # the one the reshape-mean form took; on NHWC input that form differed.
    rng = np.random.default_rng(19)
    for shape in ((2, 6, 4, 6), (8, 16, 16, 8)):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        n, c, h, w = shape
        want = written_order_avgpool_2x2(x)
        assert want.tobytes() == x.reshape(n, c, h // 2, 2, w // 2, 2).mean(
            axis=(3, 5)).tobytes()
        wide = _nhwc(np.concatenate([x, x], axis=1))
        for name, a in (("nchw", x), ("nhwc", _nhwc(x)), ("channel slice", wide[:, c:])):
            got = avgpool_2x2(a)
            assert got.tobytes(order="C") == want.tobytes(), (shape, name)
            assert is_nhwc_memory(got) == (name != "nchw"), (shape, name)


def test_pool_backwards_keep_their_values_in_nhwc_memory():
    # The repeat form of the 2x2 backward and the broadcast form of the global
    # one, from NCHW and NHWC upstream gradients alike.
    rng = np.random.default_rng(29)
    shape = (3, 5, 6, 4)
    for layout in (np.ascontiguousarray, _nhwc):
        g2 = layout(rng.standard_normal((3, 5, 3, 2)))
        got = avgpool_2x2_backward(g2, shape)
        want = np.repeat(np.repeat(g2 / 4.0, 2, axis=2), 2, axis=3)
        assert got.shape == shape and is_nhwc_memory(got)
        assert got.tobytes(order="C") == want.tobytes(order="C")
    g = rng.standard_normal((3, 5))
    got = avgpool_global_backward(g, shape)
    want = np.broadcast_to((g / 24)[:, :, None, None], shape)
    assert got.shape == shape and is_nhwc_memory(got)
    assert got.tobytes(order="C") == want.tobytes(order="C")


def test_softmax_cross_entropy_value_grad_and_validation():
    rng = np.random.default_rng(17)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)

    loss, grad = softmax_cross_entropy(logits, labels)
    # manual value
    want = 0.0
    for i in range(6):
        z = logits[i]
        want += -(z[labels[i]] - np.log(np.sum(np.exp(z))))
    want /= 6
    assert abs(loss - want) <= 1e-12

    fg = fd_grad(lambda v: softmax_cross_entropy(v, labels)[0], logits.copy())
    assert rel_err(grad, fg) <= 1e-6

    # stability: huge logits must not overflow
    big, _ = softmax_cross_entropy(np.array([[1e4, 0.0], [0.0, 1e4]]), np.array([0, 1]))
    assert big == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(ValueError, match="labels must lie"):
        softmax_cross_entropy(logits, np.array([0, 1, 2, 3, 4, 0]))
    with pytest.raises(ValueError, match="labels shape"):
        softmax_cross_entropy(logits, np.array([0, 1]))
    with pytest.raises(ValueError, match="non-empty"):
        softmax_cross_entropy(np.zeros((0, 4)), np.zeros(0, dtype=int))


def test_sgd_step_hand_sequence():
    p = [np.array([1.0, -2.0])]
    g = [np.array([0.5, 0.5])]
    v = [np.zeros(2)]
    sgd_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert np.allclose(p[0], [1.0 - 0.05, -2.0 - 0.05])
    assert np.allclose(v[0], [0.5, 0.5])
    sgd_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.0)
    # v = 0.9*0.5 + 0.5 = 0.95
    assert np.allclose(v[0], [0.95, 0.95])
    assert np.allclose(p[0], [0.95 - 0.095, -2.05 - 0.095])


def test_sgd_weight_decay_and_mask():
    p = [np.array([2.0]), np.array([2.0])]
    g = [np.zeros(1), np.zeros(1)]
    v = [np.zeros(1), np.zeros(1)]
    sgd_step(p, g, v, lr=1.0, momentum=0.0, weight_decay=0.1,
             decay_mask=[True, False])
    assert np.allclose(p[0], [1.8])   # decayed: v = 0.1*2 -> p -= 0.2
    assert np.allclose(p[1], [2.0])   # masked out

    with pytest.raises(ValueError, match="decay_mask length"):
        sgd_step(p, g, v, lr=1.0, decay_mask=[True])
    with pytest.raises(ValueError, match="shape mismatch"):
        sgd_step([np.zeros(2)], [np.zeros(3)], [np.zeros(2)], lr=0.1)


def test_sgd_step_updates_in_chunks_with_the_whole_array_bytes():
    # sgd_step updates _SGD_CHUNK elements at a time through one scratch
    # buffer; each element sees the operations of the whole-array formula in
    # its order, so the bytes are the formula's. Lengths around the chunk
    # boundaries, float32 grads into float64 masters, a grad that is a
    # transposed view, decay on, off and masked, and momentum 0 and 0.9.
    chunk = tensor_ops._SGD_CHUNK
    rng = np.random.default_rng(71)
    sizes = (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7)
    lr, wd = np.float64(0.03), 1e-3
    masks = (None, [False] * (len(sizes) + 1), [True, False] * 3)
    for momentum, mask in itertools.product((0.0, 0.9), masks):
        params = [rng.standard_normal(n) for n in sizes] + [rng.standard_normal((37, 1000))]
        grads = [rng.standard_normal(n).astype(np.float32) for n in sizes]
        grads.append(rng.standard_normal((1000, 37)).astype(np.float32).T)
        velocities = [rng.standard_normal(p.shape) for p in params]
        want = [(p.copy(), v.copy()) for p, v in zip(params, velocities)]
        for i, ((p, v), g) in enumerate(zip(want, grads)):
            v *= momentum
            v += g
            if mask is None or mask[i]:
                v += wd * p
            p -= lr * v
        sgd_step(params, grads, velocities, lr=lr, momentum=momentum,
                 weight_decay=wd, decay_mask=mask)
        for (p, v), (wp, wv) in zip(zip(params, velocities), want):
            assert p.tobytes() == wp.tobytes() and v.tobytes() == wv.tobytes(), \
                (momentum, mask, p.shape)


def test_sgd_step_refuses_params_it_cannot_update_in_place():
    # A param or velocity that is not C-contiguous float64 raises before any
    # parameter moves, rather than being updated through a copy.
    rng = np.random.default_rng(72)
    good = rng.standard_normal(5)
    base = rng.standard_normal((6, 8))
    for bad_p, bad_v in ((base.T, np.zeros((8, 6))), (base[:, ::2], np.zeros((6, 4))),
                         (base[:, :4], np.zeros((6, 4))), (np.zeros((8, 6)), base.T),
                         (base.astype(np.float32), np.zeros((6, 8)))):
        before = good.copy(), base.copy()
        with pytest.raises(ValueError, match="C-contiguous float64"):
            sgd_step([good, bad_p], [np.ones(5), np.ones(bad_p.shape)],
                     [np.zeros(5), bad_v], lr=0.1, momentum=0.9)
        assert good.tobytes() == before[0].tobytes()
        assert base.tobytes() == before[1].tobytes()


# --- fixed-block products and thread invariance --------------------------------


def test_matmul_blocks_match_plain_product():
    rng = np.random.default_rng(31)
    # Longer than one block and not a multiple of it: same value as a @ b up to
    # the changed summation order (normwise relative error).
    for k in (K_BLOCK + 1, 2 * K_BLOCK + 44, 784, 1000):
        a = rng.standard_normal((17, k))
        b = rng.standard_normal((k, 9))
        want = a @ b
        for lhs in (a, np.ascontiguousarray(a.T).T):     # transposed views too
            got = _matmul(lhs, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k
    # One block or less: exactly a @ b, byte for byte.
    for k in (1, K_BLOCK // 2, K_BLOCK - 1, K_BLOCK):
        a = rng.standard_normal((33, k))
        b = rng.standard_normal((k, 7))
        assert _matmul(a, b).tobytes() == (a @ b).tobytes(), k
    with pytest.raises(ValueError, match="contraction mismatch"):
        _matmul(np.ones((2, 2 * K_BLOCK)), np.ones((3 * K_BLOCK, 3)))


# (N, Ci, Co, H=W, k, stride, pad). The first case is block3 of the width-0.125
# net at batch 16; its grad_w product has contraction N*OH*OW = 784, which a
# single OpenBLAS 0.3.31 gemm sums differently at 1 and at 2 or 4 threads.
# The last is the interior-tap backward on float64 operands.
_CONV_SWEEP = [
    (16, 32, 32, 7, 3, 1, 1),
    (16, 64, 64, 7, 3, 1, 1),
    (16, 64, 64, 7, 1, 1, 0),
    (16, 16, 16, 14, 3, 1, 1),
    (16, 16, 32, 14, 3, 2, 1),
    (8, 1, 8, 28, 3, 1, 1),
    (2, 128, 128, 4, 3, 1, 1),
    (128, 64, 64, 2, 3, 1, 1),
]
# (N, Ci = Co, H=W, k, stride) of binary convs on sign planes: grad_x
# products of two image chunks at 32 and 16 channels, 2x2 grids at N = 128
# (the interior-tap form) with Co > 128 and at N = 127 (the dense form), a
# one-image 2x2 batch, stride 2, and a 1x1.
_BINARY_SWEEP = [
    (21, 32, 14, 3, 1),
    (21, 16, 14, 3, 1),
    (127, 256, 2, 3, 1),
    (128, 256, 2, 3, 1),
    (128, 512, 2, 3, 1),
    (1, 256, 2, 3, 1),
    (16, 64, 7, 3, 2),
    (16, 512, 2, 1, 1),
]
# (N, D, K) of the FC head.
_FC_SWEEP = [(16, 128, 10), (128, 512, 10), (200, 256, 10)]

_SWEEP_SCRIPT = r"""
import hashlib, json, sys
import numpy as np
from rxgb import tensor_ops as T

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

rng = np.random.default_rng(0)
rows = []
for n, ci, co, hw, k, s, p in json.loads(sys.argv[1]):
    geom = T.ConvGeometry((k, k), s, p)
    x = rng.standard_normal((n, ci, hw, hw))
    w = rng.standard_normal((co, ci, k, k))
    y = T.conv2d_forward(x, w, geom)
    gx, gw = T.conv2d_backward(rng.standard_normal(y.shape), x, w, geom)
    case = f"N={n} Ci={ci} Co={co} {hw}x{hw} k{k} s{s} p{p}"
    rows += [("conv2d_forward y", case, digest(y)),
             ("conv2d_backward grad_x", case, digest(gx)),
             ("conv2d_backward grad_w", case, digest(gw))]
for n, c, hw, k, s in json.loads(sys.argv[3]):
    geom = T.ConvGeometry((k, k), s, k // 2)
    x = rng.standard_normal((n, c, hw, hw)) >= 0
    w = np.where(rng.standard_normal((c, c, k, k)) >= 0, 1, -1).astype(np.int8)
    oh, ow = geom.out_extent(hw, hw)
    gx, gw = T.conv2d_backward(rng.standard_normal((n, c, oh, ow)), x, w, geom,
                               pad_value=-1, alpha=rng.uniform(0.1, 1.0, c))
    case = f"N={n} C={c} {hw}x{hw} k{k} s{s} sign planes"
    rows += [("conv2d_backward grad_x", case, digest(gx)),
             ("conv2d_backward grad_w", case, digest(gw))]
for n, d, k in json.loads(sys.argv[2]):
    x = rng.standard_normal((n, d))
    w = rng.standard_normal((d, k))
    y = T.linear_forward(x, w)
    gx, gw = T.linear_backward(rng.standard_normal(y.shape), x, w)
    case = f"N={n} D={d} K={k}"
    rows += [("linear_forward y", case, digest(y)),
             ("linear_backward grad_x", case, digest(gx)),
             ("linear_backward grad_w", case, digest(gw))]
print(json.dumps(rows))
"""


def _sweep_digests(threads: int) -> list:
    env = os.environ.copy()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path(tensor_ops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT,
         json.dumps(_CONV_SWEEP), json.dumps(_FC_SWEEP), json.dumps(_BINARY_SWEEP)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [tuple(r) for r in json.loads(proc.stdout)]


def test_products_byte_identical_across_thread_counts():
    # Fresh interpreters, because BLAS reads its thread count when numpy loads.
    base = _sweep_digests(1)
    assert len(base) == 3 * (len(_CONV_SWEEP) + len(_FC_SWEEP)) + 2 * len(_BINARY_SWEEP)
    for threads in (2, 4):
        pairs = zip(base, _sweep_digests(threads), strict=True)
        for (op, case, want), (_, _, got) in pairs:
            assert got == want, (
                f"{op} at {case} differs between 1 and {threads} threads"
            )
