"""Binary-compute checks: sign packing, the XNOR-popcount conv, surrogate grads."""

import itertools

import numpy as np
import pytest

from rxgb.bitops import (
    _approxsign_dydu,
    pack_rows,
    rprelu_backward,
    rprelu_forward,
    rsign_backward,
    rsign_forward,
    sign_bits,
    sign_weights,
    ste_mask,
    weight_alpha,
    xnor_conv2d,
    xnor_filters,
)
from rxgb import netspec, network
from rxgb.tensor_ops import _POPCOUNT_MAX_ROWS, ConvGeometry, conv2d_forward, filter_rows

from oracles import (
    dense_sign_conv2d,
    effective_weights,
    fd_grad,
    naive_conv2d,
    piecewise_approxsign_dydu,
    rel_err,
    where_rprelu_backward,
    where_rprelu_forward,
)


def approxsign(u):
    """Independent piecewise surrogate used to finite-difference rsign."""
    out = np.where(u < -1.0, -1.0, np.where(u >= 1.0, 1.0, 0.0))
    neg = (u >= -1.0) & (u < 0.0)
    pos = (u >= 0.0) & (u < 1.0)
    out = np.where(neg, u * u + 2.0 * u, out)
    out = np.where(pos, 2.0 * u - u * u, out)
    return out


def _unpack_rows(words, k):
    """[R, ceil(K/64)] uint64 rows back to [R, K] booleans, True for +1."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=k, bitorder="little")
    return bits.astype(bool)


def test_pack_rows_roundtrip_and_padding():
    rng = np.random.default_rng(0)
    for r, k in [(1, 1), (3, 63), (2, 64), (4, 65), (1, 127), (5, 130), (2, 4608)]:
        signs = rng.standard_normal((r, k)) >= 0
        words = pack_rows(signs)
        n_words = (k + 63) // 64
        assert words.dtype == np.uint64 and words.shape == (r, n_words)
        assert np.array_equal(_unpack_rows(words, k), signs)
        # the bits past the payload in the last word are zero
        assert all(int(last) >> (k - 64 * (n_words - 1)) == 0 for last in words[:, -1])


def test_sign_zero_is_plus_one():
    w = np.array([0.0, -0.0, 1.0, -1.0])
    sgn, _ = sign_weights(w.reshape(1, 4, 1, 1))
    assert sgn.ravel().tolist() == [1, 1, 1, -1]
    assert pack_rows(sign_bits(w.reshape(1, 4))).tolist() == [[0b0111]]


def test_binary_conv_of_one_pixel_equals_integer_dot():
    # A 1x1 conv of one pixel is one XNOR-popcount dot over Ci bits: lengths
    # either side of the 64-bit word boundaries check the zero pad bits, and
    # rows of 511 and 600 words the two widths the popcounts are summed in,
    # at dots near -K (2 * popcount past 2**16 at 600 words) too.
    rng = np.random.default_rng(1)
    geom = ConvGeometry((1, 1))
    for n in [1, 2, 63, 64, 65, 127, 128, 129, 300, 1000, 511 * 64, 600 * 64]:
        for trial in range(20):
            a = rng.random(n) < 0.5
            b = rng.random(n) < 0.5
            if trial % 2:
                b = np.where(rng.random(n) < 0.02, a, ~a)
            y = xnor_conv2d(a.reshape(1, n, 1, 1), xnor_filters(b.reshape(1, n), geom, 1, 1))
            assert y[0, 0, 0, 0] == int(np.dot(np.where(a, 1, -1), np.where(b, 1, -1)))


def test_sign_weights_alpha_oracle():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((4, 3, 3, 3))
    sgn, alpha = sign_weights(w)
    for co in range(4):
        assert alpha[co] == pytest.approx(np.abs(w[co]).mean(), rel=1e-15)
    assert sgn.dtype == np.int8 and np.array_equal(sgn, np.where(w >= 0, 1, -1))


def test_weight_alpha_equals_the_whole_latent_mean_byte_for_byte():
    # the chunked |w| keeps numpy's pairwise order per filter: every latent
    # shape of the width-0.25 and 0.5 nets, and shapes around the chunk
    rng = np.random.default_rng(5)
    shapes = {(1, 1, 1, 1), (3, 5, 3, 3), (7, 1, 1, 1), (0, 3, 3, 3), (5, 3, 7, 11),
              (1, 4097, 3, 3), (2, 8192, 1, 1), (33, 1000, 3, 3), (4, 1 << 15, 1, 1)}
    for width in (0.25, 0.5):
        model = network.build_network(netspec.reference_spec(width), seed=6)
        shapes |= {v.shape for k, v in model.params.items() if k.endswith(".w_latent")}
    for shape in sorted(shapes):
        w = rng.uniform(-1, 1, shape)
        want = np.abs(w).mean(axis=(1, 2, 3))
        assert weight_alpha(w).tobytes() == want.tobytes(), shape


def test_ste_mask():
    w = np.array([[[[-1.5, -1.0, 0.0, 0.99, 1.0, 1.01]]]])
    assert np.array_equal(ste_mask(w)[0, 0, 0], [0.0, 1.0, 1.0, 1.0, 1.0, 0.0])


def test_binary_conv_integer_exact_vs_real_path():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 3))
        ci = int(rng.integers(1, 5))
        co = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        padv = int(rng.integers(0, 2))
        h = int(rng.integers(k, 9))
        w = int(rng.integers(k, 9))
        geom = ConvGeometry((k, k), stride, padv)

        x = rng.choice([-1.0, 1.0], (n, ci, h, w))
        wl = rng.standard_normal((co, ci, k, k))
        sgn, alpha = sign_weights(wl)

        got = xnor_conv2d(x > 0, xnor_filters(filter_rows(sgn) > 0, geom, h, w))
        real = conv2d_forward(x, np.where(wl >= 0, 1.0, -1.0), geom, pad_value=-1.0)
        assert np.array_equal(got, real)          # integer-exact
        loops = naive_conv2d(x, np.where(wl >= 0, 1.0, -1.0), stride, padv, -1.0)
        assert np.array_equal(got, loops)

        scaled = got * alpha[None, :, None, None]
        real_scaled = conv2d_forward(x, effective_weights(wl), geom, pad_value=-1.0)
        assert np.allclose(scaled, real_scaled, rtol=1e-12, atol=1e-12)


def _net_binary_convs():
    """(Ci, Co, k, stride) of every binary conv of the width-0.25 and 0.5
    nets, and Ci = 4 and 100, whose Ci is not a multiple of 64."""
    shapes = {(4, 4, 3, 1), (4, 4, 3, 2), (4, 4, 1, 1), (100, 8, 3, 1)}
    for width in (0.25, 0.5):
        for step in netspec.shape_chain(netspec.reference_spec(width)):
            for op in netspec.layer_ops(step):
                if op.kind == netspec.BINARY_CONV:
                    stride = step.layer.stride if op.kernel == 3 else 1
                    shapes.add((op.in_channels, op.out_channels, op.kernel, stride))
    return sorted(shapes)


def _xnor_cases(x, w, geom):
    """xnor_conv2d on boolean signs x [N, Ci, H, W] in NHWC memory against
    dense_sign_conv2d, byte for byte."""
    n, ci, h, wd = x.shape
    rows = filter_rows(w)
    filters = xnor_filters(rows > 0, geom, h, wd)
    n_words = -(-ci // 64)
    for positions, pixels, words, offset in filters.groups:
        assert words.dtype == np.uint64 and not words.flags.writeable
        assert words.shape[0] in (1, len(positions))
        assert words.shape[1:] == (pixels.shape[1] * n_words, len(w))
        assert offset.dtype == np.float32 and offset.shape == (len(positions), len(w))
    want = dense_sign_conv2d(x, rows.astype(np.float32), geom)
    got = xnor_conv2d(x, filters)
    assert got.dtype == np.float32 and got.strides == want.strides
    assert got.tobytes(order="A") == want.tobytes(order="A")


def _sign_plane(rng, n, h, wd, ci):
    return (rng.standard_normal((n, h, wd, ci)) >= 0).transpose(0, 3, 1, 2)  # NHWC memory


def test_xnor_conv_equals_the_dense_sign_product_byte_for_byte():
    # Every binary conv shape of the nets on 1 to _POPCOUNT_MAX_ROWS + 1 patch
    # rows (one image of 1 x W, odd W at stride 2, every cell next to the -1
    # ring).
    rng = np.random.default_rng(19)
    shapes = _net_binary_convs()
    assert len(shapes) == 20
    for ci, co, k, stride in shapes:
        geom = ConvGeometry((k, k), stride, k // 2)
        w = np.where(rng.standard_normal((co, ci, k, k)) >= 0, 1, -1).astype(np.int8)
        for r in range(1, _POPCOUNT_MAX_ROWS + 2):
            x = _sign_plane(rng, 1, 1, stride * (r - 1) + 1, ci)
            _xnor_cases(x, w, geom)
    empty = xnor_conv2d(np.zeros((0, 4, 3, 3), bool),
                        xnor_filters(np.ones((5, 36), bool), ConvGeometry((3, 3), 1, 1), 3, 3))
    assert empty.shape == (0, 5, 3, 3)
    with pytest.raises(ValueError, match="does not match"):
        xnor_conv2d(np.ones((1, 65, 1, 1), bool),
                    xnor_filters(np.ones((5, 64), bool), ConvGeometry((1, 1)), 1, 1))
    with pytest.raises(ValueError, match="kernel"):
        xnor_filters(np.ones((5, 10), bool), ConvGeometry((3, 3)), 3, 3)


def test_xnor_conv_of_every_conv_the_plan_runs_as_xnor_equals_the_dense_product():
    # Every binary conv the frozen plan lays out for XNOR at widths 0.25 and
    # 0.5 (output grids of at most _POPCOUNT_MAX_ROWS cells: 4x4 and 2x2),
    # on the input extent the net gives it, at batches of 1 to 4 images.
    rng = np.random.default_rng(20)
    seen = set()
    for width in (0.25, 0.5):
        spec = netspec.reference_spec(width, include_fc=False)
        shapes = {name: shape for name, shape, _, _ in network._param_layout(spec)}
        for prefix, (geom, (h, wd)) in network._binary_conv_inputs(spec).items():
            if np.prod(geom.out_extent(h, wd)) > _POPCOUNT_MAX_ROWS:
                continue
            co, ci, k, _ = shapes[f"{prefix}.w_latent"]
            w = np.where(rng.standard_normal((co, ci, k, k)) >= 0, 1, -1).astype(np.int8)
            for n in range(1, 5):
                _xnor_cases(_sign_plane(rng, n, h, wd, ci), w, geom)
            seen.add((width, geom.out_extent(h, wd), k))
    assert seen == {(width, grid, k) for width in (0.25, 0.5)
                    for grid in ((4, 4), (2, 2)) for k in (1, 3)}


def test_pack_rows_sets_one_bit_per_plus_one_and_zero_pad_bits():
    signs = np.array([[1, -1, 1] + [-1] * 62 + [1], [-1] * 66]) > 0
    words = pack_rows(signs)
    assert words.dtype == np.uint64 and words.shape == (2, 2)
    assert words[0].tolist() == [0b101, 0b10] and words[1].tolist() == [0, 0]


def test_rsign_forward_hand_cases():
    x = np.zeros((1, 2, 1, 2))
    x[0, 0] = [[0.5, -0.5]]
    x[0, 1] = [[0.3, 0.3]]
    shift = np.array([0.5, 0.4])
    y, _ = rsign_forward(x, shift)
    assert y[0, 0, 0].tolist() == [True, False]        # x == shift -> +1
    assert y[0, 1, 0].tolist() == [False, False]


def test_rsign_forward_emits_boolean_signs():
    y, _ = rsign_forward(np.array([[[[0.0, -0.0, 2.0, -1e-300, np.nan]]]]), np.zeros(1))
    assert y.dtype == bool and y.ravel().tolist() == [True, True, True, False, False]


def test_surrogate_derivative_equals_piecewise_reference_byte_for_byte():
    kinks = (-1.0, 0.0, 1.0)
    grid = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 5e-324, -5e-324,
            1e308, -1e308, np.inf, -np.inf, np.nan]
    grid += [np.nextafter(k, d) for k in kinks for d in (-np.inf, np.inf)]
    u = np.concatenate([grid, np.random.default_rng(6).uniform(-3, 3, 4000)])
    with np.errstate(over="ignore"):                   # -2 * 1e308 -> -inf -> 0
        got = _approxsign_dydu(u)
    assert got.tobytes() == piecewise_approxsign_dydu(u).tobytes()


def test_rsign_backward_matches_surrogate_fd():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, (2, 3, 3, 3))
        shift = rng.uniform(-0.3, 0.3, 3)
        # keep away from surrogate kinks so central differences are clean
        u = x - shift[None, :, None, None]
        for kink in (-1.0, 0.0, 1.0):
            x[np.abs(u - kink) < 1e-3] += 5e-3
        r = rng.standard_normal(x.shape)

        _, cache = rsign_forward(x, shift)
        gx, gshift = rsign_backward(r, cache)

        fx = fd_grad(
            lambda v: float(np.sum(approxsign(v - shift[None, :, None, None]) * r)),
            x.copy(),
        )
        fs = fd_grad(
            lambda v: float(np.sum(approxsign(x - v[None, :, None, None]) * r)),
            shift.copy(),
        )
        assert rel_err(gx, fx) <= 1e-4
        assert rel_err(gshift, fs) <= 1e-4
        assert np.allclose(gshift, -gx.sum(axis=(0, 2, 3)))


def test_rprelu_forward_hand_cases():
    x = np.array([2.0, 1.0, 0.5, -1.0]).reshape(1, 1, 1, 4)
    beta, gamma, zeta = np.array([0.25]), np.array([1.0]), np.array([0.1])
    y, _ = rprelu_forward(x, beta, gamma, zeta)
    # u = x - 1 -> [1, 0, -0.5, -2]; f = [1, 0, -0.125, -0.5]; +0.1
    assert np.allclose(y[0, 0, 0], [1.1, 0.1, -0.025, -0.4])


def test_rprelu_kink_uses_positive_branch():
    x = np.full((1, 1, 1, 1), 0.7)
    beta, gamma, zeta = np.array([0.25]), np.array([0.7]), np.array([0.0])
    _, cache = rprelu_forward(x, beta, gamma, zeta)
    gx, _, _, _ = rprelu_backward(np.ones_like(x), cache)
    assert gx[0, 0, 0, 0] == 1.0


def test_rprelu_backward_finite_difference():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, (2, 3, 2, 2))
        beta = rng.uniform(0.1, 0.5, 3)
        gamma = rng.uniform(-0.3, 0.3, 3)
        zeta = rng.uniform(-0.3, 0.3, 3)
        u = x - gamma[None, :, None, None]
        x[np.abs(u) < 1e-3] += 5e-3
        r = rng.standard_normal(x.shape)

        def run(xv, bv, gv, zv):
            y, _ = rprelu_forward(xv, bv, gv, zv)
            return float(np.sum(y * r))

        _, cache = rprelu_forward(x, beta, gamma, zeta)
        gx, gb, gg, gz = rprelu_backward(r, cache)
        assert rel_err(gx, fd_grad(lambda v: run(v, beta, gamma, zeta), x.copy())) <= 1e-4
        assert rel_err(gb, fd_grad(lambda v: run(x, v, gamma, zeta), beta.copy())) <= 1e-6
        assert rel_err(gg, fd_grad(lambda v: run(x, beta, v, zeta), gamma.copy())) <= 1e-4
        assert rel_err(gz, fd_grad(lambda v: run(x, beta, gamma, v), zeta.copy())) <= 1e-6


def _nhwc(a):
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def test_rprelu_with_negative_beta_pins_plus_zero_at_minus_zero_u_and_zeta():
    # The one case where the branch-free form is not the selected branch to
    # the byte: beta < 0 (or beta = -0) at u = -0 with zeta = -0. There
    # max(0, u) + beta*min(0, u) is -0 + (+0) = +0, and +0 + zeta = +0, where
    # the branch gives -0 + zeta = -0. Everywhere else, the kink u = +0, the
    # zeta = +0 channel and the positive-beta channel included, the bytes are
    # the branch's. The test pins what the code returns, in both dtypes.
    beta = np.array([-0.25, -0.25, -0.0, 0.25])
    gamma = np.zeros(4)
    zeta = np.array([-0.0, 0.0, -0.0, -0.0])
    raw = np.tile(np.array([-0.0, 0.0, 1.5, -2.0, -0.0]), (2, 4, 5, 1))
    for dtype in (np.float64, np.float32):
        x = raw.astype(dtype)
        y, _ = rprelu_forward(x, beta, gamma, zeta)
        want, _ = where_rprelu_forward(x, beta, gamma, zeta)
        differs = (x == 0) & np.signbit(x) & np.array([1, 0, 1, 0], bool)[:, None, None]
        assert y.dtype == want.dtype == dtype
        assert np.array_equal(np.signbit(want[differs]), np.ones(differs.sum(), bool))
        assert np.array_equal(y[differs], np.zeros(differs.sum(), dtype))
        assert not np.signbit(y[differs]).any()
        assert y[~differs].tobytes() == want[~differs].tobytes()


def test_rprelu_equals_the_where_form_byte_for_byte():
    # Signed zeros and the kink (x == gamma), both layouts of x and grad_y,
    # planes below and above the size at which numpy reuses temporaries in
    # place (256 KiB), and both forms of the call: a fresh u, and out=x on a
    # copy of x in its layout, consumed as u. The branch-free form gives
    # u = -0 its sign only because numpy's maximum and minimum return the
    # second operand on a tie of zeros, which numpy does not promise:
    # zeta = -0 (channel 1) catches a build where the tie goes the other way.
    # (grad_beta cannot show it: numpy's sums start from +0, so no channel sum
    # is -0.)
    rng = np.random.default_rng(29)
    for shape in ((3, 8, 5, 5), (64, 32, 14, 14)):
        c = shape[1]
        beta = rng.uniform(0.05, 0.5, c)
        gamma = np.round(rng.standard_normal(c), 1)
        gamma[:2] = 0.0
        zeta = rng.standard_normal(c)
        zeta[0] = 0.0                                    # u = -0 meets zeta = +0
        zeta[1] = -0.0                                   # u = -0 meets zeta = -0
        raw = rng.standard_normal(shape)
        raw[:, :, 0, 0] = gamma[None, :]                 # u = +0, the kink
        raw[:, :2, 1, 1] = -0.0                          # u = -0 - 0 = -0
        raw[:, 0, 2, 2] = 0.0
        for x_layout, consume in itertools.product((np.ascontiguousarray, _nhwc),
                                                   (False, True)):
            x = x_layout(raw)
            xin = x.copy(order="K")
            y, cache = rprelu_forward(xin, beta, gamma, zeta,
                                      out=xin if consume else None)
            ry, rcache = where_rprelu_forward(x, beta, gamma, zeta)
            case = (shape, x_layout.__name__, consume)
            assert (cache["u"] is xin) == consume, case
            for a, b in ((y, ry), (cache["u"], rcache["u"])):
                assert a.tobytes(order="A") == b.tobytes(order="A"), case
                assert a.strides == b.strides, case
            for g_layout in (np.ascontiguousarray, _nhwc):
                gy = g_layout(rng.standard_normal(shape))
                gy[:, :, 3, 3] = 0.0
                got = rprelu_backward(gy, cache)
                want = where_rprelu_backward(gy, rcache)
                assert got[0].strides == want[0].strides, case
                for a, b in zip(got, want):
                    assert a.tobytes(order="A") == b.tobytes(order="A"), case
