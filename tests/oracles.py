"""Independent reference implementations used as test oracles.

Everything here is written for clarity, not speed: explicit loops, no shared
code with the library. Tests compare library output against these.
"""

from dataclasses import dataclass

import numpy as np


def naive_conv2d(x, w, stride=1, padding=0, pad_value=0.0):
    """Direct 6-loop cross-correlation, accumulating kernel-major then channel."""
    n, ci, h, wd = x.shape
    co, ci2, kh, kw = w.shape
    assert ci == ci2
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.full((n, ci, h + 2 * padding, wd + 2 * padding), pad_value, dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    y = np.zeros((n, co, oh, ow))
    for b in range(n):
        for o in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for i in range(kh):
                        for j in range(kw):
                            for c in range(ci):
                                acc += w[o, c, i, j] * xp[b, c, oy * stride + i, ox * stride + j]
                    y[b, o, oy, ox] = acc
    return y


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    """Max relative error with an absolute floor for near-zero entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def argsort_best_split(x, g, h, cfg):
    """Exact-greedy split by a fresh stable argsort of every column of the
    node, scored as one [m-1, F] array; returns (feature, threshold) or None.

    The per-node-sort formulation the presorted column block must reproduce
    to the byte: same cumsums, same gain arithmetic, first maximum in
    feature-major order. With reg_lambda = 0 every h must be > 0: a 0/0
    gain would make np.argmax return NaN.
    """
    x = np.asarray(x, dtype=np.float32)
    m, nf = x.shape
    if m < 2:
        return None
    lam = cfg.reg_lambda
    gt = g.sum()
    ht = h.sum()
    parent = gt * gt / (ht + lam)
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    gl = np.cumsum(g[order], axis=0)[:-1]
    hl = np.cumsum(h[order], axis=0)[:-1]
    gr = gt - gl
    hr = ht - hl
    gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - cfg.gamma
    valid = (xs[1:] != xs[:-1]) & (hl >= cfg.min_child_weight) & (hr >= cfg.min_child_weight)
    gains = np.where(valid, gains, -np.inf)
    flat = np.ascontiguousarray(gains.T).reshape(-1)
    idx = int(np.argmax(flat))
    if not flat[idx] > 0.0:
        return None
    f, i = divmod(idx, m - 1)
    a, b = float(xs[i, f]), float(xs[i + 1, f])
    t = (a + b) / 2.0
    if not t < b:
        t = a
    return f, t


def where_column_block(x):
    """rxgb.gbdt._column_block with the sign handled by masked ufuncs: add
    2**31 to the negative sign-extended bits (their magnitude) and negate
    them where the value is negative. The form the integer key transform
    replaced; the two must give equal keys."""
    m, nf = x.shape
    keys = np.empty((nf, m), dtype=np.int64)
    np.copyto(keys, np.asarray(x, dtype=np.float32).T.view(np.int32))
    neg = keys < 0
    np.add(keys, 2**31, out=keys, where=neg)
    np.negative(keys, out=keys, where=neg)
    keys <<= 32
    keys |= np.arange(m)
    keys.sort(axis=1)
    return keys


@dataclass
class Node:
    """A tree as linked nodes, the reference form: leaves carry weight,
    internal nodes the split. A row whose split feature is NaN goes left.
    to_tree converts it to the library's rxgb.gbdt.Tree, from_tree back."""

    is_leaf: bool
    weight: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None

    def depth(self):
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def node_counts(self):
        """(internal nodes, leaves)."""
        if self.is_leaf:
            return 0, 1
        li, ll = self.left.node_counts()
        ri, rl = self.right.node_counts()
        return 1 + li + ri, ll + rl


def stump(feature, threshold, left, right):
    """One split on feature at threshold over leaves of weights left, right."""
    return Node(is_leaf=False, feature=feature, threshold=threshold,
                left=Node(is_leaf=True, weight=left), right=Node(is_leaf=True, weight=right))


def to_tree(node):
    """The rxgb.gbdt.Tree of a Node: slots in breadth-first order, a split's
    children in the next two free slots, a leaf its own child at threshold
    +inf."""
    from rxgb.gbdt import Tree

    order = [node]
    feature, threshold, child, value = [], [], [], []
    for i, nd in enumerate(order):               # order grows as it is read
        leaf = nd.is_leaf
        feature.append(0 if leaf else nd.feature)
        threshold.append(np.inf if leaf else nd.threshold)
        child.append(i if leaf else len(order))
        value.append(nd.weight if leaf else 0.0)
        if not leaf:
            order += [nd.left, nd.right]
    return Tree(feature, threshold, child, value)


def from_tree(tree, i=0):
    """The Node of an rxgb.gbdt.Tree, read from slot i down."""
    c = int(tree.child[i])
    if c == i:
        return Node(is_leaf=True, weight=float(tree.value[i]))
    return Node(is_leaf=False, feature=int(tree.feature[i]),
                threshold=float(tree.threshold[i]),
                left=from_tree(tree, c), right=from_tree(tree, c + 1))


def argsort_grow_tree(x, g, h, cfg):
    """Recursive growth on argsort_best_split, as a Node."""
    x = np.asarray(x, dtype=np.float32)

    def build(idx, depth):
        gs, hs = float(g[idx].sum()), float(h[idx].sum())
        sp = None
        if depth < cfg.max_depth and idx.size >= 2:
            sp = argsort_best_split(x[idx], g[idx], h[idx], cfg)
        if sp is None:
            w = -cfg.learning_rate * gs / (hs + cfg.reg_lambda)
            return Node(is_leaf=True, weight=float(w))
        f, t = sp
        go_left = x[idx, f] <= t
        return Node(
            is_leaf=False, feature=f, threshold=t,
            left=build(idx[go_left], depth + 1), right=build(idx[~go_left], depth + 1),
        )

    return build(np.arange(x.shape[0]), 0)


def node_walk_predict(node, x32):
    """Route all rows of x32 [N, F] through one Node tree node by node, a
    NaN feature going left; returns [N] leaf weights. The per-tree walk that
    the library's level-by-level routing over node arrays replaced."""
    n = x32.shape[0]
    out = np.empty(n)
    stack = [(node, np.arange(n))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if nd.is_leaf:
            out[idx] = nd.weight
            continue
        col = x32[idx, nd.feature]
        go_left = col <= np.float64(nd.threshold)
        go_left |= np.isnan(col)
        stack.append((nd.left, idx[go_left]))
        stack.append((nd.right, idx[~go_left]))
    return out


def nchw_im2col(x, geom, pad_value=0.0):
    """(padded input, patch matrix [N*OH*OW, kh*kw*Ci]) as first written: the
    ring added in NCHW by np.pad, then one gather of every window, transposed
    to the (kh, kw, ci) reduction order."""
    kh, kw = geom.kernel
    s, p = geom.stride, geom.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=pad_value)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::s, ::s]                            # [N, Ci, OH, OW, kh, kw]
    n, ci, oh, ow = win.shape[:4]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 4, 5, 1))
    return xp, cols.reshape(n * oh * ow, kh * kw * ci)


def nchw_conv2d_backward(grad_y, x, w, geom, pad_value=0.0):
    """conv2d_backward with the col2im scatter done in NCHW, one transposed
    tap at a time.

    The layout the NHWC scatter replaced. It runs the same products, on the
    NCHW patch matrix and the library's fixed-block matmul, so the two must
    agree to the byte: every input cell receives the same adds in the same
    tap order.
    """
    from rxgb.tensor_ops import _matmul, _weight_matrix

    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, ci, h, wd = x.shape
    co = w.shape[0]
    kh, kw = geom.kernel
    s, p = geom.stride, geom.padding
    oh, ow = geom.out_extent(h, wd)
    gy = np.ascontiguousarray(np.transpose(grad_y, (0, 2, 3, 1))).reshape(-1, co)
    xp, cols = nchw_im2col(x, geom, pad_value)
    gw = _matmul(gy.T, cols).reshape(co, kh, kw, ci).transpose(0, 3, 1, 2)
    gcols = _matmul(gy, _weight_matrix(w).T).reshape(n, oh, ow, kh, kw, ci)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += (
                gcols[:, :, :, i, j, :].transpose(0, 3, 1, 2)
            )
    if p:
        gxp = gxp[:, :, p:-p, p:-p]
    return gxp, np.ascontiguousarray(gw)


def piecewise_approxsign_dydu(u):
    """Surrogate derivative by masks: 2 + 2u on [-1, 0), 2 - 2u on [0, 1),
    0 elsewhere and at NaN."""
    d = np.zeros_like(u)
    neg = (u >= -1.0) & (u < 0.0)
    pos = (u >= 0.0) & (u < 1.0)
    d[neg] = 2.0 + 2.0 * u[neg]
    d[pos] = 2.0 - 2.0 * u[pos]
    return d


def _wired_forward(model, p, x, bn, binconv):
    """(head output, pooled features) of the block wiring spelled out layer
    by layer, with the caller's ``bn(prefix, z)`` and ``binconv(prefix, a,
    geom)``; RSign, RPReLU, the stem conv and the FC head are the training
    ops on the params ``p`` (see _f32_reals), their caches discarded."""
    from rxgb import bitops, netspec, tensor_ops as T

    g3, g3s2 = T.ConvGeometry((3, 3), 1, 1), T.ConvGeometry((3, 3), 2, 1)
    g1 = T.ConvGeometry((1, 1), 1, 0)

    def rprelu(prefix, z):
        return bitops.rprelu_forward(z, p[f"{prefix}.beta"], p[f"{prefix}.gamma"],
                                     p[f"{prefix}.zeta"])[0]

    def rsign(prefix, z):
        return bitops.rsign_forward(z, p[f"{prefix}.shift"])[0]

    h = np.asarray(x, dtype=np.float64)
    feats = None
    for layer in model.spec.layers:
        n = layer.name
        if layer.kind == netspec.FIRST_CONV:
            h = bn(f"{n}.bn", T.conv2d_forward(h, p[f"{n}.conv.w"], g3s2))
        elif layer.kind == netspec.NORMAL:
            b1 = bn(f"{n}.bn_conv3x3",
                    binconv(f"{n}.conv3x3", rsign(f"{n}.rsign_conv3x3", h), g3))
            d1 = rprelu(f"{n}.rprelu_conv3x3", b1 + h)
            b2 = bn(f"{n}.bn_conv1x1",
                    binconv(f"{n}.conv1x1", rsign(f"{n}.rsign_conv1x1", d1), g1))
            h = rprelu(f"{n}.rprelu_conv1x1", b2 + d1)
        elif layer.kind == netspec.REDUCTION:
            s = layer.stride
            _, _, hh, ww = h.shape
            if s == 2 and (hh % 2 or ww % 2):
                h = np.pad(h, ((0, 0), (0, 0), (0, hh % 2), (0, ww % 2)))
            a1 = rsign(f"{n}.rsign_conv3x3", h)
            b1 = bn(f"{n}.bn_conv3x3", binconv(f"{n}.conv3x3", a1, g3s2 if s == 2 else g3))
            d1 = rprelu(f"{n}.rprelu_conv3x3", b1 + (T.avgpool_2x2(h) if s == 2 else h))
            a2 = rsign(f"{n}.rsign_conv1x1", d1)
            ba = bn(f"{n}.bn_conv1x1_a", binconv(f"{n}.conv1x1_a", a2, g1))
            bb = bn(f"{n}.bn_conv1x1_b", binconv(f"{n}.conv1x1_b", a2, g1))
            h = rprelu(f"{n}.rprelu_out", np.concatenate([ba + d1, bb + d1], axis=1))
        elif layer.kind == netspec.GLOBAL_POOL:
            h = feats = T.avgpool_global(h)
        else:
            h = T.linear_forward(h, p[f"{n}.w"])
    return h, feats


def _f32(a):
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _f32_reals(model):
    """The params as deployed: every real rounded to float32, latents kept."""
    return {k: v if k.endswith(".w_latent") else _f32(v) for k, v in model.params.items()}


def _sign_weights(model, prefix):
    """(int8 sign(latent), float32-rounded alpha) of a binary conv."""
    from rxgb import bitops

    w_sign, alpha = bitops.sign_weights(model.params[f"{prefix}.w_latent"])
    return w_sign, _f32(alpha)


def training_graph_forward(model, x):
    """(head output, pooled features) of the training graph in inference mode.

    The forward the frozen plan replaced: every binary conv re-derives
    sign(latent) and alpha from the latents, runs the integer conv on 4-d
    filters and scales its sums by alpha; every batch norm normalizes with
    the running statistics, ((z - run_mean) / sqrt(run_var + 1e-5)) * gamma
    + beta, in the op order of the batch norm inference mode the library
    had. Alpha and every real are rounded to float32, as deployed. The plan
    folds alpha and batch norm, so it agrees with this to rounding only.
    """
    from rxgb import tensor_ops as T

    p = _f32_reals(model)

    def bn(prefix, z):
        inv_std = 1.0 / np.sqrt(p[f"{prefix}.run_var"] + 1e-5)
        xhat = z - p[f"{prefix}.run_mean"][None, :, None, None]
        xhat *= inv_std[None, :, None, None]
        y = xhat * p[f"{prefix}.gamma"][None, :, None, None]
        y += p[f"{prefix}.beta"][None, :, None, None]
        return y

    def binconv(prefix, a, geom):
        w_sign, alpha = _sign_weights(model, prefix)
        return T.conv2d_forward(a, w_sign, geom, pad_value=-1) * alpha[None, :, None, None]

    return _wired_forward(model, p, x, bn, binconv)


def folded_plan_forward(model, x):
    """(head output, pooled features) in the frozen plan's arithmetic.

    Every binary conv yields its exact integer sums, and the batch norm after
    it applies one float64 scale and shift per channel, computed here from
    the float32-rounded reals:

        g = gamma / sqrt(run_var + 1e-5)
        scale = alpha * g        alpha of the conv the BN follows; 1 at the stem
        shift = beta - run_mean * g
        y = sums * scale + shift

    RSign is sign(x - shift) and RPReLU the training op. The plan must agree
    with it to the byte.
    """
    from rxgb import tensor_ops as T

    p = _f32_reals(model)
    alphas = {}

    def bn(prefix, z):
        g = p[f"{prefix}.gamma"] / np.sqrt(p[f"{prefix}.run_var"] + 1e-5)
        scale = alphas.pop(prefix, 1.0) * g
        shift = p[f"{prefix}.beta"] - p[f"{prefix}.run_mean"] * g
        return z * scale[None, :, None, None] + shift[None, :, None, None]

    def binconv(prefix, a, geom):
        w_sign, alphas[prefix.replace(".", ".bn_", 1)] = _sign_weights(model, prefix)
        return T.conv2d_forward(a, w_sign, geom, pad_value=-1)

    return _wired_forward(model, p, x, bn, binconv)


def _payload_walk(model):
    """Yield ("bits", latent) and ("f32", array) items in deployment order,
    spelled out kind by kind."""
    from rxgb import netspec

    bn_keys = ("gamma", "beta", "run_mean", "run_var")
    rprelu_keys = ("beta", "gamma", "zeta")
    p = model.params
    for layer in model.spec.layers:
        name, kind = layer.name, layer.kind
        if kind == netspec.FIRST_CONV:
            yield "f32", p[f"{name}.conv.w"]
            for k in bn_keys:
                yield "f32", p[f"{name}.bn.{k}"]
        elif kind in (netspec.NORMAL, netspec.REDUCTION):
            convs = (["conv1x1"] if kind == netspec.NORMAL
                     else ["conv1x1_a", "conv1x1_b"])
            tail_rp = "rprelu_conv1x1" if kind == netspec.NORMAL else "rprelu_out"
            yield "f32", p[f"{name}.rsign_conv3x3.shift"]
            yield "bits", p[f"{name}.conv3x3.w_latent"]
            for k in bn_keys:
                yield "f32", p[f"{name}.bn_conv3x3.{k}"]
            for k in rprelu_keys:
                yield "f32", p[f"{name}.rprelu_conv3x3.{k}"]
            yield "f32", p[f"{name}.rsign_conv1x1.shift"]
            for conv in convs:
                yield "bits", p[f"{name}.{conv}.w_latent"]
            for conv in convs:
                for k in bn_keys:
                    yield "f32", p[f"{name}.bn_{conv}.{k}"]
            for k in rprelu_keys:
                yield "f32", p[f"{name}.{tail_rp}.{k}"]
        elif kind == netspec.FC_HEAD:
            yield "f32", p[f"{name}.w"]


def deployed_payload(model):
    """The deployment payload as first written: every binary conv's sign bits
    (1 where the latent is >= 0) packed LSB-first, then the reals as float32
    in walk order, each binary conv's alpha (mean |latent| per output channel)
    at its sign bits' position."""
    bit_chunks, f32_chunks = [], []
    for kind, arr in _payload_walk(model):
        if kind == "bits":
            bit_chunks.append((arr.reshape(-1) >= 0).astype(np.uint8))
            f32_chunks.append(np.abs(arr).mean(axis=(1, 2, 3)).astype("<f4"))
        else:
            f32_chunks.append(np.ascontiguousarray(arr, dtype="<f4"))
    packed = np.packbits(np.concatenate(bit_chunks), bitorder="little")
    reals = np.concatenate([c.reshape(-1) for c in f32_chunks])
    return packed.tobytes() + reals.tobytes()


# --- the training ops as first written, for byte-equality checks ---------------
#
# Each computes in the dtype the library op computes in: float32 for a float32
# activation or gradient, float64 for any other.


def _compute_dtype(a):
    return np.float32 if np.asarray(a).dtype == np.float32 else np.float64


def effective_weights(w_latent):
    """alpha[co] * sign(w_latent) in float64: the real filters a binary conv
    stands for, as the training path once multiplied them."""
    from rxgb import bitops

    sgn, alpha = bitops.sign_weights(w_latent)
    return sgn * alpha[:, None, None, None]


def dense_conv2d_backward(grad_y, x, w, geom, pad_value=0.0, alpha=None):
    """conv2d_backward on float64 operands with one dense grad_x product.

    The form the int8 operands and image chunks replaced:
    x and the filters alpha[co] * w become float64 whole, grad_x is one
    [N*OH*OW, kh*kw*Ci] product scattered tap by tap. It runs the library's
    fixed-block matmul, so the two must agree to the byte.
    """
    from rxgb.tensor_ops import _matmul, _weight_matrix

    dt = _compute_dtype(grad_y)
    x = np.asarray(x, dtype=dt)
    w = np.asarray(w, dtype=dt)
    if alpha is not None:
        w = w * np.asarray(alpha, dtype=dt)[:, None, None, None]
    grad_y = np.asarray(grad_y, dtype=dt)
    n, ci, h, wd = x.shape
    co = w.shape[0]
    kh, kw = geom.kernel
    s, p = geom.stride, geom.padding
    oh, ow = geom.out_extent(h, wd)
    gy = np.ascontiguousarray(grad_y.transpose(0, 2, 3, 1)).reshape(-1, co)
    xp, cols = nchw_im2col(x, geom, pad_value)
    gw = _matmul(gy.T, cols).reshape(co, kh, kw, ci).transpose(0, 3, 1, 2)
    gcols = _matmul(gy, _weight_matrix(w).T).reshape(n, oh, ow, kh, kw, ci)
    gxp = np.zeros((n, xp.shape[2], xp.shape[3], ci), dt)
    for i in range(kh):
        for j in range(kw):
            gxp[:, i:i + s * oh:s, j:j + s * ow:s, :] += gcols[:, :, :, i, j, :]
    if p:
        gxp = gxp[:, p:-p, p:-p, :]
    return gxp.transpose(0, 3, 1, 2), np.ascontiguousarray(gw)


def _reads_ring_mostly(n, h, wd, geom, min_images=128):
    """Whether conv2d_backward takes its interior-tap form: a batch of at
    least 128 images on which more than half of the (output, tap) pairs read
    the pad ring, counted pair by pair."""
    kh, kw = geom.kernel
    s, p = geom.stride, geom.padding
    oh, ow = geom.out_extent(h, wd)
    ring = sum(not (0 <= a * s + i - p < h and 0 <= b * s + j - p < wd)
               for a in range(oh) for b in range(ow)
               for i in range(kh) for j in range(kw))
    return n >= min_images and 2 * ring > oh * ow * kh * kw


def interior_conv2d_backward(grad_y, x, w, geom, pad_value=0.0, alpha=None):
    """conv2d_backward's interior-tap form on float64 operands, tap by tap.

    For each output position (a, b) in row-major order and each tap row i
    with taps j0..j1 that read the input: one fixed-block matmul of
    grad_y[:, :, a, b] times alpha by those taps' unscaled filters, added
    tap by tap into the input cells they read, and one of
    grad_y[:, :, a, b].T by those cells, added tap by tap into the taps'
    weight gradient. Each tap that reads the ring at (a, b) collects
    grad_y[:, :, a, b] summed over images in image order; the weight
    gradient then gets pad_value times that. The products have the
    library's shapes, so the two must agree to the byte. grad_x is returned
    as an NCHW view of NHWC memory.
    """
    from rxgb.tensor_ops import _matmul

    dt = _compute_dtype(grad_y)
    x = np.asarray(x, dtype=dt)
    w = np.asarray(w, dtype=dt)
    n, ci, h, wd = x.shape
    co = w.shape[0]
    kh, kw = geom.kernel
    s, p = geom.stride, geom.padding
    oh, ow = geom.out_extent(h, wd)
    gy = np.ascontiguousarray(np.asarray(grad_y, dtype=dt).transpose(0, 2, 3, 1))
    gx = np.zeros((n, h, wd, ci), dt)
    gw = np.zeros((co, ci, kh, kw), dt)
    ring = np.zeros((co, kh, kw), dt)
    for a in range(oh):
        for b in range(ow):
            g = gy[:, a, b]                               # [N, Co]
            g_scaled = g if alpha is None else g * np.asarray(alpha, dtype=dt)
            g_sum = np.zeros(co, dt)
            for image in range(n):
                g_sum += g[image]
            for i in range(kh):
                r = a * s + i - p
                taps = [j for j in range(kw) if 0 <= r < h and 0 <= b * s + j - p < wd]
                for j in range(kw):
                    if j not in taps:
                        ring[:, i, j] += g_sum
                if not taps:
                    continue
                w_cols = np.concatenate([w[:, :, i, j] for j in taps], axis=1)
                x_rows = np.concatenate([x[:, :, r, b * s + j - p] for j in taps], axis=1)
                gcols = _matmul(g_scaled, w_cols)
                wcols = _matmul(g.T, x_rows)
                for t, j in enumerate(taps):
                    gx[:, r, b * s + j - p, :] += gcols[:, t * ci:(t + 1) * ci]
                    gw[:, :, i, j] += wcols[:, t * ci:(t + 1) * ci]
    if pad_value:
        gw += pad_value * ring[:, None]
    return gx.transpose(0, 3, 1, 2), gw


def reference_conv2d_backward(grad_y, x, w, geom, pad_value=0.0, alpha=None):
    """interior_conv2d_backward where the library takes its interior-tap form,
    dense_conv2d_backward everywhere else."""
    n, _, h, wd = x.shape
    form = (interior_conv2d_backward if _reads_ring_mostly(n, h, wd, geom)
            else dense_conv2d_backward)
    return form(grad_y, x, w, geom, pad_value, alpha)


def dense_sign_conv2d(x, w_rows, geom, pad_value=-1):
    """sign_conv2d as one float32 product over the whole patch matrix, pad
    ring included: the form the interior-tap products and the XNOR kernel's
    ring constants replaced, on filter rows [Co, kh*kw*Ci]. Its sums are
    exact integers, so the two must agree to the byte, strides included."""
    n, _, h, wd = x.shape
    oh, ow = geom.out_extent(h, wd)
    cols = nchw_im2col(x, geom, int(pad_value))[1].astype(np.float32)
    return (cols @ w_rows.T).reshape(n, oh, ow, len(w_rows)).transpose(0, 3, 1, 2)


def blocked_channel_sums(x, block=128):
    """Per-channel sums of x [N, C, H, W] over (N, H, W) in the library's
    order, spelled out: the rows of x's NHWC view, ``block`` at a time, each
    block's rows added one by one from +0, then the block sums added one by
    one from +0, the remainder block last. The remainder is padded with +0
    rows, which leave its sum unchanged: a sum begun at +0 is never -0."""
    c = x.shape[1]
    dt = _compute_dtype(x)
    rows = np.asarray(x, dtype=dt).transpose(0, 2, 3, 1).reshape(-1, c)
    blocks = -(-len(rows) // block)
    padded = np.zeros((blocks * block, c), dt)
    padded[:len(rows)] = rows
    padded = padded.reshape(blocks, block, c)
    block_sums = np.zeros((blocks, c), dt)
    for r in range(block):
        block_sums += padded[:, r]
    total = np.zeros(c, dt)
    for block_sum in block_sums:
        total += block_sum
    return total


def where_rprelu_forward(x, beta, gamma, zeta, out=None):
    """RPReLU selecting its branch with np.where on the sign mask of u, in
    fresh temporaries: ``out`` is accepted and ignored."""
    x = np.asarray(x, dtype=_compute_dtype(x))
    beta, gamma, zeta = (np.asarray(a, dtype=x.dtype) for a in (beta, gamma, zeta))
    u = x - gamma[None, :, None, None]
    pos = u >= 0
    y = np.where(pos, u, beta[None, :, None, None] * u) + zeta[None, :, None, None]
    return y, {"u": u, "pos": pos, "beta": beta}


def where_rprelu_backward(grad_y, cache):
    u, pos, beta = cache["u"], cache["pos"], cache["beta"]
    g = np.asarray(grad_y, dtype=_compute_dtype(grad_y))
    slope = np.where(pos, 1.0, beta[None, :, None, None])
    grad_x = g * slope
    grad_gamma = -blocked_channel_sums(grad_x)
    grad_beta = blocked_channel_sums(g * np.where(pos, 0.0, u))
    grad_zeta = blocked_channel_sums(g)
    return grad_x, grad_beta, grad_gamma, grad_zeta


def temporaries_batchnorm_forward(x, gamma, beta, running_mean, running_var, out=None):
    """Batch norm (momentum 0.1, eps 1e-5) with the batch mean and biased
    variance from blocked_channel_sums, in fresh temporaries: ``out`` is
    accepted and ignored."""
    momentum, eps = 0.1, 1e-5
    x = np.asarray(x, dtype=_compute_dtype(x))
    gamma, beta = (np.asarray(a, dtype=x.dtype) for a in (gamma, beta))
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean = blocked_channel_sums(x) / m
    var = blocked_channel_sums((x - mean[None, :, None, None]) ** 2) / m
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    running_var *= 1.0 - momentum
    running_var += momentum * var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return y, {"xhat": xhat, "gamma": gamma, "inv_std": inv_std, "m": m}


def temporaries_batchnorm_backward(grad_y, cache, out=None):
    """Batch-norm backward as one expression per gradient; ``out`` is
    accepted, for the library's signature, and left unwritten."""
    xhat, gamma, inv_std, m = cache["xhat"], cache["gamma"], cache["inv_std"], cache["m"]
    grad_y = np.asarray(grad_y, dtype=_compute_dtype(grad_y))
    dgamma = blocked_channel_sums(grad_y * xhat)
    dbeta = blocked_channel_sums(grad_y)
    dxhat = grad_y * gamma[None, :, None, None]
    s1 = blocked_channel_sums(dxhat)[None, :, None, None]
    s2 = blocked_channel_sums(dxhat * xhat)[None, :, None, None]
    dx = (inv_std[None, :, None, None] / m) * (m * dxhat - s1 - xhat * s2)
    return dx, dgamma, dbeta


# (module name, attribute, oracle) of every training op the oracles above stand
# in for; patch all of them together, since each forward's cache feeds its own
# backward.
TRAINING_OP_ORACLES = (
    ("tensor_ops", "conv2d_backward", reference_conv2d_backward),
    ("tensor_ops", "batchnorm_forward", temporaries_batchnorm_forward),
    ("tensor_ops", "batchnorm_backward", temporaries_batchnorm_backward),
    ("bitops", "rprelu_forward", where_rprelu_forward),
    ("bitops", "rprelu_backward", where_rprelu_backward),
)


def written_order_avgpool_2x2(x):
    """2x2 mean pool of a C-order copy of x: each window [[x00, x01], [x10, x11]]
    summed as (x00 + x01) + (x10 + x11), then divided by 4."""
    n, c, h, w = x.shape
    v = np.ascontiguousarray(x, dtype=np.float64).reshape(n, c, h // 2, 2, w // 2, 2)
    return ((v[:, :, :, 0, :, 0] + v[:, :, :, 0, :, 1])
            + (v[:, :, :, 1, :, 0] + v[:, :, :, 1, :, 1])) / 4


def is_nhwc_memory(a):
    """Whether a 4-d [N, C, H, W] array lies in NHWC memory: its NHWC
    transpose is C-contiguous or a slice (of channels, or a spatial crop) of
    a C-contiguous array, so channels are innermost at unit stride. Axes of
    extent 1 carry no order and are skipped."""
    t = a.transpose(0, 2, 3, 1)
    if t.shape[3] > 1 and t.strides[3] != a.itemsize:
        return False
    inner = a.itemsize
    for n, s in reversed([d for d in zip(t.shape, t.strides) if d[0] > 1]):
        if s < inner:
            return False
        inner = s * n
    return True


# (case, regex, replacement): edits of a serialized gbdt model that each put
# one non-finite value into a real field, applied to the first match.
NON_FINITE_MODEL_EDITS = (
    ("learning_rate", r"(?m)^learning_rate=.*$", "learning_rate=nan"),
    ("reg_lambda", r"(?m)^reg_lambda=.*$", "reg_lambda=inf"),
    ("gamma", r"(?m)^gamma=.*$", "gamma=nan"),
    ("min_child_weight", r"(?m)^min_child_weight=.*$", "min_child_weight=nan"),
    ("base_score", r"(?m)^base_scores=\S+", "base_scores=-inf"),
    ("threshold", r" t=\S+", " t=inf"),
    ("leaf", r"\(leaf w=[^)]*\)", "(leaf w=nan)"),
)
