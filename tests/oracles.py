"""Independent reference implementations used as test oracles.

Everything here is written for clarity, not speed: explicit loops, no shared
code with the library. Tests compare library output against these.
"""

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


def argsort_grow_tree(x, g, h, cfg):
    """Recursive growth on argsort_best_split, as an rxgb.gbdt.TreeNode."""
    from rxgb.gbdt import TreeNode

    x = np.asarray(x, dtype=np.float32)

    def build(idx, depth):
        gs, hs = float(g[idx].sum()), float(h[idx].sum())
        sp = None
        if depth < cfg.max_depth and idx.size >= 2:
            sp = argsort_best_split(x[idx], g[idx], h[idx], cfg)
        if sp is None:
            w = -cfg.learning_rate * gs / (hs + cfg.reg_lambda)
            return TreeNode(is_leaf=True, weight=float(w))
        f, t = sp
        go_left = x[idx, f] <= t
        return TreeNode(
            is_leaf=False, feature=f, threshold=t, default_direction="left",
            left=build(idx[go_left], depth + 1), right=build(idx[~go_left], depth + 1),
        )

    return build(np.arange(x.shape[0]), 0)
