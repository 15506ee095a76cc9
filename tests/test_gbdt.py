"""Tests for the boosted-tree module.

Split selection is checked against a brute-force enumerator that scores every
(feature, adjacent-value-pair) candidate directly from partition sums; tree
growth against a recursive oracle built on that enumerator; gradients and
Hessians against finite differences of the summed log-loss; prediction
against per-row tracer routing.
"""

import hashlib
import re

import numpy as np
import pytest
from oracles import (
    NON_FINITE_MODEL_EDITS,
    Node,
    argsort_grow_tree,
    from_tree,
    node_walk_predict,
    stump,
    to_tree,
    where_column_block,
)

from rxgb import gbdt
from rxgb.gbdt import (
    FormatError,
    GBDTConfig,
    Split,
    TreeEnsemble,
    best_split,
    deserialize,
    predict_class,
    predict_margins,
    serialize,
    softmax_grad_hess,
    train_ensemble,
)


def _loss(margins, labels):
    z = margins - margins.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(labels)), labels].sum()


def grow_tree(x, g, h, cfg):
    """One tree grown as train_ensemble grows each: _grow on x's column block."""
    return gbdt._grow(x, gbdt._column_block(x), g, h, cfg)[0]


def brute_best_split(x, g, h, cfg):
    """Enumerate every candidate split and score it from scratch."""
    x = np.asarray(x, dtype=np.float32)
    m, nf = x.shape
    lam = cfg.reg_lambda
    gt, ht = g.sum(), h.sum()
    parent = gt * gt / (ht + lam)
    best = None
    for f in range(nf):
        vals = np.unique(x[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            t = (float(a) + float(b)) / 2.0
            if not t < float(b):
                t = float(a)
            mask = x[:, f] <= t
            glv, hlv = g[mask].sum(), h[mask].sum()
            grv, hrv = gt - glv, ht - hlv
            if hlv < cfg.min_child_weight or hrv < cfg.min_child_weight:
                continue
            gain = 0.5 * (
                glv * glv / (hlv + lam) + grv * grv / (hrv + lam) - parent
            ) - cfg.gamma
            if gain > 0 and (best is None or gain > best.gain + 1e-12):
                best = Split(feature=f, threshold=t, gain=gain)
    return best


def oracle_tree(x, g, h, cfg, depth=0):
    gs, hs = g.sum(), h.sum()
    leaf = Node(
        is_leaf=True,
        weight=float(-cfg.learning_rate * gs / (hs + cfg.reg_lambda)),
    )
    if depth >= cfg.max_depth or len(g) < 2:
        return leaf
    sp = brute_best_split(x, g, h, cfg)
    if sp is None:
        return leaf
    mask = x[:, sp.feature] <= sp.threshold
    return Node(
        is_leaf=False, feature=sp.feature, threshold=sp.threshold,
        left=oracle_tree(x[mask], g[mask], h[mask], cfg, depth + 1),
        right=oracle_tree(x[~mask], g[~mask], h[~mask], cfg, depth + 1),
    )


def test_softmax_grad_hess_matches_finite_differences():
    rng = np.random.default_rng(0)
    margins = rng.normal(size=(6, 4)) * 2.0
    labels = rng.integers(0, 4, size=6)
    g, h = softmax_grad_hess(margins, labels)
    eps = 1e-5
    for i in range(6):
        for k in range(4):
            mp = margins.copy(); mp[i, k] += eps
            mm = margins.copy(); mm[i, k] -= eps
            fd_g = (_loss(mp, labels) - _loss(mm, labels)) / (2 * eps)
            fd_h = (
                _loss(mp, labels) - 2 * _loss(margins, labels) + _loss(mm, labels)
            ) / eps**2
            assert abs(g[i, k] - fd_g) < 1e-8
            assert abs(h[i, k] - fd_h) < 1e-4


def test_softmax_grad_hess_known_values():
    # equal margins over K classes: p = 1/K everywhere
    margins = np.zeros((2, 4))
    labels = np.array([0, 3])
    g, h = softmax_grad_hess(margins, labels)
    assert np.allclose(h, 0.25 * 0.75)
    assert np.allclose(g[0], [0.25 - 1, 0.25, 0.25, 0.25])
    assert np.allclose(g[1], [0.25, 0.25, 0.25, 0.25 - 1])
    # extreme margins must not overflow
    g, h = softmax_grad_hess(np.array([[1000.0, -1000.0]]), np.array([1]))
    assert np.isfinite(g).all() and np.isfinite(h).all()
    assert g[0, 0] == pytest.approx(1.0)


def test_softmax_grad_hess_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels"):
        softmax_grad_hess(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError, match="labels shape"):
        softmax_grad_hess(np.zeros((2, 3)), np.array([0]))


def test_best_split_hand_case():
    # one feature cleanly separating negative from positive gradients
    x = np.array([[0.0], [1.0], [2.0], [3.0]], dtype=np.float32)
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.ones(4)
    cfg = GBDTConfig(n_classes=2, reg_lambda=1.0, min_child_weight=0.0)
    sp = best_split(x, g, h, cfg)
    assert sp.feature == 0
    assert sp.threshold == 1.5
    # gain = 1/2 * [4/3 + 4/3 - 0] = 4/3
    assert sp.gain == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_best_split_none_when_no_improvement():
    cfg = GBDTConfig(n_classes=2)
    # constant feature: no candidate thresholds at all
    x = np.full((5, 2), 3.0, dtype=np.float32)
    g = np.arange(5.0) - 2.0
    assert best_split(x, g, np.ones(5), cfg) is None
    # single row
    assert best_split(x[:1], g[:1], np.ones(1), cfg) is None
    # identical gradients: every split has exactly zero gain -> None
    x = np.arange(6, dtype=np.float32).reshape(6, 1)
    assert best_split(x, np.ones(6), np.ones(6), cfg) is None


def test_best_split_respects_min_child_weight():
    x = np.array([[0.0], [1.0], [2.0], [3.0]], dtype=np.float32)
    g = np.array([-5.0, 1.0, 1.0, 1.0])
    h = np.ones(4)
    # unconstrained, the isolated big gradient wins the first cut
    cfg0 = GBDTConfig(n_classes=2, min_child_weight=0.0)
    assert best_split(x, g, h, cfg0).threshold == 0.5
    # requiring two samples of hessian mass per child forbids that cut
    cfg2 = GBDTConfig(n_classes=2, min_child_weight=2.0)
    sp = best_split(x, g, h, cfg2)
    assert sp.threshold == 1.5


def test_best_split_gamma_penalty_can_veto():
    x = np.array([[0.0], [1.0], [2.0], [3.0]], dtype=np.float32)
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.ones(4)
    gain0 = best_split(x, g, h, GBDTConfig(n_classes=2)).gain
    cfg = GBDTConfig(n_classes=2, gamma=gain0 + 1e-9)
    assert best_split(x, g, h, cfg) is None
    cfg = GBDTConfig(n_classes=2, gamma=gain0 - 1e-9)
    sp = best_split(x, g, h, cfg)
    assert sp is not None and sp.gain == pytest.approx(1e-9, abs=1e-12)


def test_best_split_tie_breaks_lowest_feature_then_threshold():
    # two identical features -> identical gains; feature 0 must win
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], dtype=np.float32)
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    sp = best_split(x, g, np.ones(4), GBDTConfig(n_classes=2, min_child_weight=0.0))
    assert sp.feature == 0
    # symmetric gradients: cuts at 0.5 and 2.5 tie; lowest threshold wins
    x = np.array([[0.0], [1.0], [2.0], [3.0]], dtype=np.float32)
    g = np.array([1.0, -1.0, -1.0, 1.0])
    sp = best_split(x, g, np.ones(4), GBDTConfig(n_classes=2, min_child_weight=0.0))
    assert sp.threshold == 0.5


def test_best_split_matches_brute_force_on_random_datasets():
    rng = np.random.default_rng(7)
    checked_none = 0
    for trial in range(220):
        m = int(rng.integers(2, 30))
        nf = int(rng.integers(1, 6))
        if trial % 3 == 0:
            # small-integer grids force duplicated values and exact gain ties
            x = rng.integers(0, 4, size=(m, nf)).astype(np.float32)
            g = rng.integers(-2, 3, size=m).astype(np.float64)
            h = np.ones(m)
        else:
            x = rng.normal(size=(m, nf)).astype(np.float32)
            g = rng.normal(size=m)
            h = rng.uniform(0.05, 1.0, size=m)
        cfg = GBDTConfig(
            n_classes=2,
            reg_lambda=float(rng.uniform(0.0, 2.0)),
            gamma=float(rng.uniform(0.0, 0.2)),
            min_child_weight=float(rng.choice([0.0, 0.5, 1.5])),
        )
        got = best_split(x, g, h, cfg)
        want = brute_best_split(x, g, h, cfg)
        if want is None:
            assert got is None
            checked_none += 1
        else:
            assert got is not None
            assert got.gain == pytest.approx(want.gain, abs=1e-9)
            # on exact gain ties the enumerator may settle elsewhere; the
            # vectorized scan must agree whenever the optimum is unique
            if got.feature != want.feature or got.threshold != want.threshold:
                mask = x[:, got.feature] <= got.threshold
                gl, hl = g[mask].sum(), h[mask].sum()
                gr, hr = g.sum() - gl, h.sum() - hl
                lam = cfg.reg_lambda
                alt = 0.5 * (
                    gl**2 / (hl + lam) + gr**2 / (hr + lam)
                    - g.sum() ** 2 / (h.sum() + lam)
                ) - cfg.gamma
                assert alt == pytest.approx(want.gain, abs=1e-9)
    assert checked_none > 5  # the sweep must exercise the no-split branch


def test_best_split_nan_candidate_does_not_veto_valid_splits():
    # with lambda = 0 the first prefix has HL = GL = 0 and scores 0/0 = NaN;
    # NaN candidates are invalid, like every other non-positive gain
    x = np.arange(6, dtype=np.float32).reshape(6, 1)
    g = np.array([0.0, 0.0, -1.0, -1.0, 1.0, 1.0])
    h = np.array([0.0, 0.0, 0.25, 0.25, 0.25, 0.25])
    cfg = GBDTConfig(n_classes=2, reg_lambda=0.0, min_child_weight=0.0)
    with np.errstate(invalid="ignore"):
        assert brute_best_split(x, g, h, cfg) == Split(feature=0, threshold=3.5, gain=8.0)
    assert best_split(x, g, h, cfg) == Split(feature=0, threshold=3.5, gain=8.0)


def _tie_heavy(rng, n, base_features, copies, k):
    """Class-conditional features in {-1, 0, 1, 2} repeated `copies` times
    side by side, rows drawn with replacement (duplicate rows), zeros signed
    at random (-0.0 == 0.0, so they tie)."""
    proto = rng.integers(0, 4, size=(n // 3, base_features))
    labels = rng.integers(0, k, size=n // 3)
    proto[:, : k] = np.minimum(proto[:, : k] + (labels[:, None] == np.arange(k)), 3)
    rows = rng.integers(0, n // 3, size=n)
    x = np.tile(proto[rows] - 1, (1, copies)).astype(np.float32)
    x[x == 0] *= rng.choice(np.float32([-1, 1]), size=int((x == 0).sum()))
    return x, labels[rows]


@pytest.mark.parametrize("k, depth, gamma, mcw, lam", [
    (2, 6, 0.0, 1.0, 1.0),
    (3, 4, 0.05, 0.5, 1.0),
    (4, 5, 0.0, 0.0, 0.3),
    (5, 3, 0.02, 2.0, 1.0),
    (3, 6, 0.0, 0.1, 0.0),
])
def test_model_bytes_equal_per_node_argsort_reference(k, depth, gamma, mcw, lam):
    """train_ensemble's model text equals, byte for byte, a run that argsorts
    every node's columns afresh (tests/oracles.py). Identical column copies
    make exact gain ties, and the root scan spans several feature blocks, so
    the ties cross block boundaries; lambda = 0 makes splits of pure nodes
    score 0 up to rounding, so decisions follow the last bits of the sums."""
    rng = np.random.default_rng(100 + k + depth)
    x, y = _tie_heavy(rng, 2400, 8, 6, k)
    assert x.shape[1] > gbdt._BLOCK // x.shape[0]      # root scan spans blocks
    cfg = GBDTConfig(
        n_classes=k, max_trees=2 * k, max_depth=depth, gamma=gamma,
        min_child_weight=mcw, reg_lambda=lam, learning_rate=0.5,
    )
    margins = np.zeros((len(y), k))
    trees = []
    for _ in range(2):                  # max_trees = 2k: two rounds of k trees
        g, h = softmax_grad_hess(margins, y)
        for c in range(k):
            tree = argsort_grow_tree(x, g[:, c], h[:, c], cfg)
            margins[:, c] += node_walk_predict(tree, x)
            trees.append((c, tree))
    # the last split level takes no partition: some tree must reach it
    assert max(t.depth() for _, t in trees) == depth
    want = TreeEnsemble(config=cfg, n_features=x.shape[1],
                        trees=[(c, to_tree(t)) for c, t in trees])
    assert serialize(train_ensemble(x, y, cfg)) == serialize(want)


def test_model_text_does_not_depend_on_the_block_size(monkeypatch):
    """The scan and the partition cut a node's features into blocks of about
    _BLOCK entries: one feature per block (1), a block size that divides no
    node (97), and 2**10 and 2**16 grow the same trees as the shipped size,
    ties across block boundaries included."""
    rng = np.random.default_rng(2718)
    x, y = _tie_heavy(rng, 2400, 8, 6, 3)
    cfg = GBDTConfig(n_classes=3, max_trees=6, max_depth=6, min_child_weight=0.5)
    want = serialize(train_ensemble(x, y, cfg))
    for block in (1, 97, 2**10, 2**16):
        monkeypatch.setattr(gbdt, "_BLOCK", block)
        assert serialize(train_ensemble(x, y, cfg)) == want, block


# sha256 of serialize() of the 2-tree, depth-10 model of the test below,
# recorded with the code before the scan and the partition reused per-tree
# buffers (blocks of 2**16 entries, fresh temporaries per block): the model
# text is unchanged by that rework. Training runs numpy's float64 exp, add,
# multiply and divide only, no BLAS product, but another numpy build may
# round exp otherwise.
_DEPTH_10_MODEL_SHA256 = "4f91860ad2cc69cd220d15f8b8b08a1557537c179978d9506499dcbb25ed7619"


def test_depth_10_model_text_is_pinned():
    rng = np.random.default_rng(3000)
    labels = rng.integers(0, 10, 3000)
    means = 0.15 * rng.standard_normal((10, 512))
    x = (means[labels] + rng.standard_normal((3000, 512))).astype(np.float32)
    cfg = GBDTConfig(n_classes=10, max_trees=2, max_depth=10)
    ens = train_ensemble(x, labels, cfg)
    assert max(tree.depth() for _, tree in ens.trees) == 10
    text = serialize(ens).encode()
    assert hashlib.sha256(text).hexdigest() == _DEPTH_10_MODEL_SHA256


def test_column_block_keys_equal_the_masked_ufunc_reference():
    """The integer key transform gives the masked-ufunc keys on a matrix of
    several feature slices holding both zeros, both signs of the smallest
    subnormal, FLT_MIN, FLT_MAX and 1, ties included."""
    fi = np.finfo(np.float32)
    special = np.float32([0.0, 1e-45, fi.tiny, fi.max, 1.0])
    special = np.concatenate([special, -special])
    rng = np.random.default_rng(7)
    m = 300
    nf = 3 * (gbdt._BLOCK // m) + 5                     # four feature slices
    x = rng.standard_normal((m, nf)).astype(np.float32)
    pick = rng.random((m, nf)) < 0.5
    x[pick] = rng.choice(special, size=int(pick.sum()))
    x[:, :len(special)] = np.resize(special, (m, len(special)))
    keys = gbdt._column_block(x)
    assert np.array_equal(keys, where_column_block(x))
    vals = np.take_along_axis(x.T, keys & gbdt._ROW, axis=1)
    assert np.array_equal((keys >> 32) == 0, vals == 0)  # -0.0 and +0.0: key 0


def test_threshold_clamps_when_midpoint_rounds_to_right_value():
    # float64 adjacents where (a+b)/2 rounds up to b: clamp must pick a
    b = 1.0
    a = np.nextafter(b, 0.0)
    assert (a + b) / 2.0 == b  # ties-to-even lands on the right value
    assert gbdt._midpoint(a, b) == a
    # and where the midpoint is representable it stays strictly inside
    assert gbdt._midpoint(1.0, 2.0) == 1.5
    # adjacent float32 feature values: float64 midpoint is exact, threshold
    # stays strictly below the right value and reproduces the partition
    fa = np.float32(1.0)
    fb = np.nextafter(fa, np.float32(2.0), dtype=np.float32)
    x = np.array([[fa], [fb]], dtype=np.float32)
    g = np.array([-1.0, 1.0])
    sp = best_split(x, g, np.ones(2), GBDTConfig(n_classes=2, min_child_weight=0.0))
    assert float(fa) < sp.threshold < float(fb)
    assert (x[:, 0] <= sp.threshold).tolist() == [True, False]



def test_split_between_adjacent_float32_values_routes_rows_as_scored():
    # fa has an odd float32 mantissa, so the float64 midpoint of fa and fb
    # rounds up to fb in float32: growth and prediction must compare in
    # float64 to send the fb row right, as the split was scored
    fa = np.nextafter(np.float32(1.0), np.float32(2.0), dtype=np.float32)
    fb = np.nextafter(fa, np.float32(2.0), dtype=np.float32)
    x = np.array([[fa], [fb]], dtype=np.float32)
    g, h = np.array([-1.0, 1.0]), np.ones(2)
    cfg = GBDTConfig(n_classes=2, min_child_weight=0.0)
    sp = best_split(x, g, h, cfg)
    assert float(fa) < sp.threshold < float(fb)
    assert np.float32(sp.threshold) == fb
    tree = grow_tree(x, g, h, cfg)
    assert tree.node_counts() == (1, 2)
    node = from_tree(tree)
    assert node.threshold == sp.threshold
    assert node.left.weight > 0 > node.right.weight
    assert node_walk_predict(stump(0, sp.threshold, -1.0, 1.0), x).tolist() == [-1.0, 1.0]
    ens = train_ensemble(x, np.array([0, 1]), cfg)
    assert predict_class(ens, x).tolist() == [0, 1]

def _gain_of(x, g, h, feature, threshold, cfg):
    mask = x[:, feature] <= threshold
    gl, hl = g[mask].sum(), h[mask].sum()
    gr, hr = g.sum() - gl, h.sum() - hl
    lam = cfg.reg_lambda
    return 0.5 * (
        gl * gl / (hl + lam) + gr * gr / (hr + lam)
        - g.sum() ** 2 / (h.sum() + lam)
    ) - cfg.gamma


def _compare_trees(a, b, x, g, h, cfg):
    """Walk both trees; mismatching splits are tolerated only when their
    directly recomputed gains tie within 1e-9 (same-partition candidates can
    differ by summation-order ulps). Returns the number of tie divergences."""
    if a.is_leaf != b.is_leaf or (
        not a.is_leaf and (a.feature != b.feature or a.threshold != b.threshold)
    ):
        ga = -np.inf if a.is_leaf else _gain_of(x, g, h, a.feature, a.threshold, cfg)
        gb = -np.inf if b.is_leaf else _gain_of(x, g, h, b.feature, b.threshold, cfg)
        assert ga == pytest.approx(gb, abs=1e-9), (
            f"structural mismatch not explained by a gain tie: {ga} vs {gb}"
        )
        return 1
    if a.is_leaf:
        assert a.weight == pytest.approx(b.weight, abs=1e-12)
        return 0
    mask = x[:, a.feature] <= a.threshold
    return _compare_trees(
        a.left, b.left, x[mask], g[mask], h[mask], cfg
    ) + _compare_trees(a.right, b.right, x[~mask], g[~mask], h[~mask], cfg)


def test_grow_tree_matches_recursive_oracle():
    rng = np.random.default_rng(11)
    divergences = 0
    for trial in range(40):
        m = int(rng.integers(4, 24))
        nf = int(rng.integers(1, 5))
        x = (
            rng.integers(0, 5, size=(m, nf)).astype(np.float32)
            if trial % 2
            else rng.normal(size=(m, nf)).astype(np.float32)
        )
        g = rng.normal(size=m)
        h = rng.uniform(0.1, 1.0, size=m)
        cfg = GBDTConfig(
            n_classes=2,
            max_depth=int(rng.integers(1, 4)),
            min_child_weight=0.0,
            reg_lambda=1.0,
        )
        got = from_tree(grow_tree(x, g, h, cfg))
        want = oracle_tree(x, g, h, cfg)
        divergences += _compare_trees(got, want, x, g, h, cfg)
        assert got.depth() <= cfg.max_depth
    # tie divergences must be the rare exception, not the rule
    assert divergences <= 3


def test_grow_tree_depth_zero_is_single_leaf_with_closed_form_weight():
    x = np.arange(8, dtype=np.float32).reshape(8, 1)
    g = np.linspace(-2, 1, 8)
    h = np.linspace(0.2, 1.0, 8)
    cfg = GBDTConfig(n_classes=2, max_depth=0, learning_rate=0.3, reg_lambda=1.0)
    t = grow_tree(x, g, h, cfg)
    assert t.depth() == 0
    assert t.node_counts() == (0, 1)
    assert t.value[0] == pytest.approx(-0.3 * g.sum() / (h.sum() + 1.0), abs=1e-15)


def test_grow_tree_rejects_nonfinite_inputs():
    for bad in (np.nan, np.inf):
        x = np.array([[0.0], [bad]], dtype=np.float32)
        with pytest.raises(ValueError, match="finite"):
            train_ensemble(x, np.array([0, 1]), GBDTConfig(n_classes=2))


def test_predict_matches_per_row_tracer():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(60, 5)).astype(np.float32)
    y = rng.integers(0, 3, size=60)
    cfg = GBDTConfig(n_classes=3, max_trees=9, max_depth=3, min_child_weight=0.0)
    ens = train_ensemble(x, y, cfg)
    got = predict_margins(ens, x)

    def route(node, row):
        while not node.is_leaf:
            v = row[node.feature]
            node = node.left if v <= node.threshold or np.isnan(v) else node.right
        return node.weight

    want = np.zeros((60, 3))
    for k, tree in ens.trees:
        for i in range(60):
            want[i, k] += route(from_tree(tree), x[i])
    assert np.array_equal(got, want)
    assert np.array_equal(predict_class(ens, x), np.argmax(want, axis=1))


def _mean_loss(margins, labels):
    z = margins - margins.max(axis=1, keepdims=True)
    logp = z[np.arange(len(labels)), labels] - np.log(np.exp(z).sum(axis=1))
    return float(-logp.mean())


def _random_tree(rng, values, nf, depth):
    """A tree of up to ``depth`` levels whose thresholds are drawn from
    ``values``, so that some rows sit exactly on a threshold."""
    if depth == 0 or rng.random() < 0.25:
        return Node(is_leaf=True, weight=float(rng.normal()))
    return Node(is_leaf=False, feature=int(rng.integers(nf)),
                threshold=float(rng.choice(values)),
                left=_random_tree(rng, values, nf, depth - 1),
                right=_random_tree(rng, values, nf, depth - 1))


def test_flat_routing_equals_the_node_walk_on_random_ensembles():
    # predict_margins routes all rows through all trees a level at a time;
    # the node walk of tests/oracles.py routes one tree at a time. Random
    # trees (single leaves among them, classes in any order) over rows with
    # NaN features and values on the thresholds, ensembles of zero trees and
    # batches of zero rows; by hand, trained and read back from text. Each
    # converted tree keeps the reference tree's depth and node counts.
    rng = np.random.default_rng(71)
    for case in range(60):
        k, nf = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        n = int(rng.choice([0, 1, 2, 7, 40]))
        x = rng.normal(size=(n, nf)).astype(np.float32)
        x[rng.random((n, nf)) < 0.2] = np.nan
        values = np.concatenate([x[np.isfinite(x)], rng.normal(size=4)]).astype(np.float32)
        n_trees = int(rng.choice([0, 1, 3, 12]))
        nodes = [(int(rng.integers(k)), _random_tree(rng, values, nf, 6))
                 for _ in range(n_trees)]
        ens = TreeEnsemble(config=GBDTConfig(n_classes=k, max_trees=12, max_depth=6),
                           n_features=nf, trees=[(c, to_tree(t)) for c, t in nodes])
        for (_, node), (_, tree) in zip(nodes, ens.trees):
            assert tree.depth() == node.depth(), case
            assert tree.node_counts() == node.node_counts(), case
        want = np.zeros((n, k))
        for c, node in nodes:
            want[:, c] += node_walk_predict(node, x)
        for model in (ens, deserialize(serialize(ens))):
            got = predict_margins(model, x)
            assert got.tobytes() == want.tobytes(), case
            assert predict_class(model, x).tolist() == np.argmax(want, axis=1).tolist()
        if n:                            # round_losses replays k trees a round
            labels = rng.integers(0, k, size=n)
            margins = np.zeros((n, k))
            want_losses = [_mean_loss(margins, labels)]
            for start in range(0, len(nodes), k):
                for c, node in nodes[start:start + k]:
                    margins[:, c] += node_walk_predict(node, x)
                want_losses.append(_mean_loss(margins, labels))
            assert gbdt.round_losses(ens, x, labels) == want_losses, case
    x = rng.normal(size=(50, 4)).astype(np.float32)
    ens = train_ensemble(x, rng.integers(0, 3, size=50),
                         GBDTConfig(n_classes=3, max_trees=7, max_depth=4))
    want = np.zeros((50, 3))
    for c, tree in ens.trees:
        node = from_tree(tree)
        assert (tree.depth(), tree.node_counts()) == (node.depth(), node.node_counts())
        want[:, c] += node_walk_predict(node, x)
    assert predict_margins(ens, x).tobytes() == want.tobytes()


def test_predict_nan_follows_default_direction():
    # NaN goes left, the one default direction: every split of a model file
    # says d=left, and the parser refuses any other direction.
    ens = TreeEnsemble(config=GBDTConfig(n_classes=2, max_trees=1), n_features=1,
                       trees=[(0, to_tree(stump(0, 0.5, -1.0, 1.0)))])
    x = np.array([[np.nan], [0.0], [1.0]], dtype=np.float32)
    m = predict_margins(ens, x)
    assert m[:, 0].tolist() == [-1.0, -1.0, 1.0]
    text = serialize(ens)
    assert " d=left " in text
    with pytest.raises(FormatError, match="default direction"):
        deserialize(text.replace(" d=left ", " d=right "))


def test_train_class_order():
    # max_trees counts trees in total: 12 trees over 5 classes are two full
    # rounds and the first two classes of a third
    x = np.random.default_rng(3).normal(size=(40, 4)).astype(np.float32)
    y = np.random.default_rng(4).integers(0, 5, size=40)
    total = train_ensemble(x, y, GBDTConfig(n_classes=5, max_trees=12, max_depth=2))
    assert len(total.trees) == 12
    assert [k for k, _ in total.trees] == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]


def test_training_loss_decreases_each_round():
    rng = np.random.default_rng(31)
    for trial in range(50):
        n = int(rng.integers(20, 60))
        k = int(rng.integers(2, 5))
        x = rng.normal(size=(n, 6)).astype(np.float32)
        w = rng.normal(size=(6, k))
        y = np.argmax(x.astype(np.float64) @ w + rng.normal(size=(n, k)) * 0.3, axis=1)
        cfg = GBDTConfig(
            n_classes=k, max_trees=4 * k, max_depth=3, min_child_weight=0.0,
        )
        ens = train_ensemble(x, y, cfg)
        margins = np.zeros((n, k))
        losses = [_loss(margins, y)]
        for kk, tree in ens.trees:
            margins[:, kk] += node_walk_predict(from_tree(tree), x)
            if kk == k - 1:
                losses.append(_loss(margins, y))
        assert all(b < a + 1e-9 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]


def test_round_losses_replay_matches_training():
    x = np.random.default_rng(41).normal(size=(40, 5)).astype(np.float32)
    y = np.random.default_rng(42).integers(0, 3, size=40)
    cfg = GBDTConfig(n_classes=3, max_trees=9, max_depth=3)
    ens = train_ensemble(x, y, cfg)
    losses = gbdt.round_losses(ens, x, y)
    assert len(losses) == 1 + 3                           # 9 trees = 3 rounds
    assert all(b < a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert abs(losses[0] - _loss(np.zeros((40, 3)), y) / 40) < 1e-12
    margins = predict_margins(ens, x)
    assert abs(losses[-1] - _loss(margins, y) / 40) < 1e-12


def test_train_is_deterministic():
    x = np.random.default_rng(5).normal(size=(50, 8)).astype(np.float32)
    y = np.random.default_rng(6).integers(0, 4, size=50)
    cfg = GBDTConfig(n_classes=4, max_trees=8, max_depth=4)
    a = serialize(train_ensemble(x, y, cfg))
    b = serialize(train_ensemble(x, y, cfg))
    assert a == b


def test_predict_casts_input_to_float32():
    thr = float(np.float32(0.1))  # threshold as stored from float32 training
    ens = TreeEnsemble(config=GBDTConfig(n_classes=2, max_trees=1), n_features=1,
                       trees=[(0, to_tree(stump(0, thr, -1.0, 1.0)))])
    # a float64 value between the float32 threshold and its float64 reading
    x64 = np.array([[0.1]], dtype=np.float64)  # 0.1 < float32(0.1) in binary
    m64 = predict_margins(ens, x64)
    m32 = predict_margins(ens, x64.astype(np.float32))
    assert np.array_equal(m64, m32)


def test_empty_ensemble_predicts_base_score():
    ens = TreeEnsemble(config=GBDTConfig(n_classes=3, max_trees=0), n_features=2)
    x = np.zeros((4, 2), dtype=np.float32)
    assert np.array_equal(predict_margins(ens, x), np.zeros((4, 3)))
    assert predict_class(ens, x).tolist() == [0, 0, 0, 0]


def test_predict_rejects_wrong_feature_width():
    x = np.random.default_rng(3).normal(size=(20, 4)).astype(np.float32)
    y = np.random.default_rng(4).integers(0, 3, size=20)
    ens = train_ensemble(x, y, GBDTConfig(n_classes=3, max_trees=3, max_depth=2))
    assert ens.n_features == 4
    with pytest.raises(ValueError, match="n_features"):
        predict_margins(ens, x[:, :3])
    loaded = deserialize(serialize(ens))
    assert loaded.n_features == 4


def test_serialize_roundtrip_is_byte_identical():
    x = np.random.default_rng(9).normal(size=(30, 5)).astype(np.float32)
    y = np.random.default_rng(10).integers(0, 3, size=30)
    cfg = GBDTConfig(n_classes=3, max_trees=6, max_depth=3, learning_rate=0.17)
    ens = train_ensemble(x, y, cfg)
    text = serialize(ens)
    back = deserialize(text)
    assert serialize(back) == text
    # and the reconstructed model predicts identically, bit for bit
    assert np.array_equal(predict_margins(back, x), predict_margins(ens, x))
    assert back.config == cfg


def test_a_trained_ensemble_cannot_be_edited():
    # serialize writes the trees prediction routes: the ensemble's trees and
    # each tree's node arrays are fixed once it is built
    x = np.random.default_rng(9).normal(size=(30, 5)).astype(np.float32)
    y = np.random.default_rng(10).integers(0, 3, size=30)
    ens = train_ensemble(x, y, GBDTConfig(n_classes=3, max_trees=6, max_depth=3))
    text, margins = serialize(ens), predict_margins(ens, x)
    with pytest.raises(TypeError):
        ens.trees[0] = ens.trees[1]
    with pytest.raises(AttributeError):
        ens.trees.append(ens.trees[1])
    with pytest.raises(AttributeError):                 # FrozenInstanceError
        ens.trees = ens.trees[1:]
    tree = ens.trees[0][1]
    for name in ("feature", "threshold", "child", "value"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(tree, name)[-1] = 5
    with pytest.raises(AttributeError):
        tree.value = tree.value + 5.0
    assert serialize(ens) == text
    assert predict_margins(ens, x).tobytes() == margins.tobytes()


def test_tree_refuses_arrays_that_are_not_a_tree():
    good = dict(feature=[0, 0, 0], threshold=[0.5, np.inf, np.inf], child=[1, 1, 2],
                value=[0.0, -1.0, 1.0])
    assert gbdt.Tree(**good).node_counts() == (1, 2)
    for edit in (dict(value=[0.0, -1.0]), dict(child=[[1, 1, 2]]),
                 dict(feature=[], threshold=[], child=[], value=[]),
                 dict(child=[0, 0, 2]),             # a split's child before it: a loop
                 dict(child=[2, 1, 2]),             # its right child past the end
                 dict(feature=[-1, 0, 0]),
                 dict(threshold=[0.5, 0.0, np.inf])):         # a leaf that splits
        with pytest.raises(ValueError, match="tree|slot"):
            gbdt.Tree(**{**good, **edit})
    # an ensemble's trees score its classes from its features
    cfg = GBDTConfig(n_classes=2, max_trees=1)
    for k, feature in ((2, 0), (-1, 0), (0, 3)):
        tree = gbdt.Tree(**{**good, "feature": [feature, 0, 0]})
        with pytest.raises(ValueError, match="out of range"):
            TreeEnsemble(config=cfg, n_features=3, trees=[(k, tree)])


def test_serialize_header_and_record_shape():
    ens = TreeEnsemble(config=GBDTConfig(n_classes=2, max_trees=1), n_features=3,
                       trees=[(1, to_tree(Node(is_leaf=True, weight=0.5)))])
    text = serialize(ens)
    lines = text.splitlines()
    assert lines[0] == "RXGB-GBDT v1"
    assert "n_classes=2" in lines
    assert lines[-1] == "(tree class=1 (leaf w=0.5))"


def test_deserialize_rejects_malformed_text():
    x = np.random.default_rng(12).normal(size=(20, 3)).astype(np.float32)
    y = np.random.default_rng(13).integers(0, 2, size=20)
    good = serialize(train_ensemble(x, y, GBDTConfig(n_classes=2, max_trees=2, max_depth=2)))

    bad_header = good.replace("RXGB-GBDT v1", "RXGB-GBDT v2", 1)
    with pytest.raises(FormatError, match="header"):
        deserialize(bad_header)
    with pytest.raises(FormatError, match="missing config"):
        deserialize("RXGB-GBDT v1\nnope=1\n")
    truncated = "\n".join(good.splitlines()[:-1]) + "\n"
    with pytest.raises(FormatError, match="tree records"):
        deserialize(truncated)
    unbalanced = good.rstrip("\n")
    assert unbalanced.endswith(")")
    with pytest.raises(FormatError, match="end of tree expression"):
        deserialize(unbalanced[:-1] + "\n")
    with pytest.raises(FormatError, match="threshold"):
        deserialize(good.replace(" t=", " t=oops", 1))
    with pytest.raises(FormatError, match="unknown node kind"):
        deserialize(good.replace("(split", "(cleave", 1))
    with pytest.raises(FormatError, match="out of range"):
        deserialize(good.replace("(tree class=0", "(tree class=9", 1))
    # margins start at 0: any spelling of zero reads, anything else is refused
    assert "\nbase_scores=0.0 0.0\n" in good
    with pytest.raises(FormatError, match="nonzero base score"):
        deserialize(good.replace("base_scores=0.0 0.0", "base_scores=0.0 0.5", 1))
    assert serialize(deserialize(good.replace("base_scores=0.0 0.0",
                                              "base_scores=-0.0 0", 1))) == good
    # the header bounds the records: at most max_trees trees, and no split at
    # a depth of max_depth or more
    assert "\nmax_trees=2\n" in good and "\ntrees=2\n" in good
    for count in ("-1", "3"):
        more = good.replace("\ntrees=2\n", f"\ntrees={count}\n")
        more += more.splitlines()[-1] + "\n"              # enough records for 3
        with pytest.raises(FormatError, match=f"trees={count} outside"):
            deserialize(more)
    deep = "(split f=0 t=0.5 d=left " * 5 + "(leaf w=1)" + " (leaf w=0))" * 5
    shallow = good.replace("max_depth=2", "max_depth=1", 1)
    shallow = re.sub(r"(?m)^\(tree class=(\d) .*$", rf"(tree class=\1 {deep})", shallow)
    with pytest.raises(FormatError, match="deeper than max_depth"):
        deserialize(shallow)
    assert len(deserialize(shallow.replace("max_depth=1", "max_depth=5", 1)).trees) == 2


@pytest.mark.parametrize("case, pattern, repl", NON_FINITE_MODEL_EDITS,
                         ids=[e[0] for e in NON_FINITE_MODEL_EDITS])
def test_deserialize_rejects_non_finite_values(case, pattern, repl):
    x = np.random.default_rng(12).normal(size=(20, 3)).astype(np.float32)
    y = np.random.default_rng(13).integers(0, 2, size=20)
    good = serialize(train_ensemble(x, y, GBDTConfig(n_classes=2, max_trees=2, max_depth=2)))
    bad, n = re.subn(pattern, repl, good, count=1)
    assert n == 1 and bad != good
    with pytest.raises(FormatError, match="finite"):
        deserialize(bad)


def test_config_rejects_non_finite_reals():
    for name in ("learning_rate", "reg_lambda", "gamma", "min_child_weight"):
        for v in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                GBDTConfig(**{name: v})


def test_config_validation():
    with pytest.raises(ValueError, match="n_classes"):
        GBDTConfig(n_classes=1)
    with pytest.raises(ValueError, match="learning_rate"):
        GBDTConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="max_depth"):
        GBDTConfig(max_depth=-1)


def test_train_rejects_bad_inputs():
    x = np.zeros((4, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="labels"):
        train_ensemble(x, np.array([0, 1, 2, 9]), GBDTConfig(n_classes=3))
    with pytest.raises(ValueError, match="empty"):
        train_ensemble(np.zeros((0, 2)), np.zeros(0, dtype=int), GBDTConfig())
    xb = x.copy(); xb[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        train_ensemble(xb, np.array([0, 1, 0, 1]), GBDTConfig(n_classes=2))
