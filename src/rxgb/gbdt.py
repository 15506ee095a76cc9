"""Gradient-boosted decision trees with second-order (Newton) objective.

Multiclass boosting over raw margins: each round computes per-class gradients
g = p - onehot and diagonal Hessians h = p * (1 - p) from the softmax of the
current margins, then grows one tree per class in class order against that
snapshot. Split gain is the exact-greedy second-order formula

    gain = 1/2 * [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - (GL+GR)^2/(HL+HR+lambda) ] - gamma

and a leaf outputs -eta * G / (H + lambda) (shrinkage folded into the leaf).

Candidate thresholds are midpoints between consecutive distinct sorted feature
values, clamped to the left value when float rounding would land the midpoint
on the right value. Rows are routed by `x <= t` in float64, in growth and at
predict time alike: a float32 comparison would round a midpoint between
adjacent float32 values up to the right value and route that row left, a
partition other than the one scored. A split must strictly improve (gain > 0)
and leave both children with Hessian mass >= min_child_weight. Ties break
toward the lowest feature index, then the lowest threshold.

Split search follows XGBoost's exact greedy algorithm on a pre-sorted column
block (Chen & Guestrin, arXiv 1603.02754): train_ensemble sorts every feature
column once into (value, row id) entries, the stable argsort, since the
feature matrix is the same for every tree; a split partitions each column's
sorted entries stably into the two children by one per-row side mask. Node
rows stay in increasing row order, so a child's block is exactly the stable
argsort of the child's rows: the prefix sums, gains, ties and thresholds, and
so the model bytes, are those of sorting every node afresh. Node totals are
plain (pairwise) sums of the node's rows in row order, not the last prefix
sums. One scan scores a node's block in feature blocks of about 16k
candidates (_BLOCK), and the partition cuts it in the same blocks, so that
a block's whole working set stays in one core's L2 cache, as XGBoost sizes
its blocks to the cache (§4.2, cache-aware access). The work buffers are
allocated once per tree and filled in place. g and h travel through the
scan as one complex128 g + 1j*h per row, so a block takes one gather and
one prefix sum. That is exact: complex addition adds the real and the
imaginary parts as two independent float64 additions, so each part's
prefix sums are those of g and of h alone.

A tree has one form, Tree: read-only node arrays, as XGBoost stores each
tree as one flat node array. Growth and the text parser write them slot by
slot; serialize, cost and prediction read them. A TreeEnsemble is immutable:
its trees are a tuple, fixed at construction, which concatenates their
arrays once, so what serialize writes is what prediction routes. Prediction
routes every row through every tree at once, a level at a time, over those
arrays (Hummingbird's tree traversal, Nakandala et al., OSDI 2020). A row
goes right where x > t, so a NaN goes left, and the leaf weights are added
to the margins, which start at 0, in tree order, which gives the margins of
walking each tree node by node to the byte.

Features are handled in float32, the canonical precision of persisted feature
matrices; thresholds and leaf weights are float64. Everything is deterministic:
stable sorts, fixed scan order, first-occurrence maximum.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GBDTConfig:
    """Boosting hyperparameters.

    max_trees is the total tree count across all classes: 20 means two full
    10-class rounds. Training starts every class margin at 0.
    """

    n_classes: int = 10
    max_trees: int = 20
    max_depth: int = 10
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.max_trees < 0:
            raise ValueError(f"max_trees must be >= 0, got {self.max_trees}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.reg_lambda < 0 or self.gamma < 0 or self.min_child_weight < 0:
            raise ValueError("reg_lambda, gamma and min_child_weight must be >= 0")
        for name in ("learning_rate", "reg_lambda", "gamma", "min_child_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


# The node arrays of a Tree, as (field, dtype).
_NODE_ARRAYS = (("feature", np.intp), ("threshold", np.float64),
                ("child", np.intp), ("value", np.float64))


def _levels(child: np.ndarray, nodes: np.ndarray) -> int:
    """Levels from ``nodes`` down to the deepest leaf below them, one level
    of all of them at a time; a leaf is its own child."""
    depth = 0
    while True:
        nodes = nodes[child[nodes] != nodes]
        if not nodes.size:
            return depth
        nodes = (child[nodes, None] + (0, 1)).ravel()
        depth += 1


@dataclass(frozen=True, eq=False)
class Tree:
    """One tree as read-only node arrays, the one form growth, parsing,
    text, prediction and cost read.

    Node 0 is the root. Node i splits on feature[i] at threshold[i]; its
    children are nodes child[i] (x <= threshold, and NaN) and child[i] + 1
    (x > threshold), two consecutive slots after i. A leaf has threshold
    +inf and child[i] = i, so a row that reaches it stays there, and
    value[i] is its weight (0 at a split).
    """

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        for name, dtype in _NODE_ARRAYS:
            a = np.array(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        n = self.child.size
        if any(getattr(self, name).shape != (n,) for name, _ in _NODE_ARRAYS) or not n:
            raise ValueError("a tree's node arrays must be non-empty, 1-d and of one length")
        # a split's children come after it, so every walk down the tree ends
        slot = np.arange(n)
        if np.where(self.child != slot, (self.child <= slot) | (self.child >= n - 1)
                    | (self.feature < 0), self.threshold != math.inf).any():
            raise ValueError("a split's children must be two later slots and its "
                             "feature >= 0, and a leaf its own child at threshold +inf")

    def depth(self) -> int:
        return _levels(self.child, np.zeros(1, np.intp))

    def node_counts(self) -> tuple[int, int]:
        """(internal nodes, leaves)."""
        leaves = int(np.count_nonzero(self.child == np.arange(len(self.child))))
        return len(self.child) - leaves, leaves


@dataclass(frozen=True, eq=False)
class TreeEnsemble:
    """Ordered (class_id, tree) pairs, fixed at construction; every class
    margin starts at 0.

    ``n_features`` records the training feature count so downstream consumers
    can reject inputs of the wrong width. Construction concatenates the
    trees' node arrays, child indices shifted by each tree's offset, into
    ``_nodes`` (feature, threshold, child, value), which prediction routes
    every tree through at once; ``_roots`` holds each tree's root and
    ``_depth`` the deepest leaf's depth, the levels routing takes. A class
    outside [0, n_classes) or a split feature outside [0, n_features) is
    refused.
    """

    config: GBDTConfig
    n_features: int
    trees: tuple[tuple[int, Tree], ...] = ()
    _nodes: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _roots: np.ndarray = field(init=False, repr=False)
    _depth: int = field(init=False, repr=False)

    def __post_init__(self):
        trees = tuple((int(k), tree) for k, tree in self.trees)
        sizes = [len(tree.child) for _, tree in trees]
        roots = np.cumsum([0, *sizes], dtype=np.intp)[:-1]
        nodes = tuple(np.concatenate([np.empty(0, dtype), *(getattr(t, name) for _, t in trees)])
                      for name, dtype in _NODE_ARRAYS)
        feature, _, child, _ = nodes
        child += np.repeat(roots, sizes)
        if (any(not 0 <= k < self.config.n_classes for k, _ in trees)
                or np.any(feature[child != np.arange(child.size)] >= self.n_features)):
            raise ValueError("a tree's class or split feature is out of range")
        for a in (*nodes, roots):
            a.flags.writeable = False
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_roots", roots)
        object.__setattr__(self, "_depth", _levels(child, roots))


def softmax_grad_hess(
    margins: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample gradient and diagonal Hessian of softmax log-loss.

    Args:
        margins: [N, K] raw scores.
        labels: [N] integer class ids in [0, K).

    Returns:
        (g, h) both [N, K]: g = p - onehot(labels), h = p * (1 - p), with p
        the row-stabilized softmax.
    """
    margins = np.asarray(margins, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = margins.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    z = margins - margins.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    g = p.copy()
    g[np.arange(n), labels] -= 1.0
    h = p * (1.0 - p)
    return g, h


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def _midpoint(a: float, b: float) -> float:
    """Midpoint of adjacent distinct values, clamped so threshold < b."""
    t = (a + b) / 2.0
    if not t < b:
        t = a
    return t


# Candidates (features x node rows) per block of the scan and the partition.
# A scan block holds about 66 bytes per candidate at once: its keys (8), row
# ids (8), the gathered g + 1j*h (16), gl, hl, gr and hr (32) and two masks
# (2), so 2**14 candidates take about 1 MiB, inside a 2 MiB per-core L2; at
# 2**16 with fresh temporaries a block took about 5 MiB. Measured on one
# depth-10 tree of a 10k x 512 perfbench feature matrix (median of three
# min-of-5 runs, one thread of a 2-core x86_64 host), in ms: 2**12 1324,
# 2**13 1147, 2**14 1028, 2**15 1064, 2**16 1074, and 1437 at 2**16 with
# fresh temporaries per block.
_BLOCK = 1 << 14
_ROW = 0xFFFFFFFF        # low 32 bits of a column-block entry: the row id


def _column_block(x: np.ndarray) -> np.ndarray:
    """Every column of x [m, F] (no NaN) sorted once, as one int64 [F, m].

    Entry (f, j) packs the j-th smallest value of column f with its row id r
    as key * 2**32 + r, where key is the value's float32 bit pattern as a
    signed integer, negated for negative values so that integer order is
    value order (-0.0 and +0.0 share key 0). The key comes from the
    sign-extended bits k by integer ops alone: s = k >> 63 is -1 for a
    negative value and 0 otherwise, k & 0x7FFFFFFF is the magnitude bits,
    and (magnitude ^ s) - s negates them exactly where s = -1. The ops run in
    feature slices of about _BLOCK entries, so the only temporary is one
    slice's s. The entries of a column are distinct, so sorting them gives
    the stable argsort of the column, and equal keys mean equal values.
    """
    m, nf = x.shape
    if m > _ROW + 1:
        raise ValueError(f"at most 2**32 rows fit a column block, got {m}")
    keys = np.empty((nf, m), dtype=np.int64)
    bits = x.T.view(np.int32)
    rows = np.arange(m)
    step = max(1, _BLOCK // max(m, 1))
    for f0 in range(0, nf, step):
        k = keys[f0:f0 + step]
        np.copyto(k, bits[f0:f0 + step])
        s = k >> 63
        k &= 0x7FFFFFFF
        k ^= s
        k -= s
        k <<= 32
        k |= rows
    keys.sort(axis=1)
    return keys


def _pack(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g + 1j*h as one complex128 per row, both parts copied bit for bit
    (the product 1j*h would turn h = -0.0 into +0.0)."""
    gh = np.empty(g.shape, dtype=np.complex128)
    gh.real, gh.imag = g, h
    return gh


# The work buffers of a block (see _work), in order: row ids, the gathered
# g + 1j*h, gl, hl, gr, hr and two masks.
_WORK_DTYPES = tuple(map(np.dtype, (np.int64, np.complex128, *[np.float64] * 4, bool, bool)))


def _work(m: int) -> tuple[np.ndarray, ...]:
    """Flat work buffers of one block of _scan or of _grow's partition for
    nodes of at most m rows, one of each of _WORK_DTYPES, cut from one
    allocation. A block of step = max(1, _BLOCK // m') features of an
    m'-row node holds step * m' <= max(_BLOCK, m) entries.

    One allocation rather than eight: in paired runs of the infer
    benchmark, whose set-up loads a checkpoint in a process that fitted 20
    trees, eight allocations per tree left the heap in a state that made
    that set-up about 29% slower; with one it held its time."""
    size = max(_BLOCK, m)
    ends = np.cumsum([0, *(size * t.itemsize for t in _WORK_DTYPES)])
    raw = np.empty(ends[-1], np.uint8)
    return tuple(raw[a:b].view(t) for a, b, t in zip(ends[:-1], ends[1:], _WORK_DTYPES))


def _scan(keys: np.ndarray, x: np.ndarray, gh: np.ndarray, gt: float, ht: float,
          cfg: GBDTConfig, work: tuple[np.ndarray, ...]) -> Split | None:
    """Best split of one node from its column block keys [F, m] (see
    _column_block; row ids index x and gh, the rows' g + 1j*h from _pack),
    with the buffers ``work`` from _work(m) or larger.

    gt, ht are the node's gradient and Hessian totals. Features are scored in
    blocks of about _BLOCK candidates. A block gathers each entry's g and h
    as one complex128 and prefix-sums them in one cumsum: complex addition
    is two independent float64 additions and the cumsum adds left to right,
    so the real and imaginary parts are the float64 cumsums of g and h bit
    for bit, at half the gathers and prefix-sum passes. The parts are copied
    into contiguous buffers, since ops on the strided views cost more than
    twice as much, and the gain formula runs on them in place, op by op in
    the order the formula reads. A block's first maximum replaces the
    running best only when strictly greater, so the result is the first
    maximum in feature-major order. Candidates whose gain is not > 0 (NaN
    included) are invalid.
    """
    nf, m = keys.shape
    if m < 2:
        return None
    lam = cfg.reg_lambda
    mcw = cfg.min_child_weight
    parent = gt * gt / (ht + lam)
    step = max(1, _BLOCK // m)
    best_gain, best = 0.0, None
    for f0 in range(0, nf, step):
        bkeys = keys[f0:f0 + step]
        nb = len(bkeys)
        rows, c, gl, hl, gr, hr, valid, mask = (
            a[:nb * w].reshape(nb, w) for a, w in zip(work, (m, m, *[m - 1] * 6)))
        np.bitwise_and(bkeys, _ROW, out=rows)
        np.take(gh, rows, out=c, mode="clip")   # ids are in range; "raise" buffers out
        np.cumsum(c, axis=1, out=c)
        np.copyto(gl, c.real[:, :-1])
        np.copyto(hl, c.imag[:, :-1])
        np.subtract(gt, gl, out=gr)
        np.subtract(ht, hl, out=hr)
        np.greater_equal(hl, mcw, out=valid)
        valid &= np.greater_equal(hr, mcw, out=mask)
        vkeys = np.right_shift(bkeys, 32, out=rows)
        valid &= np.not_equal(vkeys[:, 1:], vkeys[:, :-1], out=mask)
        # gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
        gains = gl
        with np.errstate(invalid="ignore"):      # 0/0 when lambda = 0
            gl *= gl
            gl /= np.add(hl, lam, out=hl)
            gr *= gr
            gr /= np.add(hr, lam, out=hr)
            gains += gr
            gains -= parent
            gains *= 0.5
        if cfg.gamma:                            # x - 0.0 is x for every double
            gains -= cfg.gamma
        valid &= np.greater(gains, 0.0, out=mask)
        np.copyto(gains, 0.0, where=np.logical_not(valid, out=valid))
        i = int(np.argmax(gains))
        if gains.flat[i] > best_gain:
            best_gain = float(gains.flat[i])
            best = (f0 + i // (m - 1), i % (m - 1))
    if best is None:
        return None
    f, i = best
    lo, hi = keys[f, i:i + 2] & _ROW
    thr = _midpoint(float(x[lo, f]), float(x[hi, f]))
    return Split(feature=f, threshold=thr, gain=best_gain)


def best_split(x: np.ndarray, g: np.ndarray, h: np.ndarray, cfg: GBDTConfig) -> Split | None:
    """Exact-greedy best split over all features of one node.

    Sorts the node's columns into a column block and runs the same scan as
    tree growth (_grow), so it returns exactly the split train_ensemble makes
    at a node holding these rows.

    Args:
        x: [m, F] node feature rows (float32 canonical, no NaN).
        g, h: [m] gradient / Hessian for this node's samples and class.
        cfg: hyperparameters (reg_lambda, gamma, min_child_weight).

    Returns:
        The best Split, or None when no candidate has gain > 0 (also when
        m < 2 or every candidate violates min_child_weight).
    """
    x = np.asarray(x, dtype=np.float32)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    return _scan(_column_block(x), x, _pack(g, h), g.sum(), h.sum(), cfg,
                 _work(len(x)))


def _split_slot(nodes: tuple[list, list, list, list], i: int, f: int, t: float) -> int:
    """Make slot i of the (feature, threshold, child, value) lists ``nodes``
    a split on feature f at threshold t whose children, leaves until
    written, take the next two slots; returns the left child's slot."""
    feature, threshold, child, value = nodes
    c = len(child)
    feature[i], threshold[i], child[i] = f, t, c
    feature += [0, 0]
    threshold += [math.inf, math.inf]
    child += [c, c + 1]
    value += [0.0, 0.0]
    return c


def _grow(x: np.ndarray, block: np.ndarray, g: np.ndarray, h: np.ndarray,
          cfg: GBDTConfig) -> tuple[Tree, np.ndarray]:
    """Grow one tree from x's column block; returns (tree, [m] leaf weights).

    A split routes the node's rows by x <= threshold into one side mask and
    partitions every column of the node's block stably by it, so each child's
    block is the parent's sorted order restricted to the child's rows. Node
    rows are kept in increasing row order and node totals are their sums in
    that order. The scans read g and h packed once per tree (see _pack), and
    the scans and the partitions fill one set of work buffers (see _work),
    allocated once per tree. The tree is written slot by slot: a split takes
    the next two slots for its children.

    Below the root, which is only read, a node's block is a span of one half
    of a two-half buffer and its children's blocks are cut into the same span
    of the other half. Nodes waiting on the stack hold disjoint spans, and a
    span is overwritten only after its node is split, so growth allocates
    nothing of block size beyond the buffer; the partition runs in the scan's
    feature blocks, in the scan's row-id and mask buffers. A split at the last
    level (depth + 1 == max_depth) makes two leaves, whose blocks are never
    read, so it partitions nothing.
    """
    g = np.ascontiguousarray(g, dtype=np.float64)
    h = np.ascontiguousarray(h, dtype=np.float64)
    gh = _pack(g, h)
    nf, n = block.shape
    weights = np.empty(n)
    side = np.zeros(n, dtype=bool)
    buf = np.empty((2, nf * n), dtype=block.dtype)
    work = _work(n)
    ids, sel = work[0], work[-1]
    nodes = ([0], [math.inf], [0], [0.0])      # feature, threshold, child, value
    stack = [(0, np.arange(n), block, 0, 0)]
    while stack:
        node, idx, keys, start, depth = stack.pop()
        gs = float(g[idx].sum())
        hs = float(h[idx].sum())
        sp = None
        if depth < cfg.max_depth and idx.size >= 2:
            sp = _scan(keys, x, gh, gs, hs, cfg, work)
        if sp is None:
            weights[idx] = nodes[3][node] = -cfg.learning_rate * gs / (hs + cfg.reg_lambda)
            continue
        go_left = x[idx, sp.feature] <= np.float64(sp.threshold)
        m, ml = idx.size, int(go_left.sum())
        half, cut = buf[(depth + 1) % 2], start + nf * ml
        left = half[start:cut].reshape(nf, ml)
        right = half[cut:start + nf * m].reshape(nf, m - ml)
        if depth + 1 < cfg.max_depth:
            side[idx] = go_left
            step = max(1, _BLOCK // m)
            for f0 in range(0, nf, step):
                rows = slice(f0, f0 + step)
                part = keys[rows].ravel()
                s = sel[:part.size]
                np.take(side, np.bitwise_and(part, _ROW, out=ids[:part.size]), out=s,
                        mode="clip")
                np.compress(s, part, out=left[rows].ravel())
                np.compress(np.logical_not(s, out=s), part, out=right[rows].ravel())
        c = _split_slot(nodes, node, sp.feature, sp.threshold)
        stack.append((c + 1, idx[~go_left], right, cut, depth + 1))
        stack.append((c, idx[go_left], left, start, depth + 1))
    return Tree(*nodes), weights


def _leaf_weights(ens: TreeEnsemble, x32: np.ndarray) -> np.ndarray:
    """[N, T] weight of the leaf each row of x32 [N, F] reaches in each tree.
    All rows take a level of all trees at once: a row goes to the right
    child where its float32 feature, read as float64, exceeds the threshold,
    so NaN goes left, as x <= t routes it in growth."""
    feature, threshold, child, value = ens._nodes
    n, nf = x32.shape
    cells = np.ascontiguousarray(x32).ravel()
    row_start = np.arange(0, n * nf, nf)[:, None]
    node = np.broadcast_to(ens._roots, (n, len(ens._roots)))
    for _ in range(ens._depth):
        go_right = cells[row_start + feature[node]] > threshold[node]
        node = child[node] + go_right
    return value[node]


def train_ensemble(
    x: np.ndarray, labels: np.ndarray, cfg: GBDTConfig
) -> TreeEnsemble:
    """Boost cfg.max_trees trees, one per class in class order.

    The feature columns are sorted once for all trees. Gradients and Hessians
    are computed once per round from the margins at round start; margins
    accumulate each new tree's leaf weights, recorded per row as growth makes
    the leaves (the same values as routing the rows through the tree).
    """
    x = np.asarray(x, dtype=np.float32)
    labels = np.asarray(labels)
    n = x.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if n == 0:
        raise ValueError("cannot train on an empty feature matrix")
    if labels.min() < 0 or labels.max() >= cfg.n_classes:
        raise ValueError(f"labels must lie in [0, {cfg.n_classes})")
    if not np.isfinite(x).all():
        raise ValueError("training features must be finite")

    block = _column_block(x)
    margins = np.zeros((n, cfg.n_classes))
    trees = []
    while len(trees) < cfg.max_trees:
        g, h = softmax_grad_hess(margins, labels)
        for k in range(min(cfg.n_classes, cfg.max_trees - len(trees))):
            tree, weights = _grow(x, block, g[:, k], h[:, k], cfg)
            margins[:, k] += weights
            trees.append((k, tree))
    return TreeEnsemble(config=cfg, n_features=x.shape[1], trees=tuple(trees))


def predict_margins(ens: TreeEnsemble, x: np.ndarray) -> np.ndarray:
    """Raw class margins [N, K]; input is cast to float32 (the canonical
    persisted feature precision) before routing.

    Raises ValueError unless x's width equals the recorded n_features.
    """
    x32 = np.asarray(x, dtype=np.float32)
    if x32.ndim != 2:
        raise ValueError(f"features must be 2-d [N, F], got ndim={x32.ndim}")
    if x32.shape[1] != ens.n_features:
        raise ValueError(
            f"feature width {x32.shape[1]} != ensemble n_features {ens.n_features}"
        )
    weights = _leaf_weights(ens, x32)
    margins = np.zeros((len(x32), ens.config.n_classes))
    for t, (k, _) in enumerate(ens.trees):              # in tree order
        margins[:, k] += weights[:, t]
    return margins


def predict_class(ens: TreeEnsemble, x: np.ndarray) -> np.ndarray:
    """Argmax class ids; ties break toward the lowest class index."""
    return np.argmax(predict_margins(ens, x), axis=1)


def round_losses(ens: TreeEnsemble, x: np.ndarray, labels: np.ndarray):
    """Mean multiclass log-loss before boosting and after each round.

    Replays the ensemble in boosting order (trees grouped per round, one
    tree per class); entry 0 is the loss at zero margins, entry r the loss
    after round r. The final margins equal predict_margins exactly.
    """
    x32 = np.asarray(x, dtype=np.float32)
    labels = np.asarray(labels)
    n, k = x32.shape[0], ens.config.n_classes
    margins = np.zeros((n, k))
    weights = _leaf_weights(ens, x32)

    def mean_loss():
        z = margins - margins.max(axis=1, keepdims=True)
        logp = z[np.arange(n), labels] - np.log(np.exp(z).sum(axis=1))
        return float(-logp.mean())

    losses = [mean_loss()]
    for start in range(0, len(ens.trees), k):
        for t in range(start, min(start + k, len(ens.trees))):
            margins[:, ens.trees[t][0]] += weights[:, t]
        losses.append(mean_loss())
    return losses


# --- text serialization ------------------------------------------------------

_HEADER = "RXGB-GBDT v1"
_CONFIG_KEYS = (
    "n_classes", "max_trees", "max_depth", "learning_rate", "reg_lambda",
    "gamma", "min_child_weight",
)
_DEFAULT_CONFIG = GBDTConfig()
# A fixed line of the v1 format: max_trees counts the trees in total. Every
# split likewise carries the fixed token d=left: a NaN feature routes left,
# and every class's base score is the fixed token 0.0: margins start at 0.
_BUDGET_LINE = "budget_mode=total_trees"


def _fmt(v: float) -> str:
    return repr(float(v))


def _tree_sexpr(tree: Tree) -> str:
    """The tree's nodes in pre-order: a split, its left subtree, its right."""
    feature, threshold, child, value = (a.tolist() for a in (
        tree.feature, tree.threshold, tree.child, tree.value))

    def node(i: int) -> str:
        c = child[i]
        if c == i:
            return f"(leaf w={_fmt(value[i])})"
        return (f"(split f={feature[i]} t={_fmt(threshold[i])} "
                f"d=left {node(c)} {node(c + 1)})")

    return node(0)


def serialize(ens: TreeEnsemble) -> str:
    """Deterministic UTF-8 text encoding of an ensemble.

    Format: header line, key=value config block ending in the fixed
    _BUDGET_LINE, the fixed base_scores line (0.0 per class), n_features,
    trees count, then one `(tree class=K ...)` s-expression per line in
    boosting order; reals are shortest-round-trip decimals.
    """
    cfg = ens.config
    lines = [_HEADER, *(f"{key}={getattr(cfg, key)}" for key in _CONFIG_KEYS),
             _BUDGET_LINE]
    lines.append("base_scores=" + " ".join(["0.0"] * cfg.n_classes))
    lines.append(f"n_features={ens.n_features}")
    lines.append(f"trees={len(ens.trees)}")
    for k, tree in ens.trees:
        lines.append(f"(tree class={k} {_tree_sexpr(tree)})")
    return "\n".join(lines) + "\n"


class FormatError(ValueError):
    """Malformed GBDT model text."""


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = re.findall(r"[()]|[^()\s]+", text)
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.toks):
            raise FormatError("unexpected end of tree expression")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, want: str) -> None:
        got = self.next()
        if got != want:
            raise FormatError(f"expected {want!r} at token {self.pos - 1}, got {got!r}")


def _take_kv(toks: _Tokens, key: str) -> str:
    tok = toks.next()
    if not tok.startswith(key + "="):
        raise FormatError(f"expected {key}=... at token {toks.pos - 1}, got {tok!r}")
    return tok[len(key) + 1:]


def _parse_int(s: str, what: str) -> int:
    try:
        return int(s)
    except ValueError as e:
        raise FormatError(f"bad {what} {s!r}") from e


def _parse_float(s: str, what: str) -> float:
    """A finite float; nan and inf are refused like any malformed value."""
    try:
        v = float(s)
    except ValueError as e:
        raise FormatError(f"bad {what} value {s!r}") from e
    if not math.isfinite(v):
        raise FormatError(f"non-finite {what} value {s!r}")
    return v


def _parse_node(toks: _Tokens, n_features: int, depth_left: int,
                nodes: tuple[list, list, list, list], i: int) -> None:
    """One node and its subtree into slot i of the (feature, threshold,
    child, value) lists ``nodes``; a split appends its children's two slots.
    depth_left is max_depth less the node's depth; a split needs it > 0."""
    toks.expect("(")
    kind = toks.next()
    if kind == "leaf":
        nodes[3][i] = _parse_float(_take_kv(toks, "w"), "leaf weight")
        toks.expect(")")
        return
    if kind == "split":
        if depth_left <= 0:
            raise FormatError("a split sits deeper than max_depth")
        feature = _parse_int(_take_kv(toks, "f"), "feature index")
        if not 0 <= feature < n_features:
            raise FormatError(f"feature index {feature} out of range for "
                              f"n_features={n_features}")
        thr = _parse_float(_take_kv(toks, "t"), "threshold")
        d = _take_kv(toks, "d")
        if d != "left":
            raise FormatError(f"bad default direction {d!r}")
        c = _split_slot(nodes, i, feature, thr)
        _parse_node(toks, n_features, depth_left - 1, nodes, c)
        _parse_node(toks, n_features, depth_left - 1, nodes, c + 1)
        toks.expect(")")
        return
    raise FormatError(f"unknown node kind {kind!r}")


def _header_value(lines: list[str], i: int, key: str) -> str:
    """The value of line i, which must read key=value."""
    if i >= len(lines) or not lines[i].startswith(key + "="):
        raise FormatError(f"missing config line {key}=...")
    return lines[i][len(key) + 1:]


def deserialize(text: str) -> TreeEnsemble:
    """Parse serialize() output; raises FormatError on any malformation."""
    lines = text.splitlines()
    if not lines or lines[0] != _HEADER:
        raise FormatError(f"bad header: expected {_HEADER!r}")
    kv = {key: _header_value(lines, i, key) for i, key in enumerate(_CONFIG_KEYS, 1)}
    try:                                # each value read as its default's type
        cfg = GBDTConfig(**{key: type(getattr(_DEFAULT_CONFIG, key))(value)
                            for key, value in kv.items()})
    except ValueError as e:
        raise FormatError(f"bad config value: {e}") from e
    i = len(_CONFIG_KEYS) + 1
    if i >= len(lines) or lines[i] != _BUDGET_LINE:
        raise FormatError(f"expected config line {_BUDGET_LINE!r}")
    base = _header_value(lines, i + 1, "base_scores").split()
    if len(base) != cfg.n_classes:
        raise FormatError(f"base_scores has {len(base)} values, expected {cfg.n_classes}")
    if any([_parse_float(v, "base score") for v in base]):
        raise FormatError(f"nonzero base score in {lines[i + 1]!r}: margins start at 0")
    n_features = _parse_int(_header_value(lines, i + 2, "n_features"), "n_features value")
    if n_features < 0:
        raise FormatError(f"negative n_features {n_features}")
    n_trees = _parse_int(_header_value(lines, i + 3, "trees"), "trees count")
    if not 0 <= n_trees <= cfg.max_trees:
        raise FormatError(f"trees={n_trees} outside [0, max_trees={cfg.max_trees}]")
    i += 4

    trees = []
    for j in range(n_trees):
        if i + j >= len(lines):
            raise FormatError(f"expected {n_trees} tree records, found {j}")
        toks = _Tokens(lines[i + j])
        toks.expect("(")
        toks.expect("tree")
        k = _parse_int(_take_kv(toks, "class"), "tree class")
        if not 0 <= k < cfg.n_classes:
            raise FormatError(f"tree class {k} out of range [0, {cfg.n_classes})")
        nodes = ([0], [math.inf], [0], [0.0])
        try:
            _parse_node(toks, n_features, cfg.max_depth, nodes, 0)
        except RecursionError as e:
            raise FormatError(f"tree record {j} nests too deep to parse") from e
        toks.expect(")")
        if toks.pos < len(toks.toks):
            raise FormatError(f"trailing tokens after tree record {j}")
        trees.append((k, Tree(*nodes)))
    if i + n_trees != len(lines) and any(
        line.strip() for line in lines[i + n_trees:]
    ):
        raise FormatError("trailing content after final tree record")
    return TreeEnsemble(config=cfg, n_features=n_features, trees=tuple(trees))


def check_fits(ens: TreeEnsemble, n_features: int, n_classes: int) -> None:
    """Raise FormatError unless ``ens`` scores rows of ``n_features`` features
    into ``n_classes`` classes: its class count and recorded feature count
    must equal them."""
    if ens.config.n_classes != n_classes:
        raise FormatError(f"model has {ens.config.n_classes} classes, the data {n_classes}")
    if ens.n_features != n_features:
        raise FormatError(f"model n_features {ens.n_features} != feature width "
                          f"{n_features}")
