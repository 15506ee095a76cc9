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
sums. One scan scores a node's block in feature blocks of about 64k
candidates.

Features are handled in float32, the canonical precision of persisted feature
matrices; thresholds and leaf weights are float64. Everything is deterministic:
stable sorts, fixed scan order, first-occurrence maximum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class GBDTConfig:
    """Boosting hyperparameters.

    budget_mode reads max_trees either as the total tree count across all
    classes ("total_trees", the default: 20 means two full 10-class rounds)
    or as the number of boosting rounds ("rounds": 20 means 20 * n_classes
    trees).
    """

    n_classes: int = 10
    max_trees: int = 20
    max_depth: int = 10
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    budget_mode: str = "total_trees"
    base_score: float = 0.0

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
        if self.budget_mode not in ("total_trees", "rounds"):
            raise ValueError(
                f"budget_mode must be 'total_trees' or 'rounds', got "
                f"{self.budget_mode!r}"
            )

    @property
    def total_tree_budget(self) -> int:
        if self.budget_mode == "total_trees":
            return self.max_trees
        return self.max_trees * self.n_classes


@dataclass
class TreeNode:
    """One node; leaves carry weight, internal nodes carry the split."""

    is_leaf: bool
    weight: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    default_direction: str = "left"
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def node_counts(self) -> tuple[int, int]:
        """(internal nodes, leaves)."""
        if self.is_leaf:
            return 0, 1
        li, ll = self.left.node_counts()
        ri, rl = self.right.node_counts()
        return 1 + li + ri, ll + rl


@dataclass
class TreeEnsemble:
    """Ordered (class_id, tree) pairs plus per-class base scores.

    ``n_features`` records the training feature count (None when unknown) so
    downstream consumers can reject inputs of the wrong width.
    """

    config: GBDTConfig
    trees: list[tuple[int, TreeNode]] = field(default_factory=list)
    base_score: np.ndarray | None = None
    n_features: int | None = None

    def __post_init__(self):
        if self.base_score is None:
            self.base_score = np.full(self.config.n_classes, self.config.base_score)


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


# Candidates (features x node rows) scored per block of the scan: each float64
# temporary of a block is 512 KiB, so a block's working set stays in L2.
_BLOCK = 1 << 16
_ROW = 0xFFFFFFFF        # low 32 bits of a column-block entry: the row id


def _column_block(x: np.ndarray) -> np.ndarray:
    """Every column of x [m, F] (no NaN) sorted once, as one int64 [F, m].

    Entry (f, j) packs the j-th smallest value of column f with its row id r
    as key * 2**32 + r, where key is the value's float32 bit pattern as a
    signed integer, negated for negative values so that integer order is
    value order (-0.0 and +0.0 share key 0). The entries of a column are
    distinct, so sorting them gives the stable argsort of the column, and
    equal keys mean equal values.
    """
    m, nf = x.shape
    if m > _ROW + 1:
        raise ValueError(f"at most 2**32 rows fit a column block, got {m}")
    keys = np.empty((nf, m), dtype=np.int64)
    np.copyto(keys, x.T.view(np.int32))
    neg = keys < 0
    np.add(keys, 2**31, out=keys, where=neg)        # the magnitude bits
    np.negative(keys, out=keys, where=neg)
    keys <<= 32
    keys |= np.arange(m)
    keys.sort(axis=1)
    return keys


def _scan(keys: np.ndarray, x: np.ndarray, g: np.ndarray, h: np.ndarray,
          gt: float, ht: float, cfg: GBDTConfig) -> Split | None:
    """Best split of one node from its column block keys [F, m] (see
    _column_block; row ids index x, g and h).

    gt, ht are the node's gradient and Hessian totals. Features are scored in
    blocks of about _BLOCK candidates; a block's first maximum replaces the
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
        rows = bkeys & _ROW
        gl = np.cumsum(g[rows], axis=1)[:, :-1]
        hl = np.cumsum(h[rows], axis=1)[:, :-1]
        gr = gt - gl
        hr = ht - hl
        with np.errstate(invalid="ignore"):      # 0/0 when lambda = 0
            gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - cfg.gamma
        vkeys = bkeys >> 32
        valid = (gains > 0.0) & (vkeys[:, 1:] != vkeys[:, :-1])
        valid &= hl >= mcw
        valid &= hr >= mcw
        gains[~valid] = 0.0
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
    tree growth, so it returns exactly the split grow_tree makes at a node
    holding these rows.

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
    return _scan(_column_block(x), x, g, h, g.sum(), h.sum(), cfg)


def _grow(x: np.ndarray, block: np.ndarray, g: np.ndarray, h: np.ndarray,
          cfg: GBDTConfig) -> tuple[TreeNode, np.ndarray]:
    """Grow one tree from x's column block; returns (tree, [m] leaf weights).

    A split routes the node's rows by x <= threshold into one side mask and
    partitions every column of the node's block stably by it, so each child's
    block is the parent's sorted order restricted to the child's rows. Node
    rows are kept in increasing row order and node totals are their sums in
    that order.

    Below the root, which is only read, a node's block is a span of one half
    of a two-half buffer and its children's blocks are cut into the same span
    of the other half. Nodes waiting on the stack hold disjoint spans, and a
    span is overwritten only after its node is split, so growth allocates
    nothing of block size beyond the buffer; the partition runs in the scan's
    feature blocks, which bounds its temporaries too.
    """
    g = np.ascontiguousarray(g, dtype=np.float64)
    h = np.ascontiguousarray(h, dtype=np.float64)
    nf, n = block.shape
    weights = np.empty(n)
    side = np.zeros(n, dtype=bool)
    buf = np.empty((2, nf * n), dtype=block.dtype)
    root = TreeNode(is_leaf=True)
    stack = [(root, np.arange(n), block, 0, 0)]
    while stack:
        node, idx, keys, start, depth = stack.pop()
        gs = float(g[idx].sum())
        hs = float(h[idx].sum())
        sp = None
        if depth < cfg.max_depth and idx.size >= 2:
            sp = _scan(keys, x, g, h, gs, hs, cfg)
        if sp is None:
            node.weight = float(-cfg.learning_rate * gs / (hs + cfg.reg_lambda))
            weights[idx] = node.weight
            continue
        go_left = x[idx, sp.feature] <= np.float64(sp.threshold)
        side[idx] = go_left
        m, ml = idx.size, int(go_left.sum())
        half, cut = buf[(depth + 1) % 2], start + nf * ml
        left = half[start:cut].reshape(nf, ml)
        right = half[cut:start + nf * m].reshape(nf, m - ml)
        step = max(1, _BLOCK // m)
        for f0 in range(0, nf, step):
            rows = slice(f0, f0 + step)
            part = keys[rows].ravel()
            sel = side[part & _ROW]
            np.compress(sel, part, out=left[rows].ravel())
            np.compress(~sel, part, out=right[rows].ravel())
        node.is_leaf, node.feature, node.threshold = False, sp.feature, sp.threshold
        node.left, node.right = TreeNode(is_leaf=True), TreeNode(is_leaf=True)
        stack.append((node.right, idx[~go_left], right, cut, depth + 1))
        stack.append((node.left, idx[go_left], left, start, depth + 1))
    return root, weights


def grow_tree(x: np.ndarray, g: np.ndarray, h: np.ndarray, cfg: GBDTConfig) -> TreeNode:
    """Grow one regression tree by exact-greedy partitioning.

    Sorts x's columns once into a column block and partitions it down the
    tree (see _grow); every node's split is the one best_split returns for
    that node's rows. Depth is counted in split levels: max_depth = 0 yields
    a single leaf.
    """
    x = np.asarray(x, dtype=np.float32)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-d [m, F], got ndim={x.ndim}")
    if not (np.isfinite(x).all() and np.isfinite(g).all() and np.isfinite(h).all()):
        raise ValueError("training features and grad/hess must be finite")
    return _grow(x, _column_block(x), g, h, cfg)[0]


def _tree_predict(node: TreeNode, x32: np.ndarray) -> np.ndarray:
    """Route all rows of x32 [N, F] through one tree; returns [N] weights."""
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
        if nd.default_direction == "left":
            go_left |= np.isnan(col)
        stack.append((nd.left, idx[go_left]))
        stack.append((nd.right, idx[~go_left]))
    return out


def train_ensemble(
    x: np.ndarray, labels: np.ndarray, cfg: GBDTConfig
) -> TreeEnsemble:
    """Boost cfg.total_tree_budget trees, one per class in class order.

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

    ens = TreeEnsemble(config=cfg, n_features=x.shape[1])
    block = _column_block(x)
    margins = np.tile(ens.base_score, (n, 1))
    built = 0
    budget = cfg.total_tree_budget
    while built < budget:
        g, h = softmax_grad_hess(margins, labels)
        for k in range(cfg.n_classes):
            if built >= budget:
                break
            tree, weights = _grow(x, block, g[:, k], h[:, k], cfg)
            margins[:, k] += weights
            ens.trees.append((k, tree))
            built += 1
    return ens


def predict_margins(ens: TreeEnsemble, x: np.ndarray) -> np.ndarray:
    """Raw class margins [N, K]; input is cast to float32 (the canonical
    persisted feature precision) before routing."""
    x32 = np.asarray(x, dtype=np.float32)
    if x32.ndim != 2:
        raise ValueError(f"features must be 2-d [N, F], got ndim={x32.ndim}")
    if ens.n_features is not None and x32.shape[1] != ens.n_features:
        raise ValueError(
            f"feature width {x32.shape[1]} != ensemble n_features {ens.n_features}"
        )
    n = x32.shape[0]
    margins = np.tile(ens.base_score, (n, 1))
    for k, tree in ens.trees:
        margins[:, k] += _tree_predict(tree, x32)
    return margins


def predict_class(ens: TreeEnsemble, x: np.ndarray) -> np.ndarray:
    """Argmax class ids; ties break toward the lowest class index."""
    return np.argmax(predict_margins(ens, x), axis=1)


def round_losses(ens: TreeEnsemble, x: np.ndarray, labels: np.ndarray):
    """Mean multiclass log-loss before boosting and after each round.

    Replays the ensemble in boosting order (trees grouped per round, one
    tree per class); entry 0 is the base-score loss, entry r the loss after
    round r. The final margins equal predict_margins exactly.
    """
    x32 = np.asarray(x, dtype=np.float32)
    labels = np.asarray(labels)
    n, k = x32.shape[0], ens.config.n_classes
    margins = np.tile(ens.base_score, (n, 1))

    def mean_loss():
        z = margins - margins.max(axis=1, keepdims=True)
        logp = z[np.arange(n), labels] - np.log(np.exp(z).sum(axis=1))
        return float(-logp.mean())

    losses = [mean_loss()]
    for start in range(0, len(ens.trees), k):
        for cls, tree in ens.trees[start:start + k]:
            margins[:, cls] += _tree_predict(tree, x32)
        losses.append(mean_loss())
    return losses


# --- text serialization ------------------------------------------------------

_HEADER = "RXGB-GBDT v1"
_CONFIG_KEYS = (
    "n_classes", "max_trees", "max_depth", "learning_rate", "reg_lambda",
    "gamma", "min_child_weight", "budget_mode", "base_score",
)


def _fmt(v: float) -> str:
    return repr(float(v))


def _node_sexpr(node: TreeNode) -> str:
    if node.is_leaf:
        return f"(leaf w={_fmt(node.weight)})"
    return (
        f"(split f={node.feature} t={_fmt(node.threshold)} "
        f"d={node.default_direction} {_node_sexpr(node.left)} "
        f"{_node_sexpr(node.right)})"
    )


def serialize(ens: TreeEnsemble) -> str:
    """Deterministic UTF-8 text encoding of an ensemble.

    Format: header line, key=value config block, base_scores line with one
    shortest-round-trip decimal per class, trees count, then one
    `(tree class=K ...)` s-expression per line in boosting order.
    """
    cfg = ens.config
    lines = [_HEADER]
    for key in _CONFIG_KEYS:
        if key == "base_score":
            continue
        lines.append(f"{key}={getattr(cfg, key)}")
    lines.append("base_scores=" + " ".join(_fmt(v) for v in ens.base_score))
    lines.append(f"n_features={ens.n_features or 0}")
    lines.append(f"trees={len(ens.trees)}")
    for k, tree in ens.trees:
        lines.append(f"(tree class={k} {_node_sexpr(tree)})")
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

    def done(self) -> bool:
        return self.pos >= len(self.toks)


def _take_kv(toks: _Tokens, key: str) -> str:
    tok = toks.next()
    if not tok.startswith(key + "="):
        raise FormatError(f"expected {key}=... at token {toks.pos - 1}, got {tok!r}")
    return tok[len(key) + 1:]


def _parse_float(s: str, what: str) -> float:
    try:
        return float(s)
    except ValueError as e:
        raise FormatError(f"bad {what} value {s!r}") from e


def _parse_node(toks: _Tokens, n_features: int) -> TreeNode:
    toks.expect("(")
    kind = toks.next()
    if kind == "leaf":
        w = _parse_float(_take_kv(toks, "w"), "leaf weight")
        toks.expect(")")
        return TreeNode(is_leaf=True, weight=w)
    if kind == "split":
        f = _take_kv(toks, "f")
        try:
            feature = int(f)
        except ValueError as e:
            raise FormatError(f"bad feature index {f!r}") from e
        if feature < 0 or n_features and feature >= n_features:
            raise FormatError(f"feature index {feature} out of range for "
                              f"n_features={n_features}")
        thr = _parse_float(_take_kv(toks, "t"), "threshold")
        d = _take_kv(toks, "d")
        if d not in ("left", "right"):
            raise FormatError(f"bad default direction {d!r}")
        left = _parse_node(toks, n_features)
        right = _parse_node(toks, n_features)
        toks.expect(")")
        return TreeNode(
            is_leaf=False, feature=feature, threshold=thr,
            default_direction=d, left=left, right=right,
        )
    raise FormatError(f"unknown node kind {kind!r}")


def deserialize(text: str) -> TreeEnsemble:
    """Parse serialize() output; raises FormatError on any malformation."""
    lines = text.splitlines()
    if not lines or lines[0] != _HEADER:
        raise FormatError(f"bad header: expected {_HEADER!r}")
    kv = {}
    i = 1
    for key in _CONFIG_KEYS:
        if key == "base_score":
            continue
        if i >= len(lines) or not lines[i].startswith(key + "="):
            raise FormatError(f"missing config line {key}=...")
        kv[key] = lines[i].split("=", 1)[1]
        i += 1
    try:
        cfg = GBDTConfig(
            n_classes=int(kv["n_classes"]),
            max_trees=int(kv["max_trees"]),
            max_depth=int(kv["max_depth"]),
            learning_rate=float(kv["learning_rate"]),
            reg_lambda=float(kv["reg_lambda"]),
            gamma=float(kv["gamma"]),
            min_child_weight=float(kv["min_child_weight"]),
            budget_mode=kv["budget_mode"],
        )
    except ValueError as e:
        raise FormatError(f"bad config value: {e}") from e

    if i >= len(lines) or not lines[i].startswith("base_scores="):
        raise FormatError("missing base_scores line")
    parts = lines[i].split("=", 1)[1].split()
    if len(parts) != cfg.n_classes:
        raise FormatError(
            f"base_scores has {len(parts)} values, expected {cfg.n_classes}"
        )
    base = np.array([_parse_float(p, "base score") for p in parts])
    i += 1

    if i >= len(lines) or not lines[i].startswith("n_features="):
        raise FormatError("missing n_features line")
    try:
        n_features = int(lines[i].split("=", 1)[1])
    except ValueError as e:
        raise FormatError("bad n_features value") from e
    if n_features < 0:
        raise FormatError(f"negative n_features {n_features}")
    i += 1

    if i >= len(lines) or not lines[i].startswith("trees="):
        raise FormatError("missing trees= line")
    try:
        n_trees = int(lines[i].split("=", 1)[1])
    except ValueError as e:
        raise FormatError("bad trees count") from e
    i += 1

    trees: list[tuple[int, TreeNode]] = []
    for j in range(n_trees):
        if i + j >= len(lines):
            raise FormatError(f"expected {n_trees} tree records, found {j}")
        toks = _Tokens(lines[i + j])
        toks.expect("(")
        toks.expect("tree")
        cls = _take_kv(toks, "class")
        try:
            k = int(cls)
        except ValueError as e:
            raise FormatError(f"bad tree class {cls!r}") from e
        if not 0 <= k < cfg.n_classes:
            raise FormatError(f"tree class {k} out of range [0, {cfg.n_classes})")
        try:
            node = _parse_node(toks, n_features)
        except RecursionError as e:
            raise FormatError(f"tree record {j} nests too deep to parse") from e
        toks.expect(")")
        if not toks.done():
            raise FormatError(f"trailing tokens after tree record {j}")
        trees.append((k, node))
    if i + n_trees != len(lines) and any(
        line.strip() for line in lines[i + n_trees:]
    ):
        raise FormatError("trailing content after final tree record")
    return TreeEnsemble(
        config=cfg,
        trees=trees,
        base_score=base,
        n_features=n_features or None,
    )
