"""Static per-layer accounting of BOPs, FLOPs, OPs, and parameter bits.

Counting rules (MAC = 1 FLOP, binary MAC = 1 BOP):

* binary conv:  BOPs = Co*Ci*kh*kw*H'*W',  bits = Co*Ci*kh*kw + 32*Co (alpha)
* fp32 conv:    FLOPs = Co*Ci*kh*kw*H'*W', bits = 32*Co*Ci*kh*kw
* batch norm:   FLOPs = 2*C*H'*W' (fused scale+shift), bits = 32*2C learnable
                + 32*2C running stats
* RSign:        FLOPs = C*H'*W' (shift+compare),  bits = 32*C
* RPReLU:       FLOPs = 2*C*H'*W',                bits = 32*3C
* FC (no bias): FLOPs = D_in*D_out,               bits = 32*D_in*D_out
* pools:        FLOPs = C*H*W over the pooled input, no parameters

OPs = BOPs/64 + FLOPs, computed from unrounded totals. MB = 2^20 bytes.

FLOPs are tracked in two columns: the headline column (fp32 convs, the global
pool, the FC head) and an elementwise column (BN, RSign, RPReLU, shortcut
pools). Compact-model cost tables conventionally quote only the headline
column; the elementwise convention varies, so the report always prints both
and their sum, letting a reader reconcile against either convention.

Tree-head costs are reported out of band from the CNN totals: the budget this
architecture is tuned to subtracts exactly the FC cost when the tree head
replaces it, implying tree compares are excluded from its FLOPs column.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import netspec
from .gbdt import GBDTConfig, TreeEnsemble
from .netspec import NetworkSpec, ShapeStep

MEGABYTE = 1 << 20

# deployed tree-node encoding: internal = 32-bit threshold + 16-bit feature
# index + 2 structure bits; leaf = 32-bit weight + 2 structure bits
INTERNAL_NODE_BITS = 32 + 16 + 2
LEAF_NODE_BITS = 32 + 2


@dataclass(frozen=True)
class CostBudget:
    """Cost budget the reference plan is tuned to (acceptance band ±15%)."""

    bops: float = 1.38e8
    headline_flops_with_fc: float = 0.14e6
    headline_flops_cnn_only: float = 0.13e6
    param_mb_with_fc: float = 3.91
    param_mb_cnn_only: float = 3.87
    tolerance: float = 0.15


DESIGN_BUDGET = CostBudget()


@dataclass(frozen=True)
class CostRow:
    """One accounting row; elementwise marks the non-headline FLOPs column.

    binary_weight_bits counts the 1-bit weights inside param_bits (binary
    conv rows only); the remainder of param_bits is fp32 values.
    """

    name: str
    bops: int = 0
    flops: int = 0
    param_bits: int = 0
    elementwise: bool = False
    binary_weight_bits: int = 0


# --- per-primitive counting rules --------------------------------------------

def binary_conv_cost(co, ci, kh, kw, out_h, out_w) -> tuple[int, int]:
    """(BOPs, param_bits) of a 1-bit conv with per-channel fp32 scales."""
    return co * ci * kh * kw * out_h * out_w, co * ci * kh * kw + 32 * co


def fp32_conv_cost(co, ci, kh, kw, out_h, out_w) -> tuple[int, int]:
    """(FLOPs, param_bits) of a real-valued conv, no bias."""
    return co * ci * kh * kw * out_h * out_w, 32 * co * ci * kh * kw


def bn_cost(c, h, w) -> tuple[int, int]:
    """(FLOPs, param_bits): fused scale+shift, params + running stats."""
    return 2 * c * h * w, 32 * 4 * c


def rsign_cost(c, h, w) -> tuple[int, int]:
    return c * h * w, 32 * c


def rprelu_cost(c, h, w) -> tuple[int, int]:
    return 2 * c * h * w, 32 * 3 * c


def fc_cost(d_in, d_out) -> tuple[int, int]:
    return d_in * d_out, 32 * d_in * d_out


def pool_cost(c, h, w) -> int:
    return c * h * w


# --- layer expansion ----------------------------------------------------------

# the elementwise column's primitives: (FLOPs, param_bits) of C channels at H x W
_ELEMENTWISE = {
    netspec.BATCH_NORM: bn_cost,
    netspec.RSIGN: rsign_cost,
    netspec.RPRELU: rprelu_cost,
    netspec.SHORTCUT_POOL: lambda c, h, w: (pool_cost(c, h, w), 0),
}


def _row(op: netspec.Op) -> CostRow:
    ci, co, k, (h, w) = op.in_channels, op.out_channels, op.kernel, op.hw
    if op.kind == netspec.BINARY_CONV:
        bops, bits = binary_conv_cost(co, ci, k, k, h, w)
        return CostRow(op.prefix, bops=bops, param_bits=bits,
                       binary_weight_bits=co * ci * k * k)
    if op.kind in _ELEMENTWISE:
        flops, bits = _ELEMENTWISE[op.kind](co, h, w)
        return CostRow(op.prefix, flops=flops, param_bits=bits, elementwise=True)
    if op.kind == netspec.STEM_CONV:
        flops, bits = fp32_conv_cost(co, ci, k, k, h, w)
    elif op.kind == netspec.FC_HEAD:
        flops, bits = fc_cost(ci, co)
    else:  # the global pool
        flops, bits = pool_cost(co, h, w), 0
    return CostRow(op.prefix, flops=flops, param_bits=bits)


def primitive_rows(step: ShapeStep) -> list[CostRow]:
    """One accounting row per primitive of a resolved layer, named by the
    primitive's parameter prefix (see ``netspec.layer_ops``)."""
    return [_row(op) for op in netspec.layer_ops(step)]


# --- report -------------------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    """Primitive rows plus totals; all counts are exact integers."""

    rows: tuple[CostRow, ...]
    total_bops: int
    total_flops: int
    headline_flops: int
    elementwise_flops: int
    total_param_bits: int
    binary_param_bits: int

    @property
    def ops(self) -> float:
        return ops_from_totals(self.total_bops, self.total_flops)

    @property
    def headline_ops(self) -> float:
        return ops_from_totals(self.total_bops, self.headline_flops)

    @property
    def param_bytes(self) -> float:
        return self.total_param_bits / 8

    @property
    def param_megabytes(self) -> float:
        return self.total_param_bits / (8 * MEGABYTE)


def ops_from_totals(bops: float, flops: float) -> float:
    """OPs = BOPs/64 + FLOPs, unrounded."""
    return bops / 64 + flops


def cost_report(spec: NetworkSpec) -> CostReport:
    """Expand a validated NetworkSpec into its full cost report."""
    rows: list[CostRow] = []
    for step in netspec.shape_chain(spec):
        rows.extend(primitive_rows(step))
    total_bops = sum(r.bops for r in rows)
    total_flops = sum(r.flops for r in rows)
    ew = sum(r.flops for r in rows if r.elementwise)
    return CostReport(
        rows=tuple(rows),
        total_bops=total_bops,
        total_flops=total_flops,
        headline_flops=total_flops - ew,
        elementwise_flops=ew,
        total_param_bits=sum(r.param_bits for r in rows),
        binary_param_bits=sum(r.binary_weight_bits for r in rows),
    )


# --- tree head (out-of-band) ---------------------------------------------------

@dataclass(frozen=True)
class TreeHeadCost:
    """Worst-case inference compares and deployed storage of a tree head."""

    compare_flops: int
    internal_nodes: int
    leaves: int

    @property
    def param_bits(self) -> int:
        return (
            self.internal_nodes * INTERNAL_NODE_BITS
            + self.leaves * LEAF_NODE_BITS
        )

    @property
    def param_bytes(self) -> float:
        return self.param_bits / 8


def gbdt_cost(head: TreeEnsemble | GBDTConfig) -> TreeHeadCost:
    """Cost of a tree head, exact for an ensemble, worst-case for a config.

    An ensemble is costed from its real trees: one compare per level on the
    deepest path of each tree, exact node counts. A bare config is costed at
    its worst case: every budgeted tree full at max_depth. That case is
    costed for depths up to 63 only: a full tree deeper than that has more
    than 2**63 leaves, which no index can address and no training set can
    fill, and 2**d of a vast d would not finish. A deeper config raises
    ValueError before any count is computed.
    """
    if isinstance(head, TreeEnsemble):
        compares = 0
        internal = 0
        leaves = 0
        for _, tree in head.trees:
            compares += tree.depth()
            i, l = tree.node_counts()
            internal += i
            leaves += l
        return TreeHeadCost(compares, internal, leaves)
    if isinstance(head, GBDTConfig):
        n = head.max_trees
        d = head.max_depth
        if d > 63:
            raise ValueError(f"max_depth {d} is past the deepest costed tree, 63 "
                             f"(a full tree has 2**max_depth leaves)")
        return TreeHeadCost(n * d, n * (2**d - 1), n * 2**d)
    raise TypeError(f"expected TreeEnsemble or GBDTConfig, got {type(head).__name__}")


# --- diffs and budget reconciliation -------------------------------------------

@dataclass(frozen=True)
class CostDiff:
    """Deltas going from report a to report b (b - a)."""

    delta_bops: int
    delta_flops: int
    delta_headline_flops: int
    delta_param_bits: int

    @property
    def delta_param_bytes(self) -> float:
        return self.delta_param_bits / 8

    @property
    def delta_param_megabytes(self) -> float:
        return self.delta_param_bits / (8 * MEGABYTE)


def diff_reports(a: CostReport, b: CostReport) -> CostDiff:
    """Column deltas (b - a); e.g. b = a without its FC head."""
    return CostDiff(
        delta_bops=b.total_bops - a.total_bops,
        delta_flops=b.total_flops - a.total_flops,
        delta_headline_flops=b.headline_flops - a.headline_flops,
        delta_param_bits=b.total_param_bits - a.total_param_bits,
    )


@dataclass(frozen=True)
class BudgetReconciliation:
    """FC-removal deltas restated at the budget table's 2-decimal precision.

    The budget quotes headline FLOPs in 1e6 units and sizes in MB, both at
    two decimals, so the comparable percentages divide the rounded deltas by
    the budget figures: -0.01/0.14 and -0.04/3.91 for the reference plan.
    """

    flops_delta_megas: float
    flops_pct: float
    param_delta_mb: float
    param_pct: float


def fc_removal_vs_budget(
    diff: CostDiff, budget: CostBudget = DESIGN_BUDGET
) -> BudgetReconciliation:
    flops_delta = round(diff.delta_headline_flops / 1e6, 2)
    param_delta = round(diff.delta_param_megabytes, 2)
    return BudgetReconciliation(
        flops_delta_megas=flops_delta,
        flops_pct=100.0 * flops_delta / round(budget.headline_flops_with_fc / 1e6, 2),
        param_delta_mb=param_delta,
        param_pct=100.0 * param_delta / budget.param_mb_with_fc,
    )


@dataclass(frozen=True)
class BudgetResidual:
    name: str
    actual: float
    target: float

    @property
    def pct(self) -> float:
        return 100.0 * (self.actual - self.target) / self.target

    @property
    def within(self) -> bool:
        return abs(self.pct) <= 100.0 * DESIGN_BUDGET.tolerance


def budget_residuals(
    report: CostReport, budget: CostBudget = DESIGN_BUDGET, with_fc: bool = True
) -> list[BudgetResidual]:
    """How far a report sits from the budget it was tuned to."""
    flops_target = (
        budget.headline_flops_with_fc if with_fc else budget.headline_flops_cnn_only
    )
    mb_target = budget.param_mb_with_fc if with_fc else budget.param_mb_cnn_only
    return [
        BudgetResidual("BOPs", float(report.total_bops), budget.bops),
        BudgetResidual("headline FLOPs", float(report.headline_flops), flops_target),
        BudgetResidual("parameter MB", report.param_megabytes, mb_target),
    ]


# --- rendering ------------------------------------------------------------------

def render_machine(report: CostReport) -> str:
    """Line-oriented `layer<TAB>bops<TAB>flops<TAB>param_bits` format."""
    lines = [
        f"{r.name}\t{r.bops}\t{r.flops}\t{r.param_bits}" for r in report.rows
    ]
    lines.append(
        f"TOTAL\t{report.total_bops}\t{report.total_flops}\t"
        f"{report.total_param_bits}"
    )
    return "\n".join(lines) + "\n"


def render_table(
    report: CostReport,
    tree_head: TreeHeadCost | None = None,
    budget: CostBudget | None = None,
    with_fc: bool = True,
) -> str:
    """Aligned human-readable cost table with totals and conventions."""
    name_w = max(len(r.name) for r in report.rows)
    name_w = max(name_w, len("TOTAL"))
    head = f"{'layer':<{name_w}}  {'BOPs':>12}  {'FLOPs':>10}  {'param_bits':>12}  col"
    lines = [head, "-" * len(head)]
    for r in report.rows:
        col = "elementwise" if r.elementwise else "headline"
        lines.append(
            f"{r.name:<{name_w}}  {r.bops:>12}  {r.flops:>10}  "
            f"{r.param_bits:>12}  {col}"
        )
    lines.append("-" * len(head))
    lines.append(
        f"{'TOTAL':<{name_w}}  {report.total_bops:>12}  {report.total_flops:>10}  "
        f"{report.total_param_bits:>12}"
    )
    lines.append("")
    lines.append(f"headline FLOPs    : {report.headline_flops}")
    lines.append(f"elementwise FLOPs : {report.elementwise_flops}")
    lines.append(
        f"OPs = BOPs/64 + FLOPs : {report.ops:.2f} "
        f"(headline-only: {report.headline_ops:.2f})"
    )
    lines.append(
        f"parameters        : {report.total_param_bits} bits = "
        f"{report.param_bytes:.0f} bytes = {report.param_megabytes:.4f} MB "
        f"({report.binary_param_bits} binary weight bits)"
    )
    if budget is not None:
        lines.append("")
        lines.append(f"budget residuals (tolerance ±{100 * budget.tolerance:.0f}%):")
        for res in budget_residuals(report, budget, with_fc=with_fc):
            mark = "ok" if res.within else "OUT OF BAND"
            lines.append(
                f"  {res.name:<15} actual {res.actual:>14.2f}  target "
                f"{res.target:>14.2f}  {res.pct:+.2f}%  {mark}"
            )
    if tree_head is not None:
        lines.append("")
        lines.append(
            "tree head (reported out of band from the CNN totals): "
            f"worst-case compares {tree_head.compare_flops}, "
            f"{tree_head.internal_nodes} internal + {tree_head.leaves} leaf "
            f"nodes, {tree_head.param_bits} bits "
            f"({tree_head.param_bytes:.0f} bytes)"
        )
    return "\n".join(lines) + "\n"
