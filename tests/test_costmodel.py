"""Tests for the cost model.

Counting rules are checked against hand-computed values; the reference plan
against a per-block table derived independently with pencil-and-paper block
formulas (normal block BOPs = 10*C^2*S, reduction = 11*C^2*S'); diffs and
budget reconciliation against the exact FC-head arithmetic.
"""

import numpy as np
import pytest
from oracles import Node, stump, to_tree

from rxgb import costmodel as cm
from rxgb import netspec
from rxgb.gbdt import GBDTConfig, TreeEnsemble
from rxgb.netspec import (
    FC_HEAD,
    FIRST_CONV,
    LayerSpec,
    NetworkSpec,
    reference_spec,
    shape_chain,
)


def test_primitive_rules_hand_values():
    # binary conv 32->64, 3x3, 14x14 output
    bops, bits = cm.binary_conv_cost(64, 32, 3, 3, 14, 14)
    assert bops == 64 * 32 * 9 * 196 == 3_612_672
    assert bits == 64 * 32 * 9 + 32 * 64
    # 1x1 binary conv, Co=Ci=1, 1x1 output
    assert cm.binary_conv_cost(1, 1, 1, 1, 1, 1) == (1, 1 + 32)
    # fp32 stem conv 1->64 at 14x14
    flops, bits = cm.fp32_conv_cost(64, 1, 3, 3, 14, 14)
    assert flops == 112_896 and bits == 32 * 576
    # FC head
    flops, bits = cm.fc_cost(1024, 10)
    assert flops == 10_240
    assert bits == 32 * 10_240
    assert bits / 8 == 40_960
    assert bits / 8 / cm.MEGABYTE == 0.0390625
    # elementwise rules
    assert cm.bn_cost(64, 14, 14) == (2 * 64 * 196, 32 * 4 * 64)
    assert cm.rsign_cost(64, 14, 14) == (64 * 196, 32 * 64)
    assert cm.rprelu_cost(64, 14, 14) == (2 * 64 * 196, 32 * 3 * 64)
    assert cm.pool_cost(1024, 2, 2) == 4_096


def test_ops_formula_exact():
    assert cm.ops_from_totals(1.38e8, 0.14e6) == 2_296_250
    assert cm.ops_from_totals(1.38e8, 0.13e6) == 2_286_250
    assert cm.ops_from_totals(0, 123.0) == 123.0
    # linearity under uniform scaling
    for c in (2, 10, 0.5):
        assert cm.ops_from_totals(c * 1.38e8, c * 0.14e6) == pytest.approx(
            c * 2_296_250
        )


REFERENCE_BLOCK_BOPS = {
    "stem": 0,
    "block1": 8_028_160,    # N64  @14: 10 * 64^2  * 196
    "block2": 2_207_744,    # R64  ->7: 11 * 64^2  * 49
    "block3": 8_028_160,    # N128 @7:  10 * 128^2 * 49
    "block4": 2_883_584,    # R128 ->4: 11 * 128^2 * 16 (7x7 padded to 8x8)
    "block5": 10_485_760,   # N256 @4:  10 * 256^2 * 16
    "block6": 2_883_584,    # R256 ->2: 11 * 256^2 * 4
    "block7": 10_485_760,   # N512 @2:  10 * 512^2 * 4
    "block8": 11_534_336,   # W512 @2:  11 * 512^2 * 4 (stride-1 widening)
    "block9": 41_943_040,   # N1024 @2: 10 * 1024^2 * 4
    "block10": 41_943_040,
    "pool": 0,
    "fc": 0,
}


def test_reference_per_block_bops_match_hand_table():
    # the report's rows summed by layer, each row named "<layer>.<primitive>"
    bops = dict.fromkeys(REFERENCE_BLOCK_BOPS, 0)
    for row in cm.cost_report(reference_spec()).rows:
        bops[row.name.split(".", 1)[0]] += row.bops
    assert bops == REFERENCE_BLOCK_BOPS


def test_reference_totals_exact():
    r = cm.cost_report(reference_spec())
    assert r.total_bops == 140_423_168
    assert r.binary_param_bits == 28_282_880
    assert r.total_param_bits == 31_168_512
    assert r.headline_flops == 127_232   # stem 112,896 + pool 4,096 + fc 10,240
    assert r.elementwise_flops == 515_648
    assert r.total_flops == 642_880
    assert r.param_bytes == 3_896_064
    assert r.param_megabytes == pytest.approx(3.7156, abs=5e-5)
    # totals equal column sums of rows
    assert r.total_bops == sum(row.bops for row in r.rows)
    assert r.total_flops == sum(row.flops for row in r.rows)
    assert r.total_param_bits == sum(row.param_bits for row in r.rows)
    # OPs recomputable from totals via the formula exactly
    assert r.ops == r.total_bops / 64 + r.total_flops
    # packed payload needs whole bytes for the binary plane
    assert r.binary_param_bits % 8 == 0
    assert (r.total_param_bits - r.binary_param_bits) % 32 == 0


def test_reference_lands_within_budget_bands():
    with_fc = cm.cost_report(reference_spec())
    cnn = cm.cost_report(reference_spec(include_fc=False))
    assert abs(with_fc.total_bops - 1.38e8) / 1.38e8 <= 0.15
    assert abs(cnn.headline_flops - 0.13e6) / 0.13e6 <= 0.15
    assert abs(cnn.param_megabytes - 3.87) / 3.87 <= 0.15
    for res in cm.budget_residuals(cnn, with_fc=False):
        assert res.within, res
    # headline convention sanity: CNN-only = stem conv + global pool
    assert cnn.headline_flops == 112_896 + 4_096


def test_fc_removal_deltas_exact():
    for mult, feat in ((1.0, 1024), (0.5, 512)):
        a = cm.cost_report(reference_spec(width_mult=mult))
        b = cm.cost_report(reference_spec(width_mult=mult, include_fc=False))
        d = cm.diff_reports(a, b)
        assert d.delta_headline_flops == -feat * 10
        assert d.delta_flops == -feat * 10
        assert d.delta_param_bits == -32 * feat * 10
        assert d.delta_param_bytes == -4 * feat * 10
        assert d.delta_bops == 0


def test_fc_removal_budget_reconciliation():
    a = cm.cost_report(reference_spec())
    b = cm.cost_report(reference_spec(include_fc=False))
    d = cm.diff_reports(a, b)
    assert round(-d.delta_param_megabytes, 2) == 0.04
    rec = cm.fc_removal_vs_budget(d)
    assert rec.flops_delta_megas == -0.01
    assert rec.param_delta_mb == -0.04
    # -0.01/0.14 is exactly -1/14
    assert rec.flops_pct == pytest.approx(-100 / 14, abs=1e-12)
    assert round(rec.flops_pct, 2) == -7.14
    assert rec.param_pct == pytest.approx(100 * -0.04 / 3.91, abs=1e-12)
    assert round(rec.param_pct, 2) == -1.02


def test_diff_identical_reports_is_zero():
    r = cm.cost_report(reference_spec())
    d = cm.diff_reports(r, r)
    assert (d.delta_bops, d.delta_flops, d.delta_param_bits) == (0, 0, 0)


def test_width_halving_quarters_bops():
    full = cm.cost_report(reference_spec())
    half = cm.cost_report(reference_spec(width_mult=0.5))
    assert half.total_bops * 4 == full.total_bops
    assert half.binary_param_bits * 4 == full.binary_param_bits
    assert reference_spec(width_mult=0.5).feature_dim == 512


def test_resolve_layer_rejects_invalid_shapes():
    fc = LayerSpec(FC_HEAD, "fc", 1024, 10)
    with pytest.raises(ValueError, match="fc input shape"):
        netspec.resolve_layer(fc, (512,))


def test_shape_chain_validation_errors_name_layer_index():
    spec = reference_spec()
    bad = NetworkSpec(
        layers=spec.layers, input_shape=(1, 28, 28),
        feature_dim=512, class_count=10,
    )
    with pytest.raises(ValueError, match="layer 11"):
        shape_chain(bad)
    # fc not last
    layers = spec.layers[:-2] + (spec.layers[-1], spec.layers[-2])
    with pytest.raises(ValueError, match="must be last"):
        shape_chain(NetworkSpec(layers=layers))
    # missing stem
    with pytest.raises(ValueError, match="layer 0"):
        shape_chain(NetworkSpec(layers=spec.layers[1:]))
    # a stem declared at stride 1: the stem conv only runs stride 2
    stem = LayerSpec(FIRST_CONV, "stem", 1, 64, stride=1)
    with pytest.raises(ValueError, match=r"layer 0 \(stem\): .*stride 2, got 1"):
        shape_chain(NetworkSpec(layers=(stem,) + spec.layers[1:]))


def test_gbdt_cost_config_worst_case():
    c = cm.gbdt_cost(GBDTConfig(max_trees=20, max_depth=10))
    assert c.compare_flops == 200
    assert c.internal_nodes == 20 * (2**10 - 1)
    assert c.leaves == 20 * 2**10
    assert c.param_bits == c.internal_nodes * 50 + c.leaves * 34
    assert cm.gbdt_cost(GBDTConfig(max_trees=1, max_depth=63)).leaves == 2**63
    with pytest.raises(ValueError, match="max_depth 64 is past"):
        cm.gbdt_cost(GBDTConfig(max_trees=1, max_depth=64))


def test_gbdt_cost_ensemble_exact():
    empty = TreeEnsemble(config=GBDTConfig(max_trees=0), n_features=1)
    c = cm.gbdt_cost(empty)
    assert (c.compare_flops, c.param_bits) == (0, 0)

    leaf = TreeEnsemble(config=GBDTConfig(max_trees=1), n_features=1,
                        trees=[(0, to_tree(Node(is_leaf=True, weight=0.1)))])
    c = cm.gbdt_cost(leaf)
    assert c.compare_flops == 0
    assert c.leaves == 1 and c.internal_nodes == 0
    assert c.param_bits == 34

    # depth-2 tree: 2 internal nodes, 3 leaves, deepest path 2 compares
    tree = Node(is_leaf=False, feature=0, threshold=0.0,
                left=stump(1, 1.0, 1.0, 2.0), right=Node(is_leaf=True, weight=3.0))
    ens = TreeEnsemble(config=GBDTConfig(max_trees=1), n_features=2,
                       trees=[(0, to_tree(tree))])
    c = cm.gbdt_cost(ens)
    assert c.compare_flops == 2
    assert (c.internal_nodes, c.leaves) == (2, 3)
    assert c.param_bits == 2 * 50 + 3 * 34

    with pytest.raises(TypeError, match="TreeEnsemble or GBDTConfig"):
        cm.gbdt_cost([1, 2, 3])


def test_render_machine_format():
    r = cm.cost_report(reference_spec())
    text = cm.render_machine(r)
    lines = text.strip().split("\n")
    assert len(lines) == len(r.rows) + 1
    for line in lines:
        parts = line.split("\t")
        assert len(parts) == 4
        int(parts[1]), int(parts[2]), int(parts[3])
    assert lines[-1].startswith("TOTAL\t140423168\t642880\t31168512")


def test_render_table_contents():
    spec = reference_spec()
    r = cm.cost_report(spec)
    head = cm.gbdt_cost(GBDTConfig(max_trees=20, max_depth=10))
    text = cm.render_table(r, tree_head=head, budget=cm.DESIGN_BUDGET)
    assert "stem.conv" in text
    assert "block9.conv3x3" in text
    assert "140423168" in text
    assert "headline FLOPs    : 127232" in text
    assert "elementwise FLOPs : 515648" in text
    assert "budget residuals" in text
    assert "out of band" in text
    assert "worst-case compares 200" in text
