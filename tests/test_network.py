"""Backbone tests: wiring oracles, gradients, training loop, serialization."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rxgb import bitops, costmodel, data, gbdt, netspec, network, tensor_ops
from oracles import deployed_payload as oracle_payload
from test_cli import _real_offset
from oracles import (TRAINING_OP_ORACLES, folded_plan_forward, is_nhwc_memory,
                     naive_conv2d, training_graph_forward)


def tiny_spec(with_fc=True, feature_dim=16, classes=4):
    """stem 1->8 on 8x8, one normal block, one stride-2 reduction, pool, fc."""
    layers = [
        netspec.LayerSpec(netspec.FIRST_CONV, "stem", 1, 8, 2),
        netspec.LayerSpec(netspec.NORMAL, "block1", 8, 8, 1),
        netspec.LayerSpec(netspec.REDUCTION, "block2", 8, 16, 2),
        netspec.LayerSpec(netspec.GLOBAL_POOL, "pool", 16, 16),
    ]
    if with_fc:
        layers.append(netspec.LayerSpec(netspec.FC_HEAD, "fc", 16, classes))
    return netspec.NetworkSpec(
        layers=tuple(layers), input_shape=(1, 8, 8), feature_dim=feature_dim,
        class_count=classes,
    )


def oracle_spec():
    """6x6 input so the reduction sees an odd 3x3 grid and must pad."""
    return netspec.NetworkSpec(
        layers=(
            netspec.LayerSpec(netspec.FIRST_CONV, "stem", 1, 4, 2),
            netspec.LayerSpec(netspec.NORMAL, "block1", 4, 4, 1),
            netspec.LayerSpec(netspec.REDUCTION, "block2", 4, 8, 2),
            netspec.LayerSpec(netspec.GLOBAL_POOL, "pool", 8, 8),
            netspec.LayerSpec(netspec.FC_HEAD, "fc", 8, 3),
        ),
        input_shape=(1, 6, 6), feature_dim=8, class_count=3,
    )


def plan_spec():
    """6x6 input: the stride-2 reduction sees an odd 3x3 grid and pads it,
    then a stride-1 reduction keeps the 2x2 grid; FC head on top."""
    return netspec.NetworkSpec(
        layers=(
            netspec.LayerSpec(netspec.FIRST_CONV, "stem", 1, 4, 2),
            netspec.LayerSpec(netspec.NORMAL, "block1", 4, 4, 1),
            netspec.LayerSpec(netspec.REDUCTION, "block2", 4, 8, 2),
            netspec.LayerSpec(netspec.REDUCTION, "block3", 8, 16, 1),
            netspec.LayerSpec(netspec.GLOBAL_POOL, "pool", 16, 16),
            netspec.LayerSpec(netspec.FC_HEAD, "fc", 16, 3),
        ),
        input_shape=(1, 6, 6), feature_dim=16, class_count=3,
    )


def randomize_params(model, seed):
    """Overwrite every parameter with random values so no term is degenerate."""
    rng = np.random.default_rng(seed)
    for key, val in model.params.items():
        if key.endswith("run_var"):
            val[:] = rng.uniform(0.5, 2.0, size=val.shape)
        else:
            val[:] = rng.normal(scale=0.5, size=val.shape)


# --- straight-line oracle ----------------------------------------------------
#
# A literal re-implementation of the exact tiny plans in oracle_spec() and
# plan_spec() (which adds a stride-1 reduction), written without any rxgb
# forward/backward code: explicit-loop convolutions, textbook
# batchnorm gradients, and the surrogate/STE rules stated in the docstrings.


def _o_conv_bwd(gy, x, w, stride, padding, pad_value=0.0):
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.full((n, ci, h + 2 * padding, wd + 2 * padding), pad_value)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    oh, ow = gy.shape[2], gy.shape[3]
    for b in range(n):
        for o in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    g = gy[b, o, oy, ox]
                    for i in range(kh):
                        for j in range(kw):
                            for c in range(ci):
                                gxp[b, c, oy * stride + i, ox * stride + j] += w[o, c, i, j] * g
                                gw[o, c, i, j] += xp[b, c, oy * stride + i, ox * stride + j] * g
    if padding:
        gxp = gxp[:, :, padding:-padding, padding:-padding]
    return gxp, gw


def _o_bn_fwd(x, gamma, beta, eps=1e-5):
    m = x.mean(axis=(0, 2, 3))
    v = x.var(axis=(0, 2, 3))
    xhat = (x - m[None, :, None, None]) / np.sqrt(v + eps)[None, :, None, None]
    return gamma[None, :, None, None] * xhat + beta[None, :, None, None], (x, m, v, gamma, eps)


def _o_bn_bwd(gy, cache):
    x, m, v, gamma, eps = cache
    count = x.shape[0] * x.shape[2] * x.shape[3]
    inv = 1.0 / np.sqrt(v + eps)
    xc = x - m[None, :, None, None]
    xhat = xc * inv[None, :, None, None]
    dgamma = (gy * xhat).sum(axis=(0, 2, 3))
    dbeta = gy.sum(axis=(0, 2, 3))
    dxhat = gy * gamma[None, :, None, None]
    dvar = (dxhat * xc).sum(axis=(0, 2, 3)) * -0.5 * inv ** 3
    dmean = (-dxhat.sum(axis=(0, 2, 3)) * inv
             + dvar * (-2.0 / count) * xc.sum(axis=(0, 2, 3)))
    dx = (dxhat * inv[None, :, None, None]
          + dvar[None, :, None, None] * 2.0 * xc / count
          + dmean[None, :, None, None] / count)
    return dx, dgamma, dbeta


def _o_rsign_fwd(x, shift):
    u = x - shift[None, :, None, None]
    return np.where(u >= 0, 1.0, -1.0), u


def _o_rsign_bwd(gy, u, ):
    d = np.zeros_like(u)
    neg = (u >= -1.0) & (u < 0.0)
    pos = (u >= 0.0) & (u < 1.0)
    d[neg] = 2.0 + 2.0 * u[neg]
    d[pos] = 2.0 - 2.0 * u[pos]
    gx = gy * d
    return gx, -gx.sum(axis=(0, 2, 3))


def _o_rprelu_fwd(x, beta, gamma, zeta):
    u = x - gamma[None, :, None, None]
    y = np.where(u >= 0, u, beta[None, :, None, None] * u)
    return y + zeta[None, :, None, None], u


def _o_rprelu_bwd(gy, u, beta):
    pos = u >= 0
    gx = gy * np.where(pos, 1.0, beta[None, :, None, None])
    dbeta = (gy * np.where(pos, 0.0, u)).sum(axis=(0, 2, 3))
    dgamma = -gx.sum(axis=(0, 2, 3))
    dzeta = gy.sum(axis=(0, 2, 3))
    return gx, dbeta, dgamma, dzeta


def _o_eff(latent):
    alpha = np.abs(latent).mean(axis=(1, 2, 3))
    return np.where(latent >= 0, 1.0, -1.0) * alpha[:, None, None, None]


def oracle_tiny_net(params, x, labels):
    """Forward + backward of the oracle_spec() or plan_spec() plan, fully
    straight-line; plan_spec()'s block3 runs when its params are present."""
    p = params
    g = {}

    # stem: conv s2 p1, bn
    z0 = naive_conv2d(x, p["stem.conv.w"], stride=2, padding=1)
    h0, bn0c = _o_bn_fwd(z0, p["stem.bn.gamma"], p["stem.bn.beta"])

    # block1 (normal, 4 channels, 3x3 grid)
    a1, u_rs1 = _o_rsign_fwd(h0, p["block1.rsign_conv3x3.shift"])
    w1_eff = _o_eff(p["block1.conv3x3.w_latent"])
    z1 = naive_conv2d(a1, w1_eff, stride=1, padding=1, pad_value=-1.0)
    b1, bn1c = _o_bn_fwd(z1, p["block1.bn_conv3x3.gamma"], p["block1.bn_conv3x3.beta"])
    c1 = b1 + h0
    d1, u_rp1 = _o_rprelu_fwd(c1, p["block1.rprelu_conv3x3.beta"],
                              p["block1.rprelu_conv3x3.gamma"],
                              p["block1.rprelu_conv3x3.zeta"])
    a2, u_rs2 = _o_rsign_fwd(d1, p["block1.rsign_conv1x1.shift"])
    w2_eff = _o_eff(p["block1.conv1x1.w_latent"])
    z2 = naive_conv2d(a2, w2_eff, stride=1, padding=0, pad_value=-1.0)
    b2, bn2c = _o_bn_fwd(z2, p["block1.bn_conv1x1.gamma"], p["block1.bn_conv1x1.beta"])
    c2 = b2 + d1
    e1, u_rp2 = _o_rprelu_fwd(c2, p["block1.rprelu_conv1x1.beta"],
                              p["block1.rprelu_conv1x1.gamma"],
                              p["block1.rprelu_conv1x1.zeta"])

    # block2 (reduction 4->8, stride 2): 3x3 grid pads to 4x4 bottom/right
    xp = np.pad(e1, ((0, 0), (0, 0), (0, 1), (0, 1)))
    a3, u_rs3 = _o_rsign_fwd(xp, p["block2.rsign_conv3x3.shift"])
    w3_eff = _o_eff(p["block2.conv3x3.w_latent"])
    z3 = naive_conv2d(a3, w3_eff, stride=2, padding=1, pad_value=-1.0)
    b3, bn3c = _o_bn_fwd(z3, p["block2.bn_conv3x3.gamma"], p["block2.bn_conv3x3.beta"])
    n, c, hp_, wp_ = xp.shape
    pooled = xp.reshape(n, c, hp_ // 2, 2, wp_ // 2, 2).mean(axis=(3, 5))
    c3 = b3 + pooled
    d3, u_rp3 = _o_rprelu_fwd(c3, p["block2.rprelu_conv3x3.beta"],
                              p["block2.rprelu_conv3x3.gamma"],
                              p["block2.rprelu_conv3x3.zeta"])
    a4, u_rs4 = _o_rsign_fwd(d3, p["block2.rsign_conv1x1.shift"])
    wa_eff = _o_eff(p["block2.conv1x1_a.w_latent"])
    wb_eff = _o_eff(p["block2.conv1x1_b.w_latent"])
    za = naive_conv2d(a4, wa_eff, stride=1, padding=0, pad_value=-1.0)
    zb = naive_conv2d(a4, wb_eff, stride=1, padding=0, pad_value=-1.0)
    ba, bnac = _o_bn_fwd(za, p["block2.bn_conv1x1_a.gamma"], p["block2.bn_conv1x1_a.beta"])
    bb, bnbc = _o_bn_fwd(zb, p["block2.bn_conv1x1_b.gamma"], p["block2.bn_conv1x1_b.beta"])
    cat = np.concatenate([ba + d3, bb + d3], axis=1)
    e2, u_rp4 = _o_rprelu_fwd(cat, p["block2.rprelu_out.beta"],
                              p["block2.rprelu_out.gamma"],
                              p["block2.rprelu_out.zeta"])

    # block3 (plan_spec() only; reduction 8->16, stride 1): identity shortcut
    has_block3 = "block3.conv3x3.w_latent" in p
    if has_block3:
        a5, u_rs5 = _o_rsign_fwd(e2, p["block3.rsign_conv3x3.shift"])
        w5_eff = _o_eff(p["block3.conv3x3.w_latent"])
        z5 = naive_conv2d(a5, w5_eff, stride=1, padding=1, pad_value=-1.0)
        b5, bn5c = _o_bn_fwd(z5, p["block3.bn_conv3x3.gamma"], p["block3.bn_conv3x3.beta"])
        d5, u_rp5 = _o_rprelu_fwd(b5 + e2, p["block3.rprelu_conv3x3.beta"],
                                  p["block3.rprelu_conv3x3.gamma"],
                                  p["block3.rprelu_conv3x3.zeta"])
        a6, u_rs6 = _o_rsign_fwd(d5, p["block3.rsign_conv1x1.shift"])
        wc_eff = _o_eff(p["block3.conv1x1_a.w_latent"])
        wd_eff = _o_eff(p["block3.conv1x1_b.w_latent"])
        zc = naive_conv2d(a6, wc_eff, stride=1, padding=0, pad_value=-1.0)
        zd = naive_conv2d(a6, wd_eff, stride=1, padding=0, pad_value=-1.0)
        bc, bncc = _o_bn_fwd(zc, p["block3.bn_conv1x1_a.gamma"], p["block3.bn_conv1x1_a.beta"])
        bd, bndc = _o_bn_fwd(zd, p["block3.bn_conv1x1_b.gamma"], p["block3.bn_conv1x1_b.beta"])
        cat3 = np.concatenate([bc + d5, bd + d5], axis=1)
        top, u_rp6 = _o_rprelu_fwd(cat3, p["block3.rprelu_out.beta"],
                                   p["block3.rprelu_out.gamma"],
                                   p["block3.rprelu_out.zeta"])
    else:
        top = e2

    # pool + fc + cross-entropy
    feats = top.mean(axis=(2, 3))
    logits = feats @ p["fc.w"]
    zmax = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(zmax) / np.exp(zmax).sum(axis=1, keepdims=True)
    nb = len(labels)
    loss = -np.log(probs[np.arange(nb), labels]).mean()

    glog = probs.copy()
    glog[np.arange(nb), labels] -= 1.0
    glog /= nb
    g["fc.w"] = feats.T @ glog
    gfeats = glog @ p["fc.w"].T
    gtop = np.broadcast_to(gfeats[:, :, None, None] / (top.shape[2] * top.shape[3]),
                           top.shape).copy()

    # block3 backward
    if has_block3:
        gcat3, g["block3.rprelu_out.beta"], g["block3.rprelu_out.gamma"], \
            g["block3.rprelu_out.zeta"] = _o_rprelu_bwd(gtop, u_rp6,
                                                        p["block3.rprelu_out.beta"])
        gcc, gcd = gcat3[:, :8], gcat3[:, 8:]
        gd5 = gcc + gcd
        gzc, g["block3.bn_conv1x1_a.gamma"], g["block3.bn_conv1x1_a.beta"] = _o_bn_bwd(gcc, bncc)
        gzd, g["block3.bn_conv1x1_b.gamma"], g["block3.bn_conv1x1_b.beta"] = _o_bn_bwd(gcd, bndc)
        ga6c, gwc = _o_conv_bwd(gzc, a6, wc_eff, 1, 0, pad_value=-1.0)
        ga6d, gwd = _o_conv_bwd(gzd, a6, wd_eff, 1, 0, pad_value=-1.0)
        g["block3.conv1x1_a.w_latent"] = gwc * (np.abs(p["block3.conv1x1_a.w_latent"]) <= 1)
        g["block3.conv1x1_b.w_latent"] = gwd * (np.abs(p["block3.conv1x1_b.w_latent"]) <= 1)
        gd5_rs, g["block3.rsign_conv1x1.shift"] = _o_rsign_bwd(ga6c + ga6d, u_rs6)
        gd5 = gd5 + gd5_rs
        gc5, g["block3.rprelu_conv3x3.beta"], g["block3.rprelu_conv3x3.gamma"], \
            g["block3.rprelu_conv3x3.zeta"] = _o_rprelu_bwd(gd5, u_rp5,
                                                            p["block3.rprelu_conv3x3.beta"])
        ge2 = gc5.copy()                                          # identity shortcut
        gz5, g["block3.bn_conv3x3.gamma"], g["block3.bn_conv3x3.beta"] = _o_bn_bwd(gc5, bn5c)
        ga5, gw5 = _o_conv_bwd(gz5, a5, w5_eff, 1, 1, pad_value=-1.0)
        g["block3.conv3x3.w_latent"] = gw5 * (np.abs(p["block3.conv3x3.w_latent"]) <= 1)
        ga5_rs, g["block3.rsign_conv3x3.shift"] = _o_rsign_bwd(ga5, u_rs5)
        ge2 = ge2 + ga5_rs
    else:
        ge2 = gtop

    # block2 backward
    gcat, g["block2.rprelu_out.beta"], g["block2.rprelu_out.gamma"], \
        g["block2.rprelu_out.zeta"] = _o_rprelu_bwd(ge2, u_rp4, p["block2.rprelu_out.beta"])
    gca, gcb = gcat[:, :4], gcat[:, 4:]
    gd3 = gca + gcb
    gza, g["block2.bn_conv1x1_a.gamma"], g["block2.bn_conv1x1_a.beta"] = _o_bn_bwd(gca, bnac)
    gzb, g["block2.bn_conv1x1_b.gamma"], g["block2.bn_conv1x1_b.beta"] = _o_bn_bwd(gcb, bnbc)
    ga4a, gwa = _o_conv_bwd(gza, a4, wa_eff, 1, 0, pad_value=-1.0)
    ga4b, gwb = _o_conv_bwd(gzb, a4, wb_eff, 1, 0, pad_value=-1.0)
    g["block2.conv1x1_a.w_latent"] = gwa * (np.abs(p["block2.conv1x1_a.w_latent"]) <= 1)
    g["block2.conv1x1_b.w_latent"] = gwb * (np.abs(p["block2.conv1x1_b.w_latent"]) <= 1)
    gd3_rs, g["block2.rsign_conv1x1.shift"] = _o_rsign_bwd(ga4a + ga4b, u_rs4)
    gd3 = gd3 + gd3_rs
    gc3, g["block2.rprelu_conv3x3.beta"], g["block2.rprelu_conv3x3.gamma"], \
        g["block2.rprelu_conv3x3.zeta"] = _o_rprelu_bwd(gd3, u_rp3, p["block2.rprelu_conv3x3.beta"])
    gxp = np.repeat(np.repeat(gc3 / 4.0, 2, axis=2), 2, axis=3)   # pool shortcut
    gz3, g["block2.bn_conv3x3.gamma"], g["block2.bn_conv3x3.beta"] = _o_bn_bwd(gc3, bn3c)
    ga3, gw3 = _o_conv_bwd(gz3, a3, w3_eff, 2, 1, pad_value=-1.0)
    g["block2.conv3x3.w_latent"] = gw3 * (np.abs(p["block2.conv3x3.w_latent"]) <= 1)
    ga3_rs, g["block2.rsign_conv3x3.shift"] = _o_rsign_bwd(ga3, u_rs3)
    gxp = gxp + ga3_rs
    ge1 = gxp[:, :, :3, :3]                                       # strip the pad ring

    # block1 backward
    gc2, g["block1.rprelu_conv1x1.beta"], g["block1.rprelu_conv1x1.gamma"], \
        g["block1.rprelu_conv1x1.zeta"] = _o_rprelu_bwd(ge1, u_rp2, p["block1.rprelu_conv1x1.beta"])
    gd1 = gc2.copy()
    gz2, g["block1.bn_conv1x1.gamma"], g["block1.bn_conv1x1.beta"] = _o_bn_bwd(gc2, bn2c)
    ga2, gw2 = _o_conv_bwd(gz2, a2, w2_eff, 1, 0, pad_value=-1.0)
    g["block1.conv1x1.w_latent"] = gw2 * (np.abs(p["block1.conv1x1.w_latent"]) <= 1)
    gd1_rs, g["block1.rsign_conv1x1.shift"] = _o_rsign_bwd(ga2, u_rs2)
    gd1 = gd1 + gd1_rs
    gc1, g["block1.rprelu_conv3x3.beta"], g["block1.rprelu_conv3x3.gamma"], \
        g["block1.rprelu_conv3x3.zeta"] = _o_rprelu_bwd(gd1, u_rp1, p["block1.rprelu_conv3x3.beta"])
    gh0 = gc1.copy()
    gz1, g["block1.bn_conv3x3.gamma"], g["block1.bn_conv3x3.beta"] = _o_bn_bwd(gc1, bn1c)
    ga1, gw1 = _o_conv_bwd(gz1, a1, w1_eff, 1, 1, pad_value=-1.0)
    g["block1.conv3x3.w_latent"] = gw1 * (np.abs(p["block1.conv3x3.w_latent"]) <= 1)
    gh0_rs, g["block1.rsign_conv3x3.shift"] = _o_rsign_bwd(ga1, u_rs1)
    gh0 = gh0 + gh0_rs

    # stem backward
    gz0, g["stem.bn.gamma"], g["stem.bn.beta"] = _o_bn_bwd(gh0, bn0c)
    _, g["stem.conv.w"] = _o_conv_bwd(gz0, x, p["stem.conv.w"], 2, 1)

    return logits, loss, g


def test_forward_backward_match_straight_line_oracle():
    # plan_spec() adds a stride-1 reduction (identity shortcut) to oracle_spec()
    for spec in (oracle_spec(), plan_spec()):
        model = network.build_network(spec, seed=11)
        randomize_params(model, 12)
        x = np.random.default_rng(13).normal(size=(3, 1, 6, 6))
        labels = np.array([0, 1, 2])
        frozen = {k: v.copy() for k, v in model.params.items()}

        want_logits, want_loss, want_grads = oracle_tiny_net(frozen, x, labels)
        got_loss, got_grads = network.loss_and_grads(model, x, labels)
        got_logits, tape = network.forward(model, x, training=True)
        network.backward(model, tape, np.ones_like(got_logits))
        assert not tape.ops                  # every op backward ran, and only once

        np.testing.assert_allclose(got_logits, want_logits, rtol=1e-10, atol=1e-12)
        assert abs(got_loss - want_loss) < 1e-10
        assert sorted(got_grads) == sorted(want_grads) == sorted(model.learnable_keys())
        for key in want_grads:
            np.testing.assert_allclose(
                got_grads[key], want_grads[key], rtol=1e-9, atol=1e-12,
                err_msg=f"gradient mismatch for {key} ({len(spec.layers)}-layer plan)",
            )


# --- construction ------------------------------------------------------------


def test_build_initial_values_and_shapes():
    spec = tiny_spec()
    model = network.build_network(spec, seed=0)
    p = model.params
    assert p["stem.conv.w"].shape == (8, 1, 3, 3)
    assert p["block1.conv3x3.w_latent"].shape == (8, 8, 3, 3)
    assert p["block2.conv1x1_a.w_latent"].shape == (8, 8, 1, 1)
    assert p["block2.rprelu_out.beta"].shape == (16,)
    assert p["fc.w"].shape == (16, 4)
    assert np.all(p["block1.rsign_conv3x3.shift"] == 0.0)
    assert np.all(p["block1.rprelu_conv3x3.beta"] == 0.25)
    assert np.all(p["block1.rprelu_conv3x3.gamma"] == 0.0)
    assert np.all(p["block1.rprelu_conv3x3.zeta"] == 0.0)
    assert np.all(p["stem.bn.gamma"] == 1.0)
    assert np.all(p["stem.bn.run_var"] == 1.0)
    # Kaiming-uniform fan-in bound
    assert np.abs(p["block1.conv3x3.w_latent"]).max() <= np.sqrt(6.0 / 72)
    assert np.abs(p["fc.w"]).max() <= np.sqrt(6.0 / 16)
    assert not any(k.endswith(("run_mean", "run_var"))
                   for k in model.learnable_keys())


def test_build_is_seed_deterministic():
    a = network.build_network(tiny_spec(), seed=5)
    b = network.build_network(tiny_spec(), seed=5)
    c = network.build_network(tiny_spec(), seed=6)
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_forward_validates_input_and_head():
    model = network.build_network(tiny_spec(), seed=0)
    with pytest.raises(ValueError, match="input shape"):
        network.forward(model, np.zeros((2, 1, 7, 8)))
    with pytest.raises(ValueError, match="input shape"):
        network.forward(model, np.zeros((1, 8, 8)))
    headless = network.build_network(tiny_spec(with_fc=False), seed=0)
    with pytest.raises(ValueError, match="fc_head"):
        network.forward(headless, np.zeros((2, 1, 8, 8)))
    feats = network.features_forward(headless, np.zeros((2, 1, 8, 8)))
    assert feats.shape == (2, 16)


def test_forward_finite_on_zero_and_random_input():
    model = network.build_network(tiny_spec(), seed=1)
    for x in (np.zeros((4, 1, 8, 8)),
              np.random.default_rng(2).normal(size=(4, 1, 8, 8))):
        logits, _ = network.forward(model, x, training=True)
        assert logits.shape == (4, 4)
        assert np.isfinite(logits).all()


# --- inference-mode invariants -------------------------------------------------


def test_infer_mode_batch_invariance():
    model = network.build_network(tiny_spec(), seed=7)
    randomize_params(model, 8)
    x = np.random.default_rng(9).normal(size=(9, 1, 8, 8))
    full, _ = network.forward(model, x, training=False)

    # identical samples inside one batch produce identical rows
    dup, _ = network.forward(model, np.repeat(x[:1], 8, axis=0), training=False)
    assert all(np.array_equal(dup[0], dup[i]) for i in range(8))

    # reordering a batch reorders rows bit-identically
    perm = np.random.default_rng(10).permutation(9)
    permuted, _ = network.forward(model, x[perm], training=False)
    assert np.array_equal(permuted, full[perm])

    # different batch splits agree to BLAS-blocking noise
    solo = np.concatenate(
        [network.forward(model, x[i:i + 1], training=False)[0] for i in range(9)]
    )
    np.testing.assert_allclose(solo, full, rtol=0, atol=1e-12)


def test_train_mode_updates_running_stats_infer_mode_does_not():
    model = network.build_network(tiny_spec(), seed=3)
    x = np.random.default_rng(4).normal(size=(6, 1, 8, 8))
    before = model.params["stem.bn.run_mean"].copy()
    network.forward(model, x, training=False)
    assert np.array_equal(model.params["stem.bn.run_mean"], before)
    network.forward(model, x, training=True)
    assert not np.array_equal(model.params["stem.bn.run_mean"], before)


def test_head_factorization_logits_equal_features_times_fc():
    model = network.build_network(tiny_spec(), seed=5)
    randomize_params(model, 6)
    x = np.random.default_rng(7).normal(size=(5, 1, 8, 8))
    logits, _ = network.forward(model, x, training=False)
    feats = network.features_forward(model, x)
    fc_w = network.freeze(model).reals["fc.w"]         # deployed: float32 values
    np.testing.assert_allclose(logits, feats @ fc_w, rtol=0, atol=1e-10)



def wide_head_spec():
    """128 pooled features and 10 classes on 8x8 input: FC products as wide
    as the desk runs', behind a backbone cheap enough for 1000 images."""
    return netspec.NetworkSpec(
        layers=(
            netspec.LayerSpec(netspec.FIRST_CONV, "stem", 1, 64, 2),
            netspec.LayerSpec(netspec.REDUCTION, "block1", 64, 128, 2),
            netspec.LayerSpec(netspec.GLOBAL_POOL, "pool", 128, 128),
            netspec.LayerSpec(netspec.FC_HEAD, "fc", 128, 10),
        ),
        input_shape=(1, 8, 8), feature_dim=128, class_count=10,
    )


def test_fc_logits_of_extracted_features_equal_forward_byte_for_byte():
    # one [1000, 128] x [128, 10] product can round differently in BLAS from
    # 128-row ones, so the head must be applied per extraction batch
    model = network.build_network(wide_head_spec(), seed=31)
    randomize_params(model, 32)
    rng = np.random.default_rng(33)
    ds = data.Dataset(images=rng.normal(size=(1000, 1, 8, 8)),
                      labels=rng.integers(0, 10, size=1000), split="test")
    feats, _ = network.extract_features(model, ds, batch_size=128)
    want = np.concatenate([network.forward(model, xb)[0]
                           for xb, _ in data.batches(ds, 128, shuffle=False)])
    got = network.fc_logits(model, feats, batch_size=128)
    assert got.shape == (1000, 10)
    assert got.tobytes() == want.tobytes()

# --- finite differences on the smooth tail ------------------------------------
#
# Parameters between the last binarization and the loss have true gradients
# (no sign crossings on the path), so central differences must agree. Latents
# and anything feeding a later RSign go through surrogate gradients instead
# and are covered by the straight-line oracle above.


def test_tail_gradients_match_finite_differences():
    model = network.build_network(oracle_spec(), seed=21)
    randomize_params(model, 22)
    x = np.random.default_rng(23).normal(size=(3, 1, 6, 6))
    labels = np.array([2, 0, 1])
    _, grads = network.loss_and_grads(model, x, labels)

    def loss_at():
        loss, _ = network.loss_and_grads(model, x, labels)
        return loss

    eps = 1e-6
    for key in ("fc.w", "block2.rprelu_out.beta", "block2.rprelu_out.gamma",
                "block2.rprelu_out.zeta", "block2.bn_conv1x1_a.gamma",
                "block2.bn_conv1x1_b.beta"):
        arr = model.params[key]
        flat = arr.reshape(-1)
        idx = np.random.default_rng(24).choice(flat.size, size=min(4, flat.size),
                                               replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_at()
            flat[i] = orig - eps
            lo = loss_at()
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            got = grads[key].reshape(-1)[i]
            assert abs(got - fd) < 1e-5 * max(1.0, abs(fd)), (
                f"{key}[{i}]: analytic {got} vs fd {fd}"
            )


# --- training loop -------------------------------------------------------------


def separable_dataset(n, seed, classes=4):
    """Each class lights up one quadrant of an 8x8 image."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    images = rng.normal(scale=0.1, size=(n, 1, 8, 8))
    quad = [(0, 0), (0, 4), (4, 0), (4, 4)]
    for i, lab in enumerate(labels):
        r, c = quad[lab]
        images[i, 0, r:r + 4, c:c + 4] += 1.0
    return data.Dataset(images=images, labels=labels.astype(np.int64),
                        split="train")


def test_training_ops_keep_the_checkpoint_bytes_of_their_first_form(monkeypatch):
    # Same-seed stage-1 training (float32 batches) with the dense and
    # interior-tap conv backward, the np.where RPReLU and the temporaries
    # batch norm patched in (tests/oracles, each computing in its input's
    # dtype) against the library ops. Width 0.25 on 28x28 keeps
    # the 2x2 grids and convs of 256 channels; 129 training images make a
    # batch of 128 (the interior-tap backward on the 2x2 grids) and a final
    # batch of one image (one dense product). The float64 parameters are
    # compared by digest: the checkpoint's float32 reals would hide a change
    # below float32 rounding.
    rng = np.random.default_rng(41)
    ds = data.Dataset(images=rng.standard_normal((145, 1, 28, 28)),
                      labels=np.arange(145) % 10, split="train")
    train, val = data.split_train_val(ds, 16)
    spec = netspec.reference_spec(width_mult=0.25)
    hp = network.StageOneConfig(epochs=1, batch_size=128, seed=42)
    modules = {"tensor_ops": tensor_ops, "bitops": bitops}

    def trained():
        model = network.build_network(spec, seed=43)
        result = network.train_stage1(model, train, val, hp)
        assert not result.aborted
        return model.param_digest()

    got = trained()
    with monkeypatch.context() as m:
        for module, attr, oracle in TRAINING_OP_ORACLES:
            m.setattr(modules[module], attr, oracle)
        want = trained()
    assert got == want


# sha256 of the float64 loss, the gradients in learnable_keys order and then
# the BN running statistics in params order, after the one loss_and_grads of
# the test below, recorded with the float64-only ops that the dtype-generic
# ones replaced: the float64 graph keeps their arithmetic, so criterion 5 and
# the byte oracles test what they always tested. A batch of 16 takes the
# dense conv backward; the interior-tap one (128 images on the 2x2 grids)
# scales grad_y by alpha rather than the filters, which rounds otherwise than
# at the recording. The products are fixed-block BLAS
# products, so another BLAS build may round them otherwise (this digest is
# from OpenBLAS 0.3.31).
_FLOAT64_STEP_SHA256 = "c303e9adea8eba4db92fa15db2b292187cdee4da4ebb7345d913f5e8e65c8598"


def _float64_step_digest():
    spec = netspec.reference_spec(width_mult=0.25)
    model = network.build_network(spec, seed=26)
    x = np.random.default_rng(27).standard_normal((16, *spec.input_shape))
    loss, grads = network.loss_and_grads(model, x, np.arange(16) % 10)
    h = hashlib.sha256(np.float64(loss).tobytes())
    for k in model.learnable_keys():
        assert grads[k].dtype == np.float64, k
        h.update(grads[k].tobytes(order="A"))
    for k, v in model.params.items():
        if k.endswith(("run_mean", "run_var")):
            h.update(v.tobytes())
    return h.hexdigest()


def test_float64_loss_and_grads_keep_their_bytes():
    assert _float64_step_digest() == _FLOAT64_STEP_SHA256


def test_float32_gradients_are_within_criterion_5_of_float64(monkeypatch):
    # One width-0.25 loss_and_grads on the same float32-valued batch in both
    # dtypes. First the RSign sign planes must be equal: one flipped sign
    # changes a binary conv's sum by 2 * alpha and the gradients with it, so
    # no bound below would mean anything. Then the loss and every parameter's
    # gradient must agree to the relative error criterion 5 accepts between
    # an analytic gradient and central differences (1e-4, in the 2-norm per
    # parameter): float32 arithmetic may not move a gradient further than
    # the contract lets a gradient be wrong. Float32's unit roundoff is 6e-8,
    # a fixed-block product of K terms rounds within about
    # (K_BLOCK + K / K_BLOCK) of it (8e-6 at K = 4608), and the measured
    # worst was 4.5e-6 (width 0.25 and 0.5, batches 16 to 128).
    tol = 1e-4
    spec = netspec.reference_spec(width_mult=0.25)
    model = network.build_network(spec, seed=50)
    x = np.random.default_rng(51).standard_normal((16, *spec.input_shape))
    x = x.astype(np.float32)
    labels = np.arange(16) % 10
    rsign_forward = bitops.rsign_forward
    runs = {}
    for dtype in (np.float64, np.float32):
        planes = []

        def recorded(*args, **kwargs):
            y, cache = rsign_forward(*args, **kwargs)
            planes.append(y)
            return y, cache

        monkeypatch.setattr(bitops, "rsign_forward", recorded)
        loss, grads = network.loss_and_grads(model.copy(), x.astype(dtype), labels)
        assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}
        runs[dtype] = loss, grads, planes
    (loss64, grads64, planes64), (loss32, grads32, planes32) = runs.values()
    assert len(planes64) == len(planes32) == 20
    for a, b in zip(planes64, planes32):
        assert np.array_equal(a, b)
    assert abs(loss32 - loss64) <= tol * abs(loss64)
    for k, g in grads64.items():
        assert np.linalg.norm(grads32[k] - g) <= tol * np.linalg.norm(g), k


# Every function through which an activation or a gradient of the block wiring
# passes, by module: the layout test records the 4-d batch arrays each one
# receives and returns (caches included).
_LAYOUT_OPS = {
    tensor_ops: ("conv2d_forward", "sign_conv2d", "conv2d_backward",
                 "batchnorm_forward", "batchnorm_backward", "avgpool_2x2",
                 "avgpool_2x2_backward", "avgpool_global", "avgpool_global_backward"),
    bitops: ("rsign_forward", "rsign_backward", "rprelu_forward", "rprelu_backward"),
}


def _record_batch_arrays(monkeypatch, n):
    """Patch every _LAYOUT_OPS function and _Tape.back to record the 4-d
    arrays with n rows they receive or return; returns {name: [arrays]}."""
    seen = {}

    def batch_arrays(obj):
        if isinstance(obj, np.ndarray):
            return [obj] if obj.ndim == 4 and len(obj) == n else []
        items = obj.values() if isinstance(obj, dict) else obj
        if isinstance(obj, (tuple, list, dict)):
            return [a for item in items for a in batch_arrays(item)]
        return []

    def wrap(name, fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.setdefault(name, []).extend(
                batch_arrays([args, kwargs, out]))
            return out
        return recorded

    for module, names in _LAYOUT_OPS.items():
        for name in names:
            monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    monkeypatch.setattr(network._Tape, "back", wrap("back", network._Tape.back))
    return seen


def test_block_wiring_keeps_activations_and_gradients_in_nhwc_memory(monkeypatch):
    # One width-0.25 training step and one plan forward on 28x28 images: block4
    # is a stride-2 reduction on an odd 7x7 grid, so the pad, the 2x2 pool, the
    # channel concat and the crop of the pad ring are all on the path. The
    # input image (one channel) is NHWC and NCHW at once.
    spec = netspec.reference_spec(width_mult=0.25)
    model = network.build_network(spec, seed=45)
    n = 3                                                # no channel count of the net
    x = np.random.default_rng(46).standard_normal((n, *spec.input_shape))
    seen = _record_batch_arrays(monkeypatch, n)
    network.loss_and_grads(model, x, np.arange(n))
    train_ops = set(seen)
    network.features_forward(model, x)
    want = {name for names in _LAYOUT_OPS.values() for name in names} | {"back"}
    assert set(seen) == want
    assert train_ops == want - {"sign_conv2d"}
    assert len(seen["sign_conv2d"]) > 0
    for name, arrays in seen.items():
        for a in arrays:
            assert is_nhwc_memory(a), (name, a.shape, a.strides)


def test_overfits_small_separable_sample():
    ds = separable_dataset(64, seed=31)
    model = network.build_network(tiny_spec(), seed=32)
    hp = network.StageOneConfig(epochs=60, batch_size=16, learning_rate=0.05,
                                momentum=0.9, weight_decay=0.0, seed=33)
    result = network.train_stage1(model, ds, ds, hp)
    assert not result.aborted
    assert result.best_val_top1 == 1.0
    assert result.metrics[-1].train_loss < result.metrics[0].train_loss


def test_zero_learning_rate_leaves_params_unchanged():
    ds = separable_dataset(16, seed=41)
    model = network.build_network(tiny_spec(), seed=42)
    before = {k: v.copy() for k, v in model.params.items()}
    hp = network.StageOneConfig(epochs=1, batch_size=8, learning_rate=0.0,
                                weight_decay=0.0, seed=43)
    result = network.train_stage1(model, ds, ds, hp)
    assert not result.aborted
    for key in model.learnable_keys():
        assert np.array_equal(result.model.params[key], before[key]), key


def test_training_is_deterministic():
    ds = separable_dataset(32, seed=51)
    hp = network.StageOneConfig(epochs=3, batch_size=8, learning_rate=0.02,
                                seed=52, augment=True)
    runs = []
    for _ in range(2):
        model = network.build_network(tiny_spec(), seed=53)
        result = network.train_stage1(model, ds, ds, hp)
        runs.append(result)
    a, b = runs
    assert [m.train_loss for m in a.metrics] == [m.train_loss for m in b.metrics]
    assert all(np.array_equal(a.model.params[k], b.model.params[k])
               for k in a.model.params)


def test_metrics_log_and_cosine_schedule():
    ds = separable_dataset(16, seed=61)
    model = network.build_network(tiny_spec(), seed=62)
    hp = network.StageOneConfig(epochs=4, batch_size=8, learning_rate=0.04, seed=63)
    result = network.train_stage1(model, ds, ds, hp)
    assert len(result.metrics) == 4
    for e, m in enumerate(result.metrics):
        assert m.epoch == e
        assert m.wall_seconds > 0
        want_lr = 0.5 * 0.04 * (1 + np.cos(np.pi * e / 4))
        assert abs(m.learning_rate - want_lr) < 1e-15
    assert result.best_epoch == min(
        e for e, m in enumerate(result.metrics)
        if m.val_top1 == result.best_val_top1
    )


def test_best_checkpoint_prefers_earlier_tie():
    ds = separable_dataset(64, seed=71)
    model = network.build_network(tiny_spec(), seed=72)
    hp = network.StageOneConfig(epochs=12, batch_size=16, learning_rate=0.05,
                                weight_decay=0.0, seed=73)
    result = network.train_stage1(model, ds, ds, hp)
    tops = [m.val_top1 for m in result.metrics]
    assert result.best_val_top1 == max(tops)
    assert result.best_epoch == tops.index(max(tops))


def test_nan_loss_aborts_with_initial_state():
    ds = separable_dataset(16, seed=81)
    model = network.build_network(tiny_spec(), seed=82)
    model.params["fc.w"][0, 0] = np.nan
    hp = network.StageOneConfig(epochs=3, batch_size=8, seed=83)
    result = network.train_stage1(model, ds, ds, hp)
    assert result.aborted
    assert "epoch 0" in result.abort_reason
    assert result.best_epoch == -1
    assert result.metrics == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_after_completed_epoch():
    ds = separable_dataset(16, seed=91)
    model = network.build_network(tiny_spec(), seed=92)
    hp = network.StageOneConfig(epochs=5, batch_size=16, learning_rate=1e9,
                                momentum=0.9, weight_decay=0.0, seed=93)
    result = network.train_stage1(model, ds, ds, hp)
    assert result.aborted
    assert "non-finite" in result.abort_reason
    assert len(result.metrics) < 5


# --- stage-2 interface ----------------------------------------------------------


def test_extract_features_matches_forward_and_is_deterministic():
    ds = separable_dataset(10, seed=101)
    model = network.build_network(tiny_spec(), seed=102)
    randomize_params(model, 103)
    feats, labels = network.extract_features(model, ds, batch_size=4)
    assert feats.shape == (10, 16)
    assert np.array_equal(labels, ds.labels)
    whole = network.features_forward(model, ds.images)
    np.testing.assert_allclose(feats, whole, rtol=0, atol=1e-12)
    again, _ = network.extract_features(model, ds, batch_size=4)
    assert np.array_equal(feats, again)


def test_infer_hybrid_equals_two_step_pipeline():
    ds = separable_dataset(40, seed=111)
    model = network.build_network(tiny_spec(), seed=112)
    randomize_params(model, 113)
    feats, labels = network.extract_features(model, ds, batch_size=40)
    cfg = gbdt.GBDTConfig(n_classes=4, max_trees=8, max_depth=3)
    ens = gbdt.train_ensemble(feats, labels, cfg)

    pred, scores = network.infer_hybrid(model, ens, ds.images)
    assert np.array_equal(pred, gbdt.predict_class(ens, feats))
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)

    # the persisted-feature path is bit-identical: float32 is canonical
    import os, tempfile
    fd, path = tempfile.mkstemp()
    os.close(fd)
    try:
        data.save_features(path, feats, labels)
        loaded, _ = data.load_features(path)
        assert np.array_equal(gbdt.predict_class(ens, loaded), pred)
    finally:
        os.unlink(path)


def test_infer_hybrid_rejects_width_mismatch():
    model = network.build_network(tiny_spec(), seed=121)
    ens = gbdt.TreeEnsemble(config=gbdt.GBDTConfig(n_classes=4, max_trees=4),
                            n_features=9)
    with pytest.raises(ValueError, match="features"):
        network.infer_hybrid(model, ens, np.zeros((2, 1, 8, 8)))


# --- exact sign products ---------------------------------------------------------


def test_binary_conv_forward_equals_bit_path_byte_for_byte():
    rng = np.random.default_rng(160)
    # (N, Ci, Co, H=W, k, stride, pad): K = 9 * 512 = 4608, stride 2, 1x1
    for n, ci, co, hw, k, stride, pad in [(2, 512, 8, 3, 3, 1, 1),
                                          (2, 16, 8, 7, 3, 2, 1),
                                          (2, 64, 16, 5, 1, 1, 0)]:
        geom = tensor_ops.ConvGeometry((k, k), stride, pad)
        a, _ = bitops.rsign_forward(rng.standard_normal((n, ci, hw, hw)),
                                    rng.normal(size=ci) * 0.1)
        latent = rng.uniform(-1.0, 1.0, (co, ci, k, k))
        y = network._Tape({"c.w_latent": latent}).binconv("c", a, geom)
        w_sign, alpha = bitops.sign_weights(latent)
        filters = bitops.xnor_filters(tensor_ops.filter_rows(w_sign), geom, hw, hw)
        want = bitops.xnor_conv2d(a, filters) * alpha[None, :, None, None]
        assert y.dtype == want.dtype == np.float64
        assert np.ascontiguousarray(y).tobytes() == want.tobytes(), f"Ci={ci} k{k} s{stride}"


# (N, Ci, Co, H=W, k, stride, pad) of int8 sign convs, up to K = 9 * 512; the
# 2x2 grid at N = 128 takes the interior-tap products.
_SIGN_SWEEP = [
    (16, 32, 32, 14, 3, 1, 1),
    (16, 64, 64, 7, 3, 2, 1),
    (16, 128, 128, 4, 3, 1, 1),
    (8, 512, 512, 2, 3, 1, 1),
    (128, 256, 256, 2, 3, 1, 1),
    (16, 512, 512, 2, 1, 1, 0),
]

_SIGN_SWEEP_SCRIPT = r"""
import hashlib, json, sys
import numpy as np
from rxgb import netspec, network, tensor_ops as T

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

def signs(shape):
    return np.where(rng.standard_normal(shape) >= 0, 1, -1).astype(np.int8)

rng = np.random.default_rng(0)
rows = []
for n, ci, co, hw, k, s, p in json.loads(sys.argv[1]):
    y = T.conv2d_forward(signs((n, ci, hw, hw)), signs((co, ci, k, k)),
                         T.ConvGeometry((k, k), s, p), pad_value=-1)
    rows.append(("sign conv", f"N={n} Ci={ci} Co={co} {hw}x{hw} k{k} s{s} p{p}",
                 digest(y)))
model = network.build_network(netspec.reference_spec(0.5), seed=0)
x = rng.standard_normal((8, 1, 28, 28))
for b in (1, 8):
    rows.append(("features_forward", f"batch {b}",
                 digest(network.features_forward(model, x[:b]))))
print(json.dumps(rows))
"""


def _run_at_threads(threads: int, script: str, *args: str) -> str:
    """stdout of ``script`` in a fresh interpreter whose BLAS runs
    ``threads`` threads (BLAS reads its thread count when numpy loads)."""
    env = os.environ.copy()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path(network.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _sign_sweep_digests(threads: int) -> list:
    out = _run_at_threads(threads, _SIGN_SWEEP_SCRIPT, json.dumps(_SIGN_SWEEP))
    return [tuple(r) for r in json.loads(out)]


def test_sign_convs_and_features_byte_identical_across_thread_counts():
    base = _sign_sweep_digests(1)
    assert len(base) == len(_SIGN_SWEEP) + 2
    for threads in (2, 4):
        pairs = zip(base, _sign_sweep_digests(threads), strict=True)
        for (op, case, want), (_, _, got) in pairs:
            assert got == want, f"{op} at {case} differs between 1 and {threads} threads"


# The gradients of one float32 loss_and_grads on a batch of 128 (the
# interior-tap products on the 2x2 grids), then the float64 parameters after
# train_stage1 on 129 images: a float32 step of 128 and one of a single image
# (the dense products).
_FLOAT32_STEP_SCRIPT = r"""
import hashlib
import numpy as np
from rxgb import data, netspec, network

rng = np.random.default_rng(47)
ds = data.Dataset(images=rng.standard_normal((145, 1, 28, 28)),
                  labels=np.arange(145) % 10, split="train")
train, val = data.split_train_val(ds, 16)
model = network.build_network(netspec.reference_spec(width_mult=0.25), seed=48)
_, grads = network.loss_and_grads(model.copy(), train.images[:128].astype(np.float32),
                                  train.labels[:128])
h = hashlib.sha256()
for k in model.learnable_keys():
    assert grads[k].dtype == np.float32, k
    h.update(grads[k].tobytes(order="A"))
result = network.train_stage1(model, train, val,
                              network.StageOneConfig(epochs=1, batch_size=128, seed=49))
assert not result.aborted, result.abort_reason
print(h.hexdigest(), model.param_digest())
"""


def test_float32_training_steps_are_byte_identical_across_thread_counts():
    # float32 products rest on the same K_BLOCK assumption as float64 ones
    want = _run_at_threads(1, _FLOAT32_STEP_SCRIPT)
    for threads in (2, 4):
        assert _run_at_threads(threads, _FLOAT32_STEP_SCRIPT) == want, threads


# --- frozen inference plan -------------------------------------------------------


def test_plan_equals_folded_plan_oracle_byte_for_byte():
    # the oracle rounds alpha and the reals to float32, as the plan holds them,
    # and folds them into each BN's scale and shift by its own formula
    model = network.build_network(plan_spec(), seed=171)
    randomize_params(model, 172)                         # BN and RPReLU reals too
    plan = network.freeze(model)
    x = np.random.default_rng(173).normal(size=(67, 1, 6, 6))
    for b in (1, 3, 67):
        want_logits, want_feats = folded_plan_forward(model, x[:b])
        for src in (model, plan):
            feats = network.features_forward(src, x[:b])
            assert feats.tobytes() == want_feats.tobytes(), f"batch {b}"
            logits, caches = network.forward(src, x[:b])
            assert logits.tobytes() == want_logits.tobytes(), f"batch {b}"
            assert caches is None


def test_plan_stays_within_rounding_of_the_training_graph():
    # The fold turns ((sums * alpha - run_mean) / sqrt(run_var + eps)) * gamma
    # + beta into sums * scale + shift: a few float64 roundings per batch norm
    # in place of others, each within 2**-53 relative, carried through 10
    # blocks. At width 0.5 with random BN statistics the largest difference
    # is 2.4e-16 of the largest |value| (5e-14 of a feature's own |value| at
    # most). The bound, 1e-12 of the largest |value|, leaves three orders of
    # magnitude for that growth; an RSign flipped by the rounding would move
    # a feature by O(1) and fail it.
    spec = netspec.reference_spec(width_mult=0.5)
    model = network.build_network(spec, seed=188)
    randomize_params(model, 189)
    x = np.random.default_rng(190).standard_normal((4, *spec.input_shape))
    want_logits, want_feats = training_graph_forward(model, x)
    logits, _ = network.forward(model, x)
    feats = network.features_forward(model, x)
    for got, want in ((feats, want_feats), (logits, want_logits)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_plan_rsign_compare_equals_the_sign_of_the_difference():
    # The plan's RSign is x >= shift; bitops.rsign_forward takes the sign of
    # x - shift. Finite float32 shifts (the plan's reals are float32 values)
    # against +-0, subnormals, each shift and its adjacent doubles, +-1e308,
    # +-inf and NaN.
    spec = tiny_spec()
    model = network.build_network(spec, seed=191)
    f32 = np.finfo(np.float32)
    shift = np.array([0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal,
                      1.0, -2.5, f32.max, -f32.max])
    model.params["block1.rsign_conv3x3.shift"][:] = shift
    plan = network.freeze(model)
    assert plan.reals["block1.rsign_conv3x3.shift"].tobytes() == shift.tobytes()
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, 1e308, -1e308,
             np.inf, -np.inf, np.nan]
    for s in shift:
        edges += [s, np.nextafter(s, np.inf), np.nextafter(s, -np.inf)]
    x = np.repeat(np.array(edges)[:, None], len(shift), axis=1)[:, :, None, None]
    got = plan.rsign("block1.rsign_conv3x3", x)
    want = bitops.rsign_forward(x, plan.reals["block1.rsign_conv3x3.shift"])[0]
    assert got.dtype == bool and want.dtype == np.int8
    assert np.where(got, 1, -1).astype(np.int8).tobytes() == want.tobytes()


def _plan_arrays(plan):
    """{label: array} of every array an InferencePlan holds."""
    arrays = {f"rows {k}": a for k, a in plan.rows.items()}
    arrays |= {f"reals {k}": a for k, a in plan.reals.items()}
    arrays |= {f"affine {k} {i}": a for k, pair in plan.affine.items()
               for i, a in enumerate(pair)}
    arrays |= {f"xnor {k} {f.in_shape} {f.out_shape} {g} {i}": a
               for k, f in plan.xnor.items()
               for g, group in enumerate(f.groups) for i, a in enumerate(group)}
    return arrays


def test_plan_is_read_only_and_leaves_the_model_writable():
    model = network.build_network(plan_spec(), seed=174)
    plan = network.freeze(model)
    w_rows = plan.rows["block1.conv3x3"]                 # no alpha beside them
    assert w_rows.dtype == np.float32 and w_rows.shape == (4, 9 * 4)
    assert set(np.unique(w_rows)) <= {-1.0, 1.0}
    # every grid of this spec has at most _POPCOUNT_MAX_ROWS cells
    filters = plan.xnor["block1.conv3x3"]
    assert filters.in_shape == (4, 3, 3) and filters.out_shape == (4, 3, 3)
    assert plan.xnor.keys() == plan.rows.keys()
    # the reals are what the executor reads: no alpha, no batch-norm parameter
    assert set(plan.reals) == {name for name, _, _, _ in network._param_layout(plan.spec)
                               if not name.endswith(".w_latent") and ".bn" not in name}
    assert type(plan.payload) is bytes
    assert plan.payload == network.deployed_payload(model)
    assert not any(a.flags.writeable for a in _plan_arrays(plan).values())
    with pytest.raises(TypeError):
        plan.reals["stem.conv.w"] = np.zeros((4, 1, 3, 3))
    with pytest.raises(TypeError):
        plan.rows["block1.conv3x3"] = w_rows
    assert all(a.flags.writeable for a in model.params.values())


def test_batch_one_features_equal_their_rows_of_a_batch_256_forward(monkeypatch):
    # At batch 1 the binary convs of at most _POPCOUNT_MAX_ROWS patch rows
    # (the 4x4 and 2x2 grids) run as XNOR-popcount on packed words and the
    # rest as dense float32 products; at batch 256 all are products, the
    # 3x3 ones on 2x2 grids over interior taps. The features agree to the byte.
    model = network.build_network(netspec.reference_spec(0.5, include_fc=False), seed=190)
    randomize_params(model, 191)
    plan = network.freeze(model)
    grids = []
    xnor_conv2d = bitops.xnor_conv2d

    def spy(x, filters):
        y = xnor_conv2d(x, filters)
        grids.append(y.shape[2:])
        return y

    monkeypatch.setattr(bitops, "xnor_conv2d", spy)
    interior = _count_calls(monkeypatch, tensor_ops, "_sign_conv_interior")
    x = np.random.default_rng(192).normal(size=(256, 1, 28, 28))
    whole = network.features_forward(plan, x)
    assert grids == [] and len(interior) == 4
    interior.clear()
    for i in range(len(x)):
        grids.clear()
        row = network.features_forward(plan, x[i:i + 1])
        assert row.tobytes() == whole[i:i + 1].tobytes(), i
        assert sorted(grids) == [(2, 2)] * 12 + [(4, 4)] * 5, i
    assert interior == []


def test_an_empty_batch_gives_empty_features_and_classes():
    spec = netspec.reference_spec(0.25)
    model = network.build_network(spec, seed=193)
    rng = np.random.default_rng(194)
    ens = gbdt.train_ensemble(rng.normal(size=(20, spec.feature_dim)), np.arange(20) % 10,
                              gbdt.GBDTConfig(n_classes=10, max_trees=2, max_depth=2))
    x = np.zeros((0, 1, 28, 28))
    for m in (model, network.freeze(model)):
        assert network.features_forward(m, x).shape == (0, spec.feature_dim)
        classes, scores = network.infer_hybrid(m, ens, x)
        assert classes.shape == (0,) and scores.shape == (0, 10)
        feats, labels = network.extract_features(
            m, data.Dataset(images=x, labels=np.zeros(0, np.int64), split="test"))
        assert feats.shape == (0, spec.feature_dim) and labels.shape == (0,)


def test_forwards_write_no_caller_array():
    # bn and rprelu compute in the arrays they are given: conv outputs and
    # block sums of the forward's own, never the input or the plan's reals.
    model = network.build_network(plan_spec(), seed=179)
    randomize_params(model, 180)
    plan = network.freeze(model)
    reals = {key: a.tobytes() for key, a in plan.reals.items()}
    x = np.random.default_rng(181).normal(size=(5, 1, 6, 6))
    assert np.asarray(x, dtype=np.float64) is x          # the forwards get x itself
    before = x.tobytes()
    network.features_forward(plan, x)
    assert x.tobytes() == before
    network.forward(model, x, training=True)
    assert x.tobytes() == before
    assert not any(a.flags.writeable for a in plan.reals.values())
    assert {key: a.tobytes() for key, a in plan.reals.items()} == reals


def test_b64_features_forward_allocates_at_most_25_mib():
    # Peak traced allocation of one width-0.5 batch-64 request on a frozen
    # plan: 28.4 MiB when bn and rprelu made fresh arrays, 22.3 MiB when they
    # computed in the conv output and block sum they were given, 13.1 MiB
    # since the plan folds alpha into bn and rprelu writes its result in
    # place.
    spec = netspec.reference_spec(width_mult=0.5)
    plan = network.freeze(network.build_network(spec, seed=182))
    x = np.random.default_rng(183).standard_normal((64, *spec.input_shape))
    tracemalloc.start()
    try:
        network.features_forward(plan, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 * 2**20, peak / 2**20


def test_parse_checkpoint_allocates_at_most_36_mib(tmp_path):
    # Peak traced allocation of reading the width-0.5 no-FC reference
    # checkpoint into its plan, whose float32 rows and XNOR words alone hold
    # 28.6 MiB: 45.7 MiB when the bits were unpacked into one int8 sign
    # array and each filter copied into int8 rows, 33.2 MiB since each
    # conv's bits go straight to its rows and words.
    spec = netspec.reference_spec(width_mult=0.5, include_fc=False)
    blob = _artifact(tmp_path, network.build_network(spec, seed=184))
    tracemalloc.start()
    try:
        network.parse_checkpoint(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**20, peak / 2**20


def test_infer_hybrid_on_loaded_checkpoint_equals_the_saved_model(tmp_path):
    ds = separable_dataset(40, seed=175)
    model = network.build_network(tiny_spec(), seed=176)
    randomize_params(model, 177)
    feats, labels = network.extract_features(model, ds, batch_size=16)
    ens = gbdt.train_ensemble(feats, labels, gbdt.GBDTConfig(
        n_classes=4, max_trees=8, max_depth=3))
    path = tmp_path / "m.ckpt"
    network.save_checkpoint(model, path)
    loaded = network.load_checkpoint(path)
    assert isinstance(loaded, network.InferencePlan)
    for b in (1, 40):
        x = ds.images[:b]
        assert (network.features_forward(loaded, x).tobytes()
                == network.features_forward(model, x).tobytes()), b
        got = network.infer_hybrid(loaded, ens, x)
        want = network.infer_hybrid(model, ens, x)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def _count_calls(monkeypatch, module, attr):
    calls = []
    fn = getattr(module, attr)

    def counted(*a, **k):
        calls.append(1)
        return fn(*a, **k)

    monkeypatch.setattr(module, attr, counted)
    return calls


def test_loaded_checkpoint_keeps_one_plan_and_requests_prepare_no_weights(
        tmp_path, monkeypatch):
    model = network.build_network(tiny_spec(), seed=178)
    network.save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = network.load_checkpoint(tmp_path / "m.ckpt")
    freezes = _count_calls(monkeypatch, network, "freeze")
    signs = _count_calls(monkeypatch, bitops, "sign_weights")
    x = np.random.default_rng(179).normal(size=(2, 1, 8, 8))
    first = network.features_forward(loaded, x)
    for _ in range(3):
        assert network.features_forward(loaded, x).tobytes() == first.tobytes()
        network.forward(loaded, x)
    assert freezes == [] and signs == []


def test_a_writable_model_is_frozen_once_per_inference_call(monkeypatch):
    ds = separable_dataset(10, seed=180)
    model = network.build_network(tiny_spec(), seed=181)
    freezes = _count_calls(monkeypatch, network, "freeze")
    network.extract_features(model, ds, batch_size=3)    # four batches
    assert len(freezes) == 1
    network.evaluate(model, ds, batch_size=3)
    assert len(freezes) == 2


def test_replaced_or_edited_params_reach_the_next_features():
    x = np.random.default_rng(185).normal(size=(4, 1, 8, 8))
    model = network.build_network(tiny_spec(), seed=186)
    before = network.features_forward(model, x)
    key = "block1.conv3x3.w_latent"
    original = model.params[key]
    for shift, read_only in ((1, False), (2, True)):     # filters rotated by Co
        rotated = np.roll(original, shift, axis=0)
        rotated.flags.writeable = not read_only
        model.params[key] = rotated
        got = network.features_forward(model, x)
        assert got.tobytes() == folded_plan_forward(model, x)[1].tobytes()
        assert got.tobytes() != before.tobytes()
        before = got

    model = network.build_network(tiny_spec(), seed=187)
    before = network.features_forward(model, x)
    model.params["block2.bn_conv1x1_a.run_mean"] += 1.0
    model.params["block1.conv3x3.w_latent"] *= -1.0
    got = network.features_forward(model, x)
    assert got.tobytes() == folded_plan_forward(model, x)[1].tobytes()
    assert got.tobytes() != before.tobytes()


# --- checkpoint + deployment ----------------------------------------------------


def _artifact(tmp_path, model):
    """The checkpoint file bytes of ``model``."""
    path = tmp_path / "m.ckpt"
    network.save_checkpoint(model, path)
    return path.read_bytes()


def _header_len(spec):
    spec_json = json.dumps(netspec.spec_to_dict(spec), sort_keys=True,
                           separators=(",", ":"))
    return len(network.CHECKPOINT_MAGIC) + struct.calcsize("<II") + len(spec_json)


def test_checkpoint_roundtrip_is_byte_identical(tmp_path):
    ds = separable_dataset(16, seed=131)
    model = network.build_network(tiny_spec(), seed=132)
    hp = network.StageOneConfig(epochs=2, batch_size=8, learning_rate=0.03, seed=133)
    trained = network.train_stage1(model, ds, ds, hp).model
    blob = _artifact(tmp_path, trained)
    loaded = network.parse_checkpoint(blob)
    assert _artifact(tmp_path, loaded) == blob
    assert loaded.spec == trained.spec
    # v3 is the header (magic, version, spec JSON) and the deployed payload
    payload = blob[_header_len(trained.spec):]
    assert network.deployed_payload(trained) == payload
    # a frozen model and its saved file are one plan, array for array
    frozen = network.freeze(trained)
    for a, b in ((frozen.payload, loaded.payload),
                 (network.deployed_payload(frozen), network.deployed_payload(loaded))):
        assert a == b == payload
    got, want = _plan_arrays(frozen), _plan_arrays(loaded)
    assert got.keys() == want.keys() and frozen.xnor
    for k in got:
        assert got[k].dtype == want[k].dtype and got[k].shape == want[k].shape, k
        assert got[k].tobytes() == want[k].tobytes(), k
    x = np.random.default_rng(134).normal(size=(3, 1, 8, 8))
    np.testing.assert_array_equal(
        network.forward(loaded, x)[0], network.forward(trained, x)[0]
    )


@pytest.mark.parametrize("width", [0.125, 0.5, 1.0])
@pytest.mark.parametrize("include_fc", [True, False], ids=["fc", "nofc"])
def test_artifact_is_the_header_and_the_cost_models_bits(tmp_path, width, include_fc):
    spec = netspec.reference_spec(width, include_fc=include_fc)
    blob = _artifact(tmp_path, network.build_network(spec, seed=0))
    bits = costmodel.cost_report(spec).total_param_bits
    assert bits % 8 == 0
    assert len(blob) == _header_len(spec) + bits // 8


@pytest.mark.parametrize("value", [np.nan, 1e39], ids=["nan", "past-float32"])
def test_a_model_whose_payload_is_not_finite_is_neither_served_nor_saved(tmp_path, value):
    # 1e39 is a finite float64 and inf in float32. The plan is built from the
    # payload's bytes, which the parser would refuse, so freeze refuses them
    # too, and no file is written.
    spec = netspec.reference_spec(width_mult=0.125)
    model = network.build_network(spec, seed=145)
    x = np.random.default_rng(146).normal(size=(2, *spec.input_shape))
    path = tmp_path / "checkpoint.ckpt"
    network.save_checkpoint(model, path)
    assert (network.features_forward(network.load_checkpoint(path), x).tobytes()
            == network.features_forward(model, x).tobytes())
    path.unlink()
    model.params["block2.bn_conv3x3.gamma"][0] = value
    with pytest.raises(network.CheckpointError, match="non-finite"):
        network.freeze(model)
    with pytest.raises(network.CheckpointError, match="non-finite"):
        network.save_checkpoint(model, path)
    assert os.listdir(tmp_path) == []


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    model = network.build_network(tiny_spec(), seed=142)
    path = tmp_path / "checkpoint.ckpt"
    network.save_checkpoint(model, path)
    before = path.read_bytes()

    def failing(model):
        raise RuntimeError("serializer failed")

    monkeypatch.setattr(network, "deployed_payload", failing)
    with pytest.raises(RuntimeError, match="serializer failed"):
        network.save_checkpoint(model, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["checkpoint.ckpt"]


def test_checkpoint_rejects_malformed_blobs(tmp_path):
    spec = tiny_spec()
    model = network.build_network(spec, seed=141)
    blob = _artifact(tmp_path, model)
    head = _header_len(spec)
    var = _real_offset(blob, spec, "block2.bn_conv3x3.run_var")
    assert struct.unpack_from("<f", blob, var)[0] == 1.0
    cases = [
        b"",
        b"NOTMAGIC" + blob[8:],
        blob[:14],
        blob[:head - 1],
        blob[:-7],
        blob + b"x",
        blob[:8] + (2).to_bytes(4, "little") + blob[12:],   # the float64 records
        blob[:8] + (99).to_bytes(4, "little") + blob[12:],
        blob[:var] + struct.pack("<f", np.nan) + blob[var + 4:],
        blob[:var] + struct.pack("<f", -0.5) + blob[var + 4:],
        blob[:var] + struct.pack("<f", np.inf) + blob[var + 4:],
    ]
    for bad in cases:
        with pytest.raises(network.CheckpointError):
            network.parse_checkpoint(bad)


def test_checkpoint_mutants_fail_closed_or_serve_features(tmp_path):
    # seeded fuzz: truncations and 1-4 random byte writes; each mutant either
    # raises CheckpointError or parses into a plan that serves features
    blob = _artifact(tmp_path, network.build_network(tiny_spec(), seed=143))
    rng = np.random.default_rng(144)
    x = np.zeros((1, 1, 8, 8))
    parsed = 0
    for i in range(300):
        if i % 2:
            bad = blob[:int(rng.integers(0, len(blob)))]
        else:
            arr = bytearray(blob)
            for pos in rng.integers(0, len(blob), size=int(rng.integers(1, 5))):
                arr[pos] = int(rng.integers(0, 256))
            bad = bytes(arr)
        try:
            loaded = network.parse_checkpoint(bad)
        except network.CheckpointError:
            continue
        parsed += 1
        with np.errstate(all="ignore"):                  # a written payload byte
            assert network.features_forward(loaded, x).shape == (1, 16)
    assert parsed > 0


def test_deployed_payload_layout_and_cost_model_agreement():
    spec = tiny_spec()
    model = network.build_network(spec, seed=151)
    randomize_params(model, 152)
    payload = network.deployed_payload(model)
    report = costmodel.cost_report(spec)
    assert report.binary_param_bits % 8 == 0
    assert len(payload) == report.total_param_bits // 8

    # bit section: first latent's signs, packed LSB-first
    latents = [model.params[k] for k in model.params if k.endswith(".w_latent")]
    bits = np.concatenate([(l.reshape(-1) >= 0).astype(np.uint8) for l in latents])
    packed = np.packbits(bits, bitorder="little")
    nbytes = report.binary_param_bits // 8
    assert payload[:nbytes] == packed.tobytes()

    # float section starts with the stem conv weights as float32
    stem = np.frombuffer(payload, dtype="<f4", count=72, offset=nbytes)
    np.testing.assert_array_equal(
        stem, model.params["stem.conv.w"].astype("<f4").reshape(-1)
    )

    headless = network.build_network(tiny_spec(with_fc=False), seed=151)
    report2 = costmodel.cost_report(tiny_spec(with_fc=False))
    assert len(network.deployed_payload(headless)) == report2.total_param_bits // 8


def test_deployed_payload_equals_the_kind_by_kind_oracle():
    specs = (tiny_spec(), tiny_spec(with_fc=False),
             netspec.reference_spec(width_mult=0.25))
    for i, spec in enumerate(specs):
        model = network.build_network(spec, seed=153 + i)
        randomize_params(model, 156 + i)
        payload = network.deployed_payload(model)
        assert payload == oracle_payload(model), spec.layers[-1].name
        assert len(payload) == costmodel.cost_report(spec).total_param_bits // 8


@pytest.mark.parametrize("spec", [
    netspec.reference_spec(1.0), netspec.reference_spec(0.5),
    netspec.reference_spec(0.25), netspec.reference_spec(1.0, include_fc=False),
    tiny_spec(),
], ids=["w1.0", "w0.5", "w0.25", "w1.0-nofc", "tiny"])
def test_each_cost_row_counts_the_parameters_under_its_prefix(spec):
    rows = costmodel.cost_report(spec).rows
    owned = {r.name: [] for r in rows}
    for name, shape, _, _ in network._param_layout(spec):
        owners = [r.name for r in rows if name.startswith(f"{r.name}.")]
        assert len(owners) == 1, (name, owners)
        owned[owners[0]].append((name, shape))
    for r in rows:
        if r.name.endswith((".global", ".pool_shortcut")):
            assert owned[r.name] == [] and r.param_bits == 0, r.name
        latent = [(shape[0], int(np.prod(shape)))
                  for name, shape in owned[r.name] if name.endswith(".w_latent")]
        reals = [int(np.prod(shape))
                 for name, shape in owned[r.name] if not name.endswith(".w_latent")]
        # 1 bit per latent weight, 32 per alpha channel, 32 per other entry
        assert r.param_bits == sum(n + 32 * co for co, n in latent) + 32 * sum(reals), \
            r.name
        assert r.binary_weight_bits == sum(n for _, n in latent), r.name


def test_reference_plan_payload_matches_cost_model():
    spec = netspec.reference_spec()
    model = network.build_network(spec, seed=0)
    payload = network.deployed_payload(model)
    report = costmodel.cost_report(spec)
    assert len(payload) == report.total_param_bits // 8 == 3_896_064
