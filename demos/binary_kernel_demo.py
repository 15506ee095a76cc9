"""XNOR-popcount convolution, step by step.

A {-1,+1} dot product of length K can be computed entirely in bit arithmetic:

    dot(a, b) = K - 2 * popcount(bits(a) XOR bits(b))

This script packs a latent weight tensor's signs to one bit per value, runs
the packed convolution the deployed network runs on small grids (which XORs
only the taps that read the input and adds a constant per filter for the
pad ring), and checks it byte for byte against the exact sign convolution
the network trains with (boolean activation planes, int8 filters), scaled by
alpha. It then prints what
the unified cost metric (OPs = BOPs/64 + FLOPs) says about the trade.
"""

import argparse

import numpy as np

from rxgb import bitops, costmodel, tensor_ops


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    # --- step 1: binarize and pack ----------------------------------------
    x = rng.normal(size=(1, 8, 14, 14))
    x_sign = x >= 0                       # a boolean plane, True for +1
    latent = rng.normal(size=(16, 8, 3, 3))
    w_sign, alpha = bitops.sign_weights(latent)
    geom = tensor_ops.ConvGeometry(kernel=(3, 3), stride=1, padding=1)
    filters = bitops.xnor_filters(tensor_ops.filter_rows(w_sign) > 0, geom, 14, 14)

    # each filter tap and each input pixel packs its 8 channel signs into
    # one uint64 word; an output position's patch row is a gather of the
    # words of the taps that read the input
    k = 8 * 3 * 3
    oh, ow = geom.out_extent(14, 14)
    interior = sum(pixels.size for _, pixels, _, _ in filters.groups)
    print(f"activations {x_sign.shape}, weights {latent.shape}")
    print(f"16 x 9 filter taps and {14 * 14} input pixels of 8 signs, one word each "
          f"({8 / 64:.0%} full)")
    print(f"{interior} of the {oh * ow * 9} (position, tap) pairs read the input; "
          f"the other {oh * ow * 9 - interior} read the -1 pad ring and add a constant")
    print(f"per-channel scale alpha = mean|latent|, first three: "
          f"{np.round(alpha[:3], 4)}")

    # --- step 2: convolve in bit space ------------------------------------
    y_bits = bitops.xnor_conv2d(x_sign, filters) * alpha[None, :, None, None]

    # reference: the sign conv (exact integer sums) times alpha
    ints = tensor_ops.conv2d_forward(x_sign, w_sign, geom, pad_value=-1)
    y_sign = ints * alpha[None, :, None, None]

    print(f"packed output {y_bits.shape}, "
          f"equal to the sign conv times alpha byte for byte: "
          f"{np.array_equal(y_bits, y_sign)}")
    assert np.array_equal(y_bits, y_sign)

    # the raw accumulations are integers in [-k, k]
    print(f"integer accumulations span [{ints.min():.0f}, {ints.max():.0f}] "
          f"of +/-{k} possible")

    # --- step 3: what the cost model says ---------------------------------
    bops, _ = costmodel.binary_conv_cost(16, 8, 3, 3, oh, ow)
    flops, _ = costmodel.fp32_conv_cost(16, 8, 3, 3, oh, ow)
    print(f"this layer: {bops:,} BOPs vs {flops:,} FLOPs dense")
    print(f"unified: {costmodel.ops_from_totals(bops, 0):,.0f} OPs binary "
          f"vs {costmodel.ops_from_totals(0, flops):,.0f} OPs float "
          f"(64 binary ops per word op)")


if __name__ == "__main__":
    main()
