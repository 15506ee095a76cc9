"""XNOR-popcount convolution, step by step.

A {-1,+1} dot product can be computed entirely in bit arithmetic:

    dot(a, b) = 2 * popcount(XNOR(bits(a), bits(b))) - n

This script packs a small activation tensor and a latent weight tensor to
one bit per value, runs the packed convolution, and checks it byte for byte
against the exact int8 sign convolution the network trains with, scaled by
alpha. It then prints what the unified cost metric (OPs = BOPs/64 + FLOPs)
says about the trade.
"""

import argparse

import numpy as np

from rxgb import bitops, costmodel, tensor_ops


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    # --- step 1: binarize -------------------------------------------------
    x = rng.normal(size=(1, 8, 14, 14))
    x_sign = np.where(x >= 0, 1.0, -1.0)
    latent = rng.normal(size=(16, 8, 3, 3))
    bits, alpha = bitops.binarize_weights(latent)

    dense_bits = x_sign.size + latent.size
    packed_words = bitops.pack(x_sign).words.size + bits.words.size
    print(f"activations {x_sign.shape}, weights {latent.shape}")
    print(f"packed to {packed_words} uint64 words "
          f"({dense_bits} values, {dense_bits / (64 * packed_words):.0%} full)")
    print(f"per-channel scale alpha = mean|latent|, first three: "
          f"{np.round(alpha[:3], 4)}")

    # --- step 2: convolve in bit space ------------------------------------
    geom = tensor_ops.ConvGeometry(kernel=(3, 3), stride=1, padding=1)
    y_bits = bitops.binary_conv2d(bitops.pack(x_sign), bits, alpha, geom)

    # reference: the int8 sign conv (exact integer sums) times alpha
    w_sign, _ = bitops.sign_weights(latent)
    ints = tensor_ops.conv2d_forward(x_sign.astype(np.int8), w_sign, geom,
                                     pad_value=-1)
    y_sign = ints * alpha[None, :, None, None]

    print(f"packed output {y_bits.shape}, "
          f"equal to the int8 sign conv times alpha byte for byte: "
          f"{np.array_equal(y_bits, y_sign)}")
    assert np.array_equal(y_bits, y_sign)

    # the raw accumulations are integers in [-k, k], k = taps per output
    k = 8 * 3 * 3
    print(f"integer accumulations span [{ints.min():.0f}, {ints.max():.0f}] "
          f"of +/-{k} possible")

    # --- step 3: what the cost model says ---------------------------------
    oh, ow = geom.out_extent(14, 14)
    bops, _ = costmodel.binary_conv_cost(16, 8, 3, 3, oh, ow)
    flops, _ = costmodel.fp32_conv_cost(16, 8, 3, 3, oh, ow)
    print(f"this layer: {bops:,} BOPs vs {flops:,} FLOPs dense")
    print(f"unified: {costmodel.ops_from_totals(bops, 0):,.0f} OPs binary "
          f"vs {costmodel.ops_from_totals(0, flops):,.0f} OPs float "
          f"(64 binary ops per word op)")


if __name__ == "__main__":
    main()
