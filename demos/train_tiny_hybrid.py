"""The whole two-stage story at desk-toy scale, in under a minute.

Stage 1 trains a miniature 1-bit backbone (stem, one normal block, one
reduction block) with an FC head on synthetic 12x12 "images" whose class is
decided by which quadrant carries the bright blob. Stage 2 freezes the
backbone, pools its features, and fits a bounded tree ensemble in place of
the FC head. The punchline: the tree head matches the FC head on data the
backbone has never seen, at a fraction of the head's inference cost.
"""

import argparse

import numpy as np

from rxgb import costmodel, data, gbdt, netspec, network


def quadrant_blobs(n, rng):
    """Class = quadrant of a 3x3 bright blob on a noisy 12x12 canvas."""
    labels = rng.integers(0, 4, size=n)
    images = rng.normal(scale=0.15, size=(n, 1, 12, 12))
    for i, c in enumerate(labels):
        cy = 2 + 6 * (c // 2) + rng.integers(0, 2)
        cx = 2 + 6 * (c % 2) + rng.integers(0, 2)
        images[i, 0, cy:cy + 3, cx:cx + 3] += 1.0
    return data.Dataset(images=np.clip(images, -1, 1), labels=labels,
                        split="synthetic")


def tiny_plan():
    layers = (
        netspec.LayerSpec(netspec.FIRST_CONV, "stem", 1, 8, stride=2),
        netspec.LayerSpec(netspec.NORMAL, "block1", 8, 8),
        netspec.LayerSpec(netspec.REDUCTION, "block2", 8, 16, stride=2),
        netspec.LayerSpec(netspec.GLOBAL_POOL, "pool", 16, 16),
        netspec.LayerSpec(netspec.FC_HEAD, "fc", 16, 4),
    )
    return netspec.NetworkSpec(layers=layers, input_shape=(1, 12, 12),
                               feature_dim=16, class_count=4)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=40)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    train = quadrant_blobs(240, rng)
    val = quadrant_blobs(60, rng)
    test = quadrant_blobs(120, rng)

    # --- stage 1: 1-bit backbone + FC head, SGD with cosine decay ----------
    spec = tiny_plan()
    model = network.build_network(spec, seed=args.seed)
    hp = network.StageOneConfig(epochs=args.epochs, batch_size=32,
                                learning_rate=0.05, seed=args.seed)
    result = network.train_stage1(model, train, val, hp)
    for m in result.metrics[:: max(1, args.epochs // 8)]:
        print(f"epoch {m.epoch:3d}  loss {m.train_loss:.3f}  "
              f"val top-1 {m.val_top1:.2f}  lr {m.learning_rate:.4f}")
    print(f"best epoch {result.best_epoch}, val top-1 {result.best_val_top1:.2f}")
    # --- stage 2: freeze, pool, boost ---------------------------------------
    # binarize and lay out the weights once; every call below serves from it
    best = network.freeze(result.model)
    feats, labels = network.extract_features(best, train)
    print(f"\nfrozen features: {feats.shape[0]} x {feats.shape[1]} "
          f"(pooled, before any head)")
    cfg = gbdt.GBDTConfig(n_classes=4, max_trees=12, max_depth=4)
    ens = gbdt.train_ensemble(feats.astype(np.float32), labels, cfg)

    # --- the comparison that motivates the swap -----------------------------
    logits, _ = network.forward(best, test.images, training=False)
    fc_acc = (np.argmax(logits, axis=1) == test.labels).mean()
    pred, _ = network.infer_hybrid(best, ens, test.images)
    tree_acc = (pred == test.labels).mean()
    print(f"\nheld-out top-1: fc head {fc_acc:.2%}, tree head {tree_acc:.2%}")

    fc_flops = spec.feature_dim * spec.class_count
    head = costmodel.gbdt_cost(ens)
    print(f"head cost: fc {fc_flops} FLOPs vs trees "
          f"{head.compare_flops} compares worst-case "
          f"({head.internal_nodes} internal nodes, {head.leaves} leaves)")


if __name__ == "__main__":
    main()
