"""Seeded synthetic inputs for the benchmark workloads.

Every generator draws from ``np.random.default_rng((seed, stream))`` with a
fixed stream id per purpose, so one seed always yields the same bytes and the
streams never share state.

* Images: ten class templates of smooth blobs over a class-specific
  brightness; each image is its class template at a random contrast plus
  pixel noise, quantised to u8. They are learnable: a width-0.125 backbone
  trained six epochs on 1024 of them (batch 32, lr 0.05) reaches about 0.55
  validation top-1 against 0.1 for chance.
* Features: a class-conditional float32 matrix, class means N(0, 0.15^2) per
  column plus N(0, 1) noise. The classes overlap, so exact-greedy trees keep
  finding positive-gain splits down to depth 10.
"""

from __future__ import annotations

import struct

import numpy as np

N_CLASSES = 10
SIDE = 28
_TEMPLATE_STREAM = 1
_IMAGE_STREAM = 2
_FEATURE_STREAM = 3


def _templates(seed: int) -> np.ndarray:
    """[10, 28, 28] float templates in [-1, 1]: blurred 7x7 noise, upsampled."""
    rng = np.random.default_rng((seed, _TEMPLATE_STREAM))
    low = rng.standard_normal((N_CLASSES, 7, 7))
    t = np.kron(low, np.ones((4, 4)))
    for _ in range(2):                                   # 3x3 box blur, twice
        p = np.pad(t, ((0, 0), (1, 1), (1, 1)), mode="edge")
        t = sum(p[:, i:i + SIDE, j:j + SIDE] for i in range(3) for j in range(3)) / 9
    return t / np.abs(t).max(axis=(1, 2), keepdims=True)


def images(seed: int, n: int, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(u8 pixels [n, 28, 28], int64 labels [n]) for samples offset..offset+n.

    The draw depends on (seed, offset, n): splits at different offsets are
    independent samples of one distribution, sharing the seed's templates.
    """
    tmpl = _templates(seed)
    rng = np.random.default_rng((seed, _IMAGE_STREAM, offset, n))
    labels = rng.integers(0, N_CLASSES, n)
    level = 12.0 * (labels - 4.5)[:, None, None] + rng.normal(0.0, 4.0, (n, 1, 1))
    contrast = rng.uniform(0.6, 1.0, (n, 1, 1))
    noise = rng.standard_normal((n, SIDE, SIDE))
    x = 128.0 + level + 60.0 * contrast * tmpl[labels] + 20.0 * noise
    return np.clip(np.rint(x), 0, 255).astype(np.uint8), labels.astype(np.int64)


def features(seed: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(float32 [rows, cols], int64 labels [rows]) class-conditional matrix."""
    rng = np.random.default_rng((seed, _FEATURE_STREAM))
    labels = rng.integers(0, N_CLASSES, rows)
    means = 0.15 * rng.standard_normal((N_CLASSES, cols))
    x = means[labels] + rng.standard_normal((rows, cols))
    return x.astype(np.float32), labels.astype(np.int64)


def idx_images(pixels: np.ndarray) -> bytes:
    """IDX3 (magic 0x803) container for u8 images [n, h, w]."""
    n, h, w = pixels.shape
    return struct.pack(">IIII", 0x803, n, h, w) + pixels.astype(np.uint8).tobytes()


def idx_labels(labels: np.ndarray) -> bytes:
    """IDX1 (magic 0x801) container for u8 labels [n]."""
    return struct.pack(">II", 0x801, labels.shape[0]) + labels.astype(np.uint8).tobytes()
