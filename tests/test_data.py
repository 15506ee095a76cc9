"""Tests for data acquisition, IDX parsing, batching, and feature files."""

import gzip
import os
import struct
import urllib.error

import numpy as np
import pytest

from rxgb import data
from rxgb.data import (
    Dataset,
    IdxError,
    atomic_open,
    batches,
    decode_images,
    decode_labels,
    denormalize,
    fetch,
    load_dataset,
    load_features,
    normalize,
    parse_idx,
    save_features,
    split_train_val,
    subset,
)


def idx_labels(values):
    return struct.pack(">II", 0x00000801, len(values)) + bytes(values)


def idx_images(n, h, w, pixels=None):
    if pixels is None:
        pixels = bytes(range(256)) * (n * h * w // 256 + 1)
    return struct.pack(">IIII", 0x00000803, n, h, w) + bytes(pixels[: n * h * w])


def test_minimal_label_file():
    idx = parse_idx(idx_labels([0, 9]))
    assert idx.magic == 0x00000801
    assert idx.dims == (2,)
    assert decode_labels(idx).tolist() == [0, 9]


def test_image_decode_shape_and_normalization_endpoints():
    raw = idx_images(2, 3, 4, pixels=bytes([0, 255, 127, 128] * 6))
    imgs = decode_images(parse_idx(raw))
    assert imgs.shape == (2, 1, 3, 4)
    assert imgs.dtype == np.float64
    flat = imgs.reshape(-1)
    assert flat[0] == -1.0
    assert flat[1] == 1.0
    assert flat[2] == pytest.approx(-0.00392156862745, abs=1e-12)
    assert flat[3] == pytest.approx(+0.00392156862745, abs=1e-12)
    assert imgs.min() >= -1.0 and imgs.max() <= 1.0


def test_normalize_roundtrip_all_u8_values():
    p = np.arange(256, dtype=np.uint8)
    assert np.array_equal(denormalize(normalize(p)), p)


# Crafted corruption battery: every entry must be rejected by the parser
# (or by decode_labels for in-range payloads with bad label values).
CORRUPTIONS = {
    "empty": b"",
    "four_bytes": b"\x00\x00\x08",
    "magic_only": struct.pack(">I", 0x00000801),
    "magic_0802": struct.pack(">II", 0x00000802, 1) + b"\x00",
    "magic_0804": struct.pack(">IIII", 0x00000804, 1, 1, 1) + b"\x00",
    "magic_byteswapped": struct.pack("<II", 0x00000801, 1) + b"\x00",
    "magic_text": b"GIF89a~~" + bytes(8),
    "labels_payload_short": struct.pack(">II", 0x00000801, 5) + bytes(4),
    "labels_payload_long": struct.pack(">II", 0x00000801, 5) + bytes(6),
    "labels_value_10": idx_labels([0, 10, 3]),
    "labels_value_255": idx_labels([255]),
    "labels_zero_count": struct.pack(">II", 0x00000801, 0),
    "images_header_truncated": struct.pack(">III", 0x00000803, 2, 28),
    "images_payload_short": struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes(3),
    "images_payload_long": struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes(5),
    "images_zero_rows": struct.pack(">IIII", 0x00000803, 0, 28, 28),
    "images_zero_extent": struct.pack(">IIII", 0x00000803, 1, 0, 28),
    "images_huge_count": struct.pack(">IIII", 0x00000803, 2**31, 28, 28) + bytes(10),
    "labels_magic_for_images": struct.pack(">IIII", 0x00000801, 1, 2, 2) + bytes(4),
    "gzip_fed_raw": gzip.compress(idx_labels([1, 2, 3])),
}


def test_twenty_crafted_corruptions_rejected():
    assert len(CORRUPTIONS) == 20
    for name, blob in CORRUPTIONS.items():
        with pytest.raises(IdxError):
            decode_labels(parse_idx(blob))


def test_corruption_errors_carry_byte_offsets():
    with pytest.raises(IdxError, match="byte offset 0"):
        parse_idx(struct.pack(">II", 0x00000802, 1) + b"\x00")
    with pytest.raises(IdxError, match="byte offset 8"):
        parse_idx(struct.pack(">II", 0x00000801, 5) + bytes(4))
    with pytest.raises(IdxError, match="byte offset 9"):
        decode_labels(parse_idx(idx_labels([0, 10, 3])))


def test_decode_kind_mismatch():
    with pytest.raises(IdxError, match="not a labels file"):
        decode_labels(parse_idx(idx_images(1, 2, 2)))
    with pytest.raises(IdxError, match="not an images file"):
        decode_images(parse_idx(idx_labels([1])))


def _write_synthetic_dataset(cache, n_train=8, n_test=4, seed=0):
    rng = np.random.default_rng(seed)
    cache.mkdir(parents=True, exist_ok=True)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        pixels = rng.integers(0, 256, size=n * 28 * 28).astype(np.uint8)
        (cache / f"{prefix}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x00000803, n, 28, 28) + pixels.tobytes()
        )
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        (cache / f"{prefix}-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 0x00000801, n) + labels.tobytes()
        )


def test_load_dataset_from_cache(tmp_path):
    _write_synthetic_dataset(tmp_path, n_train=6, n_test=3)
    train = load_dataset("train", cache_dir=tmp_path)
    test = load_dataset("test", cache_dir=tmp_path)
    assert train.images.shape == (6, 1, 28, 28)
    assert test.images.shape == (3, 1, 28, 28)
    assert len(train) == 6
    assert train.labels.dtype == np.int64
    with pytest.raises(ValueError, match="split"):
        load_dataset("dev", cache_dir=tmp_path)
    with pytest.raises(FileNotFoundError, match="fetch-data"):
        load_dataset("train", cache_dir=tmp_path / "nowhere")
    # Files that parse but do not make a dataset are malformed data too.
    images = tmp_path / "train-images-idx3-ubyte"
    blob = images.read_bytes()
    images.write_bytes(blob[:8] + struct.pack(">II", 56, 14) + blob[16:])
    with pytest.raises(IdxError, match=r"expected 28x28 images, got \(56, 14\)"):
        load_dataset("train", cache_dir=tmp_path)
    images.write_bytes(blob[:4] + struct.pack(">I", 5) + blob[8:-28 * 28])
    with pytest.raises(IdxError, match="image count 5 != label count 6"):
        load_dataset("train", cache_dir=tmp_path)


def test_fetch_uses_cache_without_network(tmp_path, monkeypatch):
    _write_synthetic_dataset(tmp_path)

    def no_network(url, timeout):
        raise AssertionError("network touched despite full cache")

    monkeypatch.setattr(data, "_download", no_network)
    out = fetch(cache_dir=tmp_path)
    assert set(out) == set(data.FILE_NAMES)
    # first pass pinned digests; tampering is now caught
    target = tmp_path / "train-labels-idx1-ubyte"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0x01
    target.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="drifted"):
        fetch(cache_dir=tmp_path)


def test_fetch_downloads_gunzips_and_pins(tmp_path, monkeypatch):
    src = tmp_path / "src"
    _write_synthetic_dataset(src)
    served = {
        data.DEFAULT_URLS[name]: gzip.compress((src / name).read_bytes())
        for name in data.FILE_NAMES
    }
    monkeypatch.setattr(data, "_download", lambda url, timeout: served[url])
    cache = tmp_path / "cache"
    out = fetch(cache_dir=cache)
    for name in data.FILE_NAMES:
        assert out[name].read_bytes() == (src / name).read_bytes()
    lock = cache / "digests.lock"
    assert lock.exists()
    # idempotent second call, no network
    monkeypatch.setattr(
        data, "_download",
        lambda url, timeout: (_ for _ in ()).throw(AssertionError("network")),
    )
    fetch(cache_dir=cache)


def test_fetch_rejects_truncated_gzip(tmp_path, monkeypatch):
    src = tmp_path / "src"
    _write_synthetic_dataset(src)
    good = gzip.compress((src / data.FILE_NAMES[0]).read_bytes())
    monkeypatch.setattr(data, "_download", lambda url, timeout: good[: len(good) // 2])
    with pytest.raises(ValueError, match="gzip"):
        fetch(cache_dir=tmp_path / "cache")


def test_fetch_offline_names_expected_paths(tmp_path, monkeypatch):
    def offline(url, timeout):
        raise urllib.error.URLError("no route to host")

    monkeypatch.setattr(data, "_download", offline)
    cache = tmp_path / "cache"
    with pytest.raises(FileNotFoundError) as exc:
        fetch(cache_dir=cache)
    msg = str(exc.value)
    assert str(cache / "train-images-idx3-ubyte") in msg
    assert "RXGB_DATA_DIR" in msg
    assert "fetch-data" in msg


def test_fetch_lock_marker_blocks_concurrent_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_download", lambda url, timeout: b"")
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / (data.FILE_NAMES[0] + ".lock")).touch()
    with pytest.raises(RuntimeError, match="another fetch"):
        fetch(cache_dir=cache)


def _toy_dataset(n=10):
    rng = np.random.default_rng(1)
    return Dataset(
        images=rng.normal(size=(n, 1, 4, 4)),
        labels=rng.integers(0, 10, size=n),
        split="train",
    )


def test_batches_identity_order_without_shuffle():
    ds = _toy_dataset(10)
    got = list(batches(ds, 4, shuffle=False))
    assert [len(b[1]) for b in got] == [4, 4, 2]
    assert np.array_equal(np.concatenate([b[1] for b in got]), ds.labels)
    assert np.array_equal(got[0][0], ds.images[:4])


def test_batches_seeded_permutation_replayable():
    ds = _toy_dataset(23)
    a = [b[1] for b in batches(ds, 5, seed=7, epoch=3)]
    b = [b[1] for b in batches(ds, 5, seed=7, epoch=3)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = np.concatenate([b[1] for b in batches(ds, 5, seed=7, epoch=4)])
    assert not np.array_equal(np.concatenate(a), c)
    # every index visited exactly once per epoch
    seen = np.concatenate([b[0].reshape(len(b[1]), -1) for b in batches(ds, 5, seed=7)])
    assert seen.shape[0] == 23
    assert np.array_equal(
        np.sort(seen[:, 0]), np.sort(ds.images.reshape(23, -1)[:, 0])
    )
    with pytest.raises(ValueError, match="batch_size"):
        list(batches(ds, 0))


def test_subset_and_split():
    ds = _toy_dataset(10)
    sub = subset(ds, 4, offset=2)
    assert np.array_equal(sub.labels, ds.labels[2:6])
    with pytest.raises(ValueError, match="out of range"):
        subset(ds, 20)
    train, val = split_train_val(ds, 3)
    assert len(train) == 7 and len(val) == 3
    assert val.split == "val"
    assert np.array_equal(val.images, ds.images[7:])
    with pytest.raises(ValueError, match="val_count"):
        split_train_val(ds, 10)


def test_augment_batch_shapes_and_values(tmp_path):
    rng = np.random.default_rng(5)
    imgs = np.linspace(-1, 1, 2 * 1 * 6 * 6).reshape(2, 1, 6, 6)
    out = data.augment_batch(imgs, rng)
    assert out.shape == imgs.shape
    assert out.min() >= -1.0 and out.max() <= 1.0
    # deterministic under a fixed generator state
    out2 = data.augment_batch(imgs, np.random.default_rng(5))
    assert np.array_equal(out, out2)


def test_atomic_open_keeps_previous_file_when_the_writer_raises(tmp_path):
    path = tmp_path / "gbdt-model.txt"
    path.write_text("previous model\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="serializer failed"):
        with atomic_open(path, "w", encoding="utf-8") as f:
            f.write("half of the new mod")
            raise RuntimeError("serializer failed")
    assert path.read_text(encoding="utf-8") == "previous model\n"
    assert os.listdir(tmp_path) == ["gbdt-model.txt"]
    with atomic_open(path) as f:
        f.write(b"new model\n")
    assert path.read_bytes() == b"new model\n"
    assert os.listdir(tmp_path) == ["gbdt-model.txt"]


def test_feature_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(3, 5)).astype(np.float32)
    labels = np.array([0, 7, 9])
    path = tmp_path / "f.rxgbfeat"
    save_features(path, feats, labels)
    assert path.stat().st_size == 28 + 3 * 5 * 4 + 3
    back_f, back_l = load_features(path)
    assert np.array_equal(back_f, feats)
    assert back_f.dtype == np.float32
    assert np.array_equal(back_l, labels)
    # byte-identical re-serialization
    save_features(tmp_path / "g.rxgbfeat", back_f, back_l)
    assert (tmp_path / "g.rxgbfeat").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("label", [12, 10, -1, 1.7, 0.5, np.nan, np.inf])
def test_save_features_refuses_labels_load_features_would_refuse(tmp_path, label):
    """A label outside [0, 10) or not a whole number raises before any file
    is made: 12 used to be written and then refused on load, and 1.7 stored
    as class 1."""
    labels = np.array([3, label, 4])
    with pytest.raises(ValueError, match=r"whole numbers in \[0, 10\)"):
        save_features(tmp_path / "f.rxgbfeat", np.ones((3, 2), np.float32), labels)
    assert os.listdir(tmp_path) == []


def test_save_features_keeps_whole_float_labels(tmp_path):
    path = tmp_path / "f.rxgbfeat"
    save_features(path, np.ones((3, 2), np.float32), np.array([0.0, 9.0, 2.0]))
    assert np.array_equal(load_features(path)[1], [0, 9, 2])


def test_feature_roundtrip_zero_rows(tmp_path):
    path = tmp_path / "empty.rxgbfeat"
    save_features(path, np.zeros((0, 8), dtype=np.float32), np.zeros(0, dtype=int))
    feats, labels = load_features(path)
    assert feats.shape == (0, 8)
    assert labels.shape == (0,)


def test_feature_file_rejections(tmp_path):
    path = tmp_path / "f.rxgbfeat"
    save_features(path, np.ones((2, 3), dtype=np.float32), np.array([1, 2]))
    blob = path.read_bytes()
    bad_magic = b"NOTAFEAT" + blob[8:]
    (tmp_path / "bad").write_bytes(bad_magic)
    with pytest.raises(ValueError, match="magic"):
        load_features(tmp_path / "bad")
    (tmp_path / "trunc").write_bytes(blob[:-1])
    with pytest.raises(ValueError, match="byte length"):
        load_features(tmp_path / "trunc")
    (tmp_path / "tiny").write_bytes(blob[:10])
    with pytest.raises(ValueError, match="truncated"):
        load_features(tmp_path / "tiny")
    bad_version = blob[:8] + struct.pack("<I", 9) + blob[12:]
    (tmp_path / "ver").write_bytes(bad_version)
    with pytest.raises(ValueError, match="version"):
        load_features(tmp_path / "ver")
    with pytest.raises(ValueError, match="finite"):
        save_features(path, np.array([[np.nan]], dtype=np.float32), np.array([0]))
    with pytest.raises(ValueError, match="label count"):
        save_features(path, np.ones((2, 3), dtype=np.float32), np.array([1]))
    with pytest.raises(ValueError, match="u8"):
        save_features(path, np.ones((1, 3), dtype=np.float32), np.array([300]))
