"""FashionMNIST acquisition, IDX parsing, batching, and feature persistence.

IDX containers are big-endian: u32 magic (0x00000803 for images with dims
N,H,W; 0x00000801 for labels with dim N), u32 per dimension, then the u8
payload. Pixels map into [-1, 1] by x/127.5 - 1 (symmetric around the sign
threshold used downstream); labels must lie in [0, 10).

fetch() downloads the four canonical gzip files over HTTPS into a cache
directory (default ~/.cache/rxgb/fashion-mnist, overridable via the
RXGB_DATA_DIR environment variable), decompresses, and verifies SHA-256
digests of the decompressed payloads. Known digests live in EXPECTED_SHA256;
entries left as None fall back to a trust-on-first-use lockfile
(digests.lock) that pins whatever the first successful fetch saw and rejects
any later drift. Writes are serialized per target file with an exclusive
.lock marker and finished atomically, so concurrent fetches are safe.

Feature matrices persist in a binary container: 8-byte magic "RXGBFEAT",
u32 version, u64 rows, u64 cols (header ints little-endian), row-major
float32 little-endian values, then one u8 label per row.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import struct
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

FILE_NAMES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)

DEFAULT_URLS = {
    name: "https://github.com/zalandoresearch/fashion-mnist/raw/master/data/"
    f"fashion/{name}.gz"
    for name in FILE_NAMES
}

# SHA-256 of the decompressed payloads. None = not pinned at build time;
# the digests.lock trust-on-first-use file takes over (see module docstring).
EXPECTED_SHA256: dict[str, str | None] = {name: None for name in FILE_NAMES}

FEATURES_MAGIC = b"RXGBFEAT"
FEATURES_VERSION = 1
_FEATURES_HEADER = struct.Struct("<8sIQQ")


class IdxError(ValueError):
    """Malformed IDX bytes; message includes the offending byte offset."""


@dataclass(frozen=True)
class IdxFile:
    """Validated IDX container: header magic, dims, and raw u8 payload."""

    magic: int
    dims: tuple[int, ...]
    payload: bytes


@dataclass
class Dataset:
    """Normalized images [N,1,H,W], integer labels [N], and a split tag."""

    images: np.ndarray
    labels: np.ndarray
    split: str

    def __len__(self) -> int:
        return self.images.shape[0]


def default_cache_dir() -> Path:
    override = os.environ.get("RXGB_DATA_DIR")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/rxgb/fashion-mnist").expanduser()


# --- IDX parsing ---------------------------------------------------------------

def parse_idx(data: bytes) -> IdxFile:
    """Decode and validate an IDX container (header + payload length)."""
    if len(data) < 4:
        raise IdxError(
            f"truncated header: {len(data)} bytes, need at least 4 (byte offset 0)"
        )
    magic = int.from_bytes(data[0:4], "big")
    if magic == IMAGES_MAGIC:
        ndim = 3
    elif magic == LABELS_MAGIC:
        ndim = 1
    else:
        raise IdxError(f"bad magic 0x{magic:08x} at byte offset 0")
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise IdxError(
            f"truncated header: {len(data)} bytes, need {header_len} "
            f"(byte offset {len(data)})"
        )
    dims = tuple(
        int.from_bytes(data[4 + 4 * i: 8 + 4 * i], "big") for i in range(ndim)
    )
    if any(d == 0 for d in dims):
        off = 4 + 4 * dims.index(0)
        raise IdxError(f"zero dimension {dims} at byte offset {off}")
    expected = 1
    for d in dims:
        expected *= d
    payload = data[header_len:]
    if len(payload) != expected:
        raise IdxError(
            f"payload length {len(payload)} != declared {expected} for dims "
            f"{dims} (byte offset {header_len})"
        )
    return IdxFile(magic=magic, dims=dims, payload=payload)


def normalize(pixels: np.ndarray) -> np.ndarray:
    """u8 pixels -> float64 in [-1, 1]: x/127.5 - 1 (0 -> -1, 255 -> +1)."""
    return np.asarray(pixels, dtype=np.float64) / 127.5 - 1.0


def denormalize(values: np.ndarray) -> np.ndarray:
    """Inverse of normalize, rounded back to u8."""
    back = np.rint((np.asarray(values, dtype=np.float64) + 1.0) * 127.5)
    return np.clip(back, 0, 255).astype(np.uint8)


def decode_images(idx: IdxFile) -> np.ndarray:
    """IDX images -> normalized [N, 1, H, W] float64."""
    if idx.magic != IMAGES_MAGIC:
        raise IdxError(f"not an images file: magic 0x{idx.magic:08x}")
    n, h, w = idx.dims
    raw = np.frombuffer(idx.payload, dtype=np.uint8).reshape(n, 1, h, w)
    return normalize(raw)


def decode_labels(idx: IdxFile) -> np.ndarray:
    """IDX labels -> int64 [N]; rejects values outside [0, 10)."""
    if idx.magic != LABELS_MAGIC:
        raise IdxError(f"not a labels file: magic 0x{idx.magic:08x}")
    raw = np.frombuffer(idx.payload, dtype=np.uint8)
    bad = np.nonzero(raw > 9)[0]
    if bad.size:
        i = int(bad[0])
        raise IdxError(
            f"label {int(raw[i])} out of range [0, 10) at byte offset {8 + i}"
        )
    return raw.astype(np.int64)


# --- fetch ---------------------------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lockfile(cache_dir: Path) -> Path:
    return cache_dir / "digests.lock"


def _read_lock(cache_dir: Path) -> dict:
    path = _lockfile(cache_dir)
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _write_lock(cache_dir: Path, digests: dict) -> None:
    _lockfile(cache_dir).write_text(json.dumps(digests, indent=2, sort_keys=True))


def _verify(name: str, data: bytes, cache_dir: Path) -> None:
    """Check data against the pinned digest; pin it on first sight."""
    digest = _sha256(data)
    expected = EXPECTED_SHA256.get(name)
    if expected is not None:
        if digest != expected:
            raise ValueError(
                f"{name}: SHA-256 mismatch: got {digest}, expected {expected}"
            )
        return
    lock = _read_lock(cache_dir)
    pinned = lock.get(name)
    if pinned is None:
        lock[name] = digest
        _write_lock(cache_dir, lock)
    elif digest != pinned:
        raise ValueError(
            f"{name}: SHA-256 drifted from first-fetch pin: got {digest}, "
            f"pinned {pinned} (see {_lockfile(cache_dir)})"
        )


def _download(url: str, timeout: float) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def fetch(
    urls: dict[str, str] | None = None,
    cache_dir: Path | str | None = None,
    timeout: float = 60.0,
) -> dict[str, Path]:
    """Ensure the four IDX files exist locally; returns name -> path.

    Cached files with matching digests short-circuit without touching the
    network. Downloads are gunzipped, digest-checked, and moved into place
    atomically under an exclusive .lock marker.
    """
    urls = dict(DEFAULT_URLS if urls is None else urls)
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    out: dict[str, Path] = {}
    missing: list[str] = []
    for name in FILE_NAMES:
        target = cache / name
        if target.exists():
            _verify(name, target.read_bytes(), cache)
            out[name] = target
            continue
        marker = cache / (name + ".lock")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"another fetch is writing {target} (remove {marker} if stale)"
            ) from None
        os.close(fd)
        try:
            try:
                compressed = _download(urls[name], timeout)
            except (urllib.error.URLError, OSError) as e:
                missing.append(str(target))
                continue
            try:
                data = gzip.decompress(compressed)
            except (OSError, EOFError) as e:
                raise ValueError(f"{name}: bad gzip stream: {e}") from e
            parse_idx(data)  # reject malformed files before caching them
            _verify(name, data, cache)
            tmp = cache / (name + ".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, target)
            out[name] = target
        finally:
            marker.unlink(missing_ok=True)
    if missing:
        raise FileNotFoundError(
            "dataset files unavailable and download failed; expected files:\n  "
            + "\n  ".join(missing)
            + "\nplace the uncompressed IDX files there, or set RXGB_DATA_DIR "
            "to a directory that has them, or retry `rxgb fetch-data` with "
            "network access"
        )
    return out


# --- dataset assembly ----------------------------------------------------------

def load_dataset(split: str, cache_dir: Path | str | None = None) -> Dataset:
    """Load one split ("train" or "test") from cached IDX files."""
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    prefix = "train" if split == "train" else "t10k"
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    img_path = cache / f"{prefix}-images-idx3-ubyte"
    lbl_path = cache / f"{prefix}-labels-idx1-ubyte"
    for p in (img_path, lbl_path):
        if not p.exists():
            raise FileNotFoundError(
                f"missing {p}; run `rxgb fetch-data` or set RXGB_DATA_DIR"
            )
    images = decode_images(parse_idx(img_path.read_bytes()))
    labels = decode_labels(parse_idx(lbl_path.read_bytes()))
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}"
        )
    if images.shape[2:] != (28, 28):
        raise ValueError(f"expected 28x28 images, got {images.shape[2:]}")
    return Dataset(images=images, labels=labels, split=split)


def subset(ds: Dataset, n: int, offset: int = 0) -> Dataset:
    """First n samples (after offset), same split tag."""
    if not 0 <= offset <= offset + n <= len(ds):
        raise ValueError(f"subset [{offset}, {offset + n}) out of range for {len(ds)}")
    return Dataset(
        images=ds.images[offset:offset + n],
        labels=ds.labels[offset:offset + n],
        split=ds.split,
    )


def split_train_val(ds: Dataset, val_count: int) -> tuple[Dataset, Dataset]:
    """Hold out the last val_count samples for validation."""
    if not 0 < val_count < len(ds):
        raise ValueError(
            f"val_count {val_count} must be in (0, {len(ds)})"
        )
    n = len(ds) - val_count
    train = Dataset(images=ds.images[:n], labels=ds.labels[:n], split=ds.split)
    val = Dataset(images=ds.images[n:], labels=ds.labels[n:], split="val")
    return train, val


def batches(
    ds: Dataset,
    batch_size: int,
    seed: int = 0,
    shuffle: bool = True,
    epoch: int = 0,
):
    """Yield (images, labels) batches; replayable from (seed, epoch).

    Shuffling draws a fresh Fisher-Yates permutation from the (seed, epoch)
    pair each epoch; the final short batch is kept.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(ds)
    if shuffle:
        order = np.random.default_rng((seed, epoch)).permutation(n)
    else:
        order = np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        yield ds.images[idx], ds.labels[idx]


def augment_batch(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pad-4 random crop plus random horizontal flip, per image.

    Padding uses -1 (the normalized background value), so augmented images
    stay in [-1, 1].
    """
    n, c, h, w = images.shape
    padded = np.full((n, c, h + 8, w + 8), -1.0, dtype=images.dtype)
    padded[:, :, 4:4 + h, 4:4 + w] = images
    out = np.empty_like(images)
    offs = rng.integers(0, 9, size=(n, 2))
    flips = rng.random(n) < 0.5
    for i in range(n):
        dy, dx = offs[i]
        crop = padded[i, :, dy:dy + h, dx:dx + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


# --- feature persistence ---------------------------------------------------------

def save_features(path: Path | str, features: np.ndarray, labels: np.ndarray) -> None:
    """Write a feature matrix + labels to the RXGBFEAT binary container."""
    features = np.ascontiguousarray(features, dtype=np.float32)
    labels = np.asarray(labels)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {features.shape}")
    if labels.shape != (features.shape[0],):
        raise ValueError(
            f"label count {labels.shape} != feature rows {features.shape[0]}"
        )
    if features.size and not np.isfinite(features).all():
        raise ValueError("features must be finite")
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise ValueError("labels must fit in u8")
    rows, cols = features.shape
    header = _FEATURES_HEADER.pack(FEATURES_MAGIC, FEATURES_VERSION, rows, cols)
    body = features.astype("<f4", copy=False).tobytes() + labels.astype(
        np.uint8
    ).tobytes()
    Path(path).write_bytes(header + body)


def load_features(path: Path | str) -> tuple[np.ndarray, np.ndarray]:
    """Read an RXGBFEAT file back to (float32 [rows, cols], int64 labels).

    The feature block is read straight into its array, with no copy of the
    whole file in between.
    """
    with open(path, "rb") as f:
        head = f.read(_FEATURES_HEADER.size)
        if len(head) < _FEATURES_HEADER.size:
            raise ValueError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, rows, cols = _FEATURES_HEADER.unpack(head)
        if magic != FEATURES_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != FEATURES_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        size = os.fstat(f.fileno()).st_size
        expected = _FEATURES_HEADER.size + rows * cols * 4 + rows
        if size != expected:
            raise ValueError(
                f"{path}: byte length {size} != expected {expected} for "
                f"{rows}x{cols}"
            )
        feats = np.fromfile(f, dtype="<f4", count=rows * cols)
        labels = np.fromfile(f, dtype=np.uint8, count=rows)
    if feats.size != rows * cols or labels.size != rows:
        raise ValueError(f"{path}: file shrank while being read")
    feats = feats.reshape(rows, cols)
    labels = labels.astype(np.int64)
    if feats.size and not np.isfinite(feats).all():
        raise ValueError(f"{path}: non-finite feature values")
    return feats, labels
