"""Dataset ingestion (IDX files, the MNIST layout), synthetic data, client
partitioning, and the clients' batches (label poisoning, batch cursors).

The IDX layout is the published big-endian format: a 4-byte magic whose
third byte gives the element type (0x08 = unsigned byte) and fourth the
number of dimensions, followed by one big-endian uint32 per dimension and
the raw payload. Files ending in ``.gz`` are decompressed transparently.
MNIST is the four standard IDX files in one directory. Nothing here touches
the network; see scripts/fetch_mnist.py for the download tooling.
"""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversary import flip_labels
from .seedstream import RngStream, SeedTuple, StreamKind, derive_seed

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

# doubles in the (rows, C * k) step block of one client group: the engine
# evaluates as many clients at once as fit, and at least one (six 64-row
# clients at C * k = 640). A client's rows of the group's X Z product are
# the rows of its own product, so the budget changes speed and memory,
# never the run, wherever the BLAS computes a row of a product apart from
# the rows beside it. OpenBLAS 0.3.31 does, except that its small-matrix
# path (rows * C * k * p <= 10**6) rounds differently from its blocked one:
# at p = 784 and C * k = 10 a row moves in its last bits with the group
GROUP_VALUES = 1 << 18

MNIST_DIR_ENV = "CYBER0_MNIST_DIR"
# the shape load_mnist requires of both splits: 28 x 28 images, labels 0..9
MNIST_FEATURES = 28 * 28
MNIST_CLASSES = 10
# (images, labels) IDX file names of each split, plain or with a .gz suffix
MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


class IdxFormatError(ValueError):
    pass


@dataclass
class Dataset:
    features: np.ndarray  # (n, p) float64 in [0, 1]
    labels: np.ndarray  # (n,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be (n, p) and labels (n,)")
        if len(self.features) != len(self.labels):
            raise ValueError(
                f"feature/label row counts differ: {len(self.features)} vs {len(self.labels)}"
            )
        # single reduction pass; features are [0, 1]-bounded so a finite sum
        # certifies finite entries without materializing a mask
        if not np.isfinite(float(self.features.sum())):
            raise ValueError("features contain non-finite values")

    def __len__(self) -> int:
        return len(self.features)


@dataclass
class Partition:
    """Disjoint shards of distinct row indices, one per client."""

    shards: list[np.ndarray]

    def __post_init__(self) -> None:
        rows = np.concatenate(self.shards)
        if len(np.unique(rows)) < len(rows):
            raise ValueError("shards are not disjoint")


def _read_maybe_gzip(path: str | Path) -> bytes:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"IDX file not found: {p}")
    raw = p.read_bytes()
    if p.suffix == ".gz":
        raw = gzip.decompress(raw)
    return raw


def _parse_idx(raw: bytes, expected_magic: int, what: str) -> tuple[tuple[int, ...], bytes]:
    if len(raw) < 4:
        raise IdxFormatError(f"{what}: file shorter than the magic number")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise IdxFormatError(f"{what}: bad magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxFormatError(f"{what}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    payload = raw[header_len:]
    expected = int(np.prod(dims))
    if len(payload) != expected:
        raise IdxFormatError(f"{what}: payload holds {len(payload)} bytes, expected {expected}")
    return dims, payload


def load_idx(path_images: str | Path, path_labels: str | Path) -> Dataset:
    """Load an image/label IDX pair; pixels are scaled by 1/255."""
    img_dims, img_payload = _parse_idx(_read_maybe_gzip(path_images), IMAGES_MAGIC, "images")
    lbl_dims, lbl_payload = _parse_idx(_read_maybe_gzip(path_labels), LABELS_MAGIC, "labels")
    n, rows, cols = img_dims
    if lbl_dims[0] != n:
        raise IdxFormatError(f"image count {n} does not match label count {lbl_dims[0]}")
    features = np.frombuffer(img_payload, dtype=np.uint8).astype(np.float64)
    features /= 255.0
    features = features.reshape(n, rows * cols)
    labels = np.frombuffer(lbl_payload, dtype=np.uint8).astype(np.int64)
    return Dataset(features=features, labels=labels, num_classes=int(labels.max()) + 1)


def _mnist_files(mnist_dir: str, split: str) -> list[Path]:
    root = Path(mnist_dir or os.environ.get(MNIST_DIR_ENV, "") or "data/mnist")
    return [root / name if (root / name).exists() else root / (name + ".gz")
            for name in MNIST_FILES[split]]


def mnist_available(mnist_dir: str) -> bool:
    return all(p.exists() for split in MNIST_FILES for p in _mnist_files(mnist_dir, split))


def load_mnist(mnist_dir: str) -> tuple[Dataset, Dataset]:
    """The (train, test) splits from ``mnist_dir``, else $CYBER0_MNIST_DIR,
    else data/mnist, both with MNIST's 10 classes whichever labels occur."""
    splits = []
    for split in ("train", "test"):
        ds = load_idx(*_mnist_files(mnist_dir, split))
        if ds.features.shape[1] != MNIST_FEATURES:
            raise IdxFormatError(f"{split} images hold {ds.features.shape[1]} pixels, not 28 x 28")
        if ds.num_classes > MNIST_CLASSES:
            raise IdxFormatError(f"{split} label {ds.num_classes - 1} outside 0..{MNIST_CLASSES - 1}")
        ds.num_classes = MNIST_CLASSES
        splits.append(ds)
    return splits[0], splits[1]


def synth_generate(seed: int, n: int, p: int, num_classes: int,
                   spread: float = 0.6, noise: float = 0.08, split: int = 0) -> Dataset:
    """Class-conditional Gaussians around seeded centroids, clipped to [0, 1].

    Labels cycle 0..C-1 so classes stay balanced; ``split`` selects an
    independent stream (0 = train, 1 = held-out test) for the same seed.
    """
    if n < 1 or p < 1 or num_classes < 1:
        raise ValueError("need n, p, num_classes >= 1")
    # centroids are split-independent; only the sample noise stream differs,
    # so train and held-out rows come from the same class-conditional law
    cstream = RngStream(derive_seed(SeedTuple(seed, 0, 0, 0, StreamKind.INIT)))
    centroids = cstream.uniforms(num_classes * p).reshape(num_classes, p)
    centroids *= spread
    centroids += (1.0 - spread) / 2.0
    labels = np.arange(n, dtype=np.int64) % num_classes
    stream = RngStream(derive_seed(SeedTuple(seed, 0, 1 + split, 0, StreamKind.INIT)))
    features = stream.gaussians(n * p).reshape(n, p)
    features *= noise
    for c in range(num_classes):  # no (n, p) gather: each row still gets one add
        features[c::num_classes] += centroids[c]
    np.clip(features, 0.0, 1.0, out=features)
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def partition_iid(dataset: Dataset, m: int, seed: int) -> Partition:
    """Seeded shuffle then round-robin; remainder rows go to the lowest ids."""
    n = len(dataset)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= clients <= {n}, got {m}")
    perm = RngStream(derive_seed(SeedTuple(seed, 1, 0, 0, StreamKind.INIT))).permutation(n)
    return Partition([np.sort(perm[i::m]) for i in range(m)])


def noniid_label_owners(num_classes: int, m: int) -> list[list[int]]:
    """owners[label] = clients holding that label: i owns ell iff i % C == ell % m."""
    return [[i for i in range(m) if i % num_classes == ell % m] for ell in range(num_classes)]


def partition_noniid(dataset: Dataset, m: int, seed: int) -> Partition:
    """Restricted label sets per client (round-robin label ownership).

    Rows of each label are split evenly among the clients owning it, so
    every client sees a strict subset of the labels whenever C >= 2.
    """
    if m < 1:
        raise ValueError("need at least one client")
    owners = noniid_label_owners(dataset.num_classes, m)
    pieces: list[list[np.ndarray]] = [[] for _ in range(m)]
    for ell in range(dataset.num_classes):
        rows = np.flatnonzero(dataset.labels == ell)
        if len(rows) == 0:
            continue
        stream = RngStream(derive_seed(SeedTuple(seed, 2, ell, 0, StreamKind.INIT)))
        shuffled = rows[stream.permutation(len(rows))]
        for slot, client in enumerate(owners[ell]):
            pieces[client].append(shuffled[slot :: len(owners[ell])])
    shards = [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in pieces
    ]
    return Partition(shards)


class BatchCursor:
    """Per-client batch sampling: a seeded without-replacement shuffle per pass.

    Batches are consecutive slices of the pass permutation; a tail shorter
    than the batch size is dropped and a fresh pass begins. Shards smaller
    than the batch size yield the whole permuted shard each time.
    """

    def __init__(self, shard: np.ndarray, batch_size: int, data_seed: int, client_id: int):
        if len(shard) == 0:
            raise ValueError(f"client {client_id} received an empty shard")
        self.shard = shard
        self.batch_size = min(batch_size, len(shard))
        self.data_seed = data_seed
        self.client_id = client_id
        self.pass_index = 0
        self.offset = 0
        self._perm = self._shuffle()

    def _shuffle(self) -> np.ndarray:
        t = SeedTuple(self.data_seed, self.pass_index, self.client_id, 0, StreamKind.DATA_SHUFFLE)
        return self.shard[RngStream(derive_seed(t)).permutation(len(self.shard))]

    def next_rows(self) -> np.ndarray:
        if self.offset + self.batch_size > len(self._perm):
            self.pass_index += 1
            self.offset = 0
            self._perm = self._shuffle()
        rows = self._perm[self.offset : self.offset + self.batch_size]
        self.offset += self.batch_size
        return rows


class ClientData:
    """Every client's training data: its shard of ``train``, with the labels
    of the ``flipped`` clients' shards flipped once, read one group of
    clients at a time: ``gather`` advances each reader's own cursor once and
    takes the whole group's rows with one fancy index, or, when
    ``whole_shard`` is set, gathers the group's whole shards on its first
    read and returns the same read-only arrays on every later one."""

    def __init__(self, train: Dataset, shards: list[np.ndarray], batch_size: int, seed: int,
                 whole_shard: bool, flipped):
        self.features = train.features
        self.labels = train.labels.copy()
        for i in flipped:
            self.labels[shards[i]] = flip_labels(train.labels[shards[i]], train.num_classes)
        self.shards = shards
        self.cursors = None if whole_shard else [BatchCursor(shard, batch_size, seed, i)
                                                 for i, shard in enumerate(shards)]
        self._whole: dict[tuple[int, ...], tuple] = {}

    def rows_per_read(self, i: int) -> int:
        """Rows one read of client ``i`` returns: its batch, or its whole shard."""
        return len(self.shards[i]) if self.cursors is None else self.cursors[i].batch_size

    def groups(self, readers, width: int) -> list[slice]:
        """``readers`` cut, in order, into runs whose stacked (rows, width)
        block fits ``GROUP_VALUES`` doubles, as slices of ``readers``; a
        reader whose own block does not fit is a run of one."""
        out, start, used = [], 0, 0
        for j, i in enumerate(readers):
            size = self.rows_per_read(i) * width
            if j > start and used + size > GROUP_VALUES:
                out.append(slice(start, j))
                start, used = j, 0
            used += size
        out.append(slice(start, len(readers)))
        return out

    def gather(self, readers) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, list]:
        """One step's batches of ``readers``, stacked in reader order, each
        reader's row count, and each reader's (X, y) view of the stack. Only
        the readers' cursors advance; each cursor is its own stream, so a
        client's batches do not depend on which other clients read, nor on
        how the readers are grouped."""
        counts = np.array([self.rows_per_read(i) for i in readers])
        if self.cursors is not None:
            rows = np.concatenate([self.cursors[i].next_rows() for i in readers])
            batch = self.features[rows], self.labels[rows]
            return batch, counts, _split(batch, counts)
        key = tuple(int(i) for i in readers)
        if key not in self._whole:
            rows = np.concatenate([self.shards[i] for i in readers])
            batch = self.features[rows], self.labels[rows]
            for a in batch:
                a.setflags(write=False)
            self._whole[key] = batch, counts, _split(batch, counts)
        return self._whole[key]


def _split(batch: tuple[np.ndarray, np.ndarray], counts) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each reader's (X, y) of a gathered ``batch``: views, in reader order."""
    ends = np.cumsum(counts)[:-1]
    return list(zip(np.split(batch[0], ends), np.split(batch[1], ends)))
