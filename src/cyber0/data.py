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
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversary import flip_labels
from .seedstream import RngStream, StreamKind, derive_seed
from .zo import all_finite

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

# doubles in the (rows, C * k) step block of one client group, counted in
# real rows: the engine evaluates as many clients at once as fit, and at least
# one (six 64-row clients at C * k = 640). The group's X Z product lays each
# client's rows out in whole tiles of losses._TILE rows, and then a client's
# rows of it are the rows of its own product on every OpenBLAS dgemm kernel
# tested, so the budget changes speed and memory, not the run. Accuracy takes
# the test split's rows in groups of this many features (334 rows at p = 784)
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
        if not all_finite(self.features):
            raise ValueError("features contain non-finite values")

    def __len__(self) -> int:
        return len(self.features)


def _read_idx(path: str | Path, expected_magic: int) -> tuple[tuple[int, ...], bytes]:
    """The dimensions and payload of the IDX file at ``path``; every error
    names the file, so the train and the test split read apart."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"IDX file not found: {p}")
    try:
        raw = p.read_bytes()
        raw = gzip.decompress(raw) if p.suffix == ".gz" else raw
    except (OSError, EOFError, zlib.error) as exc:  # a directory, not gzip, cut short
        raise IdxFormatError(f"cannot read IDX file {p}: "
                             f"{getattr(exc, 'strerror', None) or exc}") from exc
    if len(raw) < 4:
        raise IdxFormatError(f"IDX file {p}: shorter than the magic number")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise IdxFormatError(
            f"IDX file {p}: bad magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxFormatError(f"IDX file {p}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    payload = raw[header_len:]
    expected = int(np.prod(dims))
    if len(payload) != expected:
        raise IdxFormatError(f"IDX file {p}: payload holds {len(payload)} bytes, "
                             f"expected {expected}")
    return dims, payload


def load_idx(path_images: str | Path, path_labels: str | Path) -> Dataset:
    """Load an image/label IDX pair; pixels are scaled by 1/255."""
    (n, rows, cols), img_payload = _read_idx(path_images, IMAGES_MAGIC)
    (n_labels,), lbl_payload = _read_idx(path_labels, LABELS_MAGIC)
    if n == 0:
        raise IdxFormatError(f"images file {path_images} holds no images")
    if n_labels != n:
        raise IdxFormatError(f"image count {n} in {path_images} does not match "
                             f"label count {n_labels} in {path_labels}")
    features = np.frombuffer(img_payload, dtype=np.uint8).astype(np.float64)
    features /= 255.0
    features = features.reshape(n, rows * cols)
    labels = np.frombuffer(lbl_payload, dtype=np.uint8).astype(np.int64)
    return Dataset(features=features, labels=labels, num_classes=int(labels.max()) + 1)


def _mnist_files(mnist_dir: str, split: str) -> list[Path]:
    root = Path(mnist_dir or os.environ.get(MNIST_DIR_ENV, "") or "data/mnist")
    return [root / name if (root / name).exists() else root / (name + ".gz")
            for name in MNIST_FILES[split]]


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


def synth_generate(seed: int, n: int, p: int, num_classes: int, split: int = 0) -> Dataset:
    """Class-conditional Gaussians (standard deviation 0.08) around seeded
    centroids uniform in [0.2, 0.8]^p, clipped to [0, 1].

    Labels cycle 0..C-1 so classes stay balanced; ``split`` selects an
    independent stream (0 = train, 1 = held-out test) for the same seed.
    The features are ``gaussians(n * p)`` of that stream, times 0.08, plus
    the row's centroid, clipped: each block of rows is scaled, shifted and
    clipped as soon as its Gaussians are in place, while it is still in
    cache, which gives every value the same three operations in the same
    order as three passes over the whole matrix would.
    """
    if n < 1 or p < 1 or num_classes < 1:
        raise ValueError("need n, p, num_classes >= 1")
    # centroids are split-independent; only the sample noise stream differs,
    # so train and held-out rows come from the same class-conditional law
    cstream = RngStream(derive_seed(seed, 0, 0, 0, StreamKind.INIT))
    centroids = cstream.uniforms(num_classes * p).reshape(num_classes, p)
    centroids *= 0.6
    centroids += 0.2
    labels = np.arange(n, dtype=np.int64) % num_classes
    features = np.empty((n, p))
    done = 0  # rows scaled, shifted and clipped
    tile = centroids[:0]  # tile[j] = centroids[j % C], as long as a block needs

    def finish(placed: int) -> None:
        nonlocal done, tile
        rows = features[done : placed // p]
        first = done % num_classes
        if first + len(rows) > len(tile):
            tile = centroids[labels[: num_classes + len(rows)]]
        rows *= 0.08
        rows += tile[first : first + len(rows)]
        np.clip(rows, 0.0, 1.0, out=rows)
        done += len(rows)

    stream = RngStream(derive_seed(seed, 0, 1 + split, 0, StreamKind.INIT))
    stream.gaussians(n * p, out=features.reshape(-1), placed=finish)
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def partition_iid(dataset: Dataset, m: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle then round-robin; remainder rows go to the lowest ids."""
    n = len(dataset)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= clients <= {n}, got {m}")
    perm = RngStream(derive_seed(seed, 1, 0, 0, StreamKind.INIT)).permutation(n)
    return [np.sort(perm[i::m]) for i in range(m)]


def noniid_label_owners(num_classes: int, m: int) -> list[list[int]]:
    """owners[label] = clients holding that label: i owns ell iff i % C == ell % m."""
    return [[i for i in range(m) if i % num_classes == ell % m] for ell in range(num_classes)]


def partition_noniid(dataset: Dataset, m: int, seed: int) -> list[np.ndarray]:
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
        stream = RngStream(derive_seed(seed, 2, ell, 0, StreamKind.INIT))
        shuffled = rows[stream.permutation(len(rows))]
        for slot, client in enumerate(owners[ell]):
            pieces[client].append(shuffled[slot :: len(owners[ell])])
    return [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in pieces
    ]


class BatchCursor:
    """Per-client batch sampling: a seeded without-replacement shuffle per pass.

    Batches are consecutive slices of the pass permutation; a tail shorter
    than the batch size is dropped and a fresh pass begins. A shard no
    larger than the batch size is read whole, in shard order, every time.
    ``ClientData`` rejects an empty shard.
    """

    def __init__(self, shard: np.ndarray, batch_size: int, data_seed: int, client_id: int):
        self.shard = shard
        self.batch_size = min(batch_size, len(shard))
        self.data_seed = data_seed
        self.client_id = client_id
        self.pass_index = 0
        self.offset = 0
        self._perm = self._shuffle()

    def _shuffle(self) -> np.ndarray:
        if self.batch_size == len(self.shard):
            return self.shard
        seed = derive_seed(self.data_seed, self.pass_index, self.client_id, 0,
                           StreamKind.DATA_SHUFFLE)
        return self.shard[RngStream(seed).permutation(len(self.shard))]

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
    takes the whole group's rows with one fancy index. A client whose shard
    holds no more rows than the batch reads that shard, in shard order, on
    every read."""

    def __init__(self, train: Dataset, shards: list[np.ndarray], batch_size: int, seed: int,
                 flipped):
        for i, shard in enumerate(shards):
            if len(shard) == 0:
                raise ValueError(f"client {i} received an empty shard")
        self.features = train.features
        self.labels = train.labels.copy()
        for i in flipped:
            self.labels[shards[i]] = flip_labels(train.labels[shards[i]], train.num_classes)
        self.cursors = [BatchCursor(shard, batch_size, seed, i) for i, shard in enumerate(shards)]

    def groups(self, readers, width: int) -> list[slice]:
        """``readers`` cut, in order, into runs whose stacked (rows, width)
        block fits ``GROUP_VALUES`` doubles, as slices of ``readers``; a
        reader whose own block does not fit is a run of one."""
        out, start, used = [], 0, 0
        for j, i in enumerate(readers):
            size = self.cursors[i].batch_size * width
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
        counts = np.array([self.cursors[i].batch_size for i in readers])
        rows = np.concatenate([self.cursors[i].next_rows() for i in readers])
        batch = self.features[rows], self.labels[rows]
        return batch, counts, _split(batch, counts)


def _split(batch: tuple[np.ndarray, np.ndarray], counts) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each reader's (X, y) of a gathered ``batch``: views, in reader order."""
    ends = np.cumsum(counts)[:-1]
    return list(zip(np.split(batch[0], ends), np.split(batch[1], ends)))
