import ctypes
import gzip
import hashlib
import re
import struct
import warnings

import numpy as np
import pytest

from cyber0 import data as data_module
from cyber0 import seedstream

from cyber0.data import (
    IMAGES_MAGIC,
    LABELS_MAGIC,
    BatchCursor,
    ClientData,
    Dataset,
    IdxFormatError,
    load_idx,
    noniid_label_owners,
    partition_iid,
    partition_noniid,
    synth_generate,
)
from cyber0.losses import LogisticRegressionModel
from cyber0.seedstream import RngStream, StreamKind, derive_seed


def write_idx(dataset, path_images, path_labels, rows, cols):
    """Write a dataset back to an IDX pair (inverse of load_idx's 1/255 scaling)."""
    n = len(dataset)
    assert rows * cols == dataset.features.shape[1]
    pixels = np.rint(dataset.features * 255.0).astype(np.uint8)
    img = struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols) + pixels.tobytes()
    lbl = struct.pack(">II", LABELS_MAGIC, n) + dataset.labels.astype(np.uint8).tobytes()
    path_images.write_bytes(img)
    path_labels.write_bytes(lbl)


def build_idx_pair(tmp_path, pixels, labels, gz=False):
    """Hand-built IDX files following the published layout."""
    n, rows, cols = pixels.shape
    img = struct.pack(">IIII", 0x00000803, n, rows, cols) + pixels.astype(np.uint8).tobytes()
    lbl = struct.pack(">II", 0x00000801, n) + np.asarray(labels, np.uint8).tobytes()
    suffix = ".gz" if gz else ""
    ip, lp = tmp_path / f"img{suffix}", tmp_path / f"lbl{suffix}"
    ip.write_bytes(gzip.compress(img) if gz else img)
    lp.write_bytes(gzip.compress(lbl) if gz else lbl)
    return ip, lp


class TestIdx:
    def test_two_image_fixture_exact_pixels(self, tmp_path):
        pixels = np.array(
            [[[0, 128], [255, 3]], [[7, 0], [0, 255]]], dtype=np.uint8
        )  # 2 images of 2x2
        ip, lp = build_idx_pair(tmp_path, pixels, [4, 9])
        ds = load_idx(ip, lp)
        assert ds.features.shape == (2, 4)
        assert np.array_equal(ds.features[0], np.array([0, 128, 255, 3]) / 255.0)
        assert np.array_equal(ds.labels, [4, 9])
        assert ds.num_classes == 10

    def test_gzip_transparent(self, tmp_path):
        pixels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        ip, lp = build_idx_pair(tmp_path, pixels, [0, 1], gz=True)
        ds = load_idx(ip, lp)
        assert len(ds) == 2

    def test_wrong_magic_rejected(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        ip, lp = build_idx_pair(tmp_path, pixels, [0])
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(lp, ip)  # swapped: label magic where image magic expected

    def test_truncated_payload_rejected(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, lp = build_idx_pair(tmp_path, pixels, [0, 1])
        ip.write_bytes(ip.read_bytes()[:-3])
        with pytest.raises(IdxFormatError, match="payload"):
            load_idx(ip, lp)

    def test_zero_images_rejected(self, tmp_path):
        ip, lp = build_idx_pair(tmp_path, np.zeros((0, 2, 2)), [])
        with pytest.raises(IdxFormatError, match=re.escape(f"images file {ip} holds no images")):
            load_idx(ip, lp)

    def test_count_mismatch_rejected(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, _ = build_idx_pair(tmp_path, pixels, [0, 1])
        _, lp3 = build_idx_pair(tmp_path / "..", np.zeros((3, 2, 2), np.uint8), [0, 1, 2])
        with pytest.raises(IdxFormatError, match="count"):
            load_idx(ip, lp3)

    def test_round_trip_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
        ip, lp = build_idx_pair(tmp_path, pixels, rng.integers(0, 10, size=5))
        ds = load_idx(ip, lp)
        ip2, lp2 = tmp_path / "img2", tmp_path / "lbl2"
        write_idx(ds, ip2, lp2, rows=3, cols=4)
        assert ip2.read_bytes() == ip.read_bytes()
        assert lp2.read_bytes() == lp.read_bytes()


class TestSynth:
    def test_deterministic(self):
        a = synth_generate(5, 100, 8, 3)
        b = synth_generate(5, 100, 8, 3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("n", [12, 13, 101])
    def test_features_match_gathered_centroids(self, n):
        # adding the centroids class by class gives the bits of the one-shot
        # centroids[labels] gather, also when C = 3 does not divide n
        ds = synth_generate(9, n, 5, 3, split=1)
        cstream = RngStream(derive_seed(9, 0, 0, 0, StreamKind.INIT))
        centroids = cstream.uniforms(15).reshape(3, 5) * 0.6 + (1.0 - 0.6) / 2.0
        stream = RngStream(derive_seed(9, 0, 2, 0, StreamKind.INIT))
        features = stream.gaussians(n * 5).reshape(n, 5) * 0.08 + centroids[np.arange(n) % 3]
        assert np.array_equal(ds.features, np.clip(features, 0.0, 1.0))

    @staticmethod
    def three_passes(seed, n, p, num_classes, split):
        """synth_generate as three passes over the whole matrix:
        gaussians(n p), times 0.08, each class's centroid added to its rows,
        then clip."""
        cstream = RngStream(derive_seed(seed, 0, 0, 0, StreamKind.INIT))
        centroids = cstream.uniforms(num_classes * p).reshape(num_classes, p)
        centroids *= 0.6
        centroids += 0.2
        stream = RngStream(derive_seed(seed, 0, 1 + split, 0, StreamKind.INIT))
        features = stream.gaussians(n * p).reshape(n, p)
        features *= 0.08
        for c in range(num_classes):
            features[c::num_classes] += centroids[c]
        return np.clip(features, 0.0, 1.0, out=features)

    # (n, p, C): p that does not divide a 128-value batch (also p above
    # it), n < C, one row, n p below one batch, and many-batch shapes
    SHAPES = [(40, 7, 3), (9, 200, 4), (3, 5, 10), (1, 300, 4), (2, 5, 3), (97, 13, 7),
              (400, 50, 10)]

    @pytest.mark.parametrize("n,p,num_classes", SHAPES)
    def test_fused_passes_equal_three_whole_matrix_passes(self, n, p, num_classes, monkeypatch):
        # the expectation under the default batches, where every request
        # here is one thread's; then many 64-pair batches on worker threads
        for split in (0, 1):
            want = self.three_passes(4, n, p, num_classes, split)
            assert np.array_equal(synth_generate(4, n, p, num_classes, split).features, want)
            with monkeypatch.context() as m:
                m.setattr(seedstream, "GAUSSIAN_BATCH_PAIRS", 64)
                got = synth_generate(4, n, p, num_classes, split).features
            assert np.array_equal(got, want)

    def test_pooled_draw_without_the_park_symbol_keeps_its_bits(self, monkeypatch):
        # a numpy whose OpenBLAS lacks blas_thread_shutdown_: the park looks
        # it up, does nothing, and the pooled draw of 64-pair batches still
        # equals the draw of the default batches
        want = synth_generate(9, 200, 784, 10).features
        looked = []

        class NoSymbols:
            def __init__(self, path):
                pass

            def __getattr__(self, name):
                looked.append(name)
                raise AttributeError(name)

        monkeypatch.setattr(ctypes, "CDLL", NoSymbols)
        monkeypatch.setattr(seedstream, "GAUSSIAN_BATCH_PAIRS", 64)
        got = synth_generate(9, 200, 784, 10).features
        assert looked == ["blas_thread_shutdown_"]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,split,digest", [(12_000, 0, "d4319c67f1cc3820"),
                                                 (3_000, 1, "3387a3ee59bbe8cb")])
    def test_mnist_width_features_are_frozen(self, n, split, digest):
        # the benchmark's train and test splits (seed 70, 784 features, 10
        # classes), drawn on worker threads
        features = synth_generate(70, n, 784, 10, split).features
        assert hashlib.sha256(features.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("n,split,batches", [(12_000, 0, 183), (3_000, 1, 46)])
    def test_mnist_width_splits_compute_only_the_batches_they_place(self, n, split, batches,
                                                                      monkeypatch):
        computed, placed = [], []
        batch_values, pooled = seedstream._pooled_batch, RngStream._pooled_batches

        def counted(self, want, pool):
            for batch in pooled(self, want, pool):
                placed.append(1)
                yield batch

        monkeypatch.setattr(seedstream, "_pooled_batch",
                            lambda *args: computed.append(1) or batch_values(*args))
        monkeypatch.setattr(RngStream, "_pooled_batches", counted)
        synth_generate(70, n, 784, 10, split)
        assert len(computed) == len(placed) == batches

    def test_single_class(self):
        ds = synth_generate(5, 30, 4, 1)
        assert set(ds.labels.tolist()) == {0}

    def test_values_in_unit_box(self):
        ds = synth_generate(6, 200, 10, 4)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_train_test_share_centroids(self):
        # per-class means of the two splits agree (same underlying law)
        tr = synth_generate(7, 4000, 6, 3, split=0)
        te = synth_generate(7, 4000, 6, 3, split=1)
        for c in range(3):
            mu_tr = tr.features[tr.labels == c].mean(axis=0)
            mu_te = te.features[te.labels == c].mean(axis=0)
            assert np.allclose(mu_tr, mu_te, atol=0.02)

    def test_linear_classifier_reaches_95_percent(self):
        # oracle training run on well-separated centroids
        ds = synth_generate(8, 1200, 16, 4)
        model = LogisticRegressionModel(16, 4)
        w = np.zeros(model.dimension)
        batch = (ds.features, ds.labels)
        for _ in range(300):
            w -= 0.5 * model.grad(w, batch)
        assert model.accuracy(w, ds.features, ds.labels) >= 95.0


class TestDataset:
    def test_finite_features_whose_sum_overflows_are_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = Dataset(np.array([[1e308, 1e308]]), np.array([0]), 2)
        assert len(ds) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^features contain non-finite values$"):
                Dataset(np.array([[0.5, bad], [1e308, 1e308]]), np.array([0, 1]), 2)


class TestPartitions:
    def test_iid_single_client_gets_everything(self):
        ds = synth_generate(1, 57, 4, 3)
        shards = partition_iid(ds, 1, seed=3)
        assert np.array_equal(shards[0], np.arange(57))

    def test_iid_sizes_differ_by_at_most_one(self):
        ds = synth_generate(1, 103, 4, 3)
        shards = partition_iid(ds, 12, seed=3)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103
        assert sizes == sorted(sizes, reverse=True)  # remainder to lowest ids

    def test_iid_label_histograms_close_to_global(self):
        ds = synth_generate(2, 40_000, 4, 10)
        shards = partition_iid(ds, 4, seed=9)  # 10k rows per client
        global_hist = np.bincount(ds.labels, minlength=10) / len(ds)
        for shard in shards:
            hist = np.bincount(ds.labels[shard], minlength=10) / len(shard)
            assert np.abs(hist - global_hist).sum() < 0.05

    def test_iid_deterministic_and_disjoint(self):
        ds = synth_generate(3, 500, 4, 5)
        p1 = partition_iid(ds, 7, seed=11)
        p2 = partition_iid(ds, 7, seed=11)
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)
        assert len(np.concatenate(p1)) == len(np.unique(np.concatenate(p1)))

    def test_noniid_bijection_case(self):
        # m = C: client i holds exactly label i
        ds = synth_generate(4, 1000, 4, 10)
        shards = partition_noniid(ds, 10, seed=5)
        for i, shard in enumerate(shards):
            assert set(ds.labels[shard].tolist()) == {i}

    def test_noniid_twelve_clients_share_low_labels(self):
        ds = synth_generate(5, 2400, 4, 10)
        shards = partition_noniid(ds, 12, seed=6)
        labels_of = [set(ds.labels[s].tolist()) for s in shards]
        assert labels_of[10] == {0} and labels_of[0] == {0}
        assert labels_of[11] == {1} and labels_of[1] == {1}
        for i in range(2, 10):
            assert labels_of[i] == {i}

    def test_noniid_owner_formula(self):
        assert noniid_label_owners(10, 40)[3] == [3, 13, 23, 33]
        assert noniid_label_owners(10, 4)[8] == [0]
        # every client owns at least one label
        for m in (1, 3, 7, 10, 12, 25, 40):
            owners = noniid_label_owners(10, m)
            covered = {i for lst in owners for i in lst}
            assert covered == set(range(m))

    def test_noniid_partition_covers_every_row_once(self):
        ds = synth_generate(6, 997, 4, 10)
        shards = partition_noniid(ds, 12, seed=7)
        allrows = np.concatenate(shards)
        assert len(allrows) == 997
        assert len(np.unique(allrows)) == 997

    def test_label_sets_strict_subset(self):
        ds = synth_generate(7, 3000, 4, 10)
        for m in (4, 10, 12, 40):
            shards = partition_noniid(ds, m, seed=8)
            for shard in shards:
                assert len(set(ds.labels[shard].tolist())) < 10

    def test_too_many_clients_rejected(self):
        ds = synth_generate(8, 5, 4, 2)
        with pytest.raises(ValueError):
            partition_iid(ds, 6, seed=1)


class TestBatchCursor:
    def test_batches_partition_each_pass(self):
        shard = np.arange(100, 150)
        cur = BatchCursor(shard, batch_size=16, data_seed=4, client_id=2)
        first_pass = [cur.next_rows() for _ in range(3)]  # 48 of 50; tail dropped
        seen = np.concatenate(first_pass)
        assert len(np.unique(seen)) == 48
        assert set(seen.tolist()) <= set(shard.tolist())
        nxt = cur.next_rows()
        assert cur.pass_index == 1 and len(nxt) == 16

    def test_small_shard_returns_whole_shard(self):
        shard = np.array([3, 9, 11])
        cur = BatchCursor(shard, batch_size=64, data_seed=4, client_id=0)
        for _ in range(3):
            assert cur.next_rows().tolist() == [3, 9, 11]

    def test_deterministic_across_instances(self):
        shard = np.arange(40)
        a = BatchCursor(shard, 8, data_seed=9, client_id=1)
        b = BatchCursor(shard, 8, data_seed=9, client_id=1)
        for _ in range(12):
            assert np.array_equal(a.next_rows(), b.next_rows())

    def test_clients_get_distinct_streams(self):
        shard = np.arange(64)
        a = BatchCursor(shard, 32, data_seed=9, client_id=0).next_rows()
        b = BatchCursor(shard, 32, data_seed=9, client_id=1).next_rows()
        assert not np.array_equal(a, b)


class TestClientData:
    @pytest.fixture
    def parts(self):
        train = synth_generate(5, 240, 6, 4)
        return train, partition_iid(train, 4, seed=5)

    def test_whole_shard_every_step(self, parts):
        train, shards = parts  # 60 rows each, within the batch
        data = ClientData(train, shards, batch_size=64, seed=5, flipped=())
        for _ in range(3):
            for i, (X, y) in enumerate(data.gather(range(4))[2]):
                assert np.array_equal(X, train.features[shards[i]])
                assert np.array_equal(y, train.labels[shards[i]])

    def test_shard_within_its_batch_is_read_whole_in_order(self, parts):
        # clients 0 and 2 hold no more rows than the batch and read their
        # shard as it is; clients 1 and 3 read 8-row slices of each pass's
        # seeded permutation, the tail dropped
        train, shards = parts
        shards = [shards[0][:5], shards[1], shards[2][:8], shards[3][:20]]
        data = ClientData(train, shards, batch_size=8, seed=5, flipped=())
        want = {}
        for i in (1, 3):
            perms = [shards[i][RngStream(derive_seed(5, p, i, 0, StreamKind.DATA_SHUFFLE))
                               .permutation(len(shards[i]))] for p in range(5)]
            want[i] = [perm[j : j + 8] for perm in perms for j in range(0, len(perm) - 7, 8)]
        for step in range(10):  # client 3 starts a new pass every other step
            (X, _), counts, views = data.gather(range(4))
            assert list(counts) == [5, 8, 8, 8] and len(X) == 29
            for i in (0, 2):
                assert np.array_equal(views[i][0], train.features[shards[i]])
            for i in (1, 3):
                assert np.array_equal(views[i][0], train.features[want[i][step]])

    def test_empty_shard_rejected(self, parts):
        # the same error whether the other shards are read in batches or whole
        train, shards = parts
        shards = shards[:2] + [np.empty(0, dtype=np.int64)] + shards[2:]
        for batch_size in (8, 64):
            with pytest.raises(ValueError, match="^client 2 received an empty shard$"):
                ClientData(train, shards, batch_size=batch_size, seed=5, flipped=())

    def test_only_flipped_clients_labels_change(self, parts):
        train, shards = parts
        data = ClientData(train, shards, batch_size=64, seed=5, flipped=(1, 3))
        for i, (_, y) in enumerate(data.gather(range(4))[2]):
            want = train.labels[shards[i]]
            assert np.array_equal(y, 3 - want if i in (1, 3) else want)
        assert np.array_equal(data.labels[shards[0]], train.labels[shards[0]])

    def test_batches_do_not_depend_on_other_readers(self, parts):
        train, shards = parts

        def fresh():
            return ClientData(train, shards, batch_size=8, seed=5, flipped=())

        together, in_pairs, alone = fresh(), fresh(), [fresh() for _ in range(4)]
        for _ in range(20):  # several passes over each 60-row shard
            (X, y), counts, step = together.gather(range(4))
            assert list(counts) == [8] * 4 and X.shape == (32, 6)
            pairs = in_pairs.gather([0, 1])[2] + in_pairs.gather([2, 3])[2]
            for i in range(4):
                (mine,) = alone[i].gather([i])[2]
                for a in (pairs[i], mine):
                    assert np.array_equal(a[0], step[i][0]) and np.array_equal(a[1], step[i][1])
                assert np.shares_memory(step[i][0], X)  # a view into the group's one gather
        assert all(c.pass_index == c.offset == 0 for c in alone[0].cursors[1:])

    def test_groups_fit_the_budget(self, parts, monkeypatch):
        train, shards = parts
        data = ClientData(train, shards[:3] + [shards[3][:5]], batch_size=8, seed=5, flipped=())
        readers = [0, 1, 2, 3]  # rows per read 8, 8, 8, 5
        for budget, want in ((1, [[0], [1], [2], [3]]), (16 * 10, [[0, 1], [2, 3]]),
                             (24 * 10, [[0, 1, 2], [3]]), (1 << 30, [readers])):
            monkeypatch.setattr(data_module, "GROUP_VALUES", budget)
            got = data.groups(readers, width=10)
            assert [readers[g] for g in got] == want
