"""Stream identity, determinism, and replay properties."""

import concurrent.futures
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyber0 import seedstream
from cyber0.seedstream import (
    CHUNK,
    DirectionMode,
    RngStream,
    StreamKind,
    derive_seed,
    derive_seeds,
    first_uniforms,
    make_direction,
    sphere_direction,
)
from cyber0.zo import direction_seed
from test_kernels import openblas_threads, park_keeps_product_and_threads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import golden_digest  # noqa: E402

MASK = (1 << 64) - 1


def reference_fmix64(x):
    # independent transcription of the SplitMix64 finalizer
    x &= MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return (x ^ (x >> 31)) & MASK


def reference_derive(root, step, sample, epoch, kind):
    h = 0
    for word in (root, step, sample, epoch, kind):
        h = reference_fmix64(h ^ (word & MASK))
    return h


GOLDEN_ZERO_DIRECTION = 0x5692161D100B05E5  # frozen once from the reference


def reference_gaussians(seed, n):
    """The first n Gaussians of a stream by the polar rule over its raw
    words, all pairs at once: accepted pairs in stream order, v1 f then v2 f."""
    v = RngStream(seed).uniforms(2 * n) * 2.0 - 1.0  # n pairs: about 1.57 n values
    v1, v2 = v[0::2], v[1::2]
    s = v1 * v1 + v2 * v2
    ok = (s > 0.0) & (s < 1.0)
    f = np.sqrt(-2.0 * np.log(s[ok]) / s[ok])
    out = np.stack([v1[ok] * f, v2[ok] * f], axis=1).reshape(-1)
    assert len(out) >= n
    return out[:n]


class TestDeriveSeed:
    def test_golden_value(self):
        t = (0, 0, 0, 0, StreamKind.DIRECTION)
        assert derive_seed(*t) == GOLDEN_ZERO_DIRECTION
        assert derive_seed(*t) == reference_derive(0, 0, 0, 0, 1)

    def test_matches_reference_on_random_tuples(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            root = int(rng.integers(0, 1 << 63))
            step, sample, epoch = (int(v) for v in rng.integers(0, 10_000, size=3))
            kind = StreamKind(int(rng.integers(1, 5)))
            got = derive_seed(root, step, sample, epoch, kind)
            assert got == reference_derive(root, step, sample, epoch, int(kind))

    def test_purity(self):
        t = (42, 7, 3, 1, StreamKind.DATA_SHUFFLE)
        assert derive_seed(*t) == derive_seed(*t)

    def test_order_sensitivity(self):
        a = derive_seed(1, 2, 3, 0, StreamKind.DIRECTION)
        b = derive_seed(1, 3, 2, 0, StreamKind.DIRECTION)
        assert a != b

    def test_kind_separates_streams(self):
        seeds = {derive_seed(9, 1, 1, 0, kind) for kind in StreamKind}
        assert len(seeds) == len(StreamKind)

    def test_no_collisions_over_a_million_tuples(self):
        # 10^6 enumerated tuples: root x kind x step x sample x epoch, each
        # root and kind one derive_seeds call over the (step, sample, epoch) grid
        kinds = (StreamKind.DIRECTION, StreamKind.DATA_SHUFFLE)
        shape = (10, len(kinds), 50, 125, 4)
        grid = np.ix_(*(np.arange(n) for n in shape[2:]))
        seeds = np.stack([np.stack([derive_seeds(root, *grid, kind) for kind in kinds])
                          for root in range(shape[0])])
        assert seeds.shape == shape
        assert len(np.unique(seeds)) == seeds.size
        # the broadcast derivation is the scalar one: on 1,000 sampled
        # tuples and on every corner of the grid
        rng = np.random.default_rng(0)
        sampled = rng.integers(0, shape, size=(1000, len(shape)))
        corners = np.stack(np.meshgrid(*([0, n - 1] for n in shape), indexing="ij"), -1)
        for idx in np.concatenate([sampled, corners.reshape(-1, len(shape))]):
            root, kind, step, sample, epoch = (int(i) for i in idx)
            want = derive_seed(root, step, sample, epoch, kinds[kind])
            assert int(seeds[tuple(idx)]) == want

    def test_rejects_negative_fields(self):
        for step, sample, epoch in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(ValueError):
                derive_seed(1, step, sample, epoch, StreamKind.DIRECTION)


class TestStream:
    def test_chunked_equals_one_shot(self):
        one = RngStream(42).gaussians(10001)
        st = RngStream(42)
        parts = [st.gaussians(n) for n in (1, CHUNK, 3, 5000, 901)]
        assert np.array_equal(one, np.concatenate(parts))
        # a request of several capped batches, against small requests and
        # against the polar rule applied to the raw words
        cap = seedstream.GAUSSIAN_BATCH_PAIRS
        n = 3 * 2 * cap + 1001
        big = RngStream(42).gaussians(n)
        assert np.array_equal(big[:10001], one)
        st = RngStream(42)
        assert np.array_equal(big, np.concatenate([st.gaussians(m) for m in
                                                   (cap - 1, 2 * cap, 3, n - 3 * cap - 2)]))
        assert np.array_equal(big, reference_gaussians(42, n))

    def test_words_uniforms_positions(self):
        st = RngStream(5)
        w1 = st.words(3)
        st2 = RngStream(5)
        assert np.array_equal(st2.words(2), w1[:2])
        u = RngStream(5).uniforms(1000)
        assert np.all((u >= 0) & (u < 1))

    @pytest.mark.parametrize("draw", ["words", "uniforms", "permutation"])
    def test_negative_count_is_rejected_in_place(self, draw):
        # a negative count would draw nothing and move the position back, so
        # that the next draw repeated words already drawn
        st = RngStream(5)
        st.words(10)
        with pytest.raises(ValueError, match="-3"):
            getattr(st, draw)(-3)
        assert np.array_equal(st.words(3), RngStream(5).words(13)[10:])

    def test_first_uniforms_match_each_stream(self):
        derived = [derive_seed(9, t, 0, 0, StreamKind.ADVERSARY) for t in range(60)]
        seeds = np.array([0, 5, 2**63, 2**64 - 1] + derived, dtype=np.uint64)
        want = [RngStream(int(s)).uniforms(1)[0] for s in seeds]
        assert first_uniforms(seeds).tolist() == want

    def test_gaussian_moments(self):
        g = RngStream(7).gaussians(1_000_000)
        assert abs(g.mean()) < 0.005
        assert abs(g.var() - 1.0) < 0.01

    def test_cross_process_style_agreement(self):
        # two independent engine instances derive identical directions
        a = RngStream(derive_seed(77, 12, 4, 0, StreamKind.DIRECTION)).gaussians(512)
        b = RngStream(derive_seed(77, 12, 4, 0, StreamKind.DIRECTION)).gaussians(512)
        assert np.array_equal(a, b)

    def test_permutation_is_a_permutation(self):
        p = RngStream(11).permutation(4096)
        assert np.array_equal(np.sort(p), np.arange(4096))
        assert np.array_equal(p, RngStream(11).permutation(4096))

    def test_stream_independence_mean_correlation(self):
        # mean signed correlation over 10^3 direction pairs at d=1000
        d, pairs = 1000, 1000
        corrs = np.empty(pairs)
        for j in range(pairs):
            za = sphere_direction(derive_seed(3, j, 0, 0, StreamKind.DIRECTION), d)
            zb = sphere_direction(derive_seed(3, j, 1, 0, StreamKind.DIRECTION), d)
            corrs[j] = float(np.dot(za, zb))
        assert abs(corrs.mean()) < 0.01


class CountingPool(concurrent.futures.ThreadPoolExecutor):
    """A ThreadPoolExecutor that records every instance it makes."""

    made: list = []

    def __init__(self, *args, **kwargs):
        CountingPool.made.append(self)
        super().__init__(*args, **kwargs)


@pytest.fixture
def pools(monkeypatch):
    """The worker pools ``RngStream.gaussians`` starts while the test runs."""
    CountingPool.made = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    return CountingPool.made


@pytest.fixture
def small_batches(monkeypatch, pools):
    """64-pair batches, threaded where ``_polar_batch`` exceeds the ring's
    three of them (a request of 285 values or more): many chunks at little
    cost."""
    monkeypatch.setattr(seedstream, "GAUSSIAN_BATCH_PAIRS", 64)
    return pools


def mixed_draws(seed, n):
    """An odd request that leaves a half-pair pending, a request of n, an
    odd words draw, a request of n + 1, and the draw after it."""
    st = RngStream(seed)
    parts = [st.gaussians(3), st.gaussians(n), st.words(5).view(np.float64),
             st.gaussians(n + 1), st.gaussians(9)]
    return parts, st.words(1)


def test_digest_stream_sequence_leaves_and_takes_a_half_pair():
    # the golden digest's one line whose draws go through the pending half-pair
    pending = []

    class Spy(RngStream):
        def gaussians(self, n, out=None, placed=None):
            pending.append(self._pending is not None)
            return super().gaussians(n, out, placed)

    spy = Spy(golden_digest.SEQUENCE_SEED)
    draws = golden_digest.stream_sequence(spy)
    assert pending == [False, True, False, True] and spy._pending is not None
    plain = golden_digest.stream_sequence(RngStream(golden_digest.SEQUENCE_SEED))
    assert all(np.array_equal(a, b) for a, b in zip(draws, plain))
    # gaussians(3) keeps the fourth Gaussian pending, and the sphere rows
    # start with it
    head = reference_gaussians(golden_digest.SEQUENCE_SEED, 24)
    assert np.array_equal(draws[0], head[:3])
    rows = draws[1] * np.sqrt(seedstream.rows_sumsq(head[3:].reshape(3, 7)))[:, None]
    assert np.allclose(rows.reshape(-1), head[3:], rtol=1e-15, atol=0)


class TestLongRequests:
    """Requests whose ``_polar_batch`` exceeds the ring of _WORKERS + 1
    batches, whose batches worker threads compute and the caller places in
    stream order."""

    # threaded from 285 on: (285 + 1) // 2 = 143 pairs wanted, and
    # 143 * 13 // 10 + 8 = 193 pairs exceed three 64-pair batches, where
    # 142 wanted pairs give exactly 192
    LENGTHS = [157, 158, 159, 160, 185, 186, 187, 188, 283, 284, 285, 286, 1001, 4000, 12_345]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_threaded_request_is_the_polar_rule(self, small_batches, n):
        assert np.array_equal(RngStream(42).gaussians(n), reference_gaussians(42, n))
        assert len(small_batches) == (n >= 285)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_threaded_requests_equal_the_one_thread_stream(self, monkeypatch, n):
        # after a pending half-pair and after words(odd), and the next draw
        # and the position after the long request: against the default
        # batches, where every request here is drawn on one thread
        want, want_next = mixed_draws(7, n)
        monkeypatch.setattr(seedstream, "GAUSSIAN_BATCH_PAIRS", 64)
        got, got_next = mixed_draws(7, n)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert np.array_equal(got_next, want_next)

    def test_long_request_equals_small_sequential_requests(self, small_batches):
        n = 9_999
        big = RngStream(3).gaussians(n)
        st = RngStream(3)
        sizes = [1 + i % 13 for i in range(2 * n // 7)]
        small = np.concatenate([st.gaussians(m) for m in sizes])[:n]
        assert len(small) == n and np.array_equal(big, small)
        assert len(small_batches) == 1  # the small requests start no pool

    def test_placed_reports_final_values_in_order(self, small_batches):
        n = 5_001
        out = np.full(n, np.nan)
        counts, snapshots = [], []

        def placed(count):
            counts.append(count)
            snapshots.append(out[:count].copy())

        st = RngStream(11)
        st.gaussians(1)  # leaves a half-pair pending
        assert st.gaussians(n, out=out, placed=placed) is out
        assert np.array_equal(out, reference_gaussians(11, n + 1)[1:])
        assert counts == sorted(counts) and counts[-1] == n and len(counts) > 40
        for count, seen in zip(counts, snapshots):
            assert np.array_equal(seen, out[:count])

    @pytest.mark.parametrize("n", [9_999, 12_345])
    def test_ring_computes_at_most_one_batch_it_does_not_place(self, small_batches,
                                                                monkeypatch, n):
        # a batch starts only while the pairs still wanted, with slack,
        # exceed those in flight, so at most the last batch started goes
        # unplaced
        computed = []
        batch_values = seedstream._pooled_batch
        monkeypatch.setattr(seedstream, "_pooled_batch",
                            lambda *args: computed.append(1) or batch_values(*args))
        for seed in range(8):
            computed.clear()
            placed = []
            RngStream(seed).gaussians(n, placed=placed.append)
            assert placed[-1] == n
            assert len(placed) <= len(computed) <= len(placed) + 1, seed

    def test_out_of_another_length_is_rejected(self):
        st = RngStream(4)
        with pytest.raises(ValueError, match="out must have shape"):
            st.gaussians(3, out=np.empty(4))
        assert np.array_equal(st.gaussians(3), reference_gaussians(4, 3))

    def test_out_of_another_dtype_is_rejected(self):
        # a float32 out would round the stream's values
        st = RngStream(3)
        with pytest.raises(ValueError, match="float32"):
            st.gaussians(6, out=np.empty(6, np.float32))
        assert np.array_equal(st.gaussians(6), reference_gaussians(3, 6))

    def test_no_thread_outlives_the_call(self, small_batches):
        before = threading.active_count()
        RngStream(5).gaussians(20_000)
        assert len(small_batches) == 1 and threading.active_count() == before

    def test_more_workers_than_cores_under_fast_switching(self, small_batches, monkeypatch):
        # five workers and six scratch blocks, with threads switched every
        # microsecond: a block handed out before its batch was placed
        # would show as a wrong value
        monkeypatch.setattr(seedstream, "_WORKERS", 5)
        want = reference_gaussians(8, 6_001)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            draws = [RngStream(8).gaussians(6_001) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert len(small_batches) == 5
        for got in draws:
            assert np.array_equal(got, want)

    def test_worker_error_propagates_and_joins_the_pool(self, small_batches, monkeypatch):
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 5:
                raise FloatingPointError("injected")
            return batch_values(*args)

        batch_values = seedstream._pooled_batch
        monkeypatch.setattr(seedstream, "_pooled_batch", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="injected"):
            RngStream(5).gaussians(20_000)
        assert threading.active_count() == before

    def test_small_requests_start_no_thread(self, pools):
        # default batches: tier-1's draws, make_direction's rows and their
        # redraws, and sphere directions stay on the calling thread
        RngStream(1).gaussians(100_000)
        make_direction(direction_seed(5, 3, np.arange(64), 0), 7850, DirectionMode.SPHERE)
        sphere_direction(9, 16)
        RngStream(2).gaussians(7850)
        assert pools == []
        RngStream(1).gaussians(300_000)  # about six batches, beyond the ring: threaded
        assert len(pools) == 1


class TestParkBlas:
    """``_park_blas``, which a pooled draw runs before its workers start,
    stops OpenBLAS's idle workers; the next product restarts them."""

    def test_park_stops_the_openblas_workers(self):
        tasks = Path("/proc/self/task")  # one entry per thread of this process
        if not tasks.is_dir():
            pytest.skip("no /proc/self/task to count threads in")
        if openblas_threads() == "unknown" or int(openblas_threads()) < 2:
            pytest.skip("OpenBLAS runs no worker thread here")
        x = np.ones((384, 784))
        x @ x.T  # a threaded product: the workers run, should they have been parked
        before = len(list(tasks.iterdir()))
        seedstream._park_blas()
        assert len(list(tasks.iterdir())) < before

    def test_product_and_thread_count_survive_the_park(self):
        assert park_keeps_product_and_threads()

    def test_only_a_pooled_draw_parks(self, small_batches, monkeypatch):
        parks = []
        monkeypatch.setattr(seedstream, "_park_blas", lambda: parks.append(len(small_batches)))
        RngStream(3).gaussians(150)  # 105 pairs, within the ring: the calling thread's
        assert parks == []
        RngStream(3).gaussians(4_000)
        assert parks == [0] and len(small_batches) == 1  # parked before the pool started


class TestDirections:
    def test_sphere_norm_is_one(self):
        for d in (1, 2, 17, 4097):
            z = sphere_direction(1000 + d, d)
            assert abs(np.linalg.norm(z) - 1.0) <= 4 * np.finfo(float).eps

    def test_sphere_d1_is_sign(self):
        vals = {float(sphere_direction(s, 1)[0]) for s in range(40)}
        assert vals <= {1.0, -1.0} and len(vals) == 2

    def test_determinism(self):
        assert np.array_equal(RngStream(9).gaussians(3000), RngStream(9).gaussians(3000))
        assert np.array_equal(sphere_direction(9, 3000), sphere_direction(9, 3000))

    # zeroed[j]: the rows of the j-th request, as (-1, d), that come back zero
    @pytest.mark.parametrize("n, zeroed", [(1, [[0]]), (1, [[0], [0]]), (5, [[1, 3]]),
                                           (5, [[0, 1, 3], [1]])])
    def test_sphere_rows_redraw_zero_rows_in_row_order(self, n, zeroed):
        # a zero row is redrawn from the Gaussians after the block, d per
        # row in row order, and again while it stays zero
        d = 7
        got = seedstream.sphere_rows(ZeroingStream(5, d, zeroed), n, d)
        plain = RngStream(5)
        rows = plain.gaussians(n * d).reshape(n, d)
        todo = zeroed[0]
        for later in zeroed[1:] + [[]]:
            rows[todo] = plain.gaussians(len(todo) * d).reshape(-1, d)
            todo = [todo[i] for i in later]
        want = rows / np.sqrt(seedstream.rows_sumsq(rows))[:, None]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [16, 7850])
    def test_zero_block_row_is_the_sphere_direction_of_its_seed(self, d, monkeypatch):
        seeds = direction_seed(5, 3, np.arange(6), 0)
        fill = seedstream._gaussian_rows

        def zeroing(chunk_seeds, positions, want, out, scratch):
            fill(chunk_seeds, positions, want, out, scratch)
            out[chunk_seeds == seeds[2]] = 0.0

        monkeypatch.setattr(seedstream, "_gaussian_rows", zeroing)
        block = make_direction(seeds, d, DirectionMode.SPHERE)
        monkeypatch.undo()
        assert_rows_match_reference(block, seeds, d, DirectionMode.SPHERE)


class ZeroingStream(RngStream):
    """A stream whose j-th ``gaussians`` request comes back with the rows
    ``zeroed[j]`` of its (-1, d) shape set to zero."""

    def __init__(self, seed, d, zeroed):
        super().__init__(seed)
        self.d, self.zeroed = d, list(zeroed)

    def gaussians(self, n, out=None, placed=None):
        g = super().gaussians(n, out, placed)
        if self.zeroed:
            g.reshape(-1, self.d)[self.zeroed.pop(0)] = 0.0
        return g


REFERENCE = {DirectionMode.GAUSSIAN: lambda seed, d: RngStream(seed).gaussians(d),
             DirectionMode.SPHERE: sphere_direction}
MODES = [DirectionMode.GAUSSIAN, DirectionMode.SPHERE]


def assert_rows_match_reference(block, seeds, d, mode):
    assert block.shape == (len(seeds), d)
    for row, seed in zip(block, seeds):
        assert np.array_equal(row, REFERENCE[mode](int(seed), d))


class TestDirectionBlock:
    """The (k, d) block generator against the per-seed RngStream reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, MASK), min_size=1, max_size=70),
        d=st.integers(1, 9000),
        mode=st.sampled_from(MODES),
    )
    def test_block_equals_per_seed_stream(self, seeds, d, mode):
        seeds = np.array(seeds, dtype=np.uint64)
        assert_rows_match_reference(make_direction(seeds, d, mode), seeds, d, mode)
        assert_rows_match_reference(make_direction(seeds[:1], d, mode), seeds[:1], d, mode)

    # samples of the direction seeds (5, 3, sample, 0) per d that hold short
    # rows: a row whose first polar batch has too few accepted pairs is about
    # one in 700 at d = 7850 (sample 1916 is one) and one in 3,000 at d = 16
    SHORT_ROW_SAMPLES = {16: range(4096), 7850: range(1900, 1964)}

    @staticmethod
    def short_seeds(seeds, d):
        """The seeds whose first polar batch of ``_polar_batch((d + 1) // 2)``
        pairs, read off their own streams, holds fewer than (d + 1) // 2
        accepted pairs."""
        want = (d + 1) // 2
        pairs = seedstream._polar_batch(want)
        short = []
        for seed in map(int, seeds):
            v = RngStream(seed).uniforms(2 * pairs) * 2.0 - 1.0
            s = v[0::2] ** 2 + v[1::2] ** 2
            if np.count_nonzero((s > 0.0) & (s < 1.0)) < want:
                short.append(seed)
        return short

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", sorted(SHORT_ROW_SAMPLES))
    def test_short_rows_fall_back_to_their_stream(self, mode, d, monkeypatch):
        # exactly the short rows are redrawn whole from their own streams,
        # in one-row chunks and in one many-row chunk alike
        seeds = direction_seed(5, 3, np.array(self.SHORT_ROW_SAMPLES[d]), 0)
        row_words = 2 * seedstream._polar_batch((d + 1) // 2)
        short = self.short_seeds(seeds, d)
        assert len(short) >= 1
        fallback = []

        class CountingStream(RngStream):
            def __init__(self, seed):
                fallback.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(seedstream, "RngStream", CountingStream)
        blocks = []
        for budget in (row_words, 1 << 62):
            monkeypatch.setattr(seedstream, "GAUSSIAN_BATCH_PAIRS", budget)
            fallback.clear()
            blocks.append(make_direction(seeds, d, mode))
            assert fallback == short
        monkeypatch.undo()
        assert np.array_equal(blocks[0], blocks[1])
        assert_rows_match_reference(blocks[0], seeds, d, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", sorted(SHORT_ROW_SAMPLES))
    def test_output_does_not_depend_on_chunk_budget(self, mode, d, monkeypatch):
        # the seeds of the short-row test, so that short rows also sit
        # inside a many-row chunk
        seeds = direction_seed(5, 3, np.array(self.SHORT_ROW_SAMPLES[d]), 0)
        default = make_direction(seeds, d, mode)
        row_words = 2 * seedstream._polar_batch((d + 1) // 2)
        # one row per chunk, below a row's words and at exactly one row's;
        # the whole block in one chunk
        for budget in (row_words // 2, row_words, 1 << 62):
            monkeypatch.setattr(seedstream, "GAUSSIAN_BATCH_PAIRS", budget)
            assert np.array_equal(make_direction(seeds, d, mode), default)

    def test_fills_out_in_place(self):
        seeds = direction_seed(1, 2, np.arange(5))
        out = np.full((5, 33), np.nan)
        assert make_direction(seeds, 33, DirectionMode.SPHERE, out=out) is out
        assert_rows_match_reference(out, seeds, 33, DirectionMode.SPHERE)
        with pytest.raises(ValueError):
            make_direction(seeds, 33, DirectionMode.SPHERE, out=np.empty((4, 33)))

    def test_out_of_another_dtype_is_rejected(self):
        seeds = direction_seed(1, 2, np.arange(5))
        with pytest.raises(ValueError, match="float32"):
            make_direction(seeds, 33, DirectionMode.SPHERE, out=np.empty((5, 33), np.float32))

    def test_mode_must_be_a_direction_mode(self):
        # "sphere" == DirectionMode.SPHERE is False, so a string would have
        # drawn Gaussian rows; the config's strings map to modes before this
        seeds = direction_seed(1, 2, np.arange(2))
        with pytest.raises(ValueError, match="sphere"):
            make_direction(seeds, 8, "sphere")
        assert_rows_match_reference(make_direction(seeds, 8, 1), seeds, 8, DirectionMode.SPHERE)

    @pytest.mark.parametrize("mode", MODES)
    def test_no_seeds_give_an_empty_block(self, mode):
        assert make_direction(np.array([], dtype=np.uint64), 33, mode).shape == (0, 33)
        out = np.empty((0, 7850))
        assert make_direction([], 7850, mode, out=out) is out

    @settings(max_examples=60, deadline=None)
    @given(
        root=st.integers(0, MASK),
        steps=st.lists(st.integers(0, MASK), min_size=1, max_size=5),
        epochs=st.lists(st.integers(0, MASK), min_size=1, max_size=4),
        samples=st.lists(st.integers(0, MASK), min_size=1, max_size=40),
    )
    def test_vectorised_direction_seed_equals_scalar(self, root, steps, epochs, samples):
        # step, epoch and sample arrays broadcast against each other, as the
        # engine's window of rounds asks for them
        got = direction_seed(root, np.array(steps, dtype=np.uint64)[:, None, None],
                             np.array(samples, dtype=np.uint64),
                             np.array(epochs, dtype=np.uint64)[:, None])
        assert got.dtype == np.uint64
        assert got.shape == (len(steps), len(epochs), len(samples))
        for i, step in enumerate(steps):
            for e, epoch in enumerate(epochs):
                assert [int(v) for v in got[i, e]] == [
                    derive_seed(root, step, r, epoch, StreamKind.DIRECTION)
                    for r in samples
                ]

    def test_vectorised_direction_seed_edges(self):
        big = MASK
        for root, step, epoch in ((big, 0, 0), (big, big, big), (0, 2**40 + 7, 2**33)):
            got = direction_seed(root, step, np.arange(70), epoch)
            assert [int(v) for v in got] == [reference_derive(root, step, r, epoch, 1)
                                             for r in range(70)]
        # arrays of large steps and epochs, with a scalar sample
        steps = np.array([big, 2**63, 2**40 + 7], dtype=np.uint64)
        epochs = np.array([0, 2**33, big], dtype=np.uint64)
        got = direction_seed(big, steps[:, None], 5, epochs)
        assert [[int(v) for v in row] for row in got] == [
            [reference_derive(big, int(t), 5, int(e), 1) for e in epochs] for t in steps
        ]
        for bad in ((np.array([0, -1]), 0, 0), (0, np.array([0, -1]), 0),
                    (0, 0, np.array([-1])), (np.array([0.5]), 0, 0)):
            with pytest.raises(ValueError):
                direction_seed(1, *bad)

    def test_sphere_norm_of_a_row_does_not_depend_on_its_block(self):
        # a row's sum of squares is the same in a block, C-contiguous or a
        # window sliced out of a wider one, as alone, for d from 1 to 12,289,
        # crossing 1, CHUNK, 2 * CHUNK (8192) and 3 * CHUNK
        ds = list(range(1, 40)) + [d + j for d in (CHUNK, 2 * CHUNK, 3 * CHUNK)
                                   for j in (-1, 0, 1)]
        ds += list(range(97, 9001, 1223)) + [7850, 10_000]
        for d in ds:
            wide = RngStream(d).gaussians(5 * (d + 3)).reshape(5, d + 3)
            wide[1] *= 1e-150  # tiny and huge rows round differently
            wide[2] *= 1e150
            for block in (np.ascontiguousarray(wide[:, 2:-1]), wide[:, 2:-1], wide[::2, 3:]):
                got = seedstream.rows_sumsq(block)
                alone = [seedstream.rows_sumsq(row.copy()[None])[0] for row in block]
                assert np.array_equal(got, alone), (d, block.strides)
                want = [math.fsum(row * row) for row in block]
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), d


class TestPerturb:
    """The round protocol's in-place perturbation ``w += s * z``."""

    def setup_method(self):
        self.w = RngStream(123).gaussians(9000) * 0.3

    @pytest.mark.parametrize("mode", [DirectionMode.GAUSSIAN, DirectionMode.SPHERE])
    @pytest.mark.parametrize("mu", [1e-5, 1e-3, 0.1])
    def test_replay_inverse_within_one_ulp(self, mode, mu):
        # fl(w + a) is not injective in w, so an in-place add/subtract cycle
        # can land one ulp off per coordinate; the inverse must never do
        # worse than that
        z = REFERENCE[mode](321, len(self.w))
        w = self.w.copy()
        w += mu * z
        w += -mu * z
        err = np.abs(w - self.w)
        limit = 2 * np.spacing(np.maximum(np.abs(self.w), np.abs(mu * z)))
        assert np.all(err <= limit)

    @pytest.mark.parametrize("mode", [DirectionMode.GAUSSIAN, DirectionMode.SPHERE])
    def test_bracket_schedule_within_one_ulp(self, mode):
        z = REFERENCE[mode](77, len(self.w))
        w = self.w.copy()
        for scale in (1e-3, -2e-3, 1e-3):
            w += scale * z
        err = np.abs(w - self.w)
        limit = 4 * np.spacing(np.maximum(np.abs(self.w), np.abs(1e-3 * z)))
        assert np.all(err <= limit)

    def test_replay_is_deterministic(self):
        # the property federated synchronization actually relies on:
        # identical op sequences leave identical states, bit for bit
        w1, w2 = self.w.copy(), self.w.copy()
        for w in (w1, w2):
            for scale in (1e-3, -2e-3, 1e-3):
                w += scale * RngStream(90).gaussians(len(w))
        assert np.array_equal(w1, w2)

    def test_zero_scale_is_identity(self):
        w = self.w.copy()
        w += 0.0 * RngStream(4).gaussians(len(w))
        assert np.array_equal(w, self.w)
