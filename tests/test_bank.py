import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sfdalab import bank as bank_module
from sfdalab import numerics
from sfdalab.bank import MODES, MemoryBank
from sfdalab.errors import (
    ConfigError,
    InsufficientDataError,
    InvalidInputError,
    ShapeError,
)


def brute_force_knn(ids, feats, query, k, exclude_id=None):
    """Independent oracle: full sort on (-cosine, id)."""
    scored = []
    for sid, f in zip(ids, feats):
        if exclude_id is not None and sid == exclude_id:
            continue
        nf = float(np.linalg.norm(f))
        nq = float(np.linalg.norm(query))
        sim = -np.inf if nf == 0.0 or nq == 0.0 else float(np.dot(query, f)) / (nf * nq)
        scored.append((sid, sim))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return [sid for sid, _ in scored[:k]]


def uniform_preds(n, c=2):
    return np.full((n, c), 1.0 / c)


class TestInit:
    def test_full_empty(self):
        b = MemoryBank("full", 600, 4, 2)
        assert b.filled == 0 and np.all(b.sample_ids == -1)
        assert b.features.shape == (0, 4)

    def test_ring_empty(self):
        b = MemoryBank("ring", 64, 4, 2)
        assert b.filled == 0 and b.writes == 0 and np.all(b.sample_ids == -1)
        assert b.features.shape == (0, 4)

    @pytest.mark.parametrize("mode", MODES)
    def test_ring_allocates_only_the_rows_it_holds(self, mode):
        # in both modes the arrays grow to the largest id written,
        # whatever the capacity; a full bank's capacity bounds its ids
        b = MemoryBank(mode, 10**13, 4, 2)
        assert b.features.shape == (0, 4) and b.sample_ids.shape == (0,)
        b.update([5, 2], np.ones((2, 4)), uniform_preds(2))
        assert b.features.shape == (6, 4) and b.occupied().tolist() == [2, 5]
        if mode == "full":
            with pytest.raises(InvalidInputError, match="capacity 10000000000000"):
                b.update([10**13], np.ones((1, 4)), uniform_preds(1))

    @pytest.mark.parametrize("mode", MODES)
    def test_sizes_are_taken_as_ints(self, mode):
        b = MemoryBank(mode, True, np.int64(2), np.uint8(2))
        assert b.capacity == 1 and type(b.capacity) is int
        b.update([0], [[1.0, 0.0]], [[0.5, 0.5]])
        assert b.features.shape == (1, 2) and b.predictions.shape == (1, 2)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            MemoryBank("full", 0, 4, 2)
        for args, name in [((2.5, 3, 2), "capacity"), ((3, 2.5, 2), "feat_dim"),
                           ((3, 3, 2.5), "n_classes"), ((3, -1, 2), "feat_dim"),
                           ((3, 3, -1), "n_classes")]:
            with pytest.raises(ConfigError, match=name):
                MemoryBank("full", *args)
        with pytest.raises(ConfigError, match="capacity"):
            MemoryBank("ring", "4", 3, 2)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            MemoryBank("stack", 4, 4, 2)

    def test_knn_on_empty_bank(self):
        b = MemoryBank("full", 10, 2, 2)
        with pytest.raises(InsufficientDataError):
            b.knn_batch([[1.0, 0.0]], k=1)


class TestUpdate:
    def test_full_overwrite(self):
        b = MemoryBank("full", 10, 2, 2)
        b.update([5], [[1.0, 0.0]], [[0.9, 0.1]])
        b.update([5], [[0.0, 1.0]], [[0.2, 0.8]])
        np.testing.assert_array_equal(b.features[5], [0.0, 1.0])
        np.testing.assert_array_equal(b.predictions[5], [0.2, 0.8])
        assert b.filled == 1

    def test_ring_eviction_order(self):
        b = MemoryBank("ring", 4, 1, 2)
        b.update([0, 1, 2, 3], [[0.0], [1.0], [2.0], [3.0]], uniform_preds(4))
        b.update([4, 5], [[4.0], [5.0]], uniform_preds(2))
        # ids 0 and 1 were the oldest writes and left the window; every
        # id held sits in its own row, which the bank grew to reach
        assert b.sample_ids.tolist() == [-1, -1, 2, 3, 4, 5]
        np.testing.assert_array_equal(b.features[2:, 0], [2.0, 3.0, 4.0, 5.0])
        assert b.filled == 4

    def test_ring_empty_write_is_a_noop(self):
        b = MemoryBank("ring", 4, 1, 2)
        b.update([0, 1], [[0.0], [1.0]], uniform_preds(2))
        b.update([], np.zeros((0, 1)), np.zeros((0, 2)))
        assert b.sample_ids.tolist() == [0, 1]
        assert b.writes == 2 and b.filled == 2
        np.testing.assert_array_equal(b.last_write[:2], [0, 1])

    def test_off_simplex_rejected(self):
        b = MemoryBank("full", 4, 1, 2)
        with pytest.raises(InvalidInputError):
            b.update([0], [[1.0]], [[0.7, 0.7]])

    def test_full_mode_id_beyond_capacity(self):
        b = MemoryBank("full", 4, 1, 2)
        with pytest.raises(InvalidInputError, match="sample id 4 .* capacity 4"):
            b.update([4], [[1.0]], [[0.5, 0.5]])
        assert b.filled == 0 and b.writes == 0

    def test_row_misalignment_rejected(self):
        b = MemoryBank("full", 4, 1, 2)
        with pytest.raises(ShapeError):
            b.update([0, 1], [[1.0]], [[0.5, 0.5]])

    def test_negative_id_rejected(self):
        b = MemoryBank("full", 4, 1, 2)
        with pytest.raises(InvalidInputError):
            b.update([-1], [[1.0]], [[0.5, 0.5]])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("ids", [[0.5], [1.0, 2.5], [np.nan], [np.inf], ["a"]])
    def test_non_integral_ids_rejected_not_truncated(self, mode, ids):
        b = MemoryBank(mode, 4, 1, 2)
        with pytest.raises(InvalidInputError, match="integers"):
            b.update(ids, np.ones((len(ids), 1)), uniform_preds(len(ids)))
        assert b.filled == 0 and (b.sample_ids == -1).all()

    def test_non_integral_ids_are_named(self):
        b = MemoryBank("ring", 4, 1, 2)
        with pytest.raises(InvalidInputError, match=r"\[2\.5\]"):
            b.update([1.0, 2.5], np.ones((2, 1)), uniform_preds(2))

    @pytest.mark.parametrize("mode", MODES)
    def test_integral_float_ids_accepted(self, mode):
        b = MemoryBank(mode, 4, 1, 2)
        b.update(np.array([3.0, 1.0]), [[1.0], [2.0]], uniform_preds(2))
        assert sorted(b.sample_ids[b.sample_ids >= 0].tolist()) == [1, 3]

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=60),
           st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_ring_retains_most_recent(self, inserted, capacity):
        # the ring holds the distinct ids among its last `capacity` writes,
        # each in its own row, with the row of its latest write
        b = MemoryBank("ring", capacity, 1, 2)
        for chunk_start in range(0, len(inserted), 5):
            chunk = inserted[chunk_start:chunk_start + 5]
            b.update(chunk, [[float(i + 100 * j)] for j, i in enumerate(chunk, chunk_start)],
                     uniform_preds(len(chunk)))
        expected = {}
        for j in range(max(0, len(inserted) - capacity), len(inserted)):
            expected[inserted[j]] = j
        held = b.sample_ids[b.sample_ids >= 0]
        assert sorted(held.tolist()) == sorted(expected)
        assert b.filled == len(expected)
        for sid, j in expected.items():
            assert b.sample_ids[sid] == sid
            assert b.features[sid, 0] == sid + 100 * j
            assert b.last_write[sid] == j


@st.composite
def batch_runs(draw):
    """A bank layout and the id batches of the writes that follow its seed
    write of every id: in full mode a permutation of the ids cut into
    batches (what an epoch writes), in ring mode any ids, so batches
    repeat ids and their total may pass the capacity."""
    mode = draw(st.sampled_from(MODES))
    pool = draw(st.integers(1, 40))
    capacity = pool if mode == "full" else draw(st.integers(1, 30))
    n_batches = draw(st.integers(1, 6))
    if mode == "full":
        ids = draw(st.permutations(range(pool)))
        cuts = sorted(draw(st.lists(st.integers(0, pool), min_size=n_batches - 1,
                                    max_size=n_batches - 1)))
        batches = [ids[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, pool])]
    else:
        batches = [draw(st.lists(st.integers(0, pool - 1), max_size=12))
                   for _ in range(n_batches)]
    return mode, capacity, pool, batches, draw(st.integers(0, 2**32 - 1))


class TestBatchedWrites:
    @given(batch_runs())
    @settings(max_examples=200, deadline=None)
    def test_one_write_of_the_concatenation_equals_one_write_per_batch(self, case):
        mode, capacity, pool, batches, seed = case
        rng = np.random.default_rng(seed)

        def rows(n):
            # normal, zero, tiny and huge rows, so every unit_rows branch runs
            scale = rng.choice([1.0, 0.0, 1e-170, 1e200], size=(n, 1))
            return rng.standard_normal((n, 3)) * scale, rng.dirichlet(np.ones(4), size=n)

        writes = [(np.asarray(ids, dtype=np.int64), *rows(len(ids))) for ids in batches]
        one_by_one, at_once = (MemoryBank(mode, capacity, 3, 4) for _ in range(2))
        seed_write = (np.arange(pool), *rows(pool))
        for b in (one_by_one, at_once):
            b.update(*seed_write)
        for write in writes:
            one_by_one.update(*write)
        at_once.update(*(np.concatenate(part) for part in zip(*writes)))

        for name in ("features", "unit", "zero_norm", "predictions", "sample_ids", "last_write"):
            got, want = getattr(at_once, name), getattr(one_by_one, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert (at_once.writes, at_once.filled) == (one_by_one.writes, one_by_one.filled)


@st.composite
def ring_writes(draw):
    """A ring capacity, the id pool every write draws from, and id
    batches that repeat ids, within a batch too, and may pass the
    capacity in total. Coarse features force ties and zero-norm rows."""
    capacity = draw(st.integers(1, 12))
    pool = draw(st.integers(1, 30))
    coord = st.integers(-2, 2).map(float)
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        ids = draw(st.lists(st.integers(0, pool - 1), max_size=12))
        batches.append((ids, [[draw(coord), draw(coord)] for _ in ids]))
    return capacity, pool, batches


class TestIdLayout:
    @given(ring_writes(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_ring_equals_a_full_bank_restricted_to_its_window(self, case, k):
        # a full bank fed the same writes, then only the rows of the ids
        # written in the last `capacity` writes, is what the ring holds
        capacity, pool, batches = case
        ring, full = MemoryBank("ring", capacity, 2, 2), MemoryBank("full", pool, 2, 2)
        for ids, feats in batches:
            for b in (ring, full):
                b.update(ids, np.reshape(feats, (-1, 2)), uniform_preds(len(ids)))
        every_write = [i for ids, _ in batches for i in ids]
        window = np.unique(every_write[max(len(every_write) - capacity, 0):]).astype(np.int64)
        window_bank = MemoryBank("full", pool, 2, 2)
        window_bank.update(window, full.features[window], full.predictions[window])

        for got, want in zip(ring.snapshot(), window_bank.snapshot()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert ring.filled == window.size
        held = ring.occupied()
        assert ring.unit[held].tobytes() == window_bank.unit[held].tobytes()
        if window.size > k:
            queries = window_bank.features[window]
            for excl in (window, None):
                for got, want in zip(ring.knn_batch(queries, k, excl),
                                     window_bank.knn_batch(queries, k, excl)):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_last_copy_of_a_repeated_id_wins(self, mode):
        b = MemoryBank(mode, 4, 1, 2)
        preds = [[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4], [0.5, 0.5]]
        b.update([3, 1, 3, 3, 1], [[1.0], [2.0], [3.0], [-4.0], [5.0]], preds)
        assert b.sample_ids.tolist() == [-1, 1, -1, 3]
        np.testing.assert_array_equal(b.features[[1, 3], 0], [5.0, -4.0])
        np.testing.assert_array_equal(b.unit[[1, 3], 0], [1.0, -1.0])
        np.testing.assert_array_equal(b.predictions[[1, 3]], [[0.5, 0.5], [0.6, 0.4]])
        np.testing.assert_array_equal(b.last_write[[1, 3]], [4, 3])
        assert b.writes == 5 and b.filled == 2
        # many copies of one id, past the capacity
        b.update([2] * 9, np.arange(9.0)[:, None] + 1.0, uniform_preds(9))
        assert b.features[2, 0] == 9.0 and b.last_write[2] == 13
        held = [1, 2, 3] if mode == "full" else [2]
        assert b.occupied().tolist() == held

    def test_ring_with_ids_past_its_capacity(self):
        b = MemoryBank("ring", 2, 2, 2)
        b.update([5, 9, 7], [[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]], uniform_preds(3))
        assert b.sample_ids.size == 10 and b.features.shape == (10, 2)
        assert b.occupied().tolist() == [7, 9] and b.filled == 2
        np.testing.assert_array_equal(b.features[[7, 9]], [[1.0, 0.1], [0.0, 1.0]])
        # a smaller id fits the grown rows; id 9 leaves the window
        b.update([0], [[1.0, 0.2]], uniform_preds(1))
        assert b.sample_ids.size == 10 and b.occupied().tolist() == [0, 7]
        ids, feats, _ = b.knn_batch([[1.0, 0.0]], 1)
        assert ids.tolist() == [[7]] and feats.tolist() == [[[1.0, 0.1]]]
        ids, _, _ = b.snapshot()
        assert ids.tolist() == [0, 7]


class TestKnn:
    def test_hand_cosine_example(self):
        b = MemoryBank("full", 3, 2, 2)
        b.update([0, 1, 2], [[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]], uniform_preds(3))
        ids, _, preds = b.knn_batch([[1.0, 0.0]], k=1, exclude_ids=[0])
        ids, preds = ids[0], preds[0]
        assert ids.tolist() == [2]

    def test_self_exclusion(self):
        b = MemoryBank("full", 3, 2, 2)
        b.update([0, 1, 2], [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], uniform_preds(3))
        ids = b.knn_batch([[1.0, 0.0]], k=1, exclude_ids=[0])[0][0]
        assert 0 not in ids

    def test_tie_breaks_to_lower_id(self):
        b = MemoryBank("full", 4, 2, 2)
        # ids 1 and 3 have identical direction, so identical cosine
        b.update([0, 1, 2, 3],
                 [[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [2.0, 0.0]],
                 uniform_preds(4))
        ids = b.knn_batch([[1.0, 0.0]], k=2)[0][0]
        assert ids.tolist() == [1, 3]

    def test_zero_norm_feature_never_selected(self):
        b = MemoryBank("full", 3, 2, 2)
        b.update([0, 1, 2], [[0.0, 0.0], [0.1, 0.0], [-1.0, 0.0]], uniform_preds(3))
        ids = b.knn_batch([[1.0, 0.0]], k=2)[0][0]
        assert ids.tolist() == [1, 2]

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
    def test_non_integral_k_rejected(self, k):
        b = MemoryBank("full", 4, 2, 2)
        b.update(np.arange(4), np.eye(4, 2) + 1.0, uniform_preds(4))
        with pytest.raises(ConfigError, match="integer"):
            b.knn_slots([[1.0, 0.0]], k)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("excl", [[0.5], [np.nan], ["a"]])
    def test_non_integral_exclude_ids_rejected_not_truncated(self, mode, excl):
        # 0.5 must not be truncated to id 0, which would exclude a row
        b = MemoryBank(mode, 4, 2, 2)
        b.update(np.arange(4), [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                 uniform_preds(4))
        with pytest.raises(InvalidInputError, match="integers"):
            b.knn_batch([[1.0, 0.0]], 1, exclude_ids=excl)

    @pytest.mark.parametrize("mode", MODES)
    def test_integral_float_exclude_ids_accepted(self, mode):
        b = MemoryBank(mode, 4, 2, 2)
        b.update(np.arange(4), [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                 uniform_preds(4))
        ids = b.knn_batch([[1.0, 0.0]], 1, exclude_ids=[0.0])[0]
        assert ids.tolist() == [[1]]

    def test_insufficient_data(self):
        b = MemoryBank("full", 4, 2, 2)
        b.update([0, 1], [[1.0, 0.0], [0.0, 1.0]], uniform_preds(2))
        with pytest.raises(InsufficientDataError):
            b.knn_batch([[1.0, 0.0]], k=2)

    def test_predictions_are_snapshots(self):
        b = MemoryBank("full", 3, 2, 2)
        b.update([0, 1, 2], [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]],
                 [[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
        ids, _, preds = b.knn_batch([[1.0, 0.0]], k=1, exclude_ids=[0])
        ids, preds = ids[0], preds[0]
        before = preds.copy()
        b.update(ids, [[0.5, 0.5]], [[0.5, 0.5]])
        np.testing.assert_array_equal(preds, before)

    def test_cosine_scale_invariance(self):
        rng = np.random.Generator(np.random.PCG64(3))
        feats = rng.normal(size=(10, 3))
        b1 = MemoryBank("full", 10, 3, 2)
        b1.update(np.arange(10), feats, uniform_preds(10))
        b2 = MemoryBank("full", 10, 3, 2)
        scales = rng.uniform(0.1, 9.0, size=(10, 1))
        b2.update(np.arange(10), feats * scales, uniform_preds(10))
        q = rng.normal(size=3)
        ids1 = b1.knn_batch([q], k=4)[0][0]
        ids2 = b2.knn_batch([5.0 * q], k=4)[0][0]
        np.testing.assert_array_equal(ids1, ids2)

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_ranks_by_cosine_when_norms_leave_the_float_range(self, scale):
        # the squared norms overflow (1e400) or underflow (1e-340); rescaled
        # rows keep their cosines, so the ranking equals the one at scale 1
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.1]])
        b = MemoryBank("full", 4, 2, 2)
        b.update(np.arange(4), feats * scale, uniform_preds(4))
        queries = np.array([[1.0, 0.0], [scale, 0.0], [0.0, scale]])
        np.testing.assert_array_equal(b.knn_slots(queries, 2), [[0, 3], [0, 3], [1, 3]])

    def test_matches_brute_force_random(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(30):
            n = int(rng.integers(4, 60))
            h = int(rng.integers(2, 6))
            k = int(rng.integers(1, min(n - 1, 8) + 1))
            feats = rng.normal(size=(n, h))
            b = MemoryBank("full", n, h, 2)
            b.update(np.arange(n), feats, uniform_preds(n))
            q = rng.normal(size=h)
            excl = int(rng.integers(0, n))
            ids = b.knn_batch([q], k=k, exclude_ids=[excl])[0][0]
            assert ids.tolist() == brute_force_knn(np.arange(n), feats, q, k, excl)

    def test_ring_mode_knn_over_buffer(self):
        b = MemoryBank("ring", 4, 2, 2)
        b.update([0, 1, 2, 3, 4, 5],
                 [[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.0, -1.0],
                  [1.0, 0.05], [-1.0, 0.0]],
                 uniform_preds(6))
        # buffer now holds ids 2..5; closest to (1,0) among them is 4 then 2
        ids = b.knn_batch([[1.0, 0.0]], k=2)[0][0]
        assert ids.tolist() == [4, 2]


def oracle_knn_batch(bank, queries, k, exclude_ids):
    """Full stable sort on (-cosine, id) over the bank's id-ordered rows,
    computed with the bank's own arithmetic (each row divided by its own
    norm, then one product of the unit rows) and dropping each query's
    excluded id."""
    ids, feats, _ = bank.snapshot()
    qn = np.linalg.norm(queries, axis=1)
    fn = np.linalg.norm(feats, axis=1)
    sims = ((queries / np.where(qn > 0, qn, 1.0)[:, None])
            @ (feats / np.where(fn > 0, fn, 1.0)[:, None]).T)
    sims[:, fn == 0.0] = -np.inf
    sims[qn == 0.0, :] = -np.inf
    out = []
    for r in range(queries.shape[0]):
        keep = ids != exclude_ids[r]
        order = np.lexsort((ids[keep], -sims[r, keep]))
        out.append(ids[keep][order[:k]].tolist())
    return out


@st.composite
def banks_with_queries(draw):
    """A full or ring bank written in several batches from a small id pool
    (so a ring holds rewritten ids), plus query rows and excluded ids
    drawn from what it stores. Coarse feature values force ties and
    zero-norm rows."""
    mode = draw(st.sampled_from(MODES))
    pool = draw(st.integers(4, 24))
    capacity = pool if mode == "full" else draw(st.integers(2, 30))
    k = draw(st.integers(1, 4))
    bank = MemoryBank(mode, capacity, 2, 2)
    coord = st.integers(-2, 2).map(float)
    for _ in range(draw(st.integers(1, 6))):
        ids = draw(st.lists(st.integers(0, pool - 1), min_size=1, max_size=12,
                            unique=mode == "full"))
        feats = [[draw(coord), draw(coord)] for _ in ids]
        bank.update(ids, feats, uniform_preds(len(ids)))
    stored, stored_feats, _ = bank.snapshot()
    rows = draw(st.lists(st.integers(0, stored.size - 1), min_size=1, max_size=8))
    return bank, stored_feats[rows], stored[rows], k


class TestExclusion:
    def test_excluded_not_returned_when_others_are_zero_norm(self):
        b = MemoryBank("full", 4, 2, 2)
        b.update([0, 1, 2, 3], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                 uniform_preds(4))
        ids = b.knn_batch([[1.0, 0.0]], k=3, exclude_ids=[0])[0][0]
        assert ids.tolist() == [1, 2, 3]

    def test_excluded_not_returned_for_zero_norm_query(self):
        b = MemoryBank("full", 4, 2, 2)
        b.update([0, 1, 2, 3], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]],
                 uniform_preds(4))
        ids = b.knn_batch([[0.0, 0.0]], k=2, exclude_ids=[0])[0][0]
        assert ids.tolist() == [1, 2]

    def test_excluded_inside_tie_group_straddling_kth_place(self):
        b = MemoryBank("full", 6, 2, 2)
        # id 4 is nearest; ids 0, 1, 3, 5 differ by powers of two in length,
        # so their cosines to the query tie exactly for second place
        b.update(np.arange(6),
                 [[1.0, 1.0], [2.0, 2.0], [0.0, 1.0], [4.0, 4.0], [1.0, 0.9], [0.5, 0.5]],
                 uniform_preds(6))
        q = [1.0, 0.8]
        ids = b.knn_batch([q], k=3)[0][0]
        assert ids.tolist() == [4, 0, 1]
        ids = b.knn_batch([q], k=3, exclude_ids=[1])[0][0]
        assert ids.tolist() == [4, 0, 3]
        ids = b.knn_batch([q], k=3, exclude_ids=[0])[0][0]
        assert ids.tolist() == [4, 1, 3]

    def test_ring_holds_one_copy_of_a_rewritten_id(self):
        b = MemoryBank("ring", 5, 2, 2)
        # id 7 is written three times, twice in one batch and once after;
        # every write sits right next to the query
        b.update([7, 1, 7], [[1.0, 0.0], [0.0, 1.0], [1.0, 0.01]], uniform_preds(3))
        b.update([2, 7], [[-1.0, 0.0], [1.0, -0.01]], uniform_preds(2))
        assert b.sample_ids.tolist() == [-1, 1, 2, -1, -1, -1, -1, 7]
        assert b.filled == 3
        np.testing.assert_array_equal(b.features[7], [1.0, -0.01])
        assert b.last_write[7] == 4
        ids = b.knn_batch([[1.0, 0.0]], k=2, exclude_ids=[7])[0][0]
        assert ids.tolist() == [1, 2]
        ids = b.knn_batch([[1.0, 0.0]], k=2, exclude_ids=[1])[0][0]
        assert ids.tolist() == [7, 2]

    def test_ring_too_few_rows_besides_excluded_id(self):
        b = MemoryBank("ring", 4, 2, 2)
        b.update([7, 7, 7, 1], [[1.0, 0.0], [1.0, 0.1], [1.0, 0.2], [0.0, 1.0]],
                 uniform_preds(4))
        with pytest.raises(InsufficientDataError):
            b.knn_batch([[1.0, 0.0]], k=2, exclude_ids=[7])

    @given(banks_with_queries())
    @settings(max_examples=200, deadline=None)
    def test_query_never_returns_its_own_id(self, case):
        bank, queries, own_ids, k = case
        stored = bank.snapshot()[0]
        if min(int(np.sum(stored != i)) for i in own_ids) < k:
            with pytest.raises(InsufficientDataError):
                bank.knn_batch(queries, k, exclude_ids=own_ids)
            return
        got, _, _ = bank.knn_batch(queries, k, exclude_ids=own_ids)
        assert got.shape == (len(own_ids), k)
        assert not np.any(got == own_ids[:, None])
        assert got.tolist() == oracle_knn_batch(bank, queries, k, own_ids)

    @given(banks_with_queries())
    @settings(max_examples=200, deadline=None)
    def test_no_row_holds_an_id_twice(self, case):
        bank, queries, own_ids, k = case
        stored = bank.snapshot()[0]
        assert np.unique(stored).size == stored.size == bank.filled
        if stored.size <= k:
            return
        for excl in (own_ids, None):
            got, _, _ = bank.knn_batch(queries, k, exclude_ids=excl)
            assert all(np.unique(row).size == k for row in got)


class TestUnitRows:
    @staticmethod
    def stored_rows(bank):
        slots = bank.occupied()
        return bank.features[slots], bank.unit[slots], bank.zero_norm[slots]

    @given(banks_with_queries(), st.sampled_from([1e200, 1e-170]))
    @settings(max_examples=100, deadline=None)
    def test_each_slot_holds_its_row_divided_by_its_norm(self, case, scale):
        bank = case[0]
        feats, unit, zero = self.stored_rows(bank)
        norms = np.linalg.norm(feats, axis=1)
        assert np.array_equal(zero, norms == 0.0)
        assert np.array_equal(unit[zero], feats[zero])
        assert np.array_equal(unit[~zero], feats[~zero] / norms[~zero, None])
        # rewrite every stored row scaled so its squared norm leaves the
        # float range: the unit rows come out finite and unit all the same
        ids, stored, _ = bank.snapshot()
        bank.update(ids, stored * scale, uniform_preds(ids.size))
        scaled, scaled_unit, scaled_zero = self.stored_rows(bank)
        assert np.array_equal(scaled, feats * scale)
        assert np.array_equal(scaled_zero, zero)
        assert np.isfinite(scaled_unit).all()
        assert np.array_equal(scaled_unit[zero], feats[zero])
        np.testing.assert_allclose(np.linalg.norm(scaled_unit[~zero], axis=1), 1.0,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(scaled_unit, unit, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mode", MODES)
    def test_knn_normalises_its_queries_and_nothing_else(self, mode, monkeypatch):
        rng = np.random.default_rng(5)
        n, q = 50, 6
        bank = MemoryBank(mode, n if mode == "full" else 64, 3, 2)
        bank.update(np.arange(n), rng.normal(size=(n, 3)), uniform_preds(n))
        rows = []
        real = numerics.rescaled_rows

        def counted(M):
            rows.append(M.shape[0])
            return real(M)

        # the rescaler every row normalisation of the bank goes through,
        # wherever the bank's code looks it up
        for module in (numerics, bank_module):
            if getattr(module, "rescaled_rows", None) is real:
                monkeypatch.setattr(module, "rescaled_rows", counted)
        bank.knn_slots(rng.normal(size=(q, 3)), 3)
        assert rows == [q]
        # queries that are stored rows, excluding their own ids, as in
        # adapt and the agreement ratios, are normalised the same way
        rows.clear()
        ids, feats, _ = bank.snapshot()
        bank.knn_slots(feats[:q], 3, exclude_ids=ids[:q])
        assert rows == [q]


def slots_per_block_size(bank, queries, k, exclude_ids):
    """knn_slots under query blocks of 1 (raised to 2), 7 and all rows;
    one block of all rows is the arithmetic of an unblocked call."""
    out = []
    for size in (1, 7, len(queries)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_ROWS", size)
            out.append(bank.knn_slots(queries, k, exclude_ids=exclude_ids))
    return out


@st.composite
def all_pairs_banks(draw):
    """A full or ring bank whose every stored row is also a query, as in
    the per-epoch agreement ratios; sometimes the full bank holds every
    row. Coarse features force ties, zero-norm rows
    and zero-norm queries; being small integers, their dot products are
    exact in any summation order, so every block size must agree to the
    bit."""
    mode = draw(st.sampled_from(MODES))
    pool = draw(st.integers(5, 40))
    capacity = pool if mode == "full" else draw(st.integers(5, 40))
    k = draw(st.integers(1, 4))
    bank = MemoryBank(mode, capacity, 2, 2)
    coord = st.integers(-2, 2).map(float)
    writes = [list(range(pool))] if mode == "full" and draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 4))):
        writes.append(draw(st.lists(st.integers(0, pool - 1), min_size=1, max_size=40,
                                    unique=mode == "full")))
    for ids in writes:
        bank.update(ids, [[draw(coord), draw(coord)] for _ in ids], uniform_preds(len(ids)))
    assume(bank.filled > k)
    return bank, k


class TestQueryBlocks:
    @given(all_pairs_banks())
    @settings(max_examples=150, deadline=None)
    def test_blocks_match_one_block_and_the_oracle(self, case):
        bank, k = case
        ids, feats, _ = bank.snapshot()
        for excl in (ids, None):
            per_size = slots_per_block_size(bank, feats, k, excl)
            for slots in per_size:
                assert np.array_equal(slots, per_size[-1])
            if excl is not None:
                got = bank.sample_ids[per_size[-1]].tolist()
                assert got == oracle_knn_batch(bank, feats, k, ids)

    @pytest.mark.parametrize("mode", MODES)
    def test_fallback_rows_on_both_sides_of_a_block_edge(self, mode):
        # 20 ids, five of them zero-norm; query rows 6, 7, 13 and 14 are
        # zero-norm, so they rank every row at the same floor similarity
        # and fill their places in id order. Blocks of 7 end at rows 6 and 13; blocks of 2 (the
        # least a block holds) end at row 13.
        rng = np.random.default_rng(3)
        feats = rng.integers(-2, 3, size=(20, 2)).astype(float)
        feats[[6, 7, 13, 14, 19]] = 0.0
        capacity = 20 if mode == "full" else 24
        bank = MemoryBank(mode, capacity, 2, 2)
        if mode == "ring":  # write some ids twice; the second write wins
            bank.update([3, 19, 5], np.ones((3, 2)), uniform_preds(3))
        bank.update(np.arange(20)[::-1], feats[::-1], uniform_preds(20))
        ids, stored, _ = bank.snapshot()
        assert ids.tolist() == list(range(20))
        k = 4
        per_size = slots_per_block_size(bank, stored, k, ids)
        for slots in per_size:
            assert np.array_equal(slots, per_size[-1])
        got = bank.sample_ids[per_size[-1]]
        assert got.tolist() == oracle_knn_batch(bank, stored, k, ids)
        for r in (6, 7, 13, 14):
            assert got[r].tolist() == [0, 1, 2, 3]


def slots_and_rescaled_rows(bank, queries, k, exclude_ids):
    """knn_slots of the queries, and how many rows it normalised."""
    rows = []
    real = numerics.rescaled_rows

    def counted(M):
        rows.append(M.shape[0])
        return real(M)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "rescaled_rows", counted)
        slots = bank.knn_slots(queries, k, exclude_ids=exclude_ids)
    return slots, sum(rows)


class TestStoredQueries:
    """Queries that are the stored rows of their excluded ids, as in every
    retrieval of ``adapt`` and of the agreement ratios, and the same
    queries times 2 (exact in floating point, so the unit rows are the
    same bits) must rank alike, ties and zero-norm rows included."""

    @given(banks_with_queries())
    @settings(max_examples=200, deadline=None)
    def test_reused_and_normalised_queries_rank_alike(self, case):
        bank, queries, own_ids, k = case
        stored = bank.snapshot()[0]
        assume(min(int(np.sum(stored != i)) for i in own_ids) >= k)
        as_is = bank.knn_slots(queries, k, exclude_ids=own_ids)
        scaled = bank.knn_slots(2.0 * queries, k, exclude_ids=own_ids)
        assert as_is.tobytes() == scaled.tobytes()

    @given(all_pairs_banks())
    @settings(max_examples=100, deadline=None)
    def test_every_stored_row_as_a_query(self, case):
        # the all-pairs retrieval of the agreement ratios; a full bank may
        # hold every row
        bank, k = case
        ids, feats, _ = bank.snapshot()
        as_is = bank.knn_slots(feats, k, exclude_ids=ids)
        scaled = bank.knn_slots(2.0 * feats, k, exclude_ids=ids)
        assert as_is.tobytes() == scaled.tobytes()
        assert bank.sample_ids[as_is].tolist() == oracle_knn_batch(bank, feats, k, ids)

    @pytest.mark.parametrize("mode", MODES)
    def test_queries_that_are_not_their_stored_rows_are_normalised(self, mode):
        bank = MemoryBank(mode, 6, 2, 2)
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [2.0, 1.0]])
        bank.update(np.arange(5), feats, uniform_preds(5))
        for queries, excl in ((feats[[0, 1]], [1, 0]),        # another row's id
                              (feats[[0, 1]] + 0.5, [0, 1]),  # a different row
                              (feats[[0, 1]], [0, 9])):       # an id not stored
            queries = np.asarray(queries)
            slots, normalised_rows = slots_and_rescaled_rows(bank, queries, 2, excl)
            assert normalised_rows == 2
            assert bank.sample_ids[slots].tolist() == oracle_knn_batch(bank, queries, 2, excl)


class TestDumpAndSnapshot:
    def test_snapshot_detached(self):
        b = MemoryBank("full", 2, 1, 2)
        b.update([0, 1], [[1.0], [2.0]], uniform_preds(2))
        ids, feats, preds = b.snapshot()
        b.update([0], [[9.0]], [[0.1, 0.9]])
        assert feats[0, 0] == 1.0
        np.testing.assert_array_equal(preds[0], [0.5, 0.5])
