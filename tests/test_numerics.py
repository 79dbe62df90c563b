import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sfdalab import numerics
from sfdalab.errors import InvalidInputError, OracleError, ShapeError
from sfdalab.numerics import (
    SCRATCH_MAX_ENTRIES,
    finite_diff_grad,
    max_relative_error,
    require_simplex_rows,
    rescaled_rows,
    scratch,
    single_blas_thread,
    softmax_rows,
    unit_rows,
)


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_closed_form(self):
        np.testing.assert_allclose(softmax_rows([[np.log(2.0), 0.0]]),
                                   [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = softmax_rows([[1000.0, 1000.0]])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            softmax_rows([[np.inf, 0.0]])
        with pytest.raises(InvalidInputError):
            softmax_rows([[np.nan, 1.0]])

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
                    min_size=1, max_size=8).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        P = softmax_rows(rows)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(P >= 0)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=5),
           st.floats(-100, 100))
    def test_shift_invariance(self, row, c):
        base = softmax_rows([row])
        shifted = softmax_rows([[v + c for v in row]])
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestL2NormalizeRows:
    """``unit_rows``, the package's one row normaliser."""

    def test_three_four_five(self):
        np.testing.assert_allclose(unit_rows(np.array([[3.0, 4.0]]))[0], [[0.6, 0.8]])

    def test_identity_on_unit(self):
        np.testing.assert_allclose(unit_rows(np.array([[1.0, 0.0]]))[0], [[1.0, 0.0]])

    def test_zero_row_unchanged(self):
        rows, zero = unit_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(rows, [[0.0, 0.0], [1.0, 0.0]])
        assert zero.tolist() == [True, False]

    @given(st.lists(st.lists(st.floats(-100, 100), min_size=2, max_size=4),
                    min_size=1, max_size=6).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @example(rows=[[0.0, 3.560057825048927e-162]])  # x**2 underflows
    def test_unit_or_zero_norms(self, rows):
        out, zero = unit_rows(np.array(rows))
        norms = np.linalg.norm(out, axis=1)
        for n, z in zip(norms, zero):
            assert (abs(n - 1.0) < 1e-9 and not z) or (n == 0.0 and z)

    def test_rows_outside_the_squared_range(self):
        rows = np.array([[1e-170, -1e-170], [3e-320, 0.0], [1e200, 1e200]])
        out, zero = unit_rows(rows)
        h = np.sqrt(0.5)
        np.testing.assert_allclose(out, [[h, -h], [1.0, 0.0], [h, h]], rtol=1e-15)
        assert not zero.any()

    def test_well_scaled_rows_are_divided_by_their_norm(self):
        rng = np.random.Generator(np.random.PCG64(5))
        M = rng.dirichlet([1.0, 1.0, 1.0], size=50)
        M[7] = 0.0
        norms = np.linalg.norm(M, axis=1, keepdims=True)
        want = M / np.where(norms > 0.0, norms, 1.0)
        assert np.array_equal(unit_rows(M)[0], want)


# rows of tiny (squared norm underflows), huge (squared norm overflows),
# ordinary and zero entries
_ROW_SCALES = st.sampled_from([0.0, 1e-300, 1e-170, 1e-160, 1.0, 1e150, 1e160, 1e300])


@st.composite
def scaled_matrices(draw):
    # past 8 columns numpy's pairwise add.reduce unrolls its accumulation;
    # the bank sees feature widths of 15 and more
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * cols,
                            max_size=rows * cols))
    scales = draw(st.lists(_ROW_SCALES, min_size=rows, max_size=rows))
    return np.array(entries).reshape(rows, cols) * np.array(scales)[:, None]


class TestRescaledRows:
    @given(scaled_matrices())
    def test_norms_are_those_of_np_linalg_norm_bit_for_bit(self, M):
        rows, norms = rescaled_rows(M)
        assert np.isfinite(norms).all()
        want = np.linalg.norm(rows, axis=1)
        assert norms.tobytes() == want.tobytes()
        # rows whose norm is in range are returned as they are
        with np.errstate(over="ignore"):
            before = np.linalg.norm(M, axis=1)
        kept = (before >= np.sqrt(np.finfo(np.float64).tiny)) & (before < np.inf)
        assert rows[kept].tobytes() == M[kept].tobytes()
        assert norms[kept].tobytes() == before[kept].tobytes()

    @given(scaled_matrices())
    def test_each_row_comes_out_as_it_would_alone(self, M):
        rows, norms = rescaled_rows(M)
        for i in range(M.shape[0]):
            one_rows, one_norm = rescaled_rows(M[i:i + 1])
            assert one_rows.tobytes() == rows[i:i + 1].tobytes()
            assert one_norm.tobytes() == norms[i:i + 1].tobytes()

    def test_input_is_returned_when_every_row_is_in_range(self):
        M = np.array([[3.0, 4.0], [1.0, 0.0]])
        rows, norms = rescaled_rows(M)
        assert rows is M and norms.tolist() == [5.0, 1.0]


def old_simplex_verdict(P, tol):
    """The elementwise checks require_simplex_rows replaced, as the oracle
    of its verdicts and messages."""
    if (P < -tol).any():
        return "has negative entries"
    sums = P.sum(axis=1)
    if (np.abs(sums - 1.0) > tol).any():
        return f"rows do not sum to 1 (max dev {np.abs(sums - 1).max():.3g})"
    return None


class TestRequireSimplexRows:
    @given(st.integers(0, 6), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-6, 1e-3]))
    def test_verdicts_and_messages_match_the_elementwise_checks(self, n, c, seed, tol):
        rng = np.random.default_rng(seed)
        P = rng.dirichlet(np.ones(c), size=n)
        # nudge entries by about the tolerance, either way
        P = P + rng.choice([0.0, 0.5, 1.0, 2.0], size=P.shape) * tol * rng.choice([-1, 1], size=P.shape)
        want = old_simplex_verdict(P, tol)
        if want is None:
            assert require_simplex_rows(P, tol=tol, name="P") is not None
        else:
            with pytest.raises(InvalidInputError) as err:
                require_simplex_rows(P, tol=tol, name="P")
            assert str(err.value) == f"P {want}"

    def test_empty_matrix_passes(self):
        assert require_simplex_rows(np.zeros((0, 3))).shape == (0, 3)


class TestFiniteDiffGrad:
    def test_quadratic(self):
        g = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]), h=1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant(self):
        g = finite_diff_grad(lambda v: 7.5, np.arange(4.0))
        np.testing.assert_allclose(g, 0.0)

    def test_degree_two_polynomial_near_exact(self):
        # central differences are exact on quadratics up to roundoff
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = np.array([-1.0, 3.0])
        x = np.array([0.7, -1.3])
        g = finite_diff_grad(lambda v: float(v @ A @ v + b @ v), x, h=1e-5)
        exact = (A + A.T) @ x + b
        np.testing.assert_allclose(g, exact, atol=1e-8)

    def test_non_finite_probe_raises(self):
        def f(v):
            return float("inf") if v[0] < 0 else float(v[0])

        with pytest.raises(OracleError):
            finite_diff_grad(f, np.array([1e-9]), h=1e-5)

    def test_bad_step_rejected(self):
        with pytest.raises(InvalidInputError):
            finite_diff_grad(lambda v: 0.0, np.zeros(2), h=0.0)


class TestMaxRelativeError:
    def test_zero_for_equal(self):
        assert max_relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_floor_guards_small_denominators(self):
        # |1e-9 - 0| / max(1e-8, 0) = 0.1
        assert abs(max_relative_error([1e-9], [0.0]) - 0.1) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            max_relative_error([1.0], [1.0, 2.0])


class TestScratch:
    def test_same_name_reuses_memory_across_shapes(self):
        a = scratch("test.a", (6, 5))
        assert a.shape == (6, 5) and a.dtype == np.float64 and a.flags.c_contiguous
        b = scratch("test.a", (2, 7))
        assert b.shape == (2, 7) and np.shares_memory(a, b)

    def test_names_do_not_share(self):
        assert not np.shares_memory(scratch("test.b", (4, 4)), scratch("test.c", (4, 4)))

    def test_oversized_request_is_not_pooled(self):
        shape = (SCRATCH_MAX_ENTRIES + 1,)
        assert not np.shares_memory(scratch("test.d", shape), scratch("test.d", shape))


class TestRowBlocks:
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 128])
    def test_blocks_tile_the_range_and_never_hold_one_row(self, monkeypatch, block):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", block)
        for n in range(300):
            blocks = list(numerics.row_blocks(n))
            assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n))
            assert all(hi - lo >= 2 for lo, hi in blocks) or n == 1
            assert all(hi - lo <= max(block, 2) + 1 for lo, hi in blocks)


class TestSingleBlasThread:
    def test_one_thread_inside_and_restored_after(self, blas_threads):
        with single_blas_thread():
            assert blas_threads() == 1
            with single_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restored_when_the_body_raises(self, blas_threads):
        with pytest.raises(ZeroDivisionError):
            with single_blas_thread():
                assert blas_threads() == 1
                1 / 0
        assert blas_threads() == 2

    def test_overlapping_threads_restore_once_both_leave(self, blas_threads):
        # A enters, B enters, A leaves, B leaves: the count stays 1 until B
        # leaves, then is 2 again
        steps = [threading.Event() for _ in range(3)]
        seen = {}

        def a():
            with single_blas_thread():
                steps[0].set()
                steps[1].wait(10)
            steps[2].set()

        def b():
            steps[0].wait(10)
            with single_blas_thread():
                steps[1].set()
                steps[2].wait(10)
                seen["after A left"] = blas_threads()

        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not any(t.is_alive() for t in threads)
        assert all(s.is_set() for s in steps)
        assert seen == {"after A left": 1}
        assert blas_threads() == 2

    def test_does_nothing_without_openblas(self, blas_threads, monkeypatch):
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
        with single_blas_thread():
            assert blas_threads() == 2
        assert blas_threads() == 2
