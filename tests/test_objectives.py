"""Objective values against hand-computed cases and finite-difference oracles."""

import numpy as np
import pytest

from sfdalab.errors import ConfigError, InvalidInputError, ShapeError
from sfdalab.numerics import finite_diff_grad, max_relative_error
from sfdalab.objectives import (
    LossResult,
    attract_disperse_loss,
    bnm_loss,
    cross_entropy_loss,
    disperse_only_loss,
    exact_aad_nll,
    infonce_loss,
    jensen_upper_bound,
    lambda_schedule,
    mi_loss,
    nc_loss,
)

GRAD_TOL = 1e-4


def random_simplex(rng, n, c):
    return rng.dirichlet(np.ones(c), size=n)


def random_neighbors(rng, n, k, c):
    return rng.dirichlet(np.ones(c), size=(n, k))


def fd_check(fn_of_flat, x0, analytic, tol=GRAD_TOL):
    fd = finite_diff_grad(fn_of_flat, x0.ravel())
    assert max_relative_error(analytic.ravel(), fd) <= tol


class TestLambdaSchedule:
    def test_starts_at_one(self):
        for beta in (0.0, 0.5, 1.0, 5.0):
            assert lambda_schedule(0, 100, beta) == 1.0

    def test_beta_zero_is_identity(self):
        assert all(lambda_schedule(i, 50, 0.0) == 1.0 for i in range(0, 51, 5))

    def test_endpoint_beta_one(self):
        assert abs(lambda_schedule(1000, 1000, 1.0) - 1.0 / 11.0) < 1e-12

    def test_monotone_non_increasing(self):
        vals = [lambda_schedule(i, 500, 2.0) for i in range(501)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            lambda_schedule(0, 100, -0.1)
        with pytest.raises(ConfigError):
            lambda_schedule(0, 0, 1.0)
        with pytest.raises(ConfigError):
            lambda_schedule(101, 100, 1.0)

    @pytest.mark.parametrize("beta", [-np.inf, np.nan])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ConfigError, match="beta"):
            lambda_schedule(3, 10, beta)

    def test_infinite_beta_is_the_step_limit(self):
        assert lambda_schedule(0, 10, np.inf) == 1.0
        assert lambda_schedule(3, 10, np.inf) == 0.0


class TestAttractDisperse:
    def test_one_hot_example(self):
        P = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        nbr = np.tile(np.array([1.0, 0.0]), (3, 1, 1))
        res = attract_disperse_loss(P, nbr, lam=1.0)
        # each row: attraction -p.n cancels against its dispersion sum
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_lambda_zero_is_pure_attraction(self):
        rng = np.random.default_rng(0)
        P = random_simplex(rng, 5, 3)
        nbr = random_neighbors(rng, 5, 2, 3)
        res = attract_disperse_loss(P, nbr, lam=0.0)
        manual = -np.mean([P[i] @ nbr[i].sum(axis=0) for i in range(5)])
        assert res.value == pytest.approx(manual, rel=1e-12)
        assert res.div_term == 0.0

    def test_two_row_dispersion_value(self):
        P = np.array([[0.7, 0.3], [0.2, 0.8]])
        nbr = np.zeros((2, 1, 2))
        nbr[:, 0, :] = [0.5, 0.5]
        res = attract_disperse_loss(P, nbr, lam=2.0)
        # dispersion: (p0.p1 + p1.p0)/2 = p0.p1, weighted by lambda
        expected_div = 2.0 * float(P[0] @ P[1])
        assert res.div_term == pytest.approx(expected_div, rel=1e-12)
        assert res.value == pytest.approx(res.dis_term + res.div_term, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gradient_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        bs, k, c = 6, 3, 4
        P = random_simplex(rng, bs, c)
        nbr = random_neighbors(rng, bs, k, c)
        lam = float(rng.uniform(0.1, 2.0))
        res = attract_disperse_loss(P, nbr, lam)
        fd_check(lambda v: attract_disperse_loss(v.reshape(bs, c), nbr, lam).value, P, res.grad)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf, "0.5", None,
                                     pytest.param(10**400, id="10**400")])
    def test_rejects_bad_lambda(self, lam):
        P = np.array([[0.7, 0.3], [0.2, 0.8]])
        with pytest.raises(ConfigError, match="lam"):
            attract_disperse_loss(P, np.full((2, 1, 2), 0.5), lam)

    def test_row_permutation_consistency(self):
        rng = np.random.default_rng(4)
        P = random_simplex(rng, 5, 3)
        nbr = random_neighbors(rng, 5, 2, 3)
        perm = np.array([3, 0, 4, 1, 2])
        a = attract_disperse_loss(P, nbr, 0.7)
        b = attract_disperse_loss(P[perm], nbr[perm], 0.7)
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert np.allclose(b.grad, a.grad[perm], rtol=1e-12, atol=0)

    def test_disperse_only_matches_lambda_difference(self):
        rng = np.random.default_rng(5)
        P = random_simplex(rng, 4, 3)
        nbr = random_neighbors(rng, 4, 2, 3)
        lam = 1.3
        full = attract_disperse_loss(P, nbr, lam)
        attract = attract_disperse_loss(P, nbr, 0.0)
        disp = disperse_only_loss(P, lam)
        assert disp.value == pytest.approx(full.value - attract.value, rel=1e-10)
        assert np.allclose(disp.grad, full.grad - attract.grad, atol=1e-14)

    def test_disperse_only_gradient(self):
        rng = np.random.default_rng(6)
        P = random_simplex(rng, 5, 3)
        res = disperse_only_loss(P, 0.8)
        fd_check(lambda v: disperse_only_loss(v.reshape(5, 3), 0.8).value, P, res.grad)

    def test_rejects_degenerate_inputs(self):
        P = np.array([[0.5, 0.5]])
        nbr = np.ones((1, 1, 2)) * 0.5
        with pytest.raises(ShapeError):
            attract_disperse_loss(P, nbr, 1.0)
        P2 = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ConfigError):
            attract_disperse_loss(P2, np.ones((2, 1, 2)) * 0.5, -0.5)
        with pytest.raises(ShapeError):
            attract_disperse_loss(P2, np.ones((2, 2)) * 0.5, 1.0)
        with pytest.raises(InvalidInputError):
            attract_disperse_loss(np.array([[0.9, 0.3], [0.5, 0.5]]), np.ones((2, 1, 2)) * 0.5, 1.0)

def direct_nll(i, A, close, background):
    """Independent oracle: explicit per-pair selection probabilities."""
    n = A.shape[0]
    exps = [np.exp(float(A[k] @ A[i])) for k in range(n)]
    z = sum(exps)
    total = 0.0
    for j in close:
        total -= np.log(exps[j] / z)
    for m in background:
        total += np.log(exps[m] / z)
    return total


class TestExactNll:
    def test_identical_rows_value(self):
        A = np.tile(np.array([0.3, 0.7]), (4, 1))
        val = exact_aad_nll(0, A, close=[1], background=[2, 3])
        # every selection probability is 1/4
        assert val == pytest.approx(-np.log(4.0), rel=1e-12)

    def test_close_equals_background_cancels(self):
        rng = np.random.default_rng(7)
        A = random_simplex(rng, 6, 3)
        assert exact_aad_nll(0, A, [2, 4], [2, 4]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_summation(self, seed):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(4, 12)), int(rng.integers(2, 5))
        A = random_simplex(rng, n, c)
        close = [1, 2]
        background = [j for j in range(n) if j not in (0, 1, 2)]
        got = exact_aad_nll(0, A, close, background)
        want = direct_nll(0, A, close, background)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_anchor_in_close_rejected(self):
        A = np.tile(np.array([0.5, 0.5]), (3, 1))
        with pytest.raises(InvalidInputError):
            exact_aad_nll(1, A, [1], [2])

    def test_index_range_checked(self):
        A = np.tile(np.array([0.5, 0.5]), (3, 1))
        with pytest.raises(InvalidInputError):
            exact_aad_nll(0, A, [5], [1])


@pytest.mark.parametrize("fn", [exact_aad_nll, jensen_upper_bound])
@pytest.mark.parametrize("i", [-1, 4])
def test_anchor_index_outside_range_rejected(fn, i):
    A = np.full((4, 2), 0.5)
    with pytest.raises(InvalidInputError, match="anchor index"):
        fn(i, A, [1], [2, 3])


class TestJensenBound:
    def test_equality_on_identical_predictions(self):
        A = np.tile(np.array([0.2, 0.5, 0.3]), (5, 1))
        exact = exact_aad_nll(0, A, [1], [2, 3, 4])
        bound = jensen_upper_bound(0, A, [1], [2, 3, 4])
        assert bound == pytest.approx(exact, abs=1e-9)

    def test_equality_on_uniform_rows(self):
        A = np.full((6, 4), 0.25)
        exact = exact_aad_nll(2, A, [0], [1, 3, 4])
        bound = jensen_upper_bound(2, A, [0], [1, 3, 4])
        assert bound == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_dominates_exact_nll(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, c = int(rng.integers(5, 32)), int(rng.integers(2, 8))
        A = random_simplex(rng, n, c)
        idx = rng.permutation(n - 1) + 1
        n_close = int(rng.integers(1, max(2, (n - 1) // 2)))
        close = idx[:n_close].tolist()
        background = idx[n_close:].tolist()
        if len(close) >= len(background):
            pytest.skip("partition too small for the precondition")
        exact = exact_aad_nll(0, A, close, background)
        bound = jensen_upper_bound(0, A, close, background)
        assert bound - exact >= -1e-9

    def test_precondition_enforced(self):
        A = np.full((4, 2), 0.5)
        with pytest.raises(InvalidInputError):
            jensen_upper_bound(0, A, [1, 2], [3])


class TestMutualInformation:
    def test_uniform_rows_zero(self):
        P = np.full((4, 3), 1.0 / 3.0)
        assert mi_loss(P).value == pytest.approx(0.0, abs=1e-12)

    def test_two_opposite_onehots(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert mi_loss(P).value == pytest.approx(-np.log(2.0), rel=1e-12)

    def test_collapsed_onehots_zero(self):
        P = np.tile(np.array([1.0, 0.0]), (5, 1))
        assert mi_loss(P).value == pytest.approx(0.0, abs=1e-10)

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(11)
        P = random_simplex(rng, 7, 4)
        perm = rng.permutation(7)
        a, b = mi_loss(P), mi_loss(P[perm])
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert np.allclose(b.grad, a.grad[perm], atol=1e-14)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gradient_matches_finite_difference(self, seed):
        rng = np.random.default_rng(200 + seed)
        P = random_simplex(rng, 6, 3)
        res = mi_loss(P)
        fd_check(lambda v: mi_loss(v.reshape(6, 3)).value, P, res.grad)

    def test_term_split(self):
        rng = np.random.default_rng(12)
        P = random_simplex(rng, 5, 3)
        res = mi_loss(P)
        assert res.value == pytest.approx(res.dis_term + res.div_term, rel=1e-12)


class TestBnm:
    def test_fnorm_one_hot_rows(self):
        P = np.eye(4)
        assert bnm_loss(P, "fnorm").value == pytest.approx(-2.0, rel=1e-12)

    def test_fnorm_uniform_rows(self):
        P = np.full((4, 4), 0.25)
        assert bnm_loss(P, "fnorm").value == pytest.approx(-1.0, rel=1e-12)

    def test_nuclear_identity(self):
        P = np.eye(2)
        assert bnm_loss(P, "nuclear").value == pytest.approx(-2.0, rel=1e-12)

    def test_nuclear_dominates_frobenius(self):
        rng = np.random.default_rng(13)
        P = random_simplex(rng, 8, 4)
        assert bnm_loss(P, "nuclear").value <= bnm_loss(P, "fnorm").value + 1e-12

    @pytest.mark.parametrize("variant", ["fnorm", "nuclear"])
    def test_gradient_matches_finite_difference(self, variant):
        rng = np.random.default_rng(14)
        P = random_simplex(rng, 6, 3)
        res = bnm_loss(P, variant)
        fd_check(lambda v: bnm_loss(v.reshape(6, 3), variant).value, P, res.grad)

    def test_variant_names_case_insensitive(self):
        P = np.eye(3)
        assert bnm_loss(P, "Nuclear").value == bnm_loss(P, "nuclear").value
        with pytest.raises(ConfigError):
            bnm_loss(P, "spectral")


class TestNeighborConsistency:
    def test_uniform_mean_kills_kl_term(self):
        P = np.array([[0.9, 0.1], [0.1, 0.9]])
        nbr = np.tile(np.array([0.5, 0.5]), (2, 1, 1))
        res = nc_loss(P, nbr)
        assert res.div_term == pytest.approx(0.0, abs=1e-12)
        assert res.value == pytest.approx(res.dis_term, rel=1e-12)

    def test_attraction_term_equals_aad_attraction(self):
        rng = np.random.default_rng(15)
        P = random_simplex(rng, 5, 3)
        nbr = random_neighbors(rng, 5, 2, 3)
        nc = nc_loss(P, nbr, weights=None)
        ref = attract_disperse_loss(P, nbr, lam=0.0)
        assert nc.dis_term == pytest.approx(ref.dis_term, rel=1e-12)

    def test_collapsed_batch_kl_value(self):
        P = np.tile(np.array([1.0, 0.0]), (4, 1))
        nbr = np.tile(np.array([1.0, 0.0]), (4, 1, 1))
        res = nc_loss(P, nbr)
        assert res.div_term == pytest.approx(np.log(2.0), rel=1e-10)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(16)
        P = random_simplex(rng, 5, 3)
        nbr = random_neighbors(rng, 5, 2, 3)
        W = rng.uniform(0.5, 1.5, size=(5, 2))
        res = nc_loss(P, nbr, weights=W)
        fd_check(lambda v: nc_loss(v.reshape(5, 3), nbr, weights=W).value, P, res.grad)

    def test_weight_validation(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        nbr = np.tile(np.array([0.5, 0.5]), (2, 1, 1))
        with pytest.raises(ShapeError):
            nc_loss(P, nbr, weights=np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            nc_loss(P, nbr, weights=np.zeros((2, 1)))


class TestInfoNce:
    def test_aligned_pair_no_negatives(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = infonce_loss(A, A.copy(), np.zeros((0, 2)), tau=0.5)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_negative_closed_form(self):
        A = np.array([[1.0, 0.0]])
        Neg = np.array([[0.0, 1.0]])
        res = infonce_loss(A, A.copy(), Neg, tau=1.0)
        assert res.value == pytest.approx(-1.0 + np.log(np.e + 1.0), rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gradient_matches_finite_difference(self, seed):
        rng = np.random.default_rng(300 + seed)

        def unit(n, d):
            M = rng.normal(size=(n, d))
            return M / np.linalg.norm(M, axis=1, keepdims=True)

        A, Pos, Neg = unit(4, 3), unit(4, 3), unit(5, 3)
        tau = float(rng.uniform(0.2, 1.0))
        res = infonce_loss(A, Pos, Neg, tau)
        fd_check(lambda v: infonce_loss(v.reshape(4, 3), Pos, Neg, tau).value,
                 A, res.grad)

    def test_rejects_unnormalized_features(self):
        A = np.array([[2.0, 0.0]])
        with pytest.raises(InvalidInputError):
            infonce_loss(A, A.copy(), np.zeros((0, 2)), tau=1.0)

    def test_rejects_bad_tau(self):
        A = np.array([[1.0, 0.0]])
        with pytest.raises(ConfigError):
            infonce_loss(A, A.copy(), np.zeros((0, 2)), tau=0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf,
                                     pytest.param(10**400, id="10**400")])
    def test_rejects_non_finite_tau(self, tau):
        A = np.array([[1.0, 0.0]])
        with pytest.raises(ConfigError, match="tau"):
            infonce_loss(A, A.copy(), np.zeros((0, 2)), tau=tau)


class TestCrossEntropy:
    def test_perfect_predictions_zero(self):
        P = np.eye(3)
        assert cross_entropy_loss(P, [0, 1, 2]).value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_binary_is_log_two(self):
        P = np.full((4, 2), 0.5)
        res = cross_entropy_loss(P, [0, 1, 0, 1])
        assert res.value == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(17)
        P = random_simplex(rng, 6, 3)
        y = rng.integers(0, 3, size=6)
        res = cross_entropy_loss(P, y)
        fd_check(lambda v: cross_entropy_loss(v.reshape(6, 3), y).value, P, res.grad)

    def test_label_validation(self):
        P = np.full((2, 2), 0.5)
        with pytest.raises(InvalidInputError):
            cross_entropy_loss(P, [0, 2])
        with pytest.raises(ShapeError):
            cross_entropy_loss(P, [0])


class TestSimplexDotProductExtremum:
    def test_grid_search_confirms_one_hot_maximum(self):
        # every simplex point with coordinates in steps of 0.05, C=3
        pts = []
        steps = 20
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                pts.append((i / steps, j / steps, (steps - i - j) / steps))
        G = np.asarray(pts)
        M = G @ G.T
        assert M.max() <= 1.0 + 1e-12
        at_max = np.argwhere(M >= 1.0 - 1e-9)
        for a, b in at_max:
            assert a == b or np.allclose(G[a], G[b])
            assert np.isclose(G[a].max(), 1.0)  # one-hot row


class TestLossResult:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            LossResult(value=float("nan"), grad=np.zeros(2))
        with pytest.raises(InvalidInputError):
            LossResult(value=0.0, grad=np.array([np.inf]))
