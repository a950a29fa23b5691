import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronsketch.bench import Scenario
from kronsketch.linalg import (
    DimensionError,
    RegularizationError,
    SparseVector,
    kron,
    kron_chain,
    least_squares,
)
from kronsketch.oracle import (
    DegenerateInputError,
    LeverageBaseline,
    OracleSolution,
    exact_kron_regression,
    exact_lowrank,
    exact_spline,
    kron_reduction,
    leverage_sample_regression,
    leverage_scores,
)
from kronsketch.sketches import BaseFamily, TensorFamily, choose_m
from kronsketch.solvers import SplineSpec

RNG = np.random.default_rng(41)


class TestExactKronRegression:
    def test_identity_design(self):
        b = RNG.standard_normal(4)
        sol = exact_kron_regression([np.eye(2), np.eye(2)], b)
        assert np.allclose(sol.x_star, b, atol=1e-12)
        assert sol.opt_cost <= 1e-12

    def test_orthogonal_label(self):
        A1 = np.array([[1.0], [0.0]])
        b = np.array([0.0, 3.0])  # orthogonal to col(A1)
        sol = exact_kron_regression([A1], b)
        assert np.allclose(sol.x_star, [0.0], atol=1e-12)
        assert abs(sol.opt_cost - 3.0) <= 1e-12

    def test_single_factor_matches_lstsq(self):
        A = RNG.standard_normal((7, 3))
        b = RNG.standard_normal(7)
        sol = exact_kron_regression([A], b)
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(sol.x_star, expected, atol=1e-10)

    def test_cost_matches_objective(self):
        factors = [RNG.standard_normal((5, 2)) for _ in range(2)]
        b = RNG.standard_normal(25)
        sol = exact_kron_regression(factors, b)
        objective = np.linalg.norm(kron_chain(factors) @ sol.x_star - b)
        assert abs(sol.opt_cost - objective) <= 1e-10 * max(1.0, objective)


class TestExactSpline:
    def test_zero_penalty_matches_regression(self):
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            factors = [rng.standard_normal((5, 2)) for _ in range(2)]
            b = rng.standard_normal(25)
            plain = exact_kron_regression(factors, b)
            spline = exact_spline(factors, b, SplineSpec(np.eye(4), 0.0))
            assert np.allclose(spline.x_star, plain.x_star, atol=1e-9)
            assert abs(spline.opt_cost - plain.opt_cost**2) <= 1e-9

    def test_ridge_hand_case(self):
        b = np.array([3.0, -1.0, 2.0])
        sol = exact_spline([np.eye(3)], b, SplineSpec(np.eye(3), 1.0))
        assert np.allclose(sol.x_star, b / 2, atol=1e-12)
        assert abs(sol.opt_cost - np.linalg.norm(b) ** 2 / 2) <= 1e-12

    def test_optimality(self):
        rng = np.random.default_rng(7)
        factors = [rng.standard_normal((5, 2)) for _ in range(2)]
        b = rng.standard_normal(25)
        spec = SplineSpec(rng.standard_normal((3, 4)), 0.5)
        sol = exact_spline(factors, b, spec)
        A = kron_chain(factors)

        def cost(x):
            return np.linalg.norm(A @ x - b) ** 2 + 0.5 * np.linalg.norm(spec.L @ x) ** 2

        for _ in range(10):
            assert cost(sol.x_star + 0.1 * rng.standard_normal(4)) >= sol.opt_cost


class TestExactLowRank:
    def test_full_rank_target_is_zero(self):
        assert exact_lowrank([np.diag([3.0, 2.0, 1.0])], 3) == 0.0
        assert exact_lowrank([np.diag([3.0, 2.0, 1.0])], 5) == 0.0

    def test_diag_hand_case(self):
        got = exact_lowrank([np.diag([3.0, 2.0, 1.0])], 1)
        assert abs(got - np.sqrt(5.0)) <= 1e-12

    def test_k_zero_is_frobenius_norm(self):
        A = RNG.standard_normal((4, 3))
        assert abs(exact_lowrank([A], 0) - np.linalg.norm(A)) <= 1e-10

    def test_monotone_in_k(self):
        factors = [RNG.standard_normal((5, 3)) for _ in range(2)]
        tails = [exact_lowrank(factors, k) for k in range(10)]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))


class TestLeverageScores:
    def test_orthonormal_square(self):
        Q, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
        assert np.allclose(leverage_scores(Q), np.ones(4), atol=1e-10)

    def test_zero_row(self):
        A = RNG.standard_normal((5, 2))
        A[3] = 0.0
        scores = leverage_scores(A)
        assert scores[3] <= 1e-14

    def test_hand_case(self):
        assert np.allclose(leverage_scores([[1.0], [1.0]]), [0.5, 0.5])

    def test_range_and_sum(self):
        A = RNG.standard_normal((9, 4))
        scores = leverage_scores(A)
        assert np.all(scores >= -1e-12) and np.all(scores <= 1.0 + 1e-12)
        assert abs(scores.sum() - 4.0) <= 1e-8

    def test_kron_product_law(self):
        A1 = RNG.standard_normal((6, 2))
        A2 = RNG.standard_normal((6, 2))
        joint = leverage_scores(kron(A1, A2))
        outer = np.outer(leverage_scores(A1), leverage_scores(A2)).ravel()
        assert np.allclose(joint, outer, atol=1e-8)


class TestLeverageSampleRegression:
    def test_identity_design_exact(self):
        b = RNG.standard_normal(4)
        x = leverage_sample_regression([np.eye(2), np.eye(2)], b, 0.5, 0.2, 2.0, 3)
        assert np.linalg.norm(kron_chain([np.eye(2), np.eye(2)]) @ x - b) <= 1e-8

    def test_single_row_factors_forced(self):
        factors = [np.array([[2.0, 1.0]]), np.array([[3.0]])]
        b = np.array([4.0])
        x = leverage_sample_regression(factors, b, 0.5, 0.2, 1.0, 0)
        A = kron_chain(factors)
        assert np.linalg.norm(A @ x - b) <= 1e-10

    def test_zero_factor_rejected(self):
        with pytest.raises(DegenerateInputError):
            leverage_sample_regression([np.zeros((3, 2))], np.zeros(3), 0.5, 0.2)

    def test_ratio_smoke(self):
        hits = 0
        for trial in range(20):
            rng = np.random.default_rng(3000 + trial)
            factors = [rng.standard_normal((8, 2)) for _ in range(2)]
            b = rng.standard_normal(64)
            x = leverage_sample_regression(factors, b, 0.5, 0.2, 2.0, 7000 + trial)
            achieved = np.linalg.norm(kron_chain(factors) @ x - b)
            hits += achieved <= 1.5 * exact_kron_regression(factors, b).opt_cost
        assert hits >= 17


ACCURACY_MESSAGE = re.escape("need 0 < eps <= 1 and 0 < delta < 1")


class TestAccuracyRule:
    """One rule for eps, delta and c_factor at all three entry points."""

    @staticmethod
    def entry_points(eps):
        factors, b = [np.eye(2), np.eye(2)], np.ones(4)
        return [
            lambda: choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 4, 2, eps, 0.1),
            lambda: LeverageBaseline(factors, b, eps, 0.2).query(),
            lambda: leverage_sample_regression(factors, b, eps, 0.2),
        ]

    def test_eps_one_accepted(self):
        for call in self.entry_points(1.0):
            call()
        # the scenario passes its accuracy check and stops at the next one
        with pytest.raises(ValueError, match="need factor paths"):
            Scenario(eps=1.0).validate()

    @pytest.mark.parametrize("eps", [1.0 + 1e-12, math.nan])
    def test_eps_past_one_or_nan_rejected(self, eps):
        for call in [*self.entry_points(eps), Scenario(eps=eps).validate]:
            with pytest.raises(ValueError, match=ACCURACY_MESSAGE):
                call()

    @pytest.mark.parametrize("c_factor", [math.nan, 0.0])
    def test_scenario_c_factor_checked(self, c_factor):
        with pytest.raises(ValueError, match="c_factor must be finite and positive"):
            Scenario(cfactor=c_factor).validate()


class TestLeverageBaseline:
    @pytest.mark.parametrize(
        "eps, delta",
        [(eps, 0.2) for eps in (0.0, -0.5, math.nan)]
        + [(0.5, delta) for delta in (0.0, 1.0, 1.5, math.nan)],
    )
    def test_accuracy_parameters_checked(self, eps, delta):
        factors, b = [np.eye(2), np.eye(2)], np.ones(4)
        with pytest.raises(ValueError, match=ACCURACY_MESSAGE):
            LeverageBaseline(factors, b, eps, delta)
        with pytest.raises(ValueError, match=ACCURACY_MESSAGE):
            leverage_sample_regression(factors, b, eps, delta)

    @pytest.mark.parametrize("c_factor", [math.nan, math.inf, 0.0, -1.0])
    def test_c_factor_checked(self, c_factor):
        factors, b = [np.eye(2), np.eye(2)], np.ones(4)
        with pytest.raises(ValueError, match="c_factor must be finite and positive"):
            LeverageBaseline(factors, b, 0.5, 0.2, c_factor=c_factor)
        with pytest.raises(ValueError, match="c_factor must be finite and positive"):
            leverage_sample_regression(factors, b, 0.5, 0.2, c_factor=c_factor)

    def test_no_factors_rejected(self):
        with pytest.raises(DimensionError, match="need at least one factor"):
            LeverageBaseline([], np.ones(1), 0.5, 0.2)
        with pytest.raises(DimensionError, match="need at least one factor"):
            leverage_sample_regression([], np.ones(1), 0.5, 0.2)

    def test_update_then_query_tracks_factors(self):
        rng = np.random.default_rng(11)
        factors = [rng.standard_normal((6, 2)) for _ in range(2)]
        b = rng.standard_normal(36)
        base = LeverageBaseline(factors, b, 0.5, 0.2, c_factor=3.0, seed=5)
        B = rng.standard_normal((6, 2))
        base.update(0, B)
        assert np.allclose(base.factors[0], factors[0] + B)
        x = base.query()
        updated = [factors[0] + B, factors[1]]
        achieved = np.linalg.norm(kron_chain(updated) @ x - b)
        assert achieved <= 2.0 * exact_kron_regression(updated, b).opt_cost

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        factors = [rng.standard_normal((5, 2)) for _ in range(2)]
        b = rng.standard_normal(25)
        runs = []
        for _ in range(2):
            base = LeverageBaseline(factors, b, 0.5, 0.2, seed=9)
            runs.append((base.query(), base.query()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        # successive queries consume fresh randomness
        assert not np.array_equal(runs[0][0], runs[0][1])


class TestOracleSolution:
    def test_invariant_cost_at_solution(self):
        factors = [RNG.standard_normal((6, 2)) for _ in range(2)]
        b = RNG.standard_normal(36)
        sol = exact_kron_regression(factors, b)
        assert isinstance(sol, OracleSolution)
        recomputed = np.linalg.norm(kron_chain(factors) @ sol.x_star - b)
        assert abs(sol.opt_cost - recomputed) <= 1e-10 * max(1.0, recomputed)


# ----------------------------------------------------------------------
# dense reference: the exact solvers on the explicit product, desk scale


def dense_label(b):
    return b.to_dense() if isinstance(b, SparseVector) else np.asarray(b, float)


def dense_regression(factors, b) -> OracleSolution:
    A = kron_chain(factors)
    b = dense_label(b)
    x = least_squares(A, b).x
    return OracleSolution(x, float(np.linalg.norm(A @ x - b)))


def dense_spline(factors, b, spline: SplineSpec) -> OracleSolution:
    A = kron_chain(factors)
    b = dense_label(b)
    L = spline.L
    stacked = np.vstack([A, math.sqrt(spline.lam) * L])
    result = least_squares(stacked, np.concatenate([b, np.zeros(L.shape[0])]))
    if result.rank_deficient:
        raise RegularizationError("normal matrix A.T A + lam L.T L is singular")
    x = result.x
    cost = np.linalg.norm(A @ x - b) ** 2 + spline.lam * np.linalg.norm(L @ x) ** 2
    return OracleSolution(x, float(cost))


def dense_lowrank(factors, k: int) -> float:
    s = np.linalg.svd(kron_chain(factors), compute_uv=False)
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def outcome(fn, *args):
    """fn(*args), or the type of the error it raised."""
    try:
        return fn(*args)
    except (DimensionError, RegularizationError) as err:
        return type(err)


def cond(M) -> float:
    s = np.linalg.svd(M, compute_uv=False)
    return s[0] / s[-1] if s.size and s[-1] > 0.0 else math.inf


def assert_matches_reference(got, ref, M, b, opt_scale):
    """x* within 1e-12 cond(M) relative; opt_cost within 1e-9 relative where
    opt_scale(opt) >= 1e-3 ||b||, and elsewhere within the cancellation floor
    sqrt(4 nnz eps) ||b|| of the reduction's tail.

    x* is measured against max(||x*||, ||b|| / ||M||): a zero x* (an
    all-zero A, say) leaves only the label's scale.
    """
    b_norm = np.linalg.norm(b.to_dense())
    floor = math.sqrt(4 * max(b.nnz, 1) * np.finfo(np.float64).eps) * b_norm
    if isinstance(ref, type):
        assert got is ref
        return
    assert not isinstance(got, type), got
    c = cond(M)
    if math.isfinite(c):
        err = np.linalg.norm(got.x_star - ref.x_star)
        scale = max(np.linalg.norm(ref.x_star), b_norm / np.linalg.norm(M, 2))
        assert err <= 1e-12 * c * scale
    if opt_scale(ref.opt_cost) >= 1e-3 * b_norm:
        assert abs(got.opt_cost - ref.opt_cost) <= 1e-9 * ref.opt_cost
    else:
        assert abs(opt_scale(got.opt_cost) - opt_scale(ref.opt_cost)) <= floor


# Cases the structured reduction must get right: an empty label, duplicate
# indices, a wide factor (n_i < d_i, so R_i is wide), a rank-deficient
# factor (a zero column), and a label in A's column space.
EMPTY = ([np.ones((2, 1)), np.arange(6.0).reshape(3, 2)], SparseVector(6, [], []))
DUPLICATES = (
    [np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 1.0]])],
    SparseVector(3, [2, 0, 2, 2], [1.0, -2.0, 0.5, 0.25]),
)
WIDE = (
    [np.array([[1.0, -2.0, 0.5]]), np.array([[1.0], [2.0], [-1.0], [0.5], [3.0]])],
    SparseVector(5, [0, 3, 4], [1.0, 2.0, -1.0]),
)
ZERO_COLUMN = (
    [np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]), np.array([[1.0, 2.0], [3.0, -1.0]])],
    SparseVector(6, [1, 4, 5], [1.0, -3.0, 2.0]),
)
EXACT_FIT = (
    [np.array([[1.0, 2.0], [0.0, 1.0], [1.0, -1.0]]), np.array([[2.0], [1.0]])],
    SparseVector.from_dense(kron_chain(
        [np.array([[1.0, 2.0], [0.0, 1.0], [1.0, -1.0]]), np.array([[2.0], [1.0]])]
    ) @ np.array([0.5, -1.5])),
)


@st.composite
def kron_problems(draw):
    """Small factor chains with sparse labels of every kind above."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.integers(1, 3))
    factors = [
        rng.standard_normal((draw(st.integers(1, 5)), draw(st.integers(1, 3))))
        for _ in range(q)
    ]
    if draw(st.booleans()):
        f = factors[draw(st.integers(0, q - 1))]
        f[:, draw(st.integers(0, f.shape[1] - 1))] = 0.0
    n = math.prod(f.shape[0] for f in factors)
    kind = draw(st.sampled_from(["empty", "sparse", "exact"]))
    if kind == "empty":
        return factors, SparseVector(n, [], [])
    if kind == "exact":
        x0 = rng.standard_normal(math.prod(f.shape[1] for f in factors))
        return factors, SparseVector.from_dense(kron_chain(factors) @ x0)
    idx = rng.integers(0, n, draw(st.integers(1, 8)))
    idx = np.concatenate([idx, idx[: draw(st.integers(0, idx.size))]])
    return factors, SparseVector(n, idx, rng.standard_normal(idx.size))


class TestAgainstDenseReference:
    """The structured oracles against the exact solvers on the explicit product."""

    @given(kron_problems())
    @example((EMPTY))
    @example((DUPLICATES))
    @example((WIDE))
    @example((ZERO_COLUMN))
    @example((EXACT_FIT))
    @settings(max_examples=150, deadline=None)
    def test_regression(self, problem):
        factors, b = problem
        got = outcome(exact_kron_regression, factors, b)
        ref = outcome(dense_regression, factors, b)
        assert_matches_reference(got, ref, kron_chain(factors), b, lambda c: c)

    @given(kron_problems(), st.sampled_from([0.0, 0.5, 3.0]), st.integers(0, 2**32 - 1))
    @example(EMPTY, 0.5, 1)
    @example(WIDE, 0.5, 2)
    @example(ZERO_COLUMN, 0.0, 3)
    @example(EXACT_FIT, 0.0, 4)
    @settings(max_examples=150, deadline=None)
    def test_spline(self, problem, lam, seed):
        factors, b = problem
        d = math.prod(f.shape[1] for f in factors)
        rng = np.random.default_rng(seed)
        spline = SplineSpec(rng.standard_normal((int(rng.integers(1, d + 2)), d)), lam)
        b_norm = np.linalg.norm(b.to_dense())
        got = outcome(exact_spline, factors, b, spline)
        ref = outcome(dense_spline, factors, b, spline)
        stacked = np.vstack([kron_chain(factors), math.sqrt(lam) * spline.L])
        assert_matches_reference(got, ref, stacked, b, math.sqrt)
        if lam == 0.0 and not isinstance(got, type):
            plain = exact_kron_regression(factors, b)
            assert np.allclose(got.x_star, plain.x_star, rtol=1e-9, atol=1e-12)
            assert abs(got.opt_cost - plain.opt_cost**2) <= 1e-12 * max(1.0, b_norm**2)

    @given(kron_problems(), st.integers(0, 30))
    @example(WIDE, 1)
    @example(ZERO_COLUMN, 2)
    @settings(max_examples=100, deadline=None)
    def test_lowrank(self, problem, k):
        factors, _ = problem
        scale = np.linalg.norm(kron_chain(factors))
        assert abs(exact_lowrank(factors, k) - dense_lowrank(factors, k)) <= 1e-14 * scale

    def test_dense_label_accepted(self):
        factors, b = DUPLICATES
        sparse = exact_kron_regression(factors, b)
        dense = exact_kron_regression(factors, b.to_dense())
        assert np.array_equal(sparse.x_star, dense.x_star)
        assert sparse.opt_cost == dense.opt_cost

    def test_label_length_checked(self):
        factors, b = DUPLICATES
        with pytest.raises(DimensionError):
            exact_kron_regression(factors + [np.ones((2, 1))], b)

    def test_given_reduction_gives_the_same_answers(self):
        factors, b = DUPLICATES
        red = kron_reduction(factors, b)
        spline = SplineSpec(np.eye(1, math.prod(f.shape[1] for f in factors)), 0.5)
        for fn, args in ((exact_kron_regression, ()), (exact_spline, (spline,))):
            own, given = fn(factors, b, *args), fn(factors, b, *args, reduction=red)
            assert np.array_equal(own.x_star, given.x_star) and own.opt_cost == given.opt_cost
        assert exact_lowrank(factors, 1) == exact_lowrank(factors, 1, reduction=red)

    def test_reduction_cost_matches_objective(self):
        rng = np.random.default_rng(8)
        factors = [rng.standard_normal((4, 2)), rng.standard_normal((3, 2))]
        b = rng.standard_normal(12)
        x = rng.standard_normal(4)
        red = kron_reduction(factors, b)
        assert red.R.shape == (4, 4) and red.c.shape == (4,)
        dense = np.linalg.norm(kron_chain(factors) @ x - b)
        assert abs(red.cost(x) - dense) <= 1e-12 * dense
