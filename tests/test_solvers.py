import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronsketch.linalg import (
    DimensionError,
    RegularizationError,
    kron_chain,
    least_squares,
    thin_svd,
)
from kronsketch.sketches import (
    BaseFamily,
    ConfigurationError,
    TensorFamily,
    apply_tensor_pair,
)
from kronsketch.solvers import (
    RankDeficientWarning,
    SplineSpec,
    lowrank_query,
    materialize_lowrank,
    penalized_solve,
    regression_query,
    spline_query,
    statistical_dimension,
)
from kronsketch.oracle import exact_kron_regression, exact_lowrank, exact_spline
from kronsketch.tree import TensorTree, TreeConfig

RNG = np.random.default_rng(2718)


def first_difference(d):
    L = np.zeros((d - 1, d))
    for i in range(d - 1):
        L[i, i] = 1.0
        L[i, i + 1] = -1.0
    return L


def full_rank_tree(factors, m, seed=0, **cfg):
    """Tree whose root is guaranteed full column rank (retries seeds)."""
    d = int(np.prod([f.shape[1] for f in factors]))
    for s in range(seed, seed + 50):
        tree = TensorTree(factors, TreeConfig(m=m, seed=s, **cfg))
        if np.linalg.matrix_rank(tree.root) == d:
            return tree
    raise AssertionError("no full-rank sketch found")


class TestRegressionQuery:
    def test_identity_design_returns_label(self):
        tree = full_rank_tree([np.eye(2), np.eye(2)], m=32)
        b = RNG.standard_normal(4)
        x = regression_query(tree, tree.sketch_vector(b))
        assert np.allclose(x, b, atol=1e-8)

    def test_consistent_system_zero_residual(self):
        factors = [RNG.standard_normal((6, 2)) for _ in range(2)]
        tree = full_rank_tree(factors, m=32)
        z = RNG.standard_normal(4)
        A = kron_chain(factors)
        b = A @ z
        x = regression_query(tree, tree.sketch_vector(b))
        assert np.linalg.norm(A @ x - b) <= 1e-6 * np.linalg.norm(b)

    def test_m_below_d_rejected(self):
        factors = [RNG.standard_normal((4, 2)) for _ in range(3)]
        tree = TensorTree(factors, TreeConfig(m=4, seed=1))
        with pytest.raises(ConfigurationError):
            regression_query(tree, np.zeros(4))

    def test_wrong_sketch_length_rejected(self):
        tree = TensorTree([np.eye(2)], TreeConfig(m=8, seed=2))
        with pytest.raises(DimensionError):
            regression_query(tree, np.zeros(5))

    def test_oracle_ratio_smoke(self):
        hits = 0
        for trial in range(20):
            rng = np.random.default_rng(900 + trial)
            factors = [rng.standard_normal((8, 2)) for _ in range(3)]
            tree = TensorTree(factors, TreeConfig(m=700, seed=3000 + trial))
            b = rng.standard_normal(512)
            x = regression_query(tree, tree.sketch_vector(b))
            exact = exact_kron_regression(factors, b)
            achieved = np.linalg.norm(kron_chain(factors) @ x - b)
            hits += achieved <= 1.5 * exact.opt_cost
        assert hits >= 18

    def test_scale_equivariance(self):
        rng = np.random.default_rng(31)
        factors = [rng.standard_normal((5, 2)) for _ in range(2)]
        b = rng.standard_normal(25)
        cfg = dict(m=24, seed=8)
        tree = full_rank_tree(factors, **cfg)
        x = regression_query(tree, tree.sketch_vector(b))
        scaled = [3.0 * factors[0], factors[1]]
        tree2 = TensorTree(scaled, TreeConfig(**cfg))
        x2 = regression_query(tree2, tree2.sketch_vector(3.0 * b))
        assert np.allclose(x, x2, rtol=1e-9, atol=1e-9)

    def test_rank_deficient_root_warns(self):
        # all-ones factors make the Kronecker product, and so the root, rank 1
        tree = TensorTree([np.ones((16, 3)), np.ones((16, 3))], TreeConfig(m=64, seed=3))
        b_sketch = tree.sketch_vector(np.random.default_rng(3).standard_normal(256))
        ref = least_squares(tree.root, tree.frame(b_sketch))
        assert ref.rank_deficient and ref.rank == 1
        with pytest.warns(RankDeficientWarning, match=r"rank 1 < d = 9"):
            x = regression_query(tree, b_sketch)
        assert np.array_equal(x, ref.x)  # still the minimum-norm answer

    def test_full_rank_root_does_not_warn(self):
        factors = [RNG.standard_normal((16, 3)) for _ in range(2)]
        tree = full_rank_tree(factors, m=64)
        b_sketch = tree.sketch_vector(RNG.standard_normal(256))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = regression_query(tree, b_sketch)
        assert np.array_equal(x, least_squares(tree.root, tree.frame(b_sketch)).x)


class TestSplineQuery:
    def test_reduces_to_regression_at_zero(self):
        factors = [RNG.standard_normal((6, 2)) for _ in range(2)]
        tree = full_rank_tree(factors, m=40, seed=4)
        b = RNG.standard_normal(36)
        bs = tree.sketch_vector(b)
        spline = SplineSpec(np.eye(4), 0.0)
        assert np.allclose(
            spline_query(tree, bs, spline), regression_query(tree, bs), atol=1e-8
        )

    def test_huge_penalty_shrinks_to_zero(self):
        factors = [RNG.standard_normal((6, 2)) for _ in range(2)]
        tree = full_rank_tree(factors, m=40, seed=5)
        b = RNG.standard_normal(36)
        bs = tree.sketch_vector(b)
        x = spline_query(tree, bs, SplineSpec(np.eye(4), 1e12))
        m_t_b = np.linalg.norm(tree.root.T @ tree.frame(bs))
        assert np.linalg.norm(x) <= 1e-6 * m_t_b

    def test_matches_normal_equation_form(self):
        factors = [RNG.standard_normal((6, 2)) for _ in range(2)]
        tree = full_rank_tree(factors, m=40, seed=6)
        b = RNG.standard_normal(36)
        bs = tree.sketch_vector(b)
        L = first_difference(4)
        lam = 0.7
        x = spline_query(tree, bs, SplineSpec(L, lam))
        M = tree.root
        closed = np.linalg.solve(M.T @ M + lam * L.T @ L, M.T @ tree.frame(bs))
        assert np.allclose(x, closed, atol=1e-8 * max(1.0, np.linalg.norm(closed)))

    def test_singular_normal_matrix_rejected(self):
        # rank-deficient design with lam = 0 leaves the problem singular
        factors = [np.ones((4, 2))]
        tree = TensorTree(factors, TreeConfig(m=12, seed=7))
        with pytest.raises(RegularizationError):
            spline_query(tree, np.zeros(12), SplineSpec(np.zeros((1, 2)), 0.0))

    def test_oracle_ratio_smoke(self):
        hits = 0
        L = first_difference(4)
        for trial in range(20):
            rng = np.random.default_rng(1500 + trial)
            factors = [rng.standard_normal((6, 2)) for _ in range(2)]
            spline = SplineSpec(L, 1.0)
            tree = TensorTree(factors, TreeConfig(m=300, seed=4000 + trial))
            b = rng.standard_normal(36)
            x = spline_query(tree, tree.sketch_vector(b), spline)
            A = kron_chain(factors)
            achieved = np.linalg.norm(A @ x - b) ** 2 + np.linalg.norm(L @ x) ** 2
            hits += achieved <= 1.5 * exact_spline(factors, b, spline).opt_cost
        assert hits >= 18


class TestStatisticalDimension:
    def test_zero_penalty_gives_d(self):
        A = RNG.standard_normal((10, 4))
        assert statistical_dimension(A, SplineSpec(first_difference(4), 0.0)) == 4.0

    def test_infinite_penalty_limit(self):
        A = RNG.standard_normal((10, 4))
        sd = statistical_dimension(A, SplineSpec(first_difference(4), 1e14))
        assert abs(sd - 1.0) <= 1e-6  # d - p = 1

    def test_hand_example(self):
        sd = statistical_dimension(np.diag([2.0, 1.0]), SplineSpec(np.eye(2), 1.0))
        assert abs(sd - 1.3) <= 1e-12
        # ridge in general: A = diag(a), L = I gives sum a^2 / (a^2 + lam),
        # which falls below 1 as lam grows
        a = np.array([3.0, 1.0, 0.5, 1e-2])
        for lam in (1e-4, 0.3, 1.0, 10.0, 1e3, 1e8):
            expected = np.sum(a**2 / (a**2 + lam))
            sd = statistical_dimension(np.diag(a), SplineSpec(np.eye(4), lam))
            assert abs(sd - expected) <= 1e-14 * max(1.0, expected)
        assert 0.0 < sd < 1.0

    def test_monotone_and_bounded(self):
        A = RNG.standard_normal((12, 5))
        L = first_difference(5)
        values = [
            statistical_dimension(A, SplineSpec(L, lam))
            for lam in (0.0, 0.1, 1.0, 10.0, 1e4)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(1.0 - 1e-9 <= v <= 5.0 + 1e-9 for v in values)

    def test_rank_deficient_L_rejected(self):
        A = RNG.standard_normal((8, 3))
        L = np.vstack([np.ones(3), np.ones(3)])
        with pytest.raises(RegularizationError):
            statistical_dimension(A, SplineSpec(L, 1.0))

    def test_stacked_rank_deficiency_rejected(self):
        A = np.zeros((4, 3))
        L = first_difference(3)  # rank 2, stacked rank 2 < 3
        with pytest.raises(RegularizationError):
            statistical_dimension(A, SplineSpec(L, 1.0))

    @pytest.mark.parametrize("n,d,p", [(6, 4, 2), (3, 3, 1), (3, 3, 2), (5, 3, 3)])
    def test_matches_gsvd_reference(self, n, d, p):
        # independent oracle: QR of the unweighted stack, then a CS
        # decomposition of the penalty block gives gamma^2 = (1 - mu^2) / mu^2
        for trial in range(10):
            rng = np.random.default_rng(60 + trial)
            A0 = rng.standard_normal((n, d))
            L0 = rng.standard_normal((p, d))
            # the draw as is, then badly scaled: A and L by 1e-3 .. 1e3,
            # lam from 1e-6 to 1e10, the corners included
            cases = [(1.0, 1.0, float(rng.uniform(0.1, 5.0)))]
            cases += [tuple(10.0 ** rng.uniform([-3, -3, -6], [3, 3, 10])) for _ in range(4)]
            cases += [(1e3, 1e-3, 1e10), (1e-3, 1e3, 1e-6), (1e-3, 1e3, 1e10), (1e3, 1e-3, 1e-6)]
            for a, l, lam in cases:
                A, L = a * A0, l * L0
                Q, _ = np.linalg.qr(np.vstack([A, L]))
                mu = np.linalg.svd(Q[n:], compute_uv=False)
                gamma_sq = np.sort((1.0 - mu**2) / mu**2)[::-1]
                expected = np.sum(gamma_sq / (gamma_sq + lam)) + d - p
                got = statistical_dimension(A, SplineSpec(L, lam))
                assert abs(got - expected) <= 1e-8, (a, l, lam)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_spline_spec_rejects_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="lam"):
            SplineSpec(np.eye(2), lam)


class TestLowRank:
    def test_exact_when_already_low_rank(self):
        rng = np.random.default_rng(71)
        # rank-1 factors make the product rank 1
        factors = [np.outer(rng.standard_normal(6), rng.standard_normal(3)) for _ in range(2)]
        tree = TensorTree(factors, TreeConfig(m=40, seed=71))
        C = materialize_lowrank(lowrank_query(tree, 1))
        A = kron_chain(factors)
        assert np.linalg.norm(C - A) <= 1e-6 * np.linalg.norm(A)

    def test_full_rank_projection_is_identity(self):
        factors = [RNG.standard_normal((8, 3)) for _ in range(2)]
        tree = TensorTree(factors, TreeConfig(m=60, seed=72))
        result = lowrank_query(tree, 9)
        assert np.allclose(result.Uk @ result.Uk.T, np.eye(9), atol=1e-10)
        C = materialize_lowrank(result)
        A = kron_chain(factors)
        assert np.allclose(C, A, atol=1e-8 * max(1.0, np.abs(A).max()))

    def test_rank_out_of_range(self):
        tree = TensorTree([np.eye(3)], TreeConfig(m=6, seed=73))
        with pytest.raises(ValueError):
            lowrank_query(tree, 4)
        with pytest.raises(ValueError):
            lowrank_query(tree, 0)

    def test_error_monotone_in_k(self):
        factors = [RNG.standard_normal((7, 3)) for _ in range(2)]
        tree = TensorTree(factors, TreeConfig(m=80, seed=74))
        A = kron_chain(factors)
        errs = [
            np.linalg.norm(materialize_lowrank(lowrank_query(tree, k)) - A)
            for k in range(1, 10)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))

    def test_projection_rank(self):
        factors = [RNG.standard_normal((8, 3)) for _ in range(2)]
        tree = TensorTree(factors, TreeConfig(m=60, seed=75))
        C = materialize_lowrank(lowrank_query(tree, 2))
        _, s, _ = thin_svd(C)
        assert s[2] <= 1e-8 * s[0]

    def test_materialize_two_evaluation_orders(self):
        factors = [RNG.standard_normal((5, 2)) for _ in range(2)]
        tree = TensorTree(factors, TreeConfig(m=30, seed=76))
        res = lowrank_query(tree, 2)
        direct = kron_chain(res.factors) @ (res.Uk.T @ res.Uk)
        assert np.allclose(materialize_lowrank(res), direct, atol=1e-10)

    def test_unit_row_projection(self):
        factors = [np.eye(2), np.eye(2)]
        tree = TensorTree(factors, TreeConfig(m=16, seed=77))
        res = lowrank_query(tree, 1)
        forced = type(res)(res.factors, np.eye(4)[:1])
        C = materialize_lowrank(forced)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(C, expected, atol=1e-12)

    def test_oracle_ratio_smoke(self):
        hits = 0
        for trial in range(20):
            rng = np.random.default_rng(2500 + trial)
            factors = [rng.standard_normal((8, 3)) for _ in range(2)]
            tree = TensorTree(factors, TreeConfig(m=150, seed=5000 + trial))
            C = materialize_lowrank(lowrank_query(tree, 2))
            A = kron_chain(factors)
            hits += np.linalg.norm(C - A) <= 1.5 * exact_lowrank(factors, 2)
        assert hits >= 18


EPS = np.finfo(np.float64).eps


def outcome(fn, *args):
    """fn(*args), or the type of the error it raised."""
    try:
        return fn(*args)
    except (ConfigurationError, DimensionError, RegularizationError) as err:
        return type(err)


def assert_solves_agree(got, ref, A, y, identity):
    """x from the frame against x from the time-domain root: bit for bit in
    the identity frame; otherwise within a rounding bound of least squares
    under an orthogonal change of frame,
    2^10 eps (kappa ||x|| + kappa^2 ||A x - y|| / s_max),
    where the minimum-norm answer is well defined (kappa < 1e8)."""
    if identity:
        assert got is ref or np.array_equal(got, ref)
        return
    s = np.linalg.svd(A, compute_uv=False)
    kappa = s[0] / s[-1] if s[-1] > 0 else math.inf
    if kappa >= 1e8:
        return
    assert not isinstance(got, type) and not isinstance(ref, type)
    residual = np.linalg.norm(A @ ref - y)
    bound = 2**10 * EPS * (kappa * np.linalg.norm(ref) + kappa**2 * residual / s[0])
    assert np.linalg.norm(got - ref) <= bound


class TestRootFrame:
    """Solvers read the root R = Q M and rotate the label sketch b by Q; a
    solve on the time-domain root M and b is the reference."""

    @given(
        pair=st.sampled_from(list(itertools.product(BaseFamily, TensorFamily))),
        q=st.integers(1, 6),
        m=st.sampled_from([1, 2, 7, 8, 64]),
        adaptive=st.booleans(),
        seed=st.integers(0, 2**32),
        lam=st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_solvers_match_the_time_domain_root(self, pair, q, m, adaptive, seed, lam):
        rng = np.random.default_rng(seed)
        factors = [
            rng.standard_normal((int(rng.integers(2, 5)), int(rng.integers(1, 3))))
            for _ in range(q)
        ]
        tree = TensorTree(factors, TreeConfig(*pair, m=m, adaptive=adaptive, seed=seed))
        if adaptive:
            tree.update_adaptive(q - 1, rng.standard_normal(factors[-1].shape))
        M = tree.root if q == 1 else apply_tensor_pair(tree.specs[-1], *tree.levels[-2])
        b = rng.standard_normal(m)
        d = M.shape[1]
        identity = q == 1 or pair[1] is TensorFamily.TENSOR_SRHT

        x = outcome(regression_query, tree, b)
        if m < d:
            assert x is ConfigurationError
        else:
            assert_solves_agree(x, least_squares(M, b).x, M, b, identity)

        spline = SplineSpec(rng.standard_normal((int(rng.integers(1, d + 1)), d)), lam)
        x = outcome(spline_query, tree, b, spline)
        ref = outcome(penalized_solve, M, b, spline)
        stacked = np.vstack([M, math.sqrt(lam) * spline.L])
        y = np.concatenate([b, np.zeros(spline.p)])
        if stacked.shape[0] < d:
            assert x is ref is DimensionError
        else:
            assert_solves_agree(x, ref, stacked, y, identity)

        # the top-k projector moves by rounding over the singular-value gap
        k = int(rng.integers(1, min(m, d) + 1))
        P = lowrank_query(tree, k).Uk
        _, s, V = thin_svd(M)
        ref = V[:, :k].T
        if identity:
            assert np.array_equal(P, ref)
        else:
            gap = s[k - 1] - (s[k] if k < s.size else 0.0)
            if gap > 1e-8 * s[0]:
                assert np.linalg.norm(P.T @ P - ref.T @ ref) <= 2**10 * EPS * s[0] / gap
