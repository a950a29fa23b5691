"""Ground-truth solvers and the leverage-score sampling baseline.

Everything here works on the explicit Kronecker product and is meant for
desk-scale verification: the exact solvers calibrate the sketched
pipelines, and leverage-score row sampling is the classical randomized
alternative the tree is benchmarked against. Leverage scores of the
product matrix factor across the chain (the orthogonal factor of a
Kronecker product is the Kronecker product of the orthogonal factors), so
rows are sampled one digit per factor and assembled on the fly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionError,
    RegularizationError,
    SparseVector,
    as_matrix,
    as_vector,
    kron_chain,
    least_squares,
    numerical_rank,
    thin_svd,
)
from .solvers import SplineSpec


class DegenerateInputError(ValueError):
    """Inputs whose sampling distribution has no mass (all-zero factors)."""


@dataclass(frozen=True)
class OracleSolution:
    """Exact minimizer and its objective value."""

    x_star: np.ndarray
    opt_cost: float


def _dense_label(b, n: int) -> np.ndarray:
    if isinstance(b, SparseVector):
        if b.length != n:
            raise DimensionError(f"label length {b.length} != n {n}")
        return b.to_dense()
    b = as_vector(b)
    if b.size != n:
        raise DimensionError(f"label length {b.size} != n {n}")
    return b


def exact_kron_regression(factors, b) -> OracleSolution:
    """Exact minimizer of ||(kron of factors) x - b||_2, desk scale.

    The cost reported is the residual norm at the minimum-norm solution.
    """
    A = kron_chain(factors)
    b = _dense_label(b, A.shape[0])
    x = least_squares(A, b).x
    return OracleSolution(x, float(np.linalg.norm(A @ x - b)))


def exact_spline(factors, b, spline: SplineSpec) -> OracleSolution:
    """Exact minimizer of ||A x - b||^2 + lam ||L x||^2, desk scale."""
    A = kron_chain(factors)
    b = _dense_label(b, A.shape[0])
    L = spline.L
    if L.shape[1] != A.shape[1]:
        raise DimensionError(f"L has {L.shape[1]} cols, A has {A.shape[1]}")
    stacked = np.vstack([A, math.sqrt(spline.lam) * L])
    result = least_squares(stacked, np.concatenate([b, np.zeros(L.shape[0])]))
    if result.rank_deficient:
        raise RegularizationError(
            "normal matrix A.T A + lam L.T L is singular"
        )
    x = result.x
    cost = float(
        np.linalg.norm(A @ x - b) ** 2 + spline.lam * np.linalg.norm(L @ x) ** 2
    )
    return OracleSolution(x, cost)


def exact_lowrank(factors, k: int) -> float:
    """Optimal rank-k approximation error of the explicit product.

    Frobenius norm of the singular-value tail, sqrt(sum_{i>k} s_i^2).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    A = kron_chain(factors)
    s = np.linalg.svd(A, compute_uv=False)
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def leverage_scores(A) -> np.ndarray:
    """Row leverage scores: squared row norms of A's orthogonal factor.

    Scores lie in [0, 1] and sum to rank(A).
    """
    A = as_matrix(A)
    U, s, _ = thin_svd(A)
    rank = numerical_rank(s, A.shape)
    return np.einsum("ij,ij->i", U[:, :rank], U[:, :rank])


def _sampled_solve(mats, b, scores, eps, delta, c_factor, seed) -> np.ndarray:
    totals = [s.sum() for s in scores]
    if any(t <= 0.0 for t in totals):
        raise DegenerateInputError("a factor has all-zero leverage scores")
    probs = [s / t for s, t in zip(scores, totals)]
    d = 1
    for A in mats:
        d *= A.shape[1]
    # the sampled system must stay overdetermined
    m = max(math.ceil(c_factor * d / (delta * eps**2)), d)
    rng = np.random.default_rng(seed)
    draws = [rng.choice(A.shape[0], size=m, p=p) for A, p in zip(mats, probs)]
    rows = mats[0][draws[0]]
    p_row = probs[0][draws[0]].copy()
    flat = draws[0].astype(np.int64)
    for A, p, idx in zip(mats[1:], probs[1:], draws[1:]):
        rows = np.einsum("mi,mj->mij", rows, A[idx]).reshape(m, -1)
        p_row *= p[idx]
        flat = flat * A.shape[0] + idx
    w = 1.0 / np.sqrt(m * p_row)
    return least_squares(w[:, None] * rows, w * b[flat]).x


def leverage_sample_regression(
    factors, b, eps: float, delta: float, c_factor: float = 1.0, seed: int = 0
) -> np.ndarray:
    """Leverage-score sampled solve of the Kronecker regression problem.

    Draws m = ceil(c * d / (delta * eps^2)) rows with replacement, one
    digit per factor proportional to that factor's scores, rescales each
    sampled row and label entry by 1 / sqrt(m * p_row), and solves the
    small weighted least-squares problem.
    """
    mats = [as_matrix(f) for f in factors]
    if not mats:
        raise DimensionError("need at least one factor")
    if not (0.0 < eps and 0.0 < delta < 1.0):
        raise ValueError("need eps > 0 and 0 < delta < 1")
    n = 1
    for A in mats:
        n *= A.shape[0]
    b = _dense_label(b, n)
    scores = [leverage_scores(A) for A in mats]
    return _sampled_solve(mats, b, scores, eps, delta, c_factor, seed)


class LeverageBaseline:
    """Stateful wrapper for replaying update streams against the baseline.

    Updates mutate the stored factor and drop that factor's cached scores;
    queries resample with the current scores. Successive queries consume
    fresh randomness from the seeded stream.
    """

    def __init__(self, factors, b, eps, delta, c_factor=1.0, seed=0):
        self.factors = [as_matrix(f).copy() for f in factors]
        n = 1
        for A in self.factors:
            n *= A.shape[0]
        self.b = _dense_label(b, n)
        self.eps = eps
        self.delta = delta
        self.c_factor = c_factor
        self._rng = np.random.default_rng(seed)
        self._scores: list = [None] * len(self.factors)

    def update(self, i: int, B) -> None:
        if not 0 <= i < len(self.factors):
            raise IndexError(f"factor index {i} out of range")
        B = as_matrix(B)
        if B.shape != self.factors[i].shape:
            raise DimensionError("update shape mismatch")
        self.factors[i] += B
        self._scores[i] = None

    def update_label(self, delta) -> None:
        self.b = self.b + _dense_label(delta, self.b.size)

    def query(self) -> np.ndarray:
        for i, A in enumerate(self.factors):
            if self._scores[i] is None:
                self._scores[i] = leverage_scores(A)
        seed = int(self._rng.integers(0, 1 << 63))
        return _sampled_solve(
            self.factors, self.b, self._scores, self.eps, self.delta,
            self.c_factor, seed,
        )
