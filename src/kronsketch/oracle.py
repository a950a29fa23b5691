"""Ground-truth solvers and the leverage-score sampling baseline.

The exact solvers never form the n x d Kronecker product A: with thin QR
factorizations A_i = Q_i R_i, A = kron(Q_i) kron(R_i) and kron(Q_i) has
orthonormal columns, so every exact answer follows from the small
R = kron(R_i), which shares A's singular values and right singular
vectors, and from c = kron(Q_i)^T b, read at b's nonzeros only (Van Loan
2000; Diao, Song, Sun and Woodruff 2018). Leverage-score row sampling is
the classical randomized alternative the tree is benchmarked against.
Leverage scores of the product factor across the chain in the same way,
so rows are sampled one digit per factor and assembled on the fly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionError,
    SparseVector,
    as_matrix,
    kron_chain,
    kron_rows_dot,
    least_squares,
    numerical_rank,
    thin_svd,
)
from .solvers import SplineSpec, penalized_solve


class DegenerateInputError(ValueError):
    """Inputs whose sampling distribution has no mass (all-zero factors)."""


@dataclass(frozen=True)
class OracleSolution:
    """Exact minimizer and its objective value."""

    x_star: np.ndarray
    opt_cost: float


def _label(b, n: int) -> SparseVector:
    """A sparse or dense label of length n, as a SparseVector."""
    if not isinstance(b, SparseVector):
        b = SparseVector.from_dense(b)
    if b.length != n:
        raise DimensionError(f"label length {b.length} != n {n}")
    return b


@dataclass(frozen=True)
class KronReduction:
    """``||A x - b||^2 = ||R x - c||^2 + tail`` for A the Kronecker product.

    R = kron(R_i) and c = kron(Q_i)^T b (None without a label) carry zero
    rows up to min(n, d). tail = ||b||^2 - ||c||^2 >= 0 loses digits to
    cancellation: a residual is exact only to about sqrt(nnz eps) ||b||
    (3.5e-8 ||b|| on exact-fit labels, where the dense one reads 2e-13 ||b||).
    """

    R: np.ndarray
    c: np.ndarray | None
    tail: float

    def cost(self, x, spline: SplineSpec | None = None) -> float:
        """||A x - b||, or ||A x - b||^2 + lam ||L x||^2 given a spline."""
        r = self.R @ x - self.c
        sq = float(r @ r) + self.tail
        if spline is None:
            return math.sqrt(sq)
        return sq + spline.lam * float(np.linalg.norm(spline.L @ x)) ** 2


def kron_reduction(factors, b=None) -> KronReduction:
    """The reduction of the Kronecker product of ``factors`` and label b.

    b is sparse or dense (duplicate indices sum), or None for R alone. The
    cost is a thin QR per factor, a sort of b's nonzeros and one
    ``kron_rows_dot``; nothing of size n is allocated.
    """
    mats = [as_matrix(f) for f in factors]
    if not mats:
        raise DimensionError("need at least one factor")
    qr = [np.linalg.qr(A) for A in mats]
    n = math.prod(A.shape[0] for A in mats)
    R = kron_chain([r for _, r in qr])
    pad = min(n, R.shape[1]) - R.shape[0]
    R = np.vstack([R, np.zeros((pad, R.shape[1]))])
    if b is None:
        return KronReduction(R, None, 0.0)
    b = _label(b, n)
    order = np.argsort(b.indices, kind="stable")
    idx = b.indices[order]
    first = np.flatnonzero(np.diff(idx, prepend=-1))
    idx, vals = idx[first], np.add.reduceat(b.values[order], first)
    c = np.concatenate([kron_rows_dot([q for q, _ in qr], idx, vals), np.zeros(pad)])
    return KronReduction(R, c, max(float(vals @ vals - c @ c), 0.0))


def exact_kron_regression(factors, b) -> OracleSolution:
    """Exact minimizer of ||(kron of factors) x - b||_2.

    The cost reported is the residual norm at the minimum-norm solution;
    n < d raises DimensionError.
    """
    red = kron_reduction(factors, b)
    x = least_squares(red.R, red.c).x
    return OracleSolution(x, red.cost(x))


def exact_spline(factors, b, spline: SplineSpec) -> OracleSolution:
    """Exact minimizer of ||A x - b||^2 + lam ||L x||^2."""
    red = kron_reduction(factors, b)
    x = penalized_solve(red.R, red.c, spline)
    return OracleSolution(x, red.cost(x, spline))


def exact_lowrank(factors, k: int) -> float:
    """Optimal rank-k approximation error of the Kronecker product.

    Frobenius norm of the singular-value tail, sqrt(sum_{i>k} s_i^2).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    s = np.linalg.svd(kron_reduction(factors).R, compute_uv=False)
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
    d = math.prod(A.shape[1] for A in mats)
    # the sampled system must stay overdetermined
    m = max(math.ceil(c_factor * d / (delta * eps**2)), d)
    rng = np.random.default_rng(seed)
    draws = [rng.choice(A.shape[0], size=m, p=p) for A, p in zip(mats, probs)]
    rows = mats[0][draws[0]]
    p_row = probs[0][draws[0]].copy()
    for A, p, idx in zip(mats[1:], probs[1:], draws[1:]):
        rows = np.einsum("mi,mj->mij", rows, A[idx]).reshape(m, -1)
        p_row *= p[idx]
    flat = np.ravel_multi_index(draws, [A.shape[0] for A in mats])
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
    b = _label(b, math.prod(A.shape[0] for A in mats)).to_dense()
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
        self.b = _label(b, math.prod(A.shape[0] for A in self.factors)).to_dense()
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
        self.b = self.b + _label(delta, self.b.size).to_dense()

    def query(self) -> np.ndarray:
        for i, A in enumerate(self.factors):
            if self._scores[i] is None:
                self._scores[i] = leverage_scores(A)
        seed = int(self._rng.integers(0, 1 << 63))
        return _sampled_solve(
            self.factors, self.b, self._scores, self.eps, self.delta,
            self.c_factor, seed,
        )
