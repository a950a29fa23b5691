"""Query pipelines over a sketched Kronecker product tree.

All three solvers read the tree's root in its orthonormal frame, R = Q M
(m x d, ``TensorTree.root``), and never touch the full design matrix or
the time-domain root M: regression solves the sketched least squares,
spline regression solves the sketched penalized problem, both with the
label rotated by the same Q (``TensorTree.frame``), and low-rank
approximation takes top right singular vectors of R. Q is orthogonal, so
each answer is the one M would give, up to rounding (bit for bit where Q is
the identity: TensorSRHT roots and one-leaf trees). Everything here is
read-only with respect to the tree and safe to run concurrently with other
reads, never concurrently with an update.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionError,
    RegularizationError,
    as_matrix,
    kron_chain,
    least_squares,
    numerical_rank,
    thin_svd,
)
from .sketches import ConfigurationError
from .tree import TensorTree

_RANK_CONDITION = (
    "spline rank condition violated: need rank(L) = p and "
    "rank([A; L]) = d"
)


class RankDeficientWarning(RuntimeWarning):
    """A rank-deficient sketched root: the answer is the minimum-norm one."""


@dataclass(frozen=True)
class SplineSpec:
    """Penalty matrix L (p x d) and finite nonnegative weight lam.

    The penalized objective is ||A x - b||^2 + lam * ||L x||^2. The
    statistical-dimension computation additionally requires L to have full
    row rank and the stacked [A; L] full column rank.
    """

    L: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "L", as_matrix(self.L))
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")

    @property
    def p(self) -> int:
        return self.L.shape[0]


@dataclass(frozen=True)
class LowRankResult:
    """Rank-k approximation in factored form: (kron of factors) @ Uk.T @ Uk.

    Uk is k x d with orthonormal rows.
    """

    factors: list
    Uk: np.ndarray


def regression_query(tree: TensorTree, b_sketch) -> np.ndarray:
    """Approximate minimizer of ||(kron of factors) x - b||_2.

    Solves the sketched problem min_x ||M x - b_sketch|| at the root, as
    min_x ||R x - Q b_sketch|| in the root's frame. A rank-deficient root
    warns with RankDeficientWarning and gives the minimum-norm answer.
    """
    R, y = tree.root, tree.frame(b_sketch)
    if R.shape[0] < R.shape[1]:
        raise ConfigurationError(
            f"sketching dimension {R.shape[0]} cannot embed a "
            f"{R.shape[1]}-dimensional column space; increase m"
        )
    x, rank, deficient = least_squares(R, y)
    if deficient:
        warnings.warn(f"sketched root has rank {rank} < d = {R.shape[1]}", RankDeficientWarning)
    return x


def penalized_solve(M, y, spline: SplineSpec) -> np.ndarray:
    """Minimizer of ||M x - y||^2 + lam ||L x||^2.

    Solved as one ``least_squares`` problem on the stacked [M; sqrt(lam) L],
    whose answer is the closed form (M.T M + lam L.T L)^{-1} M.T y: by a
    refined Cholesky solve where that matrix is well conditioned, and by
    the SVD-based fallback otherwise. Fewer stacked rows than columns raise
    DimensionError, and a singular normal matrix RegularizationError.
    """
    L = spline.L
    if L.shape[1] != M.shape[1]:
        raise DimensionError(f"L has {L.shape[1]} cols, expected {M.shape[1]}")
    stacked = np.vstack([M, math.sqrt(spline.lam) * L])
    result = least_squares(stacked, np.concatenate([y, np.zeros(L.shape[0])]))
    if result.rank_deficient:
        raise RegularizationError(_RANK_CONDITION)
    return result.x


def spline_query(tree: TensorTree, b_sketch, spline: SplineSpec) -> np.ndarray:
    """Approximate minimizer of ||A x - b||^2 + lam ||L x||^2: the
    penalized problem on the root and the sketched label, in the root's frame."""
    return penalized_solve(tree.root, tree.frame(b_sketch), spline)


def statistical_dimension(A, spline: SplineSpec) -> float:
    """Effective degrees of freedom of the penalized problem,
    sd = tr(A (A.T A + lam L.T L)^{-1} A.T) (Avron, Clarkson and Woodruff 2017).

    With the thin QR [A; sqrt(lam) L] = [Q_A; Q_L] R, A.T A + lam L.T L =
    R.T R, so sd = ||A R^{-1}||_F^2 = ||Q_A||_F^2. The rank checks read the
    unscaled [A; L].
    """
    A = as_matrix(A)
    L = spline.L
    lam = spline.lam
    d = A.shape[1]
    p = L.shape[0]
    if L.shape[1] != d:
        raise DimensionError(f"L has {L.shape[1]} cols, A has {d}")
    if numerical_rank(np.linalg.svd(L, compute_uv=False), L.shape) < p:
        raise RegularizationError(_RANK_CONDITION)
    s_stack = np.linalg.svd(np.vstack([A, L]), compute_uv=False)
    if numerical_rank(s_stack, (A.shape[0] + p, d)) < d:
        raise RegularizationError(_RANK_CONDITION)
    if lam == 0.0:
        return float(d)
    Q = np.linalg.qr(np.vstack([A, math.sqrt(lam) * L]))[0]
    return float(np.sum(Q[: A.shape[0]] ** 2))


def lowrank_query(tree: TensorTree, k: int) -> LowRankResult:
    """Rank-k approximation of the Kronecker product, in factored form.

    Takes the top k right singular vectors of the root sketch (those of
    its frame R); the result represents (kron of factors) @ Uk.T @ Uk
    without forming it.
    """
    R = tree.root
    d = R.shape[1]
    if not 1 <= k <= d:
        raise ValueError(f"rank k={k} out of range [1, {d}]")
    if R.shape[0] < k:
        raise ConfigurationError(f"need m >= k, got m={R.shape[0]}, k={k}")
    _, _, V = thin_svd(R)
    Uk = np.ascontiguousarray(V[:, :k].T)
    return LowRankResult([f.copy() for f in tree.factors], Uk)


def materialize_lowrank(result: LowRankResult) -> np.ndarray:
    """Expand a factored low-rank approximation (desk scale only)."""
    A = kron_chain(result.factors)
    return A @ result.Uk.T @ result.Uk
