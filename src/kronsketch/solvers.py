"""Query pipelines over a sketched Kronecker product tree.

All three solvers read the tree's root matrix M (m x d) and never touch
the full design matrix: regression solves the sketched least squares,
spline regression solves the sketched penalized problem, and low-rank
approximation takes top right singular vectors of M. Everything here is
read-only with respect to the tree and safe to run concurrently with other
reads, never concurrently with an update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionError,
    RegularizationError,
    as_matrix,
    as_vector,
    kron_chain,
    least_squares,
    numerical_rank,
    sym_generalized_eigs,
    thin_svd,
)
from .sketches import ConfigurationError
from .tree import TensorTree

_RANK_CONDITION = (
    "spline rank condition violated: need rank(L) = p and "
    "rank([A; L]) = d"
)


@dataclass(frozen=True)
class SplineSpec:
    """Penalty matrix L (p x d) and nonnegative weight lam.

    The penalized objective is ||A x - b||^2 + lam * ||L x||^2. The
    statistical-dimension computation additionally requires L to have full
    row rank and the stacked [A; L] full column rank.
    """

    L: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "L", as_matrix(self.L))
        if self.lam < 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")

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

    Solves the sketched problem min_x ||M x - b_sketch|| at the root.
    """
    M = tree.root
    b_sketch = as_vector(b_sketch)
    if M.shape[0] < M.shape[1]:
        raise ConfigurationError(
            f"sketching dimension {M.shape[0]} cannot embed a "
            f"{M.shape[1]}-dimensional column space; increase m"
        )
    if b_sketch.size != M.shape[0]:
        raise DimensionError(
            f"sketched label length {b_sketch.size} != m {M.shape[0]}"
        )
    return least_squares(M, b_sketch).x


def penalized_solve(M, y, spline: SplineSpec) -> np.ndarray:
    """Minimizer of ||M x - y||^2 + lam ||L x||^2.

    Solved as one least-squares problem on the stacked [M; sqrt(lam) L]
    (orthogonal factorization), which is equivalent to the normal-equation
    closed form (M.T M + lam L.T L)^{-1} M.T y but better conditioned.
    Fewer stacked rows than columns raise DimensionError, and a singular
    normal matrix raises RegularizationError.
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
    penalized problem on the root M and the sketched label."""
    M = tree.root
    b_sketch = as_vector(b_sketch)
    if b_sketch.size != M.shape[0]:
        raise DimensionError(
            f"sketched label length {b_sketch.size} != m {M.shape[0]}"
        )
    return penalized_solve(M, b_sketch, spline)


def statistical_dimension(A, spline: SplineSpec) -> float:
    """Effective degrees of freedom of the penalized problem.

    Equals sum_i gamma_i^2 / (gamma_i^2 + lam) + d - p, where gamma_i^2
    are the p finite generalized eigenvalues of the pencil (A.T A, L.T L).
    Those are obtained by reducing the pencil onto the row space of L: the
    null-space block of A.T A is eliminated through its Schur complement
    (A couples the two subspaces in general), and the reduced symmetric
    definite pencil goes to sym_generalized_eigs.
    """
    A = as_matrix(A)
    L = spline.L
    lam = spline.lam
    d = A.shape[1]
    p = L.shape[0]
    if L.shape[1] != d:
        raise DimensionError(f"L has {L.shape[1]} cols, A has {d}")
    _, sL, VfullT = np.linalg.svd(L, full_matrices=True)
    if numerical_rank(sL, L.shape) < p:
        raise RegularizationError(_RANK_CONDITION)
    s_stack = np.linalg.svd(np.vstack([A, L]), compute_uv=False)
    if numerical_rank(s_stack, (A.shape[0] + p, d)) < d:
        raise RegularizationError(_RANK_CONDITION)
    if lam == 0.0:
        return float(d)
    G = A.T @ A
    V = VfullT[:p].T
    if p == d:
        P_red = G
        Q_red = L.T @ L
    else:
        W = VfullT[p:].T
        gvv = V.T @ G @ V
        gvw = V.T @ G @ W
        gww = W.T @ G @ W
        P_red = gvv - gvw @ np.linalg.solve(gww, gvw.T)
        Q_red = V.T @ (L.T @ L) @ V
    P_red = (P_red + P_red.T) / 2.0
    Q_red = (Q_red + Q_red.T) / 2.0
    gamma_sq = np.clip(sym_generalized_eigs(P_red, Q_red), 0.0, None)
    return float(np.sum(gamma_sq / (gamma_sq + lam)) + d - p)


def lowrank_query(tree: TensorTree, k: int) -> LowRankResult:
    """Rank-k approximation of the Kronecker product, in factored form.

    Takes the top k right singular vectors of the root sketch; the result
    represents (kron of factors) @ Uk.T @ Uk without forming it.
    """
    M = tree.root
    d = M.shape[1]
    if not 1 <= k <= d:
        raise ValueError(f"rank k={k} out of range [1, {d}]")
    if M.shape[0] < k:
        raise ConfigurationError(f"need m >= k, got m={M.shape[0]}, k={k}")
    _, _, V = thin_svd(M)
    Uk = np.ascontiguousarray(V[:, :k].T)
    return LowRankResult([f.copy() for f in tree.factors], Uk)


def materialize_lowrank(result: LowRankResult) -> np.ndarray:
    """Expand a factored low-rank approximation (desk scale only)."""
    A = kron_chain(result.factors)
    return A @ result.Uk.T @ result.Uk
