"""Dense linear algebra primitives shared by the whole package.

Conventions used everywhere:

* matrices are 2-D C-contiguous float64 arrays, vectors are 1-D float64;
* the Kronecker product uses the block layout
  ``(A kron B)[i*rB + k, j*cB + l] = A[i, j] * B[k, l]``, so a flattened
  multi-index over a chain of factors has the FIRST factor as its most
  significant digit;
* all functions are pure and safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

# Allocation guard for explicit products and materialized sketches.
MAX_ELEMENTS = 1 << 31


class DimensionError(ValueError):
    """Shapes or sizes that make the requested operation meaningless."""


class RegularizationError(ValueError):
    """A matrix that had to be positive definite or full rank was not."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, copying only if needed."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def as_vector(a) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.ascontiguousarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got ndim={v.ndim}")
    if v.size and not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


@dataclass(frozen=True)
class SparseVector:
    """Sparse view of a long vector as (index, value) pairs.

    Indices are zero-based positions under the package-wide Kronecker
    ordering (first factor most significant). Duplicate indices are allowed
    and mean summation.
    """

    length: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        val = np.ascontiguousarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.size != val.size:
            raise DimensionError("indices and values must be 1-D and aligned")
        if self.length < 0:
            raise DimensionError("negative length")
        if idx.size and (idx.min() < 0 or idx.max() >= self.length):
            raise IndexError("sparse index out of range")
        if val.size and not np.isfinite(val).all():
            raise ValueError("sparse values contain non-finite entries")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @classmethod
    def from_dense(cls, v) -> "SparseVector":
        v = as_vector(v)
        idx = np.nonzero(v)[0]
        return cls(v.size, idx, v[idx])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.length)
        np.add.at(out, self.indices, self.values)
        return out


def kron(A, B) -> np.ndarray:
    """Kronecker product in block layout: block (i, j) equals A[i, j] * B."""
    A = as_matrix(A)
    B = as_matrix(B)
    rows = A.shape[0] * B.shape[0]
    cols = A.shape[1] * B.shape[1]
    if rows * cols > MAX_ELEMENTS:
        raise DimensionError(f"kron result {rows}x{cols} exceeds element limit")
    return np.einsum("ij,kl->ikjl", A, B).reshape(rows, cols)


def kron_chain(factors) -> np.ndarray:
    """Left-associated Kronecker product of a non-empty list of matrices."""
    mats = [as_matrix(f) for f in factors]
    if not mats:
        raise DimensionError("kron_chain needs at least one factor")
    out = mats[0]
    for f in mats[1:]:
        out = kron(out, f)
    return out


def _hadamard_axis0(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterflies along axis 0, in place.

    ``a`` must be C-contiguous 2-D with a power-of-two number of rows.
    """
    n = a.shape[0]
    h = 1
    while h < n:
        b = a.reshape(n // (2 * h), 2, h, -1)
        top = b[:, 0].copy()
        b[:, 0] += b[:, 1]
        np.subtract(top, b[:, 1], out=b[:, 1])
        h *= 2
    return a


class LstsqResult(NamedTuple):
    x: np.ndarray
    rank: int
    rank_deficient: bool


def least_squares(M, y) -> LstsqResult:
    """Minimum-norm least-squares solution of min_x ||M x - y||_2.

    Solved through an orthogonal (SVD-based) factorization; rank-deficient
    systems silently take the pseudo-inverse path and are flagged in the
    returned metadata.
    """
    M = as_matrix(M)
    y = as_vector(y)
    if M.shape[0] < M.shape[1]:
        raise DimensionError(f"need rows >= cols, got {M.shape}")
    if y.size != M.shape[0]:
        raise DimensionError(f"rhs length {y.size} != rows {M.shape[0]}")
    x, _, rank, _ = np.linalg.lstsq(M, y, rcond=None)
    return LstsqResult(x, int(rank), int(rank) < M.shape[1])


def thin_svd(M):
    """Thin SVD. Returns (U, s, V) with M = U @ diag(s) @ V.T.

    Singular values are nonincreasing; U and V have orthonormal columns.
    """
    M = as_matrix(M)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    return U, s, Vh.T


def sym_generalized_eigs(P, Q) -> np.ndarray:
    """Eigenvalues of the pencil P x = mu Q x for symmetric P, SPD Q.

    Returned in descending order. Raises RegularizationError when the
    Cholesky factorization of Q fails (Q not positive definite).
    """
    P = as_matrix(P)
    Q = as_matrix(Q)
    if P.shape != Q.shape or P.shape[0] != P.shape[1]:
        raise DimensionError("P and Q must be square and same size")
    scale = max(np.abs(P).max(initial=0.0), np.abs(Q).max(initial=0.0), 1.0)
    if not np.allclose(P, P.T, atol=1e-10 * scale) or not np.allclose(
        Q, Q.T, atol=1e-10 * scale
    ):
        raise ValueError("P and Q must be symmetric")
    try:
        w = scipy.linalg.eigh(P, Q, eigvals_only=True)
    except np.linalg.LinAlgError as err:
        raise RegularizationError(
            "Q is not positive definite; regularize Q (e.g. add a small "
            "multiple of the identity) before calling"
        ) from err
    return np.ascontiguousarray(w[::-1])
