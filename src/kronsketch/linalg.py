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

import functools
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
    return functools.reduce(kron, mats)


def kron_rows_dot(factors, indices, values) -> np.ndarray:
    """``kron_chain(factors)[indices].T @ values`` without forming the product.

    Factor rows at the indices' digits (first factor most significant) are
    taken as d_i x nnz blocks (``np.take`` beats fancy indexing on short
    rows); all but the last, weighted by ``values``, combine into one
    (d / d_last) x nnz block, and one GEMM with the last ends the sum."""
    mats = [as_matrix(f) for f in factors]
    values = as_vector(values)
    dims = [f.shape[0] for f in mats]
    digits = np.unravel_index(np.asarray(indices, dtype=np.int64), dims)
    cols = [np.take(f.T, j, axis=1) for f, j in zip(mats, digits)]
    left = values[None, :]
    for c in cols[:-1]:
        left = left[:, None, :] * c[None, :, :]
        left = left.reshape(left.shape[0] * left.shape[1], values.size)
    return (left @ cols[-1].T).ravel()


def _bit_parity_sign(x: np.ndarray) -> np.ndarray:
    """(-1)**popcount(x) for a nonnegative int64 array."""
    return 1.0 - 2.0 * (np.bitwise_count(x) & 1)


def _hadamard_matrix(p: int) -> np.ndarray:
    """Explicit unnormalized +-1 Hadamard matrix, H[r, c] = (-1)^popcount(r&c)."""
    if p * p > MAX_ELEMENTS:
        raise DimensionError(f"Hadamard matrix of side {p} exceeds element limit")
    idx = np.arange(p, dtype=np.int64)
    return _bit_parity_sign(idx[:, None] & idx[None, :])


# H_32; its top-left r x r block is H_r for every power of two r <= 32.
_H32 = _hadamard_matrix(32)
_H32.flags.writeable = False

# OpenBLAS's dgemm computes a column bit for bit alike wherever it sits in a
# run of whole 8-column tiles, but not in a narrower tail tile or gemv.
_TILE = 8


def _radix32(p: int) -> list[int]:
    """Digit sizes of p = 2**k in base 32, most significant first; the
    remainder digit 2**(k % 5), if any, leads."""
    k = p.bit_length() - 1
    return [1 << k % 5] * (k % 5 > 0) + [32] * (k // 5)


class HadamardWork:
    """Two flat scratch arrays for unnormalized Walsh-Hadamard transforms.

    ``block(p, n, c)`` hands out a p x c input block whose rows n.. are zero;
    the caller writes X[:n] into it, and ``transform()`` returns H_p X.
    H_p = H_s0 (x) H_s1 (x) ... over the base-32 digits of p (Sylvester;
    Van Loan 2000), so the transform is one GEMM by a block of ``_H32`` per
    digit, ping-ponging between the two arrays. A digit's GEMM is
    N = post * c columns wide, with post the product of the later digits;
    where N is not a multiple of ``_TILE`` (in practice only for the last
    digit, whose post is 1), the columns are first zero-padded to one, so a
    column's result never depends on how many columns come with it.

    The arrays grow to the largest block asked for and are reused by later
    blocks, so a caller that transforms many blocks (a label's chunks) keeps
    one work object across them and drops it when done. A work object is
    state: give each thread its own.
    """

    def __init__(self):
        self._flat = [np.empty(0), np.empty(0)]
        self._shape = 0, 0

    def _take(self, k: int, rows: int, cols: int) -> np.ndarray:
        if self._flat[k].size < rows * cols:
            self._flat[k] = np.empty(rows * cols)
        return self._flat[k][: rows * cols].reshape(rows, cols)

    def block(self, p: int, n: int, c: int) -> np.ndarray:
        """Input block of p rows (a power of two) and c columns, valid until
        the next call, with rows n.. zero."""
        x = self._take(0, p, c)
        x[n:] = 0.0
        self._shape = p, c
        return x

    def transform(self) -> np.ndarray:
        """H_p X for the block just filled, as a (p, c) view of a work array
        (of the block itself when p = 1); the block is overwritten."""
        p, c = self._shape
        k, x, wide = 0, self._take(0, p, c), c
        pre = 1
        for s in _radix32(p):
            post = p // (pre * s)
            if post * wide % _TILE:
                wide = -(-c // _TILE) * _TILE
                padded = self._take(1 - k, p, wide)
                padded[:, :c] = x
                padded[:, c:] = 0.0
                k, x = 1 - k, padded
            k, y = 1 - k, self._take(1 - k, p, wide)
            shape = pre, s, post * wide
            np.matmul(_H32[:s, :s], x.reshape(shape), out=y.reshape(shape))
            x = y
            pre *= s
        return x[:, :c]


def _hadamard_axis0(a: np.ndarray) -> np.ndarray:
    """H_p a for the unnormalized +-1 Hadamard matrix H_p, p = a.shape[0] a
    power of two, as a (p, c) view of a new array; ``a`` is not modified.

    Any column count c is accepted (see ``HadamardWork``).
    """
    p, c = a.shape
    work = HadamardWork()
    work.block(p, p, c)[:] = a
    return work.transform()


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


def numerical_rank(s: np.ndarray, shape) -> int:
    """Count of descending singular values s of a matrix of this shape above
    max(shape) * eps * s[0], NumPy's matrix_rank tolerance."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(shape) * np.finfo(np.float64).eps * s[0]))


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
