"""Seeded sketch constructions and their fast application paths.

Base families map R^n -> R^m and are applied to tall factor matrices:

* OSNAP (Nelson-Nguyen, FOCS 2013): exactly s signed nonzeros of magnitude
  1/sqrt(s) per coordinate, on a uniform s-subset of the output rows, drawn
  for all coordinates at once by a vectorized Floyd's algorithm.
* CountSketch: OSNAP with s = 1, one signed nonzero per coordinate placed
  by a hash. Both hashing families keep only the sketch itself, a sparse
  m x n CSC matrix whose column j holds s entries, so their apply is one
  sparse product (one pass over the nonzeros), and the hash rows and signed
  values of column j are slice j of its (indices, data) read as (n, s).
* SRHT: sign flip, orthonormal Walsh-Hadamard transform, row sampling
  without replacement, scaled by sqrt(padded/m). Inputs are zero-padded to
  the next power of two >= max(n, m). The transform is one small GEMM by a
  +-1 Sylvester block per base-32 digit of the padded size
  (``linalg.HadamardWork``), not log2(padded) butterfly passes.

Tensor families map R^(side^2) -> R^m_out but are only ever evaluated on
Kronecker columns u (x) v, which they consume as the pair (u, v) without
forming the long vector:

* TensorSketch: count-sketch each side with its own (hash, sign) pair, kept
  as the same sparse matrix, with the same apply, as a CountSketch leaf,
  and cyclically convolve the two images (a product of their rffts).
  On one-hot columns the convolution is exact: e_a and e_b go to the single
  row (h1[a] + h2[b]) mod m with sign s1[a] * s2[b], so CountSketch columns
  under TensorSketch nodes stay one-hot all the way up (Pham-Pagh, KDD
  2013). ``countsketch_columns`` and ``tensorsketch_cols`` carry such
  columns as (row, sign) arrays, in O(1) per column at any m.
  The outputs also have an orthonormal real-Fourier frame (``to_frame``):
  the weighted real and imaginary parts of their rfft, which the pair
  combine gives straight from the side products, with no inverse transform.
  A tree keeps its TensorSketch root in that frame.
* TensorSRHT: per output row r, the product of one coordinate of H D1 u and
  one of H D2 v (H the unnormalized +-1 Hadamard matrix on the padded
  side, applied by the same GEMMs), scaled by 1/sqrt(m_out). A column's
  transform is bit for bit the same whatever columns come with it, so the
  matched-column combine is the pair combine's diagonal exactly.

Every spec is an immutable value; the sparse hashing matrices and the
sign/sampling internals are a pure function of (spec fields, seed),
so two materializations of the same spec are bit-identical. They are drawn
on a spec's first use and kept, read-only, on the spec itself, so they are
freed with it: a tree that replaces a spec drops its internals too. Two
threads that first use one spec at the same time may both draw, identically,
so specs can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .linalg import (
    MAX_ELEMENTS,
    DimensionError,
    HadamardWork,
    _bit_parity_sign,
    _hadamard_matrix,
    as_matrix,
)

MAX_SEED = 1 << 64

# Leaf sparsity used for OSNAP specs when the caller does not pick one.
DEFAULT_OSNAP_SPARSITY = 8


class ConfigurationError(ValueError):
    """An unsupported or inconsistent sketch configuration."""


class BaseFamily(str, Enum):
    COUNT_SKETCH = "countsketch"
    OSNAP = "osnap"
    SRHT = "srht"


class TensorFamily(str, Enum):
    TENSOR_SKETCH = "tensorsketch"
    TENSOR_SRHT = "tensorsrht"


def _check_int(name: str, value, low: int, high=math.inf) -> int:
    """``value`` as an int in [low, high): a non-integer raises
    ConfigurationError, an integer out of range ValueError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    if not low <= value < high:
        raise ValueError(f"{name} must lie in [{low}, {high}), got {value}")
    return value


@dataclass(frozen=True)
class BaseSketchSpec:
    """Immutable description of one base sketch draw (R^n -> R^m)."""

    family: BaseFamily
    input_dim: int
    output_dim: int
    sparsity: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", BaseFamily(self.family))
        if self.input_dim < 1 or self.output_dim < 1:
            raise DimensionError("input_dim and output_dim must be >= 1")
        if self.family is BaseFamily.OSNAP:
            if not 1 <= self.sparsity <= self.output_dim:
                raise ConfigurationError(
                    f"OSNAP needs 1 <= sparsity <= m, got s={self.sparsity}"
                )
        elif self.sparsity != 0:
            raise ConfigurationError(
                f"{self.family.value} does not take a sparsity parameter"
            )
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0, MAX_SEED))


@dataclass(frozen=True)
class TensorSketchSpec:
    """Immutable description of one tensor-typed sketch draw.

    Represents a linear map R^(side_dim^2) -> R^output_dim evaluated on
    column pairs; the side_dim^2 vector is never formed.
    """

    family: TensorFamily
    side_dim: int
    output_dim: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", TensorFamily(self.family))
        if self.side_dim < 1 or self.output_dim < 1:
            raise DimensionError("side_dim and output_dim must be >= 1")
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0, MAX_SEED))


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length() if n > 1 else 1


def _rademacher(rng: np.random.Generator, size) -> np.ndarray:
    return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0


def _kept_on_spec(draw):
    """Keep a spec's internals, read-only, on the (frozen) spec itself."""

    @functools.wraps(draw)
    def internals(spec):
        out = spec.__dict__.get("_internals")
        if out is None:
            out = draw(spec)
            for item in out:
                is_csc = isinstance(item, sparse.csc_array)
                for arr in (item.data, item.indices, item.indptr) if is_csc else (item,):
                    if isinstance(arr, np.ndarray):
                        arr.flags.writeable = False
            object.__setattr__(spec, "_internals", out)
        return out

    return internals


def _distinct_rows(rng: np.random.Generator, n: int, m: int, s: int) -> np.ndarray:
    """(n, s) C-contiguous array whose row j is a uniform s-subset of range(m).

    Floyd's algorithm on all n rows at once: for j = m - s .. m - 1 draw t
    in [0, j] per row and keep t, or j if the row already holds t. The passes
    fill an (s, n) array, so each is one comparison against the rows so far.
    """
    rows = np.empty((s, n), dtype=np.int64)
    for k, j in enumerate(range(m - s, m)):
        t = rng.integers(0, j + 1, size=n)
        rows[k] = np.where((rows[:k] == t).any(0), j, t)
    return np.ascontiguousarray(rows.T)


@_kept_on_spec
def _base_internals(spec: BaseSketchSpec):
    """Sign/sampling arrays for an SRHT spec, or ``(S,)``, the sparse sketch of a
    hashing spec, derived from its seed."""
    rng = np.random.default_rng(spec.seed)
    n, m = spec.input_dim, spec.output_dim
    if spec.family is BaseFamily.SRHT:
        padded = _next_pow2(max(n, m))
        dsign = _rademacher(rng, padded)
        return padded, dsign, rng.choice(padded, size=m, replace=False)
    rows = _distinct_rows(rng, n, m, spec.sparsity or 1)  # CountSketch: s = 1
    return (_hash_matrix(rows, _rademacher(rng, rows.shape), m),)


@_kept_on_spec
def _tensor_internals(spec: TensorSketchSpec):
    """Sign/sampling arrays for a TensorSRHT spec, or ``(S1, S2)``, the sparse
    side sketches of a TensorSketch spec, derived from its seed."""
    rng = np.random.default_rng(spec.seed)
    side, m_out = spec.side_dim, spec.output_dim
    if spec.family is TensorFamily.TENSOR_SKETCH:
        h1 = rng.integers(0, m_out, size=(side, 1))
        h2 = rng.integers(0, m_out, size=(side, 1))
        s1 = _rademacher(rng, (side, 1))
        s2 = _rademacher(rng, (side, 1))
        return _hash_matrix(h1, s1, m_out), _hash_matrix(h2, s2, m_out)
    # TensorSRHT
    padded = _next_pow2(side)
    d1 = _rademacher(rng, padded)
    d2 = _rademacher(rng, padded)
    i_rows = rng.integers(0, padded, size=m_out)
    j_rows = rng.integers(0, padded, size=m_out)
    return padded, d1, d2, i_rows, j_rows


def _hash_matrix(rows, sign, m) -> sparse.csc_array:
    """The m x n hashing sketch: column j holds sign[j, k] / sqrt(s) at row rows[j, k].

    ``rows`` and ``sign`` are (n, s). Every column holds s entries, so the
    column pointers are a plain arange and nothing is sorted: ``indices`` and
    ``data`` read as (n, s) give each column's rows and values.

    A sketch of A is the sparse product ``S @ A``, one pass over S's
    nonzeros. The CSC kernel adds each output row's terms in ascending input
    row j, so with s = 1 (CountSketch, TensorSketch sides) every sum runs in
    the order of a scatter over j and is bit for bit the same. With s > 1
    the terms are scaled by 1/sqrt(s) before they are summed.
    """
    n, s = rows.shape
    return sparse.csc_array(
        (sign.ravel() / math.sqrt(s), rows.ravel(), np.arange(0, n * s + 1, s)),
        shape=(m, n),
    )


def _hash_slots(S: sparse.csc_array):
    """Rows and values of a hashing sketch's columns, each as an (n, s) array."""
    n = S.shape[1]
    return S.indices.reshape(n, -1), S.data.reshape(n, -1)


def _srht_rows(padded, dsign, rows, A, work: HadamardWork | None = None) -> np.ndarray:
    """Sampled rows of H D A: zero-pad, sign-flip, unnormalized Hadamard.

    The sign-flipped A is written straight into a zero-padded block of
    ``work`` (a fresh one if None), whose arrays the transform's GEMMs then
    ping-pong through.
    """
    n, c = A.shape
    if work is None:
        work = HadamardWork()
    np.multiply(dsign[:n, None], A, out=work.block(padded, n, c)[:n])
    return work.transform()[rows]


def apply_base(spec: BaseSketchSpec, A) -> np.ndarray:
    """Product of the materialized base sketch with A, without forming it.

    CountSketch/OSNAP hash rows of A directly; SRHT zero-pads, sign-flips,
    applies the Hadamard transform as one small GEMM per base-32 digit of
    the padded size, and samples rows.
    """
    A = as_matrix(A)
    if A.shape[0] != spec.input_dim:
        raise DimensionError(
            f"A has {A.shape[0]} rows, spec expects {spec.input_dim}"
        )
    if spec.family is not BaseFamily.SRHT:
        return _base_internals(spec)[0] @ A
    padded, dsign, rows = _base_internals(spec)
    # sqrt(padded/m) rescale times the 1/sqrt(padded) Hadamard normalization
    return _srht_rows(padded, dsign, rows, A) / math.sqrt(rows.size)


def base_columns(spec: BaseSketchSpec, indices) -> np.ndarray:
    """Selected columns of the materialized base sketch, one per index.

    Column t of the result is the sketch of e_{indices[t]}; repeats are
    allowed. CountSketch/OSNAP columns cost O(nonzeros), SRHT columns read
    one Hadamard entry per sampled row.
    """
    idx = _column_indices(spec, indices)
    m = spec.output_dim
    t = idx.size
    if spec.family is not BaseFamily.SRHT:
        rows, vals = _hash_slots(_base_internals(spec)[0])
        cols = np.zeros((m, t))
        cols[rows[idx].ravel(), np.repeat(np.arange(t), rows.shape[1])] = vals[idx].ravel()
        return cols
    padded, dsign, rows = _base_internals(spec)
    signs = _bit_parity_sign(rows[:, None] & idx[None, :])
    return signs * (dsign[idx][None, :] / math.sqrt(m))


def _column_indices(spec: BaseSketchSpec, indices) -> np.ndarray:
    """``indices`` as a 1-D int64 array of columns of the spec's sketch."""
    idx = np.ascontiguousarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= spec.input_dim):
        raise IndexError(f"column index out of range [0, {spec.input_dim})")
    return idx


def countsketch_columns(spec: BaseSketchSpec, indices) -> tuple[np.ndarray, np.ndarray]:
    """Selected CountSketch columns as (rows, signs): column t is
    ``signs[t] * e_{rows[t]}``, the one nonzero of ``base_columns(spec, indices)[:, t]``.
    """
    if spec.family is not BaseFamily.COUNT_SKETCH:
        raise ConfigurationError(f"{spec.family.value} columns are not one-hot")
    idx = _column_indices(spec, indices)
    S = _base_internals(spec)[0]
    return S.indices[idx], S.data[idx]


def tensorsketch_cols(spec: TensorSketchSpec, left, right) -> tuple[np.ndarray, np.ndarray]:
    """``apply_tensor_cols`` on one-hot columns given as (rows, signs) pairs.

    The node's cyclic convolution of signs_a * e_a and signs_b * e_b is the
    single entry signs_a * signs_b * s1[a] * s2[b] at row (h1[a] + h2[b]) mod m,
    so the result is one-hot again and computed exactly, with no transform.
    """
    if spec.family is not TensorFamily.TENSOR_SKETCH:
        raise ConfigurationError(f"{spec.family.value} does not keep columns one-hot")
    (a, sign_a), (b, sign_b) = left, right
    S1, S2 = _tensor_internals(spec)
    rows = (S1.indices[a] + S2.indices[b]) % spec.output_dim
    return rows, sign_a * sign_b * S1.data[a] * S2.data[b]


def _tensor_side(
    spec: TensorSketchSpec, U: np.ndarray, k: int, work: HadamardWork | None = None
) -> np.ndarray:
    """Transform of input k (0 left, 1 right) by its side of a tensor spec.

    TensorSketch count-sketches with side k's sparse hashing matrix and
    takes the rfft; TensorSRHT sign-flips with side k's diagonal, runs the
    Hadamard transform (in ``work``, see ``_srht_rows``), and samples side
    k's rows. A Kronecker column then sketches to the finished product of
    its two transformed sides.
    """
    if spec.family is TensorFamily.TENSOR_SKETCH:
        return np.fft.rfft(_tensor_internals(spec)[k] @ U, axis=0)
    padded, d1, d2, i_rows, j_rows = _tensor_internals(spec)
    dsign, rows = (d1, i_rows) if k == 0 else (d2, j_rows)
    return _srht_rows(padded, dsign, rows, U, work)


def _tensor_finish(spec: TensorSketchSpec, prod: np.ndarray) -> np.ndarray:
    """Map combined side products to sketch outputs along axis 0."""
    if spec.family is TensorFamily.TENSOR_SKETCH:
        return np.fft.irfft(prod, n=spec.output_dim, axis=0)
    return prod / math.sqrt(spec.output_dim)


def _real_stack(F: np.ndarray, m: int) -> np.ndarray:
    """Real parts of the m // 2 + 1 rfft bins F (along axis 0) over the
    imaginary parts of bins 1 .. ceil(m / 2) - 1, those of DC and Nyquist
    being zero: m real rows."""
    k = F.shape[0]
    out = np.empty((m, *F.shape[1:]))
    out[:k], out[k:] = F.real, F.imag[1:(m + 1) // 2]
    return out


@functools.lru_cache(maxsize=16)
def _fourier_weights(m: int) -> np.ndarray:
    """Weights of the m rows of ``_real_stack`` that make the real Fourier
    frame orthogonal: sqrt(1/m) for DC (and Nyquist, for even m), whose bin
    stands for itself, and sqrt(2/m) for every other row, whose bin stands
    for its conjugate twin as well (Parseval). Built once per m, read-only."""
    w = np.full(m, math.sqrt(2.0 / m))
    w[0] = math.sqrt(1.0 / m)
    if m % 2 == 0:
        w[m // 2] = w[0]
    w.flags.writeable = False
    return w


def to_frame(spec: TensorSketchSpec | None, Y) -> np.ndarray:
    """Q Y along axis 0, for Q the orthogonal frame of the outputs of ``spec``.

    For TensorSketch, Q is the real Fourier transform: ``_real_stack`` of the
    rfft bins of Y, times ``_fourier_weights``. For TensorSRHT, or no spec (a
    lone leaf), Q is the identity and Y comes back as it is.
    """
    if spec is None or spec.family is not TensorFamily.TENSOR_SKETCH:
        return Y
    m = spec.output_dim
    out = _real_stack(np.fft.rfft(Y, axis=0), m)
    out *= _fourier_weights(m).reshape(-1, *(1,) * (out.ndim - 1))
    return out


def apply_tensor_pair(spec: TensorSketchSpec, J1, J2, *, frame: bool = False) -> np.ndarray:
    """Sketch every Kronecker column pair of J1 and J2.

    Output column (c1, c2), stored at index c1 * J2.cols + c2, equals the
    sketch applied to J1[:, c1] (x) J2[:, c2]. The Kronecker vectors are
    never formed: each side is transformed once and the outer product of
    the two transforms is finished per column pair.

    With ``frame`` the result is given in the spec's orthonormal frame,
    ``to_frame(spec, apply_tensor_pair(spec, J1, J2))`` up to rounding. For
    TensorSketch that skips the inverse rfft; for TensorSRHT it changes
    nothing.
    """
    J1 = as_matrix(J1)
    J2 = as_matrix(J2)
    side, m_out = spec.side_dim, spec.output_dim
    if J1.shape[0] != side or J2.shape[0] != side:
        raise DimensionError(
            f"row counts {J1.shape[0]}, {J2.shape[0]} must equal side {side}"
        )
    c1, c2 = J1.shape[1], J2.shape[1]
    if m_out * c1 * c2 > MAX_ELEMENTS:
        raise DimensionError("tensor sketch output exceeds element limit")
    left, right = _tensor_side(spec, J1, 0), _tensor_side(spec, J2, 1)
    if frame and spec.family is TensorFamily.TENSOR_SKETCH:
        w = _fourier_weights(m_out)[:left.shape[0], None]
        prod = (left * w)[:, :, None] * right[:, None, :]
        return _real_stack(prod, m_out).reshape(m_out, c1 * c2)
    prod = left[:, :, None] * right[:, None, :]
    return _tensor_finish(spec, prod).reshape(m_out, c1 * c2)


def apply_tensor_cols(
    spec: TensorSketchSpec, U1, U2, *, work: HadamardWork | None = None
) -> np.ndarray:
    """Sketch matched column pairs: output[:, t] sketches U1[:, t] (x) U2[:, t].

    The columnwise companion of apply_tensor_pair, used to push many
    single Kronecker vectors through a node in one vectorized call. A caller
    that makes many such calls, like a label's chunk loop, can pass one
    ``work`` to all of them, so TensorSRHT's transform buffers are allocated
    once instead of per call; the result does not depend on it.
    """
    U1 = as_matrix(U1)
    U2 = as_matrix(U2)
    side = spec.side_dim
    if U1.shape[0] != side or U2.shape[0] != side or U1.shape[1] != U2.shape[1]:
        raise DimensionError(
            f"need matching {side}-row inputs, got {U1.shape} and {U2.shape}"
        )
    prod = _tensor_side(spec, U1, 0, work) * _tensor_side(spec, U2, 1, work)
    return _tensor_finish(spec, prod)


def materialize(spec) -> np.ndarray:
    """Explicit dense matrix of a spec, built structurally from its internals.

    Intended as a test oracle: the entries come straight from the hash,
    sign, and sampling arrays (with an explicit Hadamard matrix where one
    is involved), not from the fast application paths.
    """
    if isinstance(spec, BaseSketchSpec):
        n, m = spec.input_dim, spec.output_dim
        if n * m > MAX_ELEMENTS:
            raise DimensionError("materialized sketch exceeds element limit")
        if spec.family is not BaseFamily.SRHT:
            rows, vals = _hash_slots(_base_internals(spec)[0])
            Z = np.zeros((m, n))
            Z[rows.ravel(), np.repeat(np.arange(n), rows.shape[1])] = vals.ravel()
            return Z
        padded, dsign, rows = _base_internals(spec)
        H = _hadamard_matrix(padded) / math.sqrt(padded)
        scale = math.sqrt(padded / m)
        return scale * H[rows][:, :n] * dsign[None, :n]
    if isinstance(spec, TensorSketchSpec):
        side, m_out = spec.side_dim, spec.output_dim
        if m_out * side * side > MAX_ELEMENTS:
            raise DimensionError("materialized sketch exceeds element limit")
        if spec.family is TensorFamily.TENSOR_SKETCH:
            (h1, s1), (h2, s2) = map(_hash_slots, _tensor_internals(spec))
            Z = np.zeros((m_out, side * side))
            i = np.arange(side)
            rows = (h1 + h2.T) % m_out
            cols = i[:, None] * side + i[None, :]
            Z[rows.ravel(), cols.ravel()] = (s1 * s2.T).ravel()
            return Z
        padded, d1, d2, i_rows, j_rows = _tensor_internals(spec)
        H = _hadamard_matrix(padded)
        hd1 = (H * d1[None, :])[i_rows][:, :side]
        hd2 = (H * d2[None, :])[j_rows][:, :side]
        out = hd1[:, :, None] * hd2[:, None, :]
        return out.reshape(m_out, side * side) / math.sqrt(m_out)
    raise TypeError(f"not a sketch spec: {type(spec).__name__}")


# Sketching-dimension rules per supported (base, tensor) family pair.
# Values are (weight of q, weight of dim, delta mode).
_M_RULES = {
    (BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SKETCH): (1, 2, "inverse"),
    (BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT): (1, 2, "log"),
    (BaseFamily.SRHT, TensorFamily.TENSOR_SRHT): (4, 1, "log"),
}


def choose_m(
    c_family: BaseFamily,
    t_family: TensorFamily,
    fundamental_dim: float,
    q: int,
    eps: float,
    delta: float,
    c_factor: float = 1.0,
    *,
    eps_exponent: int = 2,
) -> int:
    """Sketching dimension for a family pair at accuracy (eps, delta).

    ``fundamental_dim`` is the problem's effective dimension: the total
    column count for regression, the target rank for low-rank
    approximation, the statistical dimension for the spline route (any
    positive real: a ridge penalty's falls below 1 as lam grows).
    ``eps_exponent=2`` gives the subspace-embedding scaling; the spline
    pipeline uses ``eps_exponent=1`` (approximate-matrix-product scaling).
    The unknown leading constant is exposed as ``c_factor``.
    """
    c_family = BaseFamily(c_family)
    t_family = TensorFamily(t_family)
    if not (0.0 < eps <= 1.0 and 0.0 < delta < 1.0):
        raise ValueError("need 0 < eps <= 1 and 0 < delta < 1")
    if not (0.0 < fundamental_dim < math.inf and q >= 1):
        raise ValueError("need 0 < fundamental_dim < inf and q >= 1")
    if not 0.0 < c_factor < math.inf:
        raise ValueError(f"c_factor must be finite and positive, got {c_factor}")
    if eps_exponent not in (1, 2):
        raise ValueError("eps_exponent must be 1 or 2")
    rule = _M_RULES.get((c_family, t_family))
    if rule is None:
        supported = ", ".join(
            f"({c.value}, {t.value})" for c, t in _M_RULES
        )
        raise ConfigurationError(
            f"no sketching-dimension rule for ({c_family.value}, "
            f"{t_family.value}); supported pairs: {supported}"
        )
    q_pow, dim_pow, delta_mode = rule
    delta_term = (1.0 / delta) if delta_mode == "inverse" else math.log(1.0 / delta)
    raw = (
        c_factor
        * (q**q_pow)
        * (fundamental_dim**dim_pow)
        * delta_term
        / eps**eps_exponent
    )
    return max(1, math.ceil(raw))
