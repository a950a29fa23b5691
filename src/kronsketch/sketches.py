"""Seeded sketch constructions and their fast application paths.

Base families map R^n -> R^m and are applied to tall factor matrices:

* CountSketch: one signed nonzero per input coordinate, placed by a hash.
* OSNAP: exactly s signed nonzeros of magnitude 1/sqrt(s) per coordinate,
  on s distinct output rows.
* SRHT: sign flip, orthonormal Walsh-Hadamard transform, row sampling
  without replacement, scaled by sqrt(padded/m). Inputs are zero-padded to
  the next power of two >= max(n, m).

Tensor families map R^(side^2) -> R^m_out but are only ever evaluated on
Kronecker columns u (x) v, which they consume as the pair (u, v) without
forming the long vector:

* TensorSketch: count-sketch each side with its own (hash, sign) pair and
  cyclically convolve the two images (a product of their rffts).
* TensorSRHT: per output row r, the product of one coordinate of H D1 u and
  one of H D2 v (H the unnormalized +-1 Hadamard matrix on the padded
  side), scaled by 1/sqrt(m_out).

Every spec is an immutable value; the hash/sign/sampling internals are a
pure function of (spec fields, seed), so two materializations of the same
spec are bit-identical and specs can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .linalg import (
    MAX_ELEMENTS,
    DimensionError,
    _hadamard_axis0,
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


def _check_seed(seed: int) -> None:
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


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
        _check_seed(self.seed)


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
        _check_seed(self.seed)


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length() if n > 1 else 1


def _rademacher(rng: np.random.Generator, size) -> np.ndarray:
    return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0


@lru_cache(maxsize=4096)
def _base_internals(spec: BaseSketchSpec):
    """Hash/sign/sampling arrays for a base spec, derived from its seed."""
    rng = np.random.default_rng(spec.seed)
    n, m = spec.input_dim, spec.output_dim
    if spec.family is BaseFamily.COUNT_SKETCH:
        h = rng.integers(0, m, size=n)
        sign = _rademacher(rng, n)
        out = (h, sign)
    elif spec.family is BaseFamily.OSNAP:
        s = spec.sparsity
        rows = np.empty((n, s), dtype=np.int64)
        for j in range(n):
            rows[j] = rng.choice(m, size=s, replace=False)
        sign = _rademacher(rng, (n, s))
        out = (rows, sign)
    else:  # SRHT
        padded = _next_pow2(max(n, m))
        dsign = _rademacher(rng, padded)
        rows = rng.choice(padded, size=m, replace=False)
        out = (padded, dsign, rows)
    for arr in out:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return out


@lru_cache(maxsize=4096)
def _tensor_internals(spec: TensorSketchSpec):
    """Hash/sign/sampling arrays for a tensor spec, derived from its seed."""
    rng = np.random.default_rng(spec.seed)
    side, m_out = spec.side_dim, spec.output_dim
    if spec.family is TensorFamily.TENSOR_SKETCH:
        h1 = rng.integers(0, m_out, size=side)
        h2 = rng.integers(0, m_out, size=side)
        s1 = _rademacher(rng, side)
        s2 = _rademacher(rng, side)
        out = (h1, h2, s1, s2)
    else:  # TensorSRHT
        padded = _next_pow2(side)
        d1 = _rademacher(rng, padded)
        d2 = _rademacher(rng, padded)
        i_rows = rng.integers(0, padded, size=m_out)
        j_rows = rng.integers(0, padded, size=m_out)
        out = (padded, d1, d2, i_rows, j_rows)
    for arr in out:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return out


def _countsketch_apply(h, sign, A, m) -> np.ndarray:
    out = np.zeros((m, A.shape[1]))
    np.add.at(out, h, sign[:, None] * A)
    return out


def _osnap_apply(rows, sign, A, m) -> np.ndarray:
    s = rows.shape[1]
    out = np.zeros((m, A.shape[1]))
    for k in range(s):
        np.add.at(out, rows[:, k], sign[:, k][:, None] * A)
    out /= math.sqrt(s)
    return out


def _srht_rows(padded, dsign, rows, A) -> np.ndarray:
    """Sampled rows of H D A: zero-pad, sign-flip, unnormalized Hadamard."""
    n = A.shape[0]
    work = np.zeros((padded, A.shape[1]))
    work[:n] = dsign[:n, None] * A
    _hadamard_axis0(work)
    return work[rows]


def apply_base(spec: BaseSketchSpec, A) -> np.ndarray:
    """Product of the materialized base sketch with A, without forming it.

    CountSketch/OSNAP hash rows of A directly; SRHT zero-pads, sign-flips,
    runs a fast Hadamard transform per column, and samples rows.
    """
    A = as_matrix(A)
    if A.shape[0] != spec.input_dim:
        raise DimensionError(
            f"A has {A.shape[0]} rows, spec expects {spec.input_dim}"
        )
    if spec.family is BaseFamily.COUNT_SKETCH:
        h, sign = _base_internals(spec)
        return _countsketch_apply(h, sign, A, spec.output_dim)
    if spec.family is BaseFamily.OSNAP:
        rows, sign = _base_internals(spec)
        return _osnap_apply(rows, sign, A, spec.output_dim)
    padded, dsign, rows = _base_internals(spec)
    # sqrt(padded/m) rescale times the 1/sqrt(padded) Hadamard normalization
    return _srht_rows(padded, dsign, rows, A) / math.sqrt(rows.size)


def base_columns(spec: BaseSketchSpec, indices) -> np.ndarray:
    """Selected columns of the materialized base sketch, one per index.

    Column t of the result is the sketch of e_{indices[t]}; repeats are
    allowed. CountSketch/OSNAP columns cost O(nonzeros), SRHT columns read
    one Hadamard entry per sampled row.
    """
    idx = np.ascontiguousarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= spec.input_dim):
        raise IndexError(f"column index out of range [0, {spec.input_dim})")
    m = spec.output_dim
    t = idx.size
    if spec.family is BaseFamily.COUNT_SKETCH:
        h, sign = _base_internals(spec)
        cols = np.zeros((m, t))
        cols[h[idx], np.arange(t)] = sign[idx]
        return cols
    if spec.family is BaseFamily.OSNAP:
        rows, sign = _base_internals(spec)
        s = spec.sparsity
        cols = np.zeros((m, t))
        cols[rows[idx].ravel(), np.repeat(np.arange(t), s)] = (
            sign[idx].ravel() / math.sqrt(s)
        )
        return cols
    padded, dsign, rows = _base_internals(spec)
    signs = _bit_parity_sign(rows[:, None] & idx[None, :])
    return signs * (dsign[idx][None, :] / math.sqrt(m))


def _bit_parity_sign(x: np.ndarray) -> np.ndarray:
    """(-1)**popcount(x) for a nonnegative int64 array."""
    x = x.astype(np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> np.uint64(shift))
    return 1.0 - 2.0 * (x & np.uint64(1)).astype(np.float64)


def _hadamard_matrix(p: int) -> np.ndarray:
    """Explicit unnormalized +-1 Hadamard matrix, H[r, c] = (-1)^popcount(r&c)."""
    if p * p > MAX_ELEMENTS:
        raise DimensionError(f"Hadamard matrix of side {p} exceeds element limit")
    idx = np.arange(p, dtype=np.int64)
    return _bit_parity_sign(idx[:, None] & idx[None, :])


def _tensor_side(spec: TensorSketchSpec, U: np.ndarray, k: int) -> np.ndarray:
    """Transform of input k (0 left, 1 right) by its side of a tensor spec.

    TensorSketch count-sketches with side k's (hash, sign) and takes the
    rfft; TensorSRHT sign-flips with side k's diagonal, runs the Hadamard
    transform, and samples side k's rows. A Kronecker column then sketches
    to the finished product of its two transformed sides.
    """
    if spec.family is TensorFamily.TENSOR_SKETCH:
        h1, h2, s1, s2 = _tensor_internals(spec)
        h, sign = (h1, s1) if k == 0 else (h2, s2)
        return np.fft.rfft(_countsketch_apply(h, sign, U, spec.output_dim), axis=0)
    padded, d1, d2, i_rows, j_rows = _tensor_internals(spec)
    dsign, rows = (d1, i_rows) if k == 0 else (d2, j_rows)
    return _srht_rows(padded, dsign, rows, U)


def _tensor_finish(spec: TensorSketchSpec, prod: np.ndarray) -> np.ndarray:
    """Map combined side products to sketch outputs along axis 0."""
    if spec.family is TensorFamily.TENSOR_SKETCH:
        return np.fft.irfft(prod, n=spec.output_dim, axis=0)
    return prod / math.sqrt(spec.output_dim)


def apply_tensor_pair(spec: TensorSketchSpec, J1, J2) -> np.ndarray:
    """Sketch every Kronecker column pair of J1 and J2.

    Output column (c1, c2), stored at index c1 * J2.cols + c2, equals the
    sketch applied to J1[:, c1] (x) J2[:, c2]. The Kronecker vectors are
    never formed: each side is transformed once and the outer product of
    the two transforms is finished per column pair.
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
    prod = _tensor_side(spec, J1, 0)[:, :, None] * _tensor_side(spec, J2, 1)[:, None, :]
    return _tensor_finish(spec, prod).reshape(m_out, c1 * c2)


def apply_tensor_cols(spec: TensorSketchSpec, U1, U2) -> np.ndarray:
    """Sketch matched column pairs: output[:, t] sketches U1[:, t] (x) U2[:, t].

    The columnwise companion of apply_tensor_pair, used to push many
    single Kronecker vectors through a node in one vectorized call.
    """
    U1 = as_matrix(U1)
    U2 = as_matrix(U2)
    side = spec.side_dim
    if U1.shape[0] != side or U2.shape[0] != side or U1.shape[1] != U2.shape[1]:
        raise DimensionError(
            f"need matching {side}-row inputs, got {U1.shape} and {U2.shape}"
        )
    return _tensor_finish(spec, _tensor_side(spec, U1, 0) * _tensor_side(spec, U2, 1))


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
        if spec.family is BaseFamily.COUNT_SKETCH:
            h, sign = _base_internals(spec)
            Z = np.zeros((m, n))
            Z[h, np.arange(n)] = sign
            return Z
        if spec.family is BaseFamily.OSNAP:
            rows, sign = _base_internals(spec)
            s = spec.sparsity
            Z = np.zeros((m, n))
            cols = np.repeat(np.arange(n), s)
            Z[rows.ravel(), cols] = sign.ravel() / math.sqrt(s)
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
            h1, h2, s1, s2 = _tensor_internals(spec)
            Z = np.zeros((m_out, side * side))
            i = np.arange(side)
            rows = (h1[:, None] + h2[None, :]) % m_out
            cols = i[:, None] * side + i[None, :]
            Z[rows.ravel(), cols.ravel()] = (s1[:, None] * s2[None, :]).ravel()
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
    fundamental_dim: int,
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
    approximation, the statistical dimension for the spline route.
    ``eps_exponent=2`` gives the subspace-embedding scaling; the spline
    pipeline uses ``eps_exponent=1`` (approximate-matrix-product scaling).
    The unknown leading constant is exposed as ``c_factor``.
    """
    c_family = BaseFamily(c_family)
    t_family = TensorFamily(t_family)
    if not (0.0 < eps <= 1.0 and 0.0 < delta < 1.0):
        raise ValueError("need 0 < eps <= 1 and 0 < delta < 1")
    if fundamental_dim < 1 or q < 1:
        raise ValueError("fundamental_dim and q must be >= 1")
    if c_factor <= 0.0:
        raise ValueError("c_factor must be positive")
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
