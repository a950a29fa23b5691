"""Dense test oracles for the sketches: explicit matrices built from spec internals.

The entries come straight from the hash, sign and sampling arrays (with an
explicit Hadamard matrix where one is involved), not from the fast
application paths that the tests check against them. Desk scale only.
"""

import math

import numpy as np

from kronsketch.linalg import _hadamard_matrix
from kronsketch.sketches import (
    BaseFamily,
    BaseSketchSpec,
    TensorFamily,
    TensorSketchSpec,
    _base_internals,
    _hash_slots,
    _tensor_internals,
    apply_tensor_pair,
)
from kronsketch.tree import _fold


def materialize(spec) -> np.ndarray:
    """Explicit dense matrix of a base or tensor sketch spec."""
    if isinstance(spec, BaseSketchSpec):
        n, m = spec.input_dim, spec.output_dim
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


def materialize_sketch(tree) -> np.ndarray:
    """Explicit m x n composite sketching matrix of a tree, in the time domain."""
    def pair(slot, left, right):
        return apply_tensor_pair(tree.specs[slot], left, right)

    mats = [materialize(spec) for spec in tree.specs[:tree.q]]
    for mats in _fold(mats, pair):
        pass
    return mats[0]
