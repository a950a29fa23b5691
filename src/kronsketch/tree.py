"""Sketched Kronecker product maintained as a balanced binary tree.

Leaf k holds a base-sketched factor, J[k, 0] = C_k A_k with C_k drawn from
the configured base family. Each level above pairs adjacent nodes left to
right; a paired node holds the tensor-typed sketch of the Kronecker product
of its two children, computed column-pair-wise so the product itself is
never formed. When a level has an odd node count, the rightmost node is
promoted unchanged (order-preserving, so the implied composite sketch is
still a linear map on the full Kronecker ordering). The root is an m x d
sketch of the whole chain, d being the product of the factor column counts.

Updating factor i re-sketches leaf i and recomputes each node above it from
its two children, keeping every other node, so each node is always what a
fresh build computes from its spec and children. Nothing is committed until
the new root is finite: an update that raises leaves the tree as it was.

In adaptive mode an update first redraws the specs on that path, so an
adversary sees fresh randomness after every update. The ``generation``
counter exposes this change of the sketching map, so that callers can
invalidate anything they sketched earlier (for example a label vector).

A tree is single-writer: updates need exclusive access, while any number of
threads may read (root, sketch_vector, queries) between updates.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAX_ELEMENTS,
    DimensionError,
    SparseVector,
    as_matrix,
    as_vector,
)
from .sketches import (
    DEFAULT_OSNAP_SPARSITY,
    BaseFamily,
    BaseSketchSpec,
    ConfigurationError,
    TensorFamily,
    TensorSketchSpec,
    apply_base,
    apply_tensor_cols,
    apply_tensor_pair,
    base_columns,
    materialize,
)

SNAPSHOT_MAGIC = b"KTTR4"
_HEADER = "<BBQBQQQQ"  # c code, t code, m, adaptive, seed, spec draws, generation, q

_BASE_CODES = {f: i for i, f in enumerate(BaseFamily)}
_TENSOR_CODES = {f: i for i, f in enumerate(TensorFamily)}


@dataclass(frozen=True)
class TreeConfig:
    """Sketch configuration for one tree."""

    c_family: BaseFamily = BaseFamily.COUNT_SKETCH
    t_family: TensorFamily = TensorFamily.TENSOR_SKETCH
    m: int = 64
    adaptive: bool = False
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c_family", BaseFamily(self.c_family))
        object.__setattr__(self, "t_family", TensorFamily(self.t_family))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")


def _fold(nodes, combine):
    """Pair adjacent nodes level by level up to the root, yielding each new level.

    Node k of level l is ``combine((l, k), left, right)`` over its two
    children; a lone rightmost node is promoted unchanged (the same array,
    as node matrices are never modified in place). Only the newest level is
    held, so a caller that keeps just the root keeps memory flat.
    """
    level = 0
    while len(nodes) > 1:
        level += 1
        nodes = [
            combine((level, k // 2), *nodes[k:k + 2]) if k + 1 < len(nodes) else nodes[k]
            for k in range(0, len(nodes), 2)
        ]
        yield nodes


def _node_keys(q: int) -> list[tuple[int, int]]:
    """(level, k) of every paired node of a q-leaf tree, level by level, left to right."""
    keys = []
    for _ in _fold([None] * q, lambda key, left, right: keys.append(key)):
        pass
    return keys


class TensorTree:
    """Sketch of A_1 (x) ... (x) A_q supporting factor updates.

    Factor matrices are stored in full: an update re-sketches the updated
    factor, and the factored low-rank output hands them back to the caller.
    """

    def __init__(self, factors, config: TreeConfig):
        self._init_state(factors, config)
        self._init_specs(iter(self._next_seed, None))  # draws seeds as needed

    def _init_state(self, factors, config: TreeConfig) -> None:
        """Checks and counters shared by a fresh build and a snapshot load."""
        self.config = config
        self.factors = [as_matrix(f) for f in factors]
        if not self.factors:
            raise DimensionError("need at least one factor")
        d = 1
        for f in self.factors:
            if f.size == 0:
                raise DimensionError("factors must be nonempty")
            d *= f.shape[1]
        if config.m * d > MAX_ELEMENTS:
            raise DimensionError(
                f"root of shape {config.m} x {d} exceeds element limit"
            )
        self._spec_rng = np.random.default_rng(config.seed)
        self._spec_draws = 0
        self.generation = 0
        self.recompute_counter = 0

    # ------------------------------------------------------------------
    # structure helpers

    @property
    def q(self) -> int:
        return len(self.factors)

    @property
    def depth(self) -> int:
        """Number of levels above the leaves, ceil(log2 q)."""
        return len(self.levels) - 1

    @property
    def root(self) -> np.ndarray:
        """Top node, an m x d matrix. Treat as read-only."""
        return self.levels[-1][0]

    @property
    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)

    # ------------------------------------------------------------------
    # spec drawing

    def _next_seed(self) -> int:
        self._spec_draws += 1
        return int(self._spec_rng.integers(0, 1 << 63))

    def _leaf_spec(self, n: int, seed: int) -> BaseSketchSpec:
        cfg = self.config
        osnap = cfg.c_family is BaseFamily.OSNAP
        sparsity = min(DEFAULT_OSNAP_SPARSITY, cfg.m) if osnap else 0
        return BaseSketchSpec(cfg.c_family, n, cfg.m, sparsity, seed)

    def _node_spec(self, seed: int) -> TensorSketchSpec:
        return TensorSketchSpec(self.config.t_family, self.config.m, self.config.m, seed)

    # ------------------------------------------------------------------
    # construction

    def _init_specs(self, seeds) -> None:
        """Leaf then node specs (``_node_keys`` order) on successive seeds; then all nodes."""
        leaf_specs = [self._leaf_spec(f.shape[0], next(seeds)) for f in self.factors]
        node_specs = {key: self._node_spec(next(seeds)) for key in _node_keys(self.q)}
        self._refold(range(self.q), self.factors, leaf_specs, node_specs)

    def _refold(self, dirty, factors, leaf_specs, node_specs) -> None:
        """Recompute the ``dirty`` leaves and the nodes above them, reusing the rest,
        and store the result only once the new root is known to be finite."""
        leaves = [
            apply_base(leaf_specs[i], f) if i in dirty else self.levels[0][i]
            for i, f in enumerate(factors)
        ]

        # node k of level l sits above leaves i with i >> l == k; ceil(log2 q) levels
        depth = (len(factors) - 1).bit_length()
        above = {(level, i >> level) for i in dirty for level in range(1, depth + 1)}

        def combine(key, left, right):
            if key in above:
                return apply_tensor_pair(node_specs[key], left, right)
            level, k = key
            return self.levels[level][k]

        levels = [leaves, *_fold(leaves, combine)]
        if not np.isfinite(levels[-1][0]).all():
            raise ValueError("root sketch has non-finite entries")
        self.factors, self.leaf_specs, self.node_specs = factors, leaf_specs, node_specs
        self.levels = levels

    def _pair_nodes(self, key, left, right) -> np.ndarray:
        return apply_tensor_pair(self.node_specs[key], left, right)

    # ------------------------------------------------------------------
    # updates

    def _updated_factors(self, i: int, B) -> list[np.ndarray]:
        """The factors with A_i + B in place of A_i, after checking i and B."""
        if not 0 <= i < self.q:
            raise IndexError(f"factor index {i} out of range [0, {self.q})")
        B = as_matrix(B)
        if B.shape != self.factors[i].shape:
            raise DimensionError(
                f"update shape {B.shape} != factor shape {self.factors[i].shape}"
            )
        factors = list(self.factors)
        factors[i] = factors[i] + B
        return factors

    def update(self, i: int, B) -> None:
        """Apply A_i <- A_i + B, keeping every spec: the nodes then equal a fresh
        build's under those specs, or this raises and changes nothing."""
        self._refold({i}, self._updated_factors(i, B), self.leaf_specs, self.node_specs)
        self.recompute_counter = len(self.levels)

    def update_adaptive(self, i: int, B) -> None:
        """Apply A_i <- A_i + B with fresh sketches along the path.

        Leaf i, then each paired node above it, bottom-up, gets a newly drawn
        spec, so no randomness is reused where the update landed. A call that
        raises also rewinds the draws, so the next seed is unchanged too.
        """
        if not self.config.adaptive:
            raise ConfigurationError(
                "update_adaptive requires a tree built with adaptive=True"
            )
        factors = self._updated_factors(i, B)
        saved = self._spec_rng.bit_generator.state, self._spec_draws
        try:
            leaf_specs = list(self.leaf_specs)
            leaf_specs[i] = self._leaf_spec(factors[i].shape[0], self._next_seed())
            node_specs = dict(self.node_specs)
            for level, k in _node_keys(self.q):  # level by level, so bottom-up
                if i >> level == k:
                    node_specs[level, k] = self._node_spec(self._next_seed())
            self._refold({i}, factors, leaf_specs, node_specs)
        except BaseException:
            self._spec_rng.bit_generator.state, self._spec_draws = saved
            raise
        self.recompute_counter = len(self.levels)
        self.generation += 1

    # ------------------------------------------------------------------
    # sketching vectors

    def sketch_vector(self, b) -> np.ndarray:
        """Image of a long (sparse) vector under the tree's composite sketch.

        Each nonzero index decomposes into per-factor digits (first factor
        most significant); the corresponding base-sketch columns are pushed
        up the tree as matched column pairs, all nonzeros at once, and the
        root columns are summed with their weights.
        """
        if isinstance(b, SparseVector):
            sv = b
        else:
            sv = SparseVector.from_dense(as_vector(b))
        n_dims = [f.shape[0] for f in self.factors]
        n_total = math.prod(n_dims)
        if sv.length != n_total:
            raise DimensionError(
                f"vector length {sv.length} != product of factor rows {n_total}"
            )
        if sv.nnz == 0:
            return np.zeros(self.config.m)
        digits = self._decompose(sv.indices, n_dims)
        mats = [
            base_columns(self.leaf_specs[t], digits[t]) for t in range(self.q)
        ]
        for mats in _fold(mats, self._pair_cols):
            pass
        return mats[0] @ sv.values

    def _pair_cols(self, key, left, right) -> np.ndarray:
        return apply_tensor_cols(self.node_specs[key], left, right)

    @staticmethod
    def _decompose(indices: np.ndarray, dims) -> list[np.ndarray]:
        """Per-factor digit arrays of flat indices, first factor most significant."""
        j = np.ascontiguousarray(indices, dtype=np.int64)
        digits: list[np.ndarray] = [np.empty(0)] * len(dims)
        for t in range(len(dims) - 1, -1, -1):
            digits[t] = j % dims[t]
            j = j // dims[t]
        if np.any(j):
            raise IndexError("flat index out of range")
        return digits

    def materialize_sketch(self) -> np.ndarray:
        """Explicit m x n composite sketching matrix (desk scale only)."""
        mats = [materialize(spec) for spec in self.leaf_specs]
        for mats in _fold(mats, self._pair_nodes):
            pass
        return mats[0]

    # ------------------------------------------------------------------
    # snapshots: config, counters, factors and spec seeds; everything else
    # (spec shapes and families, node matrices) is derived on load

    def save(self, path) -> None:
        """Write a KTTR4 snapshot: header, factors, then the 2q - 1 spec seeds.

        The seeds are the leaves' in order, then the paired nodes' in
        ``_node_keys`` order.
        """
        cfg = self.config
        parts = [SNAPSHOT_MAGIC]
        parts.append(
            struct.pack(
                _HEADER,
                _BASE_CODES[cfg.c_family],
                _TENSOR_CODES[cfg.t_family],
                cfg.m,
                int(cfg.adaptive),
                cfg.seed,
                self._spec_draws,
                self.generation,
                self.q,
            )
        )
        for f in self.factors:
            parts.append(struct.pack("<QQ", f.shape[0], f.shape[1]))
            parts.append(f.astype("<f8").tobytes())
        seeds = [spec.seed for spec in self.leaf_specs]
        seeds += [self.node_specs[key].seed for key in _node_keys(self.q)]
        parts.append(struct.pack(f"<{len(seeds)}Q", *seeds))
        with open(path, "wb") as fh:
            fh.write(b"".join(parts))

    @classmethod
    def load(cls, path) -> "TensorTree":
        """Rebuild a tree from a KTTR4 snapshot; malformed input raises ValueError."""
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise ValueError("not a tree snapshot (bad magic bytes)")
        off = len(SNAPSHOT_MAGIC)

        def take(fmt):
            nonlocal off
            size = struct.calcsize(fmt)
            if off + size > len(raw):
                raise ValueError("truncated tree snapshot")
            vals = struct.unpack_from(fmt, raw, off)
            off += size
            return vals

        cb, tb, m, adaptive, seed, draws, generation, q = take(_HEADER)
        if cb >= len(BaseFamily) or tb >= len(TensorFamily):
            raise ValueError(f"unknown sketch family codes {cb}, {tb} in tree snapshot")
        config = TreeConfig(
            list(BaseFamily)[cb], list(TensorFamily)[tb], m, bool(adaptive), seed
        )
        factors = []
        for _ in range(q):
            rows, cols = take("<QQ")
            count = rows * cols
            size = count * 8
            if off + size > len(raw):
                raise ValueError("truncated tree snapshot")
            data = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
            off += size
            factors.append(data.reshape(rows, cols).copy())
        tree = cls.__new__(cls)
        tree._init_state(factors, config)  # q >= 1 from here on
        # q is now bounded by the file size, so the seed count is too
        seeds = take(f"<{2 * q - 1}Q")
        if off != len(raw):
            raise ValueError("trailing bytes after tree snapshot")
        if draws < len(seeds):  # a smaller count would draw stored seeds again
            raise ValueError(f"spec-draw count {draws} < {len(seeds)} stored seeds")
        # each spec seed consumed exactly one 64-bit output of the stream
        tree._spec_rng.bit_generator.advance(draws)
        tree._spec_draws = draws
        tree.generation = generation
        tree._init_specs(iter(seeds))
        return tree
