"""Sketched Kronecker product maintained as a balanced binary tree.

Leaf k holds a base-sketched factor, J[k, 0] = C_k A_k with C_k drawn from
the configured base family. Each level above pairs adjacent nodes left to
right; a paired node holds the tensor-typed sketch of the Kronecker product
of its two children, computed column-pair-wise so the product itself is
never formed. When a level has an odd node count, the rightmost node is
promoted unchanged (order-preserving, so the implied composite sketch is
still a linear map on the full Kronecker ordering). The root is an m x d
sketch of the whole chain, d being the product of the factor column counts.

Updating factor i by a delta B touches exactly the leaf-to-root path:
sketches are linear and the Kronecker product is bilinear, so the leaf
delta C_i B propagates upward with the unchanged sibling matrix supplying
the other argument. With q factors that is ceil(log2 q) + 1 node matrices.

In adaptive mode the structure instead redraws the sketch specs along the
path and recomputes those nodes from the stored factors, so the randomness
seen by an adversary is fresh after every update. This changes the overall
sketching map, which the ``generation`` counter exposes so that callers can
invalidate anything they sketched earlier (for example a label vector).

A tree is single-writer: updates need exclusive access, while any number of
threads may read (root, sketch_vector, queries) between updates.
"""

from __future__ import annotations

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

SNAPSHOT_MAGIC = b"KTTR2"
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

    Factor matrices are stored in full: adaptive refresh re-sketches them
    and the factored low-rank output hands them back to the caller.
    """

    def __init__(self, factors, config: TreeConfig):
        self.config = config
        self.factors = [as_matrix(f) for f in factors]
        if not self.factors:
            raise DimensionError("need at least one factor")
        for f in self.factors:
            if f.size == 0:
                raise DimensionError("factors must be nonempty")
        d = 1
        for f in self.factors:
            d *= f.shape[1]
        if config.m * d > MAX_ELEMENTS:
            raise DimensionError(
                f"root of shape {config.m} x {d} exceeds element limit"
            )
        self._spec_rng = np.random.default_rng(config.seed)
        self._spec_draws = 0
        self.generation = 0
        self.recompute_counter = 0
        self.leaf_specs = [
            self._fresh_leaf_spec(f.shape[0]) for f in self.factors
        ]
        self.node_specs: dict[tuple[int, int], TensorSketchSpec] = {
            key: self._fresh_node_spec() for key in _node_keys(self.q)
        }
        self._rebuild_all()

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

    def _path(self, i: int):
        """Walk up from leaf i, yielding (level, k, children, side) per path node.

        Node k of ``level`` is on the path; ``children`` is a fresh list of
        its one or two children as stored when the step starts, and ``side``
        is the path child's position in it.
        """
        for level in range(1, len(self.levels)):
            k, side = divmod(i, 2)
            yield level, k, self.levels[level - 1][2 * k:2 * k + 2], side
            i = k

    # ------------------------------------------------------------------
    # spec drawing

    def _next_seed(self) -> int:
        self._spec_draws += 1
        return int(self._spec_rng.integers(0, 1 << 63))

    def _fresh_leaf_spec(self, n: int) -> BaseSketchSpec:
        m = self.config.m
        sparsity = 0
        if self.config.c_family is BaseFamily.OSNAP:
            sparsity = min(DEFAULT_OSNAP_SPARSITY, m)
        return BaseSketchSpec(
            self.config.c_family, n, m, sparsity, self._next_seed()
        )

    def _fresh_node_spec(self) -> TensorSketchSpec:
        m = self.config.m
        return TensorSketchSpec(self.config.t_family, m, m, self._next_seed())

    # ------------------------------------------------------------------
    # construction

    def _rebuild_all(self) -> None:
        leaves = [apply_base(spec, f) for spec, f in zip(self.leaf_specs, self.factors)]
        self.levels = [leaves, *_fold(leaves, self._pair_nodes)]

    def _pair_nodes(self, key, left, right) -> np.ndarray:
        return apply_tensor_pair(self.node_specs[key], left, right)

    # ------------------------------------------------------------------
    # updates

    def _check_update_args(self, i: int, B) -> np.ndarray:
        if not 0 <= i < self.q:
            raise IndexError(f"factor index {i} out of range [0, {self.q})")
        B = as_matrix(B)
        if B.shape != self.factors[i].shape:
            raise DimensionError(
                f"update shape {B.shape} != factor shape {self.factors[i].shape}"
            )
        return B

    def update(self, i: int, B) -> None:
        """Apply A_i <- A_i + B, propagating the sketched delta to the root.

        Reuses every stored spec; because each node's map is linear in each
        child, adding the sketched delta at each path node keeps the whole
        tree consistent with a from-scratch build on the updated factors.
        """
        B = self._check_update_args(i, B)
        self.factors[i] = self.factors[i] + B
        delta = apply_base(self.leaf_specs[i], B)
        self.levels[0][i] = self.levels[0][i] + delta
        for level, k, children, side in self._path(i):
            if len(children) == 2:
                children[side] = delta
                delta = self._pair_nodes((level, k), *children)
            self.levels[level][k] = self.levels[level][k] + delta
        self.recompute_counter = len(self.levels)

    def update_adaptive(self, i: int, B) -> None:
        """Apply A_i <- A_i + B with fresh sketches along the path.

        The leaf is recomputed from the full updated factor and every path
        node from its children's current matrices, each under a newly drawn
        spec, so no randomness is reused where the update landed.
        """
        if not self.config.adaptive:
            raise ConfigurationError(
                "update_adaptive requires a tree built with adaptive=True"
            )
        B = self._check_update_args(i, B)
        self.factors[i] = self.factors[i] + B
        self.leaf_specs[i] = self._fresh_leaf_spec(self.factors[i].shape[0])
        self.levels[0][i] = apply_base(self.leaf_specs[i], self.factors[i])
        for level, k, children, _ in self._path(i):
            if len(children) == 2:
                self.node_specs[(level, k)] = self._fresh_node_spec()
                self.levels[level][k] = self._pair_nodes((level, k), *children)
            else:
                self.levels[level][k] = children[0]
        self.recompute_counter = len(self.levels)
        self.generation += 1

    # ------------------------------------------------------------------
    # sketching vectors

    def _dims(self):
        return [f.shape[0] for f in self.factors]

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
        n_dims = self._dims()
        n_total = 1
        for n_i in n_dims:
            n_total *= n_i
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
    # snapshots: specs and factors only, node matrices are recomputed

    def save(self, path) -> None:
        """Write a KTTR2 snapshot: config, counters, factors, and all sketch specs."""
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
        for spec in self.leaf_specs:
            parts.append(
                struct.pack(
                    "<BQQQQ",
                    _BASE_CODES[spec.family],
                    spec.input_dim,
                    spec.output_dim,
                    spec.sparsity,
                    spec.seed,
                )
            )
        parts.append(struct.pack("<Q", len(self.node_specs)))
        for (level, k) in sorted(self.node_specs):
            spec = self.node_specs[(level, k)]
            parts.append(
                struct.pack(
                    "<QQBQQQ",
                    level,
                    k,
                    _TENSOR_CODES[spec.family],
                    spec.side_dim,
                    spec.output_dim,
                    spec.seed,
                )
            )
        with open(path, "wb") as fh:
            fh.write(b"".join(parts))

    @classmethod
    def load(cls, path) -> "TensorTree":
        """Rebuild a tree from a KTTR2 snapshot; malformed input raises ValueError."""
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

        def family(families, code):
            if code >= len(families):
                raise ValueError(f"unknown sketch family code {code} in tree snapshot")
            return families[code]

        base_families = list(BaseFamily)
        tensor_families = list(TensorFamily)
        cb, tb, m, adaptive, seed, draws, generation, q = take(_HEADER)
        config = TreeConfig(
            family(base_families, cb), family(tensor_families, tb), m, bool(adaptive), seed
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
        leaf_specs = []
        for _ in range(q):
            fam, n, out_dim, sparsity, sp_seed = take("<BQQQQ")
            leaf_specs.append(BaseSketchSpec(
                family(base_families, fam), n, out_dim, sparsity, sp_seed
            ))
        (n_nodes,) = take("<Q")
        node_specs = {}
        for _ in range(n_nodes):
            level, k, fam, side, out_dim, sp_seed = take("<QQBQQQ")
            node_specs[(level, k)] = TensorSketchSpec(
                family(tensor_families, fam), side, out_dim, sp_seed
            )
        if off != len(raw):
            raise ValueError("trailing bytes after tree snapshot")
        if sorted(node_specs) != _node_keys(q) or n_nodes != len(node_specs):
            raise ValueError(f"node specs do not match a tree of {q} factors")
        tree = cls.__new__(cls)
        tree.config = config
        tree.factors = factors
        tree._spec_rng = np.random.default_rng(config.seed)
        # each spec seed consumed exactly one 64-bit output of the stream
        tree._spec_rng.bit_generator.advance(draws)
        tree._spec_draws = draws
        tree.generation = generation
        tree.recompute_counter = 0
        tree.leaf_specs = leaf_specs
        tree.node_specs = node_specs
        tree._rebuild_all()
        return tree
