"""Sketched Kronecker product maintained as a balanced binary tree.

Leaf k holds a base-sketched factor, J[k, 0] = C_k A_k with C_k drawn from
the configured base family. Each level above pairs adjacent nodes left to
right; a paired node holds the tensor-typed sketch of the Kronecker product
of its two children, computed column-pair-wise so the product itself is
never formed. When a level has an odd node count, the rightmost node is
promoted unchanged (order-preserving, so the implied composite sketch is
still a linear map on the full Kronecker ordering). The root is an m x d
sketch of the whole chain, d being the product of the factor column counts.

The root is given in its spec's orthonormal output frame Q
(``sketches.to_frame``): a TensorSketch root is Q M, M the pair's
time-domain sketch, built from its two side transforms with no inverse rfft,
so no update runs the root's irfft. Least squares, penalized least squares
and right singular vectors are the same on (Q M, Q b) as on (M, b), so
solvers read ``root`` and rotate the label sketch with ``frame``. Label
sketches (``sketch_vector``) and ``materialize_sketch`` stay in the time
domain. TensorSRHT roots and one-leaf trees have the identity frame.

Updating factor i re-sketches leaf i and recomputes each node above it from
its two children, keeping every other node, so each node is always what a
fresh build computes from its spec and children. Nothing is committed until
the new root is finite: an update that raises leaves the tree as it was.

A build gives its 2q - 1 specs the draw indices 0..2q-2 (``_draw_seed``).
In adaptive mode an update first redraws the specs on that path under the
indices past the largest in use, so an adversary sees fresh randomness after
every update. The ``generation`` counter exposes this change of the sketching
map, so that callers can invalidate anything they sketched earlier (for
example a label vector).

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
    HadamardWork,
    SparseVector,
    as_matrix,
    as_vector,
)
from .sketches import (
    DEFAULT_OSNAP_SPARSITY,
    MAX_SEED,
    BaseFamily,
    BaseSketchSpec,
    ConfigurationError,
    TensorFamily,
    TensorSketchSpec,
    _check_int,
    apply_base,
    apply_tensor_cols,
    apply_tensor_pair,
    base_columns,
    countsketch_columns,
    materialize,
    tensorsketch_cols,
    to_frame,
)

SNAPSHOT_MAGIC = b"KTTR5"
_HEADER = "<BBQBQQQ"  # c code, t code, m, adaptive, seed, generation, q

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
        object.__setattr__(self, "m", _check_int("m", self.m, 1))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0, MAX_SEED))


def _draw_seed(seed: int, k: int) -> int:
    """Seed of spec draw k: the k-th ``integers(0, 1 << 63)`` of ``default_rng(seed)``,
    computed alone by jump-ahead, as each such draw takes one 64-bit output."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(k)
    return int(rng.integers(0, 1 << 63))


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
    ``levels`` holds the node matrices level by level, leaves first, the root
    last; treat it as read-only.
    """

    def __init__(self, factors, config: TreeConfig):
        self._init_state(factors, config)
        self._init_specs(range(2 * self.q - 1))

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
        """Top node, an m x d matrix in its frame: Q M for a TensorSketch root.
        Treat as read-only."""
        return self.levels[-1][0]

    def frame(self, b_sketch) -> np.ndarray:
        """Q b_sketch: a label sketch rotated into the root's frame.

        A least-squares or penalized solve on (root, Q b_sketch) has the
        answer of one on (M, b_sketch) up to rounding. The rotation costs one
        rfft, or nothing where Q is the identity. A label whose length is not
        m raises DimensionError.
        """
        b_sketch = as_vector(b_sketch)
        if b_sketch.size != self.config.m:
            raise DimensionError(
                f"sketched label length {b_sketch.size} != m {self.config.m}"
            )
        return to_frame(self.node_specs.get((self.depth, 0)), b_sketch)

    @property
    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)

    # ------------------------------------------------------------------
    # spec drawing

    def _leaf_spec(self, n: int, k: int) -> BaseSketchSpec:
        cfg = self.config
        osnap = cfg.c_family is BaseFamily.OSNAP
        sparsity = min(DEFAULT_OSNAP_SPARSITY, cfg.m) if osnap else 0
        return BaseSketchSpec(cfg.c_family, n, cfg.m, sparsity, _draw_seed(cfg.seed, k))

    def _node_spec(self, k: int) -> TensorSketchSpec:
        cfg = self.config
        return TensorSketchSpec(cfg.t_family, cfg.m, cfg.m, _draw_seed(cfg.seed, k))

    # ------------------------------------------------------------------
    # construction

    def _init_specs(self, draws) -> None:
        """Leaf then node specs (``_node_keys`` order) from their draw indices; then all nodes."""
        leaf_specs = [self._leaf_spec(f.shape[0], k) for f, k in zip(self.factors, draws)]
        node_specs = dict(zip(_node_keys(self.q), map(self._node_spec, draws[self.q:])))
        self._refold(range(self.q), self.factors, leaf_specs, node_specs)
        self.draws = list(draws)

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
                return apply_tensor_pair(node_specs[key], left, right, frame=key == (depth, 0))
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

        Leaf i, then each paired node above it, bottom-up, gets the spec of the
        next draw index past the largest in use, so no randomness is reused
        where the update landed. The indices are stored only once the refold
        has committed, so a call that raises leaves the next seed unchanged.
        A call whose new indices would not fit a snapshot's 64 bits raises
        before the refold.
        """
        if not self.config.adaptive:
            raise ConfigurationError(
                "update_adaptive requires a tree built with adaptive=True"
            )
        factors = self._updated_factors(i, B)
        draws = list(self.draws)
        draws[i] = k = max(draws) + 1
        leaf_specs = list(self.leaf_specs)
        leaf_specs[i] = self._leaf_spec(factors[i].shape[0], k)
        node_specs = dict(self.node_specs)
        for slot, (level, node) in enumerate(_node_keys(self.q), self.q):  # bottom-up
            if i >> level == node:
                draws[slot] = k = k + 1
                node_specs[level, node] = self._node_spec(k)
        if k >= MAX_SEED:
            raise ValueError(f"spec draw index {k} does not fit in 64 bits")
        self._refold({i}, factors, leaf_specs, node_specs)
        self.draws = draws
        self.recompute_counter = len(self.levels)
        self.generation += 1

    # ------------------------------------------------------------------
    # sketching vectors

    def sketch_vector(self, b) -> np.ndarray:
        """Image of a long (sparse) vector under the tree's composite sketch.

        Each nonzero index decomposes into per-factor digits (first factor
        most significant); the corresponding base-sketch columns are pushed
        up the tree as matched column pairs and the root columns are summed
        with their weights.

        CountSketch leaves under TensorSketch nodes (or a lone CountSketch
        leaf) keep every column one-hot, so each nonzero is carried as one
        (row, sign) pair and the root is a single signed bincount: O(q nnz)
        time and memory at any m. Every other family pair folds dense m x
        chunk column blocks, ``max(1, 2**16 // m)`` nonzeros at a time (about
        512 KB per block), and adds each chunk's weighted root columns in
        chunk order, so memory stays O(m chunk) at any nnz. One
        ``HadamardWork`` serves every TensorSRHT transform of the call, so its
        buffers are allocated once, not per chunk and node, and freed at return.
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
        cfg = self.config
        digits = np.unravel_index(sv.indices, n_dims)
        if cfg.c_family is BaseFamily.COUNT_SKETCH and (
            cfg.t_family is TensorFamily.TENSOR_SKETCH or self.q == 1
        ):
            cols = [countsketch_columns(s, d) for s, d in zip(self.leaf_specs, digits)]
            for cols in _fold(cols, self._pair_one_hot):
                pass
            rows, signs = cols[0]
            return np.bincount(rows, weights=signs * sv.values, minlength=cfg.m)
        out = np.zeros(cfg.m)
        chunk = max(1, 2**16 // cfg.m)
        work = HadamardWork()

        def pair(key, left, right):
            return apply_tensor_cols(self.node_specs[key], left, right, work=work)

        for start in range(0, sv.nnz, chunk):
            part = slice(start, start + chunk)
            mats = [base_columns(s, d[part]) for s, d in zip(self.leaf_specs, digits)]
            for mats in _fold(mats, pair):
                pass
            out += mats[0] @ sv.values[part]
        return out

    def _pair_one_hot(self, key, left, right):
        return tensorsketch_cols(self.node_specs[key], left, right)

    def materialize_sketch(self) -> np.ndarray:
        """Explicit m x n composite sketching matrix (desk scale only)."""
        mats = [materialize(spec) for spec in self.leaf_specs]
        for mats in _fold(mats, self._pair_nodes):
            pass
        return mats[0]

    # ------------------------------------------------------------------
    # snapshots: config, generation, factors and spec draw indices; everything
    # else (spec seeds, shapes and families, node matrices) is derived on load

    def save(self, path) -> None:
        """Write a KTTR5 snapshot: header, factors, then the 2q - 1 draw indices.

        The indices are the leaves' in order, then the paired nodes' in
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
                self.generation,
                self.q,
            )
        )
        for f in self.factors:
            parts.append(struct.pack("<QQ", f.shape[0], f.shape[1]))
            parts.append(f.astype("<f8").tobytes())
        parts.append(struct.pack(f"<{len(self.draws)}Q", *self.draws))
        with open(path, "wb") as fh:
            fh.write(b"".join(parts))

    @classmethod
    def load(cls, path) -> "TensorTree":
        """Rebuild a tree from a KTTR5 snapshot; malformed input raises ValueError."""
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

        cb, tb, m, adaptive, seed, generation, q = take(_HEADER)
        if cb >= len(BaseFamily) or tb >= len(TensorFamily):
            raise ValueError(f"unknown sketch family codes {cb}, {tb} in tree snapshot")
        if adaptive > 1:
            raise ValueError(f"adaptive flag {adaptive} in tree snapshot is not 0 or 1")
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
        # q is now bounded by the file size, so the index count is too
        draws = take(f"<{2 * q - 1}Q")
        if off != len(raw):
            raise ValueError("trailing bytes after tree snapshot")
        if len(set(draws)) < len(draws):  # two specs would share one seed
            raise ValueError("repeated spec draw index in tree snapshot")
        tree.generation = generation
        tree._init_specs(draws)
        return tree
