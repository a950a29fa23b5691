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
``sketch_vector`` shares its folded chunks with one module-level helper
thread, which only reads the tree; a forked child starts its own.

The same helper draws an adaptive tree's next path ahead. Every spec is a
pure function of the config seed, its row count and its draw index, and the
next update's indices are known once an update commits. So a committed
``update_adaptive`` (on two or more CPUs) queues ``_path_specs`` for the
next index k: the leaf spec of k (only when all factors share one row
count, so that it fits whichever leaf comes next), the node specs of
k + 1 .. k + depth, and the internals of each. The next ``update_adaptive``
takes that draw if it was made for k by this process: a forked child never
waits on its parent's helper. It waits for a running draw, but cancels a
still queued one (say, behind a label's lane) and draws inline with the
same function, as it does when the draw raised, so an error surfaces from
the update itself. Its own critical path is then the leaf's sparse product,
the refold and the commit check. Build and load draw nothing ahead. A failed
update leaves the pending draw in place for its retry. Trees, draw indices
and snapshots are bit for bit those of drawing inline.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import threading
from concurrent import futures
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
    _base_internals,
    _check_int,
    _tensor_internals,
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

# A folded label's chunks are shared by _LANES lanes, the calling thread and
# one worker thread; no lane takes a chunk _AHEAD or more past the next one
# to add (fixed, not knobs)
_LANES = 2
_AHEAD = 8


def _new_worker() -> None:
    """Start afresh the label lane's worker, whose thread a forked child lacks."""
    global _worker
    _worker = futures.ThreadPoolExecutor(1, thread_name_prefix="kronsketch-label")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_new_worker()  # no thread runs before the first submit
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)

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


@functools.lru_cache(maxsize=16)
def _seed_state(seed: int) -> dict:
    """Initial PCG64 state of ``default_rng(seed)``, seeded once per config seed."""
    return np.random.PCG64(seed).state


_draw_bits = threading.local()  # one PCG64 per thread, reset by every draw


def _draw_seed(seed: int, k: int) -> int:
    """Seed of spec draw k: the k-th ``integers(0, 1 << 63)`` of ``default_rng(seed)``,
    computed alone by jump-ahead. Each such draw is one 64-bit output shifted
    right by one bit (Lemire's bounded draw never rejects at a range of 2**63)."""
    bits = getattr(_draw_bits, "pcg", None)
    if bits is None:
        bits = _draw_bits.pcg = np.random.PCG64()
    bits.state = _seed_state(seed)
    bits.advance(k)
    return int(bits.random_raw()) >> 1


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
        self._ahead = None  # (index k, pid, future of _path_specs) or None

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

    def _path_specs(self, k: int, n: int | None, count: int):
        """The leaf spec of draw index k for n rows (None for no n) and the node
        specs of indices k + 1 .. k + count, each with its internals drawn."""
        leaf = None
        if n is not None:
            leaf = self._leaf_spec(n, k)
            _base_internals(leaf)
        nodes = [self._node_spec(j) for j in range(k + 1, k + 1 + count)]
        for spec in nodes:
            _tensor_internals(spec)
        return leaf, nodes

    def _take_path_specs(self, k: int, n: int, count: int):
        """``_path_specs(k, n, count)``, from the helper's draw where it can be used."""
        drawn = None
        ahead = self._ahead
        if ahead is not None and ahead[:2] == (k, os.getpid()) and not ahead[2].cancel():
            try:
                drawn = ahead[2].result()  # waits if the draw is running
            except Exception:  # drawn again below, so that the error surfaces here
                pass
        if drawn is None:
            return self._path_specs(k, n, count)
        leaf, nodes = drawn
        if leaf is None:  # factors of unequal row counts
            leaf = self._path_specs(k, n, 0)[0]
        return leaf, nodes[:count]

    def _draw_ahead(self) -> None:
        """Queue the next adaptive update's path draws on the helper thread."""
        k = max(self.draws) + 1
        self._ahead = None
        if k + self.depth >= MAX_SEED or _usable_cpus() < 2:
            return
        rows = {f.shape[0] for f in self.factors}
        n = rows.pop() if len(rows) == 1 else None
        try:
            future = _worker.submit(self._path_specs, k, n, self.depth)
        except RuntimeError:  # the interpreter is exiting: the next update draws inline
            return
        self._ahead = (k, os.getpid(), future)

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
        before drawing them. The specs come from the helper thread's draw
        ahead where it can be used (see the module docstring); once committed,
        the call queues the draw for the next update.
        """
        if not self.config.adaptive:
            raise ConfigurationError(
                "update_adaptive requires a tree built with adaptive=True"
            )
        factors = self._updated_factors(i, B)
        draws = list(self.draws)
        draws[i] = k = max(draws) + 1
        path = [  # bottom-up
            (slot, key) for slot, key in enumerate(_node_keys(self.q), self.q) if i >> key[0] == key[1]
        ]
        if k + len(path) >= MAX_SEED:
            raise ValueError(f"spec draw index {k + len(path)} does not fit in 64 bits")
        leaf_specs = list(self.leaf_specs)
        leaf_specs[i], nodes = self._take_path_specs(k, factors[i].shape[0], len(path))
        node_specs = dict(self.node_specs)
        for j, ((slot, key), spec) in enumerate(zip(path, nodes), k + 1):
            draws[slot] = j
            node_specs[key] = spec
        self._refold({i}, factors, leaf_specs, node_specs)
        self.draws = draws
        self.recompute_counter = len(self.levels)
        self.generation += 1
        self._draw_ahead()

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
        chunk column blocks, ``max(1, 2**15 // m)`` nonzeros at a time (about
        256 KB per block). Two lanes, this thread and the helper thread,
        each take the next chunk in order (one lane for fewer than two chunks
        or on one CPU), and each chunk's weighted root columns are added in
        chunk order, so the result is bit for bit the same whichever lane
        sketched a chunk. No lane runs ``_AHEAD`` chunks past the next one to
        add, so memory stays O(m chunk) at any nnz. Each lane keeps one
        ``HadamardWork`` for all its TensorSRHT transforms, so its buffers are
        allocated once, not per chunk and node, and freed at return.
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
        chunk = max(1, 2**15 // cfg.m)
        parts = [slice(start, start + chunk) for start in range(0, sv.nnz, chunk)]

        def sketch_chunk(part, work):
            def pair(key, left, right):
                return apply_tensor_cols(self.node_specs[key], left, right, work=work)

            mats = [base_columns(s, d[part]) for s, d in zip(self.leaf_specs, digits)]
            for mats in _fold(mats, pair):
                pass
            return mats[0] @ sv.values[part]

        out = np.zeros(cfg.m)
        if min(_LANES, len(parts), _usable_cpus()) < 2:
            work = HadamardWork()
            for part in parts:
                out += sketch_chunk(part, work)
            return out
        # Each lane takes the next chunk in order, no more than _AHEAD past
        # the next one to add, so a lane slowed by a busy CPU takes fewer and
        # memory stays O(m chunk); the caller adds them in chunk order.
        cond = threading.Condition(threading.Lock())
        done = {}  # chunk -> root columns, or the exception that it raised
        taken = added = 0

        def lane(work, adds):
            nonlocal out, taken, added
            with cond:
                while added < len(parts):
                    if adds and added in done:
                        result = done.pop(added)
                        if isinstance(result, BaseException):
                            raise result
                        out += result
                        added += 1
                        cond.notify_all()
                    elif taken < min(len(parts), added + _AHEAD):
                        k, taken = taken, taken + 1
                        cond.release()
                        try:
                            result = sketch_chunk(parts[k], work)
                        except BaseException as exc:  # the caller raises it in chunk order
                            result = exc
                        finally:
                            cond.acquire()
                        done[k] = result
                        cond.notify_all()
                    elif taken == len(parts) and not adds:
                        return
                    else:
                        cond.wait()

        future = _worker.submit(lane, HadamardWork(), False)
        try:
            lane(HadamardWork(), True)
        finally:
            with cond:  # a caller that raised stops the worker after its chunk
                taken = len(parts)
                cond.notify_all()
            if not future.cancel():  # it left the queue: wait until it returns
                future.result()
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
