"""Sketched Kronecker product maintained as a balanced binary tree.

Leaf k holds a base-sketched factor, J[k, 0] = C_k A_k with C_k drawn from
the configured base family. Each level above pairs adjacent nodes left to
right; a paired node holds the tensor-typed sketch of the Kronecker product
of its two children, computed column-pair-wise so the product itself is
never formed. When a level has an odd node count, the rightmost node is
promoted unchanged (order-preserving, so the implied composite sketch is
still a linear map on the full Kronecker ordering). The root is an m x d
sketch of the whole chain, d being the product of the factor column counts.
Each node has a slot, numbered as the pairing makes them (``_fold``): the
leaves first, the root last. ``specs``, ``draws``, ``nodes`` and ``sides`` are
in slot order.

The root is given in its spec's orthonormal output frame Q
(``sketches.to_frame``): a TensorSketch root is Q M, M the pair's
time-domain sketch, built from its two side transforms with no inverse rfft,
so no update runs the root's irfft. Least squares, penalized least squares
and right singular vectors are the same on (Q M, Q b) as on (M, b), so
solvers read ``root`` and rotate the label sketch with ``frame``. Label
sketches (``sketch_vector``) stay in the time domain. TensorSRHT roots and
one-leaf trees have the identity frame.

Updating factor i re-sketches leaf i and recomputes the slots above it
(``_slots_above``) from their two children, keeping every other node, so
each node is always what a fresh build computes from its spec and children.
A paired node is the product of two side transforms, each a function of one
child and the node's spec alone, and ``sides`` keeps that pair per slot. On
a static update's path only one child of each slot has changed, so the slot
transforms that child and reuses the other's kept side; a slot under a new
spec (build, load, an adaptive path) transforms both. Nothing, ``sides``
included, is committed until the new root is finite: an update that raises
leaves the tree as it was.

A build gives slot j's spec the draw index j (``_draw_seed``). In adaptive
mode an update first redraws the specs of its path's slots under the indices
past the largest in use, so an adversary sees fresh randomness after every
update. The ``generation`` counter exposes this change of the sketching
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
next index k: the specs of k .. k + depth in one list, a leaf's for factor
0's row count and then the nodes', with their internals. The helper stores
the draw in one slot, ``_next``, only if k is still the next index. The next
``update_adaptive`` reads the slot once and takes the draw if it holds its
index; otherwise (the draw is queued, running or raised) it draws inline
with the same function. It takes the drawn leaf only for a factor of that
row count, and draws its own leaf otherwise. So an update never waits on
the helper, an error surfaces from the update itself, and a forked child,
which finds the slot as its parent left it, cannot hang. Build and load
draw nothing ahead, and a failed update leaves the slot for its retry.
Trees, draw indices and snapshots are bit for bit those of drawing inline.
"""

from __future__ import annotations

import functools
import itertools
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
    as_matrix,
    as_sparse,
    as_vector,
    updated_factors,
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
    hash_columns,
    tensorsketch_cols,
    to_frame,
)

SNAPSHOT_MAGIC = b"KTTR5"
_HEADER = "<BBQBQQQ"  # c code, t code, m, adaptive, seed, generation, q

# A folded label's chunks are shared by two lanes, the calling thread and the
# helper thread; no lane takes a chunk _AHEAD or more past the next one to add
# (fixed, not a knob)
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


def _submit(fn, *args) -> futures.Future | None:
    """Queue fn(*args) on the helper thread and return its future, or None on
    one CPU or once the interpreter is exiting (the executor refuses work)."""
    if _usable_cpus() < 2:
        return None
    try:
        return _worker.submit(fn, *args)
    except RuntimeError:
        return None


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

    Each paired node is ``combine(slot, left, right)`` over its two children,
    its slot counting on from the leaves' (the q leaves are slots 0..q-1, the
    paired nodes follow level by level, left to right, and the root is last);
    a lone rightmost node is promoted unchanged (the same array, as node
    matrices are never modified in place). Only the newest level is held, so
    a caller that keeps just the root keeps memory flat.
    """
    slots = itertools.count(len(nodes))
    while len(nodes) > 1:
        nodes = [
            combine(next(slots), *nodes[k:k + 2]) if k + 1 < len(nodes) else nodes[k]
            for k in range(0, len(nodes), 2)
        ]
        yield nodes


def _slots_above(q: int, leaves) -> list[int]:
    """Slots of the paired nodes above any of ``leaves`` in a q-leaf tree, bottom-up."""
    slots = []

    def combine(slot, left, right):
        if left or right:
            slots.append(slot)
        return left or right

    for _ in _fold([i in leaves for i in range(q)], combine):
        pass
    return slots


class TensorTree:
    """Sketch of A_1 (x) ... (x) A_q supporting factor updates.

    Factor matrices are stored in full: an update re-sketches the updated
    factor, and the factored low-rank output hands them back to the caller.
    Every node has one slot (see ``_fold``): ``specs[j]``, ``draws[j]`` and
    ``nodes[j]`` are its spec, draw index and matrix, and ``sides[j]`` is the
    pair of side transforms a paired node was combined from (None at a leaf).
    Treat them as read-only.
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
            raise DimensionError(f"root of shape {config.m} x {d} exceeds element limit")
        self.generation = 0
        self.recompute_counter = 0
        self._next = None  # (index k, _path_specs(k, ...)) drawn ahead, or None

    # ------------------------------------------------------------------
    # structure helpers

    @property
    def q(self) -> int:
        return len(self.factors)

    @property
    def depth(self) -> int:
        """Number of levels above the leaves, ceil(log2 q)."""
        return (self.q - 1).bit_length()

    @property
    def root(self) -> np.ndarray:
        """Top node, an m x d matrix in its frame: Q M for a TensorSketch root.
        Treat as read-only."""
        return self.nodes[-1]

    @property
    def levels(self) -> list[list[np.ndarray]]:
        """The node matrices level by level, leaves first, the root last; a
        promoted node appears again one level up."""
        leaves = self.nodes[:self.q]
        return [leaves, *_fold(leaves, lambda slot, left, right: self.nodes[slot])]

    def frame(self, b_sketch) -> np.ndarray:
        """Q b_sketch: a label sketch rotated into the root's frame.

        A least-squares or penalized solve on (root, Q b_sketch) has the
        answer of one on (M, b_sketch) up to rounding. The rotation costs one
        rfft, or nothing where Q is the identity. A label whose length is not
        m raises DimensionError.
        """
        b_sketch = as_vector(b_sketch)
        if b_sketch.size != self.config.m:
            raise DimensionError(f"sketched label length {b_sketch.size} != m {self.config.m}")
        return to_frame(self.specs[-1], b_sketch)

    @property
    def node_count(self) -> int:
        """Number of nodes, 2q - 1: a promoted node counts once."""
        return len(self.nodes)

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

    def _path_specs(self, k: int, n: int, count: int) -> list:
        """The specs of draw indices k .. k + count, each with its internals
        drawn: a leaf's for n rows, then ``count`` nodes'."""
        specs = [self._leaf_spec(n, k), *map(self._node_spec, range(k + 1, k + 1 + count))]
        _base_internals(specs[0])
        for spec in specs[1:]:
            _tensor_internals(spec)
        return specs

    def _draw_ahead(self) -> None:
        """Queue the next adaptive update's path draws on the helper thread,
        its leaf for factor 0's row count."""
        k, n, depth = max(self.draws) + 1, self.factors[0].shape[0], self.depth
        if k + depth >= MAX_SEED:
            return

        def draw():
            drawn = self._path_specs(k, n, depth)
            # stale once an update has drawn k inline; a store that races that
            # update's commit leaves an index that no later update asks for
            if max(self.draws) + 1 == k:
                self._next = (k, drawn)

        _submit(draw)  # without the helper the next update draws inline

    # ------------------------------------------------------------------
    # construction

    def _init_specs(self, draws) -> None:
        """Every slot's spec from its draw index; then all nodes."""
        specs = [self._leaf_spec(f.shape[0], k) for f, k in zip(self.factors, draws)]
        specs += map(self._node_spec, draws[self.q:])
        self._refold(range(self.q), self.factors, specs)
        self.draws = list(draws)

    def _refold(self, dirty, factors, specs) -> None:
        """Recompute the ``dirty`` leaves and the nodes above them, reusing the rest,
        and store the result only once the new root is known to be finite. A
        node under its stored spec takes an unchanged child's kept side."""
        leaves = [
            (apply_base(specs[i], f), True) if i in dirty else (self.nodes[i], False)
            for i, f in enumerate(factors)
        ]
        nodes, sides, root = [leaf for leaf, _ in leaves], [None] * len(leaves), len(specs) - 1

        def combine(slot, left, right):
            (left, new_left), (right, new_right) = left, right
            if new_left or new_right:
                pair = [None, None]
                if not (new_left and new_right) and specs[slot] is self.specs[slot]:
                    kept = self.sides[slot]
                    pair = [None if new_left else kept[0], None if new_right else kept[1]]
                node = apply_tensor_pair(specs[slot], left, right, frame=slot == root, sides=pair)
                pair = tuple(pair)
            else:
                node, pair = self.nodes[slot], self.sides[slot]
            nodes.append(node)
            sides.append(pair)
            return node, new_left or new_right

        for _ in _fold(leaves, combine):
            pass
        if not np.isfinite(nodes[-1]).all():
            raise ValueError("root sketch has non-finite entries")
        self.factors, self.specs, self.nodes, self.sides = factors, specs, nodes, sides

    # ------------------------------------------------------------------
    # updates

    def update(self, i: int, B) -> None:
        """Apply A_i <- A_i + B, keeping every spec: the nodes then equal a fresh
        build's under those specs, or this raises and changes nothing."""
        self._refold({i}, updated_factors(self.factors, i, B), self.specs)
        self.recompute_counter = self.depth + 1

    def update_adaptive(self, i: int, B) -> None:
        """Apply A_i <- A_i + B with fresh sketches along the path.

        The slots of the path, leaf i and then each paired node above it,
        bottom-up, get the specs of the next draw indices past the largest in
        use, so no randomness is reused where the update landed. The indices
        are stored only once the refold has committed, so a call that raises
        leaves the next seed unchanged.
        A call whose new indices would not fit a snapshot's 64 bits raises
        before drawing them. The specs come from the helper's draw ahead if it
        holds this call's index, else are drawn inline (see the module
        docstring); once committed, the call queues the next update's draw.
        """
        if not self.config.adaptive:
            raise ConfigurationError(
                "update_adaptive requires a tree built with adaptive=True"
            )
        factors = updated_factors(self.factors, i, B)
        path = [i, *_slots_above(self.q, {i})]
        k = max(self.draws) + 1
        if k + len(path) > MAX_SEED:
            raise ValueError(f"spec draw index {k + len(path) - 1} does not fit in 64 bits")
        n = factors[i].shape[0]
        ahead = self._next  # read once: the helper may replace it
        if ahead is not None and ahead[0] == k:
            drawn = ahead[1]
        else:
            drawn = self._path_specs(k, n, len(path) - 1)
        if drawn[0].input_dim != n:  # drawn ahead for factor 0's row count
            drawn = self._path_specs(k, n, 0) + drawn[1:]
        specs, draws = list(self.specs), list(self.draws)
        for j, (slot, spec) in enumerate(zip(path, drawn), k):
            specs[slot], draws[slot] = spec, j
        self._refold({i}, factors, specs)
        self.draws = draws
        self.recompute_counter = self.depth + 1
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
        time and memory at any m. Every other family pair folds column
        chunks. CountSketch or OSNAP leaves under TensorSRHT nodes (q >= 2)
        enter their first pairing as rows and signs (``hash_columns``), so
        only the nodes hold m x chunk blocks, ``max(1, 2**16 // m)`` nonzeros
        at a time (about 512 KB per block). The other folds (SRHT leaves,
        TensorSketch nodes over OSNAP, a lone leaf) take ``max(1, 2**15 // m)``
        nonzeros at a time as dense leaf blocks (about 256 KB each). Two lanes,
        this thread and the helper thread, each take the next chunk in order
        (one lane for fewer than two chunks, on one CPU, or once the
        interpreter is exiting), and each chunk's weighted root columns are
        added in chunk order, so the result is bit for bit the same whichever
        lane sketched a chunk. No lane runs ``_AHEAD`` chunks past the next one
        to add, so memory stays O(m chunk) at any nnz. Each lane keeps one
        ``HadamardWork`` for all its TensorSRHT transforms, so its buffers are
        allocated once, not per chunk and node, and freed at return.

        A folded label of two or more chunks is first coalesced
        (``SparseVector.coalesced``: indices sorted, each index's duplicates
        summed), so its chunks, leaf columns and node work count its distinct
        nonzeros, not the pairs it was built from: a label accumulated from
        deltas repeats indices. A one-chunk label (such as one label delta)
        is folded as given, so it pays no sort, and so is a bincount label,
        which costs O(q nnz) already.
        """
        n_dims = [f.shape[0] for f in self.factors]
        sv = as_sparse(b, math.prod(n_dims))
        cfg = self.config
        if cfg.c_family is BaseFamily.COUNT_SKETCH and (
            cfg.t_family is TensorFamily.TENSOR_SKETCH or self.q == 1
        ):
            digits = np.unravel_index(sv.indices, n_dims)
            cols = [countsketch_columns(s, d) for s, d in zip(self.specs, digits)]
            for cols in _fold(cols, lambda slot, l, r: tensorsketch_cols(self.specs[slot], l, r)):
                pass
            rows, signs = cols[0]
            return np.bincount(rows, weights=signs * sv.values, minlength=cfg.m)
        # hashing leaves enter TensorSRHT nodes as rows and signs, not m x chunk blocks
        sparse_leaves = self.q > 1 and cfg.t_family is TensorFamily.TENSOR_SRHT and (
            cfg.c_family is not BaseFamily.SRHT
        )
        leaf_columns = hash_columns if sparse_leaves else base_columns
        chunk = max(1, (2**16 if sparse_leaves else 2**15) // cfg.m)
        if sv.nnz > chunk:  # fold each distinct nonzero once
            sv = sv.coalesced()
        digits = np.unravel_index(sv.indices, n_dims)
        parts = [slice(start, start + chunk) for start in range(0, sv.nnz, chunk)]

        def sketch_chunk(part, work):
            def pair(slot, left, right):
                return apply_tensor_cols(self.specs[slot], left, right, work=work)

            mats = [leaf_columns(s, d[part]) for s, d in zip(self.specs, digits)]
            for mats in _fold(mats, pair):
                pass
            return mats[0] @ sv.values[part]

        out = np.zeros(cfg.m)
        if len(parts) < 2:
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

        future = _submit(lane, HadamardWork(), False)  # None: this lane takes every chunk
        try:
            lane(HadamardWork(), True)
        finally:
            with cond:  # a caller that raised stops the worker after its chunk
                taken = len(parts)
                cond.notify_all()
            if future is not None and not future.cancel():  # it left the queue: wait
                future.result()
        return out

    # ------------------------------------------------------------------
    # snapshots: config, generation, factors and spec draw indices; everything
    # else (spec seeds, shapes and families, node matrices) is derived on load

    def save(self, path) -> None:
        """Write a KTTR5 snapshot: header, factors, then the 2q - 1 draw indices
        in slot order (the leaves', then the paired nodes' bottom-up, the root's last)."""
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
