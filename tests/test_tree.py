import itertools
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from kronsketch.linalg import (
    DimensionError,
    HadamardWork,
    RegularizationError,
    SparseVector,
    kron,
    kron_chain,
)
from kronsketch.sketches import (
    BaseFamily,
    ConfigurationError,
    TensorFamily,
    _base_internals,
    _tensor_internals,
    _tensor_side,
    apply_base,
    apply_tensor_cols,
    apply_tensor_pair,
    base_columns,
    choose_m,
    hash_columns,
    to_frame,
)
from kronsketch import sketches as sketches_module
from kronsketch import solvers
from kronsketch import tree as tree_module
from kronsketch.tree import (
    _HEADER,
    SNAPSHOT_MAGIC,
    TensorTree,
    TreeConfig,
    _draw_seed,
    _fold,
    _slots_above,
)
from sketch_oracles import materialize, materialize_sketch
from tree_digests import InlineWorker, overflowing

RNG = np.random.default_rng(314)

FAMILY_PAIRS = [
    (BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SKETCH),
    (BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT),
    (BaseFamily.SRHT, TensorFamily.TENSOR_SRHT),
]
# every pair whose labels fold dense column chunks (at q >= 2 for CountSketch)
FOLDED_PAIRS = [
    pair for pair in itertools.product(BaseFamily, TensorFamily)
    if pair != (BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SKETCH)
]


def random_factors(q, n_max=8, d_max=3, rng=RNG):
    return [
        rng.standard_normal((int(rng.integers(2, n_max + 1)), int(rng.integers(1, d_max + 1))))
        for _ in range(q)
    ]


def node_errors(tree, other):
    errs = []
    for la, lb in zip(tree.levels, other.levels):
        for a, b in zip(la, lb):
            scale = max(1.0, np.linalg.norm(b))
            errs.append(np.linalg.norm(a - b) / scale)
    return max(errs)


def expected_nodes(tree):
    """(stored, expected) per slot: each leaf's base sketch of its factor, and
    each paired node's sketch of its stored children, the root in its frame."""
    out = [(tree.nodes[i], apply_base(tree.specs[i], f)) for i, f in enumerate(tree.factors)]
    root = len(tree.specs) - 1

    def combine(slot, left, right):
        out.append((tree.nodes[slot],
                    apply_tensor_pair(tree.specs[slot], left, right, frame=slot == root)))
        return tree.nodes[slot]

    for _ in _fold(tree.nodes[:tree.q], combine):
        pass
    return out


def check_node_invariants(tree, tol=1e-10):
    for slot, (node, expected) in enumerate(expected_nodes(tree)):
        scale = 1.0 if slot < tree.q else max(1.0, np.abs(expected).max())
        assert np.allclose(node, expected, atol=tol * scale)


def check_nodes_exact(tree):
    """Every node is bit for bit the sketch of its stored spec and children,
    the root in its frame, and keeps the sides it was combined from."""
    for node, expected in expected_nodes(tree):
        assert np.array_equal(node, expected)
    check_sides_exact(tree)


def check_sides_exact(tree):
    """Each paired slot keeps, bit for bit, the side transforms of its current
    children under its current spec; a leaf keeps none."""
    assert len(tree.sides) == len(tree.nodes) and tree.sides[:tree.q] == [None] * tree.q

    def combine(slot, left, right):
        kept = tree.sides[slot]
        assert len(kept) == 2
        for k, child in enumerate((left, right)):
            assert np.array_equal(kept[k], _tensor_side(tree.specs[slot], child, k)), (slot, k)
        return tree.nodes[slot]

    for _ in _fold(tree.nodes[:tree.q], combine):
        pass


def changed_sides(q, i):
    """Per slot above leaf i, bottom-up, the side (0 left, 1 right) whose child
    holds leaf i: a promoted node carries its leaf up unchanged."""
    sides = []

    def combine(slot, left, right):
        if left or right:
            sides.append(0 if left else 1)
        return left or right

    for _ in _fold([j == i for j in range(q)], combine):
        pass
    return sides


def tree_state(tree):
    """Everything an update may change, copied, plus the next adaptive seed."""
    return (
        [f.copy() for f in tree.factors],
        [[node.copy() for node in level] for level in tree.levels],
        list(tree.specs),
        tree.generation,
        list(tree.draws),
        _draw_seed(tree.config.seed, max(tree.draws) + 1),
    )


def assert_same_state(before, after):
    factors, levels, *rest = before
    assert len(after[0]) == len(factors)
    assert all(np.array_equal(a, b) for a, b in zip(after[0], factors))
    assert [len(level) for level in after[1]] == [len(level) for level in levels]
    assert all(
        np.array_equal(a, b) for la, lb in zip(after[1], levels) for a, b in zip(la, lb)
    )
    assert after[2:] == tuple(rest)


class TestInitialize:
    def test_single_factor_root_is_leaf_sketch(self):
        A = RNG.standard_normal((6, 3))
        tree = TensorTree([A], TreeConfig(m=5, seed=1))
        assert np.array_equal(tree.root, apply_base(tree.specs[0], A))
        assert tree.depth == 0

    def test_two_factor_root_brute_force(self):
        cfg = TreeConfig(m=6, seed=2)
        tree = TensorTree([np.eye(2), np.eye(2)], cfg)
        C1 = materialize(tree.specs[0])
        C2 = materialize(tree.specs[1])
        T = materialize(tree.specs[2])
        expected = to_frame(tree.specs[2], T @ kron(C1, C2))
        assert np.allclose(tree.root, expected, atol=1e-10)

    def test_root_shape(self):
        factors = [RNG.standard_normal((4, d)) for d in (2, 3, 1, 2)]
        tree = TensorTree(factors, TreeConfig(m=7, seed=3))
        assert tree.root.shape == (7, 2 * 3 * 1 * 2)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8])
    def test_invariants_after_init(self, q):
        tree = TensorTree(random_factors(q), TreeConfig(m=9, seed=q))
        check_node_invariants(tree)

    @pytest.mark.parametrize("q", range(1, 7))
    def test_node_count_is_the_slot_count(self, q):
        # a promoted node is one slot, however many levels it is carried through
        tree = TensorTree([np.eye(3)] * q, TreeConfig(m=4, seed=q))
        assert tree.node_count == len(tree.nodes) == 2 * q - 1
        assert len(tree.specs) == len(tree.draws) == len(tree.sides) == 2 * q - 1

    def test_empty_factor_rejected(self):
        with pytest.raises(DimensionError):
            TensorTree([np.zeros((0, 2))], TreeConfig(m=4))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TreeConfig(m=0)
        with pytest.raises(ValueError):
            TreeConfig(seed=-1)
        with pytest.raises(ValueError):
            TreeConfig(seed=1 << 64)

    @pytest.mark.parametrize("m", [2.5, 64.0, "64", None])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(ConfigurationError, match="m must be an integer"):
            TreeConfig(m=m)

    def test_integer_m_kept_as_int(self):
        assert type(TreeConfig(m=np.int64(8)).m) is int

    @pytest.mark.parametrize("seed", [2.5, 3.0, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        # at the config, not later in the build's numpy SeedSequence
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            TreeConfig(seed=seed)

    def test_integer_seed_kept_as_int(self):
        cfg = TreeConfig(m=4, seed=np.uint64(7))
        assert type(cfg.seed) is int
        factors = random_factors(2)
        assert np.array_equal(TensorTree(factors, cfg).root,
                              TensorTree(factors, TreeConfig(m=4, seed=7)).root)

    def test_column_blowup_rejected(self):
        factors = [np.ones((2, 64)) for _ in range(8)]  # d = 64^8
        with pytest.raises(DimensionError):
            TensorTree(factors, TreeConfig(m=4))

    def test_deterministic_given_seed(self):
        factors = random_factors(3)
        a = TensorTree(factors, TreeConfig(m=8, seed=11))
        b = TensorTree(factors, TreeConfig(m=8, seed=11))
        assert node_errors(a, b) == 0.0


class TestDrawSeed:
    @pytest.mark.parametrize("seed", [0, 5, 801, 2**64 - 1])
    def test_equals_kth_draw_of_the_stream(self, seed):
        rng = np.random.default_rng(seed)
        for k in range(500):
            assert _draw_seed(seed, k) == int(rng.integers(0, 1 << 63))

    def test_matches_jump_ahead_reference_from_two_threads(self):
        def reference(seed, k):
            rng = np.random.default_rng(seed)
            rng.bit_generator.advance(k)
            return int(rng.integers(0, 1 << 63))

        cases = [
            (seed, k) for seed in (0, 5, 2**63 + 9)
            for k in [*range(40), 2**32 + 1, 2**63, 2**64 - 2, 2**64 - 1]
        ]
        expected = [reference(seed, k) for seed, k in cases]
        start = threading.Barrier(2)
        results = [[], []]

        def draw(out):
            start.wait(timeout=30)
            for _ in range(5):
                out.append([_draw_seed(seed, k) for seed, k in cases])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=draw, args=(out,)) for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(got == expected for out in results for got in out)
        assert all(len(out) == 5 for out in results)

    def test_build_uses_the_first_indices(self):
        tree = TensorTree(random_factors(5), TreeConfig(m=4, seed=30))
        assert tree.draws == list(range(9))
        assert [s.seed for s in tree.specs[:5]] == [_draw_seed(30, k) for k in range(5)]
        assert tree.specs[-1].seed == _draw_seed(30, 8)


class TestUpdate:
    def test_zero_delta_is_noop(self):
        factors = random_factors(4)
        tree = TensorTree(factors, TreeConfig(m=8, seed=4))
        before = [n.copy() for level in tree.levels for n in level]
        tree.update(2, np.zeros_like(factors[2]))
        after = [n for level in tree.levels for n in level]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    @pytest.mark.parametrize("q,i", [(2, 0), (2, 1), (3, 2), (5, 3), (8, 5)])
    def test_matches_fresh_initialize(self, q, i):
        rng = np.random.default_rng(100 * q + i)
        factors = random_factors(q, rng=rng)
        cfg = TreeConfig(m=8, seed=55)
        tree = TensorTree(factors, cfg)
        B = rng.standard_normal(factors[i].shape)
        tree.update(i, B)
        fresh_factors = list(factors)
        fresh_factors[i] = factors[i] + B
        fresh = TensorTree(fresh_factors, cfg)
        assert node_errors(tree, fresh) <= 1e-10

    def test_repeated_updates_stay_consistent(self):
        rng = np.random.default_rng(8)
        factors = random_factors(5, rng=rng)
        cfg = TreeConfig(m=8, seed=77)
        tree = TensorTree(factors, cfg)
        current = list(factors)
        for _ in range(6):
            i = int(rng.integers(0, 5))
            B = rng.standard_normal(current[i].shape)
            tree.update(i, B)
            current[i] = current[i] + B
        fresh = TensorTree(current, cfg)
        assert node_errors(tree, fresh) <= 1e-9

    def test_recompute_counter_q8(self):
        factors = [RNG.standard_normal((4, 2)) for _ in range(8)]
        tree = TensorTree(factors, TreeConfig(m=6, seed=5))
        for i in range(8):
            tree.update(i, np.zeros((4, 2)))
            assert tree.recompute_counter == 4

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 6, 7])
    def test_recompute_counter_is_path_length(self, q):
        factors = [RNG.standard_normal((3, 1)) for _ in range(q)]
        tree = TensorTree(factors, TreeConfig(m=4, seed=6))
        for i in range(q):
            tree.update(i, np.zeros((3, 1)))
            assert tree.recompute_counter == tree.depth + 1

    @given(
        st.integers(1, 6),
        st.integers(0, 2**32),
        st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_update_sequence_matches_fresh_build(self, q, seed, steps):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((3, 2)) for _ in range(q)]
        cfg = TreeConfig(m=6, seed=seed % (1 << 32))
        tree = TensorTree(factors, cfg)
        current = list(factors)
        for step in steps:
            i = step % q
            B = rng.standard_normal((3, 2))
            tree.update(i, B)
            current[i] = current[i] + B
        fresh = TensorTree(current, cfg)
        assert node_errors(tree, fresh) <= 1e-9

    @given(
        st.sampled_from(FAMILY_PAIRS),
        st.integers(1, 6),
        st.booleans(),
        st.integers(0, 2**32),
        st.lists(st.integers(0, 2**16), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_nodes_are_recomputed_exactly(self, families, q, adaptive, seed, steps):
        # static trees equal a fresh build; adaptive trees (mixing both
        # updates) hold the sketch of each stored spec and children, both
        # bit for bit
        rng = np.random.default_rng(seed)
        factors = [
            rng.standard_normal((int(rng.integers(2, 7)), int(rng.integers(1, 3))))
            for _ in range(q)
        ]
        cfg = TreeConfig(*families, m=8, adaptive=adaptive, seed=seed)
        tree = TensorTree(factors, cfg)
        current = list(factors)
        for step in steps:
            i = step % q
            B = rng.standard_normal(current[i].shape)
            (tree.update_adaptive if adaptive and step % 3 else tree.update)(i, B)
            current[i] = current[i] + B
        if adaptive:
            check_nodes_exact(tree)
        else:
            fresh = TensorTree(current, cfg)
            for la, lb in zip(tree.levels, fresh.levels, strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(la, lb, strict=True))

    def test_shape_mismatch_rejected(self):
        tree = TensorTree(random_factors(2), TreeConfig(m=4, seed=7))
        with pytest.raises(DimensionError):
            tree.update(0, np.zeros((1, 1)))

    def test_index_out_of_range(self):
        tree = TensorTree(random_factors(2), TreeConfig(m=4, seed=7))
        with pytest.raises(IndexError):
            tree.update(2, np.zeros((2, 2)))


class TestUpdateAdaptive:
    def test_requires_adaptive_config(self):
        tree = TensorTree(random_factors(2), TreeConfig(m=4, seed=9))
        with pytest.raises(ConfigurationError):
            tree.update_adaptive(0, np.zeros_like(tree.factors[0]))

    def test_post_state_matches_fresh_build_with_new_specs(self):
        rng = np.random.default_rng(10)
        factors = random_factors(5, rng=rng)
        tree = TensorTree(factors, TreeConfig(m=7, adaptive=True, seed=10))
        tree.update_adaptive(1, rng.standard_normal(factors[1].shape))
        check_node_invariants(tree)

    def test_fresh_seeds_each_update(self):
        factors = random_factors(4)
        tree = TensorTree(factors, TreeConfig(m=6, adaptive=True, seed=12))
        seeds = {tree.specs[2].seed}
        for _ in range(3):
            tree.update_adaptive(2, np.zeros_like(factors[2]))
            seeds.add(tree.specs[2].seed)
        assert len(seeds) == 4

    def test_cancel_and_restore(self):
        rng = np.random.default_rng(13)
        factors = random_factors(4, rng=rng)
        tree = TensorTree(factors, TreeConfig(m=6, adaptive=True, seed=13))
        tree.update_adaptive(0, -factors[0])
        tree.update_adaptive(0, factors[0])
        # all nodes must equal a recomputation from the final specs
        check_node_invariants(tree)
        for a, b in zip(tree.factors, factors):
            assert np.allclose(a, b, atol=1e-12)

    def test_replaced_spec_internals_freed(self):
        config = TreeConfig(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, m=6, adaptive=True, seed=15)
        tree = TensorTree(random_factors(3), config)
        leaf = weakref.ref(_base_internals(tree.specs[1])[0])
        node = weakref.ref(_tensor_internals(tree.specs[3])[1])
        kept = _base_internals(tree.specs[0])[0]
        tree.update_adaptive(1, np.zeros_like(tree.factors[1]))
        assert leaf() is None and node() is None
        assert _base_internals(tree.specs[0])[0] is kept  # off the path

    def test_off_path_nodes_untouched(self):
        factors = [RNG.standard_normal((4, 2)) for _ in range(4)]
        tree = TensorTree(factors, TreeConfig(m=6, adaptive=True, seed=14))
        other_leaf = tree.levels[0][3].copy()
        other_pair = tree.levels[1][1].copy()
        tree.update_adaptive(0, np.zeros((4, 2)))
        assert np.array_equal(tree.levels[0][3], other_leaf)
        assert np.array_equal(tree.levels[1][1], other_pair)
        assert tree.generation == 1


class TestFailedUpdate:
    """An update whose sketch overflows raises and leaves the tree as it was."""

    @staticmethod
    def _overflow(tree, case, i):
        # rows signed so that a sum the update runs adds them all, past float
        # range, under the specs the update will use
        spec = tree.specs[i]
        if tree.config.adaptive:
            spec = tree._leaf_spec(spec.input_dim, max(tree.draws) + 1)
        signs = base_columns(spec, np.arange(spec.input_dim))
        if case == "big":
            # m = 8, q = 3, i = 1: leaf 1 is the right side of slot 3, whose
            # count sketch of it keeps every row one-hot; the sum is the DC
            # bin of that side's rfft
            node = tree.specs[3]
            if tree.config.adaptive:
                node = tree._node_spec(max(tree.draws) + 2)
            signs = _tensor_internals(node)[1] @ signs
        # m = 1 ("aligned"): the sum is the leaf's single row
        return 1.7e308 * signs.sum(axis=0)[:, None] * np.ones(tree.factors[i].shape)

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize(
        "case, q", [("big", 3)] + [("aligned", q) for q in range(1, 6)]
    )
    def test_raising_update_changes_nothing(self, case, q, adaptive):
        rng = np.random.default_rng(40 + q)
        m = 8 if case == "big" else 1
        factors = [rng.standard_normal((2, 2)) for _ in range(q)]
        tree = TensorTree(factors, TreeConfig(m=m, adaptive=adaptive, seed=40 + q))
        if adaptive:  # redrawn specs and a bumped generation to roll back to
            tree.update_adaptive(q - 1, rng.standard_normal((2, 2)))
        i = q // 2
        B = self._overflow(tree, case, i)
        drain()  # the helper's draw ahead, if any, has landed
        before, ahead = tree_state(tree), tree._next
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            (tree.update_adaptive if adaptive else tree.update)(i, B)
        assert_same_state(before, tree_state(tree))
        assert tree._next is ahead  # a draw ahead stays for the retry
        # the tree still works: a finite update lands as usual
        tree.update(i, rng.standard_normal((2, 2)))
        check_nodes_exact(tree)

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("pair", FAMILY_PAIRS)
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_root_overflow_commits_no_side(self, pair, q, adaptive):
        # finite children whose product leaves float range: the refold reaches
        # the finite-root check with every side on its path computed, and
        # must drop them with the nodes
        rng = np.random.default_rng(50 + q)
        factors = [rng.standard_normal((10, 2)) for _ in range(q)]
        tree = TensorTree(factors, TreeConfig(*pair, m=8, adaptive=adaptive, seed=50 + q))
        tree.update(0, 1e200 * factors[0])
        update = tree.update_adaptive if adaptive else tree.update
        drain()
        before, nodes, sides = tree_state(tree), list(tree.nodes), list(tree.sides)
        with pytest.raises(ValueError, match="root sketch"), np.errstate(over="ignore", invalid="ignore"):
            update(q - 1, 1e200 * factors[q - 1])
        assert_same_state(before, tree_state(tree))
        for now, then in ((tree.nodes, nodes), (tree.sides, sides)):
            assert len(now) == len(then) and all(a is b for a, b in zip(now, then))
        check_nodes_exact(tree)
        for i in range(q):  # later updates reuse the kept sides
            update(i, rng.standard_normal((10, 2)))
            check_nodes_exact(tree)

    @pytest.mark.parametrize("pair", FAMILY_PAIRS)
    def test_frame_column_norm_boundary(self, pair):
        # no irfft of the root is ever run, so a finite root commits whatever
        # its column norms: here one past float max / (2 m), the bound that
        # such an irfft needed, and the queries on it stay finite or flagged
        rng = np.random.default_rng(44)
        m = 8
        tree = TensorTree(
            [rng.standard_normal((3, 2)) for _ in range(3)], TreeConfig(*pair, m=m, seed=44)
        )
        limit = np.finfo(np.float64).max / (2 * m)
        scale = 4 * limit / np.linalg.norm(tree.root, axis=0).max()
        tree.update(0, (scale - 1) * tree.factors[0])
        root = tree.root
        peak = np.abs(root).max()
        assert np.isfinite(root).all()
        assert 2 * limit < peak * np.linalg.norm(root / peak, axis=0).max()
        check_nodes_exact(tree)
        b_sketch = tree.sketch_vector(rng.standard_normal(27))
        assert np.isfinite(solvers.regression_query(tree, b_sketch)).all()
        assert np.isfinite(solvers.lowrank_query(tree, 2).Uk).all()
        try:
            x = solvers.spline_query(tree, b_sketch, solvers.SplineSpec(np.eye(8), 0.5))
        except RegularizationError:
            pass
        else:
            assert np.isfinite(x).all()


class TestKeptSides:
    """A static update transforms only the changed child's side at each slot
    on its path; a build, a load and an adaptive update transform both."""

    @staticmethod
    def count_sides(monkeypatch):
        calls = []
        side = sketches_module._tensor_side

        def counted(spec, U, k, work=None):
            calls.append(k)
            return side(spec, U, k, work)

        monkeypatch.setattr(sketches_module, "_tensor_side", counted)
        return calls

    @pytest.mark.parametrize("pair", FAMILY_PAIRS)
    @pytest.mark.parametrize("q", range(1, 6))
    def test_side_transforms_per_call(self, pair, q, monkeypatch, tmp_path):
        calls = self.count_sides(monkeypatch)
        rng = np.random.default_rng(60 + q)
        factors = [rng.standard_normal((5, 2)) for _ in range(q)]
        tree = TensorTree(factors, TreeConfig(*pair, m=4, adaptive=True, seed=60 + q))
        assert calls == [0, 1] * (q - 1)  # each side of each paired slot once
        for i in range(q):
            path = _slots_above(q, {i})
            calls.clear()
            tree.update(i, rng.standard_normal((5, 2)))
            # one per slot, the changed child's: a promoted leaf is one
            assert calls == changed_sides(q, i) and len(calls) == len(path)
            check_nodes_exact(tree)
            calls.clear()
            tree.update_adaptive(i, rng.standard_normal((5, 2)))
            assert calls == [0, 1] * len(path)  # new specs: no side to reuse
            check_nodes_exact(tree)
        tree.save(tmp_path / "tree.kttr")
        calls.clear()
        loaded = TensorTree.load(tmp_path / "tree.kttr")
        assert calls == [0, 1] * (q - 1)
        check_nodes_exact(loaded)


class TestRootFrame:
    """The root kept in its orthonormal frame, Q M for a TensorSketch root."""

    @given(
        pair=st.sampled_from(list(itertools.product(BaseFamily, TensorFamily))),
        q=st.integers(1, 6),
        m=st.sampled_from([1, 2, 7, 8, 64]),
        adaptive=st.booleans(),
        seed=st.integers(0, 2**32),
        steps=st.lists(st.integers(0, 2**16), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_frame_is_a_rotation_of_the_root(self, pair, q, m, adaptive, seed, steps, tmp_path_factory):
        rng = np.random.default_rng(seed)
        factors = [
            rng.standard_normal((int(rng.integers(2, 5)), int(rng.integers(1, 3))))
            for _ in range(q)
        ]
        cfg = TreeConfig(*pair, m=m, adaptive=adaptive, seed=seed)
        tree = TensorTree(factors, cfg)
        for step in steps:
            i = step % q
            (tree.update_adaptive if adaptive else tree.update)(i, rng.standard_normal(factors[i].shape))
        R, spec = tree.root, tree.specs[-1]
        M = R if q == 1 else apply_tensor_pair(spec, *tree.levels[-2])
        # Q is orthogonal: the Gram matrices agree, and R is Q M column by column
        gram = M.T @ M
        assert np.linalg.norm(R.T @ R - gram) <= 1e-13 * np.linalg.norm(gram)
        assert np.linalg.norm(R - to_frame(spec, M)) <= 1e-13 * np.linalg.norm(M)
        if q == 1 or pair[1] is TensorFamily.TENSOR_SRHT:
            assert np.array_equal(R, M)  # the identity frame
        # the levels are the nodes of a fresh build, bit for bit
        if adaptive:
            path = tmp_path_factory.mktemp("frame") / "tree.kttr"
            tree.save(path)
            fresh = TensorTree.load(path)
        else:
            fresh = TensorTree([f.copy() for f in tree.factors], cfg)
        for la, lb in zip(tree.levels, fresh.levels, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(la, lb, strict=True))
        check_nodes_exact(tree)

    def test_queries_never_finish_the_root(self, monkeypatch):
        # no update or query runs the root's irfft; a query's only transform
        # is the rotation of its label into the root's frame
        pairs, ffts = [], []
        pair_nodes, rfft, irfft = tree_module.apply_tensor_pair, np.fft.rfft, np.fft.irfft

        def counted_pair(*args, **kwargs):
            pairs.append(kwargs.get("frame", False))
            return pair_nodes(*args, **kwargs)

        def counted(name, fn):
            def call(*args, **kwargs):
                ffts.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(tree_module, "apply_tensor_pair", counted_pair)
        monkeypatch.setattr(np.fft, "rfft", counted("rfft", rfft))
        monkeypatch.setattr(np.fft, "irfft", counted("irfft", irfft))
        rng = np.random.default_rng(12)
        factors = [rng.standard_normal((6, 2)) for _ in range(4)]
        tree = TensorTree(factors, TreeConfig(m=32, seed=12))
        pairs.clear()
        ffts.clear()
        b_sketch = tree.sketch_vector(rng.standard_normal(6**4))
        assert pairs == [] and ffts == []  # one-hot columns need no transform
        tree.update(1, rng.standard_normal((6, 2)))
        # the level-1 node is finished in the time domain, the root is not
        assert pairs == [False, True] and ffts.count("irfft") == 1
        pairs.clear()
        ffts.clear()
        solvers.regression_query(tree, b_sketch)
        solvers.spline_query(tree, b_sketch, solvers.SplineSpec(np.eye(16), 0.5))
        solvers.lowrank_query(tree, 3)
        assert tree.depth == 2 and tree.node_count == 7
        assert pairs == [] and ffts == ["rfft", "rfft"]
        root = pair_nodes(tree.specs[-1], *tree.levels[1], frame=True)
        assert np.array_equal(tree.root, root)


def folded_label(tree, sv):
    """Reference label sketch: every nonzero's base columns folded up the tree at once."""
    digits = np.unravel_index(sv.indices, [f.shape[0] for f in tree.factors])
    mats = [base_columns(spec, d) for spec, d in zip(tree.specs, digits)]
    for mats in _fold(mats, lambda slot, l, r: apply_tensor_cols(tree.specs[slot], l, r)):
        pass
    return mats[0] @ sv.values


class TestSketchVector:
    """Label sketches of a CountSketch/TensorSketch tree, which collapse to one bincount."""

    pair = FAMILY_PAIRS[0]

    def config(self, m, seed):
        return TreeConfig(*self.pair, m=m, seed=seed)

    def test_zero_vector(self):
        tree = TensorTree(random_factors(3), self.config(6, 15))
        n = int(np.prod([f.shape[0] for f in tree.factors]))
        out = tree.sketch_vector(SparseVector(n, [], []))
        assert np.array_equal(out, np.zeros(6))

    def test_kron_structured_vector_hits_root(self):
        rng = np.random.default_rng(16)
        factors = [rng.standard_normal((5, 2)) for _ in range(3)]
        tree = TensorTree(factors, self.config(10, 16))
        xs = [rng.standard_normal(2) for _ in range(3)]
        b = kron_chain([f @ x.reshape(-1, 1) for f, x in zip(factors, xs)]).ravel()
        x_full = kron_chain([x.reshape(-1, 1) for x in xs]).ravel()
        expected = tree.root @ x_full
        got = tree.frame(tree.sketch_vector(b))
        assert np.allclose(got, expected, atol=1e-8 * max(1.0, np.abs(expected).max()))

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_matches_materialized_sketch(self, q):
        rng = np.random.default_rng(17 + q)
        factors = [rng.standard_normal((3, 2)) for _ in range(q)]
        tree = TensorTree(factors, self.config(7, 17 + q))
        n = 3**q
        idx = rng.choice(n, size=min(n, 5), replace=False)
        sv = SparseVector(n, idx, rng.standard_normal(idx.size))
        expected = materialize_sketch(tree) @ sv.to_dense()
        assert np.allclose(tree.sketch_vector(sv), expected, atol=1e-10)

    def test_label_across_chunks(self):
        # m = 2048 folds 16 nonzeros per chunk (32 for hashing leaves under
        # TensorSRHT nodes): six full chunks and one of 4 (three and one of 4)
        rng = np.random.default_rng(25)
        factors = [rng.standard_normal((6, 1)) for _ in range(3)]
        tree = TensorTree(factors, self.config(2048, 25))
        idx = rng.integers(0, 6**3, size=100)
        idx[50:60] = idx[:10]  # repeats, in other chunks than their first use
        sv = SparseVector(6**3, idx, rng.standard_normal(100))
        expected = materialize_sketch(tree) @ sv.to_dense()
        scale = np.abs(sv.values).sum()
        assert np.allclose(tree.sketch_vector(sv), expected, rtol=0, atol=1e-14 * scale)

    def test_linearity(self):
        rng = np.random.default_rng(18)
        factors = [rng.standard_normal((4, 2)) for _ in range(2)]
        tree = TensorTree(factors, self.config(8, 18))
        b1 = rng.standard_normal(16)
        b2 = rng.standard_normal(16)
        lhs = tree.sketch_vector(2.5 * b1 + b2)
        rhs = 2.5 * tree.sketch_vector(b1) + tree.sketch_vector(b2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_index_out_of_range(self):
        tree = TensorTree([np.eye(2), np.eye(2)], self.config(4, 19))
        with pytest.raises(IndexError):
            tree.sketch_vector(SparseVector(4, [4], [1.0]))


class TestSketchVectorFolded(TestSketchVector):
    """The same checks on the family pairs whose labels fold dense column chunks."""

    @pytest.fixture(
        autouse=True,
        params=FAMILY_PAIRS[1:] + [(BaseFamily.OSNAP, TensorFamily.TENSOR_SKETCH)],
        ids=lambda pair: "-".join(f.value for f in pair),
    )
    def folded_pair(self, request):
        self.pair = request.param


class TestLabelPaths:
    @given(st.integers(1, 6), st.integers(1, 16), st.integers(0, 2**63 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_hot_collapse_matches_fold(self, q, m, seed, data):
        rng = np.random.default_rng(seed)
        factors = [np.ones((int(rng.integers(1, 5)), 1)) for _ in range(q)]
        tree = TensorTree(factors, TreeConfig(m=m, seed=seed))
        n = int(np.prod([f.shape[0] for f in factors]))
        nnz = data.draw(st.integers(0, 40))
        idx = data.draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
        sv = SparseVector(n, idx, rng.standard_normal(nnz))
        got = tree.sketch_vector(sv)
        # the collapse is exact per column; the fold's FFT round trip adds
        # rounding at every level, so the bound grows with the depth
        bound = 1e-15 * max(1, tree.depth) * np.abs(sv.values).sum()
        assert np.all(np.abs(got - folded_label(tree, sv)) <= bound)
        if nnz:  # a single nonzero lands, exactly, on one row
            one = tree.sketch_vector(SparseVector(n, idx[:1], sv.values[:1]))
            assert sorted(np.abs(one)) == [0.0] * (m - 1) + [abs(sv.values[0])]

    @pytest.mark.parametrize("pair", FAMILY_PAIRS[:2])
    def test_label_memory_independent_of_nnz(self, pair):
        # m x nnz leaf blocks alone would take 2 x 32 MB here
        rng = np.random.default_rng(26)
        factors = [rng.standard_normal((4096, 1)) for _ in range(2)]
        tree = TensorTree(factors, TreeConfig(*pair, m=1024, seed=26))
        sv = SparseVector(4096**2, rng.integers(0, 4096**2, size=4096), rng.standard_normal(4096))
        tracemalloc.start()
        try:
            tree.sketch_vector(sv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


def on_worker() -> bool:
    return threading.current_thread().name.startswith("kronsketch-label")


def drain() -> None:
    """Wait until the helper thread has run everything queued so far."""
    tree_module._worker.submit(int).result(timeout=30)


class TestLabelLanes:
    """A folded label's chunks are shared by the calling thread and one worker thread."""

    M = 4096

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # the lane count is capped by the CPUs this process may run on
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @staticmethod
    def label_tree(pair, q, seed):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((5, 2)) for _ in range(q)]
        tree = TensorTree(factors, TreeConfig(*pair, m=TestLabelLanes.M, seed=seed))
        return tree, rng

    @staticmethod
    def chunk_rule(tree):
        """(nonzeros per chunk, leaf-column function) of a folded label: hashing
        leaves under TensorSRHT nodes (q >= 2) enter as rows and signs in chunks of
        2**16 // m, every other folded path as dense blocks in chunks of 2**15 // m."""
        cfg = tree.config
        hashing = cfg.c_family is not BaseFamily.SRHT
        if tree.q > 1 and cfg.t_family is TensorFamily.TENSOR_SRHT and hashing:
            return max(1, 2**16 // cfg.m), "hash_columns"
        return max(1, 2**15 // cfg.m), "base_columns"

    @staticmethod
    def gate_leaf_columns(monkeypatch, wait=True):
        """Log each call of the two leaf-column functions a folded label may
        call, by name, and return (event, log). The event is set once the worker
        sketches a chunk; until then, with ``wait`` and for at most 30 s, the
        calling thread waits in its first chunk, so the worker is sure to take
        one when it can."""
        seen, calls = threading.Event(), []

        def gate(name, columns):
            def gated(spec, rows):
                calls.append(name)
                if on_worker():
                    seen.set()
                elif wait:
                    seen.wait(timeout=30)
                return columns(spec, rows)

            monkeypatch.setattr(tree_module, name, gated)

        gate("base_columns", base_columns)
        gate("hash_columns", hash_columns)
        return seen, calls

    @pytest.mark.parametrize("pair", FOLDED_PAIRS, ids=lambda p: "-".join(f.value for f in p))
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_bit_identical_at_one_and_two_lanes(self, pair, q, monkeypatch):
        tree, rng = self.label_tree(pair, q, 40 + q)
        n = 5**q
        # a lone CountSketch leaf is one-hot: its labels take the bincount path
        folded = not (q == 1 and pair[0] is BaseFamily.COUNT_SKETCH)
        chunk, columns = self.chunk_rule(tree)
        # none, one nonzero, exactly one chunk, one chunk + 1, and five chunks
        # of pairs; a label of several chunks is folded as its distinct nonzeros
        for nnz in (0, 1, chunk, chunk + 1, 4 * chunk + 3):
            sv = SparseVector(n, rng.integers(0, n, size=nnz), rng.standard_normal(nnz))
            distinct = np.unique(sv.indices).size if nnz > chunk else nnz
            chunks = -(-distinct // chunk) if folded else 0
            monkeypatch.setattr(tree_module, "_usable_cpus", lambda: 1)
            _, calls = self.gate_leaf_columns(monkeypatch, wait=False)
            serial = tree.sketch_vector(sv)
            assert calls == [columns] * (q * chunks)  # one call per leaf and chunk
            monkeypatch.setattr(tree_module, "_usable_cpus", lambda: 2)
            seen, calls = self.gate_leaf_columns(monkeypatch, wait=chunks > 1)
            assert np.array_equal(tree.sketch_vector(sv), serial)
            assert calls == [columns] * (q * chunks)
            assert seen.is_set() == (chunks > 1)
            assert np.allclose(serial, folded_label(tree, sv), rtol=0,
                               atol=1e-14 * max(1.0, np.abs(sv.values).sum()))

    def test_worker_error_propagates_and_next_call_works(self, monkeypatch):
        tree, rng = self.label_tree(FOLDED_PAIRS[1], 3, 50)
        sv = SparseVector(125, rng.integers(0, 125, size=40), rng.standard_normal(40))
        expected = tree.sketch_vector(sv)
        raised = threading.Event()

        def failing(*args, **kwargs):
            if on_worker():
                raised.set()
                raise FloatingPointError("worker lane failed")
            raised.wait(timeout=30)  # so that the worker takes a chunk
            return apply_tensor_cols(*args, **kwargs)

        monkeypatch.setattr(tree_module, "apply_tensor_cols", failing)
        with pytest.raises(FloatingPointError, match="worker lane failed"):
            tree.sketch_vector(sv)
        assert raised.is_set()
        monkeypatch.setattr(tree_module, "apply_tensor_cols", apply_tensor_cols)
        assert np.array_equal(tree.sketch_vector(sv), expected)

    def test_concurrent_readers_agree(self):
        tree, rng = self.label_tree(FOLDED_PAIRS[2], 4, 51)
        sv = SparseVector(625, rng.integers(0, 625, size=60), rng.standard_normal(60))
        expected = tree.sketch_vector(sv)
        start = threading.Barrier(4)
        results = [[] for _ in range(4)]

        def read(out):
            start.wait(timeout=30)
            for _ in range(5):
                out.append(tree.sketch_vector(sv))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=read, args=(out,)) for out in results]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert all(len(out) == 5 for out in results)
        assert all(np.array_equal(got, expected) for out in results for got in out)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_sketch_in_forked_child(self, monkeypatch):
        tree, rng = self.label_tree(FOLDED_PAIRS[1], 3, 52)
        sv = SparseVector(125, rng.integers(0, 125, size=40), rng.standard_normal(40))
        expected = tree.sketch_vector(sv)  # the parent's worker thread has run
        seen, _ = self.gate_leaf_columns(monkeypatch)
        pid = os.fork()
        if pid == 0:  # child: never return into the test runner
            code = 1
            try:
                same = np.array_equal(tree.sketch_vector(sv), expected)
                code = 0 if same and seen.is_set() else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:  # still running: the child hung
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("sketch_vector hung in a forked child")
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_label_at_interpreter_exit_takes_one_lane(self):
        # at exit the executor refuses new work; the label is still sketched
        script = textwrap.dedent("""
            import atexit
            import numpy as np
            from kronsketch import tree as tree_module
            from kronsketch.linalg import SparseVector
            from kronsketch.tree import TensorTree, TreeConfig

            tree_module._usable_cpus = lambda: 2
            rng = np.random.default_rng(53)
            factors = [rng.standard_normal((5, 2)) for _ in range(3)]
            tree = TensorTree(factors, TreeConfig("osnap", "tensorsrht", 4096, seed=53))
            sv = SparseVector(125, rng.integers(0, 125, size=40), rng.standard_normal(40))
            expected = tree.sketch_vector(sv)

            @atexit.register
            def at_exit():
                print(np.array_equal(tree.sketch_vector(sv), expected))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.stdout, done.stderr) == ("True\n", "")


class TestLabelCoalescing:
    """A folded label of several chunks is sketched as its distinct nonzeros; a
    one-chunk label and a bincount label as given."""

    M = 1024
    ROWS = [140, 12, 6, 4, 3]  # rows per factor at q = 1..5: n >= 140 indices

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        # one lane, so the leaf-column calls come in chunk order
        monkeypatch.setattr(tree_module, "_usable_cpus", lambda: 1)

    @staticmethod
    def record_leaf_columns(monkeypatch):
        """Log (name, column count) of each call of the two leaf-column functions."""
        calls = []

        def record(name, columns):
            def recorded(spec, rows):
                calls.append((name, len(rows)))
                return columns(spec, rows)

            monkeypatch.setattr(tree_module, name, recorded)

        record("base_columns", base_columns)
        record("hash_columns", hash_columns)
        return calls

    def label_tree(self, pair, q, seed):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((self.ROWS[q - 1], 2)) for _ in range(q)]
        return TensorTree(factors, TreeConfig(*pair, m=self.M, seed=seed)), rng

    @staticmethod
    def thrice(rng, n, distinct):
        """A label of ``distinct`` nonzeros, each index given three times, shuffled."""
        idx = rng.permutation(np.tile(rng.choice(n, size=distinct, replace=False), 3))
        return SparseVector(n, idx, rng.standard_normal(idx.size))

    @pytest.mark.parametrize("pair", FOLDED_PAIRS, ids=lambda p: "-".join(f.value for f in p))
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_repeats_fold_as_distinct_nonzeros(self, pair, q, monkeypatch):
        tree, rng = self.label_tree(pair, q, 70 + q)
        chunk, columns = TestLabelLanes.chunk_rule(tree)
        sv = self.thrice(rng, tree.factors[0].shape[0] ** q, 2 * chunk + 3)  # 7 chunks of pairs
        calls = self.record_leaf_columns(monkeypatch)
        got = tree.sketch_vector(sv)
        if not (q == 1 and pair[0] is BaseFamily.COUNT_SKETCH):  # a lone CountSketch: bincount
            assert calls == [(columns, chunk)] * (2 * q) + [(columns, 3)] * q
            calls.clear()
            assert np.array_equal(tree.sketch_vector(sv.coalesced()), got)
            assert calls == [(columns, chunk)] * (2 * q) + [(columns, 3)] * q
        bound = 1e-14 * np.abs(sv.values).sum()
        assert np.allclose(got, folded_label(tree, sv), rtol=0, atol=bound)
        assert np.allclose(got, materialize_sketch(tree) @ sv.to_dense(), rtol=0, atol=bound)

    @pytest.mark.parametrize("pair", FOLDED_PAIRS, ids=lambda p: "-".join(f.value for f in p))
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_one_chunk_label_is_folded_as_given(self, pair, q, monkeypatch):
        tree, rng = self.label_tree(pair, q, 80 + q)
        chunk, columns = TestLabelLanes.chunk_rule(tree)
        sv = self.thrice(rng, tree.factors[0].shape[0] ** q, chunk // 3)
        calls = self.record_leaf_columns(monkeypatch)
        got = tree.sketch_vector(sv)
        assert calls == [(columns, sv.nnz)] * q
        # the rule for one chunk: its pairs' leaf columns folded up the tree at once
        leaf_columns = {"base_columns": base_columns, "hash_columns": hash_columns}[columns]
        digits = np.unravel_index(sv.indices, [f.shape[0] for f in tree.factors])
        work = HadamardWork()
        mats = [leaf_columns(s, d) for s, d in zip(tree.specs, digits)]
        for mats in _fold(mats, lambda slot, l, r: apply_tensor_cols(tree.specs[slot], l, r,
                                                                     work=work)):
            pass
        assert np.array_equal(got, mats[0] @ sv.values)

    def test_bincount_label_is_not_coalesced(self, monkeypatch):
        tree, rng = self.label_tree(FAMILY_PAIRS[0], 3, 90)
        sv = self.thrice(rng, 6**3, 200)
        expected = tree.sketch_vector(sv)
        monkeypatch.setattr(SparseVector, "coalesced", None)  # a call would raise
        assert np.array_equal(tree.sketch_vector(sv), expected)


class TestDrawAhead:
    """A committed adaptive update has the helper thread draw the next path's specs."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @staticmethod
    def ops(rng, rows, steps=10):
        """Seeded updates, some of which raise: (kind, i, B)."""
        q, out = len(rows), []
        for step in range(steps):
            i = int(rng.integers(0, q))
            B = rng.standard_normal((rows[i], 2))
            kind = ("adaptive", "adaptive", "static", "shape", "nonfinite", "index")[
                int(rng.integers(0, 6))] if step else "adaptive"
            if kind == "shape":
                B = B[:, :1]
            elif kind == "nonfinite":
                B[0, 0] = np.inf
            elif kind == "index":
                i = q
            out.append((kind, i, B))
        return out

    @staticmethod
    def drive(tree, ops):
        for kind, i, B in ops:
            if kind == "static":
                tree.update(i, B)
            elif kind == "adaptive":
                tree.update_adaptive(i, B)
            else:
                drain()
                ahead = tree._next
                error = {"shape": DimensionError, "nonfinite": ValueError,
                         "index": IndexError}[kind]
                with pytest.raises(error):
                    tree.update_adaptive(i, B)
                assert tree._next is ahead  # kept for the retry
        return tree

    @staticmethod
    def snapshot(tree, path):
        tree.save(path)
        return (path.read_bytes(), tree.draws, tree.generation,
                [[node.tobytes() for node in level] for level in tree.levels])

    @pytest.mark.parametrize("pair", FAMILY_PAIRS, ids=lambda p: "-".join(f.value for f in p))
    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    @pytest.mark.parametrize("equal_rows", [True, False])
    def test_matches_inline_draws(self, pair, q, equal_rows, monkeypatch, tmp_path):
        rng = np.random.default_rng(q * 10 + equal_rows)
        rows = [6] * q if equal_rows else [int(r) for r in rng.integers(3, 9, size=q)]
        factors = [rng.standard_normal((r, 2)) for r in rows]
        config = TreeConfig(*pair, m=8, adaptive=True, seed=q + 100)
        ops = self.ops(rng, rows)
        tree = TensorTree(factors, config)
        assert tree._next is None  # nothing is drawn ahead at build
        helper = self.snapshot(self.drive(tree, ops), tmp_path / "helper.kttr")
        drain()
        assert tree._next[0] == max(tree.draws) + 1
        with monkeypatch.context() as patch:
            patch.setattr(tree_module, "_worker", InlineWorker)
            tree = TensorTree(factors, config)
            for op in ops:  # each drawn-ahead spec is the one the update takes
                ahead = tree._next
                self.drive(tree, [op])
                if ahead is not None and op[0] == "adaptive":
                    _, drawn = ahead
                    assert (tree.specs[op[1]] is drawn[0]) == (rows[op[1]] == rows[0])
                    assert set(map(id, drawn[1:])) >= {
                        id(tree.specs[slot]) for slot in _slots_above(q, {op[1]})}
            inline = self.snapshot(tree, tmp_path / "inline.kttr")
        with monkeypatch.context() as patch:
            patch.setattr(tree_module, "_usable_cpus", lambda: 1)
            tree = self.drive(TensorTree(factors, config), ops)
            assert tree._next is None
            alone = self.snapshot(tree, tmp_path / "alone.kttr")
        assert helper == inline == alone
        loaded = TensorTree.load(tmp_path / "helper.kttr")
        assert loaded._next is None  # nor at load

    def reference(self, monkeypatch, factors, config, ops):
        with monkeypatch.context() as patch:
            patch.setattr(tree_module, "_usable_cpus", lambda: 1)
            return self.drive(TensorTree(factors, config), ops)

    def small_case(self, seed):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((6, 2)) for _ in range(3)]
        config = TreeConfig(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, m=8, adaptive=True, seed=seed)
        return factors, config, [("adaptive", i, rng.standard_normal((6, 2))) for i in (0, 2, 1)]

    def test_raising_draw_falls_back_inline(self, monkeypatch):
        factors, config, ops = self.small_case(60)
        expected = self.reference(monkeypatch, factors, config, ops)
        path_specs = TensorTree._path_specs
        fail_inline = False

        def failing(self, *args):
            if on_worker() or fail_inline:
                raise FloatingPointError("draw failed")
            return path_specs(self, *args)

        monkeypatch.setattr(TensorTree, "_path_specs", failing)
        tree = self.drive(TensorTree(factors, config), ops[:1])
        drain()
        assert tree._next is None  # a draw that raised leaves the slot empty
        fail_inline, before = True, tree_state(tree)
        with pytest.raises(FloatingPointError):  # the update's own draw raises
            tree.update_adaptive(*ops[1][1:])
        assert_same_state(before, tree_state(tree))
        fail_inline = False
        self.drive(tree, ops[1:])
        check_nodes_exact(tree)
        assert tree.draws == expected.draws
        for la, lb in zip(tree.levels, expected.levels, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(la, lb, strict=True))

    def test_stale_queued_draw_is_drawn_inline(self, monkeypatch):
        factors, config, ops = self.small_case(61)
        expected = self.reference(monkeypatch, factors, config, ops)
        tree = TensorTree(factors, config)
        release = threading.Event()
        blocker = tree_module._worker.submit(release.wait, 30)  # holds the helper thread
        try:
            self.drive(tree, ops[:2])  # the second update finds its draw still queued
            with monkeypatch.context() as patch:  # and so does the third, which queues none
                patch.setattr(tree_module, "_usable_cpus", lambda: 1)
                self.drive(tree, ops[2:])
            assert not blocker.done()  # no update waited on the helper
        finally:
            release.set()
            blocker.result(timeout=30)
        drain()
        assert tree._next is None  # both stale draws left the slot alone
        assert tree.draws == expected.draws
        for la, lb in zip(tree.levels, expected.levels, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(la, lb, strict=True))

    def test_update_at_interpreter_exit_draws_inline(self, monkeypatch):
        # an executor refuses new work once the interpreter exits; the update
        # has committed by then, so it must not raise
        class Refusing:
            @staticmethod
            def submit(fn, *args):
                raise RuntimeError("cannot schedule new futures after interpreter shutdown")

        factors, config, ops = self.small_case(63)
        expected = self.reference(monkeypatch, factors, config, ops)
        monkeypatch.setattr(tree_module, "_worker", Refusing)
        tree = self.drive(TensorTree(factors, config), ops)
        assert tree._next is None
        assert tree.draws == expected.draws and tree.generation == expected.generation
        assert np.array_equal(tree.root, expected.root)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_inline(self, monkeypatch):
        factors, config, ops = self.small_case(62)
        expected = self.reference(monkeypatch, factors, config, ops[:2]).root
        started, release = threading.Event(), threading.Event()
        path_specs = TensorTree._path_specs

        def held(self, *args):
            if on_worker():
                started.set()
                release.wait(timeout=30)
            return path_specs(self, *args)

        monkeypatch.setattr(TensorTree, "_path_specs", held)
        tree = self.drive(TensorTree(factors, config), ops[:1])
        try:
            assert started.wait(timeout=30)  # the draw for ops[1] is running
            pid = os.fork()
            if pid == 0:  # child: never return into the test runner
                code = 1
                try:
                    tree.update_adaptive(*ops[1][1:])
                    code = 0 if np.array_equal(tree.root, expected) else 2
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 5
            while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            if status[0] == 0:  # still running: the child waits on the parent's draw
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("update_adaptive hung in a forked child")
            assert os.waitstatus_to_exitcode(status[1]) == 0
        finally:
            release.set()
            drain()


class TestMaterializeSketch:
    def test_single_factor(self):
        A = RNG.standard_normal((5, 2))
        tree = TensorTree([A], TreeConfig(m=4, seed=20))
        assert np.array_equal(materialize_sketch(tree), materialize(tree.specs[0]))

    @pytest.mark.parametrize("q", [2, 3])
    def test_sketch_times_chain_equals_root(self, q):
        rng = np.random.default_rng(21 + q)
        factors = [rng.standard_normal((4, 2)) for _ in range(q)]
        tree = TensorTree(factors, TreeConfig(m=9, seed=21 + q))
        sketched = materialize_sketch(tree) @ kron_chain(factors)
        lhs = to_frame(tree.specs[-1], sketched)  # the root's frame
        scale = max(1.0, np.abs(tree.root).max())
        assert np.allclose(lhs, tree.root, atol=1e-9 * scale)


class TestEmbedding:
    def test_norm_ratio_concentrates(self):
        rng = np.random.default_rng(22)
        factors = [rng.standard_normal((8, 2)) for _ in range(3)]
        m = choose_m(BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SKETCH, 8, 3, 0.5, 0.1)
        A = kron_chain(factors)
        hits = 0
        for trial in range(100):
            tree = TensorTree(factors, TreeConfig(m=m, seed=600 + trial))
            x = rng.standard_normal(8)
            ratio = np.linalg.norm(tree.root @ x) / np.linalg.norm(A @ x)
            hits += 0.5 <= ratio <= 1.5
        assert hits >= 90


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        factors = random_factors(5, rng=rng)
        tree = TensorTree(factors, TreeConfig(
            BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 9, False, 99
        ))
        tree.update(1, rng.standard_normal(factors[1].shape))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        loaded = TensorTree.load(path)
        assert loaded.config == tree.config
        assert loaded.specs == tree.specs
        for a, b in zip(loaded.factors, tree.factors):
            assert np.array_equal(a, b)
        assert node_errors(loaded, tree) <= 1e-10

    def test_adaptive_tree_round_trip_continues_fresh(self, tmp_path):
        rng = np.random.default_rng(24)
        factors = random_factors(3, rng=rng)
        tree = TensorTree(factors, TreeConfig(m=6, adaptive=True, seed=24))
        tree.update_adaptive(0, rng.standard_normal(factors[0].shape))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        loaded = TensorTree.load(path)
        assert loaded.specs[:3] == tree.specs[:3]
        # the draw indices continue where the saved tree stopped
        loaded.update_adaptive(0, np.zeros_like(loaded.factors[0]))
        tree.update_adaptive(0, np.zeros_like(tree.factors[0]))
        assert loaded.specs[0].seed == tree.specs[0].seed

    @given(
        st.sampled_from(FAMILY_PAIRS),
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)), min_size=1, max_size=6),
        st.integers(1, 12),
        st.integers(0, 2**64 - 1),
        st.lists(st.integers(0, 5), max_size=4),
    )
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_load_matches_saved_tree(self, tmp_path, families, shapes, m, seed, steps):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal(shape) for shape in shapes]
        tree = TensorTree(factors, TreeConfig(*families, m=m, adaptive=True, seed=seed))
        for step in steps:
            i = step % tree.q
            tree.update_adaptive(i, rng.standard_normal(tree.factors[i].shape))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        loaded = TensorTree.load(path)
        assert (loaded.config, loaded.draws, loaded.generation) == (
            tree.config, tree.draws, tree.generation
        )
        assert loaded.specs == tree.specs
        for la, lb in zip(loaded.levels, tree.levels, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(la, lb, strict=True))
        # the next adaptive update draws the same seeds in both trees
        i = len(steps) % tree.q
        for t in (tree, loaded):
            t.update_adaptive(i, np.zeros_like(t.factors[i]))
        assert loaded.draws == tree.draws
        assert loaded.specs == tree.specs

    def test_magic_bytes(self, tmp_path):
        tree = TensorTree([np.eye(2)], TreeConfig(m=3, seed=25))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        assert path.read_bytes()[:5] == b"KTTR5"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.kttr"
        path.write_bytes(b"NOPEx" + b"\x00" * 64)
        with pytest.raises(ValueError):
            TensorTree.load(path)

    def test_kttr3_rejected(self, tmp_path):
        # a KTTR3 OSNAP leaf drew other hashes from its seed, and KTTR3/KTTR4
        # headers carry a draw counter and trail seeds, not draw indices
        tree = TensorTree([np.eye(2)], TreeConfig(m=3, seed=25))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        body = path.read_bytes()[5:]
        for magic in (b"KTTR3", b"KTTR4"):
            path.write_bytes(magic + body)
            with pytest.raises(ValueError, match="magic"):
                TensorTree.load(path)

    def test_generation_persisted(self, tmp_path):
        tree = TensorTree(random_factors(3), TreeConfig(m=5, adaptive=True, seed=27))
        tree.update_adaptive(2, np.zeros_like(tree.factors[2]))
        tree.update_adaptive(0, np.zeros_like(tree.factors[0]))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        assert TensorTree.load(path).generation == tree.generation == 2

    def _saved(self, tmp_path, q=2):
        tree = TensorTree(random_factors(q), TreeConfig(m=3, seed=28))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        return path, bytearray(path.read_bytes())

    def test_bad_family_code_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        raw[5] = 7  # base family code, first header byte after the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            TensorTree.load(path)

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_bad_adaptive_flag_rejected(self, tmp_path, flag):
        path, raw = self._saved(tmp_path)
        at = len(SNAPSHOT_MAGIC) + struct.calcsize("<BBQ")  # after the codes and m
        assert raw[at] == 0
        raw[at] = flag
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="adaptive flag"):
            TensorTree.load(path)

    @pytest.mark.parametrize("cb, tb", [(1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])
    def test_family_codes_set_every_spec(self, tmp_path, cb, tb):
        # specs are derived from the header, so none keeps the saved tree's family
        path, raw = self._saved(tmp_path, q=3)  # countsketch (0), tensorsketch (0)
        raw[5:7] = bytes([cb, tb])
        path.write_bytes(bytes(raw))
        tree = TensorTree.load(path)
        assert tree.config.c_family is list(BaseFamily)[cb]
        assert tree.config.t_family is list(TensorFamily)[tb]
        assert all(s.family is tree.config.c_family for s in tree.specs[:tree.q])
        assert all(s.family is tree.config.t_family for s in tree.specs[tree.q:])
        check_node_invariants(tree)

    def test_forged_factor_count_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        q_at = len(SNAPSHOT_MAGIC) + struct.calcsize(_HEADER) - 8
        raw[q_at:q_at + 8] = (1 << 62).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated"):
            TensorTree.load(path)

    def test_repeated_draw_index_rejected(self, tmp_path):
        # two specs under one draw index would share one seed
        tree = TensorTree(random_factors(2), TreeConfig(m=3, adaptive=True, seed=5))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        raw = bytearray(path.read_bytes())
        assert raw[-24:] == struct.pack("<3Q", 0, 1, 2)
        raw[-16:-8] = struct.pack("<Q", 0)  # leaf 1 takes leaf 0's index
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="repeated spec draw index"):
            TensorTree.load(path)

    def test_draw_index_past_64_bits_rejected(self, tmp_path):
        # the path of an update after index 2**64 - 1 would take 2**64 and 2**64 + 1,
        # which no snapshot can store
        tree = TensorTree(random_factors(2), TreeConfig(m=3, adaptive=True, seed=5))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = struct.pack("<Q", 2**64 - 1)
        path.write_bytes(bytes(raw))
        tree = TensorTree.load(path)
        before = tree_state(tree)
        with pytest.raises(ValueError, match="64 bits"):
            tree.update_adaptive(0, np.ones_like(tree.factors[0]))
        assert_same_state(before, tree_state(tree))
        tree.save(path)
        loaded = TensorTree.load(path)
        assert loaded.draws == tree.draws == [0, 1, 2**64 - 1]
        for la, lb in zip(loaded.levels, tree.levels, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(la, lb, strict=True))

    def test_next_draw_after_load_is_fresh(self, tmp_path):
        rng = np.random.default_rng(29)
        tree = TensorTree(random_factors(4, rng=rng), TreeConfig(m=4, adaptive=True, seed=29))
        for i in (3, 0, 3):
            tree.update_adaptive(i, rng.standard_normal(tree.factors[i].shape))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        loaded = TensorTree.load(path)
        stored = {s.seed for s in loaded.specs}
        assert len(stored) == 7
        loaded.update_adaptive(1, np.zeros_like(loaded.factors[1]))
        assert loaded.specs[1].seed not in stored
        assert loaded.specs[4].seed not in stored
        assert loaded.specs[6].seed not in stored

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(bytes(raw) + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            TensorTree.load(path)

    def test_zero_factors_rejected(self, tmp_path):
        path = tmp_path / "empty.kttr"
        header = struct.pack(_HEADER, 0, 0, 3, 0, 28, 0, 0)  # q = 0
        path.write_bytes(SNAPSHOT_MAGIC + header)
        with pytest.raises(DimensionError, match="at least one factor"):
            TensorTree.load(path)

    def test_truncated_rejected(self, tmp_path):
        # every strict prefix raises, allocating no more than a few file sizes
        factors = random_factors(3, rng=np.random.default_rng(26))
        tree = TensorTree(factors, TreeConfig(m=3, seed=26))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.kttr"
        tracemalloc.start()
        try:
            for end in range(len(raw)):
                cut.write_bytes(raw[:end])
                tracemalloc.reset_peak()
                with pytest.raises(ValueError):
                    TensorTree.load(cut)
                assert tracemalloc.get_traced_memory()[1] < 4 * len(raw) + (1 << 16)
        finally:
            tracemalloc.stop()


class TreeStateMachine(RuleBasedStateMachine):
    """Random mixes of updates, raising calls and snapshot round trips on one
    tree at desk scale, with the tree-state invariants checked after every step."""

    ALL_PAIRS = list(itertools.product(BaseFamily, TensorFamily))

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="kronsketch-machine-"))
        self.tree = None

    def teardown(self):
        drain()  # the helper's last draw writes to this tree
        shutil.rmtree(self.dir, ignore_errors=True)

    def saved(self) -> bytes:
        path = self.dir / "tree.kttr"
        self.tree.save(path)
        return path.read_bytes()

    def factor(self, i):
        tree = self.tree
        return tree.factors[i % tree.q]

    @initialize(
        pair=st.sampled_from(ALL_PAIRS),
        q=st.integers(1, 5),
        m=st.sampled_from([3, 4, 8]),
        equal_rows=st.booleans(),
        adaptive=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def build(self, pair, q, m, equal_rows, adaptive, seed):
        # more rows than m, so that an overflowing update can always be built
        self.rng = rng = np.random.default_rng(seed)
        rows = [m + 2] * q if equal_rows else [int(r) for r in rng.integers(m + 1, m + 5, size=q)]
        factors = [rng.standard_normal((r, int(rng.integers(1, 3)))) for r in rows]
        self.tree = TensorTree(factors, TreeConfig(*pair, m=m, adaptive=adaptive, seed=seed))
        self.generation = 0
        self.ahead = None

    @rule(i=st.integers(0, 4))
    def update(self, i):
        tree = self.tree
        tree.update(i % tree.q, self.rng.standard_normal(self.factor(i).shape))
        assert tree.recompute_counter == tree.depth + 1

    @precondition(lambda self: self.tree.config.adaptive)
    @rule(i=st.integers(0, 4))
    def update_adaptive(self, i):
        tree = self.tree
        tree.update_adaptive(i % tree.q, self.rng.standard_normal(self.factor(i).shape))
        self.generation += 1
        assert tree.recompute_counter == tree.depth + 1

    @precondition(lambda self: self.tree.config.adaptive and tree_module._usable_cpus() > 1)
    @rule(i=st.integers(0, 4), j=st.integers(0, 4))
    def updates_behind_a_busy_helper(self, i, j):
        # the first update's draw ahead waits behind another task, and the
        # second update, on one CPU, queues none: the first's draw is stale
        tree, usable_cpus = self.tree, tree_module._usable_cpus
        release = threading.Event()
        blocker = tree_module._worker.submit(release.wait, 30)
        try:
            tree.update_adaptive(i % tree.q, self.rng.standard_normal(self.factor(i).shape))
            tree_module._usable_cpus = lambda: 1
            tree.update_adaptive(j % tree.q, self.rng.standard_normal(self.factor(j).shape))
        finally:
            tree_module._usable_cpus = usable_cpus
            release.set()
            blocker.result(timeout=30)
        self.generation += 2

    @rule(i=st.integers(0, 4), kind=st.sampled_from(["shape", "nonfinite", "index", "overflow"]),
          adaptive=st.booleans())
    def raising_update(self, i, kind, adaptive):
        tree = self.tree
        B, index, error = self.rng.standard_normal(self.factor(i).shape), i % tree.q, ValueError
        if kind == "shape":
            B, error = B[:, :1].T, DimensionError
        elif kind == "nonfinite":
            B[0, -1] = np.nan
        elif kind == "index":
            index, error = tree.q + i, IndexError
        else:
            B = overflowing(tree, index, adaptive and tree.config.adaptive)
        if adaptive and not tree.config.adaptive:
            error = ConfigurationError
        drain()
        before, ahead = self.saved(), tree._next
        nodes, sides = list(tree.nodes), list(tree.sides)
        with pytest.raises(error), np.errstate(over="ignore", invalid="ignore"):
            (tree.update_adaptive if adaptive else tree.update)(index, B)
        assert self.saved() == before
        assert tree._next is ahead  # a draw ahead stays for the retry
        # the very node and side objects: nothing of the refold was committed
        for now, then in ((tree.nodes, nodes), (tree.sides, sides)):
            assert len(now) == len(then) and all(a is b for a, b in zip(now, then))

    @rule()
    def round_trip(self):
        self.saved()
        self.tree = TensorTree.load(self.dir / "tree.kttr")
        self.ahead = None

    @invariant()
    def state_is_a_snapshot_of_itself(self):
        drain()
        tree = self.tree
        self.saved()
        loaded = TensorTree.load(self.dir / "tree.kttr")
        for la, lb in zip(tree.levels, loaded.levels, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(la, lb, strict=True))
        assert len(set(tree.draws)) == len(tree.draws) == 2 * tree.q - 1
        assert tree.generation == loaded.generation == self.generation
        # the slot changes only to the next index's draw
        ahead = tree._next
        assert ahead is None or ahead is self.ahead or ahead[0] == max(tree.draws) + 1
        self.ahead = ahead

    @invariant()
    def sides_are_the_children_transforms(self):
        check_sides_exact(self.tree)


@pytest.mark.parametrize("cpus", [2, 1], ids=["helper", "one-cpu"])
def test_tree_state_machine(cpus, monkeypatch):
    monkeypatch.setattr(tree_module, "_usable_cpus", lambda: cpus)
    run_state_machine_as_test(TreeStateMachine, settings=settings(
        max_examples=150, stateful_step_count=16, derandomize=True, deadline=None,
        suppress_health_check=list(HealthCheck),
    ))
