import itertools
import os
import signal
import struct
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent import futures

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kronsketch.linalg import DimensionError, RegularizationError, SparseVector, kron, kron_chain
from kronsketch.sketches import (
    BaseFamily,
    ConfigurationError,
    TensorFamily,
    _base_internals,
    _tensor_internals,
    apply_base,
    apply_tensor_cols,
    apply_tensor_pair,
    base_columns,
    choose_m,
    materialize,
    to_frame,
)
from kronsketch import solvers
from kronsketch import tree as tree_module
from kronsketch.tree import _HEADER, SNAPSHOT_MAGIC, TensorTree, TreeConfig, _draw_seed, _fold

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


def check_node_invariants(tree, tol=1e-10):
    for i, (spec, f) in enumerate(zip(tree.leaf_specs, tree.factors)):
        assert np.allclose(tree.levels[0][i], apply_base(spec, f), atol=tol)
    for level in range(1, len(tree.levels)):
        for k in range(len(tree.levels[level])):
            spec = tree.node_specs.get((level, k))
            if spec is not None:
                expected = apply_tensor_pair(
                    spec, tree.levels[level - 1][2 * k], tree.levels[level - 1][2 * k + 1],
                    frame=level == tree.depth,
                )
                scale = max(1.0, np.abs(expected).max())
                assert np.allclose(tree.levels[level][k], expected, atol=tol * scale)
            else:
                assert np.array_equal(
                    tree.levels[level][k], tree.levels[level - 1][2 * k]
                )


def check_nodes_exact(tree):
    """Every node is bit for bit the sketch of its stored spec and children,
    the root in its frame."""
    for i, (spec, f) in enumerate(zip(tree.leaf_specs, tree.factors)):
        assert np.array_equal(tree.levels[0][i], apply_base(spec, f))
    for level in range(1, len(tree.levels)):
        for k, node in enumerate(tree.levels[level]):
            children = tree.levels[level - 1][2 * k:2 * k + 2]
            spec = tree.node_specs.get((level, k))
            if spec is None:
                expected = children[0]
            else:
                expected = apply_tensor_pair(spec, *children, frame=level == tree.depth)
            assert np.array_equal(node, expected)


def tree_state(tree):
    """Everything an update may change, copied, plus the next adaptive seed."""
    return (
        [f.copy() for f in tree.factors],
        [[node.copy() for node in level] for level in tree.levels],
        list(tree.leaf_specs),
        dict(tree.node_specs),
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
        assert np.array_equal(tree.root, apply_base(tree.leaf_specs[0], A))
        assert tree.depth == 0

    def test_two_factor_root_brute_force(self):
        cfg = TreeConfig(m=6, seed=2)
        tree = TensorTree([np.eye(2), np.eye(2)], cfg)
        C1 = materialize(tree.leaf_specs[0])
        C2 = materialize(tree.leaf_specs[1])
        T = materialize(tree.node_specs[(1, 0)])
        expected = to_frame(tree.node_specs[1, 0], T @ kron(C1, C2))
        assert np.allclose(tree.root, expected, atol=1e-10)

    def test_root_shape(self):
        factors = [RNG.standard_normal((4, d)) for d in (2, 3, 1, 2)]
        tree = TensorTree(factors, TreeConfig(m=7, seed=3))
        assert tree.root.shape == (7, 2 * 3 * 1 * 2)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8])
    def test_invariants_after_init(self, q):
        tree = TensorTree(random_factors(q), TreeConfig(m=9, seed=q))
        check_node_invariants(tree)

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
        assert [s.seed for s in tree.leaf_specs] == [_draw_seed(30, k) for k in range(5)]
        assert tree.node_specs[3, 0].seed == _draw_seed(30, 8)


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
        seeds = {tree.leaf_specs[2].seed}
        for _ in range(3):
            tree.update_adaptive(2, np.zeros_like(factors[2]))
            seeds.add(tree.leaf_specs[2].seed)
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
        leaf = weakref.ref(_base_internals(tree.leaf_specs[1])[0])
        node = weakref.ref(_tensor_internals(tree.node_specs[1, 0])[1])
        kept = _base_internals(tree.leaf_specs[0])[0]
        tree.update_adaptive(1, np.zeros_like(tree.factors[1]))
        assert leaf() is None and node() is None
        assert _base_internals(tree.leaf_specs[0])[0] is kept  # off the path

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
        spec = tree.leaf_specs[i]
        if tree.config.adaptive:
            spec = tree._leaf_spec(spec.input_dim, max(tree.draws) + 1)
        signs = base_columns(spec, np.arange(spec.input_dim))
        if case == "big":
            # m = 8, q = 3, i = 1: leaf 1 is the right side of node (1, 0),
            # whose count sketch of it keeps every row one-hot; the sum is
            # the DC bin of that side's rfft
            node = tree.node_specs[1, 0]
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
        before, ahead = tree_state(tree), tree._ahead
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            (tree.update_adaptive if adaptive else tree.update)(i, B)
        assert_same_state(before, tree_state(tree))
        assert tree._ahead is ahead  # a pending draw stays for the retry
        # the tree still works: a finite update lands as usual
        tree.update(i, rng.standard_normal((2, 2)))
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
        R = tree.root
        spec = tree.node_specs.get((tree.depth, 0))
        M = R if spec is None else apply_tensor_pair(spec, *tree.levels[-2])
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
        root = pair_nodes(tree.node_specs[2, 0], *tree.levels[1], frame=True)
        assert np.array_equal(tree.root, root)


def folded_label(tree, sv):
    """Reference label sketch: every nonzero's base columns folded up the tree at once."""
    digits = np.unravel_index(sv.indices, [f.shape[0] for f in tree.factors])
    mats = [base_columns(spec, d) for spec, d in zip(tree.leaf_specs, digits)]
    for mats in _fold(mats, lambda key, l, r: apply_tensor_cols(tree.node_specs[key], l, r)):
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
        expected = tree.materialize_sketch() @ sv.to_dense()
        assert np.allclose(tree.sketch_vector(sv), expected, atol=1e-10)

    def test_label_across_chunks(self):
        # m = 2048 folds 16 nonzeros per chunk: six full chunks and one of 4
        rng = np.random.default_rng(25)
        factors = [rng.standard_normal((6, 1)) for _ in range(3)]
        tree = TensorTree(factors, self.config(2048, 25))
        idx = rng.integers(0, 6**3, size=100)
        idx[50:60] = idx[:10]  # repeats, in other chunks than their first use
        sv = SparseVector(6**3, idx, rng.standard_normal(100))
        expected = tree.materialize_sketch() @ sv.to_dense()
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


class TestLabelLanes:
    """A folded label's chunks are shared by the calling thread and one worker thread."""

    M = 4096  # 2**15 // m = 8 nonzeros per chunk

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
    def wait_for_worker(monkeypatch):
        """An event set once the worker sketches a chunk; until then, and for
        at most 30 s, the calling thread waits in its first chunk, so the
        worker is sure to take one when it can."""
        seen = threading.Event()

        def gated(spec, rows):
            if on_worker():
                seen.set()
            else:
                seen.wait(timeout=30)
            return base_columns(spec, rows)

        monkeypatch.setattr(tree_module, "base_columns", gated)
        return seen

    @pytest.mark.parametrize("pair", FOLDED_PAIRS, ids=lambda p: "-".join(f.value for f in p))
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_bit_identical_at_one_and_two_lanes(self, pair, q, monkeypatch):
        tree, rng = self.label_tree(pair, q, 40 + q)
        n = 5**q
        # a lone CountSketch leaf is one-hot: its labels take the bincount path
        folded = not (q == 1 and pair[0] is BaseFamily.COUNT_SKETCH)
        # none, one nonzero, exactly one chunk, one chunk + 1, and five chunks
        for nnz in (0, 1, 8, 9, 35):
            sv = SparseVector(n, rng.integers(0, n, size=nnz), rng.standard_normal(nnz))
            monkeypatch.setattr(tree_module, "_LANES", 1)
            serial = tree.sketch_vector(sv)
            monkeypatch.setattr(tree_module, "_LANES", 2)
            if folded and nnz > 8:
                seen = self.wait_for_worker(monkeypatch)
            assert np.array_equal(tree.sketch_vector(sv), serial)
            if folded and nnz > 8:
                assert seen.is_set()
                monkeypatch.setattr(tree_module, "base_columns", base_columns)
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
        seen = self.wait_for_worker(monkeypatch)
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


class InlineWorker:
    """Stands in for the helper thread's executor: runs each task at submit."""

    @staticmethod
    def submit(fn, *args):
        future = futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


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
                ahead = tree._ahead
                error = {"shape": DimensionError, "nonfinite": ValueError,
                         "index": IndexError}[kind]
                with pytest.raises(error):
                    tree.update_adaptive(i, B)
                assert tree._ahead is ahead  # kept for the retry
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
        assert tree._ahead is None  # nothing is drawn ahead at build
        helper = self.snapshot(self.drive(tree, ops), tmp_path / "helper.kttr")
        assert tree._ahead is not None
        with monkeypatch.context() as patch:
            patch.setattr(tree_module, "_worker", InlineWorker)
            tree = TensorTree(factors, config)
            for op in ops:  # each drawn-ahead spec is the one the update takes
                ahead = tree._ahead
                self.drive(tree, [op])
                if ahead is not None and op[0] == "adaptive":
                    leaf, nodes = ahead[2].result()
                    assert (tree.leaf_specs[op[1]] is leaf) == (len(set(rows)) == 1)
                    assert set(map(id, nodes)) >= {
                        id(s) for key, s in tree.node_specs.items() if op[1] >> key[0] == key[1]}
            inline = self.snapshot(tree, tmp_path / "inline.kttr")
        with monkeypatch.context() as patch:
            patch.setattr(tree_module, "_usable_cpus", lambda: 1)
            tree = self.drive(TensorTree(factors, config), ops)
            assert tree._ahead is None
            alone = self.snapshot(tree, tmp_path / "alone.kttr")
        assert helper == inline == alone
        loaded = TensorTree.load(tmp_path / "helper.kttr")
        assert loaded._ahead is None  # nor at load

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

        def failing(self, *args):
            if on_worker():
                raise FloatingPointError("draw failed")
            return path_specs(self, *args)

        monkeypatch.setattr(TensorTree, "_path_specs", failing)
        tree = self.drive(TensorTree(factors, config), ops[:1])
        future = tree._ahead[2]
        assert isinstance(future.exception(timeout=30), FloatingPointError)
        self.drive(tree, ops[1:])
        check_nodes_exact(tree)
        assert tree.draws == expected.draws
        for la, lb in zip(tree.levels, expected.levels, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(la, lb, strict=True))

    def test_queued_draw_is_cancelled_and_drawn_inline(self, monkeypatch):
        factors, config, ops = self.small_case(61)
        expected = self.reference(monkeypatch, factors, config, ops)
        tree = TensorTree(factors, config)
        release = threading.Event()
        blocker = tree_module._worker.submit(release.wait, 30)  # holds the helper thread
        try:
            self.drive(tree, ops[:2])  # the second update finds its draw queued
            future = tree._ahead[2]
            self.drive(tree, ops[2:])
            assert future.cancelled()
        finally:
            release.set()
            blocker.result(timeout=30)
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
        assert tree._ahead is None
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
            tree._ahead[2].result(timeout=30)


class TestMaterializeSketch:
    def test_single_factor(self):
        A = RNG.standard_normal((5, 2))
        tree = TensorTree([A], TreeConfig(m=4, seed=20))
        assert np.array_equal(tree.materialize_sketch(), materialize(tree.leaf_specs[0]))

    @pytest.mark.parametrize("q", [2, 3])
    def test_sketch_times_chain_equals_root(self, q):
        rng = np.random.default_rng(21 + q)
        factors = [rng.standard_normal((4, 2)) for _ in range(q)]
        tree = TensorTree(factors, TreeConfig(m=9, seed=21 + q))
        sketched = tree.materialize_sketch() @ kron_chain(factors)
        lhs = to_frame(tree.node_specs[tree.depth, 0], sketched)  # the root's frame
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
        assert loaded.leaf_specs == tree.leaf_specs
        assert loaded.node_specs == tree.node_specs
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
        assert loaded.leaf_specs == tree.leaf_specs
        # the draw indices continue where the saved tree stopped
        loaded.update_adaptive(0, np.zeros_like(loaded.factors[0]))
        tree.update_adaptive(0, np.zeros_like(tree.factors[0]))
        assert loaded.leaf_specs[0].seed == tree.leaf_specs[0].seed

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
        assert (loaded.leaf_specs, loaded.node_specs) == (tree.leaf_specs, tree.node_specs)
        for la, lb in zip(loaded.levels, tree.levels, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(la, lb, strict=True))
        # the next adaptive update draws the same seeds in both trees
        i = len(steps) % tree.q
        for t in (tree, loaded):
            t.update_adaptive(i, np.zeros_like(t.factors[i]))
        assert loaded.draws == tree.draws
        assert (loaded.leaf_specs, loaded.node_specs) == (tree.leaf_specs, tree.node_specs)

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
        assert all(s.family is tree.config.c_family for s in tree.leaf_specs)
        assert all(s.family is tree.config.t_family for s in tree.node_specs.values())
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
        stored = {s.seed for s in [*loaded.leaf_specs, *loaded.node_specs.values()]}
        assert len(stored) == 7
        loaded.update_adaptive(1, np.zeros_like(loaded.factors[1]))
        assert loaded.leaf_specs[1].seed not in stored
        assert loaded.node_specs[1, 0].seed not in stored
        assert loaded.node_specs[2, 0].seed not in stored

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
