import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronsketch.linalg import DimensionError, SparseVector, kron, kron_chain
from kronsketch.sketches import (
    BaseFamily,
    ConfigurationError,
    TensorFamily,
    apply_base,
    apply_tensor_pair,
    choose_m,
    materialize,
)
from kronsketch.tree import TensorTree, TreeConfig

RNG = np.random.default_rng(314)


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
                    spec, tree.levels[level - 1][2 * k], tree.levels[level - 1][2 * k + 1]
                )
                scale = max(1.0, np.abs(expected).max())
                assert np.allclose(tree.levels[level][k], expected, atol=tol * scale)
            else:
                assert np.array_equal(
                    tree.levels[level][k], tree.levels[level - 1][2 * k]
                )


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
        expected = (T @ kron(C1, C2)).reshape(6, 4)
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

    def test_column_blowup_rejected(self):
        factors = [np.ones((2, 64)) for _ in range(8)]  # d = 64^8
        with pytest.raises(DimensionError):
            TensorTree(factors, TreeConfig(m=4))

    def test_deterministic_given_seed(self):
        factors = random_factors(3)
        a = TensorTree(factors, TreeConfig(m=8, seed=11))
        b = TensorTree(factors, TreeConfig(m=8, seed=11))
        assert node_errors(a, b) == 0.0


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

    def test_off_path_nodes_untouched(self):
        factors = [RNG.standard_normal((4, 2)) for _ in range(4)]
        tree = TensorTree(factors, TreeConfig(m=6, adaptive=True, seed=14))
        other_leaf = tree.levels[0][3].copy()
        other_pair = tree.levels[1][1].copy()
        tree.update_adaptive(0, np.zeros((4, 2)))
        assert np.array_equal(tree.levels[0][3], other_leaf)
        assert np.array_equal(tree.levels[1][1], other_pair)
        assert tree.generation == 1


class TestSketchVector:
    def test_zero_vector(self):
        tree = TensorTree(random_factors(3), TreeConfig(m=6, seed=15))
        n = int(np.prod([f.shape[0] for f in tree.factors]))
        out = tree.sketch_vector(SparseVector(n, [], []))
        assert np.array_equal(out, np.zeros(6))

    def test_kron_structured_vector_hits_root(self):
        rng = np.random.default_rng(16)
        factors = [rng.standard_normal((5, 2)) for _ in range(3)]
        tree = TensorTree(factors, TreeConfig(m=10, seed=16))
        xs = [rng.standard_normal(2) for _ in range(3)]
        b = kron_chain([f @ x.reshape(-1, 1) for f, x in zip(factors, xs)]).ravel()
        x_full = kron_chain([x.reshape(-1, 1) for x in xs]).ravel()
        expected = tree.root @ x_full
        got = tree.sketch_vector(b)
        assert np.allclose(got, expected, atol=1e-8 * max(1.0, np.abs(expected).max()))

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_matches_materialized_sketch(self, q):
        rng = np.random.default_rng(17 + q)
        factors = [rng.standard_normal((3, 2)) for _ in range(q)]
        tree = TensorTree(factors, TreeConfig(m=7, seed=17 + q))
        n = 3**q
        idx = rng.choice(n, size=min(n, 5), replace=False)
        sv = SparseVector(n, idx, rng.standard_normal(idx.size))
        expected = tree.materialize_sketch() @ sv.to_dense()
        assert np.allclose(tree.sketch_vector(sv), expected, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(18)
        factors = [rng.standard_normal((4, 2)) for _ in range(2)]
        tree = TensorTree(factors, TreeConfig(m=8, seed=18))
        b1 = rng.standard_normal(16)
        b2 = rng.standard_normal(16)
        lhs = tree.sketch_vector(2.5 * b1 + b2)
        rhs = 2.5 * tree.sketch_vector(b1) + tree.sketch_vector(b2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_index_out_of_range(self):
        tree = TensorTree([np.eye(2), np.eye(2)], TreeConfig(m=4, seed=19))
        with pytest.raises(IndexError):
            tree.sketch_vector(SparseVector(4, [4], [1.0]))


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
        lhs = tree.materialize_sketch() @ kron_chain(factors)
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
        # the spec stream continues where the saved tree stopped
        loaded.update_adaptive(0, np.zeros_like(loaded.factors[0]))
        tree.update_adaptive(0, np.zeros_like(tree.factors[0]))
        assert loaded.leaf_specs[0].seed == tree.leaf_specs[0].seed

    def test_magic_bytes(self, tmp_path):
        tree = TensorTree([np.eye(2)], TreeConfig(m=3, seed=25))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        assert path.read_bytes()[:5] == b"KTTR2"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.kttr"
        path.write_bytes(b"NOPEx" + b"\x00" * 64)
        with pytest.raises(ValueError):
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

    def test_node_key_mismatch_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        # the one node record (level, k, family, side, out, seed) ends the file
        raw[-41:-33] = (2).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="node specs"):
            TensorTree.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(bytes(raw) + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            TensorTree.load(path)

    def test_truncated_rejected(self, tmp_path):
        tree = TensorTree([np.eye(2)], TreeConfig(m=3, seed=26))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        (tmp_path / "cut.kttr").write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ValueError):
            TensorTree.load(tmp_path / "cut.kttr")
