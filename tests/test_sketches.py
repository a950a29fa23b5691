import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from kronsketch.linalg import DimensionError, kron
from kronsketch.sketches import (
    BaseFamily,
    BaseSketchSpec,
    ConfigurationError,
    HashColumns,
    TensorFamily,
    TensorSketchSpec,
    _base_internals,
    _distinct_rows,
    _hash_matrix,
    _hash_slots,
    _tensor_internals,
    _tensor_side,
    apply_base,
    apply_tensor_cols,
    apply_tensor_pair,
    base_columns,
    choose_m,
    countsketch_columns,
    hash_columns,
    tensorsketch_cols,
)
from sketch_oracles import materialize

RNG = np.random.default_rng(77)

BASE_SPECS = [
    BaseSketchSpec(BaseFamily.COUNT_SKETCH, 6, 5, 0, 11),
    BaseSketchSpec(BaseFamily.OSNAP, 6, 5, 3, 12),
    BaseSketchSpec(BaseFamily.SRHT, 6, 5, 0, 13),
    # output dimension above the input dimension
    BaseSketchSpec(BaseFamily.COUNT_SKETCH, 3, 8, 0, 14),
    BaseSketchSpec(BaseFamily.OSNAP, 3, 8, 8, 15),
    BaseSketchSpec(BaseFamily.SRHT, 3, 8, 0, 16),
]

TENSOR_SPECS = [
    TensorSketchSpec(TensorFamily.TENSOR_SKETCH, 5, 7, 21),
    TensorSketchSpec(TensorFamily.TENSOR_SRHT, 5, 7, 22),
    TensorSketchSpec(TensorFamily.TENSOR_SKETCH, 8, 4, 23),
    TensorSketchSpec(TensorFamily.TENSOR_SRHT, 8, 4, 24),
]


class TestSpecValidation:
    def test_osnap_needs_sparsity(self):
        with pytest.raises(ConfigurationError):
            BaseSketchSpec(BaseFamily.OSNAP, 4, 4, 0, 0)
        with pytest.raises(ConfigurationError):
            BaseSketchSpec(BaseFamily.OSNAP, 4, 4, 5, 0)

    def test_sparsity_only_for_osnap(self):
        with pytest.raises(ConfigurationError):
            BaseSketchSpec(BaseFamily.COUNT_SKETCH, 4, 4, 2, 0)

    def test_string_families_accepted(self):
        spec = BaseSketchSpec("srht", 4, 4, 0, 0)
        assert spec.family is BaseFamily.SRHT


class TestDeterminism:
    @pytest.mark.parametrize("spec", BASE_SPECS + TENSOR_SPECS)
    def test_materialize_bit_identical(self, spec):
        first = materialize(spec)
        again = materialize(type(spec)(**{
            f: getattr(spec, f) for f in spec.__dataclass_fields__
        }))
        assert np.array_equal(first, again)


class TestCountSketch:
    def test_column_structure(self):
        Z = materialize(BaseSketchSpec(BaseFamily.COUNT_SKETCH, 10, 4, 0, 3))
        nonzeros = np.count_nonzero(Z, axis=0)
        assert np.array_equal(nonzeros, np.ones(10))
        assert set(np.abs(Z[Z != 0])) == {1.0}

    def test_injected_hashes(self):
        # both coordinates hash to output row 0 with opposite signs
        h = np.array([[0], [0]])
        sign = np.array([[1.0], [-1.0]])
        out = _hash_matrix(h, sign, 3) @ np.eye(2)
        assert np.array_equal(out, [[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])

    def test_zero_matrix(self):
        spec = BaseSketchSpec(BaseFamily.COUNT_SKETCH, 5, 4, 0, 1)
        assert np.array_equal(apply_base(spec, np.zeros((5, 2))), np.zeros((4, 2)))


def _distinct_rows_reference(rng, n, m, s):
    """Floyd's algorithm with the collision test reduced along each row's
    earlier columns: the draw that ``_distinct_rows`` must reproduce."""
    rows = np.empty((n, s), dtype=np.int64)
    for k, j in enumerate(range(m - s, m)):
        t = rng.integers(0, j + 1, size=n)
        rows[:, k] = np.where((rows[:, :k] == t[:, None]).any(axis=1), j, t)
    return rows


class TestOsnap:
    @pytest.mark.parametrize(
        "n, m, s",
        [(1, 1, 1), (1, 7, 3), (1, 6, 6), (50, 9, 1), (50, 9, 9), (300, 16, 5),
         (4096, 1024, 8)],
    )
    def test_draw_matches_reference(self, n, m, s):
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = _distinct_rows(rng, n, m, s)
            assert np.array_equal(rows, _distinct_rows_reference(ref_rng, n, m, s))
            assert rows.flags.c_contiguous and rows.shape == (n, s)
            # the generator is left where the reference leaves it
            assert rng.integers(0, 1 << 62) == ref_rng.integers(0, 1 << 62)

    def test_exactly_s_nonzeros_per_column(self):
        spec = BaseSketchSpec(BaseFamily.OSNAP, 7, 9, 4, 5)
        Z = materialize(spec)
        assert np.array_equal(np.count_nonzero(Z, axis=0), np.full(7, 4))
        vals = np.abs(Z[Z != 0])
        assert np.allclose(vals, 1 / math.sqrt(4))

    def test_full_sparsity_unit_columns(self):
        spec = BaseSketchSpec(BaseFamily.OSNAP, 4, 6, 6, 8)
        out = apply_base(spec, np.eye(4))
        assert np.count_nonzero(out[:, 0]) == 6
        assert math.isclose(np.linalg.norm(out[:, 0]), 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("m, s", [(1, 1), (5, 5), (9, 4), (1024, 8)])
    def test_rows_distinct_and_in_range(self, m, s):
        rows, _ = _hash_slots(*_base_internals(BaseSketchSpec(BaseFamily.OSNAP, 3000, m, s, m + s)))
        assert rows.shape == (3000, s)
        assert rows.min() >= 0 and rows.max() < m
        assert np.all(np.diff(np.sort(rows, axis=1), axis=1) > 0)

    def test_subsets_uniform(self):
        n = 20000
        rows, _ = _hash_slots(*_base_internals(BaseSketchSpec(BaseFamily.OSNAP, n, 5, 2, 31)))
        low, high = np.sort(rows, axis=1).T
        _, counts = np.unique(low * 5 + high, return_counts=True)
        assert counts.size == 10  # every 2-subset of range(5) occurs
        assert np.all(np.abs(counts - n / 10) <= 0.05 * n / 10)

    def test_countsketch_is_one_row_draw(self):
        # s = 1 keeps the CountSketch draw: one integers(0, m) per row, then signs
        rows, sign = _hash_slots(*_base_internals(BaseSketchSpec(BaseFamily.COUNT_SKETCH, 40, 7, 0, 9)))
        rng = np.random.default_rng(9)
        assert np.array_equal(rows, rng.integers(0, 7, size=(40, 1)))
        assert np.array_equal(sign, rng.integers(0, 2, size=(40, 1)) * 2.0 - 1.0)


class TestInternalsOwnership:
    @pytest.mark.parametrize("spec", BASE_SPECS + TENSOR_SPECS)
    def test_drawn_once_and_read_only(self, spec):
        spec = type(spec)(**{f: getattr(spec, f) for f in spec.__dataclass_fields__})
        internals = _base_internals if isinstance(spec, BaseSketchSpec) else _tensor_internals
        first = internals(spec)
        assert internals(spec) is first
        hashing = spec.family not in (BaseFamily.SRHT, TensorFamily.TENSOR_SRHT)
        matrices = [a for a in first if isinstance(a, sparse.csc_array)]
        assert len(matrices) == hashing * (1 + isinstance(spec, TensorSketchSpec))
        arrays = [a for a in first if isinstance(a, np.ndarray)]
        arrays += [a for S in matrices for a in (S.data, S.indices, S.indptr)]
        assert arrays and not any(a.flags.writeable for a in arrays)

    def test_hashes_die_with_spec(self):
        spec = BaseSketchSpec(BaseFamily.OSNAP, 50, 9, 3, 6)
        hashes = weakref.ref(_base_internals(spec)[0].indices)
        matrix = weakref.ref(_base_internals(spec)[0])
        assert hashes() is not None and matrix() is not None
        del spec
        assert hashes() is None and matrix() is None

    def test_concurrent_first_use_draws_identically(self):
        reference = _base_internals(BaseSketchSpec(BaseFamily.OSNAP, 400, 16, 4, 8))
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                spec = BaseSketchSpec(BaseFamily.OSNAP, 400, 16, 4, 8)
                threads = [
                    threading.Thread(target=lambda: results.append(_base_internals(spec)))
                    for _ in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert any(_base_internals(spec) is r for r in results[-6:])
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 30
        for (S,) in results:
            assert np.array_equal(S.indices, reference[0].indices)
            assert np.array_equal(S.data, reference[0].data)

    def test_tensor_internals_die_with_spec(self):
        spec = TensorSketchSpec(TensorFamily.TENSOR_SRHT, 5, 7, 22)
        rows = weakref.ref(_tensor_internals(spec)[3])
        del spec
        assert rows() is None


def _add_at_apply(rows, sign, A, m):
    """Reference hashing apply: scatter sign[j, k] * A[j] into row rows[j, k] with
    np.add.at, one pass per k, then scale the sums by 1/sqrt(s)."""
    s = rows.shape[1]
    out = np.zeros((m, A.shape[1]))
    for k in range(s):
        np.add.at(out, rows[:, k], sign[:, k][:, None] * A)
    if s > 1:
        out /= math.sqrt(s)
    return out


class TestHashApply:
    """The sparse product against the scatter it replaced.

    Small m against up to 12 inputs makes hash rows collide. With s = 1 each
    output row sums its terms in the scatter's order, so the product is bit
    for bit the scatter; with s > 1 the terms are scaled before they are
    summed, which moves the result by rounding only.
    """

    @given(
        st.integers(1, 12), st.integers(1, 6), st.integers(0, 6), st.integers(0, 5),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_base_matches_scatter(self, n, m, s, d, seed):
        s = min(s, m)
        family = BaseFamily.OSNAP if s else BaseFamily.COUNT_SKETCH
        spec = BaseSketchSpec(family, n, m, s, seed)
        rows, vals = _hash_slots(*_base_internals(spec))
        sign = np.sign(vals)
        A = np.random.default_rng(seed).standard_normal((n, d))
        out, expected = apply_base(spec, A), _add_at_apply(rows, sign, A, m)
        assert out.shape == (m, d)
        if rows.shape[1] == 1:
            assert np.array_equal(out, expected)
        else:
            assert np.all(np.abs(out - expected) <= 1e-15 * np.abs(A).sum())

    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 5), st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_tensorsketch_sides_match_scatter(self, side, m, d, seed):
        spec = TensorSketchSpec(TensorFamily.TENSOR_SKETCH, side, m, seed)
        U = np.random.default_rng(seed).standard_normal((side, d))
        for k, (h, sign) in enumerate(map(_hash_slots, _tensor_internals(spec))):
            expected = np.fft.rfft(_add_at_apply(h, sign, U, m), axis=0)
            assert np.array_equal(_tensor_side(spec, U, k), expected)

    def test_matrix_layout(self):
        rows = np.array([[2, 0], [1, 2], [0, 1]])
        sign = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
        S = _hash_matrix(rows, sign, 3)
        assert S.shape == (3, 3) and S.format == "csc"
        assert np.array_equal(S.indptr, [0, 2, 4, 6])
        assert np.array_equal(S.indices, rows.ravel())
        assert np.array_equal(S.toarray(), _add_at_apply(rows, sign, np.eye(3), 3))


class TestOneHotColumns:
    def test_countsketch_columns_are_base_columns(self):
        spec = BaseSketchSpec(BaseFamily.COUNT_SKETCH, 9, 4, 0, 5)
        idx = np.array([3, 0, 8, 3])
        rows, signs = countsketch_columns(spec, idx)
        expected = np.zeros((4, idx.size))
        expected[rows, np.arange(idx.size)] = signs
        assert np.array_equal(base_columns(spec, idx), expected)

    @pytest.mark.parametrize("spec", [BASE_SPECS[1], BASE_SPECS[2], TENSOR_SPECS[1]])
    def test_other_families_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            if isinstance(spec, BaseSketchSpec):
                countsketch_columns(spec, [0])
            else:
                one = (np.zeros(1, dtype=np.int64), np.ones(1))
                tensorsketch_cols(spec, one, one)


class TestSrht:
    def test_structure_power_of_two(self):
        # with n = padded dim and no padding every entry is +-1/sqrt(m)
        spec = BaseSketchSpec(BaseFamily.SRHT, 8, 4, 0, 9)
        Z = materialize(spec)
        assert np.allclose(np.abs(Z), 1 / math.sqrt(4))

    def test_scale_formula(self):
        # sqrt(n/b) * (sampled rows of normalized Hadamard) * diagonal signs
        spec = BaseSketchSpec(BaseFamily.SRHT, 8, 4, 0, 9)
        padded, dsign, rows = _base_internals(spec)
        assert padded == 8
        H = np.array([[1.0]])
        while H.shape[0] < 8:
            H = np.block([[H, H], [H, -H]])
        expected = math.sqrt(8 / 4) * (H / math.sqrt(8))[rows] * dsign[None, :]
        assert np.allclose(materialize(spec), expected, atol=1e-12)

    def test_distinct_sample_rows(self):
        spec = BaseSketchSpec(BaseFamily.SRHT, 4, 16, 0, 2)
        padded, _, rows = _base_internals(spec)
        assert padded == 16
        assert len(set(rows.tolist())) == 16


class TestApplyAgainstMaterialize:
    @pytest.mark.parametrize("spec", BASE_SPECS)
    def test_base(self, spec):
        A = RNG.standard_normal((spec.input_dim, 3))
        expected = materialize(spec) @ A
        assert np.allclose(apply_base(spec, A), expected, atol=1e-10)

    @pytest.mark.parametrize("spec", BASE_SPECS)
    def test_columns(self, spec):
        Z = materialize(spec)
        cols = base_columns(spec, range(spec.input_dim))
        assert np.allclose(cols, Z, atol=1e-12)

    @pytest.mark.parametrize("spec", TENSOR_SPECS)
    def test_tensor_pair(self, spec):
        J1 = RNG.standard_normal((spec.side_dim, 3))
        J2 = RNG.standard_normal((spec.side_dim, 2))
        out = apply_tensor_pair(spec, J1, J2)
        Z = materialize(spec)
        expected = np.column_stack(
            [Z @ kron(J1[:, [a]], J2[:, [b]]).ravel() for a in range(3) for b in range(2)]
        )
        assert np.allclose(out, expected, atol=1e-10)

    @pytest.mark.parametrize("frame", [False, True])
    @pytest.mark.parametrize("spec", TENSOR_SPECS)
    def test_tensor_pair_kept_sides(self, spec, frame):
        J1 = RNG.standard_normal((spec.side_dim, 3))
        J2 = RNG.standard_normal((spec.side_dim, 2))
        out = apply_tensor_pair(spec, J1, J2, frame=frame)
        # computed sides are handed back, bit for bit each input's transform
        sides = [None, None]
        assert np.array_equal(apply_tensor_pair(spec, J1, J2, frame=frame, sides=sides), out)
        for k, J in enumerate((J1, J2)):
            assert np.array_equal(sides[k], _tensor_side(spec, J, k))
        # a kept side is used as given: its input is not transformed again
        for k in (0, 1):
            kept = [None, None]
            kept[k] = sides[k]
            assert np.array_equal(apply_tensor_pair(spec, J1, J2, frame=frame, sides=kept), out)
            assert kept[k] is sides[k] and np.array_equal(kept[1 - k], sides[1 - k])
            kept[1 - k] = None
            wrong = apply_tensor_pair(spec, 2 * J1, 2 * J2, frame=frame, sides=kept)
            assert np.allclose(wrong, 2 * out, atol=1e-10)  # only the other side doubled

    @pytest.mark.parametrize("p", [1, 2, 8, 32, 64, 1000, 1024])
    def test_tsrht_side_column_independent_of_width(self, p):
        # the matched-column and pair combines see a column with different
        # neighbours, so a side's column must not depend on them; nor may a
        # hashing leaf's column in a label chunk
        spec = TensorSketchSpec(TensorFamily.TENSOR_SRHT, p, 16, 25)
        U = RNG.standard_normal((p, 80))
        H = hash_columns(BaseSketchSpec(BaseFamily.OSNAP, 50, p, min(p, 8), 26),
                         RNG.integers(0, 50, size=80))
        for k in (0, 1):
            wide, wide_h = _tensor_side(spec, U, k), _tensor_side(spec, H, k)
            for c in range(1, 81):
                assert np.array_equal(_tensor_side(spec, U[:, :c], k), wide[:, :c]), (k, c)
                first = H._replace(rows=H.rows[:c], signs=H.signs[:c])
                assert np.array_equal(_tensor_side(spec, first, k), wide_h[:, :c]), (k, c)

    @pytest.mark.parametrize("spec", TENSOR_SPECS)
    def test_tensor_cols(self, spec):
        U1 = RNG.standard_normal((spec.side_dim, 4))
        U2 = RNG.standard_normal((spec.side_dim, 4))
        out = apply_tensor_cols(spec, U1, U2)
        Z = materialize(spec)
        expected = np.column_stack(
            [Z @ kron(U1[:, [t]], U2[:, [t]]).ravel() for t in range(4)]
        )
        assert np.allclose(out, expected, atol=1e-10)
        # the matched-column combine is the pair combine's diagonal, bit for bit
        for t in range(4):
            pair = apply_tensor_pair(spec, U1[:, [t]], U2[:, [t]])
            assert np.array_equal(out[:, [t]], pair)

    @pytest.mark.parametrize("spec", [TENSOR_SPECS[1], TENSOR_SPECS[3]])
    @pytest.mark.parametrize("family, s", [(BaseFamily.COUNT_SKETCH, 0), (BaseFamily.OSNAP, 3)])
    def test_tensor_cols_of_hash_columns(self, spec, family, s):
        leaf = BaseSketchSpec(family, 9, spec.side_dim, s, 27)
        a, b = RNG.integers(0, 9, size=(2, 5))
        A, B = base_columns(leaf, a), base_columns(leaf, b)
        kron_cols = np.column_stack([np.kron(A[:, t], B[:, t]) for t in range(5)])
        expected = materialize(spec) @ kron_cols
        # either side, or both, may be given as rows and signs
        for U1, U2 in [(hash_columns(leaf, a), hash_columns(leaf, b)),
                       (A, hash_columns(leaf, b)), (hash_columns(leaf, a), B)]:
            assert np.allclose(apply_tensor_cols(spec, U1, U2), expected, atol=1e-10)

    def test_base_dimension_mismatch(self):
        spec = BASE_SPECS[0]
        with pytest.raises(DimensionError):
            apply_base(spec, np.zeros((spec.input_dim + 1, 2)))

    def test_tensor_dimension_mismatch(self):
        spec = TENSOR_SPECS[0]
        with pytest.raises(DimensionError):
            apply_tensor_pair(spec, np.zeros((spec.side_dim, 1)), np.zeros((2, 1)))


class TestHashSide:
    """TensorSRHT sides of hashing leaf columns given as rows and signs."""

    @pytest.mark.parametrize("m", [512, 1000, 1024, 2048, 4096])
    @pytest.mark.parametrize("s", [1, 2, 3, 8])
    def test_matches_dense_side(self, m, s):
        # a CountSketch (s = 1) side is exact either way; an OSNAP dense side
        # sums s terms of +-1/sqrt(s) in BLAS order, the Kronecker side rounds
        # each exact integer sum times 1/sqrt(s) once
        family = BaseFamily.COUNT_SKETCH if s == 1 else BaseFamily.OSNAP
        leaf = BaseSketchSpec(family, 40, m, s if s > 1 else 0, m + s)
        node = TensorSketchSpec(TensorFamily.TENSOR_SRHT, m, m, m - s)
        idx = np.r_[RNG.integers(0, 40, size=30), 7, 7, 7]
        for cols in (idx, idx[:0], idx[:1]):
            for k in (0, 1):
                got = _tensor_side(node, hash_columns(leaf, cols), k)
                want = _tensor_side(node, base_columns(leaf, cols), k)
                assert got.shape == want.shape == (m, cols.size)
                assert got.flags.c_contiguous
                if s == 1:
                    assert np.array_equal(got, want)
                else:
                    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    def test_column_alone_equals_column_in_wide_call(self):
        leaf = BaseSketchSpec(BaseFamily.OSNAP, 100, 1000, 8, 3)
        node = TensorSketchSpec(TensorFamily.TENSOR_SRHT, 1000, 1000, 4)
        a, b = RNG.integers(0, 100, size=(2, 64))
        wide = apply_tensor_cols(node, hash_columns(leaf, a), hash_columns(leaf, b))
        for t in range(64):
            one = apply_tensor_cols(
                node, hash_columns(leaf, a[t:t + 1]), hash_columns(leaf, b[t:t + 1]))
            assert np.array_equal(one, wide[:, t:t + 1]), t

    def test_columns_are_base_columns(self):
        spec = BaseSketchSpec(BaseFamily.OSNAP, 9, 6, 3, 5)
        idx = np.array([3, 0, 8, 3])
        H = hash_columns(spec, idx)
        assert H.shape == (6, 4) and H.rows.shape == H.signs.shape == (4, 3)
        dense = np.zeros(H.shape)
        dense[H.rows.ravel(), np.repeat(np.arange(4), 3)] = H.signs.ravel() / math.sqrt(3)
        assert np.array_equal(dense, base_columns(spec, idx))

    def test_rejected_inputs(self):
        with pytest.raises(ConfigurationError):
            hash_columns(BASE_SPECS[2], [0])  # SRHT columns are dense
        H = hash_columns(BaseSketchSpec(BaseFamily.OSNAP, 4, 5, 2, 1), [0, 1])
        with pytest.raises(ConfigurationError):
            apply_tensor_cols(TENSOR_SPECS[0], H, H)  # TensorSketch sides
        with pytest.raises(DimensionError):
            apply_tensor_cols(TENSOR_SPECS[3], H, H)  # 5 rows, side 8
        with pytest.raises(IndexError):
            hash_columns(BASE_SPECS[1], [6])


class TestTensorPairProperties:
    @pytest.mark.parametrize("spec", TENSOR_SPECS)
    def test_zero_column(self, spec):
        J1 = np.zeros((spec.side_dim, 1))
        J2 = RNG.standard_normal((spec.side_dim, 1))
        assert np.array_equal(
            apply_tensor_pair(spec, J1, J2), np.zeros((spec.output_dim, 1))
        )

    @pytest.mark.parametrize("spec", TENSOR_SPECS)
    def test_linearity_first_argument(self, spec):
        J1 = RNG.standard_normal((spec.side_dim, 2))
        J1b = RNG.standard_normal((spec.side_dim, 2))
        J2 = RNG.standard_normal((spec.side_dim, 2))
        lhs = apply_tensor_pair(spec, J1 + J1b, J2)
        rhs = apply_tensor_pair(spec, J1, J2) + apply_tensor_pair(spec, J1b, J2)
        scale = max(1.0, np.abs(rhs).max())
        assert np.allclose(lhs, rhs, atol=1e-12 * scale)


class TestTensorStructure:
    def test_tensorsketch_one_nonzero_per_column(self):
        spec = TensorSketchSpec(TensorFamily.TENSOR_SKETCH, 4, 5, 31)
        (h1, s1), (h2, s2) = map(_hash_slots, _tensor_internals(spec))
        Z = materialize(spec)
        for i in range(4):
            for j in range(4):
                col = Z[:, i * 4 + j]
                assert np.count_nonzero(col) == 1
                r = (h1[i, 0] + h2[j, 0]) % 5
                assert col[r] == s1[i, 0] * s2[j, 0]

    def test_tensorsrht_two_by_four(self):
        spec = TensorSketchSpec(TensorFamily.TENSOR_SRHT, 2, 2, 41)
        padded, d1, d2, i_rows, j_rows = _tensor_internals(spec)
        assert padded == 2
        H = np.array([[1.0, 1.0], [1.0, -1.0]])
        hd1 = H * d1[None, :]
        hd2 = H * d2[None, :]
        Z = materialize(spec)
        assert Z.shape == (2, 4)
        for r in range(2):
            for a in range(2):
                for b in range(2):
                    expected = hd1[i_rows[r], a] * hd2[j_rows[r], b] / math.sqrt(2)
                    assert math.isclose(Z[r, 2 * a + b], expected, rel_tol=1e-12)


class TestChooseM:
    def test_countsketch_row(self):
        m = choose_m(BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SKETCH, 4, 3, 0.5, 0.1)
        assert m == math.ceil(0.5**-2 * 3 * 16 * 10)

    def test_osnap_row(self):
        m = choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 4, 3, 0.5, 0.1)
        assert m == math.ceil(0.5**-2 * 3 * 16 * math.log(10))

    def test_srht_row(self):
        m = choose_m(BaseFamily.SRHT, TensorFamily.TENSOR_SRHT, 4, 3, 0.5, 0.1)
        assert m == math.ceil(0.5**-2 * 81 * 4 * math.log(10))

    def test_unit_arguments(self):
        assert choose_m(
            BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 1, 1, 1.0, 1 / math.e, 1.0
        ) == 1

    def test_spline_scaling(self):
        m2 = choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 4, 2, 0.5, 0.1)
        m1 = choose_m(
            BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 4, 2, 0.5, 0.1, eps_exponent=1
        )
        assert m1 == math.ceil(m2 / 2)

    def test_fractional_dimension_accepted(self):
        # statistical dimensions are real valued, and a ridge's falls below 1
        for dim in (2.5, 0.3):
            m = choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, dim, 2, 0.5, 0.1)
            assert m == math.ceil(0.5**-2 * 2 * dim**2 * math.log(10))

    def test_unsupported_pair(self):
        with pytest.raises(ConfigurationError) as excinfo:
            choose_m(BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SRHT, 4, 2, 0.5, 0.1)
        assert "supported pairs" in str(excinfo.value)

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 4, 2, 1.5, 0.1)
        for c_factor in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c_factor"):
                choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 4, 2, 0.5, 0.1, c_factor)
        for dim, q in [(0.0, 2), (-1.0, 2), (math.nan, 2), (math.inf, 2), (4, 0)]:
            with pytest.raises(ValueError, match="fundamental_dim"):
                choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, dim, q, 0.5, 0.1)


PAIRS = [
    (BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SKETCH),
    (BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT),
    (BaseFamily.SRHT, TensorFamily.TENSOR_SRHT),
]


def _composite_sketch(cb, tb, m, n_each, seed):
    """Explicit two-factor composite: tensor sketch applied to base pair."""
    sparsity = min(8, m) if cb is BaseFamily.OSNAP else 0
    c1 = BaseSketchSpec(cb, n_each, m, sparsity, seed)
    c2 = BaseSketchSpec(cb, n_each, m, sparsity, seed + 1)
    t = TensorSketchSpec(tb, m, m, seed + 2)
    return apply_tensor_pair(t, materialize(c1), materialize(c2))


class TestEmpiricalQuality:
    @pytest.mark.parametrize("cb,tb", PAIRS)
    def test_norm_preservation(self, cb, tb):
        # two 8x2 factors give a fixed 64x4 design matrix
        rng = np.random.default_rng(123)
        A = kron(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
        m = choose_m(cb, tb, 4, 2, 0.5, 0.1)
        hits = 0
        for trial in range(100):
            Pi = _composite_sketch(cb, tb, m, 8, 10_000 + 3 * trial)
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            ratio = np.linalg.norm(Pi @ (A @ x)) / np.linalg.norm(A @ x)
            hits += 0.5 <= ratio <= 1.5
        assert hits >= 90

    @pytest.mark.parametrize("cb,tb", PAIRS)
    def test_approximate_matrix_product(self, cb, tb):
        rng = np.random.default_rng(456)
        m = choose_m(cb, tb, 4, 2, 0.5, 0.1, eps_exponent=1)
        hits = 0
        for trial in range(100):
            Pi = _composite_sketch(cb, tb, m, 8, 50_000 + 3 * trial)
            C = rng.standard_normal((64, 3))
            D = rng.standard_normal((64, 3))
            err = np.linalg.norm(C.T @ Pi.T @ Pi @ D - C.T @ D)
            bound = 0.5 * np.linalg.norm(C) * np.linalg.norm(D)
            hits += err <= bound
        assert hits >= 90
