import math

import numpy as np
import pytest

from kronsketch.linalg import DimensionError, kron
from kronsketch.sketches import (
    BaseFamily,
    BaseSketchSpec,
    ConfigurationError,
    TensorFamily,
    TensorSketchSpec,
    _base_internals,
    _countsketch_apply,
    _tensor_internals,
    apply_base,
    apply_tensor_cols,
    apply_tensor_pair,
    base_columns,
    choose_m,
    materialize,
)

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
        h = np.array([0, 0])
        sign = np.array([1.0, -1.0])
        out = _countsketch_apply(h, sign, np.eye(2), 3)
        assert np.array_equal(out, [[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])

    def test_zero_matrix(self):
        spec = BaseSketchSpec(BaseFamily.COUNT_SKETCH, 5, 4, 0, 1)
        assert np.array_equal(apply_base(spec, np.zeros((5, 2))), np.zeros((4, 2)))


class TestOsnap:
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

    def test_base_dimension_mismatch(self):
        spec = BASE_SPECS[0]
        with pytest.raises(DimensionError):
            apply_base(spec, np.zeros((spec.input_dim + 1, 2)))

    def test_tensor_dimension_mismatch(self):
        spec = TENSOR_SPECS[0]
        with pytest.raises(DimensionError):
            apply_tensor_pair(spec, np.zeros((spec.side_dim, 1)), np.zeros((2, 1)))


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
        h1, h2, s1, s2 = _tensor_internals(spec)
        Z = materialize(spec)
        for i in range(4):
            for j in range(4):
                col = Z[:, i * 4 + j]
                assert np.count_nonzero(col) == 1
                r = (h1[i] + h2[j]) % 5
                assert col[r] == s1[i] * s2[j]

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
        # statistical dimensions are real valued
        m = choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 2.5, 2, 0.5, 0.1)
        assert m == math.ceil(0.5**-2 * 2 * 2.5**2 * math.log(10))

    def test_unsupported_pair(self):
        with pytest.raises(ConfigurationError) as excinfo:
            choose_m(BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SRHT, 4, 2, 0.5, 0.1)
        assert "supported pairs" in str(excinfo.value)

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 4, 2, 1.5, 0.1)
        with pytest.raises(ValueError):
            choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 4, 2, 0.5, 0.1, -1.0)


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
