"""One test for each input check that the rest of the suite never reaches:
the error's type and message, per module."""

import re
import struct

import numpy as np
import pytest

from kronsketch import tree as tree_module
from kronsketch.bench import (
    ParseError,
    Scenario,
    load_matrix,
    parse_stream,
    read_report,
    replay,
    save_matrix,
    save_sparse_vector,
)
from kronsketch.linalg import (
    DimensionError,
    SparseVector,
    _hadamard_matrix,
    as_matrix,
    as_vector,
    least_squares,
)
from kronsketch.oracle import LeverageBaseline, exact_lowrank, kron_reduction
from kronsketch.sketches import (
    BaseFamily,
    BaseSketchSpec,
    ConfigurationError,
    TensorFamily,
    TensorSketchSpec,
    apply_tensor_pair,
    base_columns,
    choose_m,
)
from kronsketch.solvers import SplineSpec, lowrank_query, penalized_solve, statistical_dimension
from kronsketch.tree import TensorTree, TreeConfig


def raises(error, message):
    return pytest.raises(error, match=re.escape(message))


@pytest.fixture
def files(tmp_path):
    """Two 6 x 2 factors, a 36-long label delta and an update, as files."""
    rng = np.random.default_rng(26)
    for i in range(2):
        save_matrix(tmp_path / f"A{i}.kmat", rng.standard_normal((6, 2)))
    save_matrix(tmp_path / "B.kmat", rng.standard_normal((6, 2)))
    save_sparse_vector(tmp_path / "delta.spvec", SparseVector(36, [0, 7], [0.5, -1.0]))
    return tmp_path


def scenario(tmp_path, stream, **kw):
    (tmp_path / "stream.txt").write_text(stream)
    factors = [str(tmp_path / f"A{i}.kmat") for i in range(2)]
    return Scenario(factors=factors, stream=str(tmp_path / "stream.txt"), cfactor=0.5, **kw)


class TestBench:
    def test_negative_count(self, tmp_path):
        path = tmp_path / "m.kmat"
        path.write_text("2 -1\n")
        with raises(ParseError, "malformed header: negative column count") as excinfo:
            load_matrix(path)
        assert excinfo.value.offset == 2

    def test_stream_index_not_an_integer(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("Q\nU one B.kmat\n")
        with raises(ParseError, "malformed update event: bad index") as excinfo:
            parse_stream(path)
        assert excinfo.value.offset == 2

    @pytest.mark.parametrize("field, value, message", [
        ("delta", 1.0, "need 0 < eps <= 1 and 0 < delta < 1"),
        ("seeds", 0, "seeds must be >= 1"),
        ("factors", [], "need factor paths (or a tree snapshot to resume)"),
        ("label", None, "regression solver needs --label"),
    ])
    def test_scenario_checks(self, field, value, message):
        sc = Scenario(factors=["A0.kmat"], label="b.spvec")
        setattr(sc, field, value)
        with raises(ValueError, message):
            sc.validate()

    def test_spline_needs_its_penalty(self):
        with raises(ValueError, "spline solver needs --spline-L"):
            Scenario(factors=["A0.kmat"], label="b.spvec", solver="spline").validate()

    def test_label_update_without_a_label(self, files):
        sc = scenario(files, "B delta.spvec\n", solver="lowrank", rank=2)
        with raises(ValueError, "label update in a scenario without --label"):
            replay(sc)

    def test_report_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("event,kind\n0,init\n")
        with raises(ParseError, "missing or wrong CSV header") as excinfo:
            read_report(path)
        assert excinfo.value.offset == 0

    def test_zero_optimum_has_no_ratio(self, files):
        # a zero label: both costs are 0, and their quotient means nothing
        save_sparse_vector(files / "zero.spvec", SparseVector(36, [], []))
        sc = scenario(files, "Q\n", label=str(files / "zero.spvec"), oracle=True)
        query = replay(sc)[-1]
        assert (query.kind, query.oracle_cost, query.ratio) == ("query", 0.0, None)


class TestLinalg:
    def test_matrix_and_vector_dimensions(self):
        with raises(DimensionError, "expected a 2-D matrix, got ndim=1"):
            as_matrix(np.ones(3))
        with raises(DimensionError, "expected a 1-D vector, got ndim=2"):
            as_vector(np.ones((2, 2)))

    def test_vector_not_finite(self):
        with raises(ValueError, "vector contains non-finite entries"):
            as_vector([1.0, np.nan])

    def test_sparse_vector_checks(self):
        with raises(DimensionError, "indices and values must be 1-D and aligned"):
            SparseVector(3, [0, 1], [1.0])
        with raises(DimensionError, "negative length"):
            SparseVector(-1, [], [])
        with raises(ValueError, "sparse values contain non-finite entries"):
            SparseVector(3, [0], [np.inf])

    def test_hadamard_matrix_size_limit(self):
        with raises(DimensionError, "Hadamard matrix of side 65536 exceeds element limit"):
            _hadamard_matrix(1 << 16)

    def test_least_squares_rhs_length(self):
        with raises(DimensionError, "rhs length 2 != rows 3"):
            least_squares(np.eye(3), np.ones(2))


class TestOracle:
    def test_reduction_needs_a_factor(self):
        with raises(DimensionError, "need at least one factor"):
            kron_reduction([])

    def test_negative_rank(self):
        with raises(ValueError, "k must be nonnegative, got -1"):
            exact_lowrank([np.eye(2)], -1)

    def test_baseline_update_checks(self):
        base = LeverageBaseline([np.eye(2), np.eye(2)], np.ones(4), 0.5, 0.2)
        with raises(IndexError, "factor index 2 out of range [0, 2)"):
            base.update(2, np.ones((2, 2)))
        with raises(DimensionError, "update shape (1, 2) != factor shape (2, 2)"):
            base.update(1, np.ones((1, 2)))


class TestSketches:
    def test_spec_dimensions(self):
        with raises(DimensionError, "input_dim and output_dim must be >= 1"):
            BaseSketchSpec(BaseFamily.COUNT_SKETCH, 0, 4, 0, 1)
        with raises(DimensionError, "side_dim and output_dim must be >= 1"):
            TensorSketchSpec(TensorFamily.TENSOR_SKETCH, 4, 0, 1)

    def test_two_dimensional_indices(self):
        spec = BaseSketchSpec(BaseFamily.COUNT_SKETCH, 4, 3, 0, 1)
        with raises(DimensionError, "indices must be 1-D"):
            base_columns(spec, np.zeros((2, 2), dtype=np.int64))

    def test_tensor_pair_element_limit(self):
        # 2**11 rows times 2**10 x 2**11 column pairs, refused before any transform
        spec = TensorSketchSpec(TensorFamily.TENSOR_SKETCH, 2, 1 << 11, 1)
        with raises(DimensionError, "tensor sketch output exceeds element limit"):
            apply_tensor_pair(spec, np.ones((2, 1 << 10)), np.ones((2, 1 << 11)))

    def test_eps_exponent(self):
        with raises(ValueError, "eps_exponent must be 1 or 2"):
            choose_m(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, 4, 2, 0.5, 0.1, eps_exponent=3)


class TestSolvers:
    def test_penalty_columns(self):
        spline = SplineSpec(np.eye(2), 0.5)
        with raises(DimensionError, "L has 2 cols, expected 3"):
            penalized_solve(np.ones((4, 3)), np.ones(4), spline)
        with raises(DimensionError, "L has 2 cols, A has 3"):
            statistical_dimension(np.ones((4, 3)), spline)

    def test_lowrank_needs_m_at_least_k(self):
        tree = TensorTree([np.eye(3)[:, :2], np.eye(3)[:, :2]], TreeConfig(m=2, seed=1))
        with raises(ConfigurationError, "need m >= k, got m=2, k=3"):
            lowrank_query(tree, 3)


class TestTree:
    def test_no_draw_ahead_past_64_bits(self, tmp_path, monkeypatch):
        # the last update that fits takes indices 2**64 - 2 and 2**64 - 1; the
        # path after it would need 2**64, so nothing is drawn ahead for it
        monkeypatch.setattr(tree_module, "_usable_cpus", lambda: 2)
        tree = TensorTree([np.eye(2), np.eye(2)], TreeConfig(m=3, adaptive=True, seed=5))
        path = tmp_path / "tree.kttr"
        tree.save(path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = struct.pack("<Q", 2**64 - 3)
        path.write_bytes(bytes(raw))
        tree = TensorTree.load(path)
        tree.update_adaptive(0, np.ones((2, 2)))
        assert tree.draws == [2**64 - 2, 1, 2**64 - 1]
        tree_module._worker.submit(int).result(timeout=30)  # the helper is idle
        assert tree._next is None
        with raises(ValueError, "spec draw index 18446744073709551617 does not fit in 64 bits"):
            tree.update_adaptive(1, np.ones((2, 2)))
