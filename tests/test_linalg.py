import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kronsketch import sketches
from kronsketch.linalg import (
    DimensionError,
    HadamardWork,
    SparseVector,
    _bit_parity_sign,
    as_sparse,
    kron,
    kron_chain,
    kron_rows_dot,
    least_squares,
    thin_svd,
)
from kronsketch.oracle import LeverageBaseline, kron_reduction
from kronsketch.tree import TensorTree, TreeConfig
from test_solvers import assert_solves_agree

RNG = np.random.default_rng(20240817)


def small_matrix(rows, cols):
    return hnp.arrays(
        np.float64, (rows, cols), elements=st.floats(-10, 10, width=64)
    )


def _kron_blocks(A, B):
    """Independent oracle: assemble the product block by block."""
    rA, cA = A.shape
    rB, cB = B.shape
    out = np.zeros((rA * rB, cA * cB))
    for i in range(rA):
        for j in range(cA):
            out[i * rB : (i + 1) * rB, j * cB : (j + 1) * cB] = A[i, j] * B
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_two_by_two_block_pattern(self):
        a = RNG.standard_normal((2, 2))
        b = RNG.standard_normal((2, 2))
        expected = np.array(
            [
                [a[0, 0] * b[0, 0], a[0, 0] * b[0, 1], a[0, 1] * b[0, 0], a[0, 1] * b[0, 1]],
                [a[0, 0] * b[1, 0], a[0, 0] * b[1, 1], a[0, 1] * b[1, 0], a[0, 1] * b[1, 1]],
                [a[1, 0] * b[0, 0], a[1, 0] * b[0, 1], a[1, 1] * b[0, 0], a[1, 1] * b[0, 1]],
                [a[1, 0] * b[1, 0], a[1, 0] * b[1, 1], a[1, 1] * b[1, 0], a[1, 1] * b[1, 1]],
            ]
        )
        assert np.array_equal(kron(a, b), expected)

    def test_hand_example(self):
        out = kron([[1.0, 2.0]], [[3.0], [4.0]])
        assert np.array_equal(out, [[3.0, 6.0], [4.0, 8.0]])

    def test_matches_block_oracle(self):
        for _ in range(10):
            A = RNG.standard_normal((RNG.integers(1, 4), RNG.integers(1, 4)))
            B = RNG.standard_normal((RNG.integers(1, 4), RNG.integers(1, 4)))
            assert np.array_equal(kron(A, B), _kron_blocks(A, B))

    def test_overflow_guard(self):
        big = np.zeros((1 << 16, 1))
        with pytest.raises(DimensionError):
            kron(big, big)

    @given(small_matrix(2, 3), small_matrix(2, 3), small_matrix(4, 2))
    @settings(max_examples=30, deadline=None)
    def test_bilinearity(self, A, A2, B):
        lhs = kron(A + A2, B)
        rhs = kron(A, B) + kron(A2, B)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @given(small_matrix(2, 2), small_matrix(3, 3), small_matrix(2, 2), small_matrix(3, 3))
    @settings(max_examples=30, deadline=None)
    def test_mixed_product(self, A, B, C, D):
        lhs = kron(A, B) @ kron(C, D)
        rhs = kron(A @ C, B @ D)
        scale = max(1.0, np.abs(rhs).max())
        assert np.allclose(lhs, rhs, atol=1e-10 * scale)


class TestKronChain:
    def test_identities(self):
        assert np.array_equal(kron_chain([np.eye(2)] * 3), np.eye(8))

    def test_single_factor(self):
        A = RNG.standard_normal((3, 2))
        assert np.array_equal(kron_chain([A]), A)

    def test_hand_example(self):
        out = kron_chain([[[1.0, 2.0]], [[3.0], [4.0]], [[5.0]]])
        assert np.array_equal(out, 5.0 * np.array([[3.0, 6.0], [4.0, 8.0]]))

    def test_association_free(self):
        A, B, C = (RNG.standard_normal((2, 2)) for _ in range(3))
        left = kron(kron(A, B), C)
        right = kron(A, kron(B, C))
        assert np.allclose(kron_chain([A, B, C]), left)
        assert np.allclose(left, right, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            kron_chain([])


class TestKronRowsDot:
    """kron_rows_dot against rows of the explicit product."""

    @given(st.integers(1, 4), st.integers(0, 12), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_product_rows(self, q, nnz, seed):
        rng = np.random.default_rng(seed)
        factors = [
            rng.standard_normal((int(rng.integers(1, 5)), int(rng.integers(1, 4))))
            for _ in range(q)
        ]
        A = kron_chain(factors)
        idx = rng.integers(0, A.shape[0], nnz)
        vals = rng.standard_normal(nnz)
        expected = A[idx].T @ vals
        assert np.allclose(kron_rows_dot(factors, idx, vals), expected, atol=1e-12)

    def test_empty_selection_is_zero(self):
        out = kron_rows_dot([np.ones((3, 2)), np.ones((2, 2))], [], [])
        assert np.array_equal(out, np.zeros(4))


def test_bit_parity_sign_matches_shift_xor_fold():
    """np.bitwise_count parity against the shift-xor fold it replaced."""
    x = np.concatenate([
        RNG.integers(0, 2**63 - 1, 10**4, dtype=np.int64, endpoint=True),
        [0, 1, 2**62, 2**63 - 1],
    ])
    folded = x.astype(np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        folded = folded ^ (folded >> np.uint64(shift))
    expected = 1.0 - 2.0 * (folded & np.uint64(1)).astype(np.float64)
    got = _bit_parity_sign(x)
    assert got.dtype == np.float64 and np.array_equal(got, expected)


def _sylvester_hadamard(n):
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def _hadamard_axis0(a: np.ndarray) -> np.ndarray:
    """H_p a for the unnormalized +-1 Hadamard matrix H_p, p = a.shape[0] a
    power of two, through one ``HadamardWork``; ``a`` is not modified."""
    p, c = a.shape
    work = HadamardWork()
    work.block(p, p, c)[:] = a
    return work.transform()


def fwht(v):
    """Orthonormal Walsh-Hadamard transform through the SRHT's radix-32 GEMMs."""
    x = np.array(v, dtype=np.float64).reshape(-1, 1)
    return _hadamard_axis0(x).ravel() / math.sqrt(x.shape[0])


class TestFwht:
    def test_hand_values(self):
        assert np.allclose(fwht([1.0, 0.0]), [1 / math.sqrt(2)] * 2)
        assert np.allclose(fwht([1.0, 1.0]), [math.sqrt(2), 0.0])

    def test_zero_vector(self):
        assert np.array_equal(fwht(np.zeros(8)), np.zeros(8))

    # 32, 64, 128 and 2048 take one, two (remainder digit first) and three GEMMs
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128, 2048])
    def test_matches_explicit_hadamard(self, n):
        H = _sylvester_hadamard(n) / math.sqrt(n)
        v = RNG.standard_normal(n)
        assert np.allclose(fwht(v), H @ v, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 8, 32, 64, 1024])
    def test_column_independent_of_width(self, p):
        # every GEMM runs whole BLAS tiles, so a column's transform is the same
        # bit for bit however many columns come with it
        A = RNG.standard_normal((p, 80))
        wide = _hadamard_axis0(A)
        for c in range(1, 81):
            assert np.array_equal(_hadamard_axis0(A[:, :c]), wide[:, :c]), c

    def test_work_reused_across_shapes(self):
        # a reused block's padding rows and the padded GEMM columns are re-zeroed
        work = HadamardWork()
        for p, n, c in [(1024, 1024, 64), (1024, 700, 40), (2048, 1500, 3), (64, 9, 64), (1, 1, 5)]:
            A = RNG.standard_normal((n, c))
            work.block(p, n, c)[:n] = A
            padded = np.vstack([A, np.zeros((p - n, c))])
            assert np.array_equal(work.transform(), _hadamard_axis0(padded)), (p, n, c)

    def test_input_not_modified(self):
        A = RNG.standard_normal((64, 3))
        before = A.copy()
        _hadamard_axis0(A)
        assert np.array_equal(A, before)

    def test_involution(self):
        v = RNG.standard_normal(64)
        back = fwht(fwht(v))
        assert np.allclose(back, v, rtol=1e-12, atol=1e-12)

    @given(hnp.arrays(np.float64, 16, elements=st.floats(-100, 100, width=64)))
    @settings(max_examples=50, deadline=None)
    def test_norm_preserved(self, v):
        assert math.isclose(
            np.linalg.norm(fwht(v)),
            np.linalg.norm(v),
            rel_tol=1e-12,
            abs_tol=1e-12,
        )


def _convolve_direct(u, v):
    s = len(u)
    out = np.zeros(s)
    for r in range(s):
        for j in range(s):
            out[r] += u[j] * v[(r - j) % s]
    return out


def circular_convolve(u, v):
    """A TensorSketch node on one column pair, with identity count-sketches.

    With hashes 0..s-1 and unit signs each side's count-sketch is the
    identity, so the node's rfft-product-irfft combine is exactly the cyclic
    convolution of u and v.
    """
    u = np.array(u, dtype=np.float64)
    v = np.array(v, dtype=np.float64)
    s = u.size
    spec = sketches.TensorSketchSpec(sketches.TensorFamily.TENSOR_SKETCH, s, s, 0)
    hashes = np.arange(s)[:, None]
    unit = sketches._hash_matrix(hashes, np.ones((s, 1)), s)
    identity = (unit, unit)
    with mock.patch.object(sketches, "_tensor_internals", lambda _: identity):
        return sketches.apply_tensor_cols(spec, u[:, None], v[:, None])[:, 0]


class TestCircularConvolve:
    def test_delta_identity(self):
        v = np.array([4.0, -1.0, 2.5])
        assert np.allclose(circular_convolve([1.0, 0.0, 0.0], v), v)

    def test_cyclic_shift(self):
        out = circular_convolve([0.0, 1.0, 0.0], [5.0, 6.0, 7.0])
        assert np.allclose(out, [7.0, 5.0, 6.0])

    def test_all_ones(self):
        assert np.allclose(circular_convolve([1.0, 1.0], [1.0, 1.0]), [2.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            circular_convolve([1.0], [1.0, 2.0])

    @given(st.integers(1, 64), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_sum_and_commutes(self, s, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(s)
        v = rng.standard_normal(s)
        fast = circular_convolve(u, v)
        direct = _convolve_direct(u, v)
        scale = max(1.0, np.abs(direct).max())
        assert np.allclose(fast, direct, atol=1e-10 * scale)
        assert np.allclose(fast, circular_convolve(v, u), atol=1e-10 * scale)


class TestLeastSquares:
    def test_identity(self):
        y = RNG.standard_normal(5)
        res = least_squares(np.eye(5), y)
        assert np.allclose(res.x, y, atol=1e-12)
        assert not res.rank_deficient

    def test_hand_mean(self):
        res = least_squares([[1.0], [1.0]], [1.0, 3.0])
        assert np.allclose(res.x, [2.0])

    def test_orthonormal_projection(self):
        Q, _ = np.linalg.qr(RNG.standard_normal((8, 3)))
        y = RNG.standard_normal(8)
        assert np.allclose(least_squares(Q, y).x, Q.T @ y, atol=1e-10)

    def test_residual_orthogonality(self):
        M = RNG.standard_normal((10, 4))
        y = RNG.standard_normal(10)
        x = least_squares(M, y).x
        assert np.abs(M.T @ (M @ x - y)).max() <= 1e-8 * np.linalg.norm(y)

    def test_rank_deficient_min_norm(self):
        # two identical columns: solver must flag and return the min-norm x
        M = np.column_stack([np.ones(4), np.ones(4)])
        res = least_squares(M, np.full(4, 2.0))
        assert res.rank_deficient and res.rank == 1
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-10)

    def test_wide_rejected(self):
        with pytest.raises(DimensionError):
            least_squares(np.ones((2, 3)), np.ones(2))

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_optimality_under_perturbation(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((9, 3))
        y = rng.standard_normal(9)
        x = least_squares(M, y).x
        base = np.linalg.norm(M @ x - y) ** 2
        for _ in range(5):
            delta = 0.1 * rng.standard_normal(3)
            assert np.linalg.norm(M @ (x + delta) - y) ** 2 >= base - 1e-9

    @given(
        d=st.integers(1, 81),
        extra=st.integers(0, 1024 - 81),
        log_kappa=st.floats(0.0, 12.0),
        noise=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**32),
    )
    @example(d=81, extra=943, log_kappa=1.0, noise=0.1, seed=0)  # the Cholesky path
    @example(d=81, extra=943, log_kappa=5.0, noise=0.0, seed=0)  # ... near the guard
    @example(d=81, extra=943, log_kappa=11.0, noise=0.1, seed=0)  # the lstsq fallback
    @settings(max_examples=40, deadline=None)
    def test_matches_lstsq_across_the_guard(self, d, extra, log_kappa, noise, seed):
        # A = U diag(s) V^T with singular values from 1 down to 1 / kappa
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((d + extra, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = (U * np.logspace(0.0, -log_kappa, d)) @ V.T
        # a consistent y (no noise) leaves the bound no kappa^2 residual term
        y = A @ rng.standard_normal(d) + noise * rng.standard_normal(d + extra)
        ref = np.linalg.lstsq(A, y, rcond=None)
        with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as spy:
            res = least_squares(A, y)
        if spy.called:
            assert np.array_equal(res.x, ref[0]) and res.rank == ref[2]
        else:
            assert res.rank == d and not res.rank_deficient
            assert_solves_agree(res.x, ref[0], A, y, identity=False)
        # cond_1 of the Cholesky factor is at most d kappa, so the guard
        # (1e6) passes every such system, with room for rounding
        if d * 10.0**log_kappa <= 1e5:
            assert not spy.called

    def test_well_conditioned_root_takes_the_cholesky_path(self, monkeypatch):
        rng = np.random.default_rng(16)
        factors = [rng.standard_normal((4096, 3)) for _ in range(4)]
        R = TensorTree(factors, TreeConfig(m=1024, seed=16)).root
        y = rng.standard_normal(1024)
        ref = np.linalg.lstsq(R, y, rcond=None)[0]

        def refuse(*args, **kwargs):
            raise AssertionError("least_squares fell back to lstsq")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        res = least_squares(R, y)
        assert R.shape == (1024, 81) and res.rank == 81 and not res.rank_deficient
        assert np.linalg.norm(res.x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_rank_one_root_keeps_flag_and_min_norm(self):
        # all-ones factors make the Kronecker product, and so the root, rank 1
        tree = TensorTree([np.ones((16, 3)), np.ones((16, 3))], TreeConfig(m=64, seed=3))
        y = np.random.default_rng(3).standard_normal(64)
        res = least_squares(tree.root, y)
        ref = np.linalg.lstsq(tree.root, y, rcond=None)
        assert res.rank_deficient and res.rank == 1 == ref[2]
        assert np.array_equal(res.x, ref[0])

    @pytest.mark.parametrize("scale_M, scale_y", [(1e-160, 1.0), (1e200, 1.0), (1.0, 1e308)])
    def test_extreme_scales_fall_back(self, scale_M, scale_y):
        # an underflowed or overflowed M^T M, or an overflowed M^T y, takes
        # the lstsq path, silently
        M = scale_M * np.ones((4, 1))
        y = scale_y * np.array([1.0, 1.0, 1.0, 0.5])
        with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as spy:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = least_squares(M, y)
        assert spy.called and np.isfinite(res.x).all()
        assert res.x[0] == pytest.approx(0.875 * scale_y / scale_M, rel=1e-14)


class TestThinSvd:
    def test_diagonal(self):
        _, s, _ = thin_svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0])

    def test_rank_one(self):
        u = RNG.standard_normal(5)
        v = RNG.standard_normal(3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        _, s, _ = thin_svd(np.outer(u, v))
        assert np.allclose(s, [1.0, 0.0, 0.0], atol=1e-12)

    def test_reconstruction(self):
        M = RNG.standard_normal((6, 4))
        U, s, V = thin_svd(M)
        err = np.linalg.norm(U @ np.diag(s) @ V.T - M)
        assert err <= 1e-8 * np.linalg.norm(M)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert np.allclose(U.T @ U, np.eye(4), atol=1e-10)
        assert np.allclose(V.T @ V, np.eye(4), atol=1e-10)


class TestSparseVector:
    def test_round_trip(self):
        v = np.array([0.0, 2.0, 0.0, -1.0])
        sv = SparseVector.from_dense(v)
        assert sv.nnz == 2
        assert np.array_equal(sv.to_dense(), v)

    def test_duplicates_sum(self):
        sv = SparseVector(3, [1, 1], [2.0, 3.0])
        assert np.array_equal(sv.to_dense(), [0.0, 5.0, 0.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            SparseVector(3, [3], [1.0])

    @pytest.mark.parametrize("length", [2.5, 3.0, "3", None])
    def test_non_integer_length_rejected(self, length):
        with pytest.raises(DimensionError, match="not an integer"):
            SparseVector(length, [0], [1.0])

    def test_integer_lengths_accepted(self):
        assert SparseVector(np.int64(3), [2], [1.0]).length == 3
        assert SparseVector(2**70, [2**62], [1.0]).length == 2**70

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.floats(-1e6, 1e6, width=64)), max_size=80),
    )))
    @example((1, []))
    @example((3, [(2, 1.0), (0, -2.0), (2, 0.5), (2, 0.25)]))
    @settings(max_examples=300, deadline=None)
    def test_coalesced(self, case):
        n, pairs = case
        sv = SparseVector(n, [i for i, _ in pairs], [v for _, v in pairs])
        out = sv.coalesced()
        assert out.length == n
        assert np.all(np.diff(out.indices) > 0)
        # the same vector; np.add.at and reduceat group each index's sum differently
        bound = sv.nnz * np.finfo(float).eps * np.abs(sv.values).sum()
        assert np.allclose(out.to_dense(), sv.to_dense(), rtol=0, atol=bound)
        again = out.coalesced()
        assert np.array_equal(again.indices, out.indices)
        assert np.array_equal(again.values, out.values)
        # bit for bit the sort and dedupe that kron_reduction ran inline before
        order = np.argsort(sv.indices, kind="stable")
        idx = sv.indices[order]
        first = np.flatnonzero(np.diff(idx, prepend=-1))
        assert np.array_equal(out.indices, idx[first])
        assert np.array_equal(out.values, np.add.reduceat(sv.values[order], first))


class TestAsSparse:
    def test_sparse_and_dense_labels(self):
        sv = SparseVector(4, [3, 1, 3], [1.0, 2.0, 0.5])
        assert as_sparse(sv, 4) is sv
        dense = as_sparse(sv.to_dense(), 4)
        assert dense.length == 4 and np.array_equal(dense.to_dense(), sv.to_dense())

    def test_other_length_names_both_at_every_label_entry(self):
        factors = [np.eye(2), np.eye(2)]
        tree = TensorTree(factors, TreeConfig(m=8, seed=1))
        base = LeverageBaseline(factors, np.ones(4), 0.5, 0.2)
        entries = [
            lambda b: as_sparse(b, 4),
            tree.sketch_vector,
            lambda b: kron_reduction(factors, b),
            lambda b: LeverageBaseline(factors, b, 0.5, 0.2),
            base.update_label,
        ]
        for entry in entries:
            for b in (np.ones(5), SparseVector(5, [4], [1.0])):
                with pytest.raises(DimensionError, match="length 5 != expected length 4"):
                    entry(b)
