"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Sketch-dimension constants were pinned once from the sweep in
scripts/calibrate_sketch_constants.py and are not tuned per test run.
"""

import math
import time

import numpy as np

from kronsketch.linalg import kron, kron_chain
from kronsketch.oracle import (
    exact_kron_regression,
    exact_lowrank,
    exact_spline,
    leverage_sample_regression,
    leverage_scores,
)
from kronsketch.sketches import (
    BaseFamily,
    BaseSketchSpec,
    TensorFamily,
    TensorSketchSpec,
    apply_base,
    apply_tensor_pair,
    choose_m,
    materialize,
)
from kronsketch.solvers import (
    SplineSpec,
    lowrank_query,
    materialize_lowrank,
    regression_query,
    spline_query,
    statistical_dimension,
)
from kronsketch.tree import TensorTree, TreeConfig

EPS = 0.5
DELTA = 0.1

# Pinned once from scripts/calibrate_sketch_constants.py (100/100 at these
# values on the calibration seeds; thresholds below only need 90/100).
PINNED_C = {
    (BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SKETCH): 0.05,
    (BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT): 0.1,
    (BaseFamily.SRHT, TensorFamily.TENSOR_SRHT): 0.05,
}
PAIRS = list(PINNED_C)
SPLINE_C = 0.25
LOWRANK_C = 1.0
BASELINE_C = 1.0


def _verdict(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _relative_node_gap(tree, fresh):
    worst = 0.0
    for la, lb in zip(tree.levels, fresh.levels):
        for a, b in zip(la, lb):
            gap = np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))
            worst = max(worst, gap)
    return worst


def _first_difference(d):
    L = np.zeros((d - 1, d))
    for i in range(d - 1):
        L[i, i] = 1.0
        L[i, i + 1] = -1.0
    return L


def test_criterion_1_dynamic_static_consistency():
    start = time.perf_counter()
    qs = [2, 3, 4, 5, 8]
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(1000 + case)
        q = qs[case % len(qs)]
        pair = PAIRS[case % len(PAIRS)]
        factors = [
            rng.standard_normal(
                (int(rng.integers(2, 17)), int(rng.integers(1, 4)))
            )
            for _ in range(q)
        ]
        cfg = TreeConfig(pair[0], pair[1], 8, seed=2000 + case)
        tree = TensorTree(factors, cfg)
        current = list(factors)
        for _ in range(5):
            i = int(rng.integers(0, q))
            B = rng.standard_normal(current[i].shape)
            tree.update(i, B)
            current[i] = current[i] + B
        fresh = TensorTree(current, cfg)
        worst = max(worst, _relative_node_gap(tree, fresh))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _verdict(1, "dynamic = static consistency",
             ok, f"max node gap {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_update_locality():
    checked = 0
    exact = True
    for q in (1, 2, 3, 4, 5, 6, 7, 8, 13):
        rng = np.random.default_rng(q)
        factors = [rng.standard_normal((4, 2)) for _ in range(q)]
        tree = TensorTree(factors, TreeConfig(m=6, seed=q))
        expected = tree.depth + 1
        for i in range(q):
            tree.update(i, rng.standard_normal((4, 2)))
            exact &= tree.recompute_counter == expected
            if q == 8:
                exact &= tree.recompute_counter == 4
            checked += 1
    _verdict(2, "update locality", exact,
             f"{checked} updates, counter == depth+1 exactly")


def test_criterion_3_embedding_guarantee():
    start = time.perf_counter()
    rng = np.random.default_rng(333)
    factors = [rng.standard_normal((8, 2)) for _ in range(3)]
    A = kron_chain(factors)
    details = []
    ok = True
    for pair in PAIRS:
        m = choose_m(pair[0], pair[1], 8, 3, EPS, DELTA, PINNED_C[pair])
        hits = 0
        for trial in range(100):
            tree = TensorTree(
                factors,
                TreeConfig(pair[0], pair[1], m, seed=3300 + trial),
            )
            x = rng.standard_normal(8)
            ratio = np.linalg.norm(tree.root @ x) / np.linalg.norm(A @ x)
            hits += 0.5 <= ratio <= 1.5
        details.append(f"{pair[0].value}/{pair[1].value} {hits}/100 at m={m}")
        ok &= hits >= 90
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _verdict(3, "embedding guarantee", ok,
             "; ".join(details) + f", {elapsed:.1f}s")


def _regression_instance(trial):
    rng = np.random.default_rng(40_000 + trial)
    factors = [rng.standard_normal((8, 2)) for _ in range(3)]
    b = rng.standard_normal(512)
    return factors, b


def test_criterion_4_regression():
    start = time.perf_counter()
    details = []
    ok = True
    for pair in PAIRS:
        m = max(choose_m(pair[0], pair[1], 8, 3, EPS, DELTA, PINNED_C[pair]), 8)
        hits = 0
        for trial in range(100):
            factors, b = _regression_instance(trial)
            tree = TensorTree(
                factors,
                TreeConfig(pair[0], pair[1], m, seed=44_000 + trial),
            )
            x = regression_query(tree, tree.sketch_vector(b))
            achieved = np.linalg.norm(kron_chain(factors) @ x - b)
            hits += achieved <= (1.0 + EPS) * exact_kron_regression(factors, b).opt_cost
        details.append(f"{pair[0].value}/{pair[1].value} {hits}/100 at m={m}")
        ok &= hits >= 90
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _verdict(4, "regression guarantee", ok,
             "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_5_spline():
    start = time.perf_counter()
    L = _first_difference(8)
    cb, tb = BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT
    details = []
    ok = True
    for lam in (0.1, 1.0, 10.0):
        spline = SplineSpec(L, lam)
        hits = 0
        for trial in range(100):
            factors, b = _regression_instance(trial)
            A = kron_chain(factors)
            sd = statistical_dimension(A, spline)
            m = max(
                choose_m(cb, tb, sd, 3, EPS, DELTA, SPLINE_C, eps_exponent=1), 8
            )
            tree = TensorTree(
                factors, TreeConfig(cb, tb, m, seed=55_000 + trial)
            )
            x = spline_query(tree, tree.sketch_vector(b), spline)
            achieved = (
                np.linalg.norm(A @ x - b) ** 2 + lam * np.linalg.norm(L @ x) ** 2
            )
            hits += achieved <= 1.5 * exact_spline(factors, b, spline).opt_cost
        details.append(f"lam={lam:g} {hits}/100")
        ok &= hits >= 90

    # closed-form and monotonicity checks on the statistical dimension
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 8))
    sd0 = statistical_dimension(A, SplineSpec(L, 0.0))
    sd_inf = statistical_dimension(A, SplineSpec(L, 1e14))
    grid = [statistical_dimension(A, SplineSpec(L, lam))
            for lam in (0.0, 0.1, 1.0, 10.0, 1e4)]
    sd_ok = (
        abs(sd0 - 8.0) <= 1e-6
        and abs(sd_inf - 1.0) <= 1e-6
        and all(a >= b - 1e-12 for a, b in zip(grid, grid[1:]))
    )
    details.append(f"sd0={sd0:g}, sd_inf={sd_inf:.6f}, monotone={sd_ok}")
    ok &= sd_ok
    elapsed = time.perf_counter() - start
    _verdict(5, "spline guarantee", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_low_rank():
    start = time.perf_counter()
    cb, tb = BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT
    k = 2
    m = math.ceil(LOWRANK_C * EPS**-2 * 2 * k**2 * math.log(1.0 / DELTA))
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(66_000 + trial)
        factors = [rng.standard_normal((8, 3)) for _ in range(2)]
        tree = TensorTree(
            factors, TreeConfig(cb, tb, m, seed=67_000 + trial)
        )
        C = materialize_lowrank(lowrank_query(tree, k))
        err = np.linalg.norm(C - kron_chain(factors))
        hits += err <= 1.5 * exact_lowrank(factors, k)

    rng = np.random.default_rng(68_000)
    factors = [rng.standard_normal((8, 3)) for _ in range(2)]
    A = kron_chain(factors)
    tree = TensorTree(factors, TreeConfig(cb, tb, max(m, 9), seed=68_001))
    C_full = materialize_lowrank(lowrank_query(tree, 9))
    full_gap = np.linalg.norm(C_full - A) / np.linalg.norm(A)
    elapsed = time.perf_counter() - start
    ok = hits >= 90 and full_gap <= 1e-8
    _verdict(6, "low-rank guarantee", ok,
             f"{hits}/100 at m={m}, k=d gap {full_gap:.2e}, {elapsed:.1f}s")


def test_criterion_7_baseline():
    start = time.perf_counter()
    eps, delta = 0.5, 0.2
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(77_000 + trial)
        factors = [rng.standard_normal((8, 2)) for _ in range(2)]
        b = rng.standard_normal(64)
        x = leverage_sample_regression(factors, b, eps, delta, BASELINE_C, 78_000 + trial)
        achieved = np.linalg.norm(kron_chain(factors) @ x - b)
        hits += achieved <= 1.5 * exact_kron_regression(factors, b).opt_cost

    rng = np.random.default_rng(79_000)
    law_gap = 0.0
    for _ in range(5):
        A1 = rng.standard_normal((6, 2))
        A2 = rng.standard_normal((6, 2))
        joint = leverage_scores(kron(A1, A2))
        outer = np.outer(leverage_scores(A1), leverage_scores(A2)).ravel()
        law_gap = max(law_gap, np.abs(joint - outer).max())
    elapsed = time.perf_counter() - start
    ok = hits >= 75 and law_gap <= 1e-8
    _verdict(7, "baseline leverage sampling", ok,
             f"{hits}/100, product-law gap {law_gap:.2e}, {elapsed:.1f}s")


def test_criterion_8_sketch_vs_materialization():
    rng = np.random.default_rng(88)
    worst = 0.0

    base_specs = []
    for n in (2, 5, 8):
        for m in (3, 8):
            base_specs.append(BaseSketchSpec(BaseFamily.COUNT_SKETCH, n, m, 0, n * m))
            base_specs.append(BaseSketchSpec(BaseFamily.OSNAP, n, m, min(3, m), n * m + 1))
            base_specs.append(BaseSketchSpec(BaseFamily.SRHT, n, m, 0, n * m + 2))
    for spec in base_specs:
        A = rng.standard_normal((spec.input_dim, 3))
        gap = np.abs(apply_base(spec, A) - materialize(spec) @ A).max()
        worst = max(worst, gap)

    tensor_specs = []
    for side in (2, 5, 8):
        for m_out in (3, 8):
            tensor_specs.append(
                TensorSketchSpec(TensorFamily.TENSOR_SKETCH, side, m_out, side + m_out)
            )
            tensor_specs.append(
                TensorSketchSpec(TensorFamily.TENSOR_SRHT, side, m_out, side + m_out + 1)
            )
    for spec in tensor_specs:
        J1 = rng.standard_normal((spec.side_dim, 2))
        J2 = rng.standard_normal((spec.side_dim, 3))
        out = apply_tensor_pair(spec, J1, J2)
        Z = materialize(spec)
        expected = np.column_stack(
            [Z @ np.kron(J1[:, a], J2[:, b]) for a in range(2) for b in range(3)]
        )
        worst = max(worst, np.abs(out - expected).max())

    for q in (1, 2, 3, 5):
        for pair in PAIRS:
            factors = [rng.standard_normal((4, 2)) for _ in range(q)]
            cfg = TreeConfig(pair[0], pair[1], 8, seed=880 + q)
            tree = TensorTree(factors, cfg)
            Pi = tree.materialize_sketch()
            worst = max(
                worst,
                np.abs(Pi @ kron_chain(factors) - tree.root).max(),
            )
            b = rng.standard_normal(4**q)
            worst = max(worst, np.abs(tree.sketch_vector(b) - Pi @ b).max())
    ok = worst <= 1e-10
    _verdict(8, "sketch vs materialization", ok, f"max gap {worst:.3e}")


def test_criterion_9_update_sublinear_in_q():
    qs = [4, 8, 16, 32]
    n_i, m = 64, 128
    trees = {}
    deltas = {}
    for q in qs:
        rng = np.random.default_rng(99_000 + q)
        factors = [rng.standard_normal((n_i, 1)) for _ in range(q)]
        trees[q] = TensorTree(
            factors,
            TreeConfig(BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SKETCH,
                       m, seed=q),
        )
        deltas[q] = rng.standard_normal((n_i, 1))
        trees[q].update(0, deltas[q])  # warm up caches and FFT plans
    # rounds interleave the q values so transient load hits them evenly
    samples = {q: [] for q in qs}
    for rep in range(40):
        for q in qs:
            t0 = time.perf_counter_ns()
            trees[q].update(rep % q, deltas[q])
            samples[q].append(time.perf_counter_ns() - t0)
    medians = [float(np.median(samples[q])) for q in qs]
    slope = float(np.polyfit(np.log(qs), np.log(medians), 1)[0])
    ok = slope < 0.5
    pretty = ", ".join(f"q={q}: {t/1e3:.0f}us" for q, t in zip(qs, medians))
    _verdict(9, "update time sublinear in q", ok,
             f"log-log slope {slope:.3f}; {pretty}")
