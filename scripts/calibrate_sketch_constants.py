#!/usr/bin/env python3
"""Sweep sketch-dimension constants and report empirical pass rates.

The theory only fixes sketching dimensions up to a leading constant. This
script measures, for each family pair and each benchmark, how many of 100
seeded trials meet the target accuracy at a given constant, so a safe
value can be pinned in the acceptance suite. Run from the repo root:

    python3 scripts/calibrate_sketch_constants.py
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kronsketch.linalg import kron_chain
from kronsketch.oracle import (
    exact_kron_regression,
    exact_lowrank,
    exact_spline,
    leverage_sample_regression,
)
from kronsketch.sketches import BaseFamily, TensorFamily, choose_m
from kronsketch.solvers import (
    SplineSpec,
    lowrank_query,
    materialize_lowrank,
    regression_query,
    spline_query,
    statistical_dimension,
)
from kronsketch.tree import TensorTree, TreeConfig

PAIRS = [
    (BaseFamily.COUNT_SKETCH, TensorFamily.TENSOR_SKETCH),
    (BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT),
    (BaseFamily.SRHT, TensorFamily.TENSOR_SRHT),
]

EPS, DELTA = 0.5, 0.1
TRIALS = 100


def regression_instance(trial):
    rng = np.random.default_rng(40_000 + trial)
    factors = [rng.standard_normal((8, 2)) for _ in range(3)]
    b = rng.standard_normal(512)
    return factors, b


def embedding_hits(cb, tb, c):
    rng = np.random.default_rng(12345)
    factors = [rng.standard_normal((8, 2)) for _ in range(3)]
    A = kron_chain(factors)
    m = choose_m(cb, tb, 8, 3, EPS, DELTA, c)
    hits = 0
    for trial in range(TRIALS):
        tree = TensorTree(factors, TreeConfig(cb, tb, m, seed=30_000 + trial))
        x = rng.standard_normal(8)
        ratio = np.linalg.norm(tree.root @ x) / np.linalg.norm(A @ x)
        hits += 0.5 <= ratio <= 1.5
    return hits, m


def regression_hits(cb, tb, c):
    m = max(choose_m(cb, tb, 8, 3, EPS, DELTA, c), 8)
    hits = 0
    for trial in range(TRIALS):
        factors, b = regression_instance(trial)
        tree = TensorTree(factors, TreeConfig(cb, tb, m, seed=50_000 + trial))
        x = regression_query(tree, tree.sketch_vector(b))
        achieved = np.linalg.norm(kron_chain(factors) @ x - b)
        hits += achieved <= 1.5 * exact_kron_regression(factors, b).opt_cost
    return hits, m


def spline_hits(cb, tb, c, lam):
    L = np.zeros((7, 8))
    for i in range(7):
        L[i, i] = 1.0
        L[i, i + 1] = -1.0
    spline = SplineSpec(L, lam)
    hits = 0
    ms = []
    for trial in range(TRIALS):
        factors, b = regression_instance(trial)
        sd = statistical_dimension(kron_chain(factors), spline)
        m = max(choose_m(cb, tb, sd, 3, EPS, DELTA, c, eps_exponent=1), 8)
        ms.append(m)
        tree = TensorTree(factors, TreeConfig(cb, tb, m, seed=60_000 + trial))
        x = spline_query(tree, tree.sketch_vector(b), spline)
        A = kron_chain(factors)
        achieved = np.linalg.norm(A @ x - b) ** 2 + lam * np.linalg.norm(L @ x) ** 2
        hits += achieved <= 1.5 * exact_spline(factors, b, spline).opt_cost
    return hits, int(np.median(ms))


def lowrank_hits(cb, tb, c, k=2):
    m = max(choose_m(cb, tb, k, 2, EPS, DELTA, c), k)
    hits = 0
    for trial in range(TRIALS):
        rng = np.random.default_rng(70_000 + trial)
        factors = [rng.standard_normal((8, 3)) for _ in range(2)]
        tree = TensorTree(factors, TreeConfig(cb, tb, m, seed=80_000 + trial))
        C = materialize_lowrank(lowrank_query(tree, k))
        err = np.linalg.norm(C - kron_chain(factors))
        hits += err <= 1.5 * exact_lowrank(factors, k)
    return hits, m


def baseline_hits(c):
    eps, delta = 0.5, 0.2
    hits = 0
    for trial in range(TRIALS):
        rng = np.random.default_rng(90_000 + trial)
        factors = [rng.standard_normal((8, 2)) for _ in range(2)]
        b = rng.standard_normal(64)
        x = leverage_sample_regression(factors, b, eps, delta, c, 91_000 + trial)
        achieved = np.linalg.norm(kron_chain(factors) @ x - b)
        hits += achieved <= 1.5 * exact_kron_regression(factors, b).opt_cost
    return hits, math.ceil(c * 4 / (delta * eps**2))


def main():
    grids = [float(x) for x in (sys.argv[1:] or [0.02, 0.05, 0.1, 0.2, 0.4])]
    print("== embedding (q=3, d=8) ==")
    for cb, tb in PAIRS:
        for c in grids:
            hits, m = embedding_hits(cb, tb, c)
            print(f"  {cb.value:12s} {tb.value:12s} c={c:<5g} m={m:<6d} {hits}/100")
    print("== regression (q=3, n=512, d=8) ==")
    for cb, tb in PAIRS:
        for c in grids:
            hits, m = regression_hits(cb, tb, c)
            print(f"  {cb.value:12s} {tb.value:12s} c={c:<5g} m={m:<6d} {hits}/100")
    print("== spline (OSNAP/TensorSRHT, sd-driven m) ==")
    for lam in (0.1, 1.0, 10.0):
        for c in grids:
            hits, m = spline_hits(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, c, lam)
            print(f"  lam={lam:<5g} c={c:<5g} median m={m:<6d} {hits}/100")
    print("== lowrank (q=2, d=9, k=2) ==")
    for c in grids:
        hits, m = lowrank_hits(BaseFamily.OSNAP, TensorFamily.TENSOR_SRHT, c)
        print(f"  c={c:<5g} m={m:<6d} {hits}/100")
    print("== baseline leverage sampling (q=2, d=4) ==")
    for c in grids:
        hits, m = baseline_hits(c)
        print(f"  c={c:<5g} m={m:<6d} {hits}/100")


if __name__ == "__main__":
    main()
