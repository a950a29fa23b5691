"""Benchmark-local tests of the generated inputs and the output checks.

Run with ``python3 -m pytest -q perfbench/tests/check_inputs.py``; the file
name keeps it out of the package's own test collection.
"""

import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from kronsketch.linalg import SparseVector  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.input_bytes(workload, 7) == workloads.input_bytes(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    assert workloads.input_bytes(workload, 7) != workloads.input_bytes(workload, 8)


def test_structured_costs_match_dense_product():
    rng = np.random.default_rng(0)
    factors = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3)),
               rng.standard_normal((6, 2))]
    A = reduce(np.kron, factors)
    idx = rng.integers(0, A.shape[0], 40)  # repeats mean summation
    b = SparseVector(A.shape[0], idx, rng.standard_normal(idx.size))
    dense = b.to_dense()
    x = rng.standard_normal(A.shape[1])
    achieved, opt = workloads.kron_regression_costs(factors, b, x)
    x_star = np.linalg.lstsq(A, dense, rcond=None)[0]
    assert achieved == pytest.approx(np.linalg.norm(A @ x - dense), rel=1e-10)
    assert opt == pytest.approx(np.linalg.norm(A @ x_star - dense), rel=1e-10)
