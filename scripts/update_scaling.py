#!/usr/bin/env python3
"""Measure how update time scales with the number of factors.

An update touches one leaf-to-root path, so with the sketching dimension
and total column count held fixed the median update time should grow like
the tree depth (log q), not like q. The q values are timed in interleaved
rounds (one update per q per round), so a slow phase of the machine hits
every q alike. Prints each q's median with its quartiles, and the fitted
log-log exponent of the medians. Usage:

    python3 scripts/update_scaling.py [m] [n_i] [reps]
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kronsketch.tree import TensorTree, TreeConfig


def main():
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    n_i = int(sys.argv[2]) if len(sys.argv) > 2 else 64
    reps = int(sys.argv[3]) if len(sys.argv) > 3 else 60
    qs = [4, 8, 16, 32, 64]
    trees, deltas = {}, {}
    for q in qs:
        rng = np.random.default_rng(q)
        factors = [rng.standard_normal((n_i, 1)) for _ in range(q)]
        trees[q] = TensorTree(factors, TreeConfig(m=m, seed=q))
        deltas[q] = rng.standard_normal((n_i, 1))
        trees[q].update(0, deltas[q])  # warm up caches and FFT plans
    samples = {q: [] for q in qs}
    for rep in range(reps):
        for q in qs:
            t0 = time.perf_counter_ns()
            trees[q].update(rep % q, deltas[q])
            samples[q].append((time.perf_counter_ns() - t0) / 1e3)
    print(f"m={m}, n_i={n_i}, d_i=1, {reps} updates per q in interleaved rounds")
    print(f"{'q':>4} {'depth':>6} {'median us':>10} {'p25 us':>8} {'p75 us':>8}")
    medians = []
    for q in qs:
        p25, p50, p75 = np.percentile(samples[q], [25, 50, 75])
        medians.append(float(p50))
        print(f"{q:>4} {trees[q].depth:>6} {p50:>10.1f} {p25:>8.1f} {p75:>8.1f}")
    slope = float(np.polyfit(np.log(qs), np.log(medians), 1)[0])
    print(f"log-log exponent: {slope:.3f} (1.0 would be linear in q)")


if __name__ == "__main__":
    main()
