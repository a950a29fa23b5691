#!/usr/bin/env python3
"""Measure how update time scales with the number of factors.

An update touches one leaf-to-root path, so with the sketching dimension
and total column count held fixed the median update time should grow like
the tree depth (log q), not like q. The q values are timed in interleaved
rounds (one update per q per round), so a slow phase of the machine hits
every q alike. Prints each q's median with its quartiles, and the fitted
log-log exponent of the medians. With ``--adaptive`` the same rounds also
time one ``update_adaptive`` per q on an adaptive OSNAP/TensorSRHT tree,
which redraws the sketches on its path, and print a second table for them.
Usage:

    python3 scripts/update_scaling.py [m] [n_i] [reps] [--adaptive]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kronsketch.sketches import BaseFamily, TensorFamily
from kronsketch.tree import TensorTree, TreeConfig

ADAPTIVE = dict(c_family=BaseFamily.OSNAP, t_family=TensorFamily.TENSOR_SRHT, adaptive=True)


def print_table(qs, trees, samples):
    print(f"{'q':>4} {'depth':>6} {'median us':>10} {'p25 us':>8} {'p75 us':>8}")
    medians = []
    for q in qs:
        p25, p50, p75 = np.percentile(samples[q], [25, 50, 75])
        medians.append(float(p50))
        print(f"{q:>4} {trees[q].depth:>6} {p50:>10.1f} {p25:>8.1f} {p75:>8.1f}")
    slope = float(np.polyfit(np.log(qs), np.log(medians), 1)[0])
    print(f"log-log exponent: {slope:.3f} (1.0 would be linear in q)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("m", nargs="?", type=int, default=128)
    parser.add_argument("n_i", nargs="?", type=int, default=64)
    parser.add_argument("reps", nargs="?", type=int, default=60)
    parser.add_argument("--adaptive", action="store_true",
                        help="also time update_adaptive on OSNAP/TensorSRHT trees")
    args = parser.parse_args()
    m, n_i, reps = args.m, args.n_i, args.reps
    qs = [4, 8, 16, 32, 64]
    kinds = {"update": {}, **({"update_adaptive": ADAPTIVE} if args.adaptive else {})}
    trees = {kind: {} for kind in kinds}
    deltas = {}
    for q in qs:
        rng = np.random.default_rng(q)
        factors = [rng.standard_normal((n_i, 1)) for _ in range(q)]
        deltas[q] = rng.standard_normal((n_i, 1))
        for kind, extra in kinds.items():
            trees[kind][q] = tree = TensorTree(factors, TreeConfig(m=m, seed=q, **extra))
            getattr(tree, kind)(0, deltas[q])  # warm up caches and FFT plans
    samples = {kind: {q: [] for q in qs} for kind in kinds}
    for rep in range(reps):
        for q in qs:
            for kind in kinds:
                update = getattr(trees[kind][q], kind)
                t0 = time.perf_counter_ns()
                update(rep % q, deltas[q])
                samples[kind][q].append((time.perf_counter_ns() - t0) / 1e3)
    print(f"m={m}, n_i={n_i}, d_i=1, {reps} updates per q in interleaved rounds")
    print_table(qs, trees["update"], samples["update"])
    if args.adaptive:
        print("update_adaptive, OSNAP/TensorSRHT adaptive trees, same rounds")
        print_table(qs, trees["update_adaptive"], samples["update_adaptive"])


if __name__ == "__main__":
    main()
