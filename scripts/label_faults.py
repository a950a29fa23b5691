#!/usr/bin/env python3
"""Time and count minor page faults of label sketches, one fresh process per family pair.

For each family pair whose labels fold column chunks (OSNAP/TensorSRHT,
SRHT/TensorSRHT, OSNAP/TensorSketch), and for CountSketch/TensorSketch, whose
labels collapse to one bincount, a new Python process builds a static tree at
q = 4, 4096 x 3 factors, m = 1024, and sketches one 1000-nonzero label
several times. Each call prints its wall time and the minor faults
``getrusage(RUSAGE_SELF).ru_minflt`` counted across it. A fresh process
matters: how often freed blocks are faulted in again depends on the heap's
history (glibc's dynamic mmap and trim thresholds). Of the folded pairs,
SRHT/TensorSRHT and OSNAP/TensorSketch carry dense m x chunk leaf blocks,
while OSNAP/TensorSRHT leaves enter their first pairing as rows and signs
(``hash_columns``), so only its nodes hold m x chunk blocks. Usage:

    python3 scripts/label_faults.py [--calls N] [--src DIR]

``--src`` imports kronsketch from another checkout's ``src`` directory, for
example to compare against an earlier commit.
"""

import argparse
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PAIRS = [
    ("osnap", "tensorsrht"),
    ("srht", "tensorsrht"),
    ("osnap", "tensorsketch"),
    ("countsketch", "tensorsketch"),
]
Q, N_I, D_I, M, NNZ = 4, 4096, 3, 1024, 1000


def child(c_family: str, t_family: str, calls: int) -> None:
    """Build one tree and print ms and minor faults per ``sketch_vector`` call."""
    import resource
    import time

    import numpy as np

    from kronsketch.linalg import SparseVector
    from kronsketch.tree import TensorTree, TreeConfig

    rng = np.random.default_rng(7)
    factors = [rng.standard_normal((N_I, D_I)) for _ in range(Q)]
    tree = TensorTree(factors, TreeConfig(c_family, t_family, M, seed=11))
    n = N_I**Q
    b = SparseVector(n, rng.integers(0, n, size=NNZ), rng.standard_normal(NNZ))
    for call in range(1, calls + 1):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        tree.sketch_vector(b)
        ms = (time.perf_counter() - t0) * 1e3
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        print(f"{c_family}/{t_family} call {call}: {ms:.3f} ms, {faults} minor faults")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=3, help="sketch_vector calls per process")
    parser.add_argument("--src", default=str(SRC), help="directory holding the kronsketch package")
    parser.add_argument("--child", nargs=2, metavar=("C_FAMILY", "T_FAMILY"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        sys.path.insert(0, args.src)
        child(*args.child, args.calls)
        return
    print(f"q={Q}, {N_I} x {D_I} factors, m={M}, {NNZ} nonzeros, src={args.src}")
    for pair in PAIRS:
        cmd = [sys.executable, __file__, "--calls", str(args.calls), "--src", args.src, "--child", *pair]
        subprocess.run(cmd, check=True)


if __name__ == "__main__":
    main()
