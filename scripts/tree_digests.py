#!/usr/bin/env python3
"""Digest seeded sequences of tree operations, to compare two versions bit for bit.

Each sequence builds one adaptive tree, for every family pair, q = 1-5 and
equal or unequal row counts, and runs seeded steps: adaptive and static
updates with failing calls mixed in (a wrong shape, a non-finite entry, an
index out of range, an overflowing refold). After every step it hashes the
levels, the draw indices, the generation, the snapshot bytes, the sketch of
a fixed sparse label and the answers (or error types) of the regression,
spline and low-rank queries. Every sequence runs three ways: with the real
helper thread, with an inline stand-in executor, and on one CPU, and each
run prints one line with two digests, ``name/mode tree-sha256 label-sha256``:
the first of the tree state (levels, draws, generation, snapshot bytes), the
second of the label sketch and the query answers, so a change that regroups
label sums shows apart from one that moves a tree. The script reads only
what the tree has long exposed (``levels``, ``draws``, ``generation``,
``save``, ``sketch_vector``, ``_leaf_spec``), so the outputs of two
checkouts can be compared with ``diff``. Usage:

    python3 scripts/tree_digests.py [--seed S] [--only NAME ...]
"""

import argparse
import hashlib
import itertools
import sys
import tempfile
import warnings
from concurrent import futures
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kronsketch import tree as tree_module
from kronsketch.linalg import SparseVector
from kronsketch.sketches import BaseFamily, TensorFamily, base_columns
from kronsketch.solvers import SplineSpec, lowrank_query, regression_query, spline_query
from kronsketch.tree import TensorTree, TreeConfig

M = 16  # factors have M + 1 .. M + 4 rows, so an overflowing update always exists
LABEL_NNZ = 2 * 4096 + 5  # several chunks on every folded label path
STEPS = 12  # steps in each sequence
KINDS = ("adaptive", "adaptive", "static", "static", "shape", "nonfinite", "index", "overflow")


class InlineWorker:
    """Stands in for the helper thread's executor: runs each task at submit."""

    @staticmethod
    def submit(fn, *args):
        future = futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def sequences(seed: int):
    """(name, seed) of every sequence, in a fixed order."""
    cases = itertools.product(BaseFamily, TensorFamily, range(1, 6), ("equal", "unequal"))
    for t, (c, tf, q, rows) in enumerate(cases):
        yield f"{c.value}-{tf.value}-q{q}-{rows}", seed * 1000 + t


def overflowing(tree, i, adaptive):
    """B that signs every row as one output row of the leaf spec the update
    will use, so that the row's sum leaves float range (rows > m)."""
    n, d = tree.factors[i].shape
    spec = tree._leaf_spec(n, max(tree.draws) + 1 if adaptive else tree.draws[i])
    C = base_columns(spec, np.arange(n))
    return 1.7e308 * np.sign(C[np.abs(C).sum(axis=1).argmax()])[:, None] * np.ones((1, d))


def outcome(fn, *args):
    """The bytes of fn's answer, or the name of the error it raised."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc).__name__.encode()
    return np.asarray(getattr(out, "Uk", out)).tobytes()


def run(name: str, seed: int, workdir: Path) -> str:
    c, t, q, rows = name.split("-")
    rng = np.random.default_rng(seed)
    q = int(q[1:])
    n_rows = [M + 2] * q if rows == "equal" else [int(r) for r in rng.integers(M + 1, M + 5, size=q)]
    factors = [rng.standard_normal((r, int(rng.integers(1, 3)))) for r in n_rows]
    tree = TensorTree(factors, TreeConfig(c, t, M, True, seed))
    n = int(np.prod(n_rows))
    label = SparseVector(n, rng.integers(0, n, size=LABEL_NNZ), rng.standard_normal(LABEL_NNZ))
    d = int(np.prod([f.shape[1] for f in factors]))
    spline = SplineSpec(np.eye(d), 0.5)
    state, answers, path = hashlib.sha256(), hashlib.sha256(), workdir / "tree.kttr"
    for step in range(STEPS):
        kind = KINDS[int(rng.integers(0, len(KINDS)))] if step else "adaptive"
        i = int(rng.integers(0, q))
        B = rng.standard_normal(tree.factors[i].shape)
        adaptive = kind == "adaptive" or bool(rng.integers(0, 2))
        if kind == "shape":
            B = B[:, :1].T
        elif kind == "nonfinite":
            B[0, -1] = np.nan
        elif kind == "index":
            i = q
        elif kind == "overflow":
            B = overflowing(tree, i, adaptive)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                (tree.update_adaptive if adaptive else tree.update)(i, B)
        except (ValueError, IndexError) as exc:
            state.update(type(exc).__name__.encode())
        tree.save(path)
        state.update(path.read_bytes())
        state.update(repr((tree.draws, tree.generation)).encode())
        for level in tree.levels:
            for node in level:
                state.update(node.tobytes())
        b_sketch = tree.sketch_vector(label)
        answers.update(b_sketch.tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            answers.update(outcome(regression_query, tree, b_sketch))
            answers.update(outcome(spline_query, tree, b_sketch, spline))
            answers.update(outcome(lowrank_query, tree, 2))
    return f"{state.hexdigest()} {answers.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these sequences")
    args = parser.parse_args(argv)
    modes = {
        "helper": (lambda: 2, tree_module._worker),
        "inline": (lambda: 2, InlineWorker),
        "one-cpu": (lambda: 1, tree_module._worker),
    }
    usable_cpus, worker = tree_module._usable_cpus, tree_module._worker
    with tempfile.TemporaryDirectory(prefix="tree-digests-") as workdir:
        for name, seed in sequences(args.seed):
            if args.only and name not in args.only:
                continue
            for mode, (cpus, executor) in modes.items():
                tree_module._usable_cpus, tree_module._worker = cpus, executor
                try:
                    print(f"{name}/{mode} {run(name, seed, Path(workdir))}", flush=True)
                finally:
                    tree_module._usable_cpus, tree_module._worker = usable_cpus, worker
                    tree_module._worker.submit(int).result()  # the helper's draws have landed
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
