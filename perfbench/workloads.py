"""Seeded inputs and closed-loop runs of the three benchmark workloads.

Every input is drawn from the ``--seed`` before any timing starts; the
program only ever sees these generated arrays or files. One client sends
each event after the previous one returned (a closed loop), so no layer
ever queues behind another.

* ``update_heavy``: CountSketch/TensorSketch, static mode, q=4 factors of
  4096 x 3 (n = 4096^4, d = 81), m = 1024, a sparse label with 1000
  nonzeros. Nine factor updates per regression query and a small label
  delta after every fourth query, driven through the library API. Delta
  propagation up the tree dominates.
* ``adaptive_label``: the same shape under OSNAP/TensorSRHT in adaptive
  mode, alternating update and query, a one-entry label delta after each
  query. Each update redraws the path specs and bumps ``generation``, so
  each query first re-sketches the whole label.
* ``replay_oracle``: SRHT/TensorSRHT at desk size through
  ``kronsketch.bench.replay`` with the exact oracles on, over generated
  KMAT, sparse-vector and stream files, for the regression, spline,
  low-rank and leverage-baseline solvers. The label is ``A x0 + noise`` so
  the cost ratios say something. Only here do file parsing, the per-query
  ``n x d`` product and the oracles run.
"""

from __future__ import annotations

import math
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from kronsketch import bench, solvers
from kronsketch.linalg import SparseVector
from kronsketch.tree import TensorTree, TreeConfig

# Accuracy targets and sketch constants pinned in tests/test_acceptance.py.
EPS, DELTA = 0.5, 0.1
THRESHOLD = {"regression": 1.0 + EPS, "baseline": 1.0 + EPS, "spline": 1.5, "lowrank": 1.5}

SETUP_REPS = 5          # set-ups per run; setup_s is their median
MIN_SAMPLES = 100       # timed samples of each event kind before a run may stop
HARD_STOP_S = 140.0     # stop extending a run here, whatever the counts
UPDATE, QUERY, LABEL = 0, 1, 2

# library-API workloads
API_SHAPES = {
    "update_heavy": dict(c_family="countsketch", t_family="tensorsketch",
                         adaptive=False, updates_per_query=9, queries_per_label_delta=4,
                         label_delta_nnz=16),
    "adaptive_label": dict(c_family="osnap", t_family="tensorsrht",
                           adaptive=True, updates_per_query=1, queries_per_label_delta=1,
                           label_delta_nnz=1),
}
Q, N_I, D_I, M = 4, 4096, 3, 1024
# Each label delta adds entries to the label, so the adaptive workload's
# frequent deltas are single entries: its re-sketch cost stays near steady.
LABEL_NNZ, LABEL_DELTA_NNZ = 1000, 16
DELTA_POOL = 8          # pregenerated deltas per factor, and label deltas
API_BLOCKS = 20_000     # stream length in query blocks; the loop wraps round
VERIFIED_QUERIES = 100  # the first queries, checked against the exact optimum

# replay workload
R_Q, R_N_I, R_D_I = 2, 64, 3
R_LAMBDA, R_RANK = 1.0, 2
R_BLOCKS = 39           # [U, 3 x Q, (B)] blocks in one stream file; it ends with Q
R_QUERIES_PER_UPDATE = 3
QUALITY_PASSES = 2      # passes (with distinct tree seeds) checked by the oracles
SOLVERS = {
    "regression": dict(cfactor=0.05),
    "spline": dict(cfactor=0.25, lam=R_LAMBDA),
    "lowrank": dict(cfactor=1.0, rank=R_RANK),
    "baseline": dict(cfactor=1.0),
}

WORKLOADS = ("update_heavy", "adaptive_label", "replay_oracle")


@dataclass
class Result:
    setup_s: list = field(default_factory=list)
    update_ms: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    label_ms: list = field(default_factory=list)
    events: int = 0
    busy_s: float = 0.0
    ratios: list = field(default_factory=list)
    misses: int = 0
    attempted: int = 0
    failed: int = 0
    queries: int = 0    # answered, set-up warm-ups included
    checks: dict = field(default_factory=dict)

    def enough(self) -> bool:
        return min(len(self.update_ms), len(self.query_ms), len(self.label_ms)) >= MIN_SAMPLES

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if self.failed <= 3:
            print(f"failed: {what}", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc(file=sys.stderr)


class NullTracer:
    event = None


# ----------------------------------------------------------------------
# inputs


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _event_codes(updates: int, queries: int, blocks: int, label_every: int):
    """Blocks of updates then queries; every label_every-th block, from the first, ends in a label delta."""
    codes = []
    for k in range(blocks):
        codes += [UPDATE] * updates + [QUERY] * queries
        if k % label_every == 0:
            codes.append(LABEL)
    return np.array(codes, dtype=np.int64)


def api_inputs(workload: str, seed: int) -> dict:
    """All inputs of a library-API workload, as named arrays."""
    shape = API_SHAPES[workload]
    rng = _rng(workload, seed)
    n = N_I**Q
    out = {f"factor{i}": rng.standard_normal((N_I, D_I)) for i in range(Q)}
    for i in range(Q):
        for j in range(DELTA_POOL):
            out[f"delta{i}.{j}"] = 0.1 * rng.standard_normal((N_I, D_I))
    out["label.idx"] = rng.integers(0, n, LABEL_NNZ)
    out["label.val"] = rng.standard_normal(LABEL_NNZ)
    for j in range(DELTA_POOL):
        out[f"label_delta{j}.idx"] = rng.integers(0, n, shape["label_delta_nnz"])
        out[f"label_delta{j}.val"] = rng.standard_normal(shape["label_delta_nnz"])
    codes = _event_codes(
        shape["updates_per_query"], 1, API_BLOCKS, shape["queries_per_label_delta"]
    )
    out["events"] = np.column_stack([
        codes,
        rng.integers(0, Q, codes.size),
        rng.integers(0, DELTA_POOL, codes.size),
    ])
    out["tree_seeds"] = rng.integers(0, 1 << 63, SETUP_REPS)
    return out


def _write_kmat(path: Path, M) -> None:
    rows = [" ".join(repr(float(v)) for v in row) for row in M]
    path.write_text(f"{M.shape[0]} {M.shape[1]}\n" + "\n".join(rows) + "\n")


def _write_spvec(path: Path, n: int, idx, val) -> None:
    lines = [f"{int(i)} {repr(float(v))}" for i, v in zip(idx, val)]
    path.write_text(f"{n} {len(lines)}\n" + "\n".join(lines) + "\n")


def replay_inputs(seed: int, directory) -> dict:
    """Write the replay workload's files into ``directory``; return a manifest."""
    d = Path(directory)
    rng = _rng("replay_oracle", seed)
    n = R_N_I**R_Q
    factors = [rng.standard_normal((R_N_I, R_D_I)) for _ in range(R_Q)]
    names = []
    for i, f in enumerate(factors):
        names.append(f"factor{i}.kmat")
        _write_kmat(d / names[-1], f)
    A = reduce(np.kron, factors)
    label = A @ rng.standard_normal(A.shape[1]) + rng.standard_normal(n)
    _write_spvec(d / "label.spvec", n, np.arange(n), label)
    dim = A.shape[1]
    L = np.eye(dim - 1, dim) - np.eye(dim - 1, dim, 1)
    _write_kmat(d / "L.kmat", L)
    for i in range(R_Q):
        for j in range(DELTA_POOL):
            _write_kmat(d / f"delta{i}.{j}.kmat",
                        0.1 * rng.standard_normal((R_N_I, R_D_I)))
    label_deltas = []
    for j in range(DELTA_POOL):
        idx = rng.integers(0, n, LABEL_DELTA_NNZ)
        val = rng.standard_normal(LABEL_DELTA_NNZ)
        _write_spvec(d / f"label_delta{j}.spvec", n, idx, val)
        label_deltas.append((idx, val))
    codes = _event_codes(1, R_QUERIES_PER_UPDATE, R_BLOCKS, 4)
    final_idx, final_val = [np.arange(n)], [label]
    with_label, without_label = [], []
    for code in codes:
        if code == UPDATE:
            i, j = int(rng.integers(0, R_Q)), int(rng.integers(0, DELTA_POOL))
            line = f"U {i + 1} delta{i}.{j}.kmat"
            with_label.append(line)
            without_label.append(line)
        elif code == LABEL:
            j = int(rng.integers(0, DELTA_POOL))
            with_label.append(f"B label_delta{j}.spvec")
            final_idx.append(label_deltas[j][0])
            final_val.append(label_deltas[j][1])
        else:
            with_label.append("Q")
            without_label.append("Q")
    (d / "stream.txt").write_text("\n".join(with_label) + "\n")
    (d / "stream_nolabel.txt").write_text("\n".join(without_label) + "\n")
    (d / "warmup.txt").write_text("Q\n")
    return {
        "dir": d,
        "factors": [str(d / name) for name in names],
        "final_label": SparseVector(n, np.concatenate(final_idx), np.concatenate(final_val)),
        "seeds": [int(s) for s in rng.integers(0, 1 << 63, SETUP_REPS + QUALITY_PASSES)],
        "events": {"with_label": len(with_label), "without_label": len(without_label)},
    }


def input_bytes(workload: str, seed: int) -> bytes:
    """Every generated input of a workload, concatenated in a fixed order."""
    if workload in API_SHAPES:
        arrays = api_inputs(workload, seed)
        return b"".join(k.encode() + arrays[k].tobytes() for k in sorted(arrays))
    with tempfile.TemporaryDirectory() as tmp:
        replay_inputs(seed, tmp)
        files = sorted(Path(tmp).iterdir())
        return b"".join(p.name.encode() + p.read_bytes() for p in files)


# ----------------------------------------------------------------------
# output checks


def kron_regression_costs(factors, b: SparseVector, x) -> tuple[float, float]:
    """Achieved and optimal ||(kron of factors) x - b|| from the factors alone.

    Uses A^T A = kron(A_i^T A_i), opt^2 = ||b||^2 - ||kron(Q_i)^T b||^2 with
    A_i = Q_i R_i, and rows of A only at the nonzeros of b, so the n x d
    product is never formed. Assumes every factor has full column rank.
    """
    uniq, inv = np.unique(b.indices, return_inverse=True)
    v = np.bincount(inv, weights=b.values, minlength=uniq.size)
    digits = []
    j = uniq.copy()
    for f in reversed(factors):
        digits.append(j % f.shape[0])
        j //= f.shape[0]
    digits.reverse()

    def rows(mats):
        out = mats[0][digits[0]]
        for mat, dig in zip(mats[1:], digits[1:]):
            out = (out[:, :, None] * mat[dig][:, None, :]).reshape(uniq.size, -1)
        return out

    atb = rows(factors).T @ v
    proj = rows([np.linalg.qr(f)[0] for f in factors]).T @ v
    gram = reduce(np.kron, [f.T @ f for f in factors])
    bb = float(v @ v)
    achieved = x @ gram @ x - 2.0 * (x @ atb) + bb
    return math.sqrt(max(achieved, 0.0)), math.sqrt(max(bb - proj @ proj, 0.0))


def _relative_gap(a, b) -> float:
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def check_levels(tree: TensorTree, snapshot: Path) -> tuple[bool, str]:
    """Stored nodes against a save -> load rebuild from the factors."""
    tree.save(snapshot)
    fresh = TensorTree.load(snapshot)
    gaps = [
        _relative_gap(a, b) if a.shape == b.shape else math.inf
        for la, lb in zip(tree.levels, fresh.levels) for a, b in zip(la, lb)
    ]
    worst = max(gaps) if len(gaps) == fresh.node_count else math.inf
    return worst <= 1e-9, f"max relative node gap {worst:.3e}"


def check_label(tree: TensorTree, b: SparseVector, held) -> tuple[bool, str]:
    """The label sketch a run holds against a fresh sketch_vector(b)."""
    if held is None:
        return False, "no label sketch for the tree's current generation"
    gap = _relative_gap(held, tree.sketch_vector(b))
    return gap <= 1e-9, f"relative gap {gap:.3e}"


def _run_check(res: Result, name: str, fn, *args) -> None:
    res.attempted += 1
    try:
        ok, detail = fn(*args)
    except Exception:
        ok, detail = False, "raised"
        res.fail(f"check {name}")
    else:
        if not ok:
            res.fail(f"check {name}: {detail}")
    res.checks[name] = {"ok": ok, "detail": detail}


def _verify(res: Result, solver: str, ratio) -> None:
    if ratio is None:
        return
    res.ratios.append(ratio)
    res.misses += ratio > THRESHOLD[solver] * (1.0 + 1e-12)


# ----------------------------------------------------------------------
# workload runs


def run_api(workload, inputs, seconds, tracer=NullTracer()):
    """Set up and run a library-API workload; returns (result, tree, label, held sketch)."""
    shape = API_SHAPES[workload]
    adaptive = shape["adaptive"]
    n = N_I**Q
    factors = [inputs[f"factor{i}"] for i in range(Q)]
    deltas = [[inputs[f"delta{i}.{j}"] for j in range(DELTA_POOL)] for i in range(Q)]
    label_deltas = [
        SparseVector(n, inputs[f"label_delta{j}.idx"], inputs[f"label_delta{j}.val"])
        for j in range(DELTA_POOL)
    ]
    b = SparseVector(n, inputs["label.idx"], inputs["label.val"])
    res = Result()

    for seed in inputs["tree_seeds"]:
        start = time.perf_counter()
        config = TreeConfig(shape["c_family"], shape["t_family"], M,
                            adaptive=adaptive, seed=int(seed))
        tree = TensorTree(factors, config)
        b_sketch = tree.sketch_vector(b)
        solvers.regression_query(tree, b_sketch)
        res.setup_s.append(time.perf_counter() - start)
        res.queries += 1
    b_generation = tree.generation
    update = tree.update_adaptive if adaptive else tree.update

    events = inputs["events"]
    loop_start = time.perf_counter()
    verify_s = 0.0
    k = 0
    while True:
        code, i, j = (int(v) for v in events[k % len(events)])
        k += 1
        tracer.event = k
        x = None
        start = time.perf_counter()
        try:
            if code == UPDATE:
                update(i, deltas[i][j])
            elif code == LABEL:
                delta = label_deltas[j]
                b = SparseVector(n, np.concatenate([b.indices, delta.indices]),
                                 np.concatenate([b.values, delta.values]))
                if b_generation == tree.generation:
                    b_sketch = b_sketch + tree.sketch_vector(delta)
            else:
                if b_generation != tree.generation:
                    b_sketch = tree.sketch_vector(b)
                    b_generation = tree.generation
                # looked up on the module, so a traced run sees the wrapper
                x = solvers.regression_query(tree, b_sketch)
            ok = True
        except Exception:
            ok = False
            res.fail(f"event {k}")
        elapsed = time.perf_counter() - start
        res.attempted += 1
        if ok:
            res.events += 1
            [res.update_ms, res.query_ms, res.label_ms][code].append(elapsed * 1e3)
        if ok and code == QUERY:
            res.queries += 1
            if not np.isfinite(x).all():
                res.fail(f"event {k}: non-finite x")
            elif len(res.ratios) < VERIFIED_QUERIES:
                verify_start = time.perf_counter()
                achieved, opt = kron_regression_costs(tree.factors, b, x)
                _verify(res, "regression", achieved / opt)
                verify_s += time.perf_counter() - verify_start
        res.busy_s = time.perf_counter() - loop_start - verify_s
        done = code == QUERY and res.busy_s >= seconds and res.enough()
        if done or res.busy_s >= HARD_STOP_S:
            break
    tracer.event = None
    return res, tree, b, (b_sketch if b_generation == tree.generation else None)


def finish_api(res: Result, tree, b, held, workdir) -> None:
    """End-of-run checks of a library-API workload."""
    _run_check(res, "levels_match_rebuild", check_levels, tree, Path(workdir) / "tree.kttr")
    _run_check(res, "label_sketch_matches", check_label, tree, b, held)


def _scenario(manifest, solver, stream, seed) -> bench.Scenario:
    d = manifest["dir"]
    if stream != "warmup.txt" and solver == "lowrank":
        stream = "stream_nolabel.txt"
    return bench.Scenario(
        factors=manifest["factors"],
        label=None if solver == "lowrank" else str(d / "label.spvec"),
        solver=solver, cbase="srht", tbase="tensorsrht", eps=EPS, delta=DELTA,
        seed=seed, oracle=True, stream=str(d / stream),
        spline_l=str(d / "L.kmat") if solver == "spline" else None,
        **SOLVERS[solver],
    )


def run_replay(manifest, seconds, tracer=NullTracer()) -> Result:
    res = Result()
    seeds = manifest["seeds"]
    for seed in seeds[:SETUP_REPS]:
        start = time.perf_counter()
        for solver in SOLVERS:
            bench.replay(_scenario(manifest, solver, "warmup.txt", seed))
            res.queries += 1
        res.setup_s.append(time.perf_counter() - start)

    quality_seeds = seeds[SETUP_REPS:]
    p = 0
    while True:
        seed = quality_seeds[p % QUALITY_PASSES]
        for solver in SOLVERS:
            tracer.event = (p, solver)
            count = manifest["events"]["without_label" if solver == "lowrank" else "with_label"]
            start = time.perf_counter()
            try:
                records = bench.replay(_scenario(manifest, solver, "stream.txt", seed))
            except Exception:
                res.attempted += count
                res.fail(f"pass {p} {solver}", count)
                continue
            res.busy_s += time.perf_counter() - start
            for r in records[1:]:
                res.attempted += 1
                res.events += 1
                ms = r.wall_ns / 1e6
                if r.kind == "update":
                    res.update_ms.append(ms)
                elif r.kind == "label":
                    res.label_ms.append(ms)
                else:
                    res.query_ms.append(ms)
                    res.queries += 1
                    if r.cost is None or not math.isfinite(r.cost):
                        res.fail(f"pass {p} {solver}: non-finite cost")
                    elif p < QUALITY_PASSES:
                        _verify(res, solver, r.ratio)
        p += 1
        done = res.busy_s >= seconds and res.enough() and p >= QUALITY_PASSES
        if done or res.busy_s >= HARD_STOP_S:
            break
    tracer.event = None
    return res


def finish_replay(res: Result, manifest) -> None:
    """End-of-run checks on the live trees of one more pass per tree solver.

    ``replay`` keeps its trees to itself, so the solver entry points in
    ``kronsketch.bench`` are wrapped for this pass to see the tree and the
    label sketch each query was given; the stream ends with a query.
    """
    seed = manifest["seeds"][SETUP_REPS]
    for solver in ("regression", "spline", "lowrank"):
        name = f"{solver}_query"
        original = getattr(bench, name)
        seen = {}

        def capture(tree, *args, _original=original, _seen=seen):
            _seen["tree"], _seen["args"] = tree, args
            return _original(tree, *args)

        setattr(bench, name, capture)
        try:
            bench.replay(_scenario(manifest, solver, "stream.txt", seed))
        except Exception:
            res.attempted += 1
            res.fail(f"check pass {solver}")
            continue
        finally:
            setattr(bench, name, original)
        tree = seen.get("tree")
        _run_check(res, f"{solver}.levels_match_rebuild", check_levels,
                   tree, manifest["dir"] / f"{solver}.kttr")
        if solver != "lowrank":
            _run_check(res, f"{solver}.label_sketch_matches", check_label,
                       tree, manifest["final_label"], seen["args"][0])
