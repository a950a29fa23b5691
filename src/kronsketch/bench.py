"""Benchmark harness: file formats, update-stream replay, CSV reports.

File formats (all text, so scenarios can live in version control):

* KMAT matrix: first line ``rows cols``, then rows*cols whitespace-separated
  decimal floats in row-major order.
* Sparse vector: first line ``len nnz``, then nnz lines ``index value``
  with zero-based indices under the package-wide Kronecker ordering.
* Update stream: one event per line. ``U <factor-index-1-based> <B.kmat>``
  adds B to that factor, ``B <delta.spvec>`` adds a sparse delta to the
  label vector, ``Q`` runs the configured solver. Blank lines and lines
  starting with ``#`` are skipped. Relative paths are resolved against the
  stream file's directory.

Replays are deterministic given the scenario seed; wall-clock columns are
the only part of a report that varies between runs. Reported wall times
cover the data-structure operation itself, not the exact-oracle
verification that the ``oracle`` toggle adds to query events.
"""

from __future__ import annotations

import argparse
import logging
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import DimensionError, RegularizationError, SparseVector
from .oracle import (
    LeverageBaseline,
    exact_kron_regression,
    exact_lowrank,
    exact_spline,
    kron_reduction,
)
from .sketches import BaseFamily, ConfigurationError, TensorFamily, choose_m
from .solvers import (
    SplineSpec,
    lowrank_query,
    regression_query,
    spline_query,
    statistical_dimension,
)
from .tree import TensorTree, TreeConfig

logger = logging.getLogger("kronsketch.bench")

CSV_HEADER = "event,kind,wall_ns,nodes_recomputed,cost,oracle_cost,ratio"

SOLVERS = ("regression", "spline", "lowrank", "baseline")


class ParseError(ValueError):
    """Malformed input file; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


# ----------------------------------------------------------------------
# file formats


def _tokenize(data: bytes):
    """(token, byte offset) pairs for whitespace-separated tokens."""
    return [(m.group(0), m.start()) for m in re.finditer(rb"\S+", data)]


def _parse_count(token: bytes, offset: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"malformed header: {what} is not an integer", offset)
    if value < 0:
        raise ParseError(f"malformed header: negative {what}", offset)
    return value


def _parse_float(token: bytes, offset: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError("malformed value: not a decimal float", offset)
    if not math.isfinite(value):
        raise ParseError("non-finite value", offset)
    return value


def _counted_payload(path, names, size, unit):
    """The two header counts and the payload tokens of a counted text file.

    ``names`` labels the counts in errors, ``size(a, b)`` is the number of
    payload tokens they announce, and ``unit`` names those tokens; a short
    or overlong payload raises.
    """
    data = Path(path).read_bytes()
    tokens = _tokenize(data)
    if len(tokens) < 2:
        raise ParseError("missing header", 0 if not tokens else tokens[-1][1])
    a, b = (_parse_count(tok, off, name) for (tok, off), name in zip(tokens, names))
    need = size(a, b)
    payload = tokens[2:]
    if len(payload) < need:
        raise ParseError(
            f"truncated payload: expected {need} {unit}, found {len(payload)}",
            len(data),
        )
    if len(payload) > need:
        raise ParseError("trailing data after payload", payload[need][1])
    return a, b, payload


def load_matrix(path) -> np.ndarray:
    """Read a KMAT file into a matrix."""
    rows, cols, payload = _counted_payload(
        path, ("row count", "column count"), lambda r, c: r * c, "values"
    )
    values = [_parse_float(tok, off) for tok, off in payload]
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def save_matrix(path, M) -> None:
    """Write a matrix as KMAT. repr() keeps the round trip bit-exact."""
    M = np.asarray(M, dtype=np.float64)
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    lines.extend(" ".join(repr(float(x)) for x in row) for row in M)
    Path(path).write_text("\n".join(lines) + "\n")


def load_sparse_vector(path) -> SparseVector:
    """Read a sparse vector file (``len nnz`` header, then index/value pairs)."""
    length, nnz, payload = _counted_payload(
        path, ("vector length", "nonzero count"), lambda n, k: 2 * k, "tokens"
    )
    indices = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz)
    for k in range(nnz):
        tok, off = payload[2 * k]
        idx = _parse_count(tok, off, "index")
        if idx >= length:
            raise ParseError(f"index {idx} out of range [0, {length})", off)
        indices[k] = idx
        values[k] = _parse_float(*payload[2 * k + 1])
    return SparseVector(length, indices, values)


def save_sparse_vector(path, sv: SparseVector) -> None:
    lines = [f"{sv.length} {sv.nnz}"]
    lines.extend(
        f"{int(i)} {repr(float(v))}" for i, v in zip(sv.indices, sv.values)
    )
    Path(path).write_text("\n".join(lines) + "\n")


def parse_stream(path) -> list[tuple]:
    """Parse an update stream into ('U', i, path) / ('B', path) / ('Q',)."""
    path = Path(path)
    base = path.parent
    events: list[tuple] = []
    offset = 0
    for raw_line in path.read_bytes().splitlines(keepends=True):
        line = raw_line.decode().strip()
        line_off = offset
        offset += len(raw_line)
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "Q" and len(parts) == 1:
            events.append(("Q",))
        elif parts[0] == "U" and len(parts) == 3:
            try:
                index = int(parts[1])
            except ValueError:
                raise ParseError("malformed update event: bad index", line_off)
            if index < 1:
                raise ParseError("factor index is 1-based", line_off)
            events.append(("U", index, str(base / parts[2])))
        elif parts[0] == "B" and len(parts) == 2:
            events.append(("B", str(base / parts[1])))
        else:
            raise ParseError(f"unrecognized stream line {line!r}", line_off)
    return events


# ----------------------------------------------------------------------
# scenario and records


@dataclass
class Scenario:
    """Everything one benchmark run needs, file paths included."""

    factors: list = field(default_factory=list)
    label: str | None = None
    solver: str = "regression"
    cbase: str = "countsketch"
    tbase: str = "tensorsketch"
    eps: float = 0.5
    delta: float = 0.1
    cfactor: float = 1.0
    seed: int = 0
    adaptive: bool = False
    oracle: bool = False
    stream: str | None = None
    out: str | None = None
    spline_l: str | None = None
    lam: float = 0.0
    rank: int | None = None
    seeds: int = 1
    resume_tree: str | None = None
    save_tree: str | None = None

    def validate(self) -> None:
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        if not (0.0 < self.eps < 1.0 and 0.0 < self.delta < 1.0):
            raise ValueError("eps and delta must lie in (0, 1)")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if not self.factors and not self.resume_tree:
            raise ValueError("need factor paths (or a tree snapshot to resume)")
        if self.resume_tree:
            if self.factors:
                raise ValueError("--resume-tree takes its factors from the snapshot, not --factors")
            if self.solver == "baseline":
                raise ValueError("the baseline solver keeps no tree: it cannot --resume-tree")
            if self.seeds > 1:
                raise ValueError("a resumed tree is one draw: --resume-tree needs --seeds 1")
        if self.solver == "lowrank":
            if self.rank is None:
                raise ValueError("lowrank solver needs --rank")
        elif self.label is None:
            raise ValueError(f"{self.solver} solver needs --label")
        if self.solver == "spline" and self.spline_l is None:
            raise ValueError("spline solver needs --spline-L")
        for p in list(self.factors) + [
            self.label, self.stream, self.spline_l, self.resume_tree
        ]:
            if p is not None and not Path(p).exists():
                raise FileNotFoundError(p)


@dataclass
class BenchRecord:
    """One replay event: timing plus achieved/oracle costs for queries."""

    event: int
    kind: str
    wall_ns: int
    nodes_recomputed: int
    cost: float | None = None
    oracle_cost: float | None = None
    ratio: float | None = None

    def __post_init__(self):
        if (
            self.ratio is not None
            and self.oracle_cost is not None
            and self.oracle_cost > 0.0
            and self.ratio < 1.0 - 1e-9
        ):
            raise ValueError(
                f"ratio {self.ratio} below 1 with positive oracle cost"
            )


def _ratio(cost: float, oracle_cost: float) -> float | None:
    # Near-zero optima make the quotient numerically meaningless.
    if oracle_cost <= 1e-12 * max(1.0, cost):
        return None
    return cost / oracle_cost


# ----------------------------------------------------------------------
# replay


def _tree_sketch_dim(scenario: Scenario, factors, spline) -> int:
    cbase, tbase = scenario.cbase, scenario.tbase  # choose_m checks the names
    q = len(factors)
    d = math.prod(f.shape[1] for f in factors)
    if scenario.solver == "lowrank":
        m = choose_m(
            cbase, tbase, scenario.rank, q, scenario.eps, scenario.delta,
            scenario.cfactor,
        )
        return max(m, scenario.rank)
    if scenario.solver == "spline":
        try:
            dim = statistical_dimension(kron_reduction(factors).R, spline)
        except RegularizationError:
            logger.warning(
                "spline rank condition failed; falling back to fundamental_dim = d"
            )
            dim = d
        m = choose_m(
            cbase, tbase, dim, q, scenario.eps, scenario.delta,
            scenario.cfactor, eps_exponent=1,
        )
    else:
        m = choose_m(
            cbase, tbase, d, q, scenario.eps, scenario.delta, scenario.cfactor
        )
    if m < d:
        logger.info("clamping sketching dimension m=%d up to d=%d", m, d)
    return max(m, d)


class _Run:
    """State for one seeded replay of a scenario."""

    def __init__(self, scenario: Scenario, seed: int):
        self.sc = scenario
        self.seed = seed
        self.records: list[BenchRecord] = []
        self.b: SparseVector | None = None
        if scenario.label is not None:
            self.b = load_sparse_vector(scenario.label)
        self.spline = None
        if scenario.solver == "spline":
            self.spline = SplineSpec(load_matrix(scenario.spline_l), scenario.lam)
        self.baseline: LeverageBaseline | None = None
        self.tree: TensorTree | None = None
        self.b_sketch: np.ndarray | None = None
        self.b_generation = 0

        start = time.perf_counter_ns()
        factors = [load_matrix(p) for p in scenario.factors]
        if scenario.solver == "baseline":
            self.baseline = LeverageBaseline(
                factors, self.b, scenario.eps, scenario.delta,
                scenario.cfactor, seed,
            )
            nodes = 0
        else:
            if scenario.resume_tree:
                self.tree = TensorTree.load(scenario.resume_tree)
                cfg = self.tree.config
                if scenario.adaptive and not cfg.adaptive:
                    raise ConfigurationError(
                        "--adaptive needs a snapshot of a tree built with adaptive"
                    )
                if (scenario.cbase, scenario.tbase) != (cfg.c_family, cfg.t_family):
                    raise ConfigurationError(
                        f"--cbase {scenario.cbase} --tbase {scenario.tbase} differ "
                        f"from the snapshot's {cfg.c_family.value} {cfg.t_family.value}"
                    )
            else:
                m = _tree_sketch_dim(scenario, factors, self.spline)
                config = TreeConfig(
                    scenario.cbase, scenario.tbase, m, scenario.adaptive, seed
                )
                self.tree = TensorTree(factors, config)
            if self.b is not None:
                self.b_sketch = self.tree.sketch_vector(self.b)
                self.b_generation = self.tree.generation
            nodes = self.tree.node_count
        self.records.append(
            BenchRecord(0, "init", time.perf_counter_ns() - start, nodes)
        )

    @property
    def factors(self):
        if self.baseline is not None:
            return self.baseline.factors
        return self.tree.factors

    def do_update(self, event: int, index_1based: int, path: str) -> None:
        i = index_1based - 1
        B = load_matrix(path)
        start = time.perf_counter_ns()
        if self.baseline is not None:
            self.baseline.update(i, B)
            nodes = 0
        elif self.sc.adaptive:
            self.tree.update_adaptive(i, B)
            nodes = self.tree.recompute_counter
        else:
            self.tree.update(i, B)
            nodes = self.tree.recompute_counter
        wall = time.perf_counter_ns() - start
        self.records.append(BenchRecord(event, "update", wall, nodes))

    def do_label_update(self, event: int, path: str) -> None:
        delta = load_sparse_vector(path)
        start = time.perf_counter_ns()
        if self.b is None:
            raise ValueError("label update in a scenario without --label")
        if delta.length != self.b.length:
            raise DimensionError("label delta length mismatch")
        self.b = SparseVector(
            self.b.length,
            np.concatenate([self.b.indices, delta.indices]),
            np.concatenate([self.b.values, delta.values]),
        )
        if self.baseline is not None:
            self.baseline.update_label(delta)
        elif (
            self.b_sketch is not None
            and self.b_generation == self.tree.generation
        ):
            self.b_sketch = self.b_sketch + self.tree.sketch_vector(delta)
        wall = time.perf_counter_ns() - start
        self.records.append(BenchRecord(event, "label", wall, 0))

    def _fresh_b_sketch(self) -> np.ndarray:
        if self.b_generation != self.tree.generation:
            self.b_sketch = self.tree.sketch_vector(self.b)
            self.b_generation = self.tree.generation
        return self.b_sketch

    def do_query(self, event: int) -> None:
        sc = self.sc
        start = time.perf_counter_ns()
        if sc.solver == "regression":
            x = regression_query(self.tree, self._fresh_b_sketch())
        elif sc.solver == "spline":
            x = spline_query(self.tree, self._fresh_b_sketch(), self.spline)
        elif sc.solver == "lowrank":
            low = lowrank_query(self.tree, sc.rank)
        else:
            x = self.baseline.query()
        wall = time.perf_counter_ns() - start

        oracle_cost = None
        if sc.solver == "lowrank":
            R = kron_reduction(self.factors).R
            cost = float(np.linalg.norm(R - (R @ low.Uk.T) @ low.Uk))
            if sc.oracle:
                oracle_cost = exact_lowrank(self.factors, sc.rank)
        else:
            cost = kron_reduction(self.factors, self.b).cost(x, self.spline)
            if sc.oracle and sc.solver == "spline":
                oracle_cost = exact_spline(self.factors, self.b, self.spline).opt_cost
            elif sc.oracle:
                oracle_cost = exact_kron_regression(self.factors, self.b).opt_cost
        ratio = _ratio(cost, oracle_cost) if oracle_cost is not None else None
        self.records.append(
            BenchRecord(event, "query", wall, 0, cost, oracle_cost, ratio)
        )


def replay(scenario: Scenario) -> list[BenchRecord]:
    """Run a scenario (over scenario.seeds seeds) and collect records.

    Seed t of an aggregated run uses scenario.seed + t; records are merged
    in seed order, event indices restarting at 0 for each seed.
    """
    scenario.validate()
    events = parse_stream(scenario.stream) if scenario.stream else []
    records: list[BenchRecord] = []
    for t in range(scenario.seeds):
        run = _Run(scenario, scenario.seed + t)
        for event_index, event in enumerate(events, start=1):
            if event[0] == "U":
                run.do_update(event_index, event[1], event[2])
            elif event[0] == "B":
                run.do_label_update(event_index, event[1])
            else:
                run.do_query(event_index)
        if scenario.save_tree and run.tree is not None:
            run.tree.save(scenario.save_tree)
        records.extend(run.records)
    return records


# ----------------------------------------------------------------------
# reports


def _fmt(value) -> str:
    return "" if value is None else f"{value:.17g}"


def _csv_lines(records) -> list[str]:
    """The header, then one CSV row per record."""
    return [CSV_HEADER] + [
        f"{r.event},{r.kind},{r.wall_ns},{r.nodes_recomputed},"
        f"{_fmt(r.cost)},{_fmt(r.oracle_cost)},{_fmt(r.ratio)}"
        for r in records
    ]


def report(records, path) -> None:
    """Write records as CSV with the fixed header."""
    if not records:
        raise ValueError("no records to report")
    Path(path).write_text("\n".join(_csv_lines(records)) + "\n")


def read_report(path) -> list[BenchRecord]:
    """Parse a report CSV back into records."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError("missing or wrong CSV header", 0)
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 7:
            raise ParseError(f"malformed CSV row {line!r}", 0)
        out.append(
            BenchRecord(
                int(cells[0]),
                cells[1],
                int(cells[2]),
                int(cells[3]),
                *(float(c) if c else None for c in cells[4:7]),
            )
        )
    return out


# ----------------------------------------------------------------------
# command line


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronsketch-bench",
        description=(
            "Replay an update stream against a sketched Kronecker product "
            "and report per-event timing and solution quality."
        ),
        # unset flags stay out of the namespace, so Scenario's defaults apply
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--factors", nargs="+", metavar="KMAT",
                        help="factor matrix files, in Kronecker order")
    parser.add_argument("--label", help="sparse label vector file")
    parser.add_argument("--solver", choices=SOLVERS)
    parser.add_argument("--cbase", choices=[f.value for f in BaseFamily])
    parser.add_argument("--tbase", choices=[f.value for f in TensorFamily])
    parser.add_argument("--eps", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--cfactor", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--adaptive", action="store_true",
                        help="redraw sketches along each update path")
    parser.add_argument("--oracle", action="store_true",
                        help="run the exact solver after each query")
    parser.add_argument("--stream", help="update stream file")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    parser.add_argument("--spline-L", dest="spline_l", help="penalty matrix file")
    parser.add_argument("--lambda", dest="lam", type=float,
                        help="penalty weight for the spline solver")
    parser.add_argument("--rank", type=int, help="target rank for lowrank")
    parser.add_argument("--seeds", type=int,
                        help="aggregate this many consecutive seeds")
    parser.add_argument("--save-tree", dest="save_tree",
                        help="write a KTTR5 tree snapshot (config, factors, "
                             "spec draw indices, generation) after the run")
    parser.add_argument("--resume-tree", dest="resume_tree",
                        help="rebuild the tree from a KTTR5 snapshot instead of "
                             "building it from --factors; --cbase/--tbase must "
                             "match the snapshot, and m comes from it, so "
                             "--eps/--delta/--cfactor do not apply")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = _build_parser().parse_args(argv)
    scenario = Scenario(**vars(args))
    records = replay(scenario)
    if scenario.out:
        report(records, scenario.out)
    else:
        print("\n".join(_csv_lines(records)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
