"""Per-layer tracing of kronsketch from outside the package.

The traced run rebinds the public functions of each module (and a few
methods) by name to wrappers that record one span per call: name, start,
end, the span that was open when it started, and the stream event it
belongs to. A layer's self time is its span's duration minus the time
covered by its child spans. Nothing inside ``src/`` is changed; a function
that no longer exists under its name is reported as absent instead of
failing the run.

Functions imported with ``from .x import f`` are bound in several module
namespaces, so every binding that holds the original object is rebound.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import time
from collections import namedtuple

import numpy as np

Span = namedtuple("Span", "id parent event name start end self_ns work")


def _arg(args, i):
    return args[i] if len(args) > i else None


def _cols(args, result):
    return result.shape[1]


def _nnz(args, result):
    b = _arg(args, 1)
    nnz = getattr(b, "nnz", None)
    return int(nnz) if nnz is not None else int(np.count_nonzero(b))


def _file_bytes(args, result):
    path = _arg(args, 0)
    return os.path.getsize(path) if path is not None else 0


# metric prefix -> (module of the package, attribute path, work name, work counter)
LAYERS = {
    "sketches.apply_base": (
        "sketches", "apply_base", "elements", lambda a, r: int(np.size(_arg(a, 1)))),
    "sketches.apply_tensor_pair": ("sketches", "apply_tensor_pair", "out_cols", _cols),
    "sketches.apply_tensor_cols": ("sketches", "apply_tensor_cols", "cols", _cols),
    "sketches.base_columns": ("sketches", "base_columns", "cols", _cols),
    "tree.build": ("tree", "TensorTree.__init__", None, None),
    "tree.update": (
        "tree", "TensorTree.update", "nodes", lambda a, r: a[0].recompute_counter),
    "tree.update_adaptive": ("tree", "TensorTree.update_adaptive", None, None),
    "tree.sketch_vector": ("tree", "TensorTree.sketch_vector", "nnz", _nnz),
    "solvers.regression_query": ("solvers", "regression_query", None, None),
    "solvers.spline_query": ("solvers", "spline_query", None, None),
    "solvers.lowrank_query": ("solvers", "lowrank_query", None, None),
    "solvers.statistical_dimension": ("solvers", "statistical_dimension", None, None),
    "solvers.materialize_lowrank": ("solvers", "materialize_lowrank", None, None),
    "linalg.least_squares": ("linalg", "least_squares", None, None),
    "linalg.thin_svd": ("linalg", "thin_svd", None, None),
    "linalg.kron_chain": ("linalg", "kron_chain", "elements", lambda a, r: int(r.size)),
    "oracle.exact_kron_regression": ("oracle", "exact_kron_regression", None, None),
    "oracle.exact_spline": ("oracle", "exact_spline", None, None),
    "oracle.exact_lowrank": ("oracle", "exact_lowrank", None, None),
    "oracle.LeverageBaseline.query": ("oracle", "LeverageBaseline.query", None, None),
    "bench.load_matrix": ("bench", "load_matrix", "bytes", _file_bytes),
    "bench.load_sparse_vector": ("bench", "load_sparse_vector", "bytes", _file_bytes),
    "bench.parse_stream": ("bench", "parse_stream", "bytes", _file_bytes),
}

# per-query ratios: metric -> (layer, work name)
PER_QUERY = {
    "tree.sketch_vector.nnz_per_query": ("tree.sketch_vector", "nnz"),
    "linalg.kron_chain.elements_per_query": ("linalg.kron_chain", "elements"),
}


class Tracer:
    """In-memory span recorder; ``clock`` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.event = None
        self._open: list[list] = []  # [span id, child ns] per open span
        self._ids = itertools.count()

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            frame = [next(self._ids), 0]
            self._open.append(frame)
            result, ok = None, False
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = self.clock()
                self._open.pop()
                if parent is not None:
                    parent[1] += end - start
                amount = work(args, result) if work and ok else 0
                self.spans.append(Span(
                    frame[0], parent[0] if parent else None, self.event, name,
                    start, end, end - start - frame[1], amount,
                ))

        return traced

    def totals(self) -> dict:
        """name -> [calls, self ns, work] over all recorded spans."""
        out: dict = {}
        for s in self.spans:
            row = out.setdefault(s.name, [0, 0, 0])
            row[0] += 1
            row[1] += s.self_ns
            row[2] += s.work
        return out


class Installed:
    """Wrappers rebound into a package; ``restore`` puts the originals back."""

    def __init__(self, tracer: Tracer, package: str = "kronsketch"):
        self.absent: list[str] = []
        self._undo: list[tuple] = []
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for metric, (layer, path, _, work) in LAYERS.items():
            home = sys.modules.get(f"{package}.{layer}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(metric)
                continue
            wrapper = tracer.wrap(metric, original, work)
            targets = [owner] if owner_name else [
                m for m in modules if vars(m).get(attr) is original
            ]
            for target in targets:
                setattr(target, attr, wrapper)
                self._undo.append((target, attr, original))

    def restore(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()


def layer_metrics(tracer: Tracer, queries: int) -> dict:
    """Per-layer metrics in BENCHMARK.json form; absent layers read 0."""
    totals = tracer.totals()
    metrics = {}
    for metric, (_, _, work_name, _) in LAYERS.items():
        calls, self_ns, work = totals.get(metric, (0, 0, 0))
        metrics[f"{metric}.calls"] = (calls, "count")
        metrics[f"{metric}.self_ms"] = (self_ns / 1e6, "ms")
        if work_name:
            unit = "bytes" if work_name == "bytes" else "count"
            metrics[f"{metric}.{work_name}"] = (work, unit)
    for metric, (layer, work_name) in PER_QUERY.items():
        work = totals.get(layer, (0, 0, 0))[2]
        metrics[metric] = (work / max(queries, 1), f"{work_name}/query")
    return metrics


def module_self_ms(tracer: Tracer) -> dict:
    """Self time summed per module, largest first."""
    by_module: dict = {}
    for name, (_, self_ns, _) in tracer.totals().items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + self_ns / 1e6
    return dict(sorted(by_module.items(), key=lambda kv: -kv[1]))
