"""Benchmark-local tests of the out-of-package tracer.

Run with ``python3 -m pytest -q perfbench/tests/check_tracer.py``.
"""

import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer as tracing  # noqa: E402
import kronsketch  # noqa: E402, F401
from kronsketch import sketches, tree as tree_module  # noqa: E402
from kronsketch.tree import TensorTree, TreeConfig  # noqa: E402


class ManualClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = ManualClock()
    tr = tracing.Tracer(clock)

    def inner():
        clock.now += 4

    inner = tr.wrap("inner", inner)

    def outer():
        clock.now += 10
        inner()
        clock.now += 3
        inner()
        clock.now += 7

    tr.wrap("outer", outer)()
    spans = {s.name: s for s in tr.spans}
    root = spans["outer"]
    assert root.end - root.start == 28
    assert root.self_ns == 20
    children = [s for s in tr.spans if s.parent == root.id]
    assert [s.name for s in children] == ["inner", "inner"]
    assert all(s.self_ns == 4 for s in children)
    assert tr.totals()["inner"] == [2, 8, 0]


def test_update_span_holds_one_leaf_and_one_pair_per_level():
    rng = np.random.default_rng(3)
    factors = [rng.standard_normal((8, 2)) for _ in range(4)]
    tr = tracing.Tracer()
    installed = tracing.Installed(tr)
    try:
        tree = TensorTree(factors, TreeConfig(m=16, seed=5))
        for i in range(8):
            tree.update(i % 4, rng.standard_normal((8, 2)))
            update = [s for s in tr.spans if s.name == "tree.update"][-1]
            children = Counter(s.name for s in tr.spans if s.parent == update.id)
            assert children == {"sketches.apply_base": 1, "sketches.apply_tensor_pair": 2}
            assert children["sketches.apply_tensor_pair"] == tree.recompute_counter - 1
            assert update.work == tree.recompute_counter
    finally:
        installed.restore()
    assert installed.absent == []
    assert tree_module.apply_base is sketches.apply_base
    assert not hasattr(tree_module.apply_base, "__wrapped__")
    assert not hasattr(TensorTree.update, "__wrapped__")


def test_missing_function_is_reported_absent():
    package = types.ModuleType("fakeks")
    layer = types.ModuleType("fakeks.sketches")

    def apply_base(spec, A):
        return A

    layer.apply_base = apply_base
    sys.modules.update({"fakeks": package, "fakeks.sketches": layer})
    try:
        tr = tracing.Tracer()
        installed = tracing.Installed(tr, package="fakeks")
        assert "sketches.apply_base" not in installed.absent
        assert "sketches.apply_tensor_pair" in installed.absent
        assert "tree.update" in installed.absent
        layer.apply_base(None, np.ones((2, 3)))
        installed.restore()
        assert layer.apply_base is apply_base
        metrics = tracing.layer_metrics(tr, queries=1)
        assert metrics["sketches.apply_base.calls"] == (1, "count")
        assert metrics["sketches.apply_base.elements"] == (6, "count")
        assert metrics["sketches.apply_tensor_pair.calls"] == (0, "count")
    finally:
        del sys.modules["fakeks"], sys.modules["fakeks.sketches"]
