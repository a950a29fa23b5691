"""Every layer the benchmark traces still resolves to a function of the package.

perfbench/tracer.py rebinds package functions by name and reads a name it
cannot find as 0, so a rename or deletion would silently zero that layer's
per-layer metrics.
"""

import importlib.util
from pathlib import Path

from kronsketch import bench, linalg, oracle, sketches, solvers, tree  # noqa: F401

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = sketches.apply_base
    installed = tracing.Installed(tracing.Tracer())
    try:
        assert installed.absent == []
    finally:
        installed.restore()
    assert sketches.apply_base is original
