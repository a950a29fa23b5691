import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)

END_TO_END = [
    {"name": "update_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


PER_LAYER = [
    {"name": "sketches.apply_base.calls", "unit": "count", "better": "higher"},
    {"name": "sketches.apply_base.self_ms", "unit": "ms", "better": "lower"},
    {"name": "sketches.apply_base.elements", "unit": "count", "better": "lower"},
    {"name": "sketches.base_columns.calls", "unit": "count", "better": "higher"},
    {"name": "sketches.base_columns.self_ms", "unit": "ms", "better": "lower"},
    {"name": "tree.build.calls", "unit": "count", "better": "higher"},
    {"name": "tree.build.self_ms", "unit": "ms", "better": "lower"},
    {"name": "tree.sketch_vector.nnz_per_query", "unit": "nnz/query", "better": "lower"},
]


def run_output(seed, update_ms, events, failed=0, trace=0):
    info = {"workload": "adaptive_label", "seed": seed, "seconds": 35, "trace": trace,
            "environment": {"nproc": 2, "numpy": "2.0"}}
    result = {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {
            "update_ms_p90": {"value": update_ms, "unit": "ms"},
            "events_per_s": {"value": events, "unit": "1/s"},
        },
    }
    return "starting\n" + json.dumps({"info": info}) + "\n" + json.dumps(result) + "\n"


def test_two_result_lines_aggregate(tmp_path):
    parent = [bench_trajectory.read_run(run_output(7, 50.0, 13.0))]
    change = [bench_trajectory.read_run(run_output(7, 8.0, 12.0, failed=1))]
    entry = bench_trajectory.make_entry(
        "abc123", "faster draw", parent, change, {"end_to_end": END_TO_END})
    assert entry["seeds"] == [7] and entry["seconds"] == [35]
    assert entry["environments"] == [{"nproc": 2, "numpy": "2.0"}]
    workload = entry["workloads"]["adaptive_label"]
    assert workload["runs"] == {"parent": 1, "change": 1} and workload["pairs"] == 1
    assert workload["failed_share"] == {"parent": 0.0, "change": 0.01}
    update = workload["metrics"]["update_ms_p90"]
    assert update["parent"] == {"median": 50.0, "q1": 50.0, "q3": 50.0, "iqr": 0.0}
    assert update["change"]["median"] == 8.0
    assert update["change_wins"] == 1  # lower is better
    assert workload["metrics"]["events_per_s"]["change_wins"] == 0  # higher is better

    path = tmp_path / "BENCH_trajectory.json"
    bench_trajectory.append(entry, path)
    bench_trajectory.append(entry, path)
    assert json.loads(path.read_text()) == [entry, entry]


def test_traced_run_rejected():
    with pytest.raises(ValueError):
        bench_trajectory.read_run(run_output(7, 50.0, 13.0, trace=1))


def traced_output(seed, base_calls, base_ms, columns_calls, columns_ms):
    """A ``--trace 1`` run: per-layer metrics on the result line, end to end on info."""
    info = {"workload": "adaptive_label", "seed": seed, "seconds": 35, "trace": 1,
            "environment": {"nproc": 2, "numpy": "2.0"},
            "traced_end_to_end": {"update_ms_p90": 999.0, "events_per_s": 0.001}}
    metrics = {
        "sketches.apply_base.calls": base_calls,
        "sketches.apply_base.self_ms": base_ms,
        "sketches.apply_base.elements": 3 * base_calls,
        "sketches.base_columns.calls": columns_calls,
        "sketches.base_columns.self_ms": columns_ms,
        "tree.build.calls": 0,
        "tree.build.self_ms": 0.0,
        "tree.sketch_vector.nnz_per_query": 10.0,
    }
    result = {"correct": True, "attempted": 100, "failed": 0,
              "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    return json.dumps({"info": info}) + "\n" + json.dumps(result) + "\n"


def test_untraced_run_rejected_as_traced():
    with pytest.raises(ValueError):
        bench_trajectory.read_run(run_output(7, 50.0, 13.0), traced=True)


def test_traced_layers_summarized_apart_from_end_to_end():
    benchmark = {"end_to_end": END_TO_END, "per_layer": PER_LAYER}
    parent = [bench_trajectory.read_run(run_output(7, 50.0, 13.0))]
    change = [bench_trajectory.read_run(run_output(7, 8.0, 12.0))]
    parent_traced = [
        bench_trajectory.read_run(traced_output(8, 100, 50.0, 10, 4.0), traced=True),
        bench_trajectory.read_run(traced_output(9, 300, 90.0, 30, 3.0), traced=True),
    ]
    change_traced = [
        bench_trajectory.read_run(traced_output(8, 100, 5.0, 0, 0.0), traced=True)]
    entry = bench_trajectory.make_entry(
        "abc123", "faster apply", parent, change, benchmark, parent_traced, change_traced)
    plain = bench_trajectory.make_entry("abc123", "faster apply", parent, change, benchmark)
    # the traced runs' slow end-to-end numbers enter no spread, and their seeds no pair
    assert entry["workloads"] == plain["workloads"]
    assert entry["seeds"] == plain["seeds"] == [7]
    assert "layers" not in plain

    layers = entry["layers"]["adaptive_label"]
    assert layers["runs"] == {"parent": 2, "change": 1} and layers["seeds"] == [8, 9]
    assert list(layers["layers"]) == ["sketches.apply_base", "sketches.base_columns"]
    base = layers["layers"]["sketches.apply_base"]
    assert base["parent"] == {"calls": 200.0, "self_ms": 70.0, "self_ms_per_call": 0.4}
    assert base["change"] == {"calls": 100.0, "self_ms": 5.0, "self_ms_per_call": 0.05}
    columns = layers["layers"]["sketches.base_columns"]
    assert columns["parent"]["self_ms_per_call"] == 0.25
    assert columns["change"] == {"calls": 0.0, "self_ms": 0.0, "self_ms_per_call": None}


def test_traced_layers_need_both_sides():
    traced = [bench_trajectory.read_run(traced_output(8, 1, 1.0, 1, 1.0), traced=True)]
    with pytest.raises(ValueError):
        bench_trajectory.summarize_layers(traced, [], PER_LAYER)
