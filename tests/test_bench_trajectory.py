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
