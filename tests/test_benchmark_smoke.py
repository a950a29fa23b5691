"""Every declared benchmark workload runs for one second and reports a clean result.

Each workload runs ``perfbench/run.py`` in a fresh process, as the benchmark
does, from the checkout's sources. The test only reads ``perfbench/`` and
``BENCHMARK.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_clean(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(result["metrics"])
