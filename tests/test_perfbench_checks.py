"""The benchmark's own checks pass against the checkout's sources.

``perfbench/tests`` names its files ``check_*.py`` so that this suite does not
collect them; they run here in one fresh pytest process, from the repo root,
as the benchmark's README runs them. The test only reads ``perfbench/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_checks_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests/check_inputs.py", "perfbench/tests/check_tracer.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
