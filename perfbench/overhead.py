"""Tracing overhead: a plain and a traced run of one workload, compared.

    python3 perfbench/overhead.py --workload update_heavy --seed 1 --seconds 20

Runs ``run.py`` with ``--trace 0`` and then ``--trace 1`` on the same seed
and prints, for every end-to-end metric, the plain value, the traced value
and their relative difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _run(args, trace: int) -> list[dict]:
    cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    plain = {k: v["value"] for k, v in _run(args, 0)[-1]["metrics"].items()}
    traced = _run(args, 1)[0]["info"]["traced_end_to_end"]
    print(f"{'metric':<22} {'plain':>12} {'traced':>12} {'change':>8}")
    for name, value in plain.items():
        change = (traced[name] - value) / value if value else float("nan")
        print(f"{name:<22} {value:>12.5g} {traced[name]:>12.5g} {change:>+8.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
