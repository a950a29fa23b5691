#!/usr/bin/env python3
"""Append one parent-versus-change entry to BENCH_trajectory.json.

Each input file is the standard output of one ``perfbench/run.py`` run:
its ``info`` line names the workload and seed, and its last JSON line holds
the end-to-end metrics of a ``--trace 0`` run, or the per-layer metrics of a
``--trace 1`` run. Run the parent commit and the change on the same seeds,
alternating which side goes first, then from the repo root:

    python3 scripts/bench_trajectory.py --parent-commit 789714c \\
        --change-title "OSNAP hashes in one vectorized draw" \\
        --parent-runs runs/*.parent.*.out --change-runs runs/*.change.*.out \\
        --parent-traced traced/*.parent.*.out --change-traced traced/*.change.*.out

The entry records the run environments (CPU count, library versions) and,
per workload and per ``BENCHMARK.json`` end-to-end metric, each side's
median and quartiles, and how many seed-matched pairs the change won (ties
count for neither side). Traced runs, which are optional, add per workload
and side the median calls, self time and self time per call of every
``BENCHMARK.json`` layer that ran; they never enter the end-to-end figures,
as tracing slows every call. The change is named by a description, as the
commit that carries the entry cannot name its own hash.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"


def read_run(text: str, traced: bool = False) -> dict:
    """Workload, seed, failure counts and metric values of one run's output.

    The run must be traced (``--trace 1``, per-layer metrics) exactly when
    ``traced`` is set, so the two kinds of metric cannot be mixed up.
    """
    lines = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
    info = next(line["info"] for line in lines if "info" in line)
    if bool(info["trace"]) != traced:
        kind = "per-layer" if info["trace"] else "end-to-end"
        raise ValueError(f"{info['workload']} seed {info['seed']} reports {kind} metrics")
    result = lines[-1]
    return {
        "workload": info["workload"],
        "seed": info["seed"],
        "seconds": info["seconds"],
        "environment": info["environment"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def _spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1)}


def summarize(parent_runs, change_runs, end_to_end) -> dict:
    """Per-workload parent and change spreads of every end-to-end metric."""
    workloads = {}
    for name in sorted({r["workload"] for r in parent_runs + change_runs}):
        sides = {
            "parent": {r["seed"]: r for r in parent_runs if r["workload"] == name},
            "change": {r["seed"]: r for r in change_runs if r["workload"] == name},
        }
        if not sides["parent"] or not sides["change"]:
            raise ValueError(f"workload {name} needs runs of both sides")
        paired = sorted(sides["parent"].keys() & sides["change"].keys())
        entry = {
            "runs": {side: len(runs) for side, runs in sides.items()},
            "failed_share": {
                side: sum(r["failed"] for r in runs.values())
                / max(1, sum(r["attempted"] for r in runs.values()))
                for side, runs in sides.items()
            },
            "pairs": len(paired),
            "metrics": {},
        }
        for metric in end_to_end:
            key, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {
                side: {s: r["metrics"][key] for s, r in runs.items()}
                for side, runs in sides.items()
            }
            entry["metrics"][key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **{side: _spread(list(v.values())) for side, v in values.items()},
                "change_wins": sum(
                    sign * (values["change"][s] - values["parent"][s]) > 0
                    for s in paired
                ),
            }
        workloads[name] = entry
    return workloads


def _layer_medians(runs, layer) -> dict:
    calls = [r["metrics"][f"{layer}.calls"] for r in runs]
    self_ms = [r["metrics"][f"{layer}.self_ms"] for r in runs]
    per_call = [t / c for t, c in zip(self_ms, calls) if c]
    return {
        "calls": float(np.median(calls)),
        "self_ms": float(np.median(self_ms)),
        "self_ms_per_call": float(np.median(per_call)) if per_call else None,
    }


def summarize_layers(parent_traced, change_traced, per_layer) -> dict:
    """Per-workload parent and change medians of every traced layer that ran."""
    layers = [m["name"][:-len(".calls")] for m in per_layer
              if m["name"].endswith(".calls")]
    workloads = {}
    for name in sorted({r["workload"] for r in [*parent_traced, *change_traced]}):
        sides = {
            "parent": [r for r in parent_traced if r["workload"] == name],
            "change": [r for r in change_traced if r["workload"] == name],
        }
        if not sides["parent"] or not sides["change"]:
            raise ValueError(f"workload {name} needs traced runs of both sides")
        ran = [layer for layer in layers if any(
            r["metrics"][f"{layer}.calls"] for runs in sides.values() for r in runs)]
        workloads[name] = {
            "runs": {side: len(runs) for side, runs in sides.items()},
            "seeds": sorted({r["seed"] for runs in sides.values() for r in runs}),
            "layers": {
                layer: {side: _layer_medians(runs, layer) for side, runs in sides.items()}
                for layer in ran
            },
        }
    return workloads


def make_entry(parent_commit, change, parent_runs, change_runs, benchmark,
               parent_traced=(), change_traced=()) -> dict:
    runs = parent_runs + change_runs
    traced = [*parent_traced, *change_traced]
    entry = {
        "parent": parent_commit,
        "change": change,
        "seconds": sorted({r["seconds"] for r in runs + traced}),
        "seeds": sorted({r["seed"] for r in runs}),
        "environments": [json.loads(e) for e in sorted(
            {json.dumps(r["environment"], sort_keys=True) for r in runs + traced})],
        "workloads": summarize(parent_runs, change_runs, benchmark["end_to_end"]),
    }
    if traced:
        entry["layers"] = summarize_layers(
            parent_traced, change_traced, benchmark["per_layer"])
    return entry


def append(entry, path=TRAJECTORY) -> None:
    trajectory = json.loads(path.read_text()) if path.exists() else []
    trajectory.append(entry)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-title", required=True, help="what the change does")
    parser.add_argument("--parent-runs", nargs="+", required=True,
                        help="parent run outputs")
    parser.add_argument("--change-runs", nargs="+", required=True,
                        help="change run outputs")
    parser.add_argument("--parent-traced", nargs="*", default=[],
                        help="parent --trace 1 run outputs")
    parser.add_argument("--change-traced", nargs="*", default=[],
                        help="change --trace 1 run outputs")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    def read(paths, traced=False):
        return [read_run(Path(p).read_text(), traced) for p in paths]

    entry = make_entry(
        args.parent_commit, args.change_title,
        read(args.parent_runs), read(args.change_runs), benchmark,
        read(args.parent_traced, True), read(args.change_traced, True))
    append(entry)
    json.dump(entry, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
