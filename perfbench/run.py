"""kronsketch benchmark: one closed-loop client, three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload update_heavy --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same workload with every layer function wrapped and
reports per-layer calls, self time and work instead; its own end-to-end
numbers go to an info line, so the tracing overhead is their difference
from a plain run (``perfbench/overhead.py`` prints it). Info lines come
first; the last line of standard output is the JSON result.

BLAS and OpenMP run one thread, pinned here before numpy loads.
"""

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    """Load kronsketch from the checkout's src/, never from anywhere else."""
    if not (SRC / "kronsketch" / "__init__.py").is_file():
        sys.exit(f"kronsketch sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import kronsketch  # noqa: F401

    if Path(kronsketch.__file__).resolve().parent != SRC / "kronsketch":
        sys.exit(f"kronsketch was imported from {kronsketch.__file__}, not {SRC}")


def _percentile(values, p):
    return float(np.percentile(values, p)) if values else float("nan")


def end_to_end(res, rss_mb) -> dict:
    ratios = res.ratios
    return {
        "setup_s": (float(np.median(res.setup_s)), "s"),
        "events_per_s": (res.events / res.busy_s if res.busy_s else float("nan"), "1/s"),
        "update_ms_p90": (_percentile(res.update_ms, 90), "ms"),
        "query_ms_p90": (_percentile(res.query_ms, 90), "ms"),
        "label_update_ms_p90": (_percentile(res.label_ms, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "cost_ratio_p50": (_percentile(ratios, 50), "ratio"),
        "guarantee_met_share": (
            1.0 - res.misses / len(ratios) if ratios else float("nan"), "share"),
    }


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        tracer = tracing.Tracer() if args.trace else workloads.NullTracer()
        if args.workload == "replay_oracle":
            manifest = workloads.replay_inputs(args.seed, workdir)
        else:
            inputs = workloads.api_inputs(args.workload, args.seed)
        installed = tracing.Installed(tracer) if args.trace else None
        try:
            if args.workload == "replay_oracle":
                res = workloads.run_replay(manifest, args.seconds, tracer)
            else:
                res, tree, b, held = workloads.run_api(
                    args.workload, inputs, args.seconds, tracer)
        finally:
            if installed is not None:
                installed.restore()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "replay_oracle":
            workloads.finish_replay(res, manifest)
        else:
            workloads.finish_api(res, tree, b, held, workdir)

    e2e = end_to_end(res, rss_mb)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": {
            "setup": len(res.setup_s), "update": len(res.update_ms),
            "query": len(res.query_ms), "label_update": len(res.label_ms),
            "verified_queries": len(res.ratios),
        },
        # medians are reported but not bounded: see perfbench/README.md
        "p50_ms": {
            "update": _percentile(res.update_ms, 50),
            "query": _percentile(res.query_ms, 50),
            "label_update": _percentile(res.label_ms, 50),
        },
        "guarantee_miss_share": res.misses / len(res.ratios) if res.ratios else None,
        "checks": res.checks,
        "waiting": "not applicable: one closed-loop client, no queue between layers",
    }
    if args.trace:
        info["absent"] = installed.absent
        info["traced_end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        metrics = tracing.layer_metrics(tracer, res.queries)
        info["self_ms_by_module"] = tracing.module_self_ms(tracer)
    else:
        metrics = e2e
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
