"""Cohort-scaling benchmark: peak memory and wall-clock vs. cohort size.

Demonstrates the client pool's headline property — a run with
``num_clients=1000, clients_per_round=16`` costs roughly what a 16-client
run costs, because memory and per-round setup track the *participants*, not
the cohort.  Each cohort size runs the same churn workload (identical
``clients_per_round``, rounds, local updates and train set) in a fresh
subprocess, so each measurement gets its own peak-RSS high-water mark.

Writes ``BENCH_cohort.json`` with, per cohort size:

* ``peak_rss_kb`` — the subprocess's ``ru_maxrss`` after the run,
* ``build_seconds`` / ``run_seconds`` — experiment assembly and execution
  wall-clock,
* ``pool`` — hydration/eviction counters (the 16-client baseline's arena
  holds its whole cohort, so it reports zero evictions),
* the run's result summary (accuracy, dropped clients, virtual time),

plus the scaling assertions:

* **bounded growth** — the largest cohort's peak RSS stays under
  ``--max-growth`` (default 3.0) times the 16-client baseline's, and
* **sub-linearity** — RSS grows by a far smaller factor than the cohort
  does between the two largest sizes.

Usage::

    PYTHONPATH=src python benchmarks/bench_cohort.py              # full ladder
    PYTHONPATH=src python benchmarks/bench_cohort.py --quick      # CI ladder
    PYTHONPATH=src python benchmarks/bench_cohort.py --cohorts 16 1000
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Workload shared by every cohort size: only ``num_clients`` varies.
WORKLOAD = {
    "dataset": "mnist",
    "architecture": "mnist-cnn",
    "algorithm": "fedavg",
    "partition": "noniid",
    "clients_per_round": 16,
    "rounds": 3,
    "local_updates": 4,
    "profile_batches": 0,
    "train_size": 4096,
    "test_size": 256,
    "batch_size": 16,
    "dtype": "float32",
    "seed": 42,
}


def _child_main(num_clients: int) -> None:
    """Run one cohort in this (fresh) process and print its measurements."""
    import numpy as np  # noqa: F401  (imported before timing: not charged to build)

    from repro.experiments.workloads import scenario_dynamics
    from repro.fl.config import ExperimentConfig
    from repro.fl.runtime import build_experiment

    config = ExperimentConfig(
        num_clients=num_clients,
        dynamics=scenario_dynamics("churn"),
        **WORKLOAD,
    )
    start = time.perf_counter()
    handle = build_experiment(config)
    built = time.perf_counter()
    result = handle.run()
    finished = time.perf_counter()
    payload = {
        "num_clients": num_clients,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "build_seconds": built - start,
        "run_seconds": finished - built,
        "pool": handle.pool.describe(),
        "summary": result.summary(),
    }
    print(json.dumps(payload))


def _measure(num_clients: int) -> dict:
    """Run one cohort in a subprocess and parse its JSON measurement line."""
    pythonpath = os.pathsep.join(
        part for part in (str(SRC), os.environ.get("PYTHONPATH", "")) if part
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(num_clients)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"cohort {num_clients} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_bench(cohorts, max_growth: float, output: Path) -> dict:
    rows = []
    for num_clients in cohorts:
        row = _measure(num_clients)
        rows.append(row)
        print(
            f"  cohort {num_clients:>5}: peak RSS {row['peak_rss_kb'] / 1024:7.1f} MiB  "
            f"build {row['build_seconds']:.2f}s  run {row['run_seconds']:.2f}s  "
            f"peak hydrated {row['pool']['peak_hydrated']}",
            file=sys.stderr,
        )

    baseline, largest = rows[0], rows[-1]
    growth = largest["peak_rss_kb"] / baseline["peak_rss_kb"]
    cohort_factor = largest["num_clients"] / rows[-2]["num_clients"] if len(rows) > 1 else 1.0
    rss_factor = (
        largest["peak_rss_kb"] / rows[-2]["peak_rss_kb"] if len(rows) > 1 else 1.0
    )
    report = {
        "workload": WORKLOAD,
        "scenario": "churn",
        "cohorts": rows,
        "assertions": {
            "baseline_clients": baseline["num_clients"],
            "largest_clients": largest["num_clients"],
            "rss_growth_vs_baseline": growth,
            "max_allowed_growth": max_growth,
            "bounded_growth_ok": growth < max_growth,
            "last_step_cohort_factor": cohort_factor,
            "last_step_rss_factor": rss_factor,
            "sublinear_ok": rss_factor < cohort_factor,
        },
    }
    output.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"results written to {output}", file=sys.stderr)

    if not report["assertions"]["bounded_growth_ok"]:
        raise SystemExit(
            f"FAIL: {largest['num_clients']}-client peak RSS is {growth:.2f}x the "
            f"{baseline['num_clients']}-client baseline (limit {max_growth}x)"
        )
    if not report["assertions"]["sublinear_ok"]:
        raise SystemExit(
            f"FAIL: RSS grew {rss_factor:.2f}x over the last {cohort_factor:.1f}x "
            "cohort step — memory is not sub-linear in cohort size"
        )
    print(
        f"OK: {largest['num_clients']} clients cost {growth:.2f}x the "
        f"{baseline['num_clients']}-client baseline's memory "
        f"(RSS {rss_factor:.2f}x over the last {cohort_factor:.1f}x cohort step)",
        file=sys.stderr,
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument(
        "--cohorts",
        type=int,
        nargs="+",
        default=None,
        help="cohort sizes to measure (ascending; first is the baseline)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small ladder for CI (16/250/1000)"
    )
    parser.add_argument(
        "--max-growth",
        type=float,
        default=3.0,
        help="largest cohort's allowed peak-RSS multiple of the baseline (default 3.0)",
    )
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_cohort.json"), help="JSON output path"
    )
    args = parser.parse_args(argv)

    if args.child is not None:
        _child_main(args.child)
        return 0

    cohorts = args.cohorts
    if cohorts is None:
        cohorts = [16, 250, 1000] if args.quick else [16, 64, 250, 1000, 2000]
    if sorted(cohorts) != list(cohorts):
        parser.error("--cohorts must be ascending (first entry is the baseline)")
    run_bench(cohorts, max_growth=args.max_growth, output=args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
