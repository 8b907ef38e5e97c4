"""Pooled sweeps: speed and determinism at bench scale.

Runs the Figure 6-style (dataset x algorithm) grid through
:func:`repro.api.sweep` once in-process (``workers=1``) and once in a
process pool, and checks the invariant the whole subsystem rests on:
per-label summaries are byte-identical regardless of how the sweep was
executed.  The printed table reports both wall-clocks; the speedup
depends on the core count of the machine (a single-core CI runner will show parity plus a small pool
overhead, a workstation shows near-linear scaling across cells).
"""

from __future__ import annotations

import json
import time

from conftest import run_once

import repro.api as api
from repro.experiments.parallel import default_workers
from repro.experiments.report import format_table
from repro.experiments.workloads import evaluation_config, scale_from_env


def _grid():
    scale = scale_from_env()
    return {
        f"{dataset}/{algorithm}": evaluation_config(dataset, algorithm, "noniid", scale, seed=42)
        for dataset in ("mnist", "fmnist")
        for algorithm in ("fedavg", "tifl", "aergia")
    }


def test_parallel_sweep_matches_serial(benchmark, print_figure, monkeypatch):
    configs = _grid()
    # Time execution: a default store would replay the second leg.
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)

    start = time.perf_counter()
    serial = api.sweep(configs, workers=1)
    serial_s = time.perf_counter() - start

    workers = default_workers()
    start = time.perf_counter()
    parallel = run_once(benchmark, api.sweep, configs, workers=workers)
    parallel_s = time.perf_counter() - start

    rows = [
        ["serial", serial_s, 1],
        ["parallel", parallel_s, workers],
    ]
    print_figure(
        format_table(
            headers=["path", "wall_seconds", "workers"],
            rows=rows,
            title=f"Pooled sweep on {len(configs)} cells "
            f"(speedup {serial_s / parallel_s:.2f}x)",
        )
    )

    # Determinism: identical per-label summaries regardless of execution path.
    for label in configs:
        lhs = json.dumps(serial.results[label].summary(), sort_keys=True)
        rhs = json.dumps(parallel.results[label].summary(), sort_keys=True)
        assert lhs == rhs, f"serial/parallel summary diverged for {label}"
