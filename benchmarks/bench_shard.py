"""BENCH_shard: sharded compute-plane scaling ladder + memory ceiling.

Measures the multi-process shard executor (:mod:`repro.simulation.shard`)
against the single-process run of the same workload:

* **throughput ladder** — wall-clock round throughput at 1/2/4 shards on a
  compute-heavy metro-scale workload (``local_updates`` raised so worker
  training dominates the round), with the bitwise-parity invariant checked
  inline: every rung must produce byte-identical round records,
* **memory ceiling** — a continent-scale run (100k virtual clients) that
  must complete with every worker's peak RSS bounded well below the
  parent's (workers hold one client's data slice and one model, never the
  dataset or the client pool).

The ≥2x round-throughput target at 4 shards is a *parallelism* claim, so
it is only evaluated when the host actually has ≥4 usable cores; on
smaller hosts the ladder is still recorded (and parity still enforced)
but the speedup verdict is reported as not evaluable — a single-core
container cannot honestly demonstrate multi-process scaling.

Results are written to ``BENCH_shard.json``::

    python benchmarks/bench_shard.py            # full: metro ladder + continent
    python benchmarks/bench_shard.py --quick    # city ladder, no continent run
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import time
from typing import Dict, List, Optional

import conftest  # noqa: F401  (makes repro importable from a source tree)

from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.runtime import build_experiment

#: Evaluating the 4-shard speedup target needs at least this many cores.
MIN_CORES_FOR_TARGET = 4
#: Round-throughput multiple the 4-shard rung must reach on capable hosts.
SPEEDUP_TARGET = 2.0
#: Every worker's peak RSS must stay below this fraction of the parent's
#: on the continent run (the parent holds the dataset + 100k-client pool;
#: workers only ever see per-client slices).
WORKER_RSS_FRACTION = 0.5


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _maxrss_mb() -> float:
    from repro.simulation.shard import _maxrss_kb

    return _maxrss_kb() / 1024.0


def _run_instrumented(config) -> Dict[str, object]:
    """Run one config, returning wall-clock, records, and shard RSS."""
    with build_experiment(config) as handle:
        start = time.perf_counter()
        handle.federator.start()
        handle.cluster.run()
        wall_s = time.perf_counter() - start
        executor = handle.cluster.shard_executor
        workers = executor.pool.snapshot() if executor is not None else []
        result = handle.federator.result
    return {
        "wall_s": wall_s,
        "records": [dataclasses.asdict(record) for record in result.rounds],
        "rounds": len(result.rounds),
        "worker_maxrss_mb": [entry["maxrss_kb"] / 1024.0 for entry in workers if entry],
    }


def _ladder_config(shards: int, quick: bool):
    scale = SCALES["city" if quick else "metro"]
    return evaluation_config(
        "mnist",
        "fedavg",
        "iid",
        scale,
        seed=7,
        scenario="stable",
        shards=shards,
        # Compute-heavy round: more local steps per client so worker-side
        # training dominates dispatch/collect overhead.
        local_updates=8 if quick else 24,
        rounds=2,
    )


def run_shard_bench(quick: bool = False, output: Optional[str] = "BENCH_shard.json") -> Dict[str, object]:
    cores = _usable_cores()
    ladder: List[Dict[str, object]] = []
    baseline_records = None
    baseline_throughput = None
    parity = True

    for shards in (1, 2, 4):
        config = _ladder_config(shards, quick)
        run = _run_instrumented(config)
        throughput = run["rounds"] / run["wall_s"]
        if shards == 1:
            baseline_records = run["records"]
            baseline_throughput = throughput
        else:
            parity = parity and run["records"] == baseline_records
        ladder.append(
            {
                "shards": shards,
                "wall_s": round(run["wall_s"], 3),
                "rounds_per_s": round(throughput, 4),
                "speedup": round(throughput / baseline_throughput, 3),
                "worker_maxrss_mb": [round(mb, 1) for mb in run["worker_maxrss_mb"]],
            }
        )

    speedup_at_4 = ladder[-1]["speedup"]
    target_evaluable = cores >= MIN_CORES_FOR_TARGET
    target_met = bool(speedup_at_4 >= SPEEDUP_TARGET) if target_evaluable else None

    continent: Dict[str, object] = {"skipped": True}
    if not quick:
        config = evaluation_config(
            "mnist",
            "fedavg",
            "iid",
            SCALES["continent"],
            seed=7,
            scenario="stable",
            shards=4,
        )
        run = _run_instrumented(config)
        parent_mb = _maxrss_mb()
        worker_peak = max(run["worker_maxrss_mb"], default=0.0)
        continent = {
            "skipped": False,
            "shards": 4,
            "num_clients": SCALES["continent"].num_clients,
            "rounds": run["rounds"],
            "wall_s": round(run["wall_s"], 3),
            "parent_maxrss_mb": round(parent_mb, 1),
            "worker_maxrss_mb": [round(mb, 1) for mb in run["worker_maxrss_mb"]],
            "worker_rss_bounded": bool(
                worker_peak > 0.0 and worker_peak <= parent_mb * WORKER_RSS_FRACTION
            ),
        }

    results: Dict[str, object] = {
        "bench": "shard",
        "mode": "quick" if quick else "full",
        "cores": cores,
        "ladder": ladder,
        "bitwise_parity": parity,
        "speedup_at_4_shards": speedup_at_4,
        "speedup_target": SPEEDUP_TARGET,
        "speedup_target_evaluable": target_evaluable,
        "speedup_target_met": target_met,
        "continent": continent,
    }
    if output:
        with open(output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return results


def render_shard_bench(results: Dict[str, object]) -> str:
    lines = [
        f"BENCH_shard ({results['mode']} ladder, {results['cores']} core(s))",
        "",
        f"{'shards':>6}  {'wall_s':>8}  {'rounds/s':>9}  {'speedup':>8}  worker peak RSS (MB)",
    ]
    for rung in results["ladder"]:
        rss = ", ".join(f"{mb:.0f}" for mb in rung["worker_maxrss_mb"]) or "-"
        lines.append(
            f"{rung['shards']:>6}  {rung['wall_s']:>8.2f}  {rung['rounds_per_s']:>9.3f}"
            f"  {rung['speedup']:>7.2f}x  {rss}"
        )
    lines.append("")
    lines.append(f"bitwise parity across rungs: {'ok' if results['bitwise_parity'] else 'FAILED'}")
    if results["speedup_target_evaluable"]:
        verdict = "met" if results["speedup_target_met"] else "NOT met"
        lines.append(
            f"4-shard speedup target (>= {results['speedup_target']:.1f}x): "
            f"{results['speedup_at_4_shards']:.2f}x — {verdict}"
        )
    else:
        lines.append(
            f"4-shard speedup target (>= {results['speedup_target']:.1f}x): "
            f"not evaluable on a {results['cores']}-core host (needs >= {MIN_CORES_FOR_TARGET})"
        )
    continent = results["continent"]
    if continent.get("skipped"):
        lines.append("continent run: skipped (quick mode)")
    else:
        bounded = "bounded" if continent["worker_rss_bounded"] else "NOT bounded"
        lines.append(
            f"continent ({continent['num_clients']} clients, {continent['shards']} shards): "
            f"{continent['rounds']} rounds in {continent['wall_s']:.1f}s — "
            f"worker RSS {bounded} (peak {max(continent['worker_maxrss_mb']):.0f} MB "
            f"vs parent {continent['parent_maxrss_mb']:.0f} MB)"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced CI-sized ladder")
    parser.add_argument("--output", default="BENCH_shard.json", help="result JSON path")
    args = parser.parse_args()
    results = run_shard_bench(quick=args.quick, output=args.output)
    print(render_shard_bench(results))
    print(f"\nresults written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
