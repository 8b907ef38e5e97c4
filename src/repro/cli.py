"""Command-line entry point for the Aergia reproduction.

``python -m repro`` (or the installed ``repro`` console script) exposes the
experiment harness without writing any Python:

``repro run``
    One experiment (algorithm x dataset x partition) at a chosen scale,
    streamed round by round through :mod:`repro.api`.
``repro sweep``
    A dataset x algorithm grid, executed through the sweep scheduler: store
    hits replayed, the rest run in a process pool, optionally under a
    budget and resumable.
``repro figures``
    Regenerate one or more figures/tables of the paper and print their
    text renderings.
``repro report``
    Re-render summary tables from a persisted results directory alone
    (see ``--results-dir`` / :class:`repro.api.RunStore`).
``repro serve``
    Long-lived experiment server: submit specs over HTTP, stream rounds
    live as JSONL, feed device check-ins into running scenarios; SIGTERM
    drains via checkpoints and a restart resumes bitwise-identically.

Every subcommand accepts ``--scale {smoke,bench,full}`` (defaulting to the
``REPRO_SCALE`` environment variable) and the sweep-shaped ones accept
``--workers`` and ``--results-dir``.

The CLI is a thin consumer of :mod:`repro.api`: every name it accepts
(``--algorithm``, ``--scenario``, ``--dataset``, ``--scale``) comes from
the central registries in :mod:`repro.registry`, so the help text, the
``repro list`` catalogue and the library's own error messages can never
enumerate different sets.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import repro.api as api
from repro.experiments.report import render_network_counters, render_summaries, render_table1
from repro.experiments.workloads import (
    SCALES,
    ScaleProfile,
    available_scenarios,
    baseline_algorithms,
    evaluation_config,
    known_datasets,
)
from repro.fl.runtime import available_algorithms
from repro.registry import load_plugins, registries


# ---------------------------------------------------------------------------
# Figure registry: name -> callable(scale, seed, workers) -> printable rendering
# ---------------------------------------------------------------------------
def _figure_registry() -> Dict[str, Callable[[ScaleProfile, Optional[int], Optional[int]], str]]:
    from repro.experiments import figures as F

    def scaled(func):
        def runner(scale: ScaleProfile, seed: Optional[int], workers: Optional[int]) -> str:
            seeded = {} if seed is None else {"seed": seed}
            return func(scale=scale, workers=workers, **seeded)["render"]

        return runner

    def unscaled(func):
        return lambda scale, seed, workers: func()["render"]

    return {
        "fig1a": scaled(F.figure1a),
        "fig1bc": scaled(F.figure1b_1c),
        "fig4": lambda scale, seed, workers: F.figure4(**({"seed": seed} if seed is not None else {}))[
            "render"
        ],
        "fig6": scaled(F.figure6),
        "fig7": scaled(F.figure7),
        "fig8": scaled(F.figure8),
        "fig9": scaled(F.figure9),
        "fig10": scaled(F.figure10),
        "table1": lambda scale, seed, workers: render_table1(),
        "headline": scaled(F.headline_claims),
        "profiler-overhead": scaled(F.profiler_overhead),
        "ablation-profile-length": scaled(F.ablation_profile_length),
        "ablation-offload-point": unscaled(F.ablation_offload_point),
        "ablation-freeze-side": unscaled(F.ablation_freeze_side),
    }


FIGURE_NAMES = (
    "fig1a",
    "fig1bc",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table1",
    "headline",
    "profiler-overhead",
    "ablation-profile-length",
    "ablation-offload-point",
    "ablation-freeze-side",
)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------
def _default_scale_name() -> str:
    name = os.environ.get("REPRO_SCALE", "bench").lower()
    return name if name in SCALES else "bench"


def _add_scale_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=_default_scale_name(),
        help="workload scale profile (default: $REPRO_SCALE or bench)",
    )


def _apply_results_dir(args: argparse.Namespace) -> None:
    """Make an explicit --results-dir the process-wide default store.

    Routing through the environment means every sweep in the process —
    including the figure functions, which take no store argument — persists
    to (and replays from) the same RunStore via
    :func:`repro.api.default_store`.
    """
    if getattr(args, "results_dir", None):
        os.environ["REPRO_RESULTS_DIR"] = args.results_dir


def _add_scenario_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        choices=available_scenarios(),
        default="stable",
        help="cluster-dynamics scenario: churn, dropouts, slowdown bursts, "
        "bandwidth traces (default: stable = static cluster); "
        "see `repro list` for descriptions",
    )


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size for the sweep (default: the cells go across "
        "the usable cores, a core per BLAS thread, and their clients get the "
        "rest; 1 = in-process)",
    )


def _add_results_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--results-dir",
        default=None,
        metavar="DIR",
        help="persistent RunStore: every run writes a manifest + per-round JSONL "
        "there, and already-stored runs are replayed from disk "
        "(default: $REPRO_RESULTS_DIR; see `repro report`)",
    )


def build_parser() -> argparse.ArgumentParser:
    algorithms = ", ".join(available_algorithms())
    scenarios = ", ".join(available_scenarios())
    epilog = f"available algorithms: {algorithms}\navailable scenarios: {scenarios}"
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for Aergia (Middleware '22): "
        "run experiments, sweeps, and regenerate the paper's figures.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser(
        "list",
        help="list available algorithms, scenarios, datasets, scales and figures",
        description="Print every valid --algorithm, --scenario, --dataset and "
        "--scale value (plus the figure names) with a one-line description.",
    )
    del list_p  # takes no arguments

    run_p = sub.add_parser(
        "run",
        help="run one experiment and print its summary",
        description="Run a single experiment configuration.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run_p.add_argument(
        "--algorithm",
        default="fedavg",
        choices=available_algorithms(),
        help="federated-learning algorithm (default: fedavg)",
    )
    run_p.add_argument(
        "--dataset",
        default="mnist",
        choices=known_datasets(),
        help="dataset name (default: mnist)",
    )
    run_p.add_argument(
        "--partition",
        default="iid",
        choices=("iid", "noniid", "dirichlet"),
        help="client data partition scheme (default: iid)",
    )
    run_p.add_argument("--seed", type=int, default=42, help="experiment seed (default: 42)")
    run_p.add_argument("--rounds", type=int, default=None, help="override the round budget")
    run_p.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="K",
        help="write a resumable mid-run checkpoint into the results dir every "
        "K completed rounds (requires --results-dir / $REPRO_RESULTS_DIR)",
    )
    run_p.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="train each round's clients on N worker processes, each client on "
        "the worker that owns it; 1 keeps the run in this process; results "
        "are bitwise identical either way (default: one per usable core, a "
        "core per BLAS thread, at most one per client of a round)",
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted run of this exact configuration from its "
        "last checkpoint; the resumed rounds are bitwise identical to an "
        "uninterrupted run (no-op when no checkpoint exists)",
    )
    _add_scenario_flag(run_p)
    _add_scale_flag(run_p)
    _add_results_dir_flag(run_p)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a dataset x algorithm grid through the sweep scheduler",
        description="Run a dataset x algorithm sweep: cells already in the results "
        "dir are replayed, the rest run in a process pool.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sweep_p.add_argument(
        "--datasets",
        nargs="+",
        default=["mnist", "fmnist"],
        choices=known_datasets(),
        help="datasets to sweep (default: mnist fmnist)",
    )
    sweep_p.add_argument(
        "--algorithms",
        nargs="+",
        default=list(baseline_algorithms()),
        choices=available_algorithms(),
        help="algorithms to sweep (default: the paper's five baselines)",
    )
    sweep_p.add_argument(
        "--partition",
        default="noniid",
        choices=("iid", "noniid", "dirichlet"),
        help="client data partition scheme (default: noniid)",
    )
    sweep_p.add_argument("--seed", type=int, default=42, help="experiment seed (default: 42)")
    sweep_p.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget for the sweep; checked before each cell "
        "(a running cell always finishes), remaining cells are marked "
        "budget_exceeded and picked up by a later --resume",
    )
    sweep_p.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N cells this invocation (store hits are free)",
    )
    sweep_p.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="K",
        help="checkpoint every cell every K rounds so killed cells resume "
        "instead of recomputing (requires a results dir)",
    )
    sweep_p.add_argument(
        "--resume",
        action="store_true",
        help="resume interrupted cells from their checkpoints and re-plan "
        "failed/budget_exceeded cells; complete cells replay from the store",
    )
    _add_scenario_flag(sweep_p)
    _add_scale_flag(sweep_p)
    _add_workers_flag(sweep_p)
    _add_results_dir_flag(sweep_p)

    fig_p = sub.add_parser(
        "figures",
        help="regenerate figures/tables of the paper",
        description="Regenerate one or more paper figures and print their renderings.",
    )
    fig_p.add_argument(
        "names",
        nargs="*",
        default=["all"],
        metavar="FIGURE",
        help="figures to regenerate (default: all); one of: "
        + ", ".join(FIGURE_NAMES + ("all",)),
    )
    fig_p.add_argument(
        "--seed", type=int, default=None, help="override each figure's default seed"
    )
    _add_scale_flag(fig_p)
    _add_workers_flag(fig_p)
    _add_results_dir_flag(fig_p)

    report_p = sub.add_parser(
        "report",
        help="re-render summaries from a persisted results directory",
        description="Render summary and round-duration tables from a RunStore "
        "written by `repro run/sweep --results-dir` (or repro.api) — entirely "
        "from disk, with no experiment execution.",
    )
    report_p.add_argument(
        "results_dir",
        metavar="RESULTS_DIR",
        help="results directory written by --results-dir / repro.api.RunStore",
    )
    report_p.add_argument("--algorithm", default=None, help="only runs of this algorithm")
    report_p.add_argument("--dataset", default=None, help="only runs on this dataset")
    report_p.add_argument("--scenario", default=None, help="only runs of this scenario")
    report_p.add_argument(
        "--json",
        action="store_true",
        help="print machine-readable run summaries (repro.api.Results.to_json) "
        "instead of rendered tables; includes incomplete/crashed runs",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the long-lived experiment server",
        description="Serve experiments over HTTP: submit validated specs, stream "
        "rounds live as JSONL, feed device check-ins into running scenarios, and "
        "query/cancel hosted runs. Every run persists through the results "
        "directory's RunStore, so `repro report` works on it unchanged. SIGTERM "
        "drains gracefully: in-flight runs checkpoint and a restarted server "
        "resumes them bitwise-identically. See docs/api.md for the protocol.",
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve_p.add_argument(
        "--port", type=int, default=8321, help="bind port; 0 picks a free one (default: 8321)"
    )
    serve_p.add_argument(
        "--results-dir",
        required=True,
        metavar="DIR",
        help="RunStore directory every hosted run persists through (required)",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="concurrent experiment worker threads (default: 4)",
    )
    serve_p.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1,
        metavar="K",
        help="default checkpoint cadence (rounds) applied to hosted runs that "
        "set none, so a drain can always checkpoint them (default: 1)",
    )
    serve_p.add_argument(
        "--no-resume",
        action="store_true",
        help="do not auto-resume resumable runs found in the results dir at startup",
    )
    serve_p.add_argument(
        "--drain-timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="seconds allowed for checkpointing in-flight runs on SIGTERM (default: 120)",
    )

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------
def _grid_configs(
    datasets: Sequence[str],
    algorithms: Sequence[str],
    partition: str,
    scale: ScaleProfile,
    seed: int,
    scenario: Optional[str] = None,
) -> Dict[str, object]:
    return {
        f"{dataset}/{algorithm}": evaluation_config(
            dataset, algorithm, partition, scale, seed=seed, scenario=scenario
        )
        for dataset in datasets
        for algorithm in algorithms
    }


#: Listing header -> the CLI flag that accepts the registry's names.
_REGISTRY_FLAGS = {
    "algorithms": "repro run/sweep --algorithm",
    "scenarios": "repro run/sweep --scenario",
    "datasets": "repro run/sweep --dataset",
    "scales": "--scale",
}


def _cmd_list(args: argparse.Namespace) -> int:
    """Enumerate every plugin registry with its registration metadata.

    Rendered straight from :func:`repro.registry.registries`, so anything a
    third party registers (federators, scenarios, scales, datasets) shows
    up here without CLI changes — and lazy entries are listed without
    importing their provider modules.
    """
    first = True
    for listing, registry in registries().items():
        if not first:
            print()
        first = False
        print(f"{listing} ({_REGISTRY_FLAGS.get(listing, listing)}):")
        for entry in registry.entries():
            description = entry.description
            extras = []
            if listing == "scales":
                # entry.obj, not SCALES[...]: listing must not import lazy
                # providers, and third-party scales need not be ScaleProfiles.
                profile = entry.obj
                if profile is not None and hasattr(profile, "num_clients"):
                    extras.append(
                        f"{profile.num_clients} clients, {profile.rounds} rounds, "
                        f"{profile.local_updates} local updates, "
                        f"{profile.train_size} train samples"
                    )
            if listing == "datasets" and "architecture" in entry.metadata:
                extras.append(f"architecture: {entry.metadata['architecture']}")
            if extras:
                description = f"{description} ({'; '.join(extras)})" if description else "; ".join(extras)
            print(f"  {entry.name:<16} {description}".rstrip())
    print("\nfigures (repro figures):")
    print("  " + ", ".join(FIGURE_NAMES + ("all",)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scale = SCALES[args.scale]
    _apply_results_dir(args)
    spec = (
        api.experiment(args.algorithm)
        .dataset(args.dataset)
        .partition(args.partition)
        .scale(args.scale)
        .scenario(args.scenario)
        .seed(args.seed)
    )
    if args.rounds is not None:
        spec = spec.rounds(args.rounds)
    if args.checkpoint_interval is not None:
        spec = spec.override(checkpoint_interval=args.checkpoint_interval)
    if args.shards is not None:
        spec = spec.override(shards=args.shards)
    if (args.resume or args.checkpoint_interval is not None) and not (
        args.results_dir or os.environ.get("REPRO_RESULTS_DIR")
    ):
        print(
            "repro run: --resume/--checkpoint-interval need a results dir "
            "(--results-dir or $REPRO_RESULTS_DIR) to hold the checkpoint",
            file=sys.stderr,
        )
        return 2

    start = time.perf_counter()
    handle = spec.run(store=args.results_dir, resume=args.resume)
    if handle.resumed_from_round is not None:
        print(
            f"  resuming from checkpoint at round {handle.resumed_from_round}",
            file=sys.stderr,
        )
    for record in handle.stream():
        print(
            f"  round {record.round_number}: "
            f"accuracy={record.test_accuracy:.3f} "
            f"duration={record.duration:.2f}s "
            f"dropped={len(record.dropped_clients)}",
            file=sys.stderr,
        )
    elapsed = time.perf_counter() - start
    summaries = {args.algorithm: handle.summary()}
    cached = " (from store)" if handle.loaded_from_store else ""
    if handle.resumed_from_round is not None:
        cached = f" (resumed from round {handle.resumed_from_round})"

    print(
        render_summaries(
            summaries,
            title=f"repro run: {args.dataset}/{args.algorithm} "
            f"({args.partition}, {scale.name} scale, {args.scenario} scenario)",
        )
    )
    network_table = render_network_counters(summaries, title="network/transport counters")
    if network_table:
        print()
        print(network_table)
    print(f"\nwall-clock: {elapsed:.2f}s{cached}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scale = SCALES[args.scale]
    _apply_results_dir(args)
    configs = _grid_configs(
        args.datasets,
        args.algorithms,
        args.partition,
        scale,
        args.seed,
        scenario=args.scenario,
    )
    start = time.perf_counter()
    handle = api.sweep(
        configs,
        workers=args.workers,
        store=args.results_dir,
        progress=lambda label, _result: print(f"  done: {label}", file=sys.stderr),
        budget_seconds=args.budget_seconds,
        max_cells=args.max_cells,
        resume=args.resume,
        checkpoint_interval=args.checkpoint_interval,
    )
    elapsed = time.perf_counter() - start
    print(
        render_summaries(
            handle.summaries(),
            title=f"repro sweep: {len(configs)} cells, {scale.name} scale",
        )
    )
    counts = Counter(handle.states.values())
    print(
        "cell states: "
        + ", ".join(f"{state}={count}" for state, count in sorted(counts.items())),
        file=sys.stderr,
    )
    for label, error in sorted(handle.errors.items()):
        print(f"  failed: {label}: {error}", file=sys.stderr)
    print(
        f"\nwall-clock: {elapsed:.2f}s  "
        f"(sum of per-cell compute: {handle.total_wall_seconds():.2f}s)"
    )
    if handle.store is not None:
        print(
            f"results dir: {handle.store.root} "
            f"(store hits: {len(handle.store_hits)}/{len(configs)})"
        )
    # A budget_exceeded cell is unfinished work for a later --resume, not a
    # failure; only a cell that ran and raised fails the command.
    return 1 if handle.errors else 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render summary tables from a persisted RunStore alone."""
    # Results snapshots the directory scan, so the emptiness check and the
    # two renderings below parse each manifest exactly once.
    results = api.Results.open(args.results_dir)
    filters = {}
    if args.algorithm:
        filters["algorithm"] = args.algorithm
    if args.dataset:
        filters["dataset"] = args.dataset
    if args.scenario:
        filters["scenario"] = args.scenario
    if args.json:
        import json as _json

        # Machine-readable mode reports *everything* (service clients need
        # to see incomplete/checkpointed runs too, not just finished ones).
        print(_json.dumps(results.to_json(complete_only=False, **filters), indent=2, sort_keys=True))
        return 0
    if not results.runs(**filters):
        print(f"repro report: no complete runs in {args.results_dir}", file=sys.stderr)
        return 1
    print(results.render_summary(**filters))
    network_table = results.render_network(**filters)
    if network_table:
        print()
        print(network_table)
    print()
    print(results.render_round_durations(**filters))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    scale = SCALES[args.scale]
    registry = _figure_registry()
    names: List[str] = list(args.names) or ["all"]
    unknown = [name for name in names if name != "all" and name not in registry]
    if unknown:
        print(
            f"repro figures: unknown figure(s): {', '.join(unknown)}; "
            f"valid: {', '.join(FIGURE_NAMES + ('all',))}",
            file=sys.stderr,
        )
        return 2
    _apply_results_dir(args)
    if "all" in names:
        names = list(FIGURE_NAMES)
    for name in names:
        start = time.perf_counter()
        rendering = registry[name](scale, args.seed, args.workers)
        elapsed = time.perf_counter() - start
        print(rendering)
        print(f"[{name}: {elapsed:.2f}s]\n")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived experiment server (see :mod:`repro.serve`)."""
    from repro.serve.server import run_server

    return run_server(
        args.results_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        checkpoint_interval=args.checkpoint_interval,
        resume=not args.no_resume,
        drain_timeout=args.drain_timeout,
    )


_COMMANDS: Mapping[str, Callable[[argparse.Namespace], int]] = {
    "list": _cmd_list,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "figures": _cmd_figures,
    "report": _cmd_report,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Plugins must land in the registries before the parser is built: the
    # --algorithm/--scenario choices are snapshots of the registry names.
    load_plugins()
    parser = build_parser()
    args = parser.parse_args(argv)
    # --results-dir routes through the environment so that code with no
    # such parameter of its own (the figure sweeps) sees it too; restore
    # the variable afterwards so it does not leak past the command into
    # library callers sharing this process.
    saved = os.environ.get("REPRO_RESULTS_DIR")
    try:
        return _COMMANDS[args.command](args)
    finally:
        os.environ.pop("REPRO_RESULTS_DIR", None)
        if saved is not None:
            os.environ["REPRO_RESULTS_DIR"] = saved


if __name__ == "__main__":
    raise SystemExit(main())
