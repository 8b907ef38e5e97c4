#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/bench.py                      # all four, a fresh process each
    python3 benchmarks/e2e/bench.py --workload city_churn --seed 7 --trace
    python3 benchmarks/e2e/bench.py --json A.json        # keep the full result document
    python3 benchmarks/e2e/bench.py compare A.json B.json

Every metric is printed by name with its unit, outputs are checked, and the
last line of standard output is the one-object summary ``BENCHMARK.json``'s
contract asks for.  ``BENCHMARK.json`` at the repository root is the single
declaration of workloads, metrics, units, directions and bounds; this file
reads it and refuses to emit a metric it does not declare.  README.md in
this directory explains the workloads, the metrics and how they interact.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"  # scratch and raw spans; inside the checkout, git-ignored

#: Thread pools pinned before numpy loads, inherited by shard workers and the
#: server subprocess: one compute thread per process on a 2-core host.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Program settings that must come from the generated specs, not the caller's shell.
REMOVED_ENV = ("REPRO_DTYPE", "REPRO_SCALE", "REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_RESULTS_DIR")
CHILD_TIMEOUT_S = 170  # under the contract's 180 s per run


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    for name in REMOVED_ENV:
        os.environ.pop(name, None)


def sibling(name: str):
    """Import a file of this directory under a private module name
    (``trace.py`` would otherwise shadow the standard library's ``trace``)."""
    qualified = f"bench_e2e_{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    spec = importlib.util.spec_from_file_location(qualified, HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    spec.loader.exec_module(module)
    return module


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: End-to-end metrics that one workload alone can report: workload ->
#: metric -> regression bound.  The benchmark contract has every workload
#: emit every ``end_to_end`` entry of BENCHMARK.json, so these are declared
#: there under ``per_layer`` (name, unit, direction; that list carries no
#: bounds) and bounded here.  They are measured untraced, printed with the
#: other end-to-end metrics and gated by ``compare`` like them.
WORKLOAD_METRICS = {
    "city_churn": {"shard2_run_wall_s": 0.25},
    "serve_checkin": {
        "checkin_events_per_s": 0.10,
        "checkin_p50_ms": 0.15,
        "checkin_p95_ms": 0.10,
        "read_p50_ms": 0.25,
    },
}


def end_to_end_metrics(declared: dict, workload: str) -> List[dict]:
    """The end-to-end metrics ``workload`` reports, each with name, unit,
    direction and bound: those every workload reports, then its own."""
    own = WORKLOAD_METRICS.get(workload, {})
    return list(declared["end_to_end"]) + [
        dict(metric, bound=own[metric["name"]]) for metric in declared["per_layer"] if metric["name"] in own
    ]


# -------------------------------------------------------------- fingerprint
def blas_build() -> str:
    import numpy as np

    try:
        blas = np.__config__.show(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=5
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(seed: int) -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    if load1 > nproc:
        print(f"warning: 1-minute load average {load1:.2f} exceeds {nproc} cores; timings will be noisy", file=sys.stderr)
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "env": dict(PINNED_ENV),
        "dtype": "float32",
        "git": git_revision(),
        "seed": seed,
        "k": None,  # timed repetitions; known once the workload has run
        "load1_at_start": load1,
    }


def digest_key(fp: dict) -> str:
    """What a pinned digest depends on: the numerics, not the clock speed."""
    return f"numpy {fp['numpy']} | {fp['blas']} | {fp['cpu']}"


# ---------------------------------------------------------------- estimator
def estimate(samples: List[float]) -> dict:
    """The reported value of a metric, the median of its samples, and their
    spread.  README, "Estimator", has the measurements behind the choice;
    ``min`` is best-of-k for whoever wants it."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {"value": median, "n": len(ordered), "min": ordered[0], "q1": q1, "median": median, "q3": q3, "samples": samples}


# ------------------------------------------------------------- one workload
def run_workload(args: argparse.Namespace) -> int:
    """Run one workload in this process; print its metrics and the summary line."""
    pin_environment()
    if not (SRC / "repro").is_dir():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = declaration()
    workloads = sibling("workloads")
    tracing = sibling("trace")
    if args.workload not in {w["name"] for w in declared["workloads"]} or args.workload not in workloads.RUNNERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=float(args.seconds),
        trace=bool(args.trace),
        quick=args.quick,
        workdir=workdir,
        src=SRC,
        tracing=tracing,
    )
    fp = fingerprint(args.seed)
    started = time.perf_counter()
    # A terminated benchmark unwinds like an interrupted one: through the
    # `finally` blocks that stop the server and the shard workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        outcome = workloads.RUNNERS[args.workload](ctx)
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    doc = document(args, declared, fp, outcome, workloads, tracing, time.perf_counter() - started)
    if args.trace and outcome.spans:
        spans_path = Path(args.trace_out) if args.trace_out else WORK
        spans_path.mkdir(parents=True, exist_ok=True)
        with open(spans_path / f"spans-{args.workload}.jsonl", "w") as handle:
            for span in outcome.spans + outcome.side_spans:
                handle.write(json.dumps(span) + "\n")
    render(doc)
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    # The contract's summary: every `end_to_end` entry of BENCHMARK.json
    # from an untraced run, every `per_layer` entry from a traced one.
    section = "per_layer" if args.trace else "end_to_end"
    print(
        json.dumps(
            {
                "correct": doc["correct"],
                "attempted": doc["attempted"],
                "failed": doc["failed"],
                "metrics": {
                    metric["name"]: {"value": doc[section][metric["name"]]["value"], "unit": metric["unit"]}
                    for metric in declared[section]
                },
            }
        )
    )
    return 0 if doc["correct"] else 1


def child_pids() -> List[int]:
    """Processes whose parent is this one, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # gone between listdir and read
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:  # "pid (comm) state ppid ..."
            found.append(int(entry))
    return found


def reap_children() -> None:
    """Stop every process the workload started and wait until each has ended.

    Shard workers are daemonic children of this process, and spawning them
    starts multiprocessing's resource tracker, which nobody waits for: it
    ends when this process does and is left to init, which in a container
    may never collect it.  Whatever else is still a child afterwards (a
    server a failed workload did not stop) is killed and waited for too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes its pipe and waits for it; idempotent
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left, running or zombie
        if pid == 0:  # children remain and none has ended: end them
            for child_pid in child_pids():
                try:
                    os.kill(child_pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)
    print(f"error: processes still running after the workload: {child_pids()}", file=sys.stderr)


def pinned_digest(fp: dict, args: argparse.Namespace, digest: str) -> str:
    """``match`` / ``mismatch`` / ``unpinned`` against expected.json."""
    if args.quick or digest == "n/a":
        return "unpinned"
    expected = json.loads((HERE / "expected.json").read_text())
    pinned = expected.get(digest_key(fp), {}).get(f"{args.workload}:{args.seed}")
    if pinned is None:
        return "unpinned"
    return "match" if digest == pinned else "mismatch"


def document(args, declared: dict, fp: dict, outcome, workloads, tracing, total_s: float) -> dict:
    """The full result of one workload, keyed the way BENCHMARK.json declares."""
    end_to_end = {}
    for metric in end_to_end_metrics(declared, args.workload):
        samples = outcome.samples.get(metric["name"])
        if not samples:
            raise RuntimeError(f"{args.workload} produced no sample of {metric['name']}")
        end_to_end[metric["name"]] = {**metric, **estimate(samples)}
    unexpected = set(outcome.samples) - set(end_to_end)
    if unexpected:
        raise RuntimeError(f"samples of metrics {args.workload} does not report: {sorted(unexpected)}")
    fp["k"] = end_to_end["run_wall_s"]["n"]

    pin = pinned_digest(fp, args, outcome.digest)
    outcome.check("digest equals the pinned one for this host", pin != "mismatch", pin)

    per_layer, budget = {}, {}
    if args.trace:
        extras = dict(outcome.layer)
        extras["trace.missing_targets"] = float(len(outcome.missing_targets))
        extras.update({name: end_to_end[name]["value"] for name in WORKLOAD_METRICS.get(args.workload, {})})
        values = tracing.layer_metrics(outcome.spans + outcome.side_spans, extras)
        unknown = set(extras) - set(values)
        if unknown:
            raise RuntimeError(f"per-layer values with no declared metric: {sorted(unknown)}")
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        if set(units) != set(values):
            raise RuntimeError(f"BENCHMARK.json and trace.LAYER_METRICS disagree: {sorted(set(units) ^ set(values))}")
        per_layer = {name: {"unit": units[name], "value": values[name]} for name in units}
        budget = {
            "repetition": tracing.layer_self_times(outcome.spans),
            "setup": tracing.layer_self_times(outcome.spans, under=workloads.SETUP_SPAN),
            "run": tracing.layer_self_times(outcome.spans, under=workloads.RUN_SPAN),
        }

    failed_share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(bool(args.trace)),
        "quick": bool(args.quick),
        "fingerprint": fp,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layer_self_s": budget,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in outcome.checks],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": failed_share,
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "sim_digest": outcome.digest,
        "digest_pin": pin,
        "missing_targets": outcome.missing_targets,
        "notes": outcome.notes,
        "total_s": total_s,
    }


def render(doc: dict) -> None:
    """Every metric by name with its unit, then the checks."""
    print(f"== {doc['workload']} (seed {doc['seed']}, {'traced' if doc['trace'] else 'untraced'}"
          f"{', quick' if doc['quick'] else ''}, {doc['total_s']:.1f} s) ==")  # fmt: skip
    for name, entry in doc["end_to_end"].items():
        print(
            f"  {name:<34} {entry['value']:>12.4f} {entry['unit']:<6}"
            f" n={entry['n']} min={entry['min']:.4f} q1={entry['q1']:.4f}"
            f" median={entry['median']:.4f} q3={entry['q3']:.4f}"
        )
    print(f"  {'failed_share':<34} {doc['failed_share']:>12.4f} ratio  ({doc['failed']} of {doc['attempted']} operations)")
    if doc["trace"]:
        print("  -- per layer (from the traced repetition) --")
        for name, entry in doc["per_layer"].items():
            print(f"  {name:<34} {entry['value']:>14.4f} {entry['unit']}")
        for part, layers in doc["layer_self_s"].items():
            wall = sum(layers.values())
            shares = ", ".join(
                f"{layer} {100 * seconds / wall:.1f}%"
                for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])
            )
            if shares:
                print(f"  self time by layer, {part} ({wall:.3f} s): {shares}")
        if doc["missing_targets"]:
            print(f"  trace targets not found (skipped): {', '.join(doc['missing_targets'])}")
    for check in doc["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAILED'}] {check['name']}" + (f": {check['detail']}" if check["detail"] else ""))
    print(f"  sim_digest {doc['sim_digest'][:16]} ({doc['digest_pin']})")


# ------------------------------------------------------------ all workloads
def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child process, so peak memory is per workload."""
    declared = declaration()
    combined = {"benchmark": "e2e", "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    WORK.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in declared["workloads"]):
        result_path = WORK / f"result-{workload}-{os.getpid()}.json"
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--json", str(result_path)]  # fmt: skip
        if args.quick:
            command.append("--quick")
        if args.trace_out:
            command += ["--trace-out", args.trace_out]
        child = subprocess.Popen(command, start_new_session=True)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = -1
        finally:
            # The child leads its own process group: whatever it left behind
            # (a server, shard workers) goes with it.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(timeout=30)
        if code != 0 or not result_path.exists():
            print(f"error: workload {workload} exited with {code}", file=sys.stderr)
            status = 1
        if result_path.exists():
            combined["workloads"][workload] = json.loads(result_path.read_text())
            result_path.unlink()
    if combined["workloads"]:
        combined["fingerprint"] = next(iter(combined["workloads"].values()))["fingerprint"]
    if args.json:
        Path(args.json).write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    return status


# ------------------------------------------------------------------ compare
def workload_docs(path: str) -> Dict[str, dict]:
    doc = json.loads(Path(path).read_text())
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def compare(args: argparse.Namespace) -> int:
    """B against A (the base): per (metric, workload) both values, the ratio
    B/A, the bound, and agree / worse / better.  Non-zero exit on any worse."""
    declared = declaration()
    base, new = workload_docs(args.base), workload_docs(args.new)
    verdicts: List[str] = []
    print(f"{'workload':<14} {'metric':<22} {'A (base)':>12} {'B':>12} {'B/A':>8} {'bound':>6}  verdict")
    for workload in base:
        if workload not in new:
            continue
        for metric in end_to_end_metrics(declared, workload):
            name, bound = metric["name"], metric["bound"]
            a = base[workload]["end_to_end"].get(name)
            b = new[workload]["end_to_end"].get(name)
            if a is None or b is None:
                continue
            # The bound is a share of the base: B may be that much worse.
            ratio = b["value"] / a["value"]
            change = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            verdict = "worse" if change > bound else "better" if change < -bound else "agree"
            verdicts.append(verdict)
            print(
                f"{workload:<14} {name:<22} {a['value']:>12.4f} {b['value']:>12.4f} "
                f"{ratio:>8.3f} {bound:>6.2f}  {verdict} ({metric['unit']}, {metric['better']} is better)"
            )
        # failed_share: bound 0, absolute.
        failed = (base[workload]["failed_share"], new[workload]["failed_share"])
        verdict = "worse" if failed[1] > failed[0] else "agree"
        verdicts.append(verdict)
        print(f"{workload:<14} {'failed_share':<22} {failed[0]:>12.4f} {failed[1]:>12.4f} {'':>8} {0:>6.2f}  {verdict} (ratio, lower is better)")
    if not verdicts:
        print("error: the two files share no (workload, metric) pair", file=sys.stderr)
        return 2
    print(f"{verdicts.count('agree')} agree, {verdicts.count('better')} better, {verdicts.count('worse')} worse")
    return 1 if "worse" in verdicts else 0


# ---------------------------------------------------------------------- cli
def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="bench.py compare", description=compare.__doc__)
        parser.add_argument("base", help="result file A (the base of every ratio)")
        parser.add_argument("new", help="result file B")
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this workload in this process (default: all four, a child process each)")
    parser.add_argument("--seed", type=int, default=42, help="every spec and request derives from it (default: 42)")
    parser.add_argument("--seconds", type=float, default=declaration()["run_seconds"], help="cap on the timed repetitions; their number is fixed (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help="also run traced and report the per-layer metrics (the benchmark driver passes 0 or 1)")
    parser.add_argument("--trace-out", metavar="DIR", help=f"where raw spans are written (default: {WORK.relative_to(ROOT)})")
    parser.add_argument("--json", metavar="PATH", help="write the full result document here")
    parser.add_argument("--quick", action="store_true", help="toy sizes, one repetition: checks the harness, measures nothing")
    args = parser.parse_args(argv)
    try:
        return run_workload(args) if args.workload else run_all(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
