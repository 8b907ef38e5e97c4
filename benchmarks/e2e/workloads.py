"""The four benchmark workloads.

Every workload drives the program through its stable public surface only
(``repro.api``, ``build_experiment`` -> ``ExperimentHandle.run()``,
``python -m repro serve`` and its HTTP protocol), generates its specs and
requests from the seed, times a fixed number of repetitions after one
discarded warm-up, and checks what the program produced.  The execution knobs the ROADMAP
wants collapsed are never set, except ``shards=2`` on ``city_churn``.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import itertools
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import numpy as np

import repro.api as api
from repro.fl.runtime import build_experiment
from repro.serve.protocol import record_line

#: (algorithm, scenario) of the six sweep cells: one synchronous baseline
#: per fault family plus both asynchronous federators.
SWEEP_CELLS = (
    ("fedavg", "lossy-churn"),
    ("fedprox", "mega-churn"),
    ("tifl", "churn"),
    ("deadline", "straggler-burst"),
    ("fedasync", "lossy-churn"),
    ("fedbuff", "partition-storm"),
)

#: --quick: enough to enter every code path, too little to measure anything.
TOY_SIZES = dict(rounds=1, local_updates=2, profile_batches=1, train_size=160, test_size=40)
ROOT_SPAN = "workload.rep"  # opened by the harness around one traced repetition
SETUP_SPAN = "workload.setup"  # ... and around what setup_s times
RUN_SPAN = "workload.run"  # ... and around what run_wall_s times
REQUEST_TIMEOUT_S = 10.0
CHECKIN_LINES = 50  # device events per check-in request
READ_EVERY = 25  # every 25th request of a connection is a read
LOAD_THREADS = 2  # one closed-loop connection each; the host has 2 cores


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    quick: bool
    workdir: Path  # scratch inside the checkout, removed afterwards
    src: Path  # the program's source root (PYTHONPATH of the server)
    tracing: ModuleType  # benchmarks/e2e/trace.py

    def reps(self, untraced: int, traced: int) -> int:
        """Timed repetitions: ``untraced`` for an end-to-end run; ``traced``
        for the untraced half of a ``--trace`` run, which must leave time
        for the traced half."""
        return 1 if self.quick else (traced if self.trace else untraced)


@dataclass
class Outcome:
    """What one workload measured."""

    #: end-to-end metric -> one sample per timed repetition (or segment)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    rep_s: List[float] = field(default_factory=list)  # wall time of what a traced repetition repeats, untraced
    layer: Dict[str, float] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    notes: Dict[str, object] = field(default_factory=dict)
    spans: list = field(default_factory=list)  # the fastest traced repetition
    side_spans: list = field(default_factory=list)  # spans kept from another repetition
    missing_targets: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a correctness check; a check repeated per repetition is
        listed once, failed if any repetition failed it."""
        for index, (seen, was_ok, _detail) in enumerate(self.checks):
            if seen == name:
                self.checks[index] = (name, was_ok and bool(ok), detail)
                break
        else:
            self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))



# ------------------------------------------------------------------ helpers
def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def sim_digest(results: Dict[str, object]) -> str:
    """sha256 over every cell's summary and its rounds as the store frames them."""
    digest = hashlib.sha256()
    for label in sorted(results):
        result = results[label]
        digest.update(label.encode())
        digest.update(json.dumps(result.summary(), sort_keys=True).encode())
        for record in result.rounds:
            digest.update(record_line(record).encode())
    return digest.hexdigest()


def repeat(rep: Callable[[int], None], k: int, seconds: float) -> None:
    """Call ``rep(i)`` ``k`` times.

    ``k`` is fixed per workload, so two commits are compared on the same
    number of samples; ``seconds`` is only a cap that ends a run caught in a
    slow stretch of the host early (the result records how many repetitions
    were made).
    """
    start = time.perf_counter()
    for index in range(k):
        if index and time.perf_counter() - start > seconds:
            return
        rep(index)


def collect() -> None:
    """Run the collector; called before every timed region, never inside one.

    What a run leaves behind is cyclic garbage holding large arrays.  Left
    to the next run it is freed somewhere inside it, whose fresh allocations
    then fault in new pages (measured: 2.1 s -> 3.2-5.7 s per ``city`` run),
    and when the automatic collector happens to run decides the process's
    peak memory (605-813 MB over ten seeds of ``city_churn``, 531-654 MB
    with this call).
    """
    gc.collect()


def run_cells(
    specs: Dict[str, object],
    outcome: Outcome,
    tracer: object = None,
    handles: Optional[Dict[str, object]] = None,
) -> Tuple[float, float, Dict[str, object]]:
    """Build and run each cell; returns (set-up s, run s, results), the
    times summed over the cells.

    With a ``tracer`` the two halves run under the ``workload.setup`` /
    ``workload.run`` spans; ``handles`` keeps the built experiments by label.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    setup_s = run_s = 0.0
    results: Dict[str, object] = {}
    for label, spec in specs.items():
        outcome.attempted += 1
        config = spec.build()
        collect()
        try:
            t0 = time.perf_counter()
            with span(SETUP_SPAN):
                handle = build_experiment(config)
            t1 = time.perf_counter()
            with span(RUN_SPAN):
                results[label] = handle.run()
            t2 = time.perf_counter()
            if handles is not None:
                handles[label] = handle
        except Exception as exc:  # a failing cell is a counted failure, not a crash
            outcome.failed += 1
            outcome.notes.setdefault("errors", []).append(f"{label}: {exc!r}")
            continue
        setup_s += t1 - t0
        run_s += t2 - t1
    return setup_s, run_s, results


def build_cells(specs: Dict[str, object]) -> float:
    """Build every cell and discard the handles: one more sample of what
    ``setup_s`` times, without the run."""
    total = 0.0
    for spec in specs.values():
        config = spec.build()
        collect()
        t0 = time.perf_counter()
        build_experiment(config)
        total += time.perf_counter() - t0
    return total


@contextmanager
def tracing(ctx: Context, outcome: Outcome):
    """Install the span wrappers for the block; restore the originals after."""
    tracer = ctx.tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
        outcome.missing_targets = list(tracer.missing)


def traced_reps(tracer, body: Callable[[], None], k: int, seconds: float) -> float:
    """Repeat ``body`` ``k`` times under a root span; keep the spans of the
    fastest repetition in ``tracer.spans`` and return its wall time."""
    fastest: Tuple[float, list] = (float("inf"), [])

    def rep(index: int) -> None:
        nonlocal fastest
        del tracer.spans[:]
        began = time.perf_counter()
        with tracer.span(ROOT_SPAN):
            body()
        wall = time.perf_counter() - began
        if wall < fastest[0]:
            fastest = (wall, list(tracer.spans))

    repeat(rep, k, seconds)
    tracer.spans[:] = fastest[1]
    return fastest[0]


def assert_untraced(ctx: Context) -> None:
    wrapped = ctx.tracing.installed_wrappers()
    if wrapped:
        raise RuntimeError(f"end-to-end timing with span wrappers installed: {wrapped}")


def unattributed_share(ctx: Context, spans: list) -> float:
    """Share of the root span's time that no layer span covers: the self
    time of the harness's own spans."""
    stats = ctx.tracing.summarise(spans)
    root = stats.get(ROOT_SPAN)
    own = sum(s.self_s for name, s in stats.items() if name.startswith("workload."))
    return own / root.busy_s if root and root.busy_s > 0 else 1.0


# ------------------------------------------------------------- paper_hetero
def paper_hetero(ctx: Context) -> Outcome:
    """Aergia then FedAvg on 8 heterogeneous clients: the per-client engine."""
    out = Outcome()
    assert_untraced(ctx)
    if ctx.quick:
        scale, sizes = "smoke", dict(TOY_SIZES)
    else:
        scale, sizes = "bench", dict(rounds=4)
    specs = {
        algorithm: api.experiment(algorithm)
        .dataset("mnist")
        .partition("noniid")
        .scale(scale)
        .scenario("stable")
        .seed(ctx.seed)
        .dtype("float32")
        .override(**sizes)
        for algorithm in ("aergia", "fedavg")
    }
    digests: List[str] = []
    last: Dict[str, object] = {}

    def rep(index: int, timed: bool = True) -> float:
        began = time.perf_counter()
        setup_s, run_s, results = run_cells(specs, out)
        wall = time.perf_counter() - began
        digests.append(sim_digest(results))
        last.update(results)
        if timed:
            out.sample("setup_s", setup_s)
            out.sample("run_wall_s", run_s)
            out.rep_s.append(wall)
            # A build is 35 ms here and a run seconds: a few builds more per
            # repetition give set-up as many samples as it needs.
            for _ in range(4):
                out.sample("setup_s", build_cells(specs))
        return run_s

    cold = rep(0, timed=False)  # warm-up: imports, BLAS, allocator
    repeat(rep, ctx.reps(4, 2), ctx.seconds)
    out.sample("peak_rss_mb", vm_hwm_mb())

    out.digest = digests[0]
    out.check("digest equal across repetitions", len(set(digests)) == 1, f"{len(digests)} reps")
    if "aergia" in last and "fedavg" in last and not ctx.quick:  # toy sizes promise nothing
        aergia_s = last["aergia"].summary()["total_time_s"]
        fedavg_s = last["fedavg"].summary()["total_time_s"]
        out.notes["simulated_total_time_s"] = {"aergia": aergia_s, "fedavg": fedavg_s}
        out.check(
            "aergia simulated time below fedavg",
            aergia_s < fedavg_s,
            f"{aergia_s:.3f} s vs {fedavg_s:.3f} s ({100 * (1 - aergia_s / fedavg_s):.1f} % less)",
        )

    if ctx.trace:
        with tracing(ctx, out) as tracer:
            traced = traced_reps(tracer, lambda: run_cells(specs, out, tracer=tracer), ctx.reps(2, 2), ctx.seconds)
            out.spans = tracer.spans
        out.layer["trace.unattributed_share"] = unattributed_share(ctx, out.spans)
        out.layer["trace.overhead_share"] = traced / min(out.rep_s) - 1.0
        out.layer["core.offloads"] = float(sum(r.total_offloads() for r in last.values()))
        out.layer["proc.cold_run_wall_s"] = cold
    return out


# --------------------------------------------------------------- city_churn
def city_churn(ctx: Context) -> Outcome:
    """Aergia over a virtualized cohort under churn: the batched engine,
    serial evaluation, the O(n^2) similarity set-up and, in every other
    repetition, the shard plane on the identical simulation."""
    out = Outcome()
    assert_untraced(ctx)
    sizes = (
        dict(TOY_SIZES, num_clients=80, clients_per_round=16, train_size=640)
        if ctx.quick
        else dict(num_clients=500, train_size=4000, rounds=4)
    )
    spec = (
        api.experiment("aergia")
        .dataset("mnist")
        .partition("noniid")
        .scale("city")
        .scenario("churn")
        .seed(ctx.seed)
        .dtype("float32")
        .override(**sizes)
    )
    flat = {"aergia": spec}
    sharded = {"aergia": spec.override(shards=2)}
    digests: Dict[str, List[str]] = {"flat": [], "shards2": []}

    def cell(kind: str) -> Tuple[float, float]:
        setup_s, run_s, results = run_cells(flat if kind == "flat" else sharded, out)
        digests[kind].append(sim_digest(results))
        return setup_s, run_s

    # Paired: flat and shards=2 repetitions alternate on the same
    # configuration, so the shard plane's cost is a difference of neighbours
    # in time.  The first of each kind is discarded: the flat one warms the
    # process, the sharded one spawns the worker pool.
    def pair(index: int) -> None:
        began = time.perf_counter()
        setup_s, run_s = cell("flat")
        out.rep_s.append(time.perf_counter() - began)
        out.sample("setup_s", setup_s)
        out.sample("run_wall_s", run_s)
        out.sample("shard2_run_wall_s", cell("shards2")[1])

    cold = cell("flat")[1]  # also what a one-shot `repro run` pays
    cell("shards2")
    repeat(pair, ctx.reps(4, 2), ctx.seconds)
    out.sample("peak_rss_mb", vm_hwm_mb())
    out.digest = digests["flat"][0]
    out.check("digest equal across repetitions", len(set(digests["flat"])) == 1, f"{len(digests['flat'])} reps")
    out.check(
        "digest equal between shards unset and shards=2",
        set(digests["shards2"]) == set(digests["flat"]),
        f"{len(digests['shards2'])} sharded reps",
    )

    if ctx.trace:
        handles: Dict[str, object] = {}
        with tracing(ctx, out) as tracer:
            traced = traced_reps(
                tracer, lambda: run_cells(flat, out, tracer=tracer, handles=handles), ctx.reps(2, 2), ctx.seconds
            )
            flat_spans = list(tracer.spans)
            # One traced sharded run, kept for its parent-side pipe spans.
            del tracer.spans[:]
            run_cells(sharded, out)
            shard_spans = [span for span in tracer.spans if span[1].startswith("simulation.shard.")]
            pools = tracer.instances.get("simulation.shard.submit", [])
            snapshots = [info for pool in pools for info in pool.snapshot() if info]
            out.spans, out.side_spans = flat_spans, shard_spans
        out.layer["trace.unattributed_share"] = unattributed_share(ctx, out.spans)
        out.layer["trace.overhead_share"] = traced / min(out.rep_s) - 1.0
        out.layer["proc.cold_run_wall_s"] = cold
        out.layer["simulation.shard.over_flat"] = statistics.median(out.samples["shard2_run_wall_s"]) / statistics.median(
            out.samples["run_wall_s"]
        )
        out.layer["simulation.shard.jobs"] = float(sum(s["stats"]["jobs"] for s in snapshots))
        out.layer["simulation.shard.worker_peak_rss_mb"] = max(
            (s["maxrss_kb"] / 1024.0 for s in snapshots), default=0.0
        )
        # ShardPool.snapshot() exposes counts and memory, not kernel time.
        out.notes["not_exposed_by_shard_workers"] = ["nn.batched_step.busy_s", "nn.batched_step.calls"]
        handle = handles["aergia"]
        executor = getattr(handle.cluster, "batched_executor", None)
        stats = dict(getattr(executor, "stats", {}))
        replays = float(stats.get("replays", 0))
        fast = float(stats.get("fast_materializations", 0))
        out.layer["nn.batched.replays"] = replays
        out.layer["nn.batched.fast_materializations"] = fast
        out.layer["nn.batched.fallbacks"] = float(stats.get("fallbacks", 0))
        out.layer["nn.batched.replay_share"] = replays / (replays + fast) if replays + fast else 0.0
        pool = handle.pool.describe() if handle.pool is not None else {}
        out.layer["simulation.virtual_pool.hydrations"] = float(pool.get("hydrations", 0))
        out.layer["simulation.virtual_pool.evictions"] = float(pool.get("evictions", 0))
        out.layer["core.offloads"] = float(handle.federator.result.total_offloads())
    return out


# --------------------------------------------------------------- sweep_grid
def sweep_grid(ctx: Context) -> Outcome:
    """Six small cells through ``api.sweep`` and the run store, cold then warm."""
    out = Outcome()
    assert_untraced(ctx)
    if ctx.quick:
        scale, sizes = "smoke", dict(TOY_SIZES)
    else:
        scale = "city"
        sizes = dict(rounds=5, clients_per_round=8, local_updates=2, profile_batches=1, test_size=64)

    def specs() -> Dict[str, object]:
        return {
            f"{algorithm}/{scenario}": api.experiment(algorithm)
            .dataset("mnist")
            .partition("noniid")
            .scale(scale)
            .scenario(scenario)
            .seed(ctx.seed * 100 + index)
            .dtype("float32")
            .override(**sizes)
            for index, (algorithm, scenario) in enumerate(SWEEP_CELLS)
        }

    cells = len(SWEEP_CELLS)
    digests: List[str] = []
    stores = itertools.count()
    extras: Dict[str, float] = {}

    def sweep_once() -> float:
        """Cold sweep into a fresh store (timed), the same sweep again, the
        store reopened, and the checks; returns the cold call's seconds."""
        store = ctx.workdir / f"store-{next(stores)}"
        out.attempted += cells
        collect()
        t0 = time.perf_counter()
        cold = api.sweep(specs(), store=store, checkpoint_interval=1)
        wall = time.perf_counter() - t0
        extras["api.store.bytes_written"] = float(
            sum(p.stat().st_size for p in store.rglob("*") if p.is_file())
        )
        not_complete = [label for label, state in cold.states.items() if state != "complete"]
        out.failed += len(not_complete)
        warm = api.sweep(specs(), store=store, checkpoint_interval=1)
        reopened = api.Results.open(store)
        rendered = reopened.render_summary()
        document = reopened.to_json()
        digests.append(sim_digest(cold.results))
        out.check(
            "warm sweep is all store hits",
            len(warm.store_hits) == cells and not not_complete,
            f"{len(warm.store_hits)}/{cells} hits, not complete: {not_complete}",
        )
        out.check(
            "cold results equal the warm store reload",
            sim_digest(warm.results) == digests[-1]
            and sim_digest({label: reopened.load(label) for label in warm.results}) == digests[-1],
        )
        out.check(
            "Results renders every stored cell",
            document["count"] == cells and all(label in rendered for label in warm.results),
            f"{document['count']} runs in to_json()",
        )
        extras["experiments.sweep.cells"] = float(len(cold.results) + len(warm.results))
        extras["experiments.sweep.store_hits"] = float(len(cold.store_hits) + len(warm.store_hits))
        extras["fl.transport.retransmits"] = sum(
            r.network.get("retransmits", 0.0) for r in cold.results.values()
        )
        extras["fl.transport.expired"] = sum(
            r.network.get("expired", 0.0) for r in cold.results.values()
        )
        shutil.rmtree(store, ignore_errors=True)
        return wall

    def rep(index: int) -> None:
        # `api.sweep` hides the build/run boundary, so set-up is measured by
        # building every cell again and discarding the handles; twice,
        # because a repetition is long and set-up needs the samples.
        out.sample("setup_s", build_cells(specs()))
        began = time.perf_counter()
        out.sample("setup_s", build_cells(specs()))
        out.sample("run_wall_s", sweep_once())
        out.rep_s.append(time.perf_counter() - began)  # what a traced repetition does: builds, cold, warm, reload, checks

    cold = sweep_once()  # warm-up
    build_cells(specs())
    repeat(rep, ctx.reps(3, 1), ctx.seconds)
    out.sample("peak_rss_mb", vm_hwm_mb())
    out.digest = digests[0]
    out.check("digest equal across repetitions", len(set(digests)) == 1, f"{len(digests)} reps")

    if ctx.trace:
        with tracing(ctx, out) as tracer:

            def traced_rep() -> None:
                with tracer.span(SETUP_SPAN):
                    build_cells(specs())
                with tracer.span(RUN_SPAN):
                    sweep_once()

            # The root span covers what an untraced repetition does as well
            # (warm pass, reload, checks): overhead compares like with like.
            traced = traced_reps(tracer, traced_rep, ctx.reps(2, 2), ctx.seconds)
            out.spans = tracer.spans
        out.layer["trace.unattributed_share"] = unattributed_share(ctx, out.spans)
        out.layer.update(extras)
        out.layer["trace.overhead_share"] = traced / min(out.rep_s) - 1.0
        out.layer["proc.cold_run_wall_s"] = cold
    return out


# ------------------------------------------------------------ serve_checkin
class Connection:
    """One keep-alive, Nagle-free HTTP connection of the load generator."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[float, int, bytes]:
        """(seconds, status, body); status 599 for a transport failure or timeout."""
        start = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
                self.conn.connect()
                self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
            return time.perf_counter() - start, response.status, data
        except (http.client.HTTPException, OSError) as exc:
            self.close()
            return time.perf_counter() - start, 599, repr(exc).encode()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def hosted_specs(ctx: Context) -> List[dict]:
    return [
        {
            "algorithm": "fedavg",
            "dataset": "mnist",
            "scale": "smoke",
            "scenario": "churn",
            "seed": ctx.seed + index,
            "label": f"hosted-{index}",
            # Far past any benchmark window: the runs stay live, accepting
            # check-ins, until they are cancelled.
            "overrides": {"rounds": 100000, "dtype": "float32"},
        }
        for index in range(2)
    ]


def submit_and_wait(conn: Connection, specs: List[dict]) -> List[dict]:
    """Submit the hosted runs and wait until every one is ``running``."""
    runs = []
    for spec in specs:
        _, status, data = conn.request("POST", "/runs", json.dumps({"spec": spec}).encode())
        if status >= 400:
            raise RuntimeError(f"submit failed ({status}): {data!r}")
        runs.append(json.loads(data))
    deadline = time.monotonic() + 60
    for run in runs:
        while True:
            _, status, data = conn.request("GET", f"/runs/{run['run_id']}")
            state = json.loads(data).get("state") if status == 200 else f"http {status}"
            if state == "running":
                break
            if state != "queued" or time.monotonic() > deadline:
                raise RuntimeError(f"hosted run {run['run_id'][:12]} is {state}, not running")
            time.sleep(0.02)
    return runs


def request_plan(ctx: Context, runs: List[dict], thread: int, checkins: int) -> List[Tuple[str, str, str, Optional[bytes]]]:
    """One connection's requests for a segment, encoded before the clock starts."""
    rng = np.random.default_rng([ctx.seed, thread])
    read_every = 5 if ctx.quick else READ_EVERY
    plan: List[Tuple[str, str, str, Optional[bytes]]] = []
    reads = 0
    while sum(1 for kind, *_ in plan if kind == "checkin") < checkins:
        run = runs[int(rng.integers(len(runs)))]
        if (len(plan) + 1) % read_every == 0:
            path = (
                f"/runs/{run['run_id']}",
                "/runs",
                f"/runs/{run['run_id']}/rounds?from=0&max=3",
            )[reads % 3]
            reads += 1
            plan.append(("read", "GET", path, None))
            continue
        clients = rng.integers(0, run["num_clients"], size=CHECKIN_LINES)
        lines = "".join(
            json.dumps({"run": run["run_id"], "client": int(c), "online": True}) + "\n"
            for c in clients
        )
        plan.append(("checkin", "POST", "/checkin", lines.encode()))
    return plan


class Load:
    """Closed loop: each thread sends its next request when the last returned."""

    def __init__(self, ctx: Context, host: str, port: int, runs: List[dict], checkins: int) -> None:
        per_thread = max(1, checkins // LOAD_THREADS)
        self.plans = [request_plan(ctx, runs, t, per_thread) for t in range(LOAD_THREADS)]
        self.conns = [Connection(host, port) for _ in range(LOAD_THREADS)]
        self.requests = self.failed = self.accepted = 0

    def segment(self) -> Dict[str, object]:
        """Replay every plan once; the clock starts after the threads do."""
        start_line = threading.Barrier(LOAD_THREADS + 1)
        reports: List[dict] = [dict(checkin=[], read=[], failed=0, accepted=0) for _ in self.plans]

        def replay(plan, conn, report) -> None:
            start_line.wait(timeout=30)
            for kind, method, path, body in plan:
                seconds, status, data = conn.request(method, path, body)
                report[kind].append(seconds)
                if status >= 400:
                    report["failed"] += 1
                elif kind == "checkin":
                    try:
                        accepted = int(json.loads(data).get("accepted", 0))
                    except (ValueError, AttributeError):
                        accepted = 0
                    report["accepted"] += accepted
                    if accepted == 0:
                        report["failed"] += 1

        threads = [
            threading.Thread(target=replay, args=(plan, conn, report), daemon=True)
            for plan, conn, report in zip(self.plans, self.conns, reports)
        ]
        for thread in threads:
            thread.start()
        start_line.wait(timeout=30)
        began = time.perf_counter()
        longest = sum(len(plan) for plan in self.plans) * REQUEST_TIMEOUT_S
        for thread in threads:
            thread.join(timeout=longest)
            if thread.is_alive():
                raise RuntimeError("load thread did not finish its segment")
        wall = time.perf_counter() - began
        merged = {
            "wall_s": wall,
            "checkin_s": [s for r in reports for s in r["checkin"]],
            "read_s": [s for r in reports for s in r["read"]],
            "accepted": sum(r["accepted"] for r in reports),
        }
        self.requests += len(merged["checkin_s"]) + len(merged["read_s"])
        self.failed += sum(r["failed"] for r in reports)
        self.accepted += merged["accepted"]
        return merged

    def close(self) -> None:
        for conn in self.conns:
            conn.close()


class ServerProcess:
    """``python -m repro serve`` as an operator would start it."""

    def __init__(self, ctx: Context, name: str) -> None:
        self.results_dir = ctx.workdir / name
        self.log = open(ctx.workdir / f"{name}.stderr", "w")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ctx.src) + os.pathsep + env.get("PYTHONPATH", "")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
             "--results-dir", str(self.results_dir), "--workers", "2"],
            stdout=subprocess.PIPE, stderr=self.log, text=True, env=env,
        )  # fmt: skip
        self.host, self.port = "", 0

    def wait_listening(self) -> None:
        # readline() blocks; a watchdog kills a server that never reports.
        watchdog = threading.Timer(60, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if "listening on" in line:
                    url = urlsplit(line.split("listening on", 1)[1].split()[0])
                    self.host, self.port = url.hostname, url.port
                    return
            raise RuntimeError(f"repro serve exited ({self.proc.wait(timeout=10)}) before listening")
        finally:
            watchdog.cancel()

    def stop(self) -> Tuple[float, bool]:
        """SIGTERM, wait for the drain; returns (seconds, drained in time)."""
        began = time.perf_counter()
        drained = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                drained = False
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()
        return time.perf_counter() - began, drained


def percentile_ms(seconds: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1000.0, q))


def cancel_and_stats(conn: Connection, runs: List[dict]) -> dict:
    for run in runs:
        conn.request("POST", f"/runs/{run['run_id']}/cancel", b"")
    _, status, data = conn.request("GET", "/stats")
    return json.loads(data) if status == 200 else {}


@contextmanager
def served(ctx: Context, out: Outcome, name: str, specs: List[dict]):
    """A server subprocess hosting the runs: spawn -> listening -> every run
    ``running`` is one set-up sample; drained and reaped afterwards."""
    server = ServerProcess(ctx, name)
    control: Optional[Connection] = None
    try:
        server.wait_listening()
        control = Connection(server.host, server.port)
        runs = submit_and_wait(control, specs)
        out.sample("setup_s", time.perf_counter() - server.started)
        yield server, control, runs
    finally:
        if control is not None:
            control.close()
        drain_s, drained = server.stop()
        out.attempted += 1
        out.check("SIGTERM drains within 60 s", drained, f"{drain_s:.2f} s")


def serve_checkin(ctx: Context) -> Outcome:
    """Closed-loop check-in load against a live server hosting two runs.

    Every check-in line announces a device as available.  With a share of
    ``online: false`` lines the server is not stationary — rounds collapse
    into drops and time-outs and each further segment gets slower (README,
    "What sizing found") — and a ruler needs a steady state.
    """
    out = Outcome()
    assert_untraced(ctx)
    checkins = 20 if ctx.quick else 400
    specs = hosted_specs(ctx)
    segments: List[dict] = []

    # Set-up is sampled on servers that take no load, then once more on the
    # server that does.
    for index in range(ctx.reps(5, 1) - 1):
        with served(ctx, out, f"served-{index}", specs) as (_server, control, runs):
            cancel_and_stats(control, runs)
    with served(ctx, out, "served-load", specs) as (server, control, runs):
        load = Load(ctx, server.host, server.port, runs, checkins)
        try:
            load.segment()  # warm-up: connections, the first three rounds on disk
            repeat(lambda index: segments.append(load.segment()), ctx.reps(50, 16), ctx.seconds)
            out.sample("peak_rss_mb", vm_hwm_mb(server.proc.pid))
            stats = cancel_and_stats(control, runs)
        finally:
            load.close()
    out.attempted += load.requests
    out.failed += load.failed
    out.check(
        "server admitted every accepted check-in line",
        stats.get("checkins") == load.accepted,
        f"/stats {stats.get('checkins')} vs accepted {load.accepted}",
    )
    # One sample per segment; latencies are percentiles over the requests of
    # that segment, and the best segment is the value reported.
    for segment in segments:
        out.sample("run_wall_s", segment["wall_s"])
        out.sample("checkin_events_per_s", segment["accepted"] / segment["wall_s"])
        out.sample("checkin_p50_ms", percentile_ms(segment["checkin_s"], 50))
        out.sample("checkin_p95_ms", percentile_ms(segment["checkin_s"], 95))
        out.sample("read_p50_ms", percentile_ms(segment["read_s"], 50))
    out.notes["samples_per_segment"] = {
        "checkin": len(segments[0]["checkin_s"]),
        "read": len(segments[0]["read_s"]),
    }
    out.digest = "n/a"  # hosted runs are cancelled mid-flight: nothing deterministic to hash
    if ctx.trace:
        traced_serve(ctx, out, specs, checkins)
    return out


def traced_serve(ctx: Context, out: Outcome, specs: List[dict], checkins: int) -> None:
    """The per-layer numbers: the same load against an in-process server,
    once without and once with the span wrappers installed, a fresh server
    each."""
    from repro.serve.server import ExperimentServer

    def in_process(name: str, traced: bool) -> Tuple[dict, list, Load, dict]:
        server = ExperimentServer(ctx.workdir / name, port=0, workers=2)
        server.start_background()
        control = Connection(*server.address)
        load: Optional[Load] = None
        try:
            runs = submit_and_wait(control, specs)
            load = Load(ctx, *server.address, runs, checkins)
            load.segment()
            if not traced:
                segment, spans = load.segment(), []
            else:
                with tracing(ctx, out) as tracer:
                    segment = load.segment()
                    spans = list(tracer.spans)
            return segment, spans, load, cancel_and_stats(control, runs)
        finally:
            if load is not None:
                load.close()
            control.close()
            server.drain(timeout=60)

    plain, _, plain_load, _ = in_process("served-plain", traced=False)
    segment, out.spans, load, stats = in_process("served-traced", traced=True)
    out.attempted += plain_load.requests + load.requests
    out.failed += plain_load.failed + load.failed
    # Here the root is the client's view: the share of request latency spent
    # outside the server's handler methods (socket, HTTP framing, waiting
    # for the GIL).
    spans = ctx.tracing.summarise(out.spans)
    handler_s = sum(spans[name].busy_s for name in ("serve.checkin", "serve.read") if name in spans)
    client_s = sum(segment["checkin_s"]) + sum(segment["read_s"])
    out.layer["trace.unattributed_share"] = max(0.0, 1.0 - handler_s / client_s) if client_s else 1.0
    out.layer["trace.overhead_share"] = segment["wall_s"] / plain["wall_s"] - 1.0
    out.layer["serve.errors"] = float(load.failed)
    out.layer["serve.stats.checkins_admitted"] = float(stats.get("checkins", 0))


RUNNERS: Dict[str, Callable[[Context], Outcome]] = {
    "paper_hetero": paper_hetero,
    "city_churn": city_churn,
    "sweep_grid": sweep_grid,
    "serve_checkin": serve_checkin,
}
WORKLOADS = tuple(RUNNERS)
