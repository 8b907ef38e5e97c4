"""Span tracing installed from outside the program.

The benchmark must not ask the program for timing hooks, so the traced run
monkey-patches wrappers around the public entry points of each layer:
class methods are patched on the class (and on every loaded subclass that
overrides them), module-level functions in the namespace of the module
that *calls* them (``from x import f`` binds a private name there).

Each span is ``(id, name, start, end, parent, work)``; ``parent`` is the
span that was open on the same thread when this one started (0: none), and
``work`` is a layer-specific count (lanes of a batched step, bytes of a
checkpoint, ...; 1 when the target declares none).  Spans stay in memory
until the benchmark writes them out.

A target that cannot be resolved is recorded in ``Tracer.missing`` and
skipped: later changes may delete or rename it, and may not edit this
directory to say so.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import pickle
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

Span = Tuple[int, str, float, float, int, float]
Work = Callable[[tuple, object], float]


class Target(NamedTuple):
    """One patch point: ``module`` is imported, ``path`` resolved inside it."""

    span: str
    module: str
    path: str  # "function" or "Class.method"
    work: Optional[Work] = None
    kind: str = "call"  # "call" | "iterator" | "inject"
    keep: bool = False  # remember the instances the method was called on


def _lanes(args: tuple, result: object) -> float:
    return float(getattr(args[0], "lanes", 0))


def _events_processed(args: tuple, result: object) -> float:
    # One ``run()`` drains one environment, so its total is this call's.
    return float(args[0].events_processed)


def _pairs(args: tuple, result: object) -> float:
    n = int(args[0].num_submissions)
    return n * (n - 1) / 2.0


def _pickled_bytes(args: tuple, result: object) -> float:
    # submit(self, shard, job_id, payload): the pipe carries this pickle.
    return float(len(pickle.dumps(args[3], protocol=pickle.HIGHEST_PROTOCOL)))


def _checkpoint_bytes(args: tuple, result: object) -> float:
    return float(os.path.getsize(args[0]))


def _checkin_lines(args: tuple, result: object) -> float:
    return float(result.get("accepted", 0) + result.get("rejected", 0))


#: Span name -> the layer it belongs to is the name's first component.
#: Names carrying a metric of their own are listed in the README table.
TARGETS: Tuple[Target, ...] = (
    # nn: the per-client engine, the batched lockstep engine, evaluation
    Target("nn.train_batch", "repro.nn.model", "SplitCNN.train_batch"),
    Target("nn.batched_step", "repro.nn.batched", "BatchedModel.train_step", _lanes),
    Target("nn.evaluate", "repro.nn.model", "SplitCNN.evaluate"),
    # fl: federator round engine, client actors, checkpoints, transport
    Target("fl.aggregate", "repro.fl.federator", "BaseFederator.aggregate"),
    Target("fl.finalize_round", "repro.fl.federator", "BaseFederator.finalize_round"),
    Target("fl.federator", "repro.fl.federator", "BaseFederator.handle_message"),
    # Batch completions re-enter the client from the event loop through
    # private callbacks; what they do outside `nn` is booked on the loop.
    Target("fl.client", "repro.fl.client", "FLClient.handle_message"),
    Target("fl.checkpoint.capture", "repro.fl.checkpoint", "capture_snapshot"),
    Target("fl.checkpoint.write", "repro.fl.checkpoint", "write_checkpoint", _checkpoint_bytes),
    Target("fl.transport.send", "repro.fl.transport", "ReliableTransport.send"),
    # simulation: event loop, network, scenario dynamics, pool, shard plane
    Target("simulation.events.run", "repro.simulation.events", "SimulationEnvironment.run", _events_processed),
    Target("simulation.events.step", "repro.simulation.events", "SimulationEnvironment.step"),
    Target("simulation.network", "repro.simulation.network", "Network.send"),
    # The scenario callbacks have no public name; `_fire` is where the event
    # loop enters all of them.
    Target("simulation.dynamics", "repro.simulation.dynamics", "ScenarioDynamics._fire"),
    Target("simulation.virtual_pool", "repro.simulation.virtual_pool", "VirtualClientPool.ensure_active"),
    Target("simulation.shard.submit", "repro.simulation.shard", "ShardPool.submit", _pickled_bytes, keep=True),
    Target("simulation.shard.collect", "repro.simulation.shard", "ShardPool.collect"),
    # core: Aergia's similarity set-up, scheduler, freeze/offload packaging
    Target("core.similarity", "repro.core.enclave", "SGXEnclave.similarity_matrix", _pairs),
    Target("core.schedule", "repro.core.aergia", "schedule_offloading"),
    Target("core.freeze", "repro.core.aergia", "recombine_offloaded_model"),
    Target("core.freeze", "repro.core.freezing", "FrozenModelPackage.from_model"),
    Target("core.freeze", "repro.core.freezing", "FrozenModelPackage.load_into"),
    # data: dataset generation, partition planning, shard derivation, batches
    Target("data.load_dataset", "repro.fl.runtime", "load_dataset"),
    Target("data.plan_partition", "repro.fl.runtime", "plan_partition"),
    Target("data.partition", "repro.data.partition", "PartitionPlan.partition"),
    Target("data.next_batch", "repro.data.loader", "BatchLoader.next_batch"),
    # api: run store writes and reads, the streaming run handle
    Target("api.store.append", "repro.api.store", "RunWriter.append"),
    Target("api.store.finalize", "repro.api.store", "RunWriter.finalize"),
    Target("api.store.get", "repro.api.store", "RunStore.get"),
    Target("api.store.load_result", "repro.api.store", "StoredRun.load_result"),
    Target("api.run", "repro.api.handles", "RunHandle.stream", kind="iterator"),
    # experiments: sweep entry, scheduler, run identity hashing
    Target("experiments.sweep", "repro.api", "sweep"),
    Target("experiments.sweep", "repro.experiments.scheduler", "SweepScheduler.run"),
    Target("experiments.run_key", "repro.api.handles", "run_key"),
    Target("experiments.run_key", "repro.api.store", "run_key"),
    Target("experiments.run_key", "repro.serve.session", "run_key"),
    # serve: request handlers and the inject queue into hosted runs
    # Lines are counted from the reply: a span per `SessionManager.checkin`
    # (50 a request) cost a quarter of the traced segment.
    Target("serve.checkin", "repro.serve.server", "ExperimentServer.checkin", _checkin_lines),
    Target("serve.read", "repro.serve.server", "ExperimentServer.run_status"),
    Target("serve.read", "repro.serve.server", "ExperimentServer.list_runs"),
    Target("serve.inject", "repro.api.handles", "RunHandle.inject", kind="inject"),
)


#: Spans that measure waiting, not work: left out of self-time budgets.
WAIT_SPANS = frozenset({"serve.inject"})


class Tracer:
    """Installs span wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        #: Instances seen by ``keep`` targets, by span name (the harness asks
        #: a captured ShardPool for its worker snapshot).
        self.instances: Dict[str, list] = {}
        self._patched: List[Tuple[object, str, object]] = []
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._local = threading.local()

    # ------------------------------------------------------------- recording
    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str, work: float = 1.0):
        """A span opened by the harness itself (the root of a traced run)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, work))

    def _wrap_call(self, name: str, fn: Callable, work: Optional[Work], keep: bool) -> Callable:
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter
        seen = self.instances.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            units = 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                units = work(args, result) if work is not None else 1.0
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, units))
                if seen is not None and args and args[0] not in seen:
                    seen.append(args[0])

        return wrapper

    def _wrap_iterator(self, name: str, fn: Callable) -> Callable:
        """For a method returning an iterator: one span per item pulled."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def pulled():
                while True:
                    with tracer.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item

            return pulled()

        return wrapper

    def _wrap_inject(self, name: str, fn: Callable) -> Callable:
        """``inject(self, action)``: the span is enqueue -> the action runs."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(self_, action):
            enqueued = clock()

            def timed_action():
                spans.append((next(ids), name, enqueued, clock(), 0, 1.0))
                return action()

            return fn(self_, timed_action)

        return wrapper

    # ------------------------------------------------------------ installing
    def _patch(self, owner: object, attr: str, target: Target) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if target.kind == "iterator":
            wrapped = self._wrap_iterator(target.span, fn)
        elif target.kind == "inject":
            wrapped = self._wrap_inject(target.span, fn)
        else:
            wrapped = self._wrap_call(target.span, fn, target.work, target.keep)
        wrapped.__e2e_span__ = target.span
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrapped)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        for target in targets:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}:{target.path}")
                continue
            if isinstance(owner, type):
                # An override in a loaded subclass would bypass a patch on
                # the base class alone.
                owners = [c for c in _with_subclasses(owner) if attr in c.__dict__]
            else:
                owners = [owner]
            if not owners:  # inherited from outside the hierarchy: not ours to patch
                self.missing.append(f"{target.module}:{target.path}")
            for each in owners:
                self._patch(each, attr, target)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    @property
    def installed(self) -> bool:
        return bool(self._patched)


def _resolve(target: Target) -> Tuple[object, str]:
    """The object holding the target and the attribute name on it."""
    owner: object = importlib.import_module(target.module)
    *parents, attr = target.path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # AttributeError when the target is gone
    return owner, attr


def _with_subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found


def installed_wrappers(targets: Tuple[Target, ...] = TARGETS) -> List[str]:
    """Targets that resolve to a span wrapper right now; must be empty
    whenever an end-to-end number is measured."""
    found = []
    for target in targets:
        try:
            owner, attr = _resolve(target)
        except (ImportError, AttributeError):
            continue
        current = getattr(owner, attr)
        if hasattr(getattr(current, "__func__", current), "__e2e_span__"):
            found.append(f"{target.module}:{target.path}")
    return found


class SpanStats(NamedTuple):
    calls: int
    busy_s: float  # time inside the outermost spans of this name
    self_s: float  # busy time minus the time covered by child spans
    work: float


def summarise(spans: List[Span]) -> Dict[str, SpanStats]:
    """Per span name: calls, busy time, self time and summed work."""
    by_id = {span[0]: span for span in spans}
    child_time: Dict[int, float] = {}
    for span_id, _name, start, end, parent, _work in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: Dict[str, List[float]] = {}
    for span_id, name, start, end, parent, work in spans:
        duration = end - start
        nested = False
        while parent:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break
            if ancestor[1] == name:
                nested = True
                break
            parent = ancestor[4]
        entry = totals.setdefault(name, [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        if not nested:
            entry[1] += duration
        entry[2] += max(0.0, duration - child_time.get(span_id, 0.0))
        entry[3] += work
    return {name: SpanStats(int(v[0]), v[1], v[2], v[3]) for name, v in totals.items()}


# --------------------------------------------------------------------------
# Per-layer metrics: what each one is derived from, and what it should move
# --------------------------------------------------------------------------
def _of(field: str, *names: str) -> Callable[[Dict[str, SpanStats], Dict[str, float]], float]:
    """Sum one SpanStats field over the named spans."""
    return lambda stats, extras: float(sum(getattr(stats[n], field) for n in names if n in stats))


def _extra(key: str) -> Callable[[Dict[str, SpanStats], Dict[str, float]], float]:
    """A value the workload read from the program's own counters."""
    return lambda stats, extras: float(extras.get(key, 0.0))


def _events(stats: Dict[str, SpanStats], extras: Dict[str, float]) -> float:
    run, step = stats.get("simulation.events.run"), stats.get("simulation.events.step")
    return (run.work if run else 0.0) + (step.calls if step else 0.0)


_EVENT_LOOP = ("simulation.events.run", "simulation.events.step")

#: (name, unit, better, derivation, end-to-end metric it should move and where)
LAYER_METRICS = (
    ("nn.train_batch.calls", "count", "lower", _of("calls", "nn.train_batch"), "run_wall_s on paper_hetero"),
    ("nn.train_batch.busy_s", "s", "lower", _of("busy_s", "nn.train_batch"), "run_wall_s on paper_hetero (most of it); ~0 on city_churn"),
    ("nn.batched_step.calls", "count", "lower", _of("calls", "nn.batched_step"), "run_wall_s on city_churn; 0 on paper_hetero"),
    ("nn.batched_step.busy_s", "s", "lower", _of("busy_s", "nn.batched_step"), "run_wall_s on city_churn"),
    ("nn.batched_step.lanes", "count", "higher", _of("work", "nn.batched_step"), "run_wall_s on city_churn (lanes per step amortise the kernels)"),
    ("nn.evaluate.calls", "count", "lower", _of("calls", "nn.evaluate"), "run_wall_s on city_churn, paper_hetero"),
    ("nn.evaluate.busy_s", "s", "lower", _of("busy_s", "nn.evaluate"), "run_wall_s on city_churn (serial, in the parent), paper_hetero"),
    ("nn.batched.replays", "count", "lower", _extra("nn.batched.replays"), "run_wall_s on city_churn"),
    ("nn.batched.fast_materializations", "count", "higher", _extra("nn.batched.fast_materializations"), "run_wall_s on city_churn"),
    ("nn.batched.fallbacks", "count", "lower", _extra("nn.batched.fallbacks"), "run_wall_s on city_churn"),
    ("nn.batched.replay_share", "ratio", "lower", _extra("nn.batched.replay_share"), "run_wall_s on city_churn (replayed lanes train twice)"),
    ("fl.aggregate.calls", "count", "lower", _of("calls", "fl.aggregate"), "run_wall_s (expected small everywhere)"),
    ("fl.aggregate.busy_s", "s", "lower", _of("busy_s", "fl.aggregate"), "run_wall_s (expected small everywhere)"),
    ("fl.finalize_round.self_s", "s", "lower", _of("self_s", "fl.finalize_round"), "run_wall_s (expected small everywhere)"),
    ("fl.client.self_s", "s", "lower", _of("self_s", "fl.client"), "run_wall_s (expected small everywhere)"),
    ("fl.federator.self_s", "s", "lower", _of("self_s", "fl.federator"), "run_wall_s on sweep_grid (async federators live here)"),
    ("fl.checkpoint.writes", "count", "lower", _of("calls", "fl.checkpoint.write"), "run_wall_s on sweep_grid"),
    ("fl.checkpoint.busy_s", "s", "lower", _of("busy_s", "fl.checkpoint.capture", "fl.checkpoint.write"), "run_wall_s on sweep_grid"),
    ("fl.checkpoint.bytes", "B", "lower", _of("work", "fl.checkpoint.write"), "run_wall_s on sweep_grid"),
    ("fl.transport.sends", "count", "lower", _of("calls", "fl.transport.send"), "run_wall_s on sweep_grid"),
    ("fl.transport.retransmits", "count", "lower", _extra("fl.transport.retransmits"), "run_wall_s on sweep_grid"),
    ("fl.transport.expired", "count", "lower", _extra("fl.transport.expired"), "run_wall_s on sweep_grid"),
    ("fl.transport.self_s", "s", "lower", _of("self_s", "fl.transport.send"), "run_wall_s on sweep_grid"),
    ("simulation.events.count", "count", "lower", _events, "run_wall_s on sweep_grid, city_churn"),
    ("simulation.events.self_s", "s", "lower", _of("self_s", *_EVENT_LOOP), "run_wall_s (the loop plus callbacks no span covers)"),
    ("simulation.network.sends", "count", "lower", _of("calls", "simulation.network"), "run_wall_s on sweep_grid, city_churn"),
    ("simulation.network.self_s", "s", "lower", _of("self_s", "simulation.network"), "run_wall_s on sweep_grid, city_churn"),
    ("simulation.dynamics.fired", "count", "lower", _of("calls", "simulation.dynamics"), "run_wall_s on sweep_grid, city_churn; 0 on paper_hetero"),
    ("simulation.dynamics.self_s", "s", "lower", _of("self_s", "simulation.dynamics"), "run_wall_s on sweep_grid, city_churn"),
    ("simulation.virtual_pool.hydrations", "count", "lower", _extra("simulation.virtual_pool.hydrations"), "run_wall_s on city_churn"),
    ("simulation.virtual_pool.evictions", "count", "lower", _extra("simulation.virtual_pool.evictions"), "run_wall_s, peak_rss_mb on city_churn"),
    ("simulation.virtual_pool.busy_s", "s", "lower", _of("busy_s", "simulation.virtual_pool"), "run_wall_s on city_churn"),
    ("shard2_run_wall_s", "s", "lower", _extra("shard2_run_wall_s"), "itself: end-to-end on city_churn only, from its untraced shards=2 repetitions"),
    ("simulation.shard.over_flat", "ratio", "lower", _extra("simulation.shard.over_flat"), "shard2_run_wall_s / run_wall_s, paired, on city_churn"),
    ("simulation.shard.jobs", "count", "lower", _extra("simulation.shard.jobs"), "shard2_run_wall_s on city_churn"),
    ("simulation.shard.submit_s", "s", "lower", _of("busy_s", "simulation.shard.submit"), "shard2_run_wall_s on city_churn (pickle + pipe write)"),
    ("simulation.shard.collect_wait_s", "s", "lower", _of("busy_s", "simulation.shard.collect"), "shard2_run_wall_s on city_churn (parent idle, waiting for the slower worker)"),
    ("simulation.shard.payload_bytes", "B", "lower", _of("work", "simulation.shard.submit"), "shard2_run_wall_s on city_churn"),
    ("simulation.shard.worker_peak_rss_mb", "MB", "lower", _extra("simulation.shard.worker_peak_rss_mb"), "memory of a sharded city_churn run"),
    ("core.similarity.pairs", "count", "lower", _of("work", "core.similarity"), "setup_s on city_churn"),
    ("core.similarity.busy_s", "s", "lower", _of("busy_s", "core.similarity"), "setup_s on city_churn (most of it); tiny on paper_hetero"),
    ("core.schedule.calls", "count", "lower", _of("calls", "core.schedule"), "run_wall_s on paper_hetero, city_churn"),
    ("core.schedule.busy_s", "s", "lower", _of("busy_s", "core.schedule"), "run_wall_s on paper_hetero, city_churn"),
    ("core.offloads", "count", "higher", _extra("core.offloads"), "simulated time, not wall time: offloads are Aergia working"),
    ("core.freeze.busy_s", "s", "lower", _of("busy_s", "core.freeze"), "run_wall_s on paper_hetero, city_churn"),
    ("data.load_dataset.calls", "count", "lower", _of("calls", "data.load_dataset"), "setup_s on sweep_grid (regenerated per cell)"),
    ("data.load_dataset.busy_s", "s", "lower", _of("busy_s", "data.load_dataset"), "setup_s on sweep_grid, city_churn"),
    ("data.plan_partition.busy_s", "s", "lower", _of("busy_s", "data.plan_partition"), "setup_s on sweep_grid, city_churn"),
    ("data.partition.calls", "count", "lower", _of("calls", "data.partition"), "run_wall_s on city_churn (hydration derives shards)"),
    ("data.partition.busy_s", "s", "lower", _of("busy_s", "data.partition"), "run_wall_s on city_churn"),
    ("data.next_batch.calls", "count", "lower", _of("calls", "data.next_batch"), "run_wall_s on all batch workloads"),
    ("data.next_batch.busy_s", "s", "lower", _of("busy_s", "data.next_batch"), "run_wall_s on all batch workloads"),
    ("api.store.append.calls", "count", "lower", _of("calls", "api.store.append"), "run_wall_s on sweep_grid"),
    ("api.store.append.busy_s", "s", "lower", _of("busy_s", "api.store.append"), "run_wall_s on sweep_grid (cold pass)"),
    ("api.store.finalize.busy_s", "s", "lower", _of("busy_s", "api.store.finalize"), "run_wall_s on sweep_grid (cold pass)"),
    ("api.store.get.calls", "count", "lower", _of("calls", "api.store.get"), "run_wall_s on sweep_grid"),
    ("api.store.get.busy_s", "s", "lower", _of("busy_s", "api.store.get"), "run_wall_s on sweep_grid (warm pass reads)"),
    ("api.store.load_result.calls", "count", "lower", _of("calls", "api.store.load_result"), "run_wall_s on sweep_grid"),
    ("api.store.load_result.busy_s", "s", "lower", _of("busy_s", "api.store.load_result"), "run_wall_s on sweep_grid (warm pass reads)"),
    ("api.store.bytes_written", "B", "lower", _extra("api.store.bytes_written"), "run_wall_s on sweep_grid"),
    ("api.run.self_s", "s", "lower", _of("self_s", "api.run"), "run_wall_s on sweep_grid (the streaming pump)"),
    ("experiments.sweep.cells", "count", "lower", _extra("experiments.sweep.cells"), "run_wall_s on sweep_grid"),
    ("experiments.sweep.store_hits", "count", "higher", _extra("experiments.sweep.store_hits"), "run_wall_s on sweep_grid (hits skip the run)"),
    ("experiments.sweep.self_s", "s", "lower", _of("self_s", "experiments.sweep"), "run_wall_s on sweep_grid"),
    ("experiments.run_key.calls", "count", "lower", _of("calls", "experiments.run_key"), "run_wall_s on sweep_grid"),
    ("experiments.run_key.busy_s", "s", "lower", _of("busy_s", "experiments.run_key"), "run_wall_s on sweep_grid"),
    ("checkin_events_per_s", "1/s", "higher", _extra("checkin_events_per_s"), "itself: end-to-end on serve_checkin only (accepted check-in lines per second)"),
    ("checkin_p50_ms", "ms", "lower", _extra("checkin_p50_ms"), "itself: end-to-end on serve_checkin only"),
    ("checkin_p95_ms", "ms", "lower", _extra("checkin_p95_ms"), "itself: end-to-end on serve_checkin only"),
    ("read_p50_ms", "ms", "lower", _extra("read_p50_ms"), "itself: end-to-end on serve_checkin only (GETs under the same load)"),
    ("serve.checkin.requests", "count", "lower", _of("calls", "serve.checkin"), "checkin_events_per_s on serve_checkin"),
    ("serve.checkin.lines", "count", "lower", _of("work", "serve.checkin"), "checkin_events_per_s on serve_checkin"),
    ("serve.checkin.busy_s", "s", "lower", _of("busy_s", "serve.checkin"), "checkin_events_per_s, checkin_p50_ms on serve_checkin"),
    ("serve.inject.calls", "count", "lower", _of("calls", "serve.inject"), "checkin_p95_ms on serve_checkin"),
    ("serve.inject.wait_s", "s", "lower", _of("busy_s", "serve.inject"), "checkin_p95_ms on serve_checkin (enqueue until the hosted run applies it)"),
    ("serve.read.busy_s", "s", "lower", _of("busy_s", "serve.read"), "read_p50_ms on serve_checkin"),
    ("serve.errors", "count", "lower", _extra("serve.errors"), "failed operations on serve_checkin"),
    ("serve.stats.checkins_admitted", "count", "higher", _extra("serve.stats.checkins_admitted"), "correctness on serve_checkin: equals the accepted lines"),
    ("proc.cold_run_wall_s", "s", "lower", _extra("proc.cold_run_wall_s"), "what a one-shot `repro run`/`repro sweep` pays: the first repetition in a fresh process"),
    ("trace.overhead_share", "ratio", "lower", _extra("trace.overhead_share"), "nothing: traced / untraced best repetition - 1"),
    ("trace.missing_targets", "count", "lower", _extra("trace.missing_targets"), "nothing: wrap targets that no longer exist"),
    ("trace.unattributed_share", "ratio", "lower", _extra("trace.unattributed_share"), "nothing: share of a traced repetition no layer span covers"),
)


def layer_metrics(spans: List[Span], extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 where the workload never enters the layer."""
    stats = summarise(spans)
    return {name: derive(stats, extras) for name, _unit, _better, derive, _moves in LAYER_METRICS}


def layer_self_times(spans: List[Span], under: Optional[str] = None) -> Dict[str, float]:
    """Self time per layer (the first component of the span name), over all
    spans or only those below a span named ``under``."""
    if under is not None:
        by_id = {span[0]: span for span in spans}

        def below(span: Span) -> bool:
            parent = by_id.get(span[4])
            while parent is not None:
                if parent[1] == under:
                    return True
                parent = by_id.get(parent[4])
            return False

        spans = [span for span in spans if below(span)]
    layers: Dict[str, float] = {}
    for name, stats in summarise(spans).items():
        if name in WAIT_SPANS:
            continue
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + stats.self_s
    return layers
