"""Sharded multi-process simulation: the compute plane behind ``--shards``.

One Python event loop pumping every simulated event is the scale ceiling
PR 8 left behind: the batched engine made a round's training a few big
numpy calls, but they still run on the parent's core.  This module
shards that compute plane across worker processes while keeping *all*
simulation state — the event queue, clients, network, dynamics — in the
parent, which is what makes the result bitwise identical to the
single-process run:

* :class:`ShardPlan` partitions the client population into ``N``
  contiguous ownership ranges (deterministic in ``(num_clients, N)``),
  so sorted client-id order *is* shard-block concatenation order.
* :class:`ShardedClientExecutor` subclasses the batched executor; only
  the cohort changes.  When a cohort's first wave is needed, its live
  lanes are split by owning shard and dispatched as one job per shard;
  each worker runs the same lockstep wave loop
  (:class:`repro.nn.batched.BatchedModel` for two or more lanes, the
  per-client oracle for a singleton) and snapshots every lane at its own
  batch horizon.  Because PR 8 pinned batched == solo for *any* lane
  width, a shard-local sub-cohort produces bitwise the same per-lane
  weights, losses and optimizer state as the parent's full-width cohort
  would — the partition is invisible in the results.
* Workers are stateless compute servers over ``multiprocessing`` pipes
  (spawn context, same re-import discipline as
  ``experiments/parallel``): a SIGKILLed worker is respawned and its
  outstanding jobs re-dispatched with identical results.
* :class:`HierarchicalAggregator` gives each shard an
  :class:`EdgeAggregator` over its block of round traffic and merges the
  edges at the root.  The default ``"exact"`` mode reduces the
  concatenation of the shard blocks — bitwise identical to the flat
  single-process reduction because ownership is contiguous — while
  ``"partial"`` reduces each block to a per-shard partial average first
  (mathematically equivalent, not bitwise, hence hash-relevant).

Per-shard RNG streams are split from the experiment seed with
``np.random.SeedSequence.spawn``; they seed each worker's template-model
initializer (overwritten by the round globals before any training, like
every client model's initializer).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.aggregation import fedavg_aggregate_flat
from repro.nn.batched import (
    BatchedClientExecutor,
    BatchedLane,
    BatchedProximalSGD,
    _Cohort,
    build_cohort,
)
from repro.nn.optim import ProximalSGD, SGD

#: Directory whose presence on ``sys.path`` makes ``import repro`` work in
#: spawned workers (as ``experiments/parallel.worker_pool`` does).
_PACKAGE_PARENT = str(Path(__file__).resolve().parents[2])


# ---------------------------------------------------------------------------
# Deterministic shard ownership
# ---------------------------------------------------------------------------
class ShardPlan:
    """Contiguous, deterministic partition of client ids across shards.

    Shard ``s`` owns ``range(start_s, start_s + size_s)`` with the first
    ``num_clients % num_shards`` shards one client larger (the
    ``np.array_split`` convention).  Contiguity is the property the exact
    aggregation mode rests on: sorting contributions by client id groups
    them into shard blocks automatically.
    """

    def __init__(self, num_clients: int, num_shards: int) -> None:
        if num_clients < 1:
            raise ValueError("num_clients must be at least 1")
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_clients = int(num_clients)
        self.num_shards = int(num_shards)
        base, extra = divmod(self.num_clients, self.num_shards)
        self._base = base
        self._extra = extra
        self.ranges: List[range] = []
        start = 0
        for shard in range(self.num_shards):
            size = base + (1 if shard < extra else 0)
            self.ranges.append(range(start, start + size))
            start += size

    def shard_of(self, client_id: int) -> int:
        """The shard owning ``client_id`` (O(1), no table)."""
        cid = int(client_id)
        if not 0 <= cid < self.num_clients:
            raise ValueError(f"client id {cid} outside [0, {self.num_clients})")
        pivot = (self._base + 1) * self._extra
        if cid < pivot:
            return cid // (self._base + 1)
        return self._extra + (cid - pivot) // self._base

    def owned(self, shard: int) -> range:
        return self.ranges[shard]


# ---------------------------------------------------------------------------
# Worker side: a stateless compute server over one pipe
# ---------------------------------------------------------------------------
def _maxrss_kb() -> int:
    # /proc VmHWM first: some container kernels report the same ru_maxrss
    # for every process, which would make per-worker bounds meaningless.
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - non-POSIX fallback
        return 0


def _template(templates: dict, architecture: str, dtype_name: str, seed: int):
    """The worker's model of one architecture/dtype, built once per worker."""
    from repro.nn.architectures import build_model
    from repro.nn.dtype import using_dtype

    cached = templates.get((architecture, dtype_name))
    if cached is None:
        with using_dtype(dtype_name):
            cached = build_model(architecture, rng=np.random.default_rng(seed))
        templates[(architecture, dtype_name)] = cached
    return cached


def _make_solo_optimizer(opt_key: tuple):
    if opt_key[0] == "prox":
        return ProximalSGD(
            lr=opt_key[1], mu=opt_key[2], momentum=opt_key[3], weight_decay=opt_key[4]
        )
    return SGD(lr=opt_key[1], momentum=opt_key[2], weight_decay=opt_key[3])


def _shadow_loader(lane: dict):
    from repro.data.loader import BatchLoader

    loader = BatchLoader(
        lane["x"], lane["y"], batch_size=lane["batch_size"], shuffle=lane["shuffle"]
    )
    loader.set_state(lane["loader_state"])
    return loader


def _train_solo(template, key: tuple, globals_by_section: dict, lane: dict) -> dict:
    """Singleton shard group: the per-client oracle path, verbatim."""
    loader = _shadow_loader(lane)
    model = template
    model.unfreeze_features()
    model.unfreeze_classifier()
    for section in model.SECTIONS:
        model.set_flat_weights(globals_by_section[section], section=section)
    optimizer = _make_solo_optimizer(key[5])
    optimizer.reset_state()
    if isinstance(optimizer, ProximalSGD):
        optimizer.set_anchor(
            {section: model.flat_parameters(section) for section in model.SECTIONS}
        )
    losses: List[float] = []
    for _ in range(lane["total"]):
        xb, yb = loader.next_batch()
        loss, _ = model.train_batch(xb, yb, optimizer)
        losses.append(float(loss))
    opt_state = optimizer.capture_state()
    opt_state.pop("anchor", None)
    return {
        "losses": losses,
        "weights": {s: model.get_flat_weights(s) for s in model.SECTIONS},
        "optimizer": opt_state,
        "loader_state": loader.state(),
    }


def _train_cohort(
    template, key: tuple, globals_by_section: dict, lanes: Sequence[dict], stats
) -> dict:
    """Shard-local lockstep: the parent cohort's wave loop, verbatim.

    Every lane draws each wave up to the group's horizon (exactly like
    ``_Cohort.advance``); a lane is snapshotted the wave it reaches its
    *own* total, which is the state the parent's fast-materialize path
    would read at that step count.  The kernel set lives for this job only.
    """
    from repro.nn.model import SplitCNN

    model, optimizer, x, y = build_cohort(key, len(lanes), template)
    model.load_all_lanes(globals_by_section)
    if isinstance(optimizer, BatchedProximalSGD):
        optimizer.set_anchor(dict(globals_by_section))
    loaders = [_shadow_loader(lane) for lane in lanes]
    results: Dict[int, dict] = {}
    losses_by_lane: List[List[float]] = [[] for _ in lanes]
    max_steps = max(lane["total"] for lane in lanes)
    for step in range(1, max_steps + 1):
        for index, loader in enumerate(loaders):
            xb, yb = loader.next_batch()
            x[index] = xb
            y[index] = yb
        wave = model.train_step(x, y, optimizer)
        stats["waves"] += 1
        for index, lane in enumerate(lanes):
            losses_by_lane[index].append(float(wave[index]))
            if lane["total"] == step:
                opt_state = optimizer.lane_state(index)
                opt_state.pop("anchor", None)
                results[lane["client_id"]] = {
                    "losses": list(losses_by_lane[index]),
                    "weights": {
                        s: model.lane_flat(s, index) for s in SplitCNN.SECTIONS
                    },
                    "optimizer": opt_state,
                    "loader_state": loaders[index].state(),
                }
    return results


def _execute_job(job: dict, templates: dict, stats: dict) -> dict:
    key = job["key"]
    stats["jobs"] += 1
    stats["lanes"] += len(job["lanes"])
    template = _template(templates, job["architecture"], key[1], job["seed"])
    lanes = job["lanes"]
    if len(lanes) == 1:
        stats["solo_lanes"] += 1
        lane = lanes[0]
        return {lane["client_id"]: _train_solo(template, key, job["globals"], lane)}
    return _train_cohort(template, key, job["globals"], lanes, stats)


def _shard_worker_main(conn, shard_index: int, parent_pid: int, package_parent: str) -> None:
    """Entry point of one shard worker (spawn context).

    Request/reply over ``conn``; an orphan watchdog exits when the parent
    pid changes (the parent was SIGKILLed — the crash harness relies on
    workers not outliving it).
    """
    import sys

    if package_parent and package_parent not in sys.path:
        sys.path.insert(0, package_parent)
    from repro.registry import load_plugins

    load_plugins()

    stats = {"jobs": 0, "lanes": 0, "solo_lanes": 0, "waves": 0, "cancels_received": 0}
    templates: dict = {}
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return
                continue
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "cancel":
            # Fire-and-forget: the parent cancelled round traffic for one
            # of this shard's clients (churn/disconnect).  Results are
            # collected eagerly, so there is nothing to interrupt — the
            # counter is the observable.
            stats["cancels_received"] += 1
            continue
        if kind == "snapshot":
            conn.send(
                (
                    "snapshot",
                    {
                        "shard": shard_index,
                        "pid": os.getpid(),
                        "stats": dict(stats),
                        "maxrss_kb": _maxrss_kb(),
                    },
                )
            )
            continue
        if kind == "job":
            job_id, payload = message[1], message[2]
            try:
                result = _execute_job(payload, templates, stats)
            except BaseException as exc:  # surface worker bugs to the parent
                conn.send(("error", job_id, repr(exc)))
                continue
            conn.send(("result", job_id, result))


# ---------------------------------------------------------------------------
# Parent side: the worker pool
# ---------------------------------------------------------------------------
class ShardWorkerError(RuntimeError):
    """A shard worker raised while executing a job."""


class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


class ShardPool:
    """One pipe-connected worker process per shard, spawned lazily.

    Workers are stateless (every job carries its full inputs), which is
    what makes the failure story simple: a dead worker — crashed,
    SIGKILLed, or found with a broken pipe — is respawned and its
    outstanding jobs re-dispatched, producing identical results.
    """

    def __init__(self, num_shards: int) -> None:
        self.num_shards = int(num_shards)
        self.stats_sink: Optional[dict] = None
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: List[Optional[_Worker]] = [None] * self.num_shards
        self._outstanding: Dict[Tuple[int, int], dict] = {}
        self._buffered: Dict[Tuple[int, int], dict] = {}

    # ---------------------------------------------------------------- spawn
    def _spawn(self, shard: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, shard, os.getpid(), _PACKAGE_PARENT),
            daemon=True,
        )
        # The spawned interpreter must be able to ``import repro`` before
        # it can unpickle the worker target: surface the package parent
        # through PYTHONPATH for the duration of the exec.
        saved = os.environ.get("PYTHONPATH")
        entries = [] if not saved else saved.split(os.pathsep)
        if _PACKAGE_PARENT not in entries:
            os.environ["PYTHONPATH"] = os.pathsep.join([_PACKAGE_PARENT] + entries)
        try:
            process.start()
        finally:
            if saved is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved
        child_conn.close()
        return _Worker(process, parent_conn)

    def _ensure_worker(self, shard: int) -> _Worker:
        worker = self._workers[shard]
        if worker is None:
            worker = self._spawn(shard)
            self._workers[shard] = worker
        return worker

    def worker_pid(self, shard: int) -> Optional[int]:
        worker = self._workers[shard]
        return worker.process.pid if worker is not None else None

    def _respawn_and_redispatch(self, shard: int) -> None:
        worker = self._workers[shard]
        if worker is not None:
            try:
                worker.process.terminate()
            except Exception:
                pass
            worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers[shard] = self._spawn(shard)
        if self.stats_sink is not None:
            self.stats_sink["worker_restarts"] = (
                self.stats_sink.get("worker_restarts", 0) + 1
            )
        for (job_shard, job_id), payload in sorted(self._outstanding.items()):
            if job_shard == shard:
                self._workers[shard].conn.send(("job", job_id, payload))

    # ------------------------------------------------------------------ rpc
    def submit(self, shard: int, job_id: int, payload: dict) -> None:
        self._outstanding[(shard, job_id)] = payload
        worker = self._ensure_worker(shard)
        try:
            worker.conn.send(("job", job_id, payload))
        except (BrokenPipeError, OSError):
            self._respawn_and_redispatch(shard)

    def collect(self, shard: int, job_id: int) -> dict:
        key = (shard, job_id)
        while True:
            if key in self._buffered:
                self._outstanding.pop(key, None)
                return self._buffered.pop(key)
            worker = self._ensure_worker(shard)
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._respawn_and_redispatch(shard)
                continue
            if message[0] == "result":
                self._buffered[(shard, message[1])] = message[2]
            elif message[0] == "error":
                self._outstanding.pop((shard, message[1]), None)
                raise ShardWorkerError(
                    f"shard {shard} worker failed job {message[1]}: {message[2]}"
                )

    def cancel(self, shard: int, client_id: int) -> None:
        """Fire-and-forget cancel notification for one client's traffic."""
        worker = self._workers[shard]
        if worker is None:
            return
        try:
            worker.conn.send(("cancel", int(client_id)))
        except (BrokenPipeError, OSError):
            pass

    def snapshot(self) -> List[Optional[dict]]:
        """Per-shard worker stats + peak RSS (``None`` for unspawned/dead)."""
        infos: List[Optional[dict]] = []
        for shard in range(self.num_shards):
            worker = self._workers[shard]
            if worker is None or not worker.process.is_alive():
                infos.append(None)
                continue
            try:
                worker.conn.send(("snapshot",))
                while True:
                    message = worker.conn.recv()
                    if message[0] == "snapshot":
                        infos.append(message[1])
                        break
                    if message[0] == "result":
                        self._buffered[(shard, message[1])] = message[2]
            except (BrokenPipeError, EOFError, OSError):
                infos.append(None)
        return infos

    # ------------------------------------------------------------ lifecycle
    def idle(self) -> bool:
        return not self._outstanding

    def close(self) -> None:
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
        for worker in self._workers:
            if worker is None:
                continue
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers = [None] * self.num_shards
        self._outstanding.clear()
        self._buffered.clear()


#: Idle pools kept warm across executors/runs (workers are stateless and
#: generic — every job carries its architecture/dtype/globals — so reuse
#: is safe and saves the ~1s spawn cost per worker per run).
_POOL_CACHE: Dict[int, ShardPool] = {}


def _acquire_pool(num_shards: int) -> ShardPool:
    pool = _POOL_CACHE.pop(num_shards, None)
    if pool is None:
        pool = ShardPool(num_shards)
    return pool


def _release_pool(pool: ShardPool) -> None:
    pool.stats_sink = None
    if not pool.idle() or pool.num_shards in _POOL_CACHE:
        pool.close()
        return
    _POOL_CACHE[pool.num_shards] = pool


@atexit.register
def _shutdown_cached_pools() -> None:  # pragma: no cover - process teardown
    for pool in list(_POOL_CACHE.values()):
        pool.close()
    _POOL_CACHE.clear()


# ---------------------------------------------------------------------------
# Hierarchical aggregation: edge partials, root merge
# ---------------------------------------------------------------------------
class EdgeAggregator:
    """Partial FedAvg over one shard's block of round contributions."""

    def __init__(self, shard: int) -> None:
        self.shard = shard

    def reduce(
        self, rows: Sequence[np.ndarray], sizes: Sequence[int]
    ) -> Tuple[np.ndarray, float]:
        partial = fedavg_aggregate_flat(rows, sizes)
        total = float(sum(max(int(size), 0) for size in sizes))
        return partial, total


class HierarchicalAggregator:
    """Edge aggregators per shard plus the root merge.

    ``"exact"`` (default): contributions arrive sorted by client id and
    shard ownership is contiguous, so the sorted order already *is* the
    concatenation of the shard blocks — the root reduces that
    concatenation with the unchanged flat kernel, bitwise identical to
    the single-process path while the tree structure (counted in
    ``edge_reduces``/``root_merges``) stays real.

    ``"partial"``: each edge reduces its block to one weighted partial;
    the root merges the partials weighted by shard sample totals.
    Mathematically the same average, not bitwise (float reduction order
    changes), which is why the mode is hash-relevant.
    """

    def __init__(self, plan: ShardPlan, mode: str = "exact", stats: Optional[dict] = None) -> None:
        if mode not in {"exact", "partial"}:
            raise ValueError(f"unknown shard aggregation mode {mode!r}")
        self.plan = plan
        self.mode = mode
        self.stats = stats if stats is not None else {}
        self.edges = [EdgeAggregator(shard) for shard in range(plan.num_shards)]

    def _blocks(self, client_ids: Sequence[int]) -> List[Tuple[int, slice]]:
        blocks: List[Tuple[int, slice]] = []
        start = 0
        while start < len(client_ids):
            shard = self.plan.shard_of(client_ids[start])
            stop = start + 1
            while stop < len(client_ids) and self.plan.shard_of(client_ids[stop]) == shard:
                stop += 1
            blocks.append((shard, slice(start, stop)))
            start = stop
        return blocks

    def aggregate_flat(
        self,
        rows: Sequence[np.ndarray],
        sizes: Sequence[int],
        client_ids: Sequence[int],
    ) -> np.ndarray:
        if len(client_ids) != len(rows):
            # A subclass reshaped the contribution list; without the id
            # alignment the tree cannot attribute rows to shards.
            return fedavg_aggregate_flat(rows, sizes)
        blocks = self._blocks(client_ids)
        self.stats["edge_reduces"] = self.stats.get("edge_reduces", 0) + len(blocks)
        self.stats["root_merges"] = self.stats.get("root_merges", 0) + 1
        if self.mode == "exact":
            # The blocks' concatenation is the input order: the root
            # reduction over it is the flat reduction, bit for bit.
            return fedavg_aggregate_flat(rows, sizes)
        partials: List[np.ndarray] = []
        weights: List[float] = []
        for shard, block in blocks:
            partial, total = self.edges[shard].reduce(rows[block], sizes[block])
            partials.append(partial)
            weights.append(total)
        return fedavg_aggregate_flat(partials, weights)


# ---------------------------------------------------------------------------
# Sharded executor: remote cohorts and lanes
# ---------------------------------------------------------------------------
class _ShardLane(BatchedLane):
    """Lane handle whose training ran on the owning shard worker."""

    def consume_loss(self) -> float:
        state = self._state
        state.consumed += 1
        self._cohort.ensure_results()
        return state.losses[state.consumed - 1]

    def materialize(self, client, drawn: int):
        cohort = self._cohort
        state = self._state
        executor = cohort.executor
        try:
            if drawn > 0:
                cohort.ensure_results()
                result = cohort.result_for(state.client_id)
                if result is not None and drawn == state.total_batches:
                    model = client.model
                    for section in model.SECTIONS:
                        model.set_flat_weights(
                            result["weights"][section], section=section
                        )
                    opt_state = dict(result["optimizer"])
                    if isinstance(client.optimizer, ProximalSGD):
                        # The worker strips the (bulky) anchor; it equals
                        # the round-start globals verbatim.
                        opt_state["anchor"] = {
                            section: np.array(vector, copy=True)
                            for section, vector in cohort.globals.items()
                        }
                    client.optimizer.restore_state(opt_state)
                    client.loader.set_state(result["loader_state"])
                    executor.stats["fast_materializations"] += 1
                    return result["losses"][drawn - 1]
            # Divergence (offload freeze, partial progress) or a zero-draw
            # exit: replay through the per-client oracle, exactly like the
            # in-process cohort does when it ran ahead.
            executor.stats["replays"] += 1
            return self._replay(client, drawn)
        finally:
            cohort.detach(state)

    def abandon(self, client, drawn: int) -> None:
        cohort = self._cohort
        state = self._state
        executor = cohort.executor
        if cohort.started:
            executor.stats["remote_cancels"] += 1
            executor.pool.cancel(
                executor.plan.shard_of(state.client_id), state.client_id
            )
        super().abandon(client, drawn)


class _ShardCohort(_Cohort):
    """A cohort whose wave loop runs on the shard workers.

    The parent never trains: on first demand the live lanes are
    partitioned by owning shard, one job per shard is dispatched, and the
    blocking collect fills every lane's full loss history (workers finish
    the cohort's horizon eagerly — the lockstep has no data dependence on
    the parent between waves).
    """

    lane_cls = _ShardLane

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._jobs: List[Tuple[int, int]] = []
        self._results: Optional[Dict[int, dict]] = None

    def ensure_results(self) -> None:
        if not self.started:
            self._dispatch()
        if self._results is None:
            self._collect()

    def result_for(self, client_id: int) -> Optional[dict]:
        return (self._results or {}).get(client_id)

    def _dispatch(self) -> None:
        self.started = True
        executor = self.executor
        self._active = [
            state for state in self.members.values() if state.activated and not state.detached
        ]
        for index, state in enumerate(self._active):
            state.index = index
        self.max_steps = max(state.total_batches for state in self._active)
        by_shard: Dict[int, List] = {}
        for state in self._active:
            by_shard.setdefault(executor.plan.shard_of(state.client_id), []).append(state)
        for shard in sorted(by_shard):
            lanes = []
            for state in by_shard[shard]:
                loader = state.client.loader
                lanes.append(
                    {
                        "client_id": state.client_id,
                        "total": state.total_batches,
                        "x": loader.x,
                        "y": loader.y,
                        "batch_size": loader.batch_size,
                        "shuffle": loader.shuffle,
                        "loader_state": state.start_loader_state,
                    }
                )
            job = {
                "key": self.key,
                "architecture": executor.architecture,
                "seed": executor.shard_seed(shard),
                "globals": self.globals,
                "lanes": lanes,
            }
            job_id = executor._next_job_id()
            executor.pool.submit(shard, job_id, job)
            self._jobs.append((shard, job_id))
        executor.stats["cohorts_started"] += 1
        executor.stats["lanes"] += len(self._active)
        executor.stats["shard_jobs"] += len(self._jobs)

    def _collect(self) -> None:
        executor = self.executor
        results: Dict[int, dict] = {}
        for shard, job_id in self._jobs:
            results.update(executor.pool.collect(shard, job_id))
        self._results = results
        for state in self._active:
            state.losses = list(results[state.client_id]["losses"])
        executor.stats["waves"] += self.max_steps
        self.steps_done = self.max_steps

    def advance(self) -> None:  # safety net for base-path callers
        self.ensure_results()


class ShardedClientExecutor(BatchedClientExecutor):
    """Batched executor whose cohorts train on shard worker processes."""

    cohort_cls = _ShardCohort

    def __init__(
        self,
        num_shards: int,
        num_clients: int,
        architecture: str,
        seed: int,
        aggregate_mode: str = "exact",
    ) -> None:
        super().__init__()
        self.plan = ShardPlan(num_clients, num_shards)
        self.architecture = architecture
        self.seed = int(seed)
        self.aggregate_mode = aggregate_mode
        self._shard_seeds = [
            int(stream.generate_state(1)[0])
            for stream in np.random.SeedSequence(self.seed).spawn(self.plan.num_shards)
        ]
        self._pool: Optional[ShardPool] = None
        self._job_counter = 0
        self.stats.update(
            {
                "shard_jobs": 0,
                "remote_cancels": 0,
                "worker_restarts": 0,
                "edge_reduces": 0,
                "root_merges": 0,
            }
        )
        self.hierarchy = HierarchicalAggregator(
            self.plan, mode=aggregate_mode, stats=self.stats
        )

    # ------------------------------------------------------------- plumbing
    @property
    def pool(self) -> ShardPool:
        if self._pool is None:
            self._pool = _acquire_pool(self.plan.num_shards)
            self._pool.stats_sink = self.stats
        return self._pool

    def shard_seed(self, shard: int) -> int:
        return self._shard_seeds[shard]

    def _next_job_id(self) -> int:
        self._job_counter += 1
        return self._job_counter

    def close(self) -> None:
        super().close()
        pool, self._pool = self._pool, None
        if pool is not None:
            _release_pool(pool)

    def _maybe_release(self, cohort) -> None:
        live = cohort in self._live
        super()._maybe_release(cohort)
        if live and cohort not in self._live and isinstance(cohort, _ShardCohort):
            cohort._results = None

    # ----------------------------------------------------------- checkpoint
    def shard_snapshot(self) -> dict:
        """Per-shard state merged into the run checkpoint."""
        workers = self._pool.snapshot() if self._pool is not None else None
        return {
            "num_shards": self.plan.num_shards,
            "aggregate_mode": self.aggregate_mode,
            "seed": self.seed,
            "shard_seeds": list(self._shard_seeds),
            "stats": dict(self.stats),
            "workers": workers,
        }

    def restore_shard_snapshot(self, snapshot: Optional[dict]) -> None:
        """Re-absorb cumulative counters from a checkpoint.

        Worker processes are not restored — they are stateless, and the
        resumed run re-seeds its shard streams from the config — so only
        the parent-side counters carry over.
        """
        if not snapshot:
            return
        for key, value in (snapshot.get("stats") or {}).items():
            if key in self.stats:
                self.stats[key] = self.stats[key] + int(value)
