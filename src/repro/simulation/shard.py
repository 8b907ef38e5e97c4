"""Sharded multi-process simulation: the compute plane behind ``--shards``.

The event loop never trains (:mod:`repro.fl.training`): a client's round
is a job that runs once, where its result is first read.  This module
runs a read point's jobs on worker processes while *all* simulation state
— the event queue, clients, network, dynamics, aggregation — stays in the
parent, which is what keeps results bitwise identical to one process:

* :class:`ShardPlan` partitions the clients into ``N`` contiguous
  ownership ranges: the owner of a client is an O(1) lookup.
* :class:`ShardedClientExecutor` puts every job of a read point on the
  pipe of the worker owning its client, then collects them, reading every
  worker's pipe while it waits so that no worker stalls on a full one.
  The worker runs the same :func:`~repro.fl.training.train` as the parent.
* Workers are stateless compute servers, each a fresh interpreter started
  with :mod:`subprocess` and talking over a socket pair wrapped in a
  ``multiprocessing`` :class:`~multiprocessing.connection.Connection`:
  jobs in, results out.  Nothing re-imports the parent's ``__main__``, so
  a script fed through stdin or one without a ``__main__`` guard can run
  sharded.  A SIGKILLed worker is respawned and its outstanding jobs
  re-dispatched with identical results.
"""

from __future__ import annotations

import atexit
import itertools
import os
import socket
import subprocess
import sys
import threading
from collections import deque
from multiprocessing import connection
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fl.training import LocalTrainer, TrainingJob, train
from repro.nn.batched import kernels_cover
from repro.nn.model import SplitCNN

#: Directory whose presence on ``sys.path`` makes ``import repro`` work in
#: a worker (as ``experiments/parallel.worker_pool`` does).
_PACKAGE_PARENT = str(Path(__file__).resolve().parents[2])

#: What a worker interpreter runs: adopt the parent's ``sys.path`` (the
#: first message on its end of the socket pair), then serve jobs.  A worker
#: that cannot import the package says why before it exits.
_WORKER_BOOT = """\
import sys
from multiprocessing.connection import Connection
conn = Connection(int(sys.argv[1]))
sys.path[:] = conn.recv()
try:
    from repro.simulation.shard import _shard_worker_main
except BaseException as exc:
    conn.send(("error", None, repr(exc)))
    raise
_shard_worker_main(conn, int(sys.argv[2]), int(sys.argv[3]))
"""


# ---------------------------------------------------------------------------
# Deterministic shard ownership
# ---------------------------------------------------------------------------
class ShardPlan:
    """Contiguous, deterministic partition of client ids across shards.

    Shard ``s`` owns ``range(start_s, start_s + size_s)`` with the first
    ``num_clients % num_shards`` shards one client larger (the
    ``np.array_split`` convention), so the owner of a client is a pure
    function of ``(client_id, num_clients, num_shards)``.
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


def _template(templates: dict, architecture: str):
    """The worker's model of one architecture, built once per worker.

    Its initial weights never matter: :func:`repro.fl.training.train`
    overwrites every section with the job's start weights before the first
    step.
    """
    from repro.nn.architectures import build_model

    cached = templates.get(architecture)
    if cached is None:
        cached = templates[architecture] = build_model(architecture)
    return cached


def _shard_worker_main(conn, shard_index: int, parent_pid: int) -> None:
    """Entry point of one shard worker (see :data:`_WORKER_BOOT`).

    Jobs run in arrival order on this thread, one reply each.  A second
    thread reads the pipe as fast as the parent writes it: a round's
    submissions never wait in the parent behind the job that is running
    (the parent would stall on a full pipe with the other shards' jobs
    still unsent); it also answers snapshots while a job runs.  An orphan
    watchdog exits when the parent pid changes (the parent was SIGKILLed —
    the crash harness relies on workers not outliving it).
    """
    from repro.registry import load_plugins

    load_plugins()

    stats = {"jobs": 0}
    queued: deque = deque()  # job messages, then ("stop",) when the pipe ends
    changed = threading.Condition()  # guards ``queued`` and ``stats``
    sending = threading.Lock()  # one writer on the pipe at a time

    def receive() -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = ("stop",)
            kind = message[0]
            if kind == "snapshot":
                with changed:
                    counters = dict(stats)
                info = {
                    "shard": shard_index,
                    "pid": os.getpid(),
                    "stats": counters,
                    "maxrss_kb": _maxrss_kb(),
                }
                with sending:
                    conn.send(("snapshot", info))
                continue
            with changed:
                queued.append(message)
                changed.notify()
            if kind == "stop":
                return

    threading.Thread(target=receive, name="shard-pipe-reader", daemon=True).start()
    templates: dict = {}
    while True:
        with changed:
            while not queued:
                if not changed.wait(1.0) and os.getppid() != parent_pid:
                    return
            message = queued.popleft()
            if message[0] == "stop":
                return
            stats["jobs"] += 1
        _, job_id, job = message
        try:
            model = _template(templates, job["architecture"])
            reply = ("result", job_id, train(model, job))
        except BaseException as exc:  # surface worker bugs to the parent
            reply = ("error", job_id, repr(exc))
        with sending:
            conn.send(reply)


# ---------------------------------------------------------------------------
# Parent side: the worker pool
# ---------------------------------------------------------------------------
class ShardWorkerError(RuntimeError):
    """A shard worker raised while executing a job, or could not start."""


class _Worker:
    __slots__ = ("process", "conn", "replied", "strikes")

    def __init__(self, process: subprocess.Popen, conn, strikes: int) -> None:
        self.process = process
        self.conn = conn
        #: Whether anything has come back from this worker yet.
        self.replied = False
        #: How many workers before this one, in a row, died without a reply.
        self.strikes = strikes


class ShardPool:
    """One socket-connected worker process per shard, started lazily.

    Workers are stateless (every job carries its full inputs), which is
    what makes the failure story simple: a dead worker — crashed,
    SIGKILLed, or found with a broken pipe — is respawned and its
    outstanding jobs re-dispatched, producing identical results.  A worker
    whose predecessor also died before its first reply is not respawned
    again: :class:`ShardWorkerError` names why it died.
    """

    def __init__(self, num_shards: int) -> None:
        self.num_shards = int(num_shards)
        self.stats_sink: Optional[dict] = None
        self._workers: List[Optional[_Worker]] = [None] * self.num_shards
        self._outstanding: Dict[Tuple[int, int], dict] = {}
        # Replies not yet collected: a result dict, or the job's error.
        self._buffered: Dict[Tuple[int, int], object] = {}
        self._job_ids = itertools.count(1)

    # ---------------------------------------------------------------- spawn
    def _spawn(self, shard: int, strikes: int = 0) -> _Worker:
        ours, theirs = socket.socketpair()
        with theirs:
            process = subprocess.Popen(
                [sys.executable, "-c", _WORKER_BOOT, str(theirs.fileno()), str(shard), str(os.getpid())],
                stdin=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),),
            )
        worker = _Worker(process, connection.Connection(ours.detach()), strikes)
        path = sys.path if _PACKAGE_PARENT in sys.path else [_PACKAGE_PARENT, *sys.path]
        try:
            worker.conn.send(list(path))
        except OSError:
            pass  # died already: its pipe reads as ended, which respawns it
        return worker

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
        strikes = 0
        if worker is not None:
            worker.process.kill()
            code = worker.process.wait()
            worker.conn.close()
            self._workers[shard] = None
            strikes = 0 if worker.replied else worker.strikes + 1
            if strikes >= 2:
                cause = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise ShardWorkerError(
                    f"shard {shard} worker died before its first reply, twice in a row ({cause})"
                )
        self._workers[shard] = self._spawn(shard, strikes)
        if self.stats_sink is not None:
            self.stats_sink["worker_restarts"] = (
                self.stats_sink.get("worker_restarts", 0) + 1
            )
        for key, payload in sorted(self._outstanding.items()):
            if key[0] == shard and key not in self._buffered:
                try:
                    self._workers[shard].conn.send(("job", key[1], payload))
                except OSError:
                    return  # died too: its pipe reads as ended

    # ------------------------------------------------------------------ rpc
    def new_job_id(self) -> int:
        """An id no job of this pool has had: a reply that outlives its job
        (from before a respawn) can never answer another."""
        return next(self._job_ids)

    def submit(self, shard: int, job_id: int, payload: dict) -> None:
        self._outstanding[(shard, job_id)] = payload
        worker = self._ensure_worker(shard)
        try:
            worker.conn.send(("job", job_id, payload))
        except (BrokenPipeError, OSError):
            self._respawn_and_redispatch(shard)

    def _take(self, shard: int, message: tuple) -> None:
        """Buffer a reply somebody still waits for — a result, or the error
        :meth:`collect` raises in its place — and drop any other."""
        kind, job_id, body = message
        if job_id is None:
            raise ShardWorkerError(f"shard {shard} worker could not start: {body}")
        self._workers[shard].replied = True
        if (shard, job_id) not in self._outstanding:
            return
        if kind == "error":
            body = ShardWorkerError(f"shard {shard} worker failed job {job_id}: {body}")
        self._buffered[(shard, job_id)] = body

    def collect(self, shard: int, job_id: int) -> dict:
        """The result of one job, waiting for it if need be.

        While it waits it reads *every* worker's pipe, not only the job's:
        a worker whose finished results nobody reads blocks on its next
        send (measured: a third of one worker's time, while the parent sat
        on the other's pipe).
        """
        key = (shard, job_id)
        self._ensure_worker(shard)
        while key not in self._buffered:
            pipes = {
                worker.conn: index
                for index, worker in enumerate(self._workers)
                if worker is not None
            }
            for conn in connection.wait(list(pipes)):
                self._receive(pipes[conn])
        self._outstanding.pop(key, None)
        reply = self._buffered.pop(key)
        if isinstance(reply, ShardWorkerError):
            raise reply
        return reply

    def _receive(self, shard: int) -> None:
        """Take one message off a worker's pipe (readable, or at its end)."""
        try:
            message = self._workers[shard].conn.recv()
        except (EOFError, OSError):
            self._respawn_and_redispatch(shard)
            return
        self._take(shard, message)

    def snapshot(self) -> List[Optional[dict]]:
        """Per-shard worker stats + peak RSS (``None`` for unspawned/dead)."""
        infos: List[Optional[dict]] = []
        for shard in range(self.num_shards):
            worker = self._workers[shard]
            if worker is None or worker.process.poll() is not None:
                infos.append(None)
                continue
            try:
                worker.conn.send(("snapshot",))
                while True:
                    message = worker.conn.recv()
                    if message[0] == "snapshot":
                        worker.replied = True
                        infos.append(message[1])
                        break
                    self._take(shard, message)
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
            try:
                worker.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                worker.process.kill()
                worker.process.wait()
            worker.conn.close()
        self._workers = [None] * self.num_shards
        self._outstanding.clear()
        self._buffered.clear()


#: Idle pools kept warm across executors/runs (workers are stateless and
#: generic — every job carries its architecture and globals — so reuse
#: is safe and saves the ~1s spawn cost per worker per run).
_POOL_CACHE: Dict[int, ShardPool] = {}

# A forked child (a sweep's pool worker) inherits the cache, whose workers
# are its parent's: it lets go of them without a word to them and starts
# its own when it needs some.
os.register_at_fork(after_in_child=_POOL_CACHE.clear)


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
# Sharded executor: the job plane over the workers
# ---------------------------------------------------------------------------
class ShardedClientExecutor(LocalTrainer):
    """Runs each job on the worker owning its client.

    A model a worker cannot rebuild — not the configured architecture's
    plain :class:`SplitCNN` of stock layers (a subclassed layer's math is
    its layer loop's, which the worker's stock model would not run) — has
    its jobs run in this process, identically (``stats["fallbacks"]``).
    """

    def __init__(self, num_shards: int, num_clients: int, architecture: str, model: SplitCNN) -> None:
        super().__init__(model)
        self.plan = ShardPlan(num_clients, num_shards)
        self.architecture = architecture
        self._pool: Optional[ShardPool] = None
        self._plain = type(model) is SplitCNN and kernels_cover(model)
        self.stats: Dict[str, int] = {"shard_jobs": 0, "fallbacks": 0, "worker_restarts": 0}

    # ------------------------------------------------------------- plumbing
    @property
    def pool(self) -> ShardPool:
        if self._pool is None:
            self._pool = _acquire_pool(self.plan.num_shards)
            self._pool.stats_sink = self.stats
        return self._pool

    def run(self, jobs: List[TrainingJob]) -> None:
        """Put every job on its worker's pipe, then take the results."""
        if not self._plain:
            self.stats["fallbacks"] += len(jobs)
            super().run(jobs)
            return
        keys = []
        for job in jobs:
            shard, job_id = self.plan.shard_of(job.client_id), self.pool.new_job_id()
            payload = dict(job.spec(), architecture=self.architecture)
            self.pool.submit(shard, job_id, payload)
            keys.append((shard, job_id))
        self.stats["shard_jobs"] += len(jobs)
        for job, (shard, job_id) in zip(jobs, keys):
            job.absorb(self.pool.collect(shard, job_id))

    def close(self) -> None:
        """Give the workers back; ``stats`` stays."""
        pool, self._pool = self._pool, None
        if pool is not None:
            _release_pool(pool)
