"""Hosted runs: the server side of multiplexed experiment execution.

A :class:`HostedRun` pairs one :class:`repro.api.RunHandle` with the
bookkeeping a server needs around it — a lifecycle state machine, the
rounds collected so far (under a condition variable so streaming readers
can block for the next one), and the worker future driving it.

The :class:`SessionManager` multiplexes N hosted runs over a fixed thread
pool.  Threads, not processes, are deliberate: the ``/checkin`` endpoint
and live round streams need to reach the *running* simulation's state
(its :class:`~repro.simulation.dynamics.ScenarioDynamics`, its record
stream), which only exists in the executing process.  Load comes from
processes (``benchmarks/loadgen.py`` spawns its clients), but execution
here stays in-process, with all cross-thread mutation funnelled through
:meth:`RunHandle.inject` so the simulation only ever sees state changes
between two events.

Lifecycle::

    queued -> running -> complete        (ran to its round budget)
                      -> checkpointed    (graceful drain; resumable)
                      -> cancelled       (client cancel / drained unstarted)
                      -> failed          (exception; message preserved)
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.api.handles import RunHandle
from repro.api.store import RunLockedError, RunStore, run_key
from repro.fl.config import ExperimentConfig
from repro.fl.metrics import RoundRecord
from repro.serve.protocol import (
    ERR_DRAINING,
    ERR_NO_DYNAMICS,
    ERR_RUN_NOT_ACTIVE,
    ERR_STORE_CONFLICT,
    ERR_UNKNOWN_RUN,
    ProtocolError,
)

logger = logging.getLogger(__name__)

#: States in which the run still makes progress.
ACTIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("complete", "checkpointed", "cancelled", "failed")


class HostedRun:
    """One experiment hosted by the server, with its streaming bookkeeping."""

    def __init__(self, handle: RunHandle, label: str) -> None:
        self.handle = handle
        self.run_id = handle.config_hash
        self.label = label
        self.state = "queued"
        self.error: Optional[str] = None
        self.records: List[RoundRecord] = []
        self.cond = threading.Condition()
        self.future = None
        self.submitted_at = time.time()
        self.checkins = 0

    # -------------------------------------------------------------- queries
    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    def snapshot(self) -> Dict[str, object]:
        """The run's status document (the ``GET /runs/<id>`` body)."""
        with self.cond:
            return {
                "run_id": self.run_id,
                "label": self.label,
                "state": self.state,
                "error": self.error,
                "rounds": len(self.records),
                "checkins": self.checkins,
                "resumed_from_round": self.handle.resumed_from_round,
                "loaded_from_store": self.handle.loaded_from_store,
                "algorithm": self.handle.config.algorithm,
                "dataset": self.handle.config.dataset,
                "scenario": self.handle.config.dynamics.scenario,
                "num_clients": self.handle.config.num_clients,
                "seed": self.handle.config.seed,
                "submitted_at": self.submitted_at,
            }

    def wait_record(self, index: int, timeout: Optional[float] = None) -> Optional[RoundRecord]:
        """Block until round ``index`` exists; ``None`` once the run is over.

        The streaming endpoint's pull loop: readers consume the shared
        records list by index, so any number of clients can stream the
        same live run without coordinating.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while index >= len(self.records):
                if self.state in TERMINAL_STATES:
                    return None
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self.cond.wait(remaining if remaining is not None else 1.0)
            return self.records[index]

    def wait_terminal(self, timeout: Optional[float] = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while self.state not in TERMINAL_STATES:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self.cond.wait(remaining if remaining is not None else 1.0)
            return True

    def _finish(self, state: str, error: Optional[str] = None) -> None:
        with self.cond:
            self.state = state
            self.error = error
            self.cond.notify_all()


class SessionManager:
    """Multiplexes hosted experiments over a worker-thread pool."""

    def __init__(
        self,
        store: RunStore,
        workers: int = 4,
        checkpoint_interval: Optional[int] = 1,
    ) -> None:
        self.store = store
        self.checkpoint_interval = checkpoint_interval
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(workers)), thread_name_prefix="repro-serve"
        )
        self._sessions: Dict[str, HostedRun] = {}
        self._lock = threading.Lock()
        self._draining = False
        self.submitted = 0
        self.deduplicated = 0

    # ------------------------------------------------------------ submission
    def submit(
        self,
        config: ExperimentConfig,
        label: Optional[str] = None,
        resume: bool = False,
    ) -> Tuple[HostedRun, bool]:
        """Host a run of ``config``; returns ``(session, created)``.

        Submission is idempotent per configuration: the run's identity is
        its :func:`repro.api.run_key`, and a second submit of an active
        key returns the existing session (``created=False``) instead of
        racing two writers for one store directory.
        """
        if config.checkpoint_interval is None and self.checkpoint_interval is not None:
            # Drainability by default: an execution-strategy knob, outside
            # the run_key, so server runs stay byte-identical to library
            # runs of the same spec.
            config = dataclasses.replace(
                config, checkpoint_interval=self.checkpoint_interval
            )
        if config.shards is None:
            # The server's runs and its request threads already share the
            # cores: a hosted run trains in this process unless it asks
            # for workers (also outside the run_key).
            config = dataclasses.replace(config, shards=1)
        run_id = run_key(config)
        with self._lock:
            if self._draining:
                raise ProtocolError(ERR_DRAINING, "server is draining; not accepting runs")
            existing = self._sessions.get(run_id)
            if existing is not None and existing.active:
                self.deduplicated += 1
                return existing, False
            handle = RunHandle(
                config, store=self.store, label=label, resume=resume
            )
            hosted = HostedRun(handle, handle.label)
            self._sessions[run_id] = hosted
            self.submitted += 1
            hosted.future = self._pool.submit(self._drive, hosted)
            return hosted, True

    def resume_all(self) -> List[HostedRun]:
        """Re-host every resumable run in the store (server restart path)."""
        resumed: List[HostedRun] = []
        for stored in self.store.scan()["resumable"]:
            try:
                config = stored.load_config()
                hosted, created = self.submit(config, label=stored.label, resume=True)
            except (ProtocolError, TypeError, ValueError) as exc:
                logger.warning("cannot resume stored run %s: %s", stored.config_hash, exc)
                continue
            if created:
                resumed.append(hosted)
        return resumed

    def _drive(self, hosted: HostedRun) -> None:
        with hosted.cond:
            if hosted.state != "queued":
                return
            hosted.state = "running"
            hosted.cond.notify_all()
        try:
            for record in hosted.handle.stream():
                with hosted.cond:
                    hosted.records.append(record)
                    hosted.cond.notify_all()
        except RunLockedError as exc:
            hosted._finish("failed", f"{ERR_STORE_CONFLICT}: {exc}")
        except Exception as exc:
            logger.exception("hosted run %s failed", hosted.run_id)
            hosted._finish("failed", str(exc))
        else:
            if hosted.handle.stopped:
                mode = hosted.handle._stop_mode
                hosted._finish("checkpointed" if mode == "checkpoint" else "cancelled")
            else:
                hosted._finish("complete")

    # --------------------------------------------------------------- queries
    def get(self, run_id: str) -> HostedRun:
        with self._lock:
            hosted = self._sessions.get(run_id)
        if hosted is None:
            raise ProtocolError(ERR_UNKNOWN_RUN, f"no active run {run_id!r}")
        return hosted

    def sessions(self) -> List[HostedRun]:
        with self._lock:
            return list(self._sessions.values())

    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self) -> Dict[str, object]:
        by_state: Dict[str, int] = {}
        checkins = 0
        for hosted in self.sessions():
            by_state[hosted.state] = by_state.get(hosted.state, 0) + 1
            checkins += hosted.checkins
        return {
            "sessions": by_state,
            "submitted": self.submitted,
            "deduplicated": self.deduplicated,
            "checkins": checkins,
            "draining": self._draining,
        }

    # --------------------------------------------------------------- control
    def checkin_target(self, run_id: str) -> HostedRun:
        """The hosted run ``run_id``, if it can take check-ins now."""
        hosted = self.get(run_id)
        if not hosted.handle.config.dynamics.is_active():
            raise ProtocolError(
                ERR_NO_DYNAMICS,
                f"run {run_id!r} has no scenario dynamics (scenario "
                f"{hosted.handle.config.dynamics.scenario!r}); check-ins "
                "need a dynamic scenario such as churn",
            )
        if not hosted.active:
            raise ProtocolError(
                ERR_RUN_NOT_ACTIVE, f"run {run_id!r} is {hosted.state}; not accepting check-ins"
            )
        return hosted

    def checkin(self, hosted: HostedRun, lines: List[Tuple[int, bool, float]]) -> None:
        """Feed validated ``(client, online, delay)`` lines into a run's scenario.

        The lines are injected through :meth:`RunHandle.inject` as one
        action, so the simulation admits all of them between two events of
        its queue — never mid-event, never from a foreign thread.  Every
        line must already have passed the server's checks (client in range,
        finite delay >= 0): the action runs where no caller can see an error.
        """
        handle = hosted.handle

        def admit() -> None:
            experiment = handle.experiment
            if experiment is not None and experiment.dynamics is not None:
                experiment.dynamics.admit_checkins(lines)

        handle.inject(admit)
        with hosted.cond:
            hosted.checkins += len(lines)

    def cancel(self, run_id: str) -> Dict[str, object]:
        """Cancel a hosted run (idempotent; terminal states pass through)."""
        hosted = self.get(run_id)
        with hosted.cond:
            if hosted.state == "queued" and hosted.future is not None and hosted.future.cancel():
                hosted.state = "cancelled"
                hosted.cond.notify_all()
                return hosted.snapshot()
        if hosted.active:
            hosted.handle.request_stop("abort")
        return hosted.snapshot()

    def drain(self, timeout: float = 60.0) -> Dict[str, object]:
        """Stop accepting work and checkpoint everything in flight.

        Queued runs that never started are cancelled outright (nothing to
        checkpoint); running ones are asked to stop at their next capture
        point, where the checkpoint is written.  Returns a summary of where
        every session ended up; sessions that failed to reach a terminal
        state within ``timeout`` are reported as still in flight.
        """
        with self._lock:
            self._draining = True
            sessions = list(self._sessions.values())
        for hosted in sessions:
            with hosted.cond:
                if hosted.state == "queued" and hosted.future is not None and hosted.future.cancel():
                    hosted.state = "cancelled"
                    hosted.cond.notify_all()
                    continue
            if hosted.active:
                hosted.handle.request_stop("checkpoint")
        deadline = time.monotonic() + timeout
        summary: Dict[str, object] = {}
        for hosted in sessions:
            hosted.wait_terminal(max(0.0, deadline - time.monotonic()))
            summary[hosted.run_id] = hosted.state
        self._pool.shutdown(wait=False)
        return summary
