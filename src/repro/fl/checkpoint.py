"""Mid-run checkpointing: crash-safe, bitwise-identical resume.

A checkpoint is one pickled snapshot of *everything* that makes the
discrete-event simulation deterministic:

* the federator's aggregation state (global weights, rng stream, round
  counter, algorithm extras such as TiFL's tier credits or FedBuff's
  delta buffer),
* the client pool: every hydrated client's execution state (loader
  position, lifetime counters, mid-round model/optimizer state and the
  pending batch completion) in LRU order, plus the descriptor records of
  the dehydrated rest — a capture reads every training job it holds, so
  it runs them all first, in one call (:func:`repro.fl.training.run_jobs`),
  a round still in progress up to its last batch drawn,
* the cluster's mutable environment (offline set, speed fractions, link
  overrides, clock skews) and the scenario driver's declarative pending
  events plus its rng stream — and, when the capture point lies inside a
  scenario event, what that event has left to do,
* every message in flight on the network, with its original delivery
  ``(time, sequence)``,
* the reliable transport's channel state (un-ACKed sends with their
  retransmit timers, dedup sets, jitter rng, counters) together with the
  network's traffic counters and the fault injector's rng/counters,
* the simulation clock and all round records emitted so far.

The resume path rebuilds the experiment from its configuration (all
construction-time state is seeded), overwrites the mutable state from the
snapshot, and re-schedules the captured events in merged ``(time,
sequence)`` order — newly created events then sort after every restored
one, exactly as they did in the uninterrupted run, so the continuation is
**bitwise identical**: same round records, same weights, same rng draws.

Capture points differ per engine:

* The synchronous engine offers the boundary *between* rounds (no round
  state, no timers, no training requests in flight yet); a resumed run
  re-enters ``_start_round`` (``bootstrap_round``).  A client going offline
  — scenario churn, a check-in — can end a round, so the boundary can lie
  inside a scenario event: its rest is captured declaratively and runs
  right after the round start, as it did in the uninterrupted run.
* The asynchronous engines offer the end of every update application; the
  captured in-flight task set then re-drives the dispatch loop on its own.

A capture never refuses: every client state — a strong client still
training an offloaded model included — is one the snapshot holds, so a
due checkpoint is written at the next capture point.  An event on the
queue the snapshot cannot re-create is a capture bug and raises.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import List, Optional, Tuple

from repro.fl.training import run_jobs

#: Bump when the snapshot layout changes; stale checkpoints are ignored
#: (the run restarts from scratch rather than resuming wrongly).
#: 3: snapshots grew the ``"shard"`` section (the sharded executor's seed
#:    streams and counters).  It is no longer written, and a format-4
#:    snapshot that still has it resumes as if it had not: the sharded
#:    compute plane schedules no events and holds no state between rounds.
#: 4: every cohort lives in the client pool, so the per-client ``"clients"``
#:    section is gone and ``"pool"`` is always present.
CHECKPOINT_FORMAT = 4


# --------------------------------------------------------------------- capture
def capture_snapshot(experiment) -> dict:
    """Snapshot a running experiment at a capture point.

    ``experiment`` is the :class:`repro.fl.runtime.ExperimentHandle` of the
    run in flight.
    """
    federator = experiment.federator
    cluster = experiment.cluster
    env = cluster.env

    federator_state = federator.capture_checkpoint_state()
    messages = cluster.network.capture_in_flight()
    transport_state = cluster.transport.capture_state()
    payloads = [message["payload"] for message in messages]
    if transport_state is not None:
        payloads += [entry["payload"] for entry in transport_state["pending"]]
    held = [client.round_state for client in experiment.pool.hydrated_clients()]
    held = [record for record in held if record is not None]
    payloads += [record.package for record in held]
    run_jobs(
        [record.job for record in held] + [getattr(payload, "job", None) for payload in payloads]
    )

    pool_state = experiment.pool.capture_state()
    dynamics_state = None
    dynamics_pending = 0
    if experiment.dynamics is not None:
        dynamics_state = experiment.dynamics.capture_state()
        dynamics_pending = experiment.dynamics.pending_count()

    pending_batches = sum(
        1 for _cid, state in pool_state["hydrated"] if state.get("pending_batch") is not None
    )
    transport_timers = cluster.transport.pending_count()

    # Every pending event must be one the snapshot re-creates; anything else
    # (a round timer, a stale event from an untracked source) would be lost
    # by the resume.
    accounted = dynamics_pending + len(messages) + pending_batches + transport_timers
    if env.pending_events() != accounted:
        raise RuntimeError(
            f"checkpoint capture: {env.pending_events()} events pending, "
            f"{accounted} of them re-creatable"
        )

    return {
        "format": CHECKPOINT_FORMAT,
        "run_key": None,  # filled in by the writer
        "round": federator._rounds_completed,
        "now": env.now,
        "bootstrap_round": federator.checkpoint_bootstraps_round and not federator.finished,
        "records": list(federator.result.rounds),
        "federator": federator_state,
        "pool": pool_state,
        "cluster": cluster.capture_state(),
        "dynamics": dynamics_state,
        "messages": messages,
        "transport": transport_state,
    }


# --------------------------------------------------------------------- restore
def restore_snapshot(experiment, snapshot: dict) -> None:
    """Restore a snapshot onto a freshly built (never started) experiment.

    After this returns, pumping the simulation continues the run exactly
    where the checkpoint was taken; the caller must *not* call
    ``federator.start()``.
    """
    federator = experiment.federator
    cluster = experiment.cluster
    env = cluster.env

    env.now = snapshot["now"]
    cluster.restore_state(snapshot["cluster"])

    # Clients before messages: hydration re-registers network handlers.
    experiment.pool.restore_state(snapshot["pool"])

    federator.restore_checkpoint_state(snapshot["federator"])
    federator.result.rounds.extend(snapshot["records"])

    if experiment.dynamics is not None and snapshot["dynamics"] is not None:
        experiment.dynamics.restore_state(snapshot["dynamics"])

    # Channel state before the merged replay: the retransmit timers below
    # are re-armed one by one via schedule_restored.
    cluster.transport.restore_state(snapshot["transport"])

    # Re-schedule every captured event in globally merged (time, sequence)
    # order: re-pushing in that order reproduces the uninterrupted run's
    # tie-breaking, and everything scheduled afterwards sorts later — just
    # like events created after the capture point did originally.
    entries: List[Tuple[float, int, tuple]] = []
    if snapshot["dynamics"] is not None:
        for time, sequence, kind, args in snapshot["dynamics"]["pending"]:
            entries.append((time, sequence, ("dynamics", kind, args)))
    for message in snapshot["messages"]:
        entries.append((message["deliver_at"], message["sequence"], ("message", message)))
    if snapshot["transport"] is not None:
        for entry in snapshot["transport"]["pending"]:
            entries.append((entry["fire_at"], entry["sequence"], ("transport", entry)))
    for client_id, state in snapshot["pool"]["hydrated"]:
        pending = state.get("pending_batch")
        if pending is not None:
            time, sequence, _loss = pending
            entries.append((time, sequence, ("batch", client_id)))
    entries.sort(key=lambda entry: (entry[0], entry[1]))

    for _time, _sequence, action in entries:
        if action[0] == "dynamics":
            experiment.dynamics.schedule_restored(_time, action[1], action[2])
        elif action[0] == "message":
            cluster.network.restore_in_flight(action[1])
        elif action[0] == "transport":
            cluster.transport.schedule_restored(action[1])
        else:  # "batch"
            experiment.pool.client(action[1]).schedule_restored_batch(_time)

    if snapshot["bootstrap_round"]:
        # The sync engine checkpoints before the next round starts; in the
        # uninterrupted run _start_round ran synchronously inside the
        # finalizing event, i.e. before any queued event — calling it here,
        # after the restored events claimed their sequence numbers, keeps
        # the event order identical.
        federator._start_round()
    if experiment.dynamics is not None:
        # A disconnect that finalized the round took the checkpoint inside a
        # scenario event; the rest of that event runs now, after the round
        # start, as it did then.
        experiment.dynamics.finish_interrupted_event()


# ------------------------------------------------------------------- files
def write_checkpoint(path, snapshot: dict) -> None:
    """Atomically write a snapshot (write-to-temp + rename)."""
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    with open(tmp_path, "wb") as handle:
        pickle.dump(snapshot, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def load_checkpoint(path, run_key: Optional[str] = None) -> Optional[dict]:
    """Load a checkpoint, or ``None`` when missing, corrupt, or mismatched.

    A checkpoint written by a different snapshot format — or for a
    different run key, when one is given — is treated exactly like a
    missing one: the caller falls back to running from scratch.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
    except Exception:
        return None
    if not isinstance(snapshot, dict) or snapshot.get("format") != CHECKPOINT_FORMAT:
        return None
    if run_key is not None and snapshot.get("run_key") != run_key:
        return None
    return snapshot


# ------------------------------------------------------------------- driver
class RunCheckpointer:
    """Drives periodic checkpoint capture for one running experiment.

    Installed onto the federator's ``checkpoint_hook``; every call is a
    cheap counter check until a checkpoint becomes *due* (``interval``
    completed rounds since the last write, or :meth:`force`), and a due
    checkpoint is written at that capture point.
    """

    def __init__(self, experiment, interval: int, path, run_key: Optional[str] = None) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be at least 1")
        self.experiment = experiment
        self.interval = int(interval)
        self.path = Path(path)
        self.run_key = run_key
        #: Round of the last written checkpoint; starts at the restored
        #: round on resume so the first new checkpoint lands one full
        #: interval later.
        self.last_round = experiment.federator._rounds_completed
        self.written = 0
        self._forced = False

    def install(self) -> None:
        self.experiment.federator.checkpoint_hook = self.maybe_checkpoint

    def force(self) -> None:
        """Make the next capture point write, whatever the interval.

        The graceful-drain path of ``repro serve`` uses this: on SIGTERM
        every in-flight run is asked to checkpoint at its next capture
        point and stop, so a restarted server resumes it bitwise-identically.
        """
        self._forced = True

    def maybe_checkpoint(self) -> None:
        federator = self.experiment.federator
        if federator.finished:
            return  # the finalized run supersedes any checkpoint
        completed = federator._rounds_completed
        due = completed > self.last_round and completed % self.interval == 0
        if not (due or self._forced):
            return
        snapshot = capture_snapshot(self.experiment)
        snapshot["run_key"] = self.run_key
        write_checkpoint(self.path, snapshot)
        self.last_round = completed
        self.written += 1
        self._forced = False
