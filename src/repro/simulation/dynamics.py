"""Scenario dynamics: time-varying cluster behaviour on the event queue.

The original simulation froze the cluster at build time: every client
existed for the whole run, every link kept its construction-time bandwidth
and every ``speed_fraction`` was constant.  Real federated deployments are
dominated by *churn* (clients joining and leaving), *dropouts* (clients
disappearing mid-round), *straggler bursts* (co-located load stealing
compute for a while) and *bandwidth variation*.  :class:`ScenarioDynamics`
drives all four on top of the existing discrete-event queue:

* **Availability windows** — each client alternates between online and
  offline periods with exponentially distributed lengths.  Going offline
  mid-round is a dropout: the cluster fails the client's in-flight
  messages, aborts its local training and notifies the federator.
* **Straggler slowdown bursts** — a Poisson process picks a random online
  client and divides its ``speed_fraction`` by a configured factor for an
  exponentially distributed duration.
* **Bandwidth traces** — a Poisson process rescales a random client's
  links to the federator by a factor drawn uniformly from a configured
  range, reverting after a hold period.

Every draw comes from one :class:`numpy.random.Generator` seeded from the
experiment seed, and events fire at deterministic virtual times, so a given
configuration always produces the identical trace — including across
process boundaries (the parallel sweep runner).

The driver re-schedules follow-up events from inside its callbacks, which
would keep the event queue non-empty forever; the ``stop_when`` predicate
(typically ``lambda: federator.finished``) makes every callback a no-op
once the experiment is over so the simulation can drain.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.fl.config import DynamicsConfig
from repro.simulation.cluster import SimulatedCluster
from repro.simulation.events import Event


class ScenarioDynamics:
    """Schedules a :class:`~repro.fl.config.DynamicsConfig`'s behaviour.

    Parameters
    ----------
    cluster:
        The cluster whose clients, links and speeds the scenario mutates.
    dynamics:
        The scenario knobs.  An inert config (``is_active() == False``)
        results in no scheduled events at all.
    seed:
        Experiment seed; the driver derives its own independent stream.
    stop_when:
        Optional predicate checked at the start of every dynamics callback;
        once it returns ``True`` the driver stops acting and stops
        re-scheduling, letting the event queue drain.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        dynamics: DynamicsConfig,
        seed: int = 0,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.dynamics = dynamics
        self._stop_when = stop_when
        # An independent, deterministic stream: the experiment seed feeds
        # model init / partitioning / selection, so the dynamics derive a
        # distinct child stream from it.
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(0xD1A,))
        )
        self._installed = False

        #: Pending dynamics events: handle -> (event, kind, args).  All
        #: scheduling goes through :meth:`_schedule`, so the driver's future
        #: is fully declarative — (fire time, kind, args) tuples — which is
        #: what makes mid-run checkpoints serializable (the historical
        #: implementation scheduled bare closures).
        self._pending: Dict[int, Tuple[Event, str, tuple]] = {}
        self._next_handle = 0
        #: What the event being fired has left to do while it takes a client
        #: offline, as a ``(kind, args)`` pair (``None`` otherwise).  The
        #: disconnect can finalize a round, and the synchronous engine
        #: checkpoints at that boundary, inside this event: the snapshot
        #: holds the tail, and a resume runs it once the round start is
        #: re-entered (:meth:`finish_interrupted_event`), as the
        #: uninterrupted run does.
        self._tail: Optional[Tuple[str, tuple]] = None

        # Diagnostics (used by tests and experiment logs).
        self.offline_events = 0
        self.online_events = 0
        self.slowdown_events = 0
        self.bandwidth_events = 0
        self.loss_burst_events = 0
        #: Externally admitted availability events (service mode /checkin).
        self.checkin_events = 0
        #: Clients currently slowed down -> nesting depth of active bursts.
        self._active_slowdowns: Dict[int, int] = {}
        #: Latest bandwidth-trace token per client: when traces overlap on
        #: one client, only the most recent one may restore the link.
        self._link_trace_tokens: Dict[int, int] = {}
        self._link_trace_counter = 0
        #: Latest loss-burst token per client (same supersede rule as
        #: bandwidth traces: only the newest burst may clear the override).
        self._loss_burst_tokens: Dict[int, int] = {}
        self._loss_burst_counter = 0

    # ------------------------------------------------------------------ setup
    def install(self) -> None:
        """Schedule the scenario's initial events; idempotent."""
        if self._installed or not self.dynamics.is_active():
            return
        self._installed = True
        d = self.dynamics
        if d.churn:
            for client_id in self.cluster.client_ids:
                delay = d.first_event_s + self._exp(d.mean_online_s)
                self._schedule(delay, "go_offline", (client_id,))
        if d.slowdown_rate_per_s > 0:
            self._schedule(
                d.first_event_s + self._exp(1.0 / d.slowdown_rate_per_s),
                "slowdown_burst",
            )
        if d.bandwidth_rate_per_s > 0:
            self._schedule(
                d.first_event_s + self._exp(1.0 / d.bandwidth_rate_per_s),
                "bandwidth_event",
            )
        if d.loss_burst_rate_per_s > 0:
            self._schedule(
                d.first_event_s + self._exp(1.0 / d.loss_burst_rate_per_s),
                "loss_burst",
            )

    def _exp(self, mean: float) -> float:
        return float(self._rng.exponential(mean))

    def _stopped(self) -> bool:
        return self._stop_when is not None and self._stop_when()

    # ------------------------------------------------------ event bookkeeping
    def _schedule(self, delay: float, kind: str, args: tuple = ()) -> Event:
        """Schedule a declarative dynamics event ``delay`` seconds from now."""
        return self._schedule_at(self.env.now + delay, kind, args)

    def _schedule_at(self, time: float, kind: str, args: tuple) -> Event:
        handle = self._next_handle
        self._next_handle += 1
        event = self.env.schedule_at(time, lambda: self._fire(handle))
        self._pending[handle] = (event, kind, tuple(args))
        return event

    def _fire(self, handle: int) -> None:
        _event, kind, args = self._pending.pop(handle)
        self._DISPATCH[kind](self, *args)

    def pending_count(self) -> int:
        """Dynamics events currently waiting on the queue."""
        return len(self._pending)

    # ------------------------------------------------------------------ churn
    def _go_offline(self, client_id: int) -> None:
        if self._stopped():
            return
        d = self.dynamics
        # Descriptor-level checks only — O(1) liveness lookups, never the
        # online-id list (a 5000-client cohort fires thousands of these).
        if (
            not self.cluster.is_online(client_id)
            or self.cluster.online_client_count <= d.min_online_clients
        ):
            # Taking this client down would leave too few online (or it is
            # already down): skip this window and try again later.
            self._schedule(self._exp(d.mean_online_s), "go_offline", (client_id,))
            return
        self.offline_events += 1
        self._tail = ("stay_offline", (client_id,))
        self.cluster.set_client_offline(client_id)
        self._tail = None
        self._stay_offline(client_id)

    def _stay_offline(self, client_id: int) -> None:
        self._schedule(self._exp(self.dynamics.mean_offline_s), "go_online", (client_id,))

    def _go_online(self, client_id: int) -> None:
        if self._stopped():
            return
        self.online_events += 1
        self.cluster.set_client_online(client_id)
        self._schedule(self._exp(self.dynamics.mean_online_s), "go_offline", (client_id,))

    # ------------------------------------------------------- slowdown bursts
    def _slowdown_burst(self) -> None:
        if self._stopped():
            return
        d = self.dynamics
        online = self.cluster.online_client_ids
        if online:
            client_id = int(self._rng.choice(online))
            self.slowdown_events += 1
            self._active_slowdowns[client_id] = self._active_slowdowns.get(client_id, 0) + 1
            self.cluster.scale_client_speed(client_id, 1.0 / d.slowdown_factor)
            self._schedule(self._exp(d.mean_slowdown_s), "restore_speed", (client_id,))
        self._schedule(self._exp(1.0 / d.slowdown_rate_per_s), "slowdown_burst")

    def _restore_speed(self, client_id: int) -> None:
        # Bursts always end, even after stop_when flips: leaving a
        # permanently slowed client behind would corrupt diagnostics.
        depth = self._active_slowdowns.get(client_id, 0)
        if depth <= 0:
            return
        if depth == 1:
            self._active_slowdowns.pop(client_id, None)
        else:
            self._active_slowdowns[client_id] = depth - 1
        self.cluster.scale_client_speed(client_id, self.dynamics.slowdown_factor)

    # -------------------------------------------------------- bandwidth traces
    def _bandwidth_event(self) -> None:
        if self._stopped():
            return
        d = self.dynamics
        clients: List[int] = self.cluster.client_ids
        client_id = int(self._rng.choice(clients))
        factor = float(self._rng.uniform(d.bandwidth_low_factor, d.bandwidth_high_factor))
        self.bandwidth_events += 1
        self._link_trace_counter += 1
        token = self._link_trace_counter
        self._link_trace_tokens[client_id] = token
        self.cluster.set_link_factor(client_id, factor)
        self._schedule(self._exp(d.mean_bandwidth_hold_s), "restore_link", (client_id, token))
        self._schedule(self._exp(1.0 / d.bandwidth_rate_per_s), "bandwidth_event")

    def _restore_link(self, client_id: int, token: int) -> None:
        # A newer trace superseded this one: its own restore (scheduled
        # later) owns the revert; restoring now would cut its hold short.
        if self._link_trace_tokens.get(client_id) != token:
            return
        self._link_trace_tokens.pop(client_id, None)
        self.cluster.set_link_factor(client_id, 1.0)

    # ------------------------------------------------------------ loss bursts
    def _loss_burst(self) -> None:
        if self._stopped():
            return
        d = self.dynamics
        clients: List[int] = self.cluster.client_ids
        client_id = int(self._rng.choice(clients))
        self.loss_burst_events += 1
        self._loss_burst_counter += 1
        token = self._loss_burst_counter
        self._loss_burst_tokens[client_id] = token
        self.cluster.set_link_loss(client_id, d.loss_burst_drop_rate)
        self._schedule(self._exp(d.mean_loss_burst_s), "restore_loss", (client_id, token))
        self._schedule(self._exp(1.0 / d.loss_burst_rate_per_s), "loss_burst")

    def _restore_loss(self, client_id: int, token: int) -> None:
        if self._loss_burst_tokens.get(client_id) != token:
            return
        self._loss_burst_tokens.pop(client_id, None)
        self.cluster.clear_link_loss(client_id)

    # ------------------------------------------------------- external checkins
    def admit_checkins(self, lines: Iterable[Tuple[int, bool, float]]) -> List[Event]:
        """Admit externally driven availability events (service mode).

        ``repro serve``'s ``/checkin`` endpoint feeds one request's device
        check-ins for this run through this seam, as ``(client, online,
        delay)`` lines.  They go on the event queue like every scenario
        event (so they compose with churn, in-flight messages and
        checkpoints) as one ``"checkins"`` event per distinct firing time
        ``now + delay``, applying that time's lines in line order.
        Same-time events fire in sequence order and whatever a check-in
        triggers sorts after all of them, so this applies exactly what one
        event per line would.  Check-ins schedule no follow-up events and
        draw nothing from the rng stream.  Every line is checked before any
        is scheduled.  Must be called from the thread driving the
        simulation (use :meth:`repro.api.RunHandle.inject` from other
        threads).
        """
        cohort = len(self.cluster.client_ids)
        now = self.env.now
        by_time: Dict[float, List[Tuple[int, bool]]] = {}
        for client_id, online, delay in lines:
            if not 0 <= client_id < cohort:
                raise ValueError(
                    f"check-in for unknown client {client_id} (cohort has {cohort} clients)"
                )
            if not delay >= 0.0:  # also false for NaN
                raise ValueError(f"check-in delay must be a number >= 0, got {delay}")
            by_time.setdefault(now + delay, []).append((int(client_id), bool(online)))
        return [
            self._schedule_at(time, "checkins", tuple(pairs))
            for time, pairs in by_time.items()
        ]

    def _checkins(self, *pairs: Tuple[int, bool]) -> None:
        for index, (client_id, online) in enumerate(pairs):
            self._tail = ("checkins", pairs[index + 1 :])
            self._checkin(client_id, online)
        self._tail = None

    def _checkin(self, client_id: int, online: bool) -> None:
        if self._stopped():
            return
        self.checkin_events += 1
        if online:
            if not self.cluster.is_online(client_id):
                self.online_events += 1
                self.cluster.set_client_online(client_id)
        else:
            if (
                self.cluster.is_online(client_id)
                and self.cluster.online_client_count > self.dynamics.min_online_clients
            ):
                self.offline_events += 1
                self.cluster.set_client_offline(client_id)

    #: Declarative event kinds: every scheduled dynamics event is one of
    #: these method names plus plain-data args, so the pending set is
    #: serializable for checkpoints.
    _DISPATCH: Dict[str, Callable] = {
        "go_offline": _go_offline,
        "stay_offline": _stay_offline,
        "go_online": _go_online,
        "slowdown_burst": _slowdown_burst,
        "restore_speed": _restore_speed,
        "bandwidth_event": _bandwidth_event,
        "restore_link": _restore_link,
        "loss_burst": _loss_burst,
        "restore_loss": _restore_loss,
        "checkins": _checkins,
        # One check-in per event: what checkpoints written before check-ins
        # were batched hold.
        "checkin": _checkin,
    }

    # ------------------------------------------------------ checkpoint seams
    def capture_state(self) -> dict:
        """Serializable snapshot: rng stream, counters, pending events."""
        pending = sorted(
            (
                (event.time, event.sequence, kind, list(args))
                for event, kind, args in self._pending.values()
                if not event.cancelled
            ),
            key=lambda entry: (entry[0], entry[1]),
        )
        return {
            "rng": self._rng.bit_generator.state,
            "installed": self._installed,
            "offline_events": self.offline_events,
            "online_events": self.online_events,
            "slowdown_events": self.slowdown_events,
            "bandwidth_events": self.bandwidth_events,
            "loss_burst_events": self.loss_burst_events,
            "checkin_events": self.checkin_events,
            "active_slowdowns": dict(self._active_slowdowns),
            "link_trace_tokens": dict(self._link_trace_tokens),
            "link_trace_counter": self._link_trace_counter,
            "loss_burst_tokens": dict(self._loss_burst_tokens),
            "loss_burst_counter": self._loss_burst_counter,
            "pending": pending,
            "tail": self._tail,
        }

    def cancel_pending(self) -> None:
        """Cancel every scheduled dynamics event (resume replaces them)."""
        for event, _kind, _args in self._pending.values():
            event.cancel()
        self._pending.clear()

    def close(self) -> None:
        """Cancel what is scheduled and drop the stop predicate; idempotent."""
        self.cancel_pending()
        self._stop_when = None

    def restore_state(self, state: dict) -> None:
        """Restore counters and the rng stream from :meth:`capture_state`.

        Pending events are *not* rescheduled here: the checkpoint
        orchestrator replays them via :meth:`schedule_restored` in the
        globally merged (time, sequence) order so cross-component ties
        resolve exactly as in the uninterrupted run.
        """
        self.cancel_pending()
        self._rng.bit_generator.state = state["rng"]
        self._installed = bool(state["installed"])
        self.offline_events = int(state["offline_events"])
        self.online_events = int(state["online_events"])
        self.slowdown_events = int(state["slowdown_events"])
        self.bandwidth_events = int(state["bandwidth_events"])
        self.loss_burst_events = int(state["loss_burst_events"])
        # Checkpoints written before service mode carry no check-in counter.
        self.checkin_events = int(state.get("checkin_events", 0))
        self._active_slowdowns = dict(state["active_slowdowns"])
        self._link_trace_tokens = dict(state["link_trace_tokens"])
        self._link_trace_counter = int(state["link_trace_counter"])
        self._loss_burst_tokens = dict(state["loss_burst_tokens"])
        self._loss_burst_counter = int(state["loss_burst_counter"])
        # Snapshots written before the tail was captured hold none.
        self._tail = state.get("tail")

    def finish_interrupted_event(self) -> None:
        """Run what the event a restored checkpoint was taken in had left."""
        tail, self._tail = self._tail, None
        if tail is not None:
            kind, args = tail
            self._DISPATCH[kind](self, *args)

    def schedule_restored(self, time: float, kind: str, args: list) -> Event:
        """Re-schedule one captured pending event at its absolute time."""
        if kind not in self._DISPATCH:
            raise ValueError(f"unknown dynamics event kind {kind!r}")
        return self._schedule_at(time, kind, tuple(args))
