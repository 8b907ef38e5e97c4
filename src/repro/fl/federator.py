"""The synchronous federator (central server) base class.

The federator drives the global training loop of the paper (§2.2, §3.3):

1. select a subset of clients and send them the current global model,
2. collect the selected clients' updates (subclasses can drop late
   clients — the deadline baseline — or orchestrate offloading — Aergia),
3. aggregate the updates into the next global model,
4. evaluate the global model on the held-out test set and record the round.

The round duration is measured exactly as in the paper: from the moment the
training requests are sent until the last participating client's results
arrive at the federator.

Round engine
------------
Since the scenario-dynamics refactor the round loop is an explicit
event-driven state machine that tolerates *partial participation*.  A round
moves through three phases::

    IDLE ──select──▶ COLLECTING ──complete / deadline / all-dropped──▶ FINALIZED
      ▲                  │
      │                  ├── TRAIN_RESULT / OFFLOAD_RESULT  (progress)
      │                  ├── per-client timeout   ──▶ drop client
      │                  └── dropout notification ──▶ drop client
      └──────────── next round (or wait for a client to rejoin)

* ``COLLECTING`` ends when :meth:`round_complete` holds — every *expected*
  client (selected minus dropped) has contributed — or when the round
  deadline (:meth:`round_deadline_seconds`) expires, in which case the
  stragglers are dropped and whatever arrived is aggregated.
* Clients drop out of a round in two ways: a *dropout notification* from
  the cluster (the client disconnected; its in-flight messages failed) or a
  *per-client timeout* (:meth:`client_timeout_seconds`, from
  ``config.dynamics.client_timeout_s``).
* :meth:`finalize_round` aggregates whatever arrived; an empty round leaves
  the global model unchanged, exactly like the paper's federator.
* If every client is offline when a round would start, the engine parks
  (``IDLE``) and restarts as soon as a client rejoins.

With no dynamics configured (no timeouts, no churn) the engine reduces to
the classic blocking behaviour and is bit-for-bit identical to the
pre-refactor round loop.  Subclasses specialise *policies* — selection
(TiFL), deadlines (the deadline baseline), scheduling (Aergia) — instead of
hand-rolling wait logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.fl.aggregation import (
    average_metric,
    fedavg_aggregate,
    fedavg_aggregate_flat,
    unflatten_weights,
    weight_spec,
)
from repro.fl.config import ExperimentConfig
from repro.fl.messages import MessageKind, OffloadResult, ProfileReport, TrainingResult
from repro.fl.metrics import ExperimentResult, RoundRecord
from repro.fl.selection import select_all, select_random
from repro.fl.training import run_jobs
from repro.nn.model import SplitCNN
from repro.registry import register_federator
from repro.simulation.cluster import FEDERATOR_ID, SimulatedCluster
from repro.simulation.events import Event
from repro.simulation.network import Message, weights_wire_bytes

Weights = Dict[str, np.ndarray]


class RoundPhase:
    """States of the round engine's state machine."""

    #: No round in flight (between rounds, or parked waiting for a rejoin).
    IDLE = "idle"
    #: Training requests sent; collecting results, timeouts and dropouts.
    COLLECTING = "collecting"
    #: Aggregated and recorded; the state object is retired.
    FINALIZED = "finalized"


@dataclass
class RoundState:
    """Book-keeping for the round currently in flight."""

    round_number: int
    start_time: float
    selected_clients: List[int]
    phase: str = RoundPhase.COLLECTING
    results: Dict[int, TrainingResult] = field(default_factory=dict)
    offload_results: Dict[int, OffloadResult] = field(default_factory=dict)
    profile_reports: Dict[int, ProfileReport] = field(default_factory=dict)
    dropped_clients: List[int] = field(default_factory=list)
    #: Clients that disconnected at any point during the round (superset of
    #: the dropped ones: a client that already delivered its result keeps
    #: its contribution but can no longer act, e.g. as an offload trainer).
    disconnected: Set[int] = field(default_factory=set)
    num_offloads: int = 0
    #: Per-client timeout events, cancelled as results arrive.
    timeout_events: Dict[int, Event] = field(default_factory=dict)
    #: Round-deadline event, if the policy set one.
    deadline_event: Optional[Event] = None

    @property
    def finalized(self) -> bool:
        return self.phase == RoundPhase.FINALIZED

    @property
    def expected_clients(self) -> List[int]:
        """Clients whose contribution the round is still entitled to."""
        return [cid for cid in self.selected_clients if cid not in self.dropped_clients]

    @property
    def pending_clients(self) -> List[int]:
        """Expected clients that have not delivered a result yet."""
        return [cid for cid in self.expected_clients if cid not in self.results]


class BaseFederator:
    """Synchronous federator; subclasses specialise selection, scheduling and
    aggregation to realise the different algorithms of the evaluation."""

    algorithm_name = "base"

    #: Whether a resumed run must re-enter :meth:`_start_round` to continue
    #: (the synchronous engine checkpoints *before* the next round starts).
    #: Async federators are driven entirely by their restored in-flight
    #: messages and override this to ``False``.
    checkpoint_bootstraps_round = True

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: ExperimentConfig,
        global_model: SplitCNN,
        x_test: np.ndarray,
        y_test: np.ndarray,
        client_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network
        #: Message transport (reliable middleware or the direct pass-through);
        #: every federator send and the handler registration route through it.
        self.transport = cluster.transport
        self.config = config
        self.global_model = global_model
        self.global_weights: Weights = global_model.get_weights()
        self.x_test = x_test
        self.y_test = y_test
        self.client_ids: List[int] = (
            sorted(client_ids) if client_ids is not None else cluster.client_ids
        )
        self._rng = np.random.default_rng(config.seed + 1)
        #: The :class:`~repro.simulation.virtual_pool.VirtualClientPool`,
        #: set by the runtime before :meth:`start`: selection works on
        #: client ids/descriptors and the winners are hydrated just before
        #: the round's training requests go out.
        self.pool = None
        self._round_state: Optional[RoundState] = None
        #: Set when a round could not start because no client was online;
        #: the next rejoin restarts the loop.
        self._round_pending = False
        self._rounds_completed = 0
        self.setup_time = 0.0
        #: Called at every capture point (see
        #: :class:`repro.fl.checkpoint.RunCheckpointer`); ``None`` when the
        #: run is not checkpointed.  The synchronous engine offers the
        #: boundary between rounds, *before* the next round starts.
        self.checkpoint_hook = None

        self.result = ExperimentResult(
            algorithm=self.algorithm_name,
            dataset=config.dataset,
            config=config.describe(),
        )
        #: Whether the unreliable-transport machinery is live for this run
        #: (fault injection and/or reliable delivery); gates the per-round
        #: fault-counter extras so null-transport records stay unchanged.
        self._transport_active = (
            cluster.network.fault_profile is not None or self.transport.reliable
        )
        #: Counter totals at the previous record emission (per-round deltas).
        self._net_baseline: Dict[str, float] = {}
        self.transport.register(FEDERATOR_ID, self.handle_message)
        self.transport.add_expiry_listener(self._on_transport_expiry)
        cluster.add_membership_listener(self._on_membership_change)

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Schedule the first round; call before running the simulation."""
        self.env.schedule(self.setup_time, self._start_round)

    def close(self) -> None:
        """Drop the global model, the test split, round state and hooks.

        ``result`` stays: it is what a finished run hands to its caller.
        A round still in flight lets go of its timers, whose callbacks hold
        the round state that holds them.
        """
        if self._round_state is not None:
            self._cancel_round_timers(self._round_state)
        self.global_model = self.global_weights = self.x_test = self.y_test = None
        self._round_state = self.checkpoint_hook = self.pool = None

    @property
    def finished(self) -> bool:
        return self._rounds_completed >= self.config.rounds

    @property
    def engine_phase(self) -> str:
        """Current state of the round engine (see :class:`RoundPhase`).

        ``IDLE`` between rounds (including when parked waiting for a client
        to rejoin), otherwise the in-flight round's phase.
        """
        if self._round_state is None:
            return RoundPhase.IDLE
        return self._round_state.phase

    # ----------------------------------------------------------------- hooks
    def wants_profile_reports(self) -> bool:
        """Whether clients should run the online profiler and report timings."""
        return False

    def client_has_data(self, client_id: int) -> bool:
        """Whether a client owns any training samples.

        Extreme non-IID splits of huge cohorts can leave clients with zero
        samples — the paper's sampling simply leaves such clients out, so
        selection skips them.  The pool answers from the descriptor, without
        hydrating anyone.
        """
        return self.pool.has_data(client_id)

    def selectable_clients(self) -> List[int]:
        """Clients eligible for selection: the online subset, in id order."""
        return [
            cid
            for cid in self.client_ids
            if self.cluster.is_online(cid) and self.client_has_data(cid)
        ]

    def select_clients(self, round_number: int) -> List[int]:
        """Client-selection policy (FedAvg-style random selection by default)."""
        pool = self.selectable_clients()
        per_round = self.config.effective_clients_per_round
        if per_round >= len(pool):
            return select_all(pool)
        return select_random(pool, per_round, rng=self._rng)

    def total_batches_for(self, client_id: int, round_number: int) -> int:
        """Number of local updates a client performs in a round."""
        return self.config.local_updates

    def on_round_started(self, state: RoundState) -> None:
        """Hook called right after the training requests are sent."""

    def on_profile_report(self, state: RoundState, report: ProfileReport) -> None:
        """Hook called for every profile report received (Aergia overrides)."""

    def on_client_dropped(self, state: RoundState, client_id: int) -> None:
        """Hook called when a client is dropped from the round in flight."""

    def round_deadline_seconds(self) -> Optional[float]:
        """Round-level deadline after which stragglers are dropped and the
        round finalises with whatever arrived (the deadline baseline's
        policy knob).  ``None`` disables the deadline."""
        return None

    def client_timeout_seconds(self) -> Optional[float]:
        """Per-client timeout measured from the round start.  Defaults to
        the scenario's ``dynamics.client_timeout_s`` (``None``: wait
        forever)."""
        return self.config.dynamics.client_timeout_s

    def round_complete(self, state: RoundState) -> bool:
        """Whether all contributions needed to finalise the round have arrived.

        The round is complete when every *expected* client (selected minus
        dropped) has delivered its result, and every promised offload result
        whose trainer is still connected has arrived.
        """
        expected = state.expected_clients
        if set(state.results) != set(expected):
            return False
        for result in state.results.values():
            if result.offloaded_to is not None and result.client_id not in state.offload_results:
                trainer = result.offloaded_to
                # An offload expectation is void when the trainer left the
                # round (it lost the offloaded model with its state).
                if trainer in state.disconnected or not self.cluster.is_online(trainer):
                    continue
                return False
        return True

    def collect_contributions(self, state: RoundState) -> List[Tuple[Weights, int, int]]:
        """Build the (weights, num_samples, num_steps) list to aggregate.

        Dropped clients are excluded from the aggregation weights even if a
        late result somehow landed in ``state.results``.  The round's jobs
        run here, all in one call.
        """
        results = [
            state.results[client_id]
            for client_id in sorted(state.results)
            if client_id not in state.dropped_clients
        ]
        run_jobs(result.job for result in results)
        return [(result.weights, result.num_samples, result.num_steps) for result in results]

    def flat_contributions(
        self, state: RoundState, contributions: List[Tuple[Weights, int, int]]
    ) -> Optional[List[np.ndarray]]:
        """Flat vectors for contributions that are verbatim client states.

        A contribution qualifies when its weight dictionary is the *same
        object* a client reported (so subclasses that post-process weights —
        e.g. Aergia's offload recombination — automatically fall back to the
        dictionary path) and the client attached a flat vector.  Returns
        ``None`` unless every contribution qualifies.
        """
        by_identity = {
            id(result.weights): result.flat_weights for result in state.results.values()
        }
        rows: List[np.ndarray] = []
        for weights, _, _ in contributions:
            row = by_identity.get(id(weights))
            if row is None:
                return None
            rows.append(row)
        return rows

    def aggregate(self, state: RoundState, contributions: List[Tuple[Weights, int, int]]) -> Weights:
        """Aggregation rule (FedAvg weighted average by default).

        The hot path stacks the clients' flat parameter vectors and runs one
        fused weighted reduction; the per-key dictionary implementation
        remains as the fallback for post-processed contributions.
        """
        rows = self.flat_contributions(state, contributions)
        if rows is not None:
            averaged = fedavg_aggregate_flat(rows, [n for _, n, _ in contributions])
            return unflatten_weights(averaged, weight_spec(contributions[0][0]))
        return fedavg_aggregate([(w, n) for w, n, _ in contributions])

    # -------------------------------------------------------------- round loop
    def _start_round(self) -> None:
        round_number = self._rounds_completed + 1
        selected = self.select_clients(round_number)
        if not selected:
            # Every client is offline: park the engine; the membership
            # listener restarts it the moment a client rejoins.
            self._round_pending = True
            return
        self._round_pending = False
        # Materialise the round's participants (recycling arena slots);
        # everything before this point touched descriptors only.
        self.pool.ensure_active(selected)
        state = RoundState(
            round_number=round_number,
            start_time=self.env.now,
            selected_clients=list(selected),
        )
        self._round_state = state
        for client_id in selected:
            payload = {
                "weights": self.global_weights,
                "total_batches": self.total_batches_for(client_id, round_number),
                "profile_batches": self.config.profile_batches,
                "report_profile": self.wants_profile_reports(),
            }
            self.transport.send(
                FEDERATOR_ID,
                client_id,
                MessageKind.TRAIN_REQUEST,
                payload=payload,
                round_number=round_number,
                size_bytes=weights_wire_bytes(self.global_weights),
            )
        self.on_round_started(state)
        self._arm_round_timers(state)

    def _arm_round_timers(self, state: RoundState) -> None:
        """Schedule the round deadline and the per-client timeouts."""
        deadline = self.round_deadline_seconds()
        if deadline is not None:
            state.deadline_event = self.env.schedule(
                deadline, lambda: self._on_round_deadline(state)
            )
        timeout = self.client_timeout_seconds()
        if timeout is not None:
            for client_id in state.selected_clients:
                state.timeout_events[client_id] = self.env.schedule(
                    timeout, self._make_client_timeout(state, client_id)
                )

    def _make_client_timeout(self, state: RoundState, client_id: int):
        def fire() -> None:
            self._on_client_timeout(state, client_id)

        return fire

    def _cancel_round_timers(self, state: RoundState) -> None:
        if state.deadline_event is not None:
            state.deadline_event.cancel()
            state.deadline_event = None
        for event in state.timeout_events.values():
            event.cancel()
        state.timeout_events.clear()

    # --------------------------------------------------------------- messaging
    def handle_message(self, message: Message) -> None:
        state = self._round_state
        if state is None or state.finalized or message.round_number != state.round_number:
            # Late or stale messages are ignored, as in the paper (§3.3).
            return
        if message.kind == MessageKind.TRAIN_RESULT:
            result: TrainingResult = message.payload
            if result.client_id in state.dropped_clients:
                return  # already dropped: its contribution no longer counts
            state.results[result.client_id] = result
            timeout = state.timeout_events.pop(result.client_id, None)
            if timeout is not None:
                timeout.cancel()
            self._maybe_finalize(state)
        elif message.kind == MessageKind.OFFLOAD_RESULT:
            offload: OffloadResult = message.payload
            state.offload_results[offload.source_client_id] = offload
            self._maybe_finalize(state)
        elif message.kind == MessageKind.PROFILE_REPORT:
            report: ProfileReport = message.payload
            state.profile_reports[report.client_id] = report
            self.on_profile_report(state, report)

    # ----------------------------------------------------- dropouts & timeouts
    def _on_membership_change(self, client_id: int, online: bool) -> None:
        if online:
            self.on_client_rejoin(client_id)
        else:
            self.on_client_dropout(client_id)

    def on_client_dropout(self, client_id: int) -> None:
        """A client disconnected: drop it from the round in flight (if any)."""
        state = self._round_state
        if state is None or state.finalized or client_id not in state.selected_clients:
            return
        state.disconnected.add(client_id)
        if client_id not in state.results:
            self._drop_client(state, client_id)
        # Even when the client already contributed, its disconnect can void
        # an offload expectation, so completion must be re-evaluated.
        self._maybe_finalize(state)

    def on_client_rejoin(self, client_id: int) -> None:
        """A client reconnected: restart the loop if it was parked."""
        if self._round_pending and not self.finished:
            self._start_round()

    def _on_client_timeout(self, state: RoundState, client_id: int) -> None:
        if state.finalized or state is not self._round_state:
            return
        if client_id in state.results or client_id in state.dropped_clients:
            return
        self._drop_client(state, client_id)
        self._maybe_finalize(state)

    def _on_round_deadline(self, state: RoundState) -> None:
        if state.finalized or state is not self._round_state:
            return
        for client_id in state.pending_clients:
            self._drop_client(state, client_id)
        # Aggregate whatever arrived in time.  If nothing arrived, the global
        # model is left unchanged for this round (the paper's federator also
        # keeps the previous model in that case).
        self.finalize_round(state)

    #: Message kinds whose delivery failure means the round lost a client's
    #: contribution (graceful degradation drops the client, like a timeout).
    _EXPIRY_DROP_KINDS = frozenset(
        {MessageKind.TRAIN_REQUEST, MessageKind.TRAIN_RESULT}
    )

    def _on_transport_expiry(self, entry: dict) -> None:
        """A reliable send exhausted its retransmissions.

        An expired ``TRAIN_REQUEST`` (we could not reach the client) or
        ``TRAIN_RESULT`` (the client could not reach us) drops that client
        from the round in flight, so exhausted retries degrade the round
        instead of hanging it.  Other expiries (profile reports, offload
        plumbing) only re-evaluate completion: the round timers own those.
        """
        state = self._round_state
        if state is None or state.finalized:
            return
        if entry["sender"] == FEDERATOR_ID:
            client_id = entry["recipient"]
        elif entry["recipient"] == FEDERATOR_ID:
            client_id = entry["sender"]
        else:
            return  # client<->client offload traffic; round timers cover it
        if entry["round_number"] != state.round_number:
            return
        if (
            entry["kind"] in self._EXPIRY_DROP_KINDS
            and client_id in state.selected_clients
            and client_id not in state.results
            and client_id not in state.dropped_clients
        ):
            self._drop_client(state, client_id)
        self._maybe_finalize(state)

    def _drop_client(self, state: RoundState, client_id: int) -> None:
        """Remove a client from the round: it no longer counts towards
        completion and its (absent) update is excluded from aggregation."""
        if client_id in state.dropped_clients:
            return
        state.dropped_clients.append(client_id)
        timeout = state.timeout_events.pop(client_id, None)
        if timeout is not None:
            timeout.cancel()
        self.on_client_dropped(state, client_id)

    def _quorum_satisfied(self, state: RoundState) -> bool:
        """Whether the round may finalize early on a partial quorum.

        With ``transport.quorum_fraction < 1``, a round finalizes once that
        fraction of the selected clients has delivered *and* none of the
        stragglers has recoverable traffic still in flight on the reliable
        channel (an un-ACKed request or result may yet arrive; waiting for
        it is free because retries are bounded).
        """
        quorum = self.config.transport.quorum_fraction
        if quorum >= 1.0:
            return False
        needed = max(1, int(np.ceil(quorum * len(state.selected_clients))))
        delivered = sum(
            1 for cid in state.results if cid not in state.dropped_clients
        )
        if delivered < needed:
            return False
        return all(
            self.transport.pending_involving(cid, state.round_number) == 0
            for cid in state.pending_clients
        )

    def _maybe_finalize(self, state: RoundState) -> None:
        if state.finalized:
            return
        if self.round_complete(state):
            self.finalize_round(state)
            return
        if self._quorum_satisfied(state):
            for client_id in state.pending_clients:
                self._drop_client(state, client_id)
            self.finalize_round(state)

    # -------------------------------------------------------------- finalisation
    def finalize_round(self, state: RoundState) -> None:
        """Aggregate whatever arrived, evaluate, record, and move on.

        This is the single exit path of the ``COLLECTING`` phase, reached on
        normal completion, on the round deadline, or when every selected
        client dropped out.
        """
        state.phase = RoundPhase.FINALIZED
        self._cancel_round_timers(state)
        contributions = self.collect_contributions(state)
        if contributions:
            self.global_weights = self.aggregate(state, contributions)
        self.global_model.set_weights(self.global_weights)
        test_loss, test_accuracy = self.global_model.evaluate(self.x_test, self.y_test)

        completed = sorted(state.results)
        losses = [state.results[cid].train_loss for cid in completed]
        sizes = [state.results[cid].num_samples for cid in completed]
        record = RoundRecord(
            round_number=state.round_number,
            start_time=state.start_time,
            end_time=self.env.now,
            selected_clients=list(state.selected_clients),
            completed_clients=completed,
            dropped_clients=list(state.dropped_clients),
            num_offloads=state.num_offloads
            or sum(1 for r in state.results.values() if r.offloaded_to is not None),
            test_accuracy=test_accuracy,
            test_loss=test_loss,
            mean_train_loss=average_metric(losses, sizes),
        )
        self._record_network(record)
        self.result.add_round(record)
        self.result.setup_time = self.setup_time
        self._rounds_completed += 1
        self._round_state = None
        if self.checkpoint_hook is not None:
            # Between rounds: no round state, no round timers, no training
            # requests in flight yet — the quietest point of the loop.
            self.checkpoint_hook()
        if not self.finished:
            self._start_round()

    #: Traffic counters every run has; per-round extras only carry the
    #: fault/transport counters beyond these.
    _BASE_NET_KEYS = ("messages_sent", "bytes_sent", "messages_dropped", "messages_failed")

    def _record_network(self, record: RoundRecord) -> None:
        """Refresh the result's network totals; attach per-round deltas.

        The whole-run totals are overwritten on every record so the result
        always reflects traffic up to its last round.  Per-round
        fault-counter deltas go into ``record.extra`` only when the
        transport machinery is live, keeping null-transport round records
        byte-identical to the historical ones.
        """
        totals = self.cluster.network_totals()
        self.result.network = dict(totals)
        if self._transport_active:
            for key, value in totals.items():
                if key in self._BASE_NET_KEYS:
                    continue
                record.extra[f"net_{key}"] = float(value) - self._net_baseline.get(key, 0.0)
            self._net_baseline = dict(totals)

    # ------------------------------------------------------ checkpoint seams
    def capture_checkpoint_state(self) -> dict:
        """Serializable federator state at a capture point.

        The synchronous engine's capture point lies between rounds, where
        no round is in flight.  Subclasses contribute algorithm state
        through :meth:`_capture_extra_state`.
        """
        if self._round_state is not None:
            raise RuntimeError("a synchronous federator is captured between rounds only")
        return {
            "global_weights": {k: v.copy() for k, v in self.global_weights.items()},
            "rng": self._rng.bit_generator.state,
            "rounds_completed": self._rounds_completed,
            "round_pending": self._round_pending,
            "setup_time": self.setup_time,
            "net_baseline": dict(self._net_baseline),
            "extra": self._capture_extra_state(),
        }

    def restore_checkpoint_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`capture_checkpoint_state` onto a
        freshly built federator (before the simulation is resumed)."""
        self.global_weights = {
            k: np.array(v, copy=True) for k, v in state["global_weights"].items()
        }
        self.global_model.set_weights(self.global_weights)
        self._rng.bit_generator.state = state["rng"]
        self._rounds_completed = int(state["rounds_completed"])
        self._round_pending = bool(state["round_pending"])
        self.setup_time = state["setup_time"]
        self.result.setup_time = state["setup_time"]
        self._net_baseline = dict(state["net_baseline"])
        self._restore_extra_state(state["extra"])

    def _capture_extra_state(self) -> dict:
        """Algorithm-specific mutable state (TiFL tier credits, async
        buffers, ...)."""
        return {}

    def _restore_extra_state(self, extra: dict) -> None:
        """Restore state captured by :meth:`_capture_extra_state`."""


@register_federator("fedavg")
class FedAvgFederator(BaseFederator):
    """Plain FedAvg: random selection, wait for everyone, weighted average."""

    algorithm_name = "fedavg"
