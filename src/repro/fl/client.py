"""The federated-learning client actor.

A client owns a private slice of the training data, a local copy of the
model, a resource profile (its simulated CPU speed) and a local clock.  It
reacts to messages from the federator and from other clients:

* ``TRAIN_REQUEST`` — start local training for a round: run the online
  profiler over the first ``P`` batches (when the federator asked for
  reports), report the measurements, and keep training;
* ``OFFLOAD_INSTRUCTION`` — freeze the feature layers at the next batch
  boundary once only the offloaded updates remain, ship the model to the
  designated strong client, and continue training the classifier only;
* ``OFFLOAD_EXPECT`` — reserve capacity for an incoming offloaded model by
  giving up the corresponding number of own local updates (the scheduler's
  estimate in Algorithm 2 assumes exactly this);
* ``OFFLOADED_MODEL`` — after finishing its own updates, train the frozen
  feature layers of the received model on the *local* dataset and return
  them to the federator.

Every batch is a real numpy gradient step; its *duration* is charged to
virtual time through the cluster's cost model, which is how the
reproduction recreates heterogeneous training speeds.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.freezing import FrozenModelPackage, split_weights
from repro.core.profiler import OnlineProfiler
from repro.data.loader import BatchLoader
from repro.fl.config import ExperimentConfig
from repro.fl.messages import MessageKind, OffloadResult, ProfileReport, TrainingResult
from repro.nn.model import Phase, SplitCNN
from repro.nn.optim import Optimizer, ProximalSGD, SGD
from repro.simulation.cluster import FEDERATOR_ID, SimulatedCluster
from repro.simulation.network import Message, weights_wire_bytes


class FLClient:
    """A simulated federated-learning client node."""

    def __init__(
        self,
        client_id: int,
        cluster: SimulatedCluster,
        model: SplitCNN,
        x_train: np.ndarray,
        y_train: np.ndarray,
        config: ExperimentConfig,
        class_counts: Optional[np.ndarray] = None,
    ) -> None:
        self.client_id = client_id
        self.config = config
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network
        self.transport = cluster.transport
        self.cost_model = cluster.cost_model
        self.resource = cluster.profile(client_id)
        self.clock = cluster.nodes[client_id].clock

        self.model = model
        self.loader = BatchLoader(
            x_train, y_train, batch_size=config.batch_size, seed=config.seed * 10_007 + client_id
        )
        self.class_counts = class_counts
        self.optimizer: Optimizer = self._build_optimizer()

        self.transport.register(client_id, self.handle_message)
        cluster.attach_actor(client_id, self)

        #: Sharded execution: the handle of this round's training while it
        #: runs on the shard worker that owns this client (``None`` in a
        #: single-process run, and once the client has left it).  Batches
        #: are then computed by the worker instead of ``model.train_batch``;
        #: timing, events and losses are identical either way (see
        #: :mod:`repro.simulation.shard`).
        self._remote = None

        # Round state (reset at every TRAIN_REQUEST).
        self._round: Optional[int] = None
        self._total_batches = 0
        self._give_up_batches = 0
        self._profile_batches = 0
        self._report_profile = False
        self._batches_done = 0
        self._losses: List[float] = []
        self._profiler = OnlineProfiler()
        self._profile_sent = False
        self._offload_target: Optional[int] = None
        self._offload_budget = 0
        self._has_offloaded = False
        self._own_training_done = False
        self._result_sent = False
        self._incoming_package: Optional[FrozenModelPackage] = None
        self._offload_model: Optional[SplitCNN] = None
        self._offload_batches_done = 0
        self._offload_training_active = False
        #: An OFFLOAD_EXPECT promised this client an incoming model that has
        #: not arrived yet (``_offload_source`` is the promising weak
        #: client).  Cleared when the model lands, when a new round starts,
        #: or on disconnect (the expectation is void either way).
        self._offload_expected = False
        self._offload_source: Optional[int] = None
        #: Pending batch-completion events, kept so that a disconnect (or a
        #: new round arriving while a stale batch is still in flight) can
        #: cancel them instead of letting them corrupt later rounds.
        self._pending_batch_event = None
        self._pending_offload_event = None
        #: The already-computed loss the pending batch event will report;
        #: kept as plain data (not only inside the event's closure) so a
        #: checkpoint can serialize and re-schedule the completion exactly.
        self._pending_batch_loss: Optional[float] = None

        # Lifetime statistics (used by tests and reports).
        self.rounds_participated = 0
        self.total_batches_trained = 0
        self.total_offloads_sent = 0
        self.total_offloads_trained = 0
        self.times_disconnected = 0

    # ------------------------------------------------------------------ setup
    def _build_optimizer(self) -> Optimizer:
        if self.config.algorithm == "fedprox":
            return ProximalSGD(
                lr=self.config.learning_rate,
                mu=self.config.fedprox_mu,
                momentum=self.config.momentum,
                weight_decay=self.config.weight_decay,
            )
        return SGD(
            lr=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )

    @property
    def num_samples(self) -> int:
        """Size of the client's local training set."""
        return self.loader.num_samples

    # --------------------------------------------------------------- messaging
    def handle_message(self, message: Message) -> None:
        """Entry point for all messages delivered by the network."""
        if message.kind == MessageKind.TRAIN_REQUEST:
            self._start_round(message)
        elif message.kind == MessageKind.OFFLOAD_INSTRUCTION:
            self._handle_offload_instruction(message)
        elif message.kind == MessageKind.OFFLOAD_EXPECT:
            self._handle_offload_expect(message)
        elif message.kind == MessageKind.OFFLOADED_MODEL:
            self._handle_offloaded_model(message)
        # Unknown kinds are ignored: the paper's clients drop messages they
        # do not understand or that belong to past rounds.

    def _stale(self, message: Message) -> bool:
        """Whether a control message belongs to a round other than the current one."""
        return self._round is None or message.round_number != self._round

    # ------------------------------------------------------------- lifecycle
    def on_disconnect(self) -> None:
        """Called by the cluster when this client goes offline.

        All local work is aborted: pending batch completions are cancelled
        and the round state is cleared, so nothing from the interrupted
        round can leak into a later one.  The model itself keeps its weights
        (a rejoining client is handed fresh global weights with the next
        training request anyway).
        """
        self.times_disconnected += 1
        self._abandon_remote()
        self._cancel_pending_work()
        self._round = None
        self._own_training_done = False
        self._result_sent = False
        self._incoming_package = None
        self._offload_training_active = False
        self._offload_target = None
        self._has_offloaded = False
        self._offload_expected = False
        self._offload_source = None

    def on_reconnect(self) -> None:
        """Called by the cluster when this client comes back online."""
        # Nothing to do: the client idles until the next TRAIN_REQUEST.

    # --------------------------------------------------- pool (de)hydration
    #: Attribute names that survive dehydration.  Only the batch loader's
    #: position affects numerics (model weights and optimizer state are
    #: overwritten at every TRAIN_REQUEST); the counters are lifetime
    #: diagnostics that reports and tests read.
    PERSISTENT_COUNTERS = (
        "rounds_participated",
        "total_batches_trained",
        "total_offloads_sent",
        "total_offloads_trained",
        "times_disconnected",
    )

    def is_quiescent(self, resolve_peer=None) -> bool:
        """Whether the client has no scheduled work or held offload state.

        Only quiescent clients may be dehydrated: a pending batch event, a
        buffered offloaded model, or a promised-but-undelivered offload
        would be lost otherwise (in-flight network messages are checked
        separately by the pool).  ``resolve_peer`` (id -> client or None)
        lets the pool refine the offload-expectation check — see
        :meth:`_offload_expectation_live`; without it an unfulfilled
        expectation conservatively blocks.
        """
        return (
            self._pending_batch_event is None
            and self._pending_offload_event is None
            and self._incoming_package is None
            and not self._offload_training_active
            and not self._offload_expectation_live(resolve_peer)
        )

    def _offload_expectation_live(self, resolve_peer=None) -> bool:
        """Whether a promised offloaded model can still arrive.

        The promise dies with the weak client's round: once the source has
        finished its own training without offloading (or already shipped
        the model — then the in-flight/package checks take over), was
        dehydrated (only possible once itself quiescent), or disconnected,
        nothing can send anymore and the expectation stops blocking
        eviction.  Without ``resolve_peer`` the answer is conservative.
        """
        if not self._offload_expected:
            return False
        if resolve_peer is None or self._offload_source is None:
            return True
        source = resolve_peer(self._offload_source)
        if source is None:
            return False  # dehydrated (hence quiescent) or unknown: void
        return (
            source._round == self._round
            and not source._own_training_done
            and not source._has_offloaded
        )

    def dehydrate(self) -> dict:
        """Capture the state that must survive eviction from the pool.

        The caller guarantees :meth:`is_quiescent`; everything else the
        client owns (model buffers, optimizer scratch, data slices) is
        reconstructed — or recycled from the pool's arena — on rehydration.
        """
        # A remote training implies a pending batch event, which is_quiescent
        # rejects; this is a backstop against future lifecycle changes.
        assert self._remote is None, "cannot dehydrate a client whose training is remote"
        state = {name: getattr(self, name) for name in self.PERSISTENT_COUNTERS}
        state["loader"] = self.loader.state()
        return state

    def rehydrate(self, state: dict) -> None:
        """Restore state captured by :meth:`dehydrate` on a fresh instance."""
        for name in self.PERSISTENT_COUNTERS:
            setattr(self, name, state[name])
        self.loader.set_state(state["loader"])

    def _cancel_pending_work(self) -> None:
        """Cancel any scheduled batch-completion events."""
        if self._pending_batch_event is not None:
            self._pending_batch_event.cancel()
            self._pending_batch_event = None
            self._pending_batch_loss = None
        if self._pending_offload_event is not None:
            self._pending_offload_event.cancel()
            self._pending_offload_event = None

    # ----------------------------------------------------- checkpoint seams
    def capture_execution_state(self) -> Optional[dict]:
        """Full mid-run state for a checkpoint, or ``None`` when the client
        is in a state the checkpointer does not serialize.

        This extends :meth:`dehydrate` (loader position + lifetime counters)
        with the in-flight training task: model weights, optimizer momentum,
        round progress, profiler accumulators, and the already-computed
        pending batch completion.  Mid-offload-training states are refused —
        offloading happens only inside a synchronous round, and the
        synchronous engine checkpoints at round boundaries where it is never
        active.  *Residual* round flags (frozen features, a stale offload
        expectation, a profiler that never hit its stop condition) can
        outlive the round until the next ``TRAIN_REQUEST`` resets them; they
        are captured as plain data so pool-eviction decisions after a resume
        match the uninterrupted run exactly.
        """
        if (
            self._incoming_package is not None
            or self._offload_training_active
            or self._pending_offload_event is not None
        ):
            return None
        # A mid-flight straggler's training may still be remote: materialize
        # it into the client's own buffers so the snapshot (weights, momentum,
        # loader, pending loss) is exactly what a single-process run would
        # hold.  The resumed run continues in the parent, which is bitwise
        # identical.
        self._adopt_remote()
        state = self.dehydrate()
        mid_round = self._round is not None
        state.update(
            round=self._round,
            total_batches=self._total_batches,
            batches_done=self._batches_done,
            losses=list(self._losses),
            own_training_done=self._own_training_done,
            result_sent=self._result_sent,
            give_up_batches=self._give_up_batches,
            profile_batches=self._profile_batches,
            report_profile=self._report_profile,
            profile_sent=self._profile_sent,
            profiler=self._profiler.capture_state(),
            offload_target=self._offload_target,
            offload_budget=self._offload_budget,
            has_offloaded=self._has_offloaded,
            offload_expected=self._offload_expected,
            offload_source=self._offload_source,
            features_frozen=self.model.features_frozen,
            weights=self.model.get_weights() if mid_round else None,
            optimizer=self.optimizer.capture_state() if mid_round else None,
            pending_batch=(
                (
                    self._pending_batch_event.time,
                    self._pending_batch_event.sequence,
                    self._pending_batch_loss,
                )
                if self._pending_batch_event is not None
                and not self._pending_batch_event.cancelled
                else None
            ),
        )
        return state

    def restore_execution_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`capture_execution_state`.

        The pending batch event (if any) is *not* re-scheduled here: the
        checkpoint orchestrator replays all captured events in globally
        merged (time, sequence) order via :meth:`schedule_restored_batch`.
        """
        self.rehydrate({key: state[key] for key in (*self.PERSISTENT_COUNTERS, "loader")})
        self._cancel_pending_work()
        self._round = state["round"]
        self._total_batches = int(state["total_batches"])
        self._batches_done = int(state["batches_done"])
        self._losses = list(state["losses"])
        self._own_training_done = bool(state["own_training_done"])
        self._result_sent = bool(state["result_sent"])
        self._give_up_batches = int(state["give_up_batches"])
        self._profile_batches = int(state["profile_batches"])
        self._report_profile = bool(state["report_profile"])
        self._profile_sent = bool(state["profile_sent"])
        self._profiler.restore_state(state["profiler"])
        self._offload_target = state["offload_target"]
        self._offload_budget = int(state["offload_budget"])
        self._has_offloaded = bool(state["has_offloaded"])
        self._incoming_package = None
        self._offload_batches_done = 0
        self._offload_training_active = False
        self._offload_expected = bool(state["offload_expected"])
        self._offload_source = state["offload_source"]
        if state["weights"] is not None:
            self.model.unfreeze_features()
            self.model.unfreeze_classifier()
            self.model.set_weights(state["weights"])
            self.optimizer.restore_state(state["optimizer"])
            if state["features_frozen"]:
                self.model.freeze_features()

    def schedule_restored_batch(self, time: float, loss: float) -> None:
        """Re-schedule a captured pending batch completion at its absolute
        fire time (called by the checkpoint orchestrator in event order)."""
        self._pending_batch_loss = loss
        self._pending_batch_event = self.env.schedule_at(time, self._on_own_batch_done)

    # ------------------------------------------------------------ round start
    def _start_round(self, message: Message) -> None:
        payload = message.payload
        # A new round supersedes whatever this client was doing: if it was
        # still training for an expired round (e.g. it was dropped by a
        # deadline or timeout), the stale batch completion must not fire
        # into the new round's accounting.  A stale remote training only
        # needs its loader draws replayed (the weights are overwritten
        # below); this must happen before the pending event is cancelled
        # because the draw count includes the in-flight batch.
        self._abandon_remote()
        self._cancel_pending_work()
        self._round = message.round_number
        self._total_batches = int(payload["total_batches"])
        self._profile_batches = int(payload.get("profile_batches", 0))
        self._report_profile = bool(payload.get("report_profile", False))
        self._give_up_batches = 0
        self._batches_done = 0
        self._losses = []
        self._profiler.reset()
        if self._profile_batches == 0:
            self._profiler.stop()
        self._profile_sent = False
        self._offload_target = None
        self._offload_budget = 0
        self._has_offloaded = False
        self._own_training_done = False
        self._result_sent = False
        self._incoming_package = None
        self._offload_batches_done = 0
        self._offload_training_active = False
        self._offload_expected = False
        self._offload_source = None

        self.model.unfreeze_features()
        self.model.unfreeze_classifier()
        self.model.set_weights(payload["weights"])
        self.optimizer.reset_state()
        if isinstance(self.optimizer, ProximalSGD):
            # Anchor the proximal term on the just-loaded global weights,
            # held as one contiguous vector per section so the proximal
            # gradient is a fused vector operation (set_anchor copies).
            self.optimizer.set_anchor(
                {
                    section: self.model.flat_parameters(section)
                    for section in self.model.SECTIONS
                }
            )

        shards = self.cluster.shard_executor
        if shards is not None:
            # The whole round goes to the owning worker now, from exactly
            # this state (None when a worker could not rebuild it: this
            # process then trains it, identically).
            self._remote = shards.submit(self, self._total_batches)

        self.rounds_participated += 1
        self._train_own_batch()

    # ---------------------------------------------------------- local training
    def _effective_total_batches(self) -> int:
        """Own updates to perform, after giving up capacity for offloaded work."""
        return max(self._total_batches - self._give_up_batches, self._batches_done)

    def _train_own_batch(self) -> None:
        if self._remote is not None:
            # Computed by the worker: only its (analytic, identical) cost is
            # needed to schedule the completion, which fetches the loss.
            loss = None
            trace = self.model.batch_trace(self._remote.batch_shape(self._batches_done))
        else:
            xb, yb = self.loader.next_batch()
            loss, trace = self.model.train_batch(xb, yb, self.optimizer)
        phase_durations = self.cost_model.phase_seconds(trace, self.resource, self.env.now)
        if self.model.features_frozen:
            duration = self.cost_model.frozen_batch_seconds(trace, self.resource, self.env.now)
        else:
            duration = self.cost_model.batch_seconds(trace, self.resource, self.env.now)
        if self._profiler.active:
            measured = {
                phase: self.clock.measure(seconds) for phase, seconds in phase_durations.items()
            }
            duration += self._profiler.record_batch(measured)
        self._pending_batch_loss = loss
        self._pending_batch_event = self.env.schedule(duration, self._on_own_batch_done)

    def _on_own_batch_done(self) -> None:
        # Parked when the batch was computed here — or when the client left
        # its remote training with this completion in flight; fetched from
        # the worker's result otherwise.
        loss = self._pending_batch_loss
        if self._remote is not None:
            loss = self._remote.loss(self._batches_done)
        self._pending_batch_event = None
        self._pending_batch_loss = None
        self._batches_done += 1
        self.total_batches_trained += 1
        self._losses.append(loss)

        if (
            self._profiler.active
            and self._profiler.batches_recorded >= self._profile_batches
        ):
            self._profiler.stop()
            if self._report_profile and not self._profile_sent:
                self._send_profile_report()

        self._maybe_freeze_and_offload()

        if self._batches_done < self._effective_total_batches():
            self._train_own_batch()
        else:
            self._finish_own_training()

    # ------------------------------------------------------- remote training
    def _adopt_remote(self) -> None:
        """Bring the remote training's state into this client's own buffers.

        After this the client's model weights, optimizer state and loader
        position are bitwise what a single-process run would hold after the
        same number of drawn batches (including a still-in-flight one).
        """
        remote = self._remote
        if remote is None:
            return
        self._remote = None
        pending = self._pending_batch_event is not None
        drawn = self._batches_done + (1 if pending else 0)
        last_loss = remote.materialize(self, drawn)
        if pending:
            self._pending_batch_loss = last_loss

    def _abandon_remote(self) -> None:
        """Leave the remote training syncing only the loader (weights are obsolete)."""
        remote = self._remote
        if remote is None:
            return
        self._remote = None
        drawn = self._batches_done + (1 if self._pending_batch_event is not None else 0)
        remote.abandon(self, drawn)

    def _send_profile_report(self) -> None:
        profile = self._profiler.profile()
        report = ProfileReport(
            client_id=self.client_id,
            round_number=self._round if self._round is not None else -1,
            phase_seconds=dict(profile.phase_seconds),
            batches_measured=profile.batches_measured,
            batches_completed=self._batches_done,
            remaining_batches=max(self._total_batches - self._batches_done, 0),
        )
        self._profile_sent = True
        self.transport.send(
            self.client_id,
            FEDERATOR_ID,
            MessageKind.PROFILE_REPORT,
            payload=report,
            round_number=report.round_number,
        )

    # -------------------------------------------------------------- offloading
    def _handle_offload_instruction(self, message: Message) -> None:
        if self._stale(message):
            return
        payload = message.payload
        self._offload_target = int(payload["target"])
        self._offload_budget = int(payload["offload_batches"])
        # The instruction may arrive while the client is between batches (its
        # next completion event is already scheduled); freezing happens at the
        # next batch boundary via _maybe_freeze_and_offload.  If the client
        # already finished its own training, offloading no longer helps and
        # the instruction is ignored.
        if not self._own_training_done:
            self._maybe_freeze_and_offload()

    def _handle_offload_expect(self, message: Message) -> None:
        if self._stale(message):
            return
        self._give_up_batches = int(message.payload["offload_batches"])
        self._offload_expected = True
        source = message.payload.get("source")
        self._offload_source = int(source) if source is not None else None

    def _maybe_freeze_and_offload(self) -> None:
        if (
            self._offload_target is None
            or self._has_offloaded
            or self._own_training_done
            or self._offload_budget <= 0
        ):
            return
        remaining = self._total_batches - self._batches_done
        if remaining <= 0 or remaining > self._offload_budget:
            return
        # The worker trains every batch unfrozen: from here on this client's
        # round is not the one it was sent, so it continues in this process.
        self._adopt_remote()
        # Freeze the feature layers and ship the model to the strong client
        # as one flat vector snapshot (no per-key dictionaries are built).
        package = FrozenModelPackage.from_model(
            self.model,
            source_client_id=self.client_id,
            round_number=self._round if self._round is not None else -1,
            batches_to_train=remaining,
        )
        self.transport.send(
            self.client_id,
            self._offload_target,
            MessageKind.OFFLOADED_MODEL,
            payload=package,
            round_number=package.round_number,
            size_bytes=package.payload_bytes(),
        )
        self.model.freeze_features()
        self._has_offloaded = True
        self.total_offloads_sent += 1

    def _handle_offloaded_model(self, message: Message) -> None:
        if self._stale(message):
            return
        self._offload_expected = False
        self._offload_source = None
        self._incoming_package = message.payload
        if self._own_training_done and not self._offload_training_active:
            self._start_offloaded_training()

    # --------------------------------------------------------------- completion
    def _finish_own_training(self) -> None:
        if self._own_training_done:
            return
        self._adopt_remote()
        self._own_training_done = True
        result = TrainingResult(
            client_id=self.client_id,
            round_number=self._round if self._round is not None else -1,
            weights=self.model.get_weights(),
            flat_weights=self.model.get_flat_weights(),
            num_samples=self.num_samples,
            num_steps=self._batches_done,
            train_loss=float(np.mean(self._losses)) if self._losses else 0.0,
            features_frozen=self.model.features_frozen,
            offloaded_to=self._offload_target if self._has_offloaded else None,
            finished_at=self.env.now,
        )
        self._result_sent = True
        self.transport.send(
            self.client_id,
            FEDERATOR_ID,
            MessageKind.TRAIN_RESULT,
            payload=result,
            round_number=result.round_number,
            size_bytes=weights_wire_bytes(result.weights),
        )
        if self._incoming_package is not None and not self._offload_training_active:
            self._start_offloaded_training()

    # ------------------------------------------------- offloaded model training
    def _start_offloaded_training(self) -> None:
        package = self._incoming_package
        if package is None:
            return
        self._offload_training_active = True
        self._offload_batches_done = 0
        if self._offload_model is None:
            self._offload_model = self.model.clone_architecture()
        package.load_into(self._offload_model)
        self._offload_model.unfreeze_features()
        self._offload_model.freeze_classifier()
        self._offload_optimizer = SGD(
            lr=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        self._train_offloaded_batch()

    def _train_offloaded_batch(self) -> None:
        package = self._incoming_package
        model = self._offload_model
        if package is None or model is None:  # pragma: no cover - defensive
            return
        xb, yb = self.loader.next_batch()
        _, trace = model.train_batch(xb, yb, self._offload_optimizer)
        duration = self.cost_model.feature_training_seconds(trace, self.resource, self.env.now)
        self._pending_offload_event = self.env.schedule(duration, self._on_offloaded_batch_done)

    def _on_offloaded_batch_done(self) -> None:
        self._pending_offload_event = None
        package = self._incoming_package
        if package is None:  # pragma: no cover - defensive
            return
        self._offload_batches_done += 1
        if self._offload_batches_done < package.batches_to_train:
            self._train_offloaded_batch()
        else:
            self._finish_offloaded_training()

    def _finish_offloaded_training(self) -> None:
        package = self._incoming_package
        model = self._offload_model
        if package is None or model is None:  # pragma: no cover - defensive
            return
        feature_weights, _ = split_weights(model.get_weights())
        result = OffloadResult(
            source_client_id=package.source_client_id,
            trainer_client_id=self.client_id,
            round_number=package.round_number,
            feature_weights=feature_weights,
            batches_trained=self._offload_batches_done,
            finished_at=self.env.now,
        )
        self.total_offloads_trained += 1
        self._offload_training_active = False
        self._incoming_package = None
        self.transport.send(
            self.client_id,
            FEDERATOR_ID,
            MessageKind.OFFLOAD_RESULT,
            payload=result,
            round_number=result.round_number,
            size_bytes=weights_wire_bytes(feature_weights),
        )
