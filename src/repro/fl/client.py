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

A batch's *duration* is charged to virtual time through the cluster's
cost model, which is how the reproduction recreates heterogeneous training
speeds; its numpy gradient step is recorded in a
:class:`repro.fl.training.TrainingJob` that runs where it is first read.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.freezing import FrozenModelPackage
from repro.core.profiler import OnlineProfiler
from repro.data.loader import BatchLoader
from repro.fl.config import ExperimentConfig
from repro.fl.messages import MessageKind, OffloadResult, ProfileReport, TrainingResult
from repro.fl.training import TrainingJob
from repro.nn.optim import Optimizer, ProximalSGD, SGD
from repro.simulation.cluster import FEDERATOR_ID, SimulatedCluster
from repro.simulation.network import Message, wire_bytes


class FLClient:
    """A simulated federated-learning client node."""

    def __init__(
        self,
        client_id: int,
        cluster: SimulatedCluster,
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
        #: Where this client's jobs run; its model prices a batch.
        self.trainer = cluster.trainer

        self.loader = BatchLoader(
            x_train, y_train, batch_size=config.batch_size, seed=config.seed * 10_007 + client_id
        )
        self.class_counts = class_counts
        #: Hyper-parameters every round's job starts a fresh optimizer from.
        self.optimizer: Optimizer = self._build_optimizer()

        self.transport.register(client_id, self.handle_message)
        cluster.attach_actor(client_id, self)

        # Round state (reset at every TRAIN_REQUEST).
        self._round: Optional[int] = None
        #: This round's own training while it goes on (``None`` once the
        #: result is sent, or when the round is void).
        self.job: Optional[TrainingJob] = None
        self._features_frozen = False
        self._total_batches = 0
        self._give_up_batches = 0
        self._profile_batches = 0
        self._report_profile = False
        self._batches_done = 0
        self._profiler = OnlineProfiler()
        self._profile_sent = False
        self._offload_target: Optional[int] = None
        self._offload_budget = 0
        self._has_offloaded = False
        self._own_training_done = False
        self._result_sent = False
        self._incoming_package: Optional[FrozenModelPackage] = None
        self._offload_job: Optional[TrainingJob] = None
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
        round can leak into a later one.  Its jobs are dropped: nobody reads
        them, so they never run (a rejoining client is handed fresh global
        weights with the next training request anyway).
        """
        self.times_disconnected += 1
        self._cancel_pending_work()
        self._round = None
        self.job = self._offload_job = None
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
    #: position affects numerics (every TRAIN_REQUEST starts a new job from
    #: the request's weights); the counters are lifetime diagnostics that
    #: reports and tests read.
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
        client owns (its data slice) is reconstructed on rehydration.
        """
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
        if self._pending_offload_event is not None:
            self._pending_offload_event.cancel()
            self._pending_offload_event = None

    # ----------------------------------------------------- checkpoint seams
    def capture_execution_state(self) -> Optional[dict]:
        """Full mid-run state for a checkpoint, or ``None`` when the client
        is in a state the checkpointer does not serialize.

        This extends :meth:`dehydrate` with round progress, profiler
        accumulators, the pending batch completion and — while the round's
        own training goes on — the state after every batch drawn, which
        runs the job that far.  Mid-offload-training states are refused:
        the synchronous engine, the only one that offloads, checkpoints at
        round boundaries where it is never active.  *Residual* round flags
        (frozen features, a stale offload expectation) are captured as
        plain data so pool-eviction decisions after a resume match the
        uninterrupted run exactly.
        """
        if (
            self._incoming_package is not None
            or self._offload_training_active
            or self._pending_offload_event is not None
        ):
            return None
        state = self.dehydrate()
        job, pending = self.job, self._pending_batch_event
        losses = weights = optimizer = pending_batch = None
        if job is not None:
            weights = self.trainer.per_key(job.flat_weights())
            losses, optimizer = job.losses[: self._batches_done], job.optimizer_state
            if pending is not None:
                pending_batch = (pending.time, pending.sequence, job.losses[self._batches_done])
        state.update(
            round=self._round,
            total_batches=self._total_batches,
            batches_done=self._batches_done,
            losses=losses or [],
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
            features_frozen=self._features_frozen,
            weights=weights,
            optimizer=optimizer,
            pending_batch=pending_batch,
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
        self._features_frozen = bool(state["features_frozen"])
        self.job = None
        if state["weights"] is not None and not self._own_training_done:
            # The round goes on from the captured state; a pending batch
            # was drawn and run before the capture, its loss is known.
            pending = state["pending_batch"]
            self.job = self._new_job(
                state["weights"],
                state["optimizer"],
                frozen=self._features_frozen,
                losses=list(state["losses"]) + ([pending[2]] if pending is not None else []),
            )

    def schedule_restored_batch(self, time: float) -> None:
        """Re-schedule a captured pending batch completion at its absolute
        fire time (called by the checkpoint orchestrator in event order)."""
        self._pending_batch_event = self.env.schedule_at(time, self._on_own_batch_done)

    def _new_job(self, weights, optimizer_state: dict, **kwargs) -> TrainingJob:
        return TrainingJob(
            self.trainer,
            self.client_id,
            self.loader.x,
            self.loader.y,
            self.trainer.sections(weights),
            self.optimizer,
            optimizer_state,
            **kwargs,
        )

    # ------------------------------------------------------------ round start
    def _start_round(self, message: Message) -> None:
        payload = message.payload
        # A new round supersedes whatever this client was doing: if it was
        # still training for an expired round (e.g. it was dropped by a
        # deadline or timeout), the stale batch completion must not fire
        # into the new round's accounting, and the stale job is dropped
        # unread (its batches were drawn, which is all the loader keeps).
        self._cancel_pending_work()
        self._round = message.round_number
        self._total_batches = int(payload["total_batches"])
        self._profile_batches = int(payload.get("profile_batches", 0))
        self._report_profile = bool(payload.get("report_profile", False))
        self._give_up_batches = 0
        self._batches_done = 0
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
        self._offload_job = None
        self._offload_batches_done = 0
        self._offload_training_active = False
        self._offload_expected = False
        self._offload_source = None

        self._features_frozen = False
        optimizer_state = self.optimizer.capture_state()
        self.job = self._new_job(payload["weights"], optimizer_state)
        if isinstance(self.optimizer, ProximalSGD):
            # The proximal term pulls towards the just-loaded global weights.
            optimizer_state["anchor"] = self.job.weights

        self.rounds_participated += 1
        self._train_own_batch()

    # ---------------------------------------------------------- local training
    def _effective_total_batches(self) -> int:
        """Own updates to perform, after giving up capacity for offloaded work."""
        return max(self._total_batches - self._give_up_batches, self._batches_done)

    def _train_own_batch(self) -> None:
        shape = self.job.draw(self.loader)
        trace = self.trainer.model.batch_trace(shape, features_frozen=self._features_frozen)
        phase_durations = self.cost_model.phase_seconds(trace, self.resource, self.env.now)
        if self._features_frozen:
            duration = self.cost_model.frozen_batch_seconds(trace, self.resource, self.env.now)
        else:
            duration = self.cost_model.batch_seconds(trace, self.resource, self.env.now)
        if self._profiler.active:
            measured = {
                phase: self.clock.measure(seconds) for phase, seconds in phase_durations.items()
            }
            duration += self._profiler.record_batch(measured)
        self._pending_batch_event = self.env.schedule(duration, self._on_own_batch_done)

    def _on_own_batch_done(self) -> None:
        self._pending_batch_event = None
        self._batches_done += 1
        self.total_batches_trained += 1

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
        # Freeze the feature layers and ship the model to the strong client:
        # the package is the job's state at the freeze, a flat vector once
        # somebody reads it.
        self.job.freeze_features()
        package = FrozenModelPackage(
            source_client_id=self.client_id,
            round_number=self._round if self._round is not None else -1,
            batches_to_train=remaining,
            job=self.job,
        )
        self.transport.send(
            self.client_id,
            self._offload_target,
            MessageKind.OFFLOADED_MODEL,
            payload=package,
            round_number=package.round_number,
            size_bytes=package.payload_bytes(),
        )
        self._features_frozen = True
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
        self._own_training_done = True
        result = TrainingResult(
            client_id=self.client_id,
            round_number=self._round if self._round is not None else -1,
            num_samples=self.num_samples,
            num_steps=self._batches_done,
            features_frozen=self._features_frozen,
            offloaded_to=self._offload_target if self._has_offloaded else None,
            finished_at=self.env.now,
            job=self.job,
        )
        self.job = None
        self._result_sent = True
        self.transport.send(
            self.client_id,
            FEDERATOR_ID,
            MessageKind.TRAIN_RESULT,
            payload=result,
            round_number=result.round_number,
            size_bytes=wire_bytes(self.trainer.model.num_parameters()),
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
        # The package's features train on this client's data, its classifier
        # held fixed, with a fresh plain SGD.
        optimizer = SGD(
            lr=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        self._offload_job = TrainingJob(
            self.trainer,
            self.client_id,
            self.loader.x,
            self.loader.y,
            package,
            optimizer,
            optimizer.capture_state(),
            features_only=True,
        )
        self._train_offloaded_batch()

    def _train_offloaded_batch(self) -> None:
        shape = self._offload_job.draw(self.loader)
        trace = self.trainer.model.batch_trace(shape, features_frozen=False)
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
        if package is None:  # pragma: no cover - defensive
            return
        result = OffloadResult(
            source_client_id=package.source_client_id,
            trainer_client_id=self.client_id,
            round_number=package.round_number,
            batches_trained=self._offload_batches_done,
            finished_at=self.env.now,
            job=self._offload_job,
        )
        self.total_offloads_trained += 1
        self._offload_training_active = False
        self._incoming_package = self._offload_job = None
        self.transport.send(
            self.client_id,
            FEDERATOR_ID,
            MessageKind.OFFLOAD_RESULT,
            payload=result,
            round_number=result.round_number,
            size_bytes=wire_bytes(self.trainer.model.num_feature_parameters()),
        )
