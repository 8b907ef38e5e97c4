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

Own and offloaded training never overlap, so one batch loop runs both: a
client has one pending batch completion and one current job.  Everything
a client holds of a round lives in one :class:`ClientRound` record, which a
``TRAIN_REQUEST`` replaces, a disconnect clears, and a checkpoint captures
and restores whole.

A batch's *duration* is charged to virtual time through the cluster's
cost model, which is how the reproduction recreates heterogeneous training
speeds; its numpy gradient step is recorded in a
:class:`repro.fl.training.TrainingJob` that runs where it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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


@dataclass
class ClientRound:
    """What a client holds of the round it was last asked to train.

    The plain fields are checkpointed under their own names;
    :attr:`job`, :attr:`profiler` and :attr:`package` are captured by
    :meth:`FLClient.capture_execution_state`.
    """

    round: int
    total_batches: int
    profile_batches: int = 0
    report_profile: bool = False
    batches_done: int = 0
    #: Own updates given up for an expected offloaded model.
    give_up_batches: int = 0
    profile_sent: bool = False
    features_frozen: bool = False
    offload_target: Optional[int] = None
    offload_budget: int = 0
    has_offloaded: bool = False
    #: The result is sent; the batch loop runs the offloaded model, if any.
    own_training_done: bool = False
    #: An OFFLOAD_EXPECT promised an incoming model that has not arrived
    #: yet (``offload_source`` is the promising weak client).
    offload_expected: bool = False
    offload_source: Optional[int] = None
    offload_batches_done: int = 0
    #: The one job the batch loop runs: the round's own training until its
    #: result is sent, then the incoming offloaded model's.
    job: Optional[TrainingJob] = field(default=None, repr=False)
    profiler: OnlineProfiler = field(default_factory=OnlineProfiler, repr=False)
    #: An offloaded model received and not yet trained to the end.
    package: Optional[FrozenModelPackage] = field(default=None, repr=False)


#: The fields of a :class:`ClientRound` a checkpoint holds as they are.
_PLAIN_FIELDS = tuple(
    f.name for f in fields(ClientRound) if f.name not in ("job", "profiler", "package")
)


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
        self.optimizer: Optimizer = self._build_optimizer(proximal=config.algorithm == "fedprox")
        #: An offloaded model's features train under a plain SGD.
        self._offload_optimizer: Optimizer = self._build_optimizer(proximal=False)

        self.transport.register(client_id, self.handle_message)
        cluster.attach_actor(client_id, self)

        #: The current round (``None`` before the first TRAIN_REQUEST and
        #: after a disconnect).
        self.round_state: Optional[ClientRound] = None
        #: The pending batch completion, kept so that a disconnect (or a new
        #: round arriving while a stale batch is still in flight) can cancel
        #: it instead of letting it corrupt later rounds.
        self._pending_batch_event = None

        # Lifetime statistics (used by tests and reports).
        self.rounds_participated = 0
        self.total_batches_trained = 0
        self.total_offloads_sent = 0
        self.total_offloads_trained = 0
        self.times_disconnected = 0

    # ------------------------------------------------------------------ setup
    def _build_optimizer(self, proximal: bool) -> Optimizer:
        knobs = dict(
            lr=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        if proximal:
            return ProximalSGD(mu=self.config.fedprox_mu, **knobs)
        return SGD(**knobs)

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
        return self.round_state is None or message.round_number != self.round_state.round

    # ------------------------------------------------------------- lifecycle
    def on_disconnect(self) -> None:
        """Called by the cluster when this client goes offline.

        All local work is aborted: the pending batch completion is cancelled
        and the round state is cleared, so nothing from the interrupted
        round can leak into a later one.  Its jobs are dropped: nobody reads
        them, so they never run (a rejoining client is handed fresh global
        weights with the next training request anyway).
        """
        self.times_disconnected += 1
        self._cancel_pending_work()
        self.round_state = None

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
        state = self.round_state
        return self._pending_batch_event is None and (
            state is None
            or (state.package is None and not self._offload_expectation_live(resolve_peer))
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
        state = self.round_state
        if not state.offload_expected:
            return False
        if resolve_peer is None or state.offload_source is None:
            return True
        source = resolve_peer(state.offload_source)
        if source is None:
            return False  # dehydrated (hence quiescent) or unknown: void
        peer = source.round_state
        return (
            peer is not None
            and peer.round == state.round
            and not peer.own_training_done
            and not peer.has_offloaded
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
        """Cancel the scheduled batch completion, if any."""
        if self._pending_batch_event is not None:
            self._pending_batch_event.cancel()
            self._pending_batch_event = None

    # ----------------------------------------------------- checkpoint seams
    def capture_execution_state(self) -> dict:
        """Full mid-run state for a checkpoint, in any state the client is in.

        This extends :meth:`dehydrate` with the round record: its plain
        fields, the profiler's accumulators, an incoming offloaded model (a
        value once pickled) and the current job — own or offloaded — as
        its state after every batch drawn, which runs the job that far,
        plus the pending batch completion.  *Residual* round flags (frozen
        features, a stale offload expectation) are captured as plain data
        so pool-eviction decisions after a resume match the uninterrupted
        run exactly.
        """
        state = self.dehydrate()
        record = self.round_state
        if record is None:
            state["round"] = None
            return state
        state.update({name: getattr(record, name) for name in _PLAIN_FIELDS})
        job, pending = record.job, self._pending_batch_event
        losses = weights = optimizer = pending_batch = None
        if job is not None:
            done = record.offload_batches_done if record.own_training_done else record.batches_done
            weights = self.trainer.per_key(job.flat_weights())
            losses, optimizer = job.losses[:done], job.optimizer_state
            if pending is not None:
                pending_batch = (pending.time, pending.sequence, job.losses[done])
        state.update(
            profiler=record.profiler.capture_state(),
            package=record.package,
            losses=losses or [],
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
        A snapshot without the offload keys holds no offload in progress.
        """
        self.rehydrate({key: state[key] for key in (*self.PERSISTENT_COUNTERS, "loader")})
        self._cancel_pending_work()
        self.round_state = None
        if state["round"] is None:
            return
        record = self.round_state = ClientRound(
            **{name: state[name] for name in _PLAIN_FIELDS if name in state}
        )
        record.profiler.restore_state(state["profiler"])
        record.package = state.get("package")
        if state["weights"] is not None:
            # The job goes on from the captured state; a pending batch was
            # drawn and run before the capture, its loss is known.
            pending = state["pending_batch"]
            record.job = self._new_job(
                state["weights"],
                state["optimizer"],
                offloaded=record.own_training_done,
                frozen=record.features_frozen and not record.own_training_done,
                losses=list(state["losses"]) + ([pending[2]] if pending is not None else []),
            )

    def schedule_restored_batch(self, time: float) -> None:
        """Re-schedule a captured pending batch completion at its absolute
        fire time (called by the checkpoint orchestrator in event order)."""
        self._pending_batch_event = self.env.schedule_at(time, self._on_batch_done)

    def _new_job(
        self, weights, optimizer_state: dict, offloaded: bool = False, **kwargs
    ) -> TrainingJob:
        """A job on this client's data from per-key ``weights`` or an
        incoming package; an ``offloaded`` model trains its features only."""
        if not isinstance(weights, FrozenModelPackage):
            weights = self.trainer.sections(weights)
        return TrainingJob(
            self.trainer,
            self.client_id,
            self.loader.x,
            self.loader.y,
            weights,
            self._offload_optimizer if offloaded else self.optimizer,
            optimizer_state,
            features_only=offloaded,
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
        record = self.round_state = ClientRound(
            round=message.round_number,
            total_batches=int(payload["total_batches"]),
            profile_batches=int(payload.get("profile_batches", 0)),
            report_profile=bool(payload.get("report_profile", False)),
        )
        if record.profile_batches == 0:
            record.profiler.stop()
        optimizer_state = self.optimizer.capture_state()
        record.job = self._new_job(payload["weights"], optimizer_state)
        if isinstance(self.optimizer, ProximalSGD):
            # The proximal term pulls towards the just-loaded global weights.
            optimizer_state["anchor"] = record.job.weights

        self.rounds_participated += 1
        self._train_batch()

    # ------------------------------------------------------------- the batch loop
    def _effective_total_batches(self) -> int:
        """Own updates to perform, after giving up capacity for offloaded work."""
        record = self.round_state
        return max(record.total_batches - record.give_up_batches, record.batches_done)

    def _train_batch(self) -> None:
        """Draw the current job's next batch and schedule its completion
        after the batch's simulated duration."""
        record = self.round_state
        shape = record.job.draw(self.loader)
        if record.own_training_done:
            # An offloaded model: its features train, nothing is profiled.
            trace = self.trainer.model.batch_trace(shape, features_frozen=False)
            duration = self.cost_model.feature_training_seconds(trace, self.resource, self.env.now)
        else:
            trace = self.trainer.model.batch_trace(shape, features_frozen=record.features_frozen)
            phase_durations = self.cost_model.phase_seconds(trace, self.resource, self.env.now)
            if record.features_frozen:
                duration = self.cost_model.frozen_batch_seconds(trace, self.resource, self.env.now)
            else:
                duration = self.cost_model.batch_seconds(trace, self.resource, self.env.now)
            if record.profiler.active:
                measured = {
                    phase: self.clock.measure(seconds) for phase, seconds in phase_durations.items()
                }
                duration += record.profiler.record_batch(measured)
        self._pending_batch_event = self.env.schedule(duration, self._on_batch_done)

    def _on_batch_done(self) -> None:
        self._pending_batch_event = None
        record = self.round_state
        if record.own_training_done:
            record.offload_batches_done += 1
            if record.offload_batches_done < record.package.batches_to_train:
                self._train_batch()
            else:
                self._finish_offloaded_training()
            return

        record.batches_done += 1
        self.total_batches_trained += 1
        profiler = record.profiler
        if profiler.active and profiler.batches_recorded >= record.profile_batches:
            profiler.stop()
            if record.report_profile and not record.profile_sent:
                self._send_profile_report()

        self._maybe_freeze_and_offload()

        if record.batches_done < self._effective_total_batches():
            self._train_batch()
        else:
            self._finish_own_training()

    def _send_profile_report(self) -> None:
        record = self.round_state
        profile = record.profiler.profile()
        report = ProfileReport(
            client_id=self.client_id,
            round_number=record.round,
            phase_seconds=dict(profile.phase_seconds),
            batches_measured=profile.batches_measured,
            batches_completed=record.batches_done,
            remaining_batches=max(record.total_batches - record.batches_done, 0),
        )
        record.profile_sent = True
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
        record = self.round_state
        payload = message.payload
        record.offload_target = int(payload["target"])
        record.offload_budget = int(payload["offload_batches"])
        # The instruction may arrive while the client is between batches (its
        # next completion event is already scheduled); freezing happens at the
        # next batch boundary via _maybe_freeze_and_offload.  If the client
        # already finished its own training, offloading no longer helps and
        # the instruction is ignored.
        if not record.own_training_done:
            self._maybe_freeze_and_offload()

    def _handle_offload_expect(self, message: Message) -> None:
        if self._stale(message):
            return
        record = self.round_state
        record.give_up_batches = int(message.payload["offload_batches"])
        record.offload_expected = True
        source = message.payload.get("source")
        record.offload_source = int(source) if source is not None else None

    def _maybe_freeze_and_offload(self) -> None:
        record = self.round_state
        if (
            record.offload_target is None
            or record.has_offloaded
            or record.own_training_done
            or record.offload_budget <= 0
        ):
            return
        remaining = record.total_batches - record.batches_done
        if remaining <= 0 or remaining > record.offload_budget:
            return
        # Freeze the feature layers and ship the model to the strong client:
        # the package is the job's state at the freeze, a flat vector once
        # somebody reads it.
        record.job.freeze_features()
        package = FrozenModelPackage(
            source_client_id=self.client_id,
            round_number=record.round,
            batches_to_train=remaining,
            job=record.job,
        )
        self.transport.send(
            self.client_id,
            record.offload_target,
            MessageKind.OFFLOADED_MODEL,
            payload=package,
            round_number=package.round_number,
            size_bytes=package.payload_bytes(),
        )
        record.features_frozen = True
        record.has_offloaded = True
        self.total_offloads_sent += 1

    def _handle_offloaded_model(self, message: Message) -> None:
        if self._stale(message):
            return
        record = self.round_state
        record.offload_expected = False
        record.offload_source = None
        record.package = message.payload
        if record.own_training_done and record.job is None:
            self._start_offloaded_training()

    # --------------------------------------------------------------- completion
    def _finish_own_training(self) -> None:
        record = self.round_state
        record.own_training_done = True
        result = TrainingResult(
            client_id=self.client_id,
            round_number=record.round,
            num_samples=self.num_samples,
            num_steps=record.batches_done,
            features_frozen=record.features_frozen,
            offloaded_to=record.offload_target if record.has_offloaded else None,
            finished_at=self.env.now,
            job=record.job,
        )
        record.job = None
        self.transport.send(
            self.client_id,
            FEDERATOR_ID,
            MessageKind.TRAIN_RESULT,
            payload=result,
            round_number=result.round_number,
            size_bytes=wire_bytes(self.trainer.model.num_parameters()),
        )
        if record.package is not None:
            self._start_offloaded_training()

    def _start_offloaded_training(self) -> None:
        # The package's features train on this client's data, its classifier
        # held fixed, with a fresh plain SGD.
        record = self.round_state
        record.offload_batches_done = 0
        record.job = self._new_job(
            record.package, self._offload_optimizer.capture_state(), offloaded=True
        )
        self._train_batch()

    def _finish_offloaded_training(self) -> None:
        record = self.round_state
        package = record.package
        result = OffloadResult(
            source_client_id=package.source_client_id,
            trainer_client_id=self.client_id,
            round_number=package.round_number,
            batches_trained=record.offload_batches_done,
            finished_at=self.env.now,
            job=record.job,
        )
        self.total_offloads_trained += 1
        record.package = record.job = None
        self.transport.send(
            self.client_id,
            FEDERATOR_ID,
            MessageKind.OFFLOAD_RESULT,
            payload=result,
            round_number=result.round_number,
            size_bytes=wire_bytes(self.trainer.model.num_feature_parameters()),
        )
