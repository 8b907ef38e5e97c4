"""Asynchronous federation: FedAsync (Xie et al., 2019).

The synchronous federators bound every round by their slowest participant.
Asynchronous federation removes the barrier entirely: the server hands each
client its own training task and folds updates into the global model *as
they arrive*, weighted down by their **staleness** (how many server updates
happened since the client's model snapshot was taken).  Fast clients cycle
many times while a straggler computes once, so heterogeneity costs
throughput instead of latency — the other classic answer to stragglers next
to Aergia's offloading.

:class:`AsyncFederatorBase` implements the shared machinery on top of the
same message/network substrate as the synchronous engine:

* a *dispatch loop* that keeps up to ``config.effective_async_concurrency``
  clients training concurrently, re-dispatching each client as soon as its
  update arrives (and re-engaging clients when they rejoin after churn);
* *staleness tracking* — every dispatch records the server's model version;
* *virtual rounds* for reporting: one :class:`RoundRecord` is emitted every
  ``updates_per_record`` applied updates so results stay comparable with
  the synchronous algorithms (same number of records, same evaluation
  cadence in terms of client work);
* a fixed *update budget* (``rounds x updates_per_record``) so every run
  terminates after the same amount of client work as its synchronous
  counterpart.

:class:`FedAsyncFederator` applies every update immediately::

    w_global <- (1 - a_s) * w_global + a_s * w_client,
    a_s = fedasync_alpha * (1 + staleness) ** -fedasync_staleness_power

:mod:`repro.baselines.fedbuff` builds buffered aggregation (FedBuff) on the
same base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fl.aggregation import average_metric, flatten_weights, unflatten_weights, weight_spec
from repro.fl.config import ExperimentConfig
from repro.fl.federator import BaseFederator
from repro.fl.messages import MessageKind, TrainingResult
from repro.fl.metrics import RoundRecord
from repro.nn.model import SplitCNN
from repro.registry import register_federator
from repro.simulation.cluster import FEDERATOR_ID, SimulatedCluster
from repro.simulation.network import Message, weights_wire_bytes


@dataclass
class DispatchRecord:
    """Book-keeping for one training task handed to a client."""

    task_id: int
    model_version: int
    #: Flat snapshot of the global model at dispatch time (only kept when
    #: the algorithm aggregates deltas, i.e. FedBuff).
    snapshot: Optional[np.ndarray] = None


class AsyncFederatorBase(BaseFederator):
    """Event-driven asynchronous federator base.

    Subclasses implement :meth:`apply_update` (and may override
    :meth:`needs_snapshot` when they aggregate deltas against the
    dispatch-time model).
    """

    algorithm_name = "async-base"

    #: The dispatch loop is self-sustaining: the checkpoint's restored
    #: in-flight tasks re-trigger dispatching, no bootstrap needed.
    checkpoint_bootstraps_round = False

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: ExperimentConfig,
        global_model: SplitCNN,
        x_test: np.ndarray,
        y_test: np.ndarray,
        client_ids: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(cluster, config, global_model, x_test, y_test, client_ids=client_ids)
        self._spec = weight_spec(self.global_weights)
        self.global_flat = flatten_weights(self.global_weights, self._spec)
        #: Server model version; bumped on every aggregation.
        self.model_version = 0
        self._task_counter = 0
        self._in_flight: Dict[int, DispatchRecord] = {}
        self._updates_applied = 0
        #: Applied updates per emitted RoundRecord (evaluation cadence).
        self.updates_per_record = max(1, self.updates_per_virtual_round())
        self._updates_budget = config.rounds * self.updates_per_record
        self.concurrency = min(
            config.effective_async_concurrency, len(self.client_ids)
        )
        # Per-window accumulators for the next RoundRecord.
        self._window_start = 0.0
        self._window_contributors: List[int] = []
        self._window_losses: List[float] = []
        self._window_sizes: List[float] = []
        self._window_dropped: List[int] = []
        #: Staleness of every applied update (diagnostics / tests).
        self.staleness_history: List[int] = []

    # ----------------------------------------------------------------- policy
    def updates_per_virtual_round(self) -> int:
        """Applied updates per reported round (default: the per-round client
        count, matching the synchronous algorithms' work per round)."""
        return self.config.effective_clients_per_round

    def needs_snapshot(self) -> bool:
        """Whether dispatches must snapshot the global model (delta-based
        aggregation, e.g. FedBuff)."""
        return False

    def apply_update(self, result: TrainingResult, dispatch: DispatchRecord) -> None:
        """Fold one client update into the server state."""
        raise NotImplementedError

    def staleness_of(self, dispatch: DispatchRecord) -> int:
        """Server updates since the dispatch's model snapshot was taken."""
        return self.model_version - dispatch.model_version

    # -------------------------------------------------------------- lifecycle
    @property
    def finished(self) -> bool:
        return self._updates_applied >= self._updates_budget

    def _start_round(self) -> None:
        """Bootstrap the dispatch loop (called once via ``start()``)."""
        self._window_start = self.env.now
        pool = self.selectable_clients()
        if not pool:
            self._round_pending = True
            return
        self._round_pending = False
        # Deterministic initial spread over the online clients.
        order = [int(cid) for cid in self._rng.permutation(pool)]
        for client_id in order[: self.concurrency]:
            self._dispatch(client_id)

    def _dispatch(self, client_id: int) -> None:
        """Hand one training task (the current global model) to a client."""
        if (
            self.finished
            or client_id in self._in_flight
            or not self.cluster.is_online(client_id)
            or not self.client_has_data(client_id)
            or len(self._in_flight) >= self.concurrency
        ):
            return
        # Pin the in-flight set plus the new dispatchee: the async loop has
        # no round boundary, so the pinned set tracks whoever is currently
        # training.
        self.pool.ensure_active([*self._in_flight, client_id])
        self._task_counter += 1
        task_id = self._task_counter
        self._in_flight[client_id] = DispatchRecord(
            task_id=task_id,
            model_version=self.model_version,
            snapshot=self.global_flat.copy() if self.needs_snapshot() else None,
        )
        payload = {
            "weights": unflatten_weights(self.global_flat, self._spec),
            "total_batches": self.total_batches_for(client_id, task_id),
            "profile_batches": 0,
            "report_profile": False,
        }
        self.transport.send(
            FEDERATOR_ID,
            client_id,
            MessageKind.TRAIN_REQUEST,
            payload=payload,
            round_number=task_id,
            size_bytes=weights_wire_bytes(self.global_flat),
        )

    # --------------------------------------------------------------- messaging
    def handle_message(self, message: Message) -> None:
        if message.kind != MessageKind.TRAIN_RESULT:
            return  # async federation uses no profiling/offloading messages
        result: TrainingResult = message.payload
        dispatch = self._in_flight.get(result.client_id)
        if dispatch is None or dispatch.task_id != message.round_number:
            return  # stale task (client was re-dispatched after a blip)
        del self._in_flight[result.client_id]
        if self.finished:
            return  # budget exhausted while this update was in flight
        self.apply_update(result, dispatch)
        self._note_update(result)
        self._dispatch(result.client_id)
        if self.checkpoint_hook is not None:
            # After the re-dispatch: the captured in-flight set then includes
            # the task this update just triggered, so the snapshot is a
            # complete cut of the dispatch loop.
            self.checkpoint_hook()

    def _note_update(self, result: TrainingResult) -> None:
        self._updates_applied += 1
        self._window_contributors.append(result.client_id)
        self._window_losses.append(result.train_loss)
        self._window_sizes.append(result.num_samples)
        if self._updates_applied % self.updates_per_record == 0:
            self._emit_record()

    # ----------------------------------------------------- dropouts & rejoins
    def on_client_dropout(self, client_id: int) -> None:
        # The client's in-flight task died with it (the network already
        # failed any message carrying its result).
        if self._in_flight.pop(client_id, None) is not None:
            self._window_dropped.append(client_id)
            # The dropout freed concurrency capacity: re-engage idle
            # online clients so throughput survives churn.
            for idle_id in self.selectable_clients():
                if self.finished or len(self._in_flight) >= self.concurrency:
                    break
                self._dispatch(idle_id)

    def on_client_rejoin(self, client_id: int) -> None:
        if self._round_pending:
            self._round_pending = False
            self._window_start = self.env.now
        self._dispatch(client_id)

    def _on_transport_expiry(self, entry: dict) -> None:
        """A task message exhausted its retransmissions: abandon the task.

        Mirrors :meth:`on_client_dropout` — the task died in transit rather
        than with its client — and re-offers the freed concurrency slot to
        every idle online client (including the affected one, which simply
        receives a fresh task with a new id).
        """
        if entry["kind"] not in (MessageKind.TRAIN_REQUEST, MessageKind.TRAIN_RESULT):
            return
        client_id = (
            entry["recipient"] if entry["sender"] == FEDERATOR_ID else entry["sender"]
        )
        dispatch = self._in_flight.get(client_id)
        if dispatch is None or dispatch.task_id != entry["round_number"]:
            return  # the task was already superseded or completed
        del self._in_flight[client_id]
        self._window_dropped.append(client_id)
        for idle_id in self.selectable_clients():
            if self.finished or len(self._in_flight) >= self.concurrency:
                break
            self._dispatch(idle_id)

    # ------------------------------------------------------ checkpoint seams
    def _capture_extra_state(self) -> dict:
        return {
            "global_flat": self.global_flat.copy(),
            "model_version": self.model_version,
            "task_counter": self._task_counter,
            "in_flight": {
                client_id: (
                    record.task_id,
                    record.model_version,
                    None if record.snapshot is None else record.snapshot.copy(),
                )
                for client_id, record in self._in_flight.items()
            },
            "updates_applied": self._updates_applied,
            "window_start": self._window_start,
            "window_contributors": list(self._window_contributors),
            "window_losses": list(self._window_losses),
            "window_sizes": list(self._window_sizes),
            "window_dropped": list(self._window_dropped),
            "staleness_history": list(self.staleness_history),
        }

    def _restore_extra_state(self, extra: dict) -> None:
        self.global_flat = np.array(extra["global_flat"], copy=True)
        self.model_version = int(extra["model_version"])
        self._task_counter = int(extra["task_counter"])
        self._in_flight = {
            client_id: DispatchRecord(
                task_id=task_id,
                model_version=model_version,
                snapshot=None if snapshot is None else np.array(snapshot, copy=True),
            )
            for client_id, (task_id, model_version, snapshot) in extra["in_flight"].items()
        }
        self._updates_applied = int(extra["updates_applied"])
        self._window_start = extra["window_start"]
        self._window_contributors = list(extra["window_contributors"])
        self._window_losses = list(extra["window_losses"])
        self._window_sizes = list(extra["window_sizes"])
        self._window_dropped = list(extra["window_dropped"])
        self.staleness_history = list(extra["staleness_history"])

    # ------------------------------------------------------------- reporting
    def _emit_record(self) -> None:
        self.global_weights = unflatten_weights(self.global_flat, self._spec)
        self.global_model.set_weights(self.global_weights)
        test_loss, test_accuracy = self.global_model.evaluate(self.x_test, self.y_test)
        contributors = sorted(set(self._window_contributors))
        record = RoundRecord(
            round_number=self._rounds_completed + 1,
            start_time=self._window_start,
            end_time=self.env.now,
            selected_clients=contributors,
            completed_clients=contributors,
            dropped_clients=sorted(set(self._window_dropped)),
            num_offloads=0,
            test_accuracy=test_accuracy,
            test_loss=test_loss,
            mean_train_loss=average_metric(self._window_losses, self._window_sizes),
        )
        self._record_network(record)
        self.result.add_round(record)
        self.result.setup_time = self.setup_time
        self._rounds_completed += 1
        self._window_start = self.env.now
        self._window_contributors = []
        self._window_losses = []
        self._window_sizes = []
        self._window_dropped = []


@register_federator("fedasync")
class FedAsyncFederator(AsyncFederatorBase):
    """FedAsync: apply every update on arrival, discounted by staleness."""

    algorithm_name = "fedasync"

    def mixing_weight(self, staleness: int) -> float:
        """Polynomial staleness discount of Xie et al. (2019)."""
        alpha = self.config.fedasync_alpha
        power = self.config.fedasync_staleness_power
        return float(alpha * (1.0 + staleness) ** -power)

    def apply_update(self, result: TrainingResult, dispatch: DispatchRecord) -> None:
        staleness = self.staleness_of(dispatch)
        self.staleness_history.append(staleness)
        weight = self.mixing_weight(staleness)
        update = result.flat_weights
        if update is None:  # pragma: no cover - clients always attach flats
            update = flatten_weights(result.weights, self._spec)
        self.global_flat = (1.0 - weight) * self.global_flat + weight * update
        self.model_version += 1
