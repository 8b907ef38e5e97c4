"""The client pool: O(hydrated) memory for O(cohort) clients.

A fully hydrated :class:`repro.fl.client.FLClient` owns a model (the
dominant allocation: per-layer parameter/scratch buffers), an optimizer,
and a private copy of the client's data shard — but a round only ever
*trains* ``clients_per_round`` of the cohort.

:class:`VirtualClientPool` is the one way a client exists.  The cohort
lives as lightweight :class:`ClientDescriptor` records (a few counters plus
the dehydrated loader position), and a bounded LRU arena of reusable
:class:`_Slot` objects holds the expensive state.  A client is *hydrated* —
given a slot's recycled model, a freshly sliced data shard (derived on
demand from the lazy :class:`repro.data.partition.PartitionPlan`) and a new
optimizer — only when the federator selects it for a round; when the arena
is full, the least-recently-used idle client is dehydrated back into its
descriptor and its slot recycled.  The arena is sized from the per-round
participant count and capped at the cohort, so a full-participation run
(the paper's 8-24 client regime) hydrates each client once and never
evicts, while a 10 000-client cohort holds only its participants.

Hydration is bit-for-bit transparent (a tight arena and one that never
evicts produce identical runs):

* Model weights and optimizer state are overwritten by every
  ``TRAIN_REQUEST`` (clients load the global model at round start), so a
  recycled model never leaks state between clients — every slot's model is
  built from the same seeded initializer anyway.
* The batch loader is the only numeric state that persists across rounds;
  its exact position (generator state, shuffle order, cursor) round-trips
  through the descriptor, so a re-selected client resumes its batch
  sequence precisely where an always-hydrated client would.
* A client is only dehydrated while *quiescent*: no scheduled batch
  completions, no buffered offloaded model, and no messages in flight to or
  from it on the network.  Clients that keep training after being dropped
  from a round (the deadline baseline) therefore stay hydrated until their
  stale work drains.

Churn, dropout and selection logic never touches hydrated state: scenario
dynamics flip descriptor-level liveness on the cluster, and the federators
select over client *ids*, hydrating only the winners.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.data.datasets import Dataset
from repro.data.partition import PartitionPlan
from repro.fl.client import FLClient
from repro.fl.config import ExperimentConfig
from repro.simulation.cluster import SimulatedCluster

#: Extra slots beyond the per-round participant count: clients dropped from
#: a round keep training until their stale work drains, so two rounds'
#: worth of stragglers can briefly coexist with the current selection.
POOL_SLOT_HEADROOM = 4


@dataclass
class ClientDescriptor:
    """The always-resident representation of one cohort member.

    A descriptor is a few dozen bytes: identity, shard size, and — after the
    first eviction — the dehydrated persistent state (loader position plus
    lifetime counters).  Everything heavy lives in a pool slot while the
    client is hydrated.
    """

    client_id: int
    num_samples: int
    #: Dehydrated persistent state (see :meth:`FLClient.dehydrate`); None
    #: until the client is evicted for the first time.
    saved_state: Optional[dict] = field(default=None, repr=False)
    hydrations: int = 0
    #: Churn disconnects observed while the client was dehydrated; folded
    #: into ``times_disconnected`` at the next hydration so the lifetime
    #: counter matches what an always-hydrated client would report.
    pending_disconnects: int = 0


class _Slot:
    """One reusable arena entry: the recycled model buffers."""

    __slots__ = ("model", "client")

    def __init__(self, model) -> None:
        self.model = model
        self.client: Optional[FLClient] = None


class VirtualClientPool:
    """Bounded LRU arena hydrating :class:`FLClient` actors on demand.

    Parameters
    ----------
    cluster:
        The simulated cluster the clients live on (profiles and clocks for
        the whole cohort are cheap and pre-built).
    config:
        The experiment configuration (hydrated clients read batch size,
        optimizer knobs, etc. from it).
    dataset:
        The global dataset; shards are sliced per hydration.
    plan:
        Lazy partition plan deriving any client's shard on demand.
    model_factory:
        Zero-argument callable building one model with the experiment's
        seeded initializer — called once per *slot*, not per client.
    slots:
        Arena capacity; ``None`` derives it from the config's per-round
        participant count plus :data:`POOL_SLOT_HEADROOM`.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: ExperimentConfig,
        dataset: Dataset,
        plan: PartitionPlan,
        model_factory: Callable[[], object],
        slots: Optional[int] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.dataset = dataset
        self.plan = plan
        self.model_factory = model_factory
        if slots is None:
            participants = max(
                config.effective_clients_per_round, config.effective_async_concurrency
            )
            slots = participants + POOL_SLOT_HEADROOM
        self.slots = max(1, min(int(slots), config.num_clients))
        self.descriptors: Dict[int, ClientDescriptor] = {
            client_id: ClientDescriptor(client_id, plan.size_of(client_id))
            for client_id in range(config.num_clients)
        }
        #: Hydrated clients in LRU order (oldest first).
        self._active: "OrderedDict[int, _Slot]" = OrderedDict()
        #: Recycled slots awaiting a client.
        self._free: List[_Slot] = []
        #: Clients the federator is currently working with; never evicted.
        self._pinned: frozenset = frozenset()

        # Diagnostics (reports, benchmarks, tests).
        self.hydrations = 0
        self.evictions = 0
        self.slots_built = 0
        self.peak_hydrated = 0

        # Churn can disconnect a client that is not hydrated (no actor to
        # notify): record it on the descriptor so the lifetime counter
        # survives.
        cluster.add_membership_listener(self._on_membership_change)

    def _on_membership_change(self, client_id: int, online: bool) -> None:
        if not online and client_id not in self._active:
            self.descriptors[client_id].pending_disconnects += 1

    # ------------------------------------------------------------- inspection
    @property
    def num_clients(self) -> int:
        return self.config.num_clients

    def hydrated_ids(self) -> List[int]:
        """Ids of the currently hydrated clients, LRU-oldest first."""
        return list(self._active)

    def has_data(self, client_id: int) -> bool:
        """Whether a client's shard is non-empty (descriptor lookup, O(1)).

        Extreme non-IID splits of huge cohorts can leave clients with zero
        samples; federator selection skips them, so they are never
        hydrated.
        """
        return self.descriptors[client_id].num_samples > 0

    def client(self, client_id: int) -> Optional[FLClient]:
        """The hydrated actor for a client, or ``None`` if dehydrated."""
        slot = self._active.get(client_id)
        return slot.client if slot is not None else None

    def hydrated_clients(self) -> List[FLClient]:
        """The currently hydrated actors (for handle/test introspection)."""
        return [slot.client for slot in self._active.values() if slot.client is not None]

    def describe(self) -> Dict[str, int]:
        """Pool diagnostics for logs and benchmarks."""
        return {
            "cohort": self.num_clients,
            "slots": self.slots,
            "hydrated": len(self._active),
            "peak_hydrated": self.peak_hydrated,
            "hydrations": self.hydrations,
            "evictions": self.evictions,
            "slots_built": self.slots_built,
        }

    def close(self) -> None:
        """Drop the cohort, the arena, the dataset and the plan; idempotent.

        The diagnostics counters stay, so :meth:`describe` still answers.
        """
        self.descriptors.clear()
        self._active.clear()
        self._free.clear()
        self.dataset = self.plan = self.model_factory = None

    # -------------------------------------------------------------- hydration
    def ensure_active(self, client_ids: Iterable[int]) -> None:
        """Hydrate (and pin) the clients a federator is about to engage.

        The pinned set is *replaced*: pinning a new round's selection
        releases the previous round's clients for eviction.  Called by the
        synchronous round engine with the round's selection, and by the
        async dispatch loop with its in-flight set.
        """
        ids = list(client_ids)
        self._pinned = frozenset(ids)
        for client_id in ids:
            self.hydrate(client_id)

    def hydrate(self, client_id: int) -> FLClient:
        """Return the client's actor, materialising it if dehydrated."""
        slot = self._active.get(client_id)
        if slot is not None:
            self._active.move_to_end(client_id)
            return slot.client  # type: ignore[return-value]

        descriptor = self.descriptors[client_id]
        slot = self._acquire_slot()
        partition = self.plan.partition(client_id)
        client = FLClient(
            client_id=client_id,
            cluster=self.cluster,
            model=slot.model,
            x_train=self.dataset.x_train[partition.indices],
            y_train=self.dataset.y_train[partition.indices],
            config=self.config,
            class_counts=partition.class_counts,
        )
        if descriptor.saved_state is not None:
            client.rehydrate(descriptor.saved_state)
            descriptor.saved_state = None
        if descriptor.pending_disconnects:
            client.times_disconnected += descriptor.pending_disconnects
            descriptor.pending_disconnects = 0
        slot.client = client
        self._active[client_id] = slot
        descriptor.hydrations += 1
        self.hydrations += 1
        self.peak_hydrated = max(self.peak_hydrated, len(self._active))
        return client

    def _acquire_slot(self) -> _Slot:
        if self._free:
            return self._free.pop()
        if len(self._active) < self.slots:
            return self._build_slot()
        if self._evict_lru():
            return self._free.pop()
        # Every hydrated client is pinned or mid-flight: grow past the
        # nominal bound rather than deadlock (peak_hydrated records it).
        return self._build_slot()

    def _build_slot(self) -> _Slot:
        self.slots_built += 1
        return _Slot(self.model_factory())

    # --------------------------------------------------------------- eviction
    def _evictable(self, client_id: int, client: FLClient) -> bool:
        if client_id in self._pinned:
            return False
        if not client.is_quiescent(resolve_peer=self.client):
            # Still training (e.g. finishing after being dropped from a
            # round), holding an offloaded model, or promised one that can
            # still arrive (the peer resolver lets the client tell a live
            # offload expectation from one voided by churn/eviction).
            return False
        # A message in flight to or from the client (a late result, an
        # offloaded model) must reach its original actor, and an un-ACKed
        # reliable send touching it may still retransmit into its handler.
        return (
            self.cluster.network.in_flight_count(client_id) == 0
            and self.cluster.transport.pending_involving(client_id) == 0
        )

    def _evict_lru(self) -> bool:
        for client_id in list(self._active):  # LRU order: oldest first
            slot = self._active[client_id]
            if slot.client is not None and self._evictable(client_id, slot.client):
                self.dehydrate(client_id)
                return True
        return False

    # ------------------------------------------------------ checkpoint seams
    def capture_state(self) -> Optional[dict]:
        """Serializable snapshot of the whole pool, or ``None`` to refuse.

        Hydrated clients are captured through
        :meth:`FLClient.capture_execution_state` (full mid-run state);
        dehydrated ones contribute their descriptor record.  The hydrated
        set is recorded in LRU order so a resumed pool makes identical
        eviction choices.  Any hydrated client that refuses capture (e.g.
        mid-offload-training) makes the whole pool refuse.
        """
        hydrated = []
        for client_id, slot in self._active.items():
            if slot.client is None:  # pragma: no cover - defensive
                return None
            state = slot.client.capture_execution_state()
            if state is None:
                return None
            hydrated.append((client_id, state))
        descriptors = {
            d.client_id: {
                "saved_state": d.saved_state,
                "hydrations": d.hydrations,
                "pending_disconnects": d.pending_disconnects,
            }
            for d in self.descriptors.values()
        }
        return {
            "hydrated": hydrated,
            "descriptors": descriptors,
            "pinned": sorted(self._pinned),
            "hydrations": self.hydrations,
            "evictions": self.evictions,
            "slots_built": self.slots_built,
            "peak_hydrated": self.peak_hydrated,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`capture_state` onto a fresh pool.

        Must run before in-flight network messages are restored: hydration
        re-registers each client's network handler.  Diagnostics counters
        are overwritten last so restore-time hydrations do not inflate
        them past the captured values.
        """
        if self._active:  # pragma: no cover - defensive
            raise RuntimeError("can only restore into a freshly built pool")
        for client_id, entry in state["descriptors"].items():
            descriptor = self.descriptors[client_id]
            descriptor.saved_state = entry["saved_state"]
            descriptor.pending_disconnects = entry["pending_disconnects"]
        for client_id, client_state in state["hydrated"]:
            client = self.hydrate(client_id)
            client.restore_execution_state(client_state)
        self._pinned = frozenset(state["pinned"])
        for client_id, entry in state["descriptors"].items():
            self.descriptors[client_id].hydrations = entry["hydrations"]
        self.hydrations = state["hydrations"]
        self.evictions = state["evictions"]
        self.slots_built = state["slots_built"]
        self.peak_hydrated = state["peak_hydrated"]

    def dehydrate(self, client_id: int) -> None:
        """Evict a client: persist its loader position, free its shard.

        The client's network handler and cluster actor registration are
        removed, so nothing can reach the retired instance; the slot (with
        its model buffers) joins the free list for recycling.
        """
        slot = self._active.pop(client_id)
        client = slot.client
        if client is not None:
            self.descriptors[client_id].saved_state = client.dehydrate()
            self.cluster.transport.unregister(client_id)
            self.cluster.detach_actor(client_id)
            slot.client = None
        self.evictions += 1
        self._free.append(slot)
