"""The client pool: O(hydrated) memory for O(cohort) clients.

A hydrated :class:`repro.fl.client.FLClient` owns a private copy of the
client's data shard and its round state (clients own no model: their
rounds are jobs, see :mod:`repro.fl.training`) — but a round only ever
*trains* ``clients_per_round`` of the cohort.

:class:`VirtualClientPool` is the one way a client exists.  The cohort
lives as lightweight :class:`ClientDescriptor` records (a few counters plus
the dehydrated loader position), and a bounded LRU arena holds the
hydrated clients.  A client is *hydrated* — given a freshly sliced data
shard (derived on demand from the lazy
:class:`repro.data.partition.PartitionPlan`) — only when the federator
selects it for a round; when the arena is full, the least-recently-used
idle client is dehydrated back into its descriptor.  The arena is sized
from the per-round participant count and capped at the cohort, so a
full-participation run (the paper's 8-24 client regime) hydrates each
client once and never evicts, while a 10 000-client cohort holds only its
participants.

Hydration is bit-for-bit transparent (a tight arena and one that never
evicts produce identical runs):

* Every ``TRAIN_REQUEST`` starts a new job from the request's weights, so
  nothing numeric of a past round lives in the client.
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
from typing import Dict, Iterable, List, Optional

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
    lifetime counters).  Everything heavy — the data shard — lives in the
    hydrated client.
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
        slots: Optional[int] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.dataset = dataset
        self.plan = plan
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
        self._active: "OrderedDict[int, FLClient]" = OrderedDict()
        #: Clients the federator is currently working with; never evicted.
        self._pinned: frozenset = frozenset()

        # Diagnostics (reports, benchmarks, tests).
        self.hydrations = 0
        self.evictions = 0
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
        return self._active.get(client_id)

    def hydrated_clients(self) -> List[FLClient]:
        """The currently hydrated actors (for handle/test introspection)."""
        return list(self._active.values())

    def describe(self) -> Dict[str, int]:
        """Pool diagnostics for logs and benchmarks."""
        return {
            "cohort": self.num_clients,
            "slots": self.slots,
            "hydrated": len(self._active),
            "peak_hydrated": self.peak_hydrated,
            "hydrations": self.hydrations,
            "evictions": self.evictions,
        }

    def close(self) -> None:
        """Drop the cohort, the arena, the dataset and the plan; idempotent.

        The diagnostics counters stay, so :meth:`describe` still answers.
        """
        self.descriptors.clear()
        self._active.clear()
        self.dataset = self.plan = None

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
        client = self._active.get(client_id)
        if client is not None:
            self._active.move_to_end(client_id)
            return client

        # A full arena evicts its least recently used idle client; with
        # every hydrated client pinned or mid-flight it grows past the
        # nominal bound rather than deadlock (peak_hydrated records it).
        if len(self._active) >= self.slots:
            self._evict_lru()
        descriptor = self.descriptors[client_id]
        partition = self.plan.partition(client_id)
        client = FLClient(
            client_id=client_id,
            cluster=self.cluster,
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
        self._active[client_id] = client
        descriptor.hydrations += 1
        self.hydrations += 1
        self.peak_hydrated = max(self.peak_hydrated, len(self._active))
        return client

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

    def _evict_lru(self) -> None:
        for client_id, client in self._active.items():  # LRU order: oldest first
            if self._evictable(client_id, client):
                self.dehydrate(client_id)
                return

    # ------------------------------------------------------ checkpoint seams
    def capture_state(self) -> dict:
        """Serializable snapshot of the whole pool.

        Hydrated clients are captured through
        :meth:`FLClient.capture_execution_state` (full mid-run state, in
        whatever state the client is); dehydrated ones contribute their
        descriptor record.  The hydrated set is recorded in LRU order so a
        resumed pool makes identical eviction choices.
        """
        hydrated = [
            (client_id, client.capture_execution_state())
            for client_id, client in self._active.items()
        ]
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
        self.peak_hydrated = state["peak_hydrated"]

    def dehydrate(self, client_id: int) -> None:
        """Evict a client: persist its loader position, free its shard.

        The client's network handler and cluster actor registration are
        removed, so nothing can reach the retired instance.
        """
        client = self._active.pop(client_id)
        self.descriptors[client_id].saved_state = client.dehydrate()
        self.cluster.transport.unregister(client_id)
        self.cluster.detach_actor(client_id)
        self.evictions += 1
