"""Cluster container wiring nodes, resources and the network together.

A :class:`SimulatedCluster` is the reproduction's stand-in for the paper's
Kubernetes deployment: it owns the simulation environment, the network and
the per-node resource profiles, and provides node registration so that the
federated-learning runtime (:mod:`repro.fl`) can be built on top of it
without knowing about simulation internals.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.simulation.clock import LocalClock
from repro.simulation.cost import ComputeCostModel
from repro.simulation.events import SimulationEnvironment
from repro.simulation.network import LinkSpec, Network
from repro.simulation.resources import ResourceProfile


FEDERATOR_ID = "federator"


@dataclass
class Node:
    """A registered cluster node (client or federator)."""

    node_id: Any
    profile: Optional[ResourceProfile]
    clock: LocalClock
    metadata: Dict[str, Any] = field(default_factory=dict)


class SimulatedCluster:
    """The simulated deployment hosting a federated-learning experiment.

    Parameters
    ----------
    client_profiles:
        One :class:`ResourceProfile` per client; client ids are the indices
        into this list.
    default_link:
        Network characteristics used for every pair of nodes unless
        overridden with :meth:`network.set_link`.
    cost_model:
        FLOPs-to-seconds translation shared by all clients.
    seed:
        Seed for clock skews and any other cluster-level randomness.
    """

    def __init__(
        self,
        client_profiles: List[ResourceProfile],
        default_link: Optional[LinkSpec] = None,
        cost_model: Optional[ComputeCostModel] = None,
        seed: int = 0,
    ) -> None:
        if not client_profiles:
            raise ValueError("a cluster needs at least one client profile")
        self.env = SimulationEnvironment()
        self.network = Network(self.env, default_link=default_link)
        # All application traffic routes through the transport; the default
        # pass-through is bitwise identical to registering with the network
        # directly.  The runtime swaps in a ReliableTransport (and installs
        # a fault profile on the network) before any node registers.
        from repro.fl.transport import DirectTransport

        self.transport: Any = DirectTransport(self.network)
        self.cost_model = cost_model if cost_model is not None else ComputeCostModel()
        self._rng = np.random.default_rng(seed)
        self.nodes: Dict[Any, Node] = {}
        #: Client actors (``repro.fl.client.FLClient``) by node id; attached
        #: so that churn events can abort a disconnected client's local work.
        self._actors: Dict[Any, Any] = {}
        #: The job plane every client's training runs on
        #: (:class:`repro.fl.training.LocalTrainer`), installed by the runtime.
        self.trainer: Optional[Any] = None
        #: The trainer again when it is the
        #: ``repro.simulation.shard.ShardedClientExecutor`` when the run
        #: trains on shard workers; ``None``: every job runs in this process.
        self.shard_executor: Optional[Any] = None
        #: Callbacks fired on every membership change: ``cb(client_id, online)``.
        self._membership_listeners: List[Callable[[Any, bool], None]] = []

        # Federator node: no resource profile (it is assumed correct and
        # never the computational bottleneck in the paper).
        self.nodes[FEDERATOR_ID] = Node(
            node_id=FEDERATOR_ID,
            profile=None,
            clock=LocalClock(self.env),
        )
        for client_id, profile in enumerate(client_profiles):
            self.nodes[client_id] = Node(
                node_id=client_id,
                profile=profile,
                clock=LocalClock.random(self.env, rng=self._rng),
            )

    @property
    def num_clients(self) -> int:
        return len(self.nodes) - 1

    @property
    def client_ids(self) -> List[int]:
        return [node_id for node_id in self.nodes if node_id != FEDERATOR_ID]

    def profile(self, client_id: int) -> ResourceProfile:
        """Resource profile of a client."""
        node = self.nodes.get(client_id)
        if node is None or node.profile is None:
            raise KeyError(f"no client with id {client_id!r}")
        return node.profile

    # ----------------------------------------------------- dynamic membership
    def attach_actor(self, node_id: Any, actor: Any) -> None:
        """Attach the actor object living on a node (used on churn events).

        The actor may implement ``on_disconnect()`` / ``on_reconnect()``;
        both are optional.
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id!r}")
        self._actors[node_id] = actor

    def detach_actor(self, node_id: Any) -> None:
        """Forget the actor living on a node (the pool dehydrated it)."""
        self._actors.pop(node_id, None)

    def actor(self, node_id: Any) -> Optional[Any]:
        """The actor attached to a node, or ``None`` (e.g. dehydrated)."""
        return self._actors.get(node_id)

    def add_membership_listener(self, callback: Callable[[Any, bool], None]) -> None:
        """Subscribe to online/offline transitions: ``callback(client_id, online)``."""
        self._membership_listeners.append(callback)

    def is_online(self, node_id: Any) -> bool:
        """Whether a node is currently connected."""
        return self.network.is_online(node_id)

    @property
    def online_client_ids(self) -> List[int]:
        """Ids of the clients currently online, in ascending order."""
        return [cid for cid in self.client_ids if self.network.is_online(cid)]

    @property
    def online_client_count(self) -> int:
        """Number of clients currently online.

        O(1): only clients ever go offline (the federator node is assumed
        correct), so the network's offline set counts clients exactly.
        Churn events over large cohorts use this instead of materialising
        :attr:`online_client_ids`.
        """
        return self.num_clients - self.network.offline_count()

    def set_client_offline(self, client_id: int) -> None:
        """Disconnect a client: fail its in-flight messages, abort its local
        work, and notify membership listeners (the federator).

        The order matters and is part of the contract: the network drops
        in-flight messages first (nothing sent before the disconnect can be
        delivered afterwards), then the client actor cancels its pending
        compute, and only then do listeners observe the dropout.
        """
        self.profile(client_id)  # raises KeyError for unknown/federator ids
        if not self.network.is_online(client_id):
            return
        self.network.set_node_online(client_id, False)
        actor = self._actors.get(client_id)
        if actor is not None and hasattr(actor, "on_disconnect"):
            actor.on_disconnect()
        for callback in self._membership_listeners:
            callback(client_id, False)

    def set_client_online(self, client_id: int) -> None:
        """Reconnect a client; it idles until the federator sends new work."""
        self.profile(client_id)
        if self.network.is_online(client_id):
            return
        self.network.set_node_online(client_id, True)
        actor = self._actors.get(client_id)
        if actor is not None and hasattr(actor, "on_reconnect"):
            actor.on_reconnect()
        for callback in self._membership_listeners:
            callback(client_id, True)

    # -------------------------------------------------- time-varying resources
    def scale_client_speed(self, client_id: int, factor: float) -> float:
        """Multiply a client's ``speed_fraction`` in place (slowdown bursts).

        The profile object is shared with the client actor, so the new speed
        takes effect from the client's next training batch.  Returns the new
        speed fraction.
        """
        if factor <= 0:
            raise ValueError("speed factor must be positive")
        profile = self.profile(client_id)
        profile.speed_fraction *= factor
        return profile.speed_fraction

    def set_link_factor(self, client_id: int, factor: float) -> None:
        """Rescale the client<->federator links to ``factor`` x the default.

        A factor of exactly 1.0 removes the override (reverting the pair to
        the default link), so traces always return to the baseline.
        """
        base = self.network.default_link()
        if factor == 1.0:
            self.network.clear_link(client_id, FEDERATOR_ID)
            self.network.clear_link(FEDERATOR_ID, client_id)
            return
        spec = dataclasses.replace(
            base, bandwidth_bytes_per_s=base.bandwidth_bytes_per_s * factor
        )
        self.network.set_link(client_id, FEDERATOR_ID, spec)
        self.network.set_link(FEDERATOR_ID, client_id, spec)

    # ------------------------------------------------- transport / faults
    def install_transport(self, transport: Any) -> None:
        """Swap the message transport; must happen before nodes register."""
        self.transport = transport

    def set_link_loss(self, client_id: int, rate: float) -> None:
        """Raise the drop rate of a client's federator links (loss burst)."""
        profile = self.network.fault_profile
        if profile is None:
            raise ValueError("loss bursts require a fault profile on the network")
        profile.set_link_drop(client_id, FEDERATOR_ID, rate)
        profile.set_link_drop(FEDERATOR_ID, client_id, rate)

    def clear_link_loss(self, client_id: int) -> None:
        """Revert a client's federator links to the base drop rate."""
        profile = self.network.fault_profile
        if profile is None:
            return
        profile.clear_link_drop(client_id, FEDERATOR_ID)
        profile.clear_link_drop(FEDERATOR_ID, client_id)

    def network_totals(self) -> Dict[str, float]:
        """Whole-run traffic, fault and transport counters (for summaries)."""
        totals = dict(self.network.counters())
        if self.network.fault_profile is not None:
            totals.update(self.network.fault_profile.counters())
        totals.update(self.transport.counters())
        return totals

    # ------------------------------------------------------ checkpoint seams
    def capture_state(self) -> Dict[str, Any]:
        """Serializable snapshot of the cluster's mutable state.

        Scenario dynamics mutate three things outside the actors: the
        offline set, the per-client ``speed_fraction`` (slowdown bursts
        multiply it in place) and the per-pair link overrides (bandwidth
        traces).  Clock skews are construction-time constants but are
        captured anyway so a resumed run cannot drift from reconstruction.
        """
        state = {
            "offline": self.network.capture_offline(),
            "speeds": {
                cid: self.profile(cid).speed_fraction for cid in self.client_ids
            },
            "links": self.network.capture_link_overrides(),
            "clocks": {cid: self.nodes[cid].clock.state() for cid in self.client_ids},
            "net_counters": self.network.capture_counters(),
            "faults": (
                self.network.fault_profile.capture_state()
                if self.network.fault_profile is not None
                else None
            ),
        }
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`capture_state`.

        Membership is restored silently (no disconnect/reconnect side
        effects): actors and federator state are restored separately by the
        checkpoint orchestrator.
        """
        self.network.restore_offline(state["offline"])
        for cid, speed in state["speeds"].items():
            self.profile(cid).speed_fraction = speed
        self.network.restore_link_overrides(state["links"])
        for cid, clock_state in state["clocks"].items():
            self.nodes[cid].clock.set_state(clock_state)
        self.network.restore_counters(state["net_counters"])
        if state["faults"] is not None:
            if self.network.fault_profile is None:
                raise ValueError("checkpoint has fault state but no profile installed")
            self.network.fault_profile.restore_state(state["faults"])

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation until the event queue drains; returns the end time."""
        self.env.run(until=until, max_events=max_events)
        return self.env.now

    def close(self) -> None:
        """Drop what points back at the experiment; idempotent.

        Actors, membership listeners, queued events, network handlers and
        transport registrations all hold clients, the pool or the federator,
        which hold the cluster: emptied here, the cluster is a leaf.  The
        nodes, profiles and counters stay readable.
        """
        if self.shard_executor is not None:
            self.shard_executor.close()
        self._actors.clear()
        self._membership_listeners.clear()
        self.env.close()
        self.network.close()
        self.transport.close()

    def describe(self) -> Dict[str, Any]:
        """Summary of the cluster configuration, useful in experiment logs."""
        speeds = [self.profile(cid).speed_fraction for cid in self.client_ids]
        return {
            "num_clients": self.num_clients,
            "speed_min": float(np.min(speeds)),
            "speed_max": float(np.max(speeds)),
            "speed_mean": float(np.mean(speeds)),
            "speed_std": float(np.std(speeds)),
        }
