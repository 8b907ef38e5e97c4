"""Reliable-delivery middleware over the simulated unreliable network.

The paper's testbed assumes asynchronous-but-reliable RPC.  PR 7 makes the
wire unreliable (:class:`repro.simulation.network.FaultProfile` can drop,
duplicate, reorder and corrupt messages) and adds this middleware layer to
win the reliability back, the way a real deployment's messaging stack
would:

* every application message carries a monotonically increasing ``msg_id``;
* the receiving channel acknowledges each delivery with a small ACK
  message routed over the same (lossy) links;
* the sender retransmits on ACK timeout with exponential backoff plus a
  seeded jitter, up to a bounded number of attempts;
* the receiver deduplicates by ``msg_id``, so retransmissions and
  fault-injected duplicates are *re-ACKed* but applied at most once;
* corrupted deliveries are discarded before they reach the application
  handler — only a retransmission can recover them;
* when attempts are exhausted the message *expires*: expiry listeners
  (the federators) get a chance to degrade gracefully — drop the client
  from the round, re-dispatch the task — instead of hanging forever.

Two implementations share the interface: :class:`DirectTransport` is the
historical pass-through (zero extra events, zero random draws — bitwise
identical to the pre-transport simulator and the default), and
:class:`ReliableTransport` implements the protocol above.  Both are owned
by the :class:`~repro.simulation.cluster.SimulatedCluster`, and all
federator/client traffic — including client↔client offloads — routes
through them.

Checkpointing: the reliable channel's mutable state (un-ACKed sends with
their retransmit timers, per-node dedup sets, the jitter rng and the
counters) is fully serializable.  Timers are captured as declarative
``(fire time, sequence)`` entries and replayed by the checkpoint
orchestrator in the globally merged event order, so a resumed run is
bitwise identical to an uninterrupted one even with retransmissions in
flight.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.fl.config import TransportConfig
from repro.simulation.events import SimulationEnvironment
from repro.simulation.network import Message, Network, payload_size_bytes

#: Reserved message kind for transport-level acknowledgements.  ACKs are
#: ordinary wire messages: they cross the same lossy links and are subject
#: to the same fault profile (a lost or corrupted ACK is repaired by the
#: sender's retransmission, which the receiver re-ACKs).
ACK_KIND = "__transport_ack__"

#: Wire size charged for one acknowledgement.
ACK_SIZE_BYTES = 64.0


class DirectTransport:
    """Pass-through transport: the historical fire-and-forget semantics.

    Registers application handlers directly with the network and forwards
    sends verbatim — no ids, no ACKs, no timers, no dedup, no random
    draws.  With a null fault profile this is bitwise identical to the
    pre-transport simulator.
    """

    reliable = False

    def __init__(self, network: Network) -> None:
        self._network = network

    def register(self, node_id: Any, handler: Callable[[Message], None]) -> None:
        self._network.register(node_id, handler)

    def unregister(self, node_id: Any) -> None:
        self._network.unregister(node_id)

    def close(self) -> None:
        """Nothing to drop: the handlers live in the network."""

    def send(
        self,
        sender: Any,
        recipient: Any,
        kind: str,
        payload: Any = None,
        round_number: int = -1,
        size_bytes: Optional[float] = None,
    ) -> Message:
        return self._network.send(
            sender, recipient, kind, payload, round_number, size_bytes
        )

    # ------------------------------------------------- interface conformance
    def add_expiry_listener(self, callback: Callable[[dict], None]) -> None:
        """No-op: nothing ever expires on a fire-and-forget transport."""

    def pending_count(self) -> int:
        """Un-ACKed sends awaiting retransmission or expiry (always 0)."""
        return 0

    def pending_involving(self, node_id: Any, round_number: Optional[int] = None) -> int:
        return 0

    def counters(self) -> Dict[str, float]:
        return {}

    def capture_state(self) -> Optional[dict]:
        return None

    def restore_state(self, state: Optional[dict]) -> None:
        if state is not None:
            raise ValueError("DirectTransport cannot restore reliable-channel state")

    def schedule_restored(self, entry: dict) -> None:
        raise ValueError("DirectTransport has no retransmit timers to restore")


class ReliableTransport:
    """Reliable channels (ids + ACKs + retransmit + dedup) for every node.

    One instance serves the whole cluster: per-node state is keyed by node
    id, so it survives virtual-pool dehydration (a dehydrated client's
    dedup set stays here; its un-ACKed sends keep retransmitting from the
    captured payload without the actor).
    """

    reliable = True

    def __init__(
        self,
        network: Network,
        env: SimulationEnvironment,
        config: TransportConfig,
        seed: int = 0,
    ) -> None:
        self._network = network
        self._env = env
        self.config = config
        # Backoff jitter draws come from a private stream (distinct spawn
        # key) so the transport never perturbs model/selection randomness.
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(0x7BA9,))
        )
        self._handlers: Dict[Any, Callable[[Message], None]] = {}
        #: msg_id -> un-ACKed send (all fields plain data; the payload is
        #: held by reference until the ACK arrives or the entry expires).
        self._pending: Dict[int, Dict[str, Any]] = {}
        #: msg_id -> scheduled retransmit/expiry timer.  Invariant: same
        #: keys as ``_pending`` (both are updated together).
        self._timers: Dict[int, Any] = {}
        #: receiver node id -> msg_ids already delivered to its handler.
        self._seen: Dict[Any, set] = {}
        self._next_id = 0
        self._expiry_listeners: List[Callable[[dict], None]] = []
        # Counters (merged into run summaries and reports).
        self.retransmits = 0
        self.expired = 0
        self.dup_suppressed = 0
        self.corrupt_dropped = 0
        self.acks_sent = 0

    # ------------------------------------------------------------ registration
    def register(self, node_id: Any, handler: Callable[[Message], None]) -> None:
        """Register a node's application handler behind the channel wrapper."""
        self._handlers[node_id] = handler
        self._network.register(node_id, lambda message: self._dispatch(node_id, message))

    def unregister(self, node_id: Any) -> None:
        self._handlers.pop(node_id, None)
        self._network.unregister(node_id)

    def close(self) -> None:
        """Forget handlers, listeners and un-ACKed sends; counters stay."""
        self._handlers.clear()
        self._expiry_listeners.clear()
        self._pending.clear()
        self._timers.clear()

    def add_expiry_listener(self, callback: Callable[[dict], None]) -> None:
        """Call ``callback(entry)`` when a send exhausts its attempts.

        ``entry`` is the pending-send dict (sender, recipient, kind,
        round_number, attempts, ...).  Listeners are how the round engines
        degrade gracefully instead of waiting forever.
        """
        self._expiry_listeners.append(callback)

    # ------------------------------------------------------------------- send
    def send(
        self,
        sender: Any,
        recipient: Any,
        kind: str,
        payload: Any = None,
        round_number: int = -1,
        size_bytes: Optional[float] = None,
    ) -> Message:
        """Send with at-most-``max_attempts`` delivery and receive-side dedup."""
        size = size_bytes if size_bytes is not None else payload_size_bytes(payload)
        msg_id = self._next_id
        self._next_id += 1
        entry = {
            "msg_id": msg_id,
            "sender": sender,
            "recipient": recipient,
            "kind": kind,
            "payload": payload,
            "round_number": round_number,
            "size_bytes": size,
            "attempts": 0,
        }
        self._pending[msg_id] = entry
        return self._transmit(entry)

    def _transmit(self, entry: Dict[str, Any]) -> Message:
        entry["attempts"] += 1
        message = self._network.send(
            entry["sender"],
            entry["recipient"],
            entry["kind"],
            entry["payload"],
            entry["round_number"],
            size_bytes=entry["size_bytes"],
            msg_id=entry["msg_id"],
        )
        self._arm_timer(entry)
        return message

    def _arm_timer(self, entry: Dict[str, Any]) -> None:
        attempt = entry["attempts"]
        timeout = self.config.ack_timeout_s * self.config.backoff_factor ** (attempt - 1)
        timeout *= 1.0 + float(self._rng.uniform(0.0, self.config.backoff_jitter))
        msg_id = entry["msg_id"]
        self._timers[msg_id] = self._env.schedule(
            timeout, lambda: self._on_timeout(msg_id)
        )

    def _on_timeout(self, msg_id: int) -> None:
        self._timers.pop(msg_id, None)
        entry = self._pending.get(msg_id)
        if entry is None:
            return
        if entry["attempts"] >= self.config.max_attempts:
            del self._pending[msg_id]
            self.expired += 1
            for callback in self._expiry_listeners:
                callback(entry)
            return
        self.retransmits += 1
        self._transmit(entry)

    # ---------------------------------------------------------------- receive
    def _dispatch(self, node_id: Any, message: Message) -> None:
        if message.kind == ACK_KIND:
            acked = self._pending.pop(message.payload, None)
            timer = self._timers.pop(message.payload, None)
            if timer is not None:
                timer.cancel()
            del acked  # payload freed with the entry
            return
        if message.corrupted:
            # Poisoned on the wire: discard without ACKing, so the sender's
            # retransmission recovers it.
            self.corrupt_dropped += 1
            return
        if message.msg_id is not None:
            # ACK before the dedup check: a retransmission of an already
            # delivered message means the previous ACK was lost, and the
            # repair is to acknowledge again (idempotently).
            if self._network.has_handler(message.sender):
                self.acks_sent += 1
                self._network.send(
                    node_id,
                    message.sender,
                    ACK_KIND,
                    payload=message.msg_id,
                    size_bytes=ACK_SIZE_BYTES,
                )
            seen = self._seen.setdefault(node_id, set())
            if message.msg_id in seen:
                self.dup_suppressed += 1
                return
            seen.add(message.msg_id)
        handler = self._handlers.get(node_id)
        if handler is not None:
            handler(message)

    # ------------------------------------------------------------- inspection
    def pending_count(self) -> int:
        """Un-ACKed sends (each holds exactly one live retransmit timer)."""
        return len(self._pending)

    def pending_involving(self, node_id: Any, round_number: Optional[int] = None) -> int:
        """Un-ACKed sends touching a node (optionally only one round's)."""
        return sum(
            1
            for entry in self._pending.values()
            if (entry["sender"] == node_id or entry["recipient"] == node_id)
            and (round_number is None or entry["round_number"] == round_number)
        )

    def counters(self) -> Dict[str, float]:
        return {
            "retransmits": float(self.retransmits),
            "expired": float(self.expired),
            "dup_suppressed": float(self.dup_suppressed),
            "corrupt_dropped": float(self.corrupt_dropped),
            "acks_sent": float(self.acks_sent),
        }

    # ------------------------------------------------------ checkpoint seams
    def capture_state(self) -> dict:
        """Serializable snapshot of the channel state.

        Pending sends are captured with their timer's ``(fire time,
        sequence)`` so the checkpoint orchestrator can replay them (via
        :meth:`schedule_restored`) in the globally merged event order.
        """
        pending = []
        for msg_id, entry in self._pending.items():
            timer = self._timers[msg_id]
            pending.append(
                {**entry, "fire_at": timer.time, "sequence": timer.sequence}
            )
        pending.sort(key=lambda item: (item["fire_at"], item["sequence"]))
        return {
            "next_id": self._next_id,
            "rng": self._rng.bit_generator.state,
            "seen": {node: sorted(ids) for node, ids in self._seen.items()},
            "retransmits": self.retransmits,
            "expired": self.expired,
            "dup_suppressed": self.dup_suppressed,
            "corrupt_dropped": self.corrupt_dropped,
            "acks_sent": self.acks_sent,
            "pending": pending,
        }

    def restore_state(self, state: dict) -> None:
        """Restore everything except the timers (replayed separately)."""
        self._next_id = int(state["next_id"])
        self._rng.bit_generator.state = state["rng"]
        self._seen = {node: set(ids) for node, ids in state["seen"].items()}
        self.retransmits = int(state["retransmits"])
        self.expired = int(state["expired"])
        self.dup_suppressed = int(state["dup_suppressed"])
        self.corrupt_dropped = int(state["corrupt_dropped"])
        self.acks_sent = int(state["acks_sent"])
        self._pending.clear()
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    def schedule_restored(self, entry: dict) -> None:
        """Re-create one captured pending send and its timer."""
        msg_id = int(entry["msg_id"])
        self._pending[msg_id] = {
            "msg_id": msg_id,
            "sender": entry["sender"],
            "recipient": entry["recipient"],
            "kind": entry["kind"],
            "payload": entry["payload"],
            "round_number": entry["round_number"],
            "size_bytes": entry["size_bytes"],
            "attempts": entry["attempts"],
        }
        self._timers[msg_id] = self._env.schedule_at(
            entry["fire_at"], lambda: self._on_timeout(msg_id)
        )


def build_transport(
    network: Network,
    env: SimulationEnvironment,
    config: TransportConfig,
    seed: int = 0,
):
    """The transport matching a :class:`TransportConfig` (direct or reliable)."""
    if config.reliable:
        return ReliableTransport(network, env, config, seed=seed)
    return DirectTransport(network)
