"""Asynchronous, reliable, peer-to-peer message layer.

The paper's testbed uses RPC between fully isolated nodes: communication is
asynchronous (no bound on delivery time) but reliable (every message
eventually arrives), and clients can message each other directly without
going through the federator (§3.1, §5.1).  This module models that layer on
top of the discrete-event simulator: every ``send`` schedules a delivery
event after a per-link latency plus a size-dependent transmission time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.simulation.events import SimulationEnvironment


@dataclass(frozen=True)
class LinkSpec:
    """Latency and bandwidth of a (directed) network link."""

    latency_s: float = 0.01
    bandwidth_bytes_per_s: float = 125e6  # 1 Gbit/s

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency cannot be negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")

    def transfer_time(self, num_bytes: float) -> float:
        """Time to deliver a payload of ``num_bytes`` over this link."""
        if num_bytes < 0:
            raise ValueError("payload size cannot be negative")
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s


@dataclass
class Message:
    """A message exchanged between simulated nodes.

    Attributes
    ----------
    sender, recipient:
        Node identifiers (the federator uses the reserved id ``"federator"``;
        clients use their integer index as a string or int).
    kind:
        Message type tag (see :mod:`repro.fl.messages`).
    payload:
        Arbitrary message body.
    round_number:
        Global training round the message belongs to; lets recipients drop
        stale messages, as required by the paper (§3.3, §4.1).
    size_bytes:
        Payload size charged to the network; model transfers use the actual
        byte size of the weight arrays.
    sent_at, delivered_at:
        Timestamps filled in by the network layer.
    """

    sender: Any
    recipient: Any
    kind: str
    payload: Any = None
    round_number: int = -1
    size_bytes: float = 1024.0
    sent_at: float = field(default=0.0, compare=False)
    delivered_at: float = field(default=0.0, compare=False)
    #: Set when the message was lost: either an endpoint was offline at send
    #: time, or a node disconnected while the message was in flight.
    failed: bool = field(default=False, compare=False)
    #: Delivery id assigned by the reliable transport (None = unreliable
    #: fire-and-forget send, the historical behaviour).
    msg_id: Optional[int] = field(default=None, compare=False)
    #: Payload-poison marker set by the fault injector; a corrupted message
    #: is discarded by the receiving channel instead of being handled.
    corrupted: bool = field(default=False, compare=False)


#: Canonical on-the-wire width of one model parameter.  Model payloads are
#: charged at this width, not at the engine's in-memory float32 (see
#: :mod:`repro.nn.dtype`), so simulated communication times match the
#: original float64 engine bit-for-bit.
WIRE_BYTES_PER_PARAM = 8


def wire_bytes(num_parameters: int) -> float:
    """Bytes charged to the network for shipping ``num_parameters`` weights."""
    return float(num_parameters * WIRE_BYTES_PER_PARAM)


def weights_wire_bytes(weights: Any) -> float:
    """Wire size of a model payload: a weight dict or a flat parameter vector."""
    if isinstance(weights, np.ndarray):
        return wire_bytes(int(weights.size))
    return wire_bytes(int(sum(np.asarray(value).size for value in weights.values())))


def _raw_payload_bytes(payload: Any) -> float:
    """Recursive size estimate without the container floor (see below)."""
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    if isinstance(payload, dict):
        return sum(_raw_payload_bytes(value) for value in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(_raw_payload_bytes(v) for v in payload)
    return 256.0


def payload_size_bytes(payload: Any) -> float:
    """Best-effort estimate of a payload's size in bytes.

    Dictionaries of numpy arrays (model weights) are measured exactly;
    other payloads are charged a small constant for headers/metadata.
    The 128-byte container floor is applied once, at the top level —
    nested containers contribute their raw content size, so a dict of
    dicts is not charged the floor per nesting level.
    """
    if isinstance(payload, (dict, list, tuple)):
        return max(_raw_payload_bytes(payload), 128.0)
    return _raw_payload_bytes(payload)


@dataclass
class FaultDecision:
    """What the fault injector decided to do with one message."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    #: Extra reorder jitter per delivered copy (original first).
    extra_delays: Tuple[float, ...] = (0.0,)


class FaultProfile:
    """Seeded, deterministic message-level fault injector.

    Consulted by :meth:`Network.send` for every message: the profile can
    drop a message outright, deliver it twice, hold it back by an extra
    uniformly drawn delay (reordering), or poison its payload (the
    ``corrupted`` marker; the reliable channel discards such deliveries so
    only a retransmission recovers them).

    All draws come from a private generator derived from the experiment
    seed with a distinct spawn key, so fault traces are reproducible and
    independent of every other random stream.  Per-link *burst* overrides
    (set by :class:`~repro.simulation.dynamics.ScenarioDynamics` loss
    bursts) replace the base drop rate for a directed pair with an
    absolute rate, so bursts bite even when the base ``drop_rate`` is 0.
    """

    def __init__(
        self,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_max_delay_s: float = 0.05,
        corrupt_rate: float = 0.0,
        kinds: Tuple[str, ...] = (),
        seed: int = 0,
    ) -> None:
        self.drop_rate = float(drop_rate)
        self.duplicate_rate = float(duplicate_rate)
        self.reorder_rate = float(reorder_rate)
        self.reorder_max_delay_s = float(reorder_max_delay_s)
        self.corrupt_rate = float(corrupt_rate)
        #: Message kinds subject to faults; empty = all kinds.
        self.kinds = frozenset(kinds)
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(0xFA17,))
        )
        #: (src, dst) -> absolute burst drop rate (loss bursts).
        self._link_drop: Dict[Tuple[Any, Any], float] = {}
        # Fault counters (surfaced in run summaries and reports).
        self.drops = 0
        self.duplicates = 0
        self.reorders = 0
        self.corruptions = 0

    # --------------------------------------------------------- burst overrides
    def set_link_drop(self, src: Any, dst: Any, rate: float) -> None:
        """Set an absolute drop rate for the directed pair (loss burst)."""
        if not 0 <= rate <= 1:
            raise ValueError("link drop rate must be in [0, 1]")
        self._link_drop[(src, dst)] = float(rate)

    def clear_link_drop(self, src: Any, dst: Any) -> None:
        """Remove a per-pair burst override, reverting to the base rate."""
        self._link_drop.pop((src, dst), None)

    def _effective_drop_rate(self, message: Message, in_scope: bool) -> float:
        burst = self._link_drop.get((message.sender, message.recipient))
        base = self.drop_rate if in_scope else 0.0
        if burst is None:
            return base
        return max(base, burst)

    # -------------------------------------------------------------- decisions
    def _in_scope(self, message: Message) -> bool:
        return not self.kinds or message.kind in self.kinds

    def decide(self, message: Message, faultable: bool = True) -> FaultDecision:
        """Decide this message's fate; draws are made in a fixed order.

        ``faultable=False`` restricts the profile to link-level burst drops
        (used for transport acknowledgements, which are never corrupted and
        ignore the kind filter but still cross the same lossy links).
        """
        in_scope = faultable and self._in_scope(message)
        drop_rate = self._effective_drop_rate(message, in_scope)
        if drop_rate > 0 and self._rng.random() < drop_rate:
            self.drops += 1
            return FaultDecision(drop=True, extra_delays=())
        if not in_scope:
            return FaultDecision()
        duplicate = self.duplicate_rate > 0 and self._rng.random() < self.duplicate_rate
        if duplicate:
            self.duplicates += 1
        copies = 2 if duplicate else 1
        delays = []
        for _ in range(copies):
            extra = 0.0
            if self.reorder_rate > 0 and self._rng.random() < self.reorder_rate:
                extra = float(self._rng.uniform(0.0, self.reorder_max_delay_s))
                self.reorders += 1
            delays.append(extra)
        corrupt = self.corrupt_rate > 0 and self._rng.random() < self.corrupt_rate
        if corrupt:
            self.corruptions += 1
        return FaultDecision(
            duplicate=duplicate, corrupt=corrupt, extra_delays=tuple(delays)
        )

    # ------------------------------------------------------ counters/snapshot
    def counters(self) -> Dict[str, float]:
        return {
            "fault_drops": float(self.drops),
            "fault_duplicates": float(self.duplicates),
            "fault_reorders": float(self.reorders),
            "fault_corruptions": float(self.corruptions),
        }

    def capture_state(self) -> Dict[str, Any]:
        """Serializable snapshot: rng stream, counters, burst overrides."""
        return {
            "rng": self._rng.bit_generator.state,
            "drops": self.drops,
            "duplicates": self.duplicates,
            "reorders": self.reorders,
            "corruptions": self.corruptions,
            "link_drop": [
                (src, dst, rate) for (src, dst), rate in self._link_drop.items()
            ],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._rng.bit_generator.state = state["rng"]
        self.drops = int(state["drops"])
        self.duplicates = int(state["duplicates"])
        self.reorders = int(state["reorders"])
        self.corruptions = int(state["corruptions"])
        self._link_drop = {
            (src, dst): float(rate) for src, dst, rate in state["link_drop"]
        }


class Network:
    """Message router with per-link latency/bandwidth and node liveness.

    Nodes register a handler with :meth:`register`; :meth:`send` schedules
    the handler invocation after the link's transfer time.  Per-pair link
    overrides allow experiments with heterogeneous connectivity.

    Nodes can be taken offline (:meth:`set_node_online`), which models a
    crash or a network partition: messages addressed to or sent by an
    offline node are lost, and every message still in flight to/from a node
    *fails* the moment the node disconnects (its delivery event is
    cancelled).  The reliable-delivery guarantee of the paper's RPC layer
    therefore holds exactly while both endpoints stay connected, which is
    the standard fail-stop relaxation used by churn studies.
    """

    def __init__(
        self,
        env: SimulationEnvironment,
        default_link: Optional[LinkSpec] = None,
    ) -> None:
        self._env = env
        self._default_link = default_link if default_link is not None else LinkSpec()
        self._links: Dict[Tuple[Any, Any], LinkSpec] = {}
        self._handlers: Dict[Any, Callable[[Message], None]] = {}
        self._offline: set = set()
        #: token -> (message, delivery event) for messages in flight.
        self._in_flight: Dict[int, Tuple[Message, object]] = {}
        #: endpoint -> tokens of in-flight messages it sent or will receive,
        #: so churn events fail a node's messages without scanning the
        #: whole table (tokens are ascending, so sorted(set) == send order).
        self._by_endpoint: Dict[Any, set] = {}
        self._next_token = 0
        #: Optional message-level fault injector (None = reliable network).
        self.fault_profile: Optional[FaultProfile] = None
        self.messages_sent = 0
        self.bytes_sent = 0.0
        #: Messages lost because an endpoint was offline at send time.
        self.messages_dropped = 0
        #: In-flight messages failed by a disconnect.
        self.messages_failed = 0

    def register(self, node_id: Any, handler: Callable[[Message], None]) -> None:
        """Register the message handler for a node."""
        if node_id in self._handlers:
            raise ValueError(f"node {node_id!r} is already registered")
        self._handlers[node_id] = handler

    def unregister(self, node_id: Any) -> None:
        """Remove a node's handler (messages to it are then rejected)."""
        self._handlers.pop(node_id, None)

    def has_handler(self, node_id: Any) -> bool:
        """Whether a node currently has a registered handler."""
        return node_id in self._handlers

    def close(self) -> None:
        """Forget every handler and in-flight message; counters stay."""
        self._handlers.clear()
        self._in_flight.clear()
        self._by_endpoint.clear()

    # ----------------------------------------------------------------- liveness
    def is_online(self, node_id: Any) -> bool:
        """Whether a node is currently connected (nodes default to online)."""
        return node_id not in self._offline

    def offline_count(self) -> int:
        """Number of nodes currently disconnected (O(1); churn-heavy
        scenarios over thousands of clients consult this instead of
        enumerating the online set)."""
        return len(self._offline)

    def set_node_online(self, node_id: Any, online: bool) -> None:
        """Connect or disconnect a node.

        Disconnecting fails every message currently in flight to or from the
        node (the dynamics engine calls this on churn events).  Reconnecting
        does not replay lost messages — the protocol layers above re-send.
        """
        if online:
            self._offline.discard(node_id)
            return
        if node_id in self._offline:
            return
        self._offline.add(node_id)
        self.fail_in_flight(node_id)

    def fail_in_flight(self, node_id: Any) -> int:
        """Cancel delivery of all in-flight messages involving ``node_id``."""
        failed = sorted(self._by_endpoint.get(node_id, ()))
        for token in failed:
            message, event = self._in_flight.pop(token)
            self._untrack(token, message)
            message.failed = True
            event.cancel()
        self.messages_failed += len(failed)
        return len(failed)

    def in_flight_count(self, node_id: Any = None) -> int:
        """Messages currently in flight (optionally only those touching a node)."""
        if node_id is None:
            return len(self._in_flight)
        return len(self._by_endpoint.get(node_id, ()))

    def set_link(self, src: Any, dst: Any, spec: LinkSpec) -> None:
        """Override the link characteristics for the directed pair (src, dst)."""
        self._links[(src, dst)] = spec

    def default_link(self) -> LinkSpec:
        """The link spec used for pairs without an explicit override."""
        return self._default_link

    def clear_link(self, src: Any, dst: Any) -> None:
        """Remove a per-pair override, reverting the pair to the default link."""
        self._links.pop((src, dst), None)

    def link(self, src: Any, dst: Any) -> LinkSpec:
        """The link spec used for the directed pair (src, dst)."""
        return self._links.get((src, dst), self._default_link)

    def transfer_time(self, src: Any, dst: Any, num_bytes: float) -> float:
        """Delivery time of a payload between two nodes."""
        return self.link(src, dst).transfer_time(num_bytes)

    # ----------------------------------------------- in-flight endpoint index
    def _track(self, token: int, message: Message) -> None:
        self._by_endpoint.setdefault(message.sender, set()).add(token)
        self._by_endpoint.setdefault(message.recipient, set()).add(token)

    def _untrack(self, token: int, message: Message) -> None:
        for node_id in (message.sender, message.recipient):
            tokens = self._by_endpoint.get(node_id)
            if tokens is not None:
                tokens.discard(token)
                if not tokens:
                    del self._by_endpoint[node_id]

    def _schedule_delivery(
        self, message: Message, delay: Optional[float] = None, at: Optional[float] = None
    ) -> None:
        """Schedule one delivery attempt of an (online-checked) message."""
        handler = self._handlers[message.recipient]
        token = self._next_token
        self._next_token += 1

        def deliver() -> None:
            entry = self._in_flight.pop(token, None)
            if entry is not None:
                self._untrack(token, message)
            if not self.is_online(message.recipient):
                # The recipient dropped between send and delivery but came
                # back before the delivery event was cancelled; still lost.
                message.failed = True
                self.messages_failed += 1
                return
            message.delivered_at = self._env.now
            handler(message)

        if at is not None:
            event = self._env.schedule_at(at, deliver)
        else:
            event = self._env.schedule(delay, deliver)
        self._in_flight[token] = (message, event)
        self._track(token, message)

    def send(
        self,
        sender: Any,
        recipient: Any,
        kind: str,
        payload: Any = None,
        round_number: int = -1,
        size_bytes: Optional[float] = None,
        msg_id: Optional[int] = None,
        faultable: bool = True,
    ) -> Message:
        """Send a message; delivery is scheduled on the event queue.

        ``msg_id`` tags the message for the reliable channel's ACK/dedup
        bookkeeping; ``faultable=False`` exempts it from every fault except
        link-level loss bursts (used for transport acknowledgements).
        """
        if recipient not in self._handlers:
            raise KeyError(f"unknown recipient {recipient!r}")
        size = size_bytes if size_bytes is not None else payload_size_bytes(payload)
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=payload,
            round_number=round_number,
            size_bytes=size,
            sent_at=self._env.now,
            msg_id=msg_id,
        )
        if not self.is_online(sender) or not self.is_online(recipient):
            # A partitioned endpoint: the message is lost, not queued.
            message.failed = True
            self.messages_dropped += 1
            return message
        self.messages_sent += 1
        self.bytes_sent += size
        if self.fault_profile is not None:
            decision = self.fault_profile.decide(message, faultable=faultable)
            if decision.drop:
                # Lost on the wire: transmitted (counted above) but never
                # delivered.  Only the layers above can recover it.
                message.failed = True
                return message
            message.corrupted = decision.corrupt
            delay = self.transfer_time(sender, recipient, size)
            for extra in decision.extra_delays:
                self._schedule_delivery(message, delay=delay + extra)
            return message
        delay = self.transfer_time(sender, recipient, size)
        self._schedule_delivery(message, delay=delay)
        return message

    # ------------------------------------------------------ checkpoint seams
    def capture_in_flight(self) -> List[dict]:
        """Serializable snapshot of every in-flight message.

        Entries are ordered by their delivery event's ``(time, sequence)``
        so a resumed run can re-schedule them in the exact order the
        uninterrupted run would have fired them.  Payloads are captured by
        reference: the checkpoint serializer deep-copies the whole snapshot
        in one pass.
        """
        captured = []
        for message, event in self._in_flight.values():
            captured.append(
                {
                    "sender": message.sender,
                    "recipient": message.recipient,
                    "kind": message.kind,
                    "payload": message.payload,
                    "round_number": message.round_number,
                    "size_bytes": message.size_bytes,
                    "sent_at": message.sent_at,
                    "msg_id": message.msg_id,
                    "corrupted": message.corrupted,
                    "deliver_at": event.time,
                    "sequence": event.sequence,
                }
            )
        captured.sort(key=lambda entry: (entry["deliver_at"], entry["sequence"]))
        return captured

    def restore_in_flight(self, entry: dict) -> Message:
        """Re-create one in-flight message from :meth:`capture_in_flight`.

        The recipient's handler must already be registered (hydrate pool
        clients first).  Call in capture order: relative delivery order is
        determined by scheduling order for same-time events.
        """
        message = Message(
            sender=entry["sender"],
            recipient=entry["recipient"],
            kind=entry["kind"],
            payload=entry["payload"],
            round_number=entry["round_number"],
            size_bytes=entry["size_bytes"],
            sent_at=entry["sent_at"],
            msg_id=entry.get("msg_id"),
            corrupted=bool(entry.get("corrupted", False)),
        )
        self._schedule_delivery(message, at=entry["deliver_at"])
        return message

    def capture_link_overrides(self) -> List[tuple]:
        """Per-pair link overrides as ((src, dst), latency, bandwidth)."""
        return [
            ((src, dst), spec.latency_s, spec.bandwidth_bytes_per_s)
            for (src, dst), spec in self._links.items()
        ]

    def restore_link_overrides(self, overrides: List[tuple]) -> None:
        """Replace all per-pair overrides with a captured set."""
        self._links.clear()
        for (src, dst), latency, bandwidth in overrides:
            self._links[(src, dst)] = LinkSpec(
                latency_s=latency, bandwidth_bytes_per_s=bandwidth
            )

    def capture_offline(self) -> List[Any]:
        """The currently disconnected node ids (sorted for determinism)."""
        return sorted(self._offline, key=repr)

    def restore_offline(self, node_ids: List[Any]) -> None:
        """Replace the offline set (no disconnect side effects are fired)."""
        self._offline = set(node_ids)

    def counters(self) -> Dict[str, float]:
        """Traffic counters (merged into run summaries and reports)."""
        return {
            "messages_sent": float(self.messages_sent),
            "bytes_sent": float(self.bytes_sent),
            "messages_dropped": float(self.messages_dropped),
            "messages_failed": float(self.messages_failed),
        }

    def capture_counters(self) -> Dict[str, float]:
        """Snapshot of the traffic counters (for checkpoint/resume)."""
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "messages_dropped": self.messages_dropped,
            "messages_failed": self.messages_failed,
        }

    def restore_counters(self, counters: Dict[str, float]) -> None:
        self.messages_sent = int(counters["messages_sent"])
        self.bytes_sent = float(counters["bytes_sent"])
        self.messages_dropped = int(counters["messages_dropped"])
        self.messages_failed = int(counters["messages_failed"])
