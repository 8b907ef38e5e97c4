"""Unreliable transport + reliable-delivery middleware tests.

Three layers of coverage, mirroring the architecture:

* unit: the fault injector's seeded determinism and the reliable channel's
  protocol invariants (every send is eventually ACKed or expires; dedup
  never double-delivers; corruption is only repaired by retransmission);
* config: the null transport stays out of the config hash (existing cache
  archives keep their keys) while any non-null knob changes it;
* end-to-end: every registered federator completes a ``lossy`` smoke run
  with at least one retransmission and no round outliving its timeout
  backstop, serial and process-pool execution agree under faults, and
  quorum finalization degrades rounds instead of hanging them.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.api as api
from repro.api.store import canonical_config, run_key
from repro.experiments.workloads import SCALES, evaluation_config, scenario_transport
from repro.fl.config import ExperimentConfig, TransportConfig
from repro.fl.runtime import build_experiment
from repro.fl.transport import ACK_KIND, DirectTransport, ReliableTransport, build_transport
from repro.simulation.events import SimulationEnvironment
from repro.simulation.network import (
    FaultProfile,
    Message,
    Network,
    payload_size_bytes,
)

ALL_ALGORITHMS = (
    "aergia",
    "deadline",
    "fedavg",
    "fedasync",
    "fedbuff",
    "fednova",
    "fedprox",
    "fedsgd",
    "tifl",
)


# ---------------------------------------------------------------------------
# Payload sizing (regression: the container floor applied per nesting level)
# ---------------------------------------------------------------------------
class TestPayloadSize:
    def test_nested_containers_are_not_floored_per_level(self):
        # Two nested dicts of tiny arrays: the old estimator floored each
        # inner dict to 128 bytes (-> 256 total); the raw content is 16
        # bytes, so one top-level floor must win.
        small = np.zeros(1, dtype=np.float64)  # 8 bytes
        payload = {"a": {"x": small}, "b": {"y": small}}
        assert payload_size_bytes(payload) == 128.0

    def test_weight_dicts_are_measured_exactly(self):
        weights = {
            "w1": np.zeros((4, 8), dtype=np.float64),  # 256 bytes
            "w2": np.zeros(16, dtype=np.float64),  # 128 bytes
        }
        assert payload_size_bytes(weights) == 384.0

    def test_scalar_payloads_charge_the_header_constant(self):
        assert payload_size_bytes("hello") == 256.0
        assert payload_size_bytes(None) == 256.0

    def test_empty_container_hits_the_floor(self):
        assert payload_size_bytes({}) == 128.0
        assert payload_size_bytes([]) == 128.0


# ---------------------------------------------------------------------------
# Fault injector
# ---------------------------------------------------------------------------
def _probe_message(kind="train_result", sender=1, recipient="federator"):
    return Message(sender=sender, recipient=recipient, kind=kind, payload=None)


class TestFaultProfile:
    def test_same_seed_same_fault_trace(self):
        def trace(profile):
            decisions = [
                dataclasses.astuple(profile.decide(_probe_message()))
                for _ in range(200)
            ]
            return decisions, profile.counters()

        make = lambda: FaultProfile(
            drop_rate=0.2, duplicate_rate=0.2, reorder_rate=0.3, corrupt_rate=0.1, seed=5
        )
        assert trace(make()) == trace(make())

    def test_kind_scoping_limits_faults(self):
        profile = FaultProfile(drop_rate=1.0, kinds=("train_result",), seed=0)
        for _ in range(20):
            assert not profile.decide(_probe_message(kind="train_request")).drop
            assert profile.decide(_probe_message(kind="train_result")).drop

    def test_burst_override_beats_base_rate(self):
        profile = FaultProfile(drop_rate=0.0, seed=0)
        profile.set_link_drop(1, "federator", 1.0)
        assert profile.decide(_probe_message(sender=1)).drop
        # The reverse direction and other links keep the base (zero) rate.
        assert not profile.decide(_probe_message(sender=2)).drop
        profile.clear_link_drop(1, "federator")
        assert not profile.decide(_probe_message(sender=1)).drop

    def test_unfaultable_messages_only_see_bursts(self):
        profile = FaultProfile(
            drop_rate=0.0, duplicate_rate=1.0, corrupt_rate=1.0, seed=0
        )
        decision = profile.decide(_probe_message(), faultable=False)
        assert not (decision.drop or decision.duplicate or decision.corrupt)
        profile.set_link_drop(1, "federator", 1.0)
        assert profile.decide(_probe_message(sender=1), faultable=False).drop


# ---------------------------------------------------------------------------
# Reliable channel protocol invariants
# ---------------------------------------------------------------------------
def _channel(transport_config, fault_profile=None):
    env = SimulationEnvironment()
    network = Network(env)
    network.fault_profile = fault_profile
    transport = ReliableTransport(network, env, transport_config, seed=3)
    delivered = {"a": [], "b": []}
    transport.register("a", lambda m: delivered["a"].append(m))
    transport.register("b", lambda m: delivered["b"].append(m))
    return env, network, transport, delivered


class TestReliableChannel:
    def test_every_send_is_acked_or_expired(self):
        # Heavy loss, bounded attempts: some sends make it (after retries),
        # the rest expire -- but nothing stays pending and nothing hangs.
        config = TransportConfig(
            drop_rate=0.6, reliable=True, ack_timeout_s=0.2, max_attempts=3
        )
        env, network, transport, delivered = _channel(
            config, FaultProfile(drop_rate=0.6, seed=11)
        )
        expired = []
        transport.add_expiry_listener(expired.append)
        sends = 40
        for i in range(sends):
            transport.send("a", "b", "probe", payload=i, round_number=i)
        env.run()
        assert transport.pending_count() == 0
        delivered_ids = {m.payload for m in delivered["b"]}
        expired_ids = {entry["payload"] for entry in expired}
        assert delivered_ids | expired_ids == set(range(sends))
        # Loss at 60% with 3 attempts: both outcomes occur in this seed.
        assert delivered_ids and expired_ids
        assert transport.retransmits > 0

    def test_duplicates_are_delivered_once(self):
        config = TransportConfig(duplicate_rate=1.0, reliable=True)
        env, network, transport, delivered = _channel(
            config, FaultProfile(duplicate_rate=1.0, seed=1)
        )
        for i in range(10):
            transport.send("a", "b", "train_result", payload=i, round_number=i)
        env.run()
        assert [m.payload for m in delivered["b"]] == list(range(10))
        assert transport.dup_suppressed >= 10
        assert transport.pending_count() == 0

    def test_corruption_recovered_by_retransmission(self):
        # Every first copy is corrupted (seeded rng with rate 0.5 poisons
        # some transmissions); the application only ever sees clean
        # payloads, recovered via retransmit.
        config = TransportConfig(
            corrupt_rate=0.5, reliable=True, ack_timeout_s=0.2, max_attempts=6
        )
        env, network, transport, delivered = _channel(
            config, FaultProfile(corrupt_rate=0.5, seed=2)
        )
        expired = []
        transport.add_expiry_listener(expired.append)
        for i in range(20):
            transport.send("a", "b", "probe", payload=i, round_number=i)
        env.run()
        assert transport.corrupt_dropped > 0
        assert all(not m.corrupted for m in delivered["b"])
        delivered_ids = {m.payload for m in delivered["b"]}
        assert delivered_ids | {e["payload"] for e in expired} == set(range(20))
        assert len(delivered_ids) >= 15  # 0.5^6 per-message failure odds
        assert transport.pending_count() == 0

    def test_total_loss_expires_after_bounded_attempts(self):
        config = TransportConfig(
            drop_rate=0.95, reliable=True, ack_timeout_s=0.1, max_attempts=2
        )
        env, network, transport, delivered = _channel(
            config, FaultProfile(drop_rate=1.0, seed=0)
        )
        expired = []
        transport.add_expiry_listener(expired.append)
        transport.send("a", "b", "probe", payload="x", round_number=7)
        env.run()
        assert delivered["b"] == []
        assert len(expired) == 1
        assert expired[0]["round_number"] == 7
        assert expired[0]["attempts"] == 2
        assert transport.pending_count() == 0

    def test_lost_ack_triggers_re_ack_not_redelivery(self):
        # Drop every ACK (they all flow b->a here): the sender retransmits,
        # the receiver re-ACKs idempotently, the handler still fires once.
        env = SimulationEnvironment()
        network = Network(env)
        profile = FaultProfile(seed=0)
        profile.set_link_drop("b", "a", 1.0)
        network.fault_profile = profile
        config = TransportConfig(reliable=True, ack_timeout_s=0.2, max_attempts=4)
        transport = ReliableTransport(network, env, config, seed=3)
        delivered = []
        transport.register("a", lambda m: None)
        transport.register("b", delivered.append)
        transport.send("a", "b", "probe", payload="x")
        env.run()
        assert len(delivered) == 1
        assert transport.acks_sent == 4  # one per (re)transmission
        assert transport.dup_suppressed == 3

    def test_direct_transport_is_pure_passthrough(self):
        env = SimulationEnvironment()
        network = Network(env)
        transport = DirectTransport(network)
        delivered = []
        transport.register("b", delivered.append)
        message = transport.send("a", "b", "probe", payload="x")
        env.run()
        assert delivered == [message]
        assert message.msg_id is None  # no reliability machinery engaged
        assert transport.pending_count() == 0
        assert transport.counters() == {}
        assert transport.capture_state() is None

    def test_build_transport_matches_config(self):
        env = SimulationEnvironment()
        network = Network(env)
        assert isinstance(
            build_transport(network, env, TransportConfig()), DirectTransport
        )
        assert isinstance(
            build_transport(network, env, TransportConfig(reliable=True)),
            ReliableTransport,
        )


# ---------------------------------------------------------------------------
# Config plumbing: validation + hash stability
# ---------------------------------------------------------------------------
class TestTransportConfig:
    def test_corruption_requires_reliability(self):
        with pytest.raises(ValueError):
            TransportConfig(corrupt_rate=0.1)
        TransportConfig(corrupt_rate=0.1, reliable=True)  # fine

    def test_certain_loss_rejected_when_reliable(self):
        with pytest.raises(ValueError):
            TransportConfig(drop_rate=1.0, reliable=True)

    def test_null_detection(self):
        assert TransportConfig().is_null()
        assert not TransportConfig(drop_rate=0.1).is_null()
        assert not TransportConfig(reliable=True).is_null()

    def test_null_transport_excluded_from_config_hash(self):
        config = evaluation_config("mnist", "fedavg", "iid", SCALES["smoke"])
        # Pre-transport store archives must keep their keys: the default
        # transport vanishes from the canonical form.
        assert "transport" not in canonical_config(config)

    def test_non_null_transport_changes_config_hash(self):
        base = evaluation_config("mnist", "fedavg", "iid", SCALES["smoke"])
        lossy = base.with_overrides(transport=TransportConfig(drop_rate=0.1))
        reliable = base.with_overrides(transport=TransportConfig(reliable=True))
        assert "transport" in canonical_config(lossy)
        assert len({run_key(base), run_key(lossy), run_key(reliable)}) == 3

    def test_lossy_scenario_resolves_transport_knobs(self):
        transport = scenario_transport("lossy", SCALES["smoke"])
        assert transport.reliable and transport.injects_faults()
        assert scenario_transport("stable", SCALES["smoke"]).is_null()
        assert scenario_transport("churn", SCALES["smoke"]).is_null()
        # Time-like knobs stretch with the scale's per-round work.
        smoke, bench = SCALES["smoke"], SCALES["bench"]
        stretch = (bench.local_updates * bench.batch_size) / (
            smoke.local_updates * smoke.batch_size
        )
        assert scenario_transport("lossy", bench).ack_timeout_s == pytest.approx(
            transport.ack_timeout_s * stretch
        )


# ---------------------------------------------------------------------------
# End-to-end: every federator survives the lossy scenario
# ---------------------------------------------------------------------------
def _lossy_config(algorithm: str, **overrides) -> ExperimentConfig:
    return evaluation_config(
        "mnist",
        algorithm,
        "iid",
        SCALES["smoke"],
        seed=9,
        scenario="lossy",
        dtype="float32",
        **overrides,
    )


class TestLossyEndToEnd:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_every_federator_completes_with_retransmissions(self, algorithm):
        config = _lossy_config(algorithm)
        experiment = build_experiment(config)
        result = experiment.run()
        assert len(result.rounds) == config.rounds
        totals = experiment.cluster.network_totals()
        assert totals["retransmits"] >= 1, "a lossy run must retransmit"
        assert totals["fault_drops"] >= 1
        # Graceful degradation contract: no round outlives its timeout
        # backstop (transport expiry or client timeout ends the wait).
        timeout = config.dynamics.client_timeout_s
        for record in result.rounds:
            assert record.end_time - record.start_time <= timeout + 1.0
        # Counters flow into the summary and the per-round records.  The
        # summary snapshots at finalization; the totals keep counting while
        # the tail of the event queue (late timers) drains, so totals can
        # only be >= the summary.
        summary = result.summary()
        assert 1 <= summary["net_retransmits"] <= totals["retransmits"]
        assert 1 <= summary["net_fault_drops"] <= totals["fault_drops"]
        assert any("net_retransmits" in record.extra for record in result.rounds)

    def test_serial_equals_parallel_under_faults(self):
        configs = {
            "lossy/fedavg": _lossy_config("fedavg"),
            "lossy/fedbuff": _lossy_config("fedbuff"),
        }
        serial = api.sweep(configs, workers=1)
        parallel = api.sweep(configs, workers=2)
        for label in configs:
            assert serial[label].summary() == parallel[label].summary(), label

    def test_quorum_finalizes_partitioned_round(self):
        # One client's links collapse completely; with a 1/2 quorum the
        # round finalizes from the surviving majority instead of hanging,
        # and the unreachable client is dropped.
        config = evaluation_config(
            "mnist",
            "fedavg",
            "iid",
            SCALES["smoke"],
            seed=4,
            dtype="float32",
            transport=TransportConfig(
                reliable=True,
                ack_timeout_s=0.3,
                max_attempts=2,
                quorum_fraction=0.5,
            ),
        )
        experiment = build_experiment(config)
        profile = FaultProfile(seed=4)
        experiment.cluster.network.fault_profile = profile
        experiment.cluster.set_link_loss(0, 1.0)  # client 0 unreachable
        result = experiment.run()
        assert len(result.rounds) == config.rounds
        for record in result.rounds:
            assert 0 in record.dropped_clients
            assert len(record.completed_clients) >= 2
        assert experiment.cluster.transport.expired > 0

    def test_partition_storm_scenario_completes(self):
        config = evaluation_config(
            "mnist",
            "fedavg",
            "iid",
            SCALES["smoke"],
            seed=3,
            scenario="partition-storm",
            dtype="float32",
        )
        experiment = build_experiment(config)
        assert experiment.cluster.transport.reliable
        result = experiment.run()
        assert len(result.rounds) == config.rounds
        assert experiment.dynamics is not None  # loss-burst driver installed
        totals = experiment.cluster.network_totals()
        assert totals["fault_drops"] >= 1  # bursts bit at this seed
        assert totals["retransmits"] >= 1  # ...and the middleware recovered

    def test_null_profile_run_carries_no_transport_noise(self):
        # The stable scenario must look exactly like the pre-transport
        # simulator: no fault profile, pass-through transport, and no
        # net_* keys leaking into the per-round records.
        config = evaluation_config(
            "mnist", "fedavg", "iid", SCALES["smoke"], dtype="float32"
        )
        experiment = build_experiment(config)
        assert experiment.cluster.network.fault_profile is None
        assert isinstance(experiment.cluster.transport, DirectTransport)
        result = experiment.run()
        for record in result.rounds:
            assert not any(key.startswith("net_") for key in record.extra)
        # Whole-run totals are still surfaced in the summary.
        summary = result.summary()
        assert summary["net_messages_sent"] > 0
        assert "net_retransmits" not in summary
