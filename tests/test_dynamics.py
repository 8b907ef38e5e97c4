"""Tests for the scenario-dynamics subsystem.

Covers the network liveness layer (offline nodes, in-flight message
failure), the cluster membership hooks, the :class:`ScenarioDynamics`
driver itself, the named scenario registry, and — most importantly — the
round engine's dropped-client accounting: a client that disconnects
mid-round must be excluded from the aggregation, listed in the
:class:`RoundRecord`, and must not leak a pending in-flight message into
the next round.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.workloads import (
    SCALES,
    available_scenarios,
    evaluation_config,
    scenario_description,
    scenario_dynamics,
    scenario_transport,
)
from repro.fl.config import DynamicsConfig, ExperimentConfig, ResourceConfig
from repro.fl.runtime import build_experiment, run_experiment
from repro.simulation.cluster import FEDERATOR_ID, SimulatedCluster
from repro.simulation.dynamics import ScenarioDynamics
from repro.simulation.network import LinkSpec
from repro.simulation.resources import uniform_speed_profiles


def _cluster(n: int = 4, seed: int = 0) -> SimulatedCluster:
    return SimulatedCluster(uniform_speed_profiles(n, rng=np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# Network liveness
# ---------------------------------------------------------------------------
class TestNetworkLiveness:
    def test_nodes_default_to_online(self):
        cluster = _cluster()
        assert all(cluster.is_online(cid) for cid in cluster.client_ids)
        assert cluster.network.is_online(FEDERATOR_ID)

    def test_send_to_offline_node_is_dropped(self):
        cluster = _cluster()
        received = []
        cluster.network.register(0, received.append)
        cluster.network.register(FEDERATOR_ID, received.append)
        cluster.network.set_node_online(0, False)
        message = cluster.network.send(FEDERATOR_ID, 0, "ping")
        cluster.env.run()
        assert message.failed
        assert received == []
        assert cluster.network.messages_dropped == 1

    def test_disconnect_fails_in_flight_messages(self):
        cluster = _cluster()
        received = []
        cluster.network.register(0, received.append)
        cluster.network.register(FEDERATOR_ID, received.append)
        message = cluster.network.send(FEDERATOR_ID, 0, "ping")
        assert cluster.network.in_flight_count(0) == 1
        # Disconnect while the message is still in flight.
        cluster.network.set_node_online(0, False)
        cluster.env.run()
        assert message.failed
        assert received == []
        assert cluster.network.messages_failed == 1
        assert cluster.network.in_flight_count(0) == 0

    def test_messages_from_disconnecting_sender_also_fail(self):
        cluster = _cluster()
        received = []
        cluster.network.register(0, received.append)
        cluster.network.register(FEDERATOR_ID, received.append)
        message = cluster.network.send(0, FEDERATOR_ID, "result")
        cluster.network.set_node_online(0, False)
        cluster.env.run()
        assert message.failed
        assert received == []

    def test_reconnect_does_not_replay_lost_messages(self):
        cluster = _cluster()
        received = []
        cluster.network.register(0, received.append)
        cluster.network.register(FEDERATOR_ID, received.append)
        cluster.network.send(FEDERATOR_ID, 0, "ping")
        cluster.network.set_node_online(0, False)
        cluster.network.set_node_online(0, True)
        cluster.env.run()
        assert received == []  # cancelled is cancelled, even after a blip

    def test_delivery_between_online_nodes_unaffected(self):
        cluster = _cluster()
        received = []
        cluster.network.register(0, received.append)
        cluster.network.register(1, lambda m: None)
        cluster.network.register(FEDERATOR_ID, lambda m: None)
        cluster.network.set_node_online(1, False)
        cluster.network.send(FEDERATOR_ID, 0, "ping")
        cluster.env.run()
        assert len(received) == 1
        assert cluster.network.in_flight_count() == 0


# ---------------------------------------------------------------------------
# Cluster membership hooks
# ---------------------------------------------------------------------------
class TestClusterMembership:
    def test_membership_listener_sees_transitions(self):
        cluster = _cluster()
        seen = []
        cluster.add_membership_listener(lambda cid, online: seen.append((cid, online)))
        cluster.set_client_offline(2)
        cluster.set_client_online(2)
        assert seen == [(2, False), (2, True)]

    def test_transitions_are_idempotent(self):
        cluster = _cluster()
        seen = []
        cluster.add_membership_listener(lambda cid, online: seen.append((cid, online)))
        cluster.set_client_offline(1)
        cluster.set_client_offline(1)  # no-op
        cluster.set_client_online(1)
        cluster.set_client_online(1)  # no-op
        assert seen == [(1, False), (1, True)]

    def test_unknown_client_rejected(self):
        cluster = _cluster()
        with pytest.raises(KeyError):
            cluster.set_client_offline(99)
        with pytest.raises(KeyError):
            cluster.set_client_offline(FEDERATOR_ID)  # type: ignore[arg-type]

    def test_online_client_ids(self):
        cluster = _cluster(4)
        cluster.set_client_offline(0)
        cluster.set_client_offline(3)
        assert cluster.online_client_ids == [1, 2]

    def test_scale_client_speed_mutates_shared_profile(self):
        cluster = _cluster()
        before = cluster.profile(0).speed_fraction
        cluster.scale_client_speed(0, 0.25)
        assert cluster.profile(0).speed_fraction == pytest.approx(before * 0.25)
        cluster.scale_client_speed(0, 4.0)
        assert cluster.profile(0).speed_fraction == pytest.approx(before)

    def test_link_factor_round_trip(self):
        cluster = _cluster()
        base = cluster.network.default_link()
        cluster.set_link_factor(1, 0.1)
        assert cluster.network.link(1, FEDERATOR_ID).bandwidth_bytes_per_s == pytest.approx(
            base.bandwidth_bytes_per_s * 0.1
        )
        cluster.set_link_factor(1, 1.0)
        assert cluster.network.link(1, FEDERATOR_ID) is base


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------
class TestScenarioRegistry:
    def test_expected_names(self):
        assert available_scenarios() == (
            "stable",
            "churn",
            "flaky-network",
            "lossy",
            "lossy-churn",
            "mega-churn",
            "partition-storm",
            "straggler-burst",
        )

    def test_stable_is_inert(self):
        assert not scenario_dynamics("stable").is_active()

    def test_non_stable_scenarios_are_active(self):
        # Every non-stable scenario must do *something*: time-varying
        # dynamics, transport faults, or both (e.g. "lossy" is dynamics-
        # inert but installs an aggressive fault profile).
        for name in available_scenarios():
            if name != "stable":
                dynamics = scenario_dynamics(name)
                transport = scenario_transport(name)
                assert dynamics.is_active() or not transport.is_null(), name
                assert dynamics.scenario == name

    def test_descriptions_exist(self):
        for name in available_scenarios():
            assert scenario_description(name)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_dynamics("nope")
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_description("nope")

    def test_time_constants_stretch_with_scale(self):
        smoke = scenario_dynamics("churn", SCALES["smoke"])
        full = scenario_dynamics("churn", SCALES["full"])
        stretch = (
            SCALES["full"].local_updates * SCALES["full"].batch_size
        ) / (SCALES["smoke"].local_updates * SCALES["smoke"].batch_size)
        assert full.mean_online_s == pytest.approx(smoke.mean_online_s * stretch)
        assert full.client_timeout_s == pytest.approx(smoke.client_timeout_s * stretch)

    def test_evaluation_config_carries_scenario(self):
        config = evaluation_config(
            "mnist", "fedavg", "iid", SCALES["smoke"], scenario="churn"
        )
        assert config.dynamics.scenario == "churn"
        assert config.dynamics.churn
        assert config.describe()["scenario"] == "churn"


# ---------------------------------------------------------------------------
# DynamicsConfig validation
# ---------------------------------------------------------------------------
class TestDynamicsConfigValidation:
    def test_default_is_inert(self):
        assert not DynamicsConfig().is_active()

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            DynamicsConfig(mean_online_s=0.0)
        with pytest.raises(ValueError):
            DynamicsConfig(slowdown_factor=0.5)
        with pytest.raises(ValueError):
            DynamicsConfig(bandwidth_low_factor=0.9, bandwidth_high_factor=0.1)
        with pytest.raises(ValueError):
            DynamicsConfig(client_timeout_s=0.0)
        with pytest.raises(ValueError):
            DynamicsConfig(slowdown_rate_per_s=-1.0)


# ---------------------------------------------------------------------------
# The ScenarioDynamics driver
# ---------------------------------------------------------------------------
class TestScenarioDynamicsDriver:
    def test_inert_config_schedules_nothing(self):
        cluster = _cluster()
        driver = ScenarioDynamics(cluster, DynamicsConfig(), seed=1)
        driver.install()
        assert cluster.env.pending_events() == 0

    def test_churn_toggles_membership(self):
        cluster = _cluster(4)
        dynamics = DynamicsConfig(churn=True, mean_online_s=1.0, mean_offline_s=0.5)
        stop = {"flag": False}
        driver = ScenarioDynamics(
            cluster, dynamics, seed=3, stop_when=lambda: stop["flag"]
        )
        driver.install()
        cluster.env.run(until=20.0)
        assert driver.offline_events > 0
        assert driver.online_events > 0
        # Let the queue drain once stopped.
        stop["flag"] = True
        cluster.env.run()
        assert cluster.env.pending_events() == 0

    def test_min_online_clients_is_respected(self):
        cluster = _cluster(3)
        dynamics = DynamicsConfig(
            churn=True, mean_online_s=0.5, mean_offline_s=5.0, min_online_clients=2
        )
        min_seen = [len(cluster.online_client_ids)]
        cluster.add_membership_listener(
            lambda cid, online: min_seen.append(len(cluster.online_client_ids))
        )
        driver = ScenarioDynamics(cluster, dynamics, seed=5, stop_when=lambda: cluster.env.now > 30)
        driver.install()
        cluster.env.run(until=40.0)
        assert driver.offline_events > 0
        assert min(min_seen) >= 2 - 1  # listener fires after the transition

    def test_slowdown_bursts_restore_speed(self):
        cluster = _cluster(4)
        baseline = [cluster.profile(cid).speed_fraction for cid in cluster.client_ids]
        dynamics = DynamicsConfig(
            slowdown_rate_per_s=2.0, slowdown_factor=4.0, mean_slowdown_s=0.5
        )
        driver = ScenarioDynamics(cluster, dynamics, seed=7, stop_when=lambda: cluster.env.now > 10)
        driver.install()
        cluster.env.run()
        assert driver.slowdown_events > 0
        # Every burst reverted: speeds are back at their baseline.
        for cid, speed in zip(cluster.client_ids, baseline):
            assert cluster.profile(cid).speed_fraction == pytest.approx(speed)

    def test_bandwidth_trace_reverts_links(self):
        cluster = _cluster(4)
        base = cluster.network.default_link()
        dynamics = DynamicsConfig(
            bandwidth_rate_per_s=2.0,
            bandwidth_low_factor=0.1,
            bandwidth_high_factor=0.5,
            mean_bandwidth_hold_s=0.5,
        )
        driver = ScenarioDynamics(cluster, dynamics, seed=9, stop_when=lambda: cluster.env.now > 10)
        driver.install()
        cluster.env.run()
        assert driver.bandwidth_events > 0
        for cid in cluster.client_ids:
            assert cluster.network.link(cid, FEDERATOR_ID) is base

    def test_identical_seeds_produce_identical_traces(self):
        def trace(seed: int):
            cluster = _cluster(4, seed=0)
            events = []
            cluster.add_membership_listener(
                lambda cid, online: events.append((round(cluster.env.now, 9), cid, online))
            )
            dynamics = DynamicsConfig(churn=True, mean_online_s=1.0, mean_offline_s=0.5)
            driver = ScenarioDynamics(
                cluster, dynamics, seed=seed, stop_when=lambda: cluster.env.now > 15
            )
            driver.install()
            cluster.env.run(until=20.0)
            return events

        assert trace(42) == trace(42)
        assert trace(42) != trace(43)


# ---------------------------------------------------------------------------
# Externally admitted check-ins (service mode)
# ---------------------------------------------------------------------------
class TestCheckinBatches:
    """``admit_checkins`` schedules one event per firing time; it must apply
    exactly what one ``"checkin"`` event per line applied."""

    #: Two requests drained at one pump, as ``(client, online, delay)``:
    #: mixed online/offline lines for client 0, equal and distinct delays,
    #: and a wave of offline lines that runs into ``min_online_clients``.
    REQUESTS = (
        [(0, False, 0.0), (0, True, 0.0), (0, False, 0.0), (1, False, 0.1), (2, True, 0.1)]
        + [(client, False, 0.25) for client in range(4)]
        + [(3, True, 0.25), (0, True, 0.6)],
        [(0, True, 0.0), (1, True, 0.1), (2, False, 0.25), (0, False, 0.6), (1, False, 1.0)],
    )

    def _run(self, admit):
        config = evaluation_config(
            "mnist", "fedavg", "iid", SCALES["smoke"], seed=42, scenario="churn"
        ).with_overrides(rounds=10)
        with build_experiment(config) as experiment:
            cluster, dynamics = experiment.cluster, experiment.dynamics
            log = []
            cluster.add_membership_listener(
                lambda cid, online: log.append(("membership", cluster.env.now, cid, online))
            )
            fire = dynamics._fire

            def logged_fire(handle):
                kind = dynamics._pending[handle][1]
                if kind not in ("checkin", "checkins"):
                    log.append((kind, cluster.env.now))
                fire(handle)

            dynamics._fire = logged_fire
            experiment.federator.start()
            cluster.run(until=0.5)
            for lines in self.REQUESTS:
                admit(dynamics, lines)
            cluster.run(until=0.5 + 1.0)
            online = cluster.online_client_ids
            result = experiment.federator.result
            cluster.run()
            counters = (
                dynamics.online_events,
                dynamics.offline_events,
                dynamics.checkin_events,
            )
            return online, counters, log, [repr(dataclasses.asdict(r)) for r in result.rounds]

    def test_batch_applies_what_one_event_per_line_applied(self):
        def batched(dynamics, lines):
            dynamics.admit_checkins(lines)

        def per_line(dynamics, lines):
            for client, online, delay in lines:
                dynamics._schedule(delay, "checkin", (client, online))

        batch = self._run(batched)
        legacy = self._run(per_line)
        assert batch[0] == legacy[0]  # online set after the last firing time
        assert batch[1] == legacy[1]
        assert batch[1][2] == sum(len(lines) for lines in self.REQUESTS)
        assert batch[2] == legacy[2]  # every transition and later event, in order
        assert batch[3] == legacy[3]
        # The offline wave was cut short by min_online_clients.
        assert batch[1][1] < sum(
            1 for lines in self.REQUESTS for _c, online, _d in lines if not online
        )

    def test_one_event_per_firing_time(self):
        config = evaluation_config(
            "mnist", "fedavg", "iid", SCALES["smoke"], seed=42, scenario="churn"
        )
        with build_experiment(config) as experiment:
            dynamics = experiment.dynamics
            before = dynamics.pending_count()
            events = dynamics.admit_checkins(self.REQUESTS[0])
            assert [event.time for event in events] == [0.0, 0.1, 0.25, 0.6]
            assert dynamics.pending_count() == before + 4
            kinds = [kind for _event, kind, _args in dynamics._pending.values()]
            assert kinds.count("checkins") == 4

    @pytest.mark.parametrize(
        "line", [(4, True, 0.0), (-1, True, 0.0), (0, True, -1.0), (0, True, float("nan"))]
    )
    def test_a_bad_line_admits_none(self, line):
        config = evaluation_config(
            "mnist", "fedavg", "iid", SCALES["smoke"], seed=42, scenario="churn"
        )
        with build_experiment(config) as experiment:
            dynamics = experiment.dynamics
            before = dynamics.pending_count()
            with pytest.raises(ValueError):
                dynamics.admit_checkins([(0, False, 0.0), line])
            assert dynamics.pending_count() == before


# ---------------------------------------------------------------------------
# End-to-end scenario runs
# ---------------------------------------------------------------------------
class TestScenarioExperiments:
    def test_churn_run_completes_every_round(self):
        config = evaluation_config(
            "mnist", "fedavg", "noniid", SCALES["smoke"], seed=42, scenario="churn"
        )
        result = run_experiment(config)
        assert result.num_rounds == config.rounds
        assert result.total_dropped() > 0  # churn actually bit

    def test_mega_churn_is_deterministic(self):
        config = evaluation_config(
            "mnist", "fedavg", "noniid", SCALES["smoke"], seed=42, scenario="mega-churn"
        )
        assert run_experiment(config).summary() == run_experiment(config).summary()

    def test_stable_scenario_matches_no_scenario(self):
        scale = SCALES["smoke"]
        base = evaluation_config("mnist", "fedavg", "noniid", scale, seed=42)
        stable = evaluation_config(
            "mnist", "fedavg", "noniid", scale, seed=42, scenario="stable"
        )
        assert run_experiment(base).summary() == run_experiment(stable).summary()

    def test_straggler_burst_slows_rounds_down(self):
        scale = SCALES["smoke"]
        calm = run_experiment(
            evaluation_config("mnist", "fedavg", "iid", scale, seed=42)
        )
        bursty = run_experiment(
            evaluation_config(
                "mnist", "fedavg", "iid", scale, seed=42, scenario="straggler-burst"
            )
        )
        # Same accuracy trajectory shape, but bursts can only add time.
        assert bursty.total_time >= calm.total_time

    def test_flaky_network_completes(self):
        config = evaluation_config(
            "mnist", "fedavg", "noniid", SCALES["smoke"], seed=42, scenario="flaky-network"
        )
        result = run_experiment(config)
        assert result.num_rounds == config.rounds


# ---------------------------------------------------------------------------
# Dropped-client accounting (the satellite's contract)
# ---------------------------------------------------------------------------
class TestDroppedClientAccounting:
    def _config(self) -> ExperimentConfig:
        return ExperimentConfig(
            dataset="mnist",
            architecture="mnist-cnn",
            algorithm="fedavg",
            num_clients=4,
            rounds=2,
            local_updates=6,
            profile_batches=0,
            train_size=320,
            test_size=80,
            batch_size=16,
            resources=ResourceConfig(scheme="explicit", explicit_speeds=(0.4, 0.6, 0.8, 1.0)),
            seed=11,
        )

    def test_mid_round_dropout_accounting(self):
        """A client dropping mid-round is excluded from aggregation weights,
        listed in the RoundRecord, and leaks no in-flight message."""
        handle = build_experiment(self._config())
        cluster, federator = handle.cluster, handle.federator
        # Take client 0 down in the middle of round 1 (well before the
        # slowest client can finish its 6 batches) and bring it back before
        # round 2 starts.
        cluster.env.schedule(0.4, lambda: cluster.set_client_offline(0))
        cluster.env.schedule(1.2, lambda: cluster.set_client_online(0))
        result = handle.run()

        round1, round2 = result.rounds
        assert round1.dropped_clients == [0]
        assert 0 not in round1.completed_clients
        assert sorted(round1.completed_clients) == [1, 2, 3]
        # Aggregation weights excluded the dropped client: the round record
        # only averaged the three survivors (checked via the engine's own
        # accounting — completed == aggregated for FedAvg).
        assert round1.selected_clients == [0, 1, 2, 3]
        # Round 2 proceeds normally: it selects only the clients online at
        # its start (client 0 may still be offline) and all of them finish.
        assert round2.dropped_clients == []
        assert sorted(round2.completed_clients) == sorted(round2.selected_clients)
        assert round2.completed_clients
        # No in-flight message leaked past the end of the simulation.
        assert cluster.network.in_flight_count() == 0
        assert federator.finished
        assert federator.engine_phase == "idle"

    def test_dropout_weights_match_survivor_only_aggregate(self):
        """The aggregated model equals the weighted average of the
        survivors' contributions only."""
        handle = build_experiment(self._config().with_overrides(rounds=1))
        cluster, federator = handle.cluster, handle.federator

        captured = {}
        original_aggregate = federator.aggregate

        def capturing_aggregate(state, contributions):
            captured["client_ids"] = sorted(
                cid for cid in state.results if cid not in state.dropped_clients
            )
            captured["num_contributions"] = len(contributions)
            return original_aggregate(state, contributions)

        federator.aggregate = capturing_aggregate
        cluster.env.schedule(0.4, lambda: cluster.set_client_offline(0))
        result = handle.run()
        assert captured["client_ids"] == [1, 2, 3]
        assert captured["num_contributions"] == 3
        assert result.rounds[0].dropped_clients == [0]

    def test_dropped_client_aborts_local_work(self):
        handle = build_experiment(self._config().with_overrides(rounds=1))
        cluster = handle.cluster
        client0 = handle.pool.hydrate(0)
        cluster.env.schedule(0.4, lambda: cluster.set_client_offline(0))
        handle.run()
        assert client0.times_disconnected == 1
        # The abort left no dangling pending batch event.
        assert client0._pending_batch_event is None
        assert client0.total_batches_trained < 6

    def test_all_clients_dropped_leaves_model_unchanged(self):
        handle = build_experiment(self._config().with_overrides(rounds=1))
        cluster, federator = handle.cluster, handle.federator
        before = {k: v.copy() for k, v in federator.global_weights.items()}
        for cid in (0, 1, 2, 3):
            cluster.env.schedule(0.2, lambda c=cid: cluster.set_client_offline(c))
        result = handle.run()
        record = result.rounds[0]
        assert sorted(record.dropped_clients) == [0, 1, 2, 3]
        assert record.completed_clients == []
        for key, value in federator.global_weights.items():
            np.testing.assert_array_equal(value, before[key])

    def test_client_timeout_drops_stragglers(self):
        """A per-client timeout (dynamics.client_timeout_s) drops clients
        that cannot finish in time, without a full round deadline."""
        config = self._config().with_overrides(
            rounds=1, dynamics=DynamicsConfig(client_timeout_s=0.45)
        )
        result = run_experiment(config)
        record = result.rounds[0]
        assert record.dropped_clients  # the slow clients timed out
        assert record.completed_clients  # the fast ones made it
        assert set(record.dropped_clients).isdisjoint(record.completed_clients)
