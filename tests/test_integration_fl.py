"""End-to-end integration tests of the federated-learning runtime.

These tests run complete (tiny) experiments through the simulator and check
the invariants that the paper's system guarantees: synchronous rounds,
correct participation accounting, deadline drops, tier-based selection,
and so on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.config import ExperimentConfig, ResourceConfig
from repro.fl.runtime import build_experiment, federator_class, run_experiment


def smoke(algorithm: str, **overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        dataset="mnist",
        architecture="mnist-cnn",
        algorithm=algorithm,
        num_clients=4,
        rounds=2,
        local_updates=5,
        profile_batches=2,
        train_size=320,
        test_size=80,
        batch_size=16,
        resources=ResourceConfig(scheme="explicit", explicit_speeds=(0.1, 0.3, 0.8, 1.0)),
        seed=11,
    )
    return base.with_overrides(**overrides) if overrides else base


class TestRuntimeAssembly:
    def test_build_experiment_creates_all_parts(self):
        handle = build_experiment(smoke("fedavg"))
        assert handle.cluster.num_clients == 4
        assert len(handle.pool.descriptors) == 4
        handle.pool.ensure_active(range(4))
        assert len(handle.active_clients()) == 4
        assert handle.partition_plan.num_clients == 4
        assert handle.federator.algorithm_name == "fedavg"

    def test_partition_data_reaches_clients(self):
        handle = build_experiment(smoke("fedavg"))
        total = sum(handle.pool.hydrate(cid).num_samples for cid in range(4))
        assert total == handle.config.train_size

    def test_federator_class_registry(self):
        for name in ("fedavg", "fedprox", "fednova", "fedsgd", "tifl", "deadline", "aergia"):
            assert federator_class(name).algorithm_name == name
        with pytest.raises(ValueError):
            federator_class("not-an-algorithm")

    def test_unknown_algorithm_error_lists_valid_names(self):
        from repro.fl.runtime import available_algorithms

        assert {"fedavg", "tifl", "aergia"} <= set(available_algorithms())
        with pytest.raises(ValueError, match="valid algorithms: .*aergia.*tifl"):
            federator_class("not-an-algorithm")

    def test_explicit_speeds_too_short_rejected(self):
        config = smoke(
            "fedavg",
            resources=ResourceConfig(scheme="explicit", explicit_speeds=(0.5,)),
        )
        with pytest.raises(ValueError):
            build_experiment(config)


class TestFedAvgRounds:
    def test_runs_requested_number_of_rounds(self):
        result = run_experiment(smoke("fedavg"))
        assert result.num_rounds == 2
        assert [r.round_number for r in result.rounds] == [1, 2]

    def test_all_clients_complete_every_round(self):
        result = run_experiment(smoke("fedavg"))
        for record in result.rounds:
            assert sorted(record.completed_clients) == sorted(record.selected_clients)
            assert not record.dropped_clients

    def test_round_times_are_monotone(self):
        result = run_experiment(smoke("fedavg"))
        for record in result.rounds:
            assert record.end_time > record.start_time
        assert result.rounds[1].start_time >= result.rounds[0].end_time

    def test_accuracy_is_probability(self):
        result = run_experiment(smoke("fedavg"))
        for record in result.rounds:
            assert 0.0 <= record.test_accuracy <= 1.0

    def test_deterministic_given_seed(self):
        a = run_experiment(smoke("fedavg"))
        b = run_experiment(smoke("fedavg"))
        assert a.total_time == pytest.approx(b.total_time)
        assert a.final_accuracy == pytest.approx(b.final_accuracy)

    def test_client_subset_selection(self):
        result = run_experiment(smoke("fedavg", clients_per_round=2))
        for record in result.rounds:
            assert len(record.selected_clients) == 2

    def test_straggler_determines_round_duration(self):
        """With one very slow client, the round must last about as long as that
        client needs, confirming the synchronous-bottleneck behaviour that
        motivates the paper (Figure 1(a))."""
        slow = run_experiment(
            smoke("fedavg", resources=ResourceConfig(scheme="explicit", explicit_speeds=(0.05, 1.0, 1.0, 1.0)))
        )
        fast = run_experiment(
            smoke("fedavg", resources=ResourceConfig(scheme="explicit", explicit_speeds=(1.0, 1.0, 1.0, 1.0)))
        )
        assert slow.mean_round_duration() > 3 * fast.mean_round_duration()


class TestBaselineBehaviours:
    def test_fedsgd_runs_single_local_update(self):
        handle = build_experiment(smoke("fedsgd"))
        result = handle.run()
        assert result.num_rounds == 2
        # Every client performed exactly one local step per round.
        clients = handle.active_clients()
        assert len(clients) == 4
        for client in clients:
            assert client.total_batches_trained == 2

    def test_fedprox_clients_use_proximal_optimizer(self):
        from repro.nn.optim import ProximalSGD

        handle = build_experiment(smoke("fedprox"))
        assert all(
            isinstance(handle.pool.hydrate(cid).optimizer, ProximalSGD) for cid in range(4)
        )
        result = handle.run()
        assert result.num_rounds == 2

    def test_fednova_completes_and_aggregates(self):
        result = run_experiment(smoke("fednova"))
        assert result.num_rounds == 2
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_tifl_selects_within_a_tier(self):
        handle = build_experiment(smoke("tifl", num_clients=6, clients_per_round=2,
                                        resources=ResourceConfig(scheme="uniform", low=0.1, high=1.0)))
        federator = handle.federator
        result = handle.run()
        # Every round's selection must be a subset of a single tier.
        for record in result.rounds:
            tiers_used = {federator.tier_of(cid) for cid in record.selected_clients}
            assert len(tiers_used) == 1

    def test_tifl_charges_offline_profiling_setup_time(self):
        handle = build_experiment(smoke("tifl"))
        result = handle.run()
        assert handle.federator.setup_time > 0
        assert result.total_time >= handle.federator.setup_time

    def test_deadline_drops_slow_clients(self):
        # Deadline chosen so the slowest client (speed 0.1) cannot finish.
        fast_only = run_experiment(smoke("deadline", deadline_seconds=None))
        typical_round = fast_only.mean_round_duration()
        tight = run_experiment(smoke("deadline", deadline_seconds=typical_round * 0.3))
        assert tight.total_dropped() > 0
        assert tight.mean_round_duration() < fast_only.mean_round_duration()

    def test_deadline_none_behaves_like_fedavg(self):
        deadline = run_experiment(smoke("deadline", deadline_seconds=None))
        fedavg = run_experiment(smoke("fedavg"))
        assert deadline.total_time == pytest.approx(fedavg.total_time)
        assert deadline.final_accuracy == pytest.approx(fedavg.final_accuracy)

    def test_deadline_drops_exclude_straggler_contributions_on_noniid(self):
        """The mechanism behind Figure 1(c): with non-IID data, dropped
        stragglers' (unique) contributions never reach the aggregation.  The
        accuracy impact itself is measured at bench scale by
        ``benchmarks/bench_fig1_motivation.py``."""
        base = smoke(
            "deadline",
            partition="noniid",
            classes_per_client=2,
            rounds=3,
            num_clients=5,
            resources=ResourceConfig(scheme="explicit", explicit_speeds=(0.08, 0.9, 1.0, 1.0, 1.0)),
        )
        unbounded = run_experiment(base.with_overrides(deadline_seconds=None))
        tight = run_experiment(
            base.with_overrides(deadline_seconds=unbounded.mean_round_duration() * 0.25)
        )
        assert tight.total_dropped() > 0
        # The slow client (id 0) is the one being dropped.
        dropped_ids = {cid for record in tight.rounds for cid in record.dropped_clients}
        assert 0 in dropped_ids
        completed_tight = sum(len(r.completed_clients) for r in tight.rounds)
        completed_unbounded = sum(len(r.completed_clients) for r in unbounded.rounds)
        assert completed_tight < completed_unbounded
