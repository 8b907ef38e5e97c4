"""Integration tests of the full Aergia pipeline: profiling, scheduling,
freezing, offloading, recombination and aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.config import ExperimentConfig, ResourceConfig
from repro.fl.runtime import build_experiment, run_experiment


def aergia_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        dataset="mnist",
        architecture="mnist-cnn",
        algorithm="aergia",
        num_clients=4,
        rounds=2,
        local_updates=6,
        profile_batches=2,
        train_size=320,
        test_size=80,
        batch_size=16,
        # One clear straggler and three strong clients.
        resources=ResourceConfig(scheme="explicit", explicit_speeds=(0.1, 0.8, 0.9, 1.0)),
        seed=13,
    )
    return base.with_overrides(**overrides) if overrides else base


class TestAergiaEndToEnd:
    def test_offloads_happen_in_heterogeneous_cluster(self):
        handle = build_experiment(aergia_config())
        result = handle.run()
        assert result.total_offloads() >= 1
        assert handle.federator.total_offloads() >= 1

    def test_offloading_plans_target_the_straggler(self):
        handle = build_experiment(aergia_config())
        handle.run()
        plans = handle.federator.plans
        assert plans, "at least one round should produce a plan"
        for plan in plans.values():
            for assignment in plan:
                # Client 0 is the only clear straggler in this cluster.
                assert assignment.weak_client == 0
                assert assignment.strong_client != 0

    def test_weak_client_froze_and_strong_client_trained_offloaded_model(self):
        handle = build_experiment(aergia_config(rounds=1))
        handle.run()
        weak = handle.pool.hydrate(0)
        assert weak.total_offloads_sent >= 1
        others = [c for c in handle.active_clients() if c is not weak]
        assert len(others) == handle.config.num_clients - 1
        trained = sum(c.total_offloads_trained for c in others)
        assert trained == weak.total_offloads_sent

    def test_faster_than_fedavg_on_heterogeneous_cluster(self):
        aergia = run_experiment(aergia_config(rounds=2))
        fedavg = run_experiment(aergia_config(rounds=2, algorithm="fedavg"))
        assert aergia.total_time < fedavg.total_time

    def test_accuracy_comparable_to_fedavg(self):
        aergia = run_experiment(aergia_config(rounds=3))
        fedavg = run_experiment(aergia_config(rounds=3, algorithm="fedavg"))
        assert aergia.final_accuracy >= fedavg.final_accuracy - 0.15

    def test_no_offloading_in_homogeneous_cluster(self):
        config = aergia_config(
            resources=ResourceConfig(scheme="explicit", explicit_speeds=(0.5, 0.5, 0.5, 0.5))
        )
        handle = build_experiment(config)
        result = handle.run()
        assert result.total_offloads() == 0
        # Without offloading Aergia degenerates to FedAvg-style rounds.
        for record in result.rounds:
            assert sorted(record.completed_clients) == sorted(record.selected_clients)

    def test_all_rounds_complete_and_every_client_contributes(self):
        handle = build_experiment(aergia_config(rounds=3))
        result = handle.run()
        assert result.num_rounds == 3
        for record in result.rounds:
            assert sorted(record.completed_clients) == sorted(record.selected_clients)

    def test_results_deterministic_given_seed(self):
        a = run_experiment(aergia_config())
        b = run_experiment(aergia_config())
        assert a.total_time == pytest.approx(b.total_time)
        assert a.final_accuracy == pytest.approx(b.final_accuracy)

    def test_similarity_factor_zero_still_runs(self):
        result = run_experiment(aergia_config(aergia_similarity_factor=0.0))
        assert result.num_rounds == 2

    def test_noniid_partition_with_similarity(self):
        result = run_experiment(
            aergia_config(partition="noniid", classes_per_client=3, rounds=2)
        )
        assert result.num_rounds == 2
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_global_model_changes_across_rounds(self):
        handle = build_experiment(aergia_config(rounds=2))
        initial = {k: v.copy() for k, v in handle.federator.global_weights.items()}
        handle.run()
        final = handle.federator.global_weights
        changed = any(not np.allclose(initial[k], final[k]) for k in initial)
        assert changed

    def test_subset_selection_with_offloading(self):
        config = aergia_config(
            num_clients=6,
            clients_per_round=3,
            resources=ResourceConfig(
                scheme="explicit", explicit_speeds=(0.1, 0.15, 0.9, 0.95, 1.0, 1.0)
            ),
        )
        result = run_experiment(config)
        assert result.num_rounds == 2
        for record in result.rounds:
            assert len(record.selected_clients) == 3


class TestAergiaAtPopulationScale:
    def test_metro_population_builds_and_schedules_without_the_full_matrix(self, monkeypatch):
        """5000 clients: the 12.5 M-pair matrix is on neither the build nor
        the run path; each round asks the enclave for its 64-client block."""
        import repro.api as api
        from repro.core.enclave import SGXEnclave
        from repro.core.similarity import ClientSimilarity

        def refuse(self):
            raise AssertionError("the population's full similarity matrix was requested")

        monkeypatch.setattr(SGXEnclave, "similarity_matrix", refuse)
        config = (
            api.experiment("aergia")
            .dataset("mnist")
            .partition("noniid")
            .scale("metro")
            .seed(3)
            .dtype("float32")
            .override(rounds=1, train_size=10000, test_size=32, local_updates=3, profile_batches=1)
            .build()
        )
        assert config.num_clients == 5000
        handle = build_experiment(config)
        assert handle.pool.slots < config.num_clients, "metro must not hold its cohort"
        result = handle.run()
        assert result.num_rounds == 1
        assert result.total_offloads() >= 1
        plan = handle.federator.plans[1]
        assert set(plan.as_dict()) <= set(result.rounds[0].selected_clients)
        for name, value in vars(handle.federator).items():
            assert not isinstance(value, ClientSimilarity), name
            if isinstance(value, np.ndarray):
                assert value.shape != (config.num_clients, config.num_clients), name


class TestAergiaAgainstTiFL:
    def test_aergia_beats_tifl_total_time_with_high_intra_tier_variance(self):
        """§5.2 observes that TiFL cannot equalise rounds when the intra-tier
        CPU variance is high; Aergia's per-round offloading can."""
        config = aergia_config(
            num_clients=6,
            rounds=3,
            resources=ResourceConfig(
                scheme="explicit", explicit_speeds=(0.08, 0.55, 0.6, 0.65, 0.9, 1.0)
            ),
        )
        aergia = run_experiment(config)
        tifl = run_experiment(config.with_overrides(algorithm="tifl"))
        assert aergia.total_time < tifl.total_time
