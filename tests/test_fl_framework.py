"""Tests for configuration, aggregation, selection and metrics of the FL runtime."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregation import (
    average_metric,
    fedavg_aggregate,
    fednova_aggregate,
    weighted_average,
)
from repro.fl.config import ExperimentConfig, ResourceConfig
from repro.fl.messages import ProfileReport
from repro.fl.metrics import ExperimentResult, RoundRecord, round_duration_density
from repro.fl.selection import select_all, select_random, select_weighted
from repro.nn.model import Phase


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert config.effective_clients_per_round == config.num_clients

    def test_clients_per_round_override(self):
        config = ExperimentConfig(num_clients=10, clients_per_round=3)
        assert config.effective_clients_per_round == 3

    def test_with_overrides_returns_new_object(self):
        config = ExperimentConfig()
        other = config.with_overrides(rounds=9)
        assert other.rounds == 9
        assert config.rounds != 9 or config.rounds == other.rounds  # original untouched
        assert other is not config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_clients": 0},
            {"rounds": 0},
            {"local_updates": 0},
            {"batch_size": 0},
            {"clients_per_round": 50},
            {"profile_batches": 99},
            {"partition": "bogus"},
            {"deadline_seconds": -1.0},
            {"aergia_similarity_factor": -0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_resource_config_validation(self):
        with pytest.raises(ValueError):
            ResourceConfig(scheme="bogus")
        with pytest.raises(ValueError):
            ResourceConfig(scheme="explicit", explicit_speeds=None)

    def test_describe_contains_key_fields(self):
        description = ExperimentConfig(algorithm="aergia").describe()
        assert description["algorithm"] == "aergia"
        assert "rounds" in description and "dataset" in description

    def test_describe_carries_no_execution_field(self):
        # describe() lands in every stored result/manifest: an execution
        # choice in it would let two runs with one run_key store different
        # bytes.  And a stale name in EXECUTION_FIELDS would exclude nothing.
        import dataclasses

        from repro.api.store import EXECUTION_FIELDS

        field_names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(EXECUTION_FIELDS) <= field_names
        assert not set(EXECUTION_FIELDS) & set(ExperimentConfig().describe())


def _weights(value: float):
    return {"a": np.full((2, 2), value), "b": np.full((3,), value)}


class TestAggregation:
    def test_weighted_average_simple(self):
        result = weighted_average([_weights(0.0), _weights(2.0)], [1.0, 1.0])
        assert np.allclose(result["a"], 1.0)

    def test_weighted_average_respects_coefficients(self):
        result = weighted_average([_weights(0.0), _weights(4.0)], [3.0, 1.0])
        assert np.allclose(result["a"], 1.0)

    def test_weighted_average_validation(self):
        with pytest.raises(ValueError):
            weighted_average([], [])
        with pytest.raises(ValueError):
            weighted_average([_weights(1.0)], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_average([_weights(1.0), _weights(2.0)], [0.0, 0.0])
        with pytest.raises(ValueError):
            weighted_average([_weights(1.0), {"a": np.zeros((2, 2))}], [1.0, 1.0])

    def test_weighted_average_of_empty_dicts_is_empty(self):
        assert weighted_average([{}, {}], [1.0, 1.0]) == {}

    def test_fedavg_weighting_by_samples(self):
        result = fedavg_aggregate([(_weights(0.0), 100), (_weights(10.0), 300)])
        assert np.allclose(result["a"], 7.5)

    def test_fedavg_zero_sizes_fall_back_to_uniform(self):
        result = fedavg_aggregate([(_weights(0.0), 0), (_weights(10.0), 0)])
        assert np.allclose(result["a"], 5.0)

    def test_fedavg_empty_raises(self):
        with pytest.raises(ValueError):
            fedavg_aggregate([])

    def test_fednova_reduces_to_fedavg_for_equal_steps(self):
        global_weights = _weights(1.0)
        updates = [(_weights(0.0), 50, 10), (_weights(2.0), 50, 10)]
        nova = fednova_aggregate(global_weights, updates)
        avg = fedavg_aggregate([(w, n) for w, n, _ in updates])
        for key in nova:
            assert np.allclose(nova[key], avg[key])

    def test_fednova_removes_step_count_dominance(self):
        """A client that runs many steps must not dominate the update *direction*.

        Client A runs 100 steps towards +10 (small per-step progress); client
        B runs a single step towards -1.  FedAvg is dragged towards A, while
        FedNova weights the per-step directions equally and therefore moves
        the global model in B's (negative) direction.
        """
        global_weights = _weights(0.0)
        many_steps = _weights(10.0)
        one_step = _weights(-1.0)
        nova = fednova_aggregate(global_weights, [(many_steps, 50, 100), (one_step, 50, 1)])
        avg = fedavg_aggregate([(many_steps, 50), (one_step, 50)])
        assert np.all(avg["a"] > 0)
        assert np.all(nova["a"] < 0)

    def test_fednova_empty_raises(self):
        with pytest.raises(ValueError):
            fednova_aggregate(_weights(0.0), [])

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_fedavg_average_is_within_bounds(self, values):
        """Property: the FedAvg aggregate of scalars lies within their range."""
        updates = [({"w": np.array([v])}, 10) for v in values]
        aggregated = fedavg_aggregate(updates)["w"][0]
        assert min(values) - 1e-9 <= aggregated <= max(values) + 1e-9

    def test_average_metric(self):
        assert average_metric([1.0, 3.0], [1.0, 1.0]) == pytest.approx(2.0)
        assert average_metric([1.0, 3.0], [0.0, 0.0]) == pytest.approx(2.0)
        assert average_metric([], []) == 0.0


class TestSelection:
    def test_select_all_sorted(self):
        assert select_all([3, 1, 2]) == [1, 2, 3]

    def test_select_random_size_and_membership(self):
        chosen = select_random(range(10), 4, rng=np.random.default_rng(0))
        assert len(chosen) == 4
        assert all(c in range(10) for c in chosen)
        assert chosen == sorted(chosen)

    def test_select_random_validation(self):
        with pytest.raises(ValueError):
            select_random(range(3), 0)
        with pytest.raises(ValueError):
            select_random(range(3), 5)

    def test_select_random_is_deterministic_given_rng(self):
        a = select_random(range(20), 5, rng=np.random.default_rng(7))
        b = select_random(range(20), 5, rng=np.random.default_rng(7))
        assert a == b

    def test_select_weighted_prefers_heavy_clients(self):
        counts = {i: 0 for i in range(4)}
        rng = np.random.default_rng(0)
        for _ in range(200):
            for c in select_weighted(range(4), [10.0, 1.0, 1.0, 1.0], 1, rng=rng):
                counts[c] += 1
        assert counts[0] > counts[1]

    def test_select_weighted_validation(self):
        with pytest.raises(ValueError):
            select_weighted(range(3), [1.0], 1)
        with pytest.raises(ValueError):
            select_weighted(range(3), [0.0, 0.0, 0.0], 1)
        with pytest.raises(ValueError):
            select_weighted(range(3), [1.0, 1.0, 1.0], 9)


def _record(round_number: int, start: float, end: float, accuracy: float, dropped=0) -> RoundRecord:
    return RoundRecord(
        round_number=round_number,
        start_time=start,
        end_time=end,
        selected_clients=[0, 1, 2],
        completed_clients=[0, 1, 2],
        dropped_clients=list(range(dropped)),
        test_accuracy=accuracy,
        test_loss=1.0 - accuracy,
    )


class TestMetrics:
    def test_round_duration(self):
        assert _record(1, 2.0, 5.0, 0.5).duration == pytest.approx(3.0)

    def test_experiment_result_totals(self):
        result = ExperimentResult(algorithm="fedavg", dataset="mnist", config={})
        result.setup_time = 10.0
        result.add_round(_record(1, 10.0, 20.0, 0.4))
        result.add_round(_record(2, 20.0, 35.0, 0.6))
        assert result.total_time == pytest.approx(10.0 + 25.0)
        assert result.final_accuracy == pytest.approx(0.6)
        assert result.peak_accuracy == pytest.approx(0.6)
        assert result.mean_round_duration() == pytest.approx(12.5)

    def test_empty_result(self):
        result = ExperimentResult(algorithm="x", dataset="y", config={})
        assert result.total_time == 0.0
        assert result.final_accuracy == 0.0
        assert result.mean_round_duration() == 0.0

    def test_accuracy_timeline_monotone_time(self):
        result = ExperimentResult(algorithm="x", dataset="y", config={})
        result.add_round(_record(1, 0.0, 3.0, 0.3))
        result.add_round(_record(2, 3.0, 7.0, 0.5))
        timeline = result.accuracy_timeline()
        assert timeline[0][0] < timeline[1][0]
        assert timeline[1][1] == pytest.approx(0.5)

    def test_summary_keys(self):
        result = ExperimentResult(algorithm="x", dataset="y", config={})
        result.add_round(_record(1, 0.0, 3.0, 0.3, dropped=2))
        summary = result.summary()
        assert summary["total_dropped"] == 2.0
        assert set(summary) >= {"final_accuracy", "total_time_s", "mean_round_duration_s"}

    def test_round_duration_density(self):
        fast = ExperimentResult(algorithm="fast", dataset="d", config={})
        slow = ExperimentResult(algorithm="slow", dataset="d", config={})
        for i in range(6):
            fast.add_round(_record(i, i * 1.0, i * 1.0 + 1.0, 0.5))
            slow.add_round(_record(i, i * 4.0, i * 4.0 + 4.0, 0.5))
        densities = round_duration_density([fast, slow], bins=8)
        centers_fast, density_fast = densities["fast"]
        centers_slow, density_slow = densities["slow"]
        assert np.array_equal(centers_fast, centers_slow)
        # The fast algorithm's mass sits at smaller durations than the slow one's.
        fast_mean = np.average(centers_fast, weights=density_fast + 1e-12)
        slow_mean = np.average(centers_slow, weights=density_slow + 1e-12)
        assert fast_mean < slow_mean

    def test_round_duration_density_empty_raises(self):
        with pytest.raises(ValueError):
            round_duration_density([])


class TestProfileReport:
    def _report(self):
        return ProfileReport(
            client_id=3,
            round_number=1,
            phase_seconds={
                Phase.FORWARD_FEATURES: 0.2,
                Phase.FORWARD_CLASSIFIER: 0.05,
                Phase.BACKWARD_CLASSIFIER: 0.1,
                Phase.BACKWARD_FEATURES: 0.65,
            },
            batches_measured=4,
            batches_completed=5,
            remaining_batches=11,
        )

    def test_derived_quantities(self):
        report = self._report()
        assert report.batch_seconds == pytest.approx(1.0)
        assert report.head_seconds == pytest.approx(0.35)
        assert report.tail_seconds == pytest.approx(0.65)
        assert report.feature_training_seconds == pytest.approx(0.9)
        assert report.estimated_remaining_seconds == pytest.approx(11.0)
