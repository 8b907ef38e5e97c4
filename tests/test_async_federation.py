"""Tests for the asynchronous federators (FedAsync / FedBuff).

Covers the staleness-weighted mixing math, the dispatch loop (concurrency,
re-dispatch on arrival, rejoin handling), FedBuff's buffer-flush semantics,
round-record bookkeeping, and the determinism guarantees: identical seeds
produce identical summaries, serially and across the process-pool runner,
with and without churn.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.baselines.fedasync import FedAsyncFederator
from repro.baselines.fedbuff import FedBuffFederator
from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.runtime import available_algorithms, build_experiment, federator_class, run_experiment


def _async_config(algorithm: str, scenario: str = None, **overrides):
    return evaluation_config(
        "mnist", algorithm, "noniid", SCALES["smoke"], seed=42, scenario=scenario, **overrides
    )


class TestRegistration:
    def test_async_algorithms_are_registered(self):
        names = available_algorithms()
        assert "fedasync" in names
        assert "fedbuff" in names
        assert federator_class("fedasync") is FedAsyncFederator
        assert federator_class("fedbuff") is FedBuffFederator


class TestStalenessMath:
    def test_mixing_weight_decays_polynomially(self):
        handle = build_experiment(_async_config("fedasync"))
        federator = handle.federator
        alpha = handle.config.fedasync_alpha
        assert federator.mixing_weight(0) == pytest.approx(alpha)
        assert federator.mixing_weight(3) == pytest.approx(alpha * 4 ** -0.5)
        # Monotonically decreasing in staleness.
        weights = [federator.mixing_weight(s) for s in range(6)]
        assert weights == sorted(weights, reverse=True)

    def test_zero_power_ignores_staleness(self):
        handle = build_experiment(
            _async_config("fedasync", fedasync_staleness_power=0.0)
        )
        assert handle.federator.mixing_weight(0) == handle.federator.mixing_weight(99)

    def test_fedbuff_discount_matches_family(self):
        handle = build_experiment(_async_config("fedbuff"))
        federator = handle.federator
        power = handle.config.fedasync_staleness_power
        assert federator.staleness_discount(0) == pytest.approx(1.0)
        assert federator.staleness_discount(8) == pytest.approx(9.0 ** -power)


class TestFedAsyncRun:
    def test_emits_the_configured_number_of_rounds(self):
        config = _async_config("fedasync")
        result = run_experiment(config)
        assert result.num_rounds == config.rounds
        assert result.final_accuracy > 0

    def test_update_budget_matches_synchronous_work(self):
        config = _async_config("fedasync")
        handle = build_experiment(config)
        handle.run()
        federator = handle.federator
        assert federator._updates_applied == config.rounds * config.effective_clients_per_round
        assert federator.finished
        # Every applied update advanced the model version exactly once.
        assert federator.model_version == federator._updates_applied
        assert len(federator.staleness_history) == federator._updates_applied

    def test_staleness_actually_occurs(self):
        # With heterogeneous speeds, fast clients cycle while slow ones
        # compute, so some applied updates must be stale.
        handle = build_experiment(_async_config("fedasync"))
        handle.run()
        assert max(handle.federator.staleness_history) > 0

    def test_rounds_are_contiguous_windows(self):
        result = run_experiment(_async_config("fedasync"))
        for earlier, later in zip(result.rounds, result.rounds[1:]):
            assert later.start_time == pytest.approx(earlier.end_time)
            assert later.round_number == earlier.round_number + 1


class TestFedBuffRun:
    def test_buffer_flush_count(self):
        config = _async_config("fedbuff")
        handle = build_experiment(config)
        handle.run()
        federator = handle.federator
        expected_updates = config.rounds * federator.updates_per_record
        assert federator._updates_applied == expected_updates
        assert federator.aggregations == expected_updates // federator.buffer_size
        assert federator.model_version == federator.aggregations

    def test_explicit_buffer_size_is_honoured(self):
        config = _async_config("fedbuff", fedbuff_buffer_size=2)
        handle = build_experiment(config)
        assert handle.federator.buffer_size == 2
        handle.run()
        assert handle.federator.aggregations == handle.federator._updates_applied // 2

    def test_emits_the_configured_number_of_rounds(self):
        config = _async_config("fedbuff")
        result = run_experiment(config)
        assert result.num_rounds == config.rounds
        assert result.final_accuracy > 0

    def test_unflushed_tail_stays_buffered(self):
        # Budget not divisible by the buffer: the tail never aggregates.
        config = _async_config("fedbuff", fedbuff_buffer_size=3)
        handle = build_experiment(config)
        handle.run()
        assert len(handle.federator._buffer) == handle.federator._updates_applied % 3


class TestAsyncDeterminism:
    @pytest.mark.parametrize("algorithm", ["fedasync", "fedbuff"])
    def test_identical_seeds_identical_summaries(self, algorithm):
        config = _async_config(algorithm, scenario="churn")
        assert run_experiment(config).summary() == run_experiment(config).summary()

    def test_serial_and_parallel_agree_under_churn(self):
        configs = {
            algo: _async_config(algo, scenario="churn")
            for algo in ("fedasync", "fedbuff")
        }
        serial = api.sweep(configs, workers=1).suite
        parallel = api.sweep(configs, workers=2).suite
        for label in configs:
            assert serial.results[label].summary() == parallel.results[label].summary()

    def test_different_seeds_differ(self):
        a = run_experiment(_async_config("fedasync"))
        b = run_experiment(
            evaluation_config("mnist", "fedasync", "noniid", SCALES["smoke"], seed=43)
        )
        assert a.summary() != b.summary()


class TestAsyncUnderChurn:
    @pytest.mark.parametrize("algorithm", ["fedasync", "fedbuff"])
    def test_churn_run_completes(self, algorithm):
        config = _async_config(algorithm, scenario="churn")
        result = run_experiment(config)
        assert result.num_rounds == config.rounds

    def test_dropouts_are_recorded(self):
        config = _async_config("fedasync", scenario="mega-churn")
        result = run_experiment(config)
        assert result.num_rounds == config.rounds
        # mega-churn at smoke scale reliably kills at least one task.
        assert result.total_dropped() > 0

    def test_no_in_flight_leak_after_run(self):
        handle = build_experiment(_async_config("fedbuff", scenario="churn"))
        handle.run()
        assert handle.cluster.network.in_flight_count() == 0
        assert handle.federator._in_flight == {}


class TestAsyncModelMath:
    def test_fedasync_first_update_is_exact_mix(self):
        """After the very first update, the global model must be exactly
        (1 - alpha) * init + alpha * client (staleness 0)."""
        config = _async_config("fedasync", async_concurrency=1)
        handle = build_experiment(config)
        federator = handle.federator
        init = federator.global_flat.copy()
        alpha = config.fedasync_alpha

        seen = {}
        original = federator.apply_update

        def capture(result, dispatch):
            if "first" not in seen:
                seen["first"] = result.flat_weights.copy()
                original(result, dispatch)
                seen["after"] = federator.global_flat.copy()
            else:
                original(result, dispatch)

        federator.apply_update = capture
        handle.run()
        expected = (1.0 - alpha) * init + alpha * seen["first"]
        np.testing.assert_allclose(seen["after"], expected, rtol=1e-6)

    def test_fedbuff_flush_applies_mean_delta(self):
        """With buffer size 1 and power 0, each flush adds the client's
        delta verbatim."""
        config = _async_config(
            "fedbuff",
            fedbuff_buffer_size=1,
            fedasync_staleness_power=0.0,
            async_concurrency=1,
        )
        handle = build_experiment(config)
        federator = handle.federator
        snapshots = {}
        original = federator.apply_update

        def capture(result, dispatch):
            before = federator.global_flat.copy()
            original(result, dispatch)
            if "checked" not in snapshots:
                snapshots["checked"] = True
                delta = result.flat_weights - dispatch.snapshot
                np.testing.assert_allclose(
                    federator.global_flat, before + delta, rtol=1e-6
                )

        federator.apply_update = capture
        handle.run()
        assert snapshots.get("checked")
