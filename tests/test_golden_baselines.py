"""Golden-summary regression guards: sync baselines, async baselines, and
a virtualized large-cohort run.

The round-engine refactor (dynamics/async PR) is required to be
*behaviour-preserving by default*: under the ``stable`` scenario every
synchronous baseline must reproduce its pre-refactor smoke-scale summary
bit-for-bit.  The values below were captured from the pre-refactor code
(commit 454c1d3) at smoke scale, seed 42, mnist/noniid, float32 — any
drift in them means the engine changed observable behaviour for static
clusters, which is a regression even if all behavioural tests still pass.

The configs name ``dtype="float32"``, the width every run computes in; it
shares the key of ``dtype=None``.
"""

from __future__ import annotations

import pytest

from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.runtime import run_experiment

#: Pre-refactor summaries: smoke scale, mnist, noniid, seed 42, float32.
GOLDEN_SMOKE_SUMMARIES = {
    "aergia": {
        "final_accuracy": 0.25,
        "mean_round_duration_s": 1.0141021664892678,
        "peak_accuracy": 0.25,
        "rounds": 2.0,
        "total_dropped": 0.0,
        "total_offloads": 4.0,
        "total_time_s": 2.0282043329785355,
    },
    "deadline": {
        "final_accuracy": 0.20833333333333334,
        "mean_round_duration_s": 1.4731316759193174,
        "peak_accuracy": 0.20833333333333334,
        "rounds": 2.0,
        "total_dropped": 0.0,
        "total_offloads": 0.0,
        "total_time_s": 2.9462633518386347,
    },
    "fedavg": {
        "final_accuracy": 0.20833333333333334,
        "mean_round_duration_s": 1.4731316759193174,
        "peak_accuracy": 0.20833333333333334,
        "rounds": 2.0,
        "total_dropped": 0.0,
        "total_offloads": 0.0,
        "total_time_s": 2.9462633518386347,
    },
    "fednova": {
        "final_accuracy": 0.20833333333333334,
        "mean_round_duration_s": 1.4731316759193174,
        "peak_accuracy": 0.20833333333333334,
        "rounds": 2.0,
        "total_dropped": 0.0,
        "total_offloads": 0.0,
        "total_time_s": 2.9462633518386347,
    },
    "fedprox": {
        "final_accuracy": 0.225,
        "mean_round_duration_s": 1.4731316759193174,
        "peak_accuracy": 0.225,
        "rounds": 2.0,
        "total_dropped": 0.0,
        "total_offloads": 0.0,
        "total_time_s": 2.9462633518386347,
    },
    "fedsgd": {
        "final_accuracy": 0.19166666666666668,
        "mean_round_duration_s": 0.2892015015294536,
        "peak_accuracy": 0.225,
        "rounds": 2.0,
        "total_dropped": 0.0,
        "total_offloads": 0.0,
        "total_time_s": 0.5784030030589072,
    },
    "tifl": {
        "final_accuracy": 0.175,
        "mean_round_duration_s": 0.8634911477290501,
        "peak_accuracy": 0.175,
        "rounds": 2.0,
        "total_dropped": 0.0,
        "total_offloads": 0.0,
        "total_time_s": 7.055610987304624,
    },
}


#: Async-federation summaries pinned at the same workload (captured from
#: commit 94fc80d): the dispatch loop, staleness weighting and buffered
#: aggregation are deterministic, so these hold bit-for-bit too.
GOLDEN_ASYNC_SMOKE_SUMMARIES = {
    "fedasync": {
        "final_accuracy": 0.275,
        "mean_round_duration_s": 0.7656353887382176,
        "peak_accuracy": 0.275,
        "rounds": 2.0,
        "total_dropped": 0.0,
        "total_offloads": 0.0,
        "total_time_s": 1.5312707774764351,
    },
    "fedbuff": {
        "final_accuracy": 0.21666666666666667,
        "mean_round_duration_s": 0.7656353887382176,
        "peak_accuracy": 0.21666666666666667,
        "rounds": 2.0,
        "total_dropped": 0.0,
        "total_offloads": 0.0,
        "total_time_s": 1.5312707774764351,
    },
}

#: A virtualized large-cohort run pinned end-to-end: city scale (1000
#: clients, 32 per round, virtual client pool), churn scenario, reduced to
#: 2 rounds so the guard stays test-suite fast.  Any drift here means the
#: pool, the lazy partition plan or the descriptor-level churn handling
#: changed observable behaviour.
GOLDEN_CITY_CHURN_SUMMARY = {
    "final_accuracy": 0.225,
    "mean_round_duration_s": 0.7581320862172818,
    "peak_accuracy": 0.225,
    "rounds": 2.0,
    "total_dropped": 5.0,
    "total_offloads": 0.0,
    "total_time_s": 1.5162641724345636,
}


def _assert_matches(summary, expected, label):
    for key, value in expected.items():
        # Exact in practice on the reference platform; the tiny tolerance
        # only absorbs cross-platform libm differences.
        assert summary[key] == pytest.approx(value, rel=1e-9, abs=1e-12), (label, key)


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_SMOKE_SUMMARIES))
def test_stable_scenario_reproduces_pre_refactor_summary(algorithm):
    config = evaluation_config(
        "mnist",
        algorithm,
        "noniid",
        SCALES["smoke"],
        seed=42,
        scenario="stable",
        dtype="float32",
    )
    summary = run_experiment(config).summary()
    _assert_matches(summary, GOLDEN_SMOKE_SUMMARIES[algorithm], algorithm)


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_ASYNC_SMOKE_SUMMARIES))
def test_async_baselines_reproduce_pinned_summary(algorithm):
    config = evaluation_config(
        "mnist",
        algorithm,
        "noniid",
        SCALES["smoke"],
        seed=42,
        scenario="stable",
        dtype="float32",
    )
    summary = run_experiment(config).summary()
    _assert_matches(summary, GOLDEN_ASYNC_SMOKE_SUMMARIES[algorithm], algorithm)


def test_city_scale_virtualized_churn_reproduces_pinned_summary():
    config = evaluation_config(
        "mnist",
        "fedavg",
        "noniid",
        SCALES["city"],
        seed=42,
        scenario="churn",
        dtype="float32",
        rounds=2,
    )
    from repro.fl.runtime import build_experiment

    handle = build_experiment(config)
    summary = handle.run().summary()
    _assert_matches(summary, GOLDEN_CITY_CHURN_SUMMARY, "city/churn")
    # The cohort never fully materializes: the arena stays bounded by the
    # participant count (+ headroom and any mid-flight stragglers).
    stats = handle.pool.describe()
    assert stats["cohort"] == 1000
    assert stats["peak_hydrated"] <= 2 * config.effective_clients_per_round
