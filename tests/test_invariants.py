"""Seeded randomized invariant tests across federators and scenarios.

Rather than pinning values, these tests draw *random but reproducible*
configurations (all randomness from one seeded generator) and assert the
structural invariants every run must satisfy:

* serial and process-pool execution produce identical summaries,
* aggregation is a proper weighted average (weights sum to 1),
* clients dropped from a round never contribute to its aggregate,
* a run replayed from the persistent RunStore matches the live run
  bit for bit,
* scale profiles reject impossible participation counts at resolution
  time (regression for the ``clients_per_round > num_clients`` gap).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.api as api
from repro.experiments.workloads import SCALES, ScaleProfile, evaluation_config, scenario_dynamics
from repro.fl.aggregation import fedavg_aggregate_flat, fednova_aggregate_flat
from repro.fl.config import ExperimentConfig
from repro.fl.runtime import run_experiment

SYNC_ALGORITHMS = ("fedavg", "fedprox", "fednova", "fedsgd", "tifl", "deadline", "aergia")
ASYNC_ALGORITHMS = ("fedasync", "fedbuff")
SCENARIOS_UNDER_TEST = ("stable", "churn", "straggler-burst")


def _random_config(rng: np.random.Generator) -> ExperimentConfig:
    """Draw one small random configuration (deterministic given the rng)."""
    algorithm = str(rng.choice(SYNC_ALGORITHMS + ASYNC_ALGORITHMS))
    scenario = str(rng.choice(SCENARIOS_UNDER_TEST))
    num_clients = int(rng.integers(4, 9))
    return evaluation_config(
        "mnist",
        algorithm,
        str(rng.choice(["iid", "noniid"])),
        SCALES["smoke"],
        seed=int(rng.integers(0, 10_000)),
        scenario=scenario,
        dtype="float32",
        num_clients=num_clients,
        clients_per_round=int(rng.integers(2, num_clients + 1)),
        rounds=int(rng.integers(2, 4)),
        local_updates=int(rng.integers(3, 6)),
        # Never-evicting or tight arena (one draw, as ever: the configs
        # that follow in a batch keep their seeds).
        pool_slots=int(rng.choice([num_clients, 3])),
    )


def _random_configs(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return {f"cfg{i}": _random_config(rng) for i in range(count)}


# ---------------------------------------------------------------------------
# Serial == parallel
# ---------------------------------------------------------------------------
def test_random_configs_serial_equals_parallel():
    configs = _random_configs(seed=2026, count=3)
    serial = api.sweep(configs, workers=1)
    parallel = api.sweep(configs, workers=2)
    for label in configs:
        assert serial[label].summary() == parallel[label].summary(), (
            label,
            configs[label].describe(),
        )


# ---------------------------------------------------------------------------
# Aggregation weight properties
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("trial", range(5))
def test_fedavg_aggregation_weights_sum_to_one(trial):
    rng = np.random.default_rng(100 + trial)
    num_clients = int(rng.integers(2, 7))
    dim = int(rng.integers(3, 40))
    rows = [rng.normal(size=dim) for _ in range(num_clients)]
    sizes = [int(rng.integers(1, 50)) for _ in range(num_clients)]
    aggregated = fedavg_aggregate_flat(rows, sizes)
    weights = np.asarray(sizes, dtype=np.float64) / sum(sizes)
    assert weights.sum() == pytest.approx(1.0)
    expected = sum(w * row for w, row in zip(weights, rows))
    np.testing.assert_allclose(aggregated, expected, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("trial", range(3))
def test_fednova_aggregation_is_convex_in_normalized_updates(trial):
    rng = np.random.default_rng(300 + trial)
    num_clients = int(rng.integers(2, 6))
    dim = 12
    global_flat = rng.normal(size=dim)
    rows = [global_flat + rng.normal(scale=0.1, size=dim) for _ in range(num_clients)]
    sizes = [int(rng.integers(1, 30)) for _ in range(num_clients)]
    steps = [int(rng.integers(1, 8)) for _ in range(num_clients)]
    aggregated = fednova_aggregate_flat(global_flat, rows, sizes, steps)
    assert aggregated.shape == global_flat.shape
    # With homogeneous step counts FedNova degenerates to a weighted
    # average: identical client updates must be reproduced exactly (the
    # weights form a distribution).  Heterogeneous steps deliberately
    # rescale, so the fixed point only holds in the homogeneous case.
    same_steps = [steps[0]] * num_clients
    same = fednova_aggregate_flat(global_flat, [rows[0]] * num_clients, sizes, same_steps)
    np.testing.assert_allclose(same, rows[0], rtol=1e-7, atol=1e-10)


# ---------------------------------------------------------------------------
# Dropped clients never contribute
# ---------------------------------------------------------------------------
def test_dropped_clients_never_contribute():
    rng = np.random.default_rng(77)
    seen_drops = 0
    for _ in range(4):
        config = _random_config(rng)
        # Churn + a tight per-client timeout maximises dropout pressure.
        config = config.with_overrides(dynamics=scenario_dynamics("churn", SCALES["smoke"]))
        result = run_experiment(config)
        for record in result.rounds:
            completed, dropped = set(record.completed_clients), set(record.dropped_clients)
            assert not completed & dropped, (
                f"round {record.round_number} of {config.describe()} counts "
                f"{completed & dropped} as both completed and dropped"
            )
            assert set(record.selected_clients) >= completed | dropped
            seen_drops += len(dropped)
    assert seen_drops > 0, "churn configs produced no dropouts at all"


# ---------------------------------------------------------------------------
# Store replay == live run
# ---------------------------------------------------------------------------
def test_replayed_rounds_match_live_rounds(tmp_path):
    import repro.api as api

    rng = np.random.default_rng(11)
    for _ in range(2):
        config = _random_config(rng)
        live = api.run(config, store=tmp_path)
        live_records = list(live.stream())
        assert not live.loaded_from_store
        replay = api.run(config, store=tmp_path)
        replay_records = list(replay.stream())
        assert replay.loaded_from_store, "second run must be served from the store"
        assert replay.summary() == live.summary()
        assert len(replay_records) == len(live_records)
        for a, b in zip(live_records, replay_records):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


# ---------------------------------------------------------------------------
# Materialization knobs are not part of a run's identity
# ---------------------------------------------------------------------------
def test_materialization_knobs_do_not_change_cache_or_store_keys():
    """Every slot budget runs bit-identically, so they share keys — and
    archives written before the knob existed keep theirs."""
    from repro.api.store import run_key

    config = evaluation_config(
        "mnist", "fedavg", "noniid", SCALES["smoke"], seed=1, dtype="float32"
    )
    for variant in (
        config.with_overrides(pool_slots=config.num_clients),
        config.with_overrides(pool_slots=3),
        config.with_overrides(pool_slots=5),
    ):
        assert run_key(variant) == run_key(config)
    # Result-relevant fields still distinguish runs.
    assert run_key(config.with_overrides(seed=2)) != run_key(config)


# ---------------------------------------------------------------------------
# Profile-resolution validation (regression: clients_per_round gap)
# ---------------------------------------------------------------------------
class TestScaleProfileValidation:
    def _profile(self, **overrides):
        fields = dict(
            name="bogus",
            num_clients=4,
            clients_per_round=4,
            rounds=2,
            local_updates=2,
            profile_batches=0,
            train_size=64,
            test_size=16,
            batch_size=8,
        )
        fields.update(overrides)
        return ScaleProfile(**fields)

    def test_clients_per_round_beyond_cohort_is_rejected(self):
        with pytest.raises(ValueError, match="clients_per_round"):
            self._profile(clients_per_round=5)

    def test_non_positive_sizes_are_rejected(self):
        for field_name in ("num_clients", "rounds", "local_updates", "batch_size"):
            with pytest.raises(ValueError, match=field_name):
                self._profile(**{field_name: 0})
        with pytest.raises(ValueError, match="cifar"):
            self._profile(cifar_client_fraction=0.0)

    def test_cifar_rounding_keeps_configs_valid(self):
        # Regression: cifar_client_fraction shrinks the cohort after the
        # profile was validated; the resolved config must still satisfy
        # clients_per_round <= num_clients for every registered scale.
        for name, profile in SCALES.items():
            config = evaluation_config("cifar10", "fedavg", "iid", profile, seed=1)
            assert config.clients_per_round <= config.num_clients, name

    def test_valid_profile_accepted(self):
        profile = self._profile()
        assert not profile.is_partial_participation
        assert self._profile(num_clients=8).is_partial_participation
