"""A client's round is a job that runs once, where its result is first read.

Two contracts of :mod:`repro.fl.training`:

* **No scheduling decision reads a model value.**  A run whose arithmetic
  is replaced by no-ops — the job runner and ``SplitCNN.evaluate`` stubbed
  — yields the same round records as the real run, minus the three value
  fields.  Hypothesis draws the federator (every registered one), the
  scenario (every registered one), the seed and the transport profile; a
  ``shards=2`` leg runs the real side on shard workers.  The negative
  control is a federator that selects clients by ``train_loss``: the
  property must reject it.
* **Every batch of a read result is computed exactly once, and a voided
  round's batches never.**  Counted under churn plus offloading, with
  ``shards=1`` and at ``shards=2`` (where the parent computes none).
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fl.training as training
from repro.core.aergia import AergiaFederator
from repro.data.loader import BatchLoader
from repro.experiments.workloads import SCALES, evaluation_config, scenario_transport
from repro.fl.config import ResourceConfig
from repro.fl.federator import FedAvgFederator
from repro.fl.runtime import available_algorithms, build_experiment
from repro.nn.model import SplitCNN
from repro.registry import FEDERATORS, SCENARIOS
from repro.simulation.shard import ShardPool

#: What a record says about model values; everything else is schedule.
VALUE_FIELDS = ("test_accuracy", "test_loss", "mean_train_loss")


def _schedule(result):
    return [
        {key: value for key, value in dataclasses.asdict(record).items() if key not in VALUE_FIELDS}
        for record in result.rounds
    ]


def _no_arithmetic(model, spec):
    """:func:`repro.fl.training.train` without training: the start state,
    zero losses."""
    weights = spec["weights"]
    if isinstance(weights, np.ndarray):
        model.set_flat_weights(weights)
    else:
        for section in model.SECTIONS:
            model.set_flat_weights(weights[section], section=section)
    snapshot = model.get_flat_weights() if spec["freeze_at"] is not None else None
    return {
        "losses": [0.0] * len(spec["indices"]),
        "weights": {section: model.get_flat_weights(section) for section in model.SECTIONS},
        "optimizer": {"velocity": {}},
        "snapshot": snapshot,
    }


@contextmanager
def _arithmetic_stubbed():
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(training, "train", _no_arithmetic))
        stack.enter_context(
            mock.patch.object(SplitCNN, "evaluate", lambda self, x, y, batch_size=256: (0.0, 0.0))
        )
        yield


def _run(config):
    with build_experiment(config) as handle:
        return handle.run()


def _schedule_reads_no_value(config) -> bool:
    """The real run and the run without arithmetic (in this process) agree
    on every record field but the value fields."""
    real = _run(config)
    with _arithmetic_stubbed():
        stubbed = _run(config.with_overrides(shards=1))
    return _schedule(real) == _schedule(stubbed)


def _config(algorithm, scenario, seed, **overrides):
    return evaluation_config(
        "mnist",
        algorithm,
        "noniid",
        SCALES["smoke"],
        seed=seed,
        scenario=scenario,
        dtype="float32",
        **overrides,
    )


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    algorithm=st.sampled_from(available_algorithms()),
    scenario=st.sampled_from(SCENARIOS.names()),
    seed=st.integers(0, 10_000),
    transport=st.sampled_from(["stable", "lossy", "partition-storm"]),
    shards=st.sampled_from([1, 2]),
)
def test_no_scheduling_decision_reads_a_model_value(algorithm, scenario, seed, transport, shards):
    config = _config(
        algorithm,
        scenario,
        seed,
        rounds=2,
        train_size=256,
        test_size=32,
        transport=scenario_transport(transport, SCALES["smoke"]),
        shards=shards,
    )
    assert _schedule_reads_no_value(config), config.describe()


class _LossSelectingFederator(FedAvgFederator):
    """Selects the half of the clients whose last update had the lowest
    ``train_loss``: a scheduling decision that reads a model value."""

    algorithm_name = "loss-select"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._last_loss = {}

    def select_clients(self, round_number):
        pool = self.selectable_clients()
        ranked = sorted(pool, key=lambda cid: self._last_loss.get(cid, 0.0))
        return sorted(ranked[: max(1, len(pool) // 2)])

    def collect_contributions(self, state):
        contributions = super().collect_contributions(state)
        for client_id, result in state.results.items():
            self._last_loss[client_id] = result.train_loss
        return contributions


def test_the_property_rejects_a_federator_that_reads_a_loss():
    FEDERATORS.register("loss-select", _LossSelectingFederator, description="negative control")
    try:
        config = _config("loss-select", "stable", 42, rounds=3, train_size=256, test_size=32)
        assert not _schedule_reads_no_value(config)
    finally:
        FEDERATORS.unregister("loss-select")


# ---------------------------------------------------------------------------
# Computed once, where read; never for a voided round
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2])
def test_read_batches_run_once_and_voided_ones_never(shards):
    counts = {"drawn": 0, "read": 0, "parent": 0, "workers": 0}
    next_indices = BatchLoader.next_indices
    train_batch = SplitCNN.train_batch
    collect = AergiaFederator.collect_contributions
    submit = ShardPool.submit

    def drawing(loader):
        counts["drawn"] += 1
        return next_indices(loader)

    def training_here(model, x, y, optimizer=None):
        counts["parent"] += 1
        return train_batch(model, x, y, optimizer)

    def reading(federator, state):
        for client_id, result in state.results.items():
            if client_id in state.dropped_clients:
                continue
            counts["read"] += result.num_steps
            offload = state.offload_results.get(client_id)
            if result.offloaded_to is not None and offload is not None:
                counts["read"] += offload.batches_trained
        return collect(federator, state)

    def sending(pool, shard, job_id, payload):
        counts["workers"] += len(payload["indices"])
        return submit(pool, shard, job_id, payload)

    config = _config(
        "aergia",
        "churn",
        13,
        rounds=4,
        train_size=320,
        resources=ResourceConfig(scheme="explicit", explicit_speeds=(0.1, 0.8, 0.9, 1.0)),
        shards=shards,
    )
    with ExitStack() as stack:
        for owner, name, wrapper in (
            (BatchLoader, "next_indices", drawing),
            (SplitCNN, "train_batch", training_here),
            (AergiaFederator, "collect_contributions", reading),
            (ShardPool, "submit", sending),
        ):
            stack.enter_context(mock.patch.object(owner, name, wrapper))
        result = _run(config)

    assert result.summary()["total_offloads"] > 0, "config no longer offloads"
    assert sum(len(record.dropped_clients) for record in result.rounds) > 0, "nobody churned"
    assert counts["read"] < counts["drawn"], "no round was voided with batches drawn"
    # Every batch of a read result ran exactly once; nothing else ran.
    assert counts["parent"] + counts["workers"] == counts["read"]
    if shards == 2:
        assert counts["parent"] == 0, "the parent trained a plain model's batch"
    else:
        assert counts["workers"] == 0
