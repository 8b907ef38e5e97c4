"""Run lifetime: a finished run gives back what it built.

The contract under test (docs/architecture.md, "Run lifetime"):
``ExperimentHandle.close()`` empties the hubs of the experiment's ownership
cycles, so reference counting alone frees the dataset, the models and the
pool; ``RunHandle`` closes its experiment however the stream ends, so a
process that runs experiments one after another — an in-process sweep, a
``repro serve`` session list — holds the memory of its largest run, not of
all of them.  Every test here runs with the cyclic collector *disabled*:
what it would eventually free does not count.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.api as api
from crash_harness import assert_bitwise_resume, golden_run, read_rounds_bytes, round_dicts
from repro.api import RunStore, run, run_key
from repro.fl.runtime import build_experiment
from repro.serve.protocol import record_line
from repro.serve.session import SessionManager

#: ``city`` has the 8000-sample training set whose accumulation the issue
#: measured; everything else is as small as a cell of the e2e sweep grid.
CITY_SIZES = dict(clients_per_round=8, local_updates=2, profile_batches=1, test_size=64)


@pytest.fixture
def no_collector():
    """Start from a collected heap, then keep the collector off."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _spec(algorithm, scenario, scale="smoke", seed=3, **overrides):
    return (
        api.experiment(algorithm)
        .dataset("mnist")
        .partition("noniid")
        .scale(scale)
        .scenario(scenario)
        .seed(seed)
        .dtype("float32")
        .override(**overrides)
    )


def _live_numpy_bytes() -> int:
    """Bytes of the numpy buffers alive right now (tracemalloc must be on)."""
    numpy_only = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    snapshot = tracemalloc.take_snapshot().filter_traces([numpy_only])
    return sum(trace.size for trace in snapshot.traces)


def _watch(experiment):
    """Weak references to what a finished run must not keep alive."""
    client = experiment.pool.hydrated_clients()[0]
    return {
        "dataset images": weakref.ref(experiment.pool.dataset.x_train),
        # Clients own no model: every job of the run trains on this one.
        "training model vector": weakref.ref(
            experiment.cluster.trainer.model.flat_parameters("features")
        ),
        "client data shard": weakref.ref(client.loader.x),
        "pool": weakref.ref(experiment.pool),
    }


def _alive(watched):
    return [name for name, ref in watched.items() if ref() is not None]


# ---------------------------------------------------------------------------
# ExperimentHandle.close()
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "algorithm, scenario",
    [("fedavg", "stable"), ("fedasync", "lossy-churn"), ("aergia", "churn")],
)
def test_close_leaves_the_experiment_to_reference_counting(algorithm, scenario, no_collector):
    handle = build_experiment(_spec(algorithm, scenario, rounds=2).build())
    handle.run()
    watched = _watch(handle)
    assert handle.federator.result.rounds
    handle.close()
    del handle
    assert _alive(watched) == []


def test_close_is_idempotent_and_a_context_manager(no_collector):
    config = _spec("fedavg", "churn", rounds=1).build()

    unstarted = build_experiment(config)
    unstarted.pool.hydrate(0)
    watched = _watch(unstarted)
    unstarted.close()  # before run()
    unstarted.close()  # twice
    del unstarted
    assert _alive(watched) == []

    with build_experiment(config) as handle:
        result = handle.run()
        watched = _watch(handle)
        # run() itself does not close: the handle stays inspectable.
        assert handle.pool.describe()["hydrations"] > 0
        assert handle.federator.result is result
    assert handle.pool.describe()["hydrated"] == 0
    assert handle.federator.result is result  # the result outlives close()
    del handle
    assert _alive(watched) == []


# ---------------------------------------------------------------------------
# RunHandle: the stream closes its experiment however it ends
# ---------------------------------------------------------------------------
def test_run_handle_lets_go_and_changes_nothing_it_returns(tmp_path, no_collector):
    config = _spec("aergia", "churn", rounds=3).build()
    with build_experiment(config) as blocking:
        reference = blocking.run()

    handle = run(config, store=tmp_path)
    stream = handle.stream()
    next(stream)
    watched = _watch(handle.experiment)  # set while the stream runs
    result = handle.result()
    assert handle.experiment is None
    assert _alive(watched) == []

    assert round_dicts(result) == round_dicts(reference)
    assert json.dumps(handle.summary(), sort_keys=True) == json.dumps(
        reference.summary(), sort_keys=True
    )
    stored = read_rounds_bytes(tmp_path, run_key(config)).decode()
    assert stored == "".join(record_line(record) + "\n" for record in reference.rounds)


def test_abandoned_stream_releases_and_resumes_bit_exact(tmp_path, no_collector):
    config = _spec("fedavg", "churn", rounds=4, checkpoint_interval=1).build()
    golden, golden_store = golden_run(config, tmp_path)

    store = RunStore(tmp_path / "abandoned")
    handle = run(config, store=store)
    stream = handle.stream()
    next(stream)
    watched = _watch(handle.experiment)
    stream.close()  # the generator is dropped after round 1
    assert handle.experiment is None
    assert _alive(watched) == []
    resumed = run(config, store=store, resume=True)
    assert_bitwise_resume(config, golden, golden_store, resumed, store)
    assert resumed.experiment is None


def test_checkpoint_drain_releases_and_resumes_bit_exact(tmp_path, no_collector):
    config = _spec("fedavg", "churn", rounds=4, checkpoint_interval=1).build()
    golden, golden_store = golden_run(config, tmp_path)

    store = RunStore(tmp_path / "drained")
    handle = run(config, store=store)
    stream = handle.stream()
    next(stream)
    watched = _watch(handle.experiment)
    handle.request_stop("checkpoint")
    drained = list(stream)
    assert handle.stopped and len(drained) < 3
    assert handle.experiment is None
    assert _alive(watched) == []
    resumed = run(config, store=store, resume=True)
    assert_bitwise_resume(config, golden, golden_store, resumed, store)
    assert resumed.experiment is None


def test_failed_stream_releases(tmp_path, no_collector):
    config = _spec("fedavg", "churn", rounds=3).build()

    def exploding(record):
        raise RuntimeError("boom")

    handle = run(config, store=tmp_path, on_round=exploding)
    with pytest.raises(RuntimeError):
        handle.result()
    assert handle.experiment is None


# ---------------------------------------------------------------------------
# Run sequences hold one run's memory, not their sum
# ---------------------------------------------------------------------------
#: tifl goes first: its profiling batch is the largest kernel pass of the
#: grid, and the thread's scratch workspace — sized by the largest pass of the
#: process, by design — is then at its final size after the first cell.
SWEEP_CELLS = (
    ("tifl", "churn"),
    ("fedavg", "lossy-churn"),
    ("fedprox", "mega-churn"),
    ("deadline", "straggler-burst"),
    ("fedasync", "lossy-churn"),
    ("fedbuff", "partition-storm"),
)


def test_in_process_sweep_holds_one_cell_not_six(tmp_path, no_collector):
    specs = {
        f"{algorithm}/{scenario}": _spec(
            algorithm, scenario, scale="city", seed=100 + index, rounds=2, **CITY_SIZES
        )
        for index, (algorithm, scenario) in enumerate(SWEEP_CELLS)
    }
    live = []
    tracemalloc.start()
    try:
        swept = api.sweep(
            specs, store=tmp_path, progress=lambda label, result: live.append(_live_numpy_bytes())
        )
    finally:
        tracemalloc.stop()
    assert sorted(swept.states.values()) == ["complete"] * len(SWEEP_CELLS)
    # At the parent every finished cell left its 25 MB dataset behind.
    assert max(live) <= 1.2 * live[0], [round(size / 1e6, 1) for size in live]


def test_finished_sessions_do_not_pin_their_experiments(tmp_path, no_collector):
    """``repro serve`` keeps every session for ``GET /runs``; it must not
    keep what the run built (it did: +29 MB of RSS per finished run)."""
    manager = SessionManager(RunStore(tmp_path), workers=1)
    live = []
    tracemalloc.start()
    try:
        for seed in range(4):
            # Two rounds: the thread's scratch workspace takes its final size
            # at the second evaluation, and the first run is the yardstick.
            spec = _spec("fedavg", "churn", scale="city", seed=seed, rounds=2, **CITY_SIZES)
            hosted, created = manager.submit(spec.build())
            assert created and hosted.wait_terminal(timeout=120)
            assert hosted.state == "complete", hosted.error
            assert hosted.handle.experiment is None
            live.append(_live_numpy_bytes())
    finally:
        tracemalloc.stop()
        manager.drain(timeout=30)
    assert len(manager.sessions()) == 4 and manager.stats()["sessions"] == {"complete": 4}
    assert [hosted.snapshot()["rounds"] for hosted in manager.sessions()] == [2] * 4
    assert max(live) <= 1.2 * live[0], [round(size / 1e6, 1) for size in live]
