"""Sharded multi-process simulation: bitwise parity and integration.

The contract under test (docs/architecture.md, "Sharded simulation &
hierarchical federation"): partitioning the virtual cohort across worker
processes — with per-shard seeded RNG streams, edge aggregators and a
root federator merge — produces **bitwise identical** round records,
weights and summaries to the single-process run, for every registered
federator under stable and churn scenarios.  ``shards`` is therefore a
pure execution knob, excluded from ``run_key`` exactly
like ``pool_slots`` (only the opt-in ``shard_aggregate="partial"``
mode, which reorders the floating-point reduction, is hash-relevant).

Also pinned here: deterministic contiguous shard ownership
(:class:`ShardPlan`), a round's per-client jobs all submitted before the
first is collected, per-job cancellation on churn, worker-death respawn
with identical results, SIGKILL crash/resume byte-identity on the sharded
path, and bounded executor lifecycle (pool release).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal

import numpy as np
import pytest

import repro.api as api
from crash_harness import (
    assert_bitwise_resume,
    golden_run,
    read_rounds_bytes,
    run_and_crash,
)
from repro.api import RunStore, run, run_key
from repro.api.store import canonical_config
from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.runtime import (
    available_algorithms,
    build_experiment,
    uses_sharded_execution,
)
from repro.simulation.shard import (
    HierarchicalAggregator,
    ShardedClientExecutor,
    ShardPlan,
)


def _round_dicts(result):
    return [dataclasses.asdict(record) for record in result.rounds]


def _smoke_config(algorithm, partition, scenario, seed=42, **overrides):
    return evaluation_config(
        "mnist",
        algorithm,
        partition,
        SCALES["smoke"],
        seed=seed,
        scenario=scenario,
        dtype="float32",
        **overrides,
    )


def _run_with_stats(config):
    handle = build_experiment(config)
    result = handle.run()
    executor = handle.cluster.shard_executor
    return result, (dict(executor.stats) if executor is not None else None), handle


def _assert_bitwise_equal_runs(config_sharded, config_off):
    result_sharded, stats, handle = _run_with_stats(config_sharded)
    result_off, stats_off, _ = _run_with_stats(config_off)
    assert stats_off is None, "a single-process run must not install an executor"
    assert _round_dicts(result_sharded) == _round_dicts(result_off)
    assert json.dumps(result_sharded.summary(), sort_keys=True) == json.dumps(
        result_off.summary(), sort_keys=True
    )
    return result_sharded, stats, handle


# ---------------------------------------------------------------------------
# Shard ownership: deterministic, contiguous, O(1) lookup
# ---------------------------------------------------------------------------
class TestShardPlan:
    def test_ranges_are_contiguous_and_cover_everything(self):
        for num_clients, num_shards in [(10, 3), (100, 7), (4, 4), (5, 2), (9, 1)]:
            plan = ShardPlan(num_clients, num_shards)
            seen = []
            for shard in range(num_shards):
                owned = plan.owned(shard)
                seen.extend(owned)
                for cid in owned:
                    assert plan.shard_of(cid) == shard
            assert seen == list(range(num_clients))

    def test_split_matches_array_split_convention(self):
        # First (num_clients % num_shards) shards get the extra client —
        # the same convention as np.array_split, so sorted-cid order IS
        # shard-block concatenation order (the "exact" hierarchy relies
        # on this).
        plan = ShardPlan(10, 3)
        assert [len(plan.owned(s)) for s in range(3)] == [4, 3, 3]
        expected = np.array_split(np.arange(10), 3)
        for shard, block in enumerate(expected):
            assert list(plan.owned(shard)) == list(block)

    def test_out_of_range_client_rejected(self):
        plan = ShardPlan(10, 2)
        with pytest.raises(ValueError):
            plan.shard_of(10)
        with pytest.raises(ValueError):
            plan.shard_of(-1)


# ---------------------------------------------------------------------------
# The headline invariant: sharded == single-process, bitwise, everywhere
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scenario", ["stable", "churn"])
@pytest.mark.parametrize("algorithm", available_algorithms())
def test_sharded_run_is_bitwise_identical_to_single_process(algorithm, scenario):
    kwargs = dict(train_size=384)
    _assert_bitwise_equal_runs(
        _smoke_config(algorithm, "iid", scenario, shards=2, **kwargs),
        _smoke_config(algorithm, "iid", scenario, **kwargs),
    )


# Now pins: each client's round is one job on the worker that owns it, and
# a client that draws every batch adopts the worker's result.
def test_sharded_cohorts_really_run_on_workers():
    kwargs = dict(train_size=384)
    _, stats, handle = _assert_bitwise_equal_runs(
        _smoke_config("fedavg", "iid", "stable", shards=2, **kwargs),
        _smoke_config("fedavg", "iid", "stable", **kwargs),
    )
    assert isinstance(handle.cluster.shard_executor, ShardedClientExecutor)
    config = handle.config
    assert stats["shard_jobs"] == config.rounds * config.effective_clients_per_round
    assert stats["fast_materializations"] == stats["shard_jobs"]
    assert stats["edge_reduces"] > 0
    assert stats["root_merges"] > 0


def test_ragged_shard_counts_stay_bitwise():
    # 4 clients over 3 shards: ownership [2, 1, 1] — one worker gets twice
    # the jobs of the others.
    kwargs = dict(train_size=384)
    _, stats, _ = _assert_bitwise_equal_runs(
        _smoke_config("fedprox", "iid", "stable", shards=3, **kwargs),
        _smoke_config("fedprox", "iid", "stable", **kwargs),
    )
    assert stats["shard_jobs"] > 0


def test_more_shards_than_clients_per_round_is_fine():
    kwargs = dict(train_size=384)
    _assert_bitwise_equal_runs(
        _smoke_config("fedavg", "iid", "stable", shards=4, **kwargs),
        _smoke_config("fedavg", "iid", "stable", **kwargs),
    )


def test_a_rounds_jobs_are_all_submitted_before_the_first_is_collected():
    """A client's job goes out when its TRAIN_REQUEST arrives, and nothing
    is collected before a batch completion asks for a loss: the whole round
    is on the pipes — both workers busy — before the parent waits for
    anybody.  (The cohort dispatched a job per shard at its first wave and
    collected it at once: one worker ran while the parent waited.)"""
    config = _smoke_config("fedavg", "iid", "stable", shards=2, train_size=384)
    handle = build_experiment(config)
    executor = handle.cluster.shard_executor
    try:
        pool = executor.pool
        outstanding_at_collect = []
        pool_collect = pool.collect
        pool.collect = lambda shard, job_id: (
            outstanding_at_collect.append(len(pool._outstanding)),
            pool_collect(shard, job_id),
        )[1]
        handle.federator.start()
        handle.cluster.run()
    finally:
        executor.close()
    # The first collect of every round finds the whole round outstanding.
    per_round = config.effective_clients_per_round
    assert len(outstanding_at_collect) == config.rounds * per_round
    assert outstanding_at_collect[::per_round] == [per_round] * config.rounds


# ---------------------------------------------------------------------------
# Churn: events targeting clients owned by a remote shard
# ---------------------------------------------------------------------------
def test_churn_cancels_reach_the_owning_shard():
    # Seed 3: one of this churn trace's three mid-round disconnects lands
    # before its client's first loss was read, i.e. with the job uncollected
    # (which of them do is decided in sim-time, not by the workers' speed).
    kwargs = dict(train_size=384, rounds=4, seed=3)
    config_sharded = _smoke_config("fedavg", "iid", "churn", shards=2, **kwargs)
    config_off = _smoke_config("fedavg", "iid", "churn", **kwargs)

    # Drive the sharded run manually so the worker pool can be inspected
    # before the executor releases it.  Workers are cached across runs, so
    # their counters are cumulative: compare against a pre-run baseline.
    handle = build_experiment(config_sharded)
    executor = handle.cluster.shard_executor
    try:
        before = sum(
            entry["stats"]["cancels_received"]
            for entry in executor.pool.snapshot() or []
            if entry
        )
        handle.federator.start()
        handle.cluster.run()
        stats = dict(executor.stats)
        snapshot = executor.shard_snapshot()
        leaked = not executor.pool.idle()
    finally:
        executor.close()
    result_off, _, _ = _run_with_stats(config_off)
    assert _round_dicts(handle.federator.result) == _round_dicts(result_off)

    # Mid-round disconnects abandoned trainings whose job was on a worker:
    # every job ended exactly one way — adopted or abandoned — none leaked,
    # and an abandon with the job still uncollected told the owning shard.
    assert stats["abandons"] > 0
    assert stats["shard_jobs"] == stats["fast_materializations"] + stats["abandons"]
    assert 0 < stats["remote_cancels"] <= stats["abandons"]
    assert not leaked, "a job was neither collected nor cancelled"
    received = sum(
        entry["stats"]["cancels_received"]
        for entry in snapshot["workers"] or []
        if entry
    )
    assert received - before == stats["remote_cancels"]


def test_a_disconnect_cancels_only_that_clients_job():
    """A client that goes offline with its job still uncollected cancels
    that job and no other — the worker that owns it hears of exactly one
    cancel, the other worker of none: the round's remaining jobs are
    collected as if nothing had happened, and the run matches the
    single-process one driven through the same disconnect."""
    victim = 1

    def cancels_received(pool):
        return [entry["stats"]["cancels_received"] if entry else 0 for entry in pool.snapshot()]

    def everyone_is_training(handle):
        clients = handle.active_clients()
        return bool(clients) and all(c._pending_batch_event is not None for c in clients)

    def drive(config):
        handle = build_experiment(config)
        executor = handle.cluster.shard_executor
        cancelled, survivors, heard = [], None, None
        try:
            if executor is not None:
                pool = executor.pool
                heard_before = cancels_received(pool)
                pool_cancel = pool.cancel
                pool.cancel = lambda shard, job_id: (
                    cancelled.append((shard, job_id)),
                    pool_cancel(shard, job_id),
                )
            handle.federator.start()
            # Up to the arrival of every TRAIN_REQUEST: all jobs submitted,
            # no batch completed, nothing collected.
            while not everyone_is_training(handle):
                assert handle.cluster.env.step()
            if executor is not None:
                before = dict(pool._outstanding)
            handle.cluster.set_client_offline(victim)
            if executor is not None:
                survivors = (before, dict(pool._outstanding))
            handle.cluster.set_client_online(victim)
            handle.cluster.run()
            if executor is not None:
                # Cached workers count over their lifetime: the difference.
                heard = [
                    now - then for now, then in zip(cancels_received(pool), heard_before)
                ]
            stats = dict(executor.stats) if executor is not None else None
        finally:
            if executor is not None:
                executor.close()
        return handle.federator.result, stats, cancelled, survivors, heard

    kwargs = dict(train_size=384)
    sharded, stats, cancelled, (before, after), heard = drive(
        _smoke_config("fedavg", "iid", "stable", shards=2, **kwargs)
    )
    flat = drive(_smoke_config("fedavg", "iid", "stable", **kwargs))[0]
    assert _round_dicts(sharded) == _round_dicts(flat)
    owner = ShardPlan(4, 2).shard_of(victim)
    assert len(before) == 4 and len(cancelled) == 1
    assert cancelled[0][0] == owner
    assert set(before) - set(after) == set(cancelled)
    assert stats["remote_cancels"] == 1 and stats["abandons"] == 1
    assert heard == [int(shard == owner) for shard in range(2)]
    # The cancelled job's reply, whenever it came, answered nobody: every
    # other job of the run was adopted.
    assert stats["shard_jobs"] == 2 * 4
    assert stats["fast_materializations"] == stats["shard_jobs"] - 1


# ---------------------------------------------------------------------------
# Worker failure: SIGKILLed worker respawns, results unchanged
# ---------------------------------------------------------------------------
def test_worker_sigkill_mid_run_respawns_and_stays_bitwise():
    kwargs = dict(train_size=384, rounds=3)
    config_off = _smoke_config("fedavg", "iid", "stable", **kwargs)
    config_on = _smoke_config(
        "fedavg", "iid", "stable", shards=2, **kwargs
    )
    golden, _, _ = _run_with_stats(config_off)

    handle = build_experiment(config_on)
    executor = handle.cluster.shard_executor
    killed = []

    def kill_worker(record):
        if not killed:
            pid = executor.pool.worker_pid(0)
            os.kill(pid, signal.SIGKILL)
            # Join so the death lands before the next round dispatches:
            # the respawn path, not scheduling luck, is what's under test.
            executor.pool._workers[0].process.join(timeout=30)
            killed.append(pid)

    handle.federator.result.add_round_listener(kill_worker)
    result = handle.run()
    assert killed, "the kill listener never fired"
    stats = dict(executor.stats)
    assert stats["worker_restarts"] >= 1
    assert _round_dicts(result) == _round_dicts(golden)


# ---------------------------------------------------------------------------
# Crash/resume: SIGKILL on the sharded path, byte-identical continuation
# ---------------------------------------------------------------------------
def test_sharded_sigkill_crash_resumes_bitwise_identical(tmp_path):
    """A sharded run crash-resumed must converge to the same bytes as an
    uninterrupted *single-process* run: checkpoints carry only the merged
    shard bookkeeping, never worker state (workers are stateless)."""
    base = dict(checkpoint_interval=1, rounds=4, train_size=384)
    config_off = (
        api.experiment("fedavg")
        .dataset("mnist")
        .partition("iid")
        .scale("smoke")
        .scenario("stable")
        .seed(7)
        .override(**base)
        .build()
    )
    config_sharded = config_off.with_overrides(shards=2)
    golden_store = RunStore(tmp_path / "golden")
    golden = run(config_off, store=golden_store).result()

    store_dir = tmp_path / "crashed"
    run_and_crash(config_sharded, store_dir, crash_round=2)
    store = RunStore(store_dir)
    resumed = run(config_sharded, store=store, resume=True)
    result = resumed.result()
    assert resumed.resumed_from_round is not None, "run did not resume"
    assert _round_dicts(result) == _round_dicts(golden)
    key = run_key(config_sharded)
    assert key == run_key(config_off)
    assert read_rounds_bytes(store.root, key) == read_rounds_bytes(golden_store.root, key)


def test_worker_sigkill_with_outstanding_jobs_then_crash_resumes_bitwise(tmp_path):
    """The worker of a shard dies holding several uncollected per-client
    jobs (all re-dispatched to its replacement), the run goes on, is
    SIGKILLed itself two rounds later and resumed: still the bytes of an
    uninterrupted single-process run."""
    base = dict(checkpoint_interval=1, rounds=4, train_size=384)
    config_flat = _smoke_config("fedavg", "iid", "stable", seed=7, **base)
    config_sharded = config_flat.with_overrides(shards=2)
    golden, golden_store = golden_run(config_flat, tmp_path)

    store_dir = tmp_path / "crashed"
    marker = tmp_path / "worker-killed"
    run_and_crash(config_sharded, store_dir, crash_round=2, kill_worker_marker=marker)
    assert int(marker.read_text()) >= 2, "the worker died with fewer than two jobs outstanding"
    store = RunStore(store_dir)
    resumed = run(config_sharded, store=store, resume=True)
    assert_bitwise_resume(config_sharded, golden, golden_store, resumed, store)


def test_shard_snapshot_round_trips_through_checkpoint():
    config = _smoke_config(
        "fedavg", "iid", "stable", shards=2, train_size=384
    )
    _, stats, handle = _run_with_stats(config)
    executor = handle.cluster.shard_executor
    snapshot = executor.shard_snapshot()
    assert snapshot["num_shards"] == 2
    assert snapshot["aggregate_mode"] == "exact"
    assert len(snapshot["shard_seeds"]) == 2
    assert snapshot["stats"]["shard_jobs"] == stats["shard_jobs"]

    # Restoring merges the persisted counters into a fresh executor.
    fresh = ShardedClientExecutor(
        num_shards=2,
        num_clients=config.num_clients,
        architecture=config.architecture,
        seed=config.seed,
    )
    try:
        assert fresh._shard_seeds == executor._shard_seeds  # seed-derived
        fresh.restore_shard_snapshot(snapshot)
        assert fresh.stats["shard_jobs"] == stats["shard_jobs"]
        fresh.restore_shard_snapshot(None)  # unsharded snapshot: no-op
    finally:
        fresh.close()


# ---------------------------------------------------------------------------
# Hierarchical aggregation: exact vs partial
# ---------------------------------------------------------------------------
def test_exact_hierarchy_is_bitwise_flat_reduction():
    rng = np.random.default_rng(0)
    rows = [rng.standard_normal(32).astype(np.float32) for _ in range(6)]
    sizes = [3, 1, 4, 1, 5, 9]
    client_ids = [0, 1, 2, 5, 7, 9]
    from repro.fl.aggregation import fedavg_aggregate_flat

    stats = {"edge_reduces": 0, "root_merges": 0}
    hierarchy = HierarchicalAggregator(ShardPlan(10, 3), "exact", stats)
    merged = hierarchy.aggregate_flat(rows, sizes, client_ids)
    flat = fedavg_aggregate_flat(rows, sizes)
    np.testing.assert_array_equal(merged, flat)
    assert stats["root_merges"] == 1


def test_partial_hierarchy_is_close_but_need_not_be_bitwise():
    rng = np.random.default_rng(1)
    rows = [rng.standard_normal(64).astype(np.float32) for _ in range(8)]
    sizes = [2, 3, 5, 7, 1, 4, 6, 8]
    client_ids = list(range(8))
    from repro.fl.aggregation import fedavg_aggregate_flat

    stats = {"edge_reduces": 0, "root_merges": 0}
    hierarchy = HierarchicalAggregator(ShardPlan(8, 3), "partial", stats)
    merged = hierarchy.aggregate_flat(rows, sizes, client_ids)
    flat = fedavg_aggregate_flat(rows, sizes)
    np.testing.assert_allclose(merged, flat, rtol=1e-5, atol=1e-6)
    assert stats["edge_reduces"] == 3  # one partial per owning shard


def test_partial_mode_runs_close_to_exact():
    config_exact = _smoke_config(
        "fedavg", "iid", "stable", shards=2, train_size=384
    )
    config_partial = config_exact.with_overrides(shard_aggregate="partial")
    result_exact, _, _ = _run_with_stats(config_exact)
    result_partial, stats, _ = _run_with_stats(config_partial)
    assert stats["edge_reduces"] > 0
    summary_exact = result_exact.summary()
    summary_partial = result_partial.summary()
    assert summary_exact.keys() == summary_partial.keys()
    np.testing.assert_allclose(
        summary_partial["final_accuracy"],
        summary_exact["final_accuracy"],
        atol=1e-3,
    )


# ---------------------------------------------------------------------------
# Hashing: shards is an execution knob; partial mode is hash-relevant
# ---------------------------------------------------------------------------
def test_shards_are_excluded_from_run_key():
    config = _smoke_config("fedavg", "iid", "stable")
    sharded = config.with_overrides(shards=4)
    assert run_key(config) == run_key(sharded)
    canonical = canonical_config(sharded)
    assert "shards" not in canonical
    assert "shard_aggregate" not in canonical


def test_partial_aggregation_changes_the_run_key():
    config = _smoke_config("fedavg", "iid", "stable", shards=2)
    partial = config.with_overrides(shard_aggregate="partial")
    assert run_key(config) != run_key(partial)
    canonical = canonical_config(partial)
    # Partial reductions depend on the shard topology, so both knobs are
    # part of the identity in that mode.
    assert canonical["shard_aggregate"] == "partial"
    assert canonical["shards"] == 2


def test_config_validation_rejects_bad_shard_knobs():
    with pytest.raises(ValueError, match="shards"):
        _smoke_config("fedavg", "iid", "stable", shards=0)
    with pytest.raises(ValueError, match="shard_aggregate"):
        _smoke_config("fedavg", "iid", "stable", shard_aggregate="fuzzy")


# ---------------------------------------------------------------------------
# Gating: when the sharded executor is (not) installed
# ---------------------------------------------------------------------------
def test_sharded_execution_gating():
    base = _smoke_config("fedavg", "iid", "stable")
    assert not uses_sharded_execution(base)  # shards=1
    assert build_experiment(base).cluster.shard_executor is None
    # Nothing else gates it: a 4-client round shards like a 32-client one.
    assert uses_sharded_execution(base.with_overrides(shards=2))
    # Async federators checkpoint clients in mid-training: sharding is inert.
    for algorithm in ("fedbuff", "fedasync"):
        config = _smoke_config(algorithm, "iid", "stable", shards=2)
        assert not uses_sharded_execution(config)
        handle = build_experiment(config)
        assert not isinstance(handle.cluster.shard_executor, ShardedClientExecutor)


def test_executor_pool_is_released_after_run():
    from repro.simulation import shard as shard_mod

    config = _smoke_config(
        "fedavg", "iid", "stable", shards=2, train_size=384
    )
    _, _, handle = _run_with_stats(config)
    executor = handle.cluster.shard_executor
    # run() closed the executor; its pool slot is back in the cache (or
    # closed), and the executor no longer references it.
    assert executor._pool is None
    cached = shard_mod._POOL_CACHE.get(2)
    if cached is not None:
        assert cached.idle()
