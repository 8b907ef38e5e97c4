"""Sharded multi-process simulation: bitwise parity and integration.

The contract under test (docs/architecture.md, "Sharded simulation"):
training each client on the worker process that owns it produces
**bitwise identical** round records, weights and summaries to the
single-process run, for every registered federator under stable and
churn scenarios.  ``shards`` is therefore a pure execution knob, excluded
from ``run_key`` exactly like ``pool_slots``.

Also pinned here: deterministic contiguous shard ownership
(:class:`ShardPlan`), a round's per-client jobs all submitted before the
first is collected, a churned client's job never sent, worker-death respawn
with identical results, a worker's error reply reaching ``collect``,
SIGKILL crash/resume byte-identity on the sharded path, the retired
``shard_aggregate`` key, and bounded executor lifecycle (pool release).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import threading

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
from repro.api.store import CHECKPOINT_NAME, canonical_config
from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.checkpoint import CHECKPOINT_FORMAT, load_checkpoint, write_checkpoint
from repro.fl.config import ExperimentConfig, config_from_dict, config_to_dict
from repro.fl.runtime import (
    available_algorithms,
    build_experiment,
    uses_sharded_execution,
)
from repro.simulation.shard import (
    ShardedClientExecutor,
    ShardPlan,
    ShardPool,
    ShardWorkerError,
)


def _round_dicts(result):
    return [dataclasses.asdict(record) for record in result.rounds]


def _smoke_config(algorithm, partition, scenario, seed=42, **overrides):
    """A smoke config that runs in this process unless it names ``shards``:
    the reference leg of every parity case here is the single-process run."""
    overrides.setdefault("shards", 1)
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
        # shard-block concatenation order.
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


# Now pins: each client's round is one job on the worker that owns it,
# sent when the round aggregates — one job per result read, nothing in the
# parent.
def test_sharded_cohorts_really_run_on_workers():
    kwargs = dict(train_size=384)
    _, stats, handle = _assert_bitwise_equal_runs(
        _smoke_config("fedavg", "iid", "stable", shards=2, **kwargs),
        _smoke_config("fedavg", "iid", "stable", **kwargs),
    )
    assert isinstance(handle.cluster.shard_executor, ShardedClientExecutor)
    config = handle.config
    assert stats["shard_jobs"] == config.rounds * config.effective_clients_per_round
    assert stats["fallbacks"] == 0


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
    """A round's jobs go out together where they are first read — at
    aggregation — and only then is anything collected: the whole round is
    on the pipes — both workers busy — before the parent waits for
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
# Now pins: a client that disconnects mid-round has its job dropped
# unread — there is nothing to cancel: every job sent is a result the round
# aggregated (one per completed client), nothing stays outstanding, and the
# run equals the single-process one.
def test_churn_cancels_reach_the_owning_shard():
    # Seed 3: this churn trace has three mid-round disconnects.
    kwargs = dict(train_size=384, rounds=4, seed=3)
    config_sharded = _smoke_config("fedavg", "iid", "churn", shards=2, **kwargs)
    config_off = _smoke_config("fedavg", "iid", "churn", **kwargs)

    # Drive the sharded run manually so the worker pool can be inspected
    # before the executor releases it.
    handle = build_experiment(config_sharded)
    executor = handle.cluster.shard_executor
    try:
        handle.federator.start()
        handle.cluster.run()
        stats = dict(executor.stats)
        leaked = not executor.pool.idle()
    finally:
        executor.close()
    result_off, _, _ = _run_with_stats(config_off)
    result = handle.federator.result
    assert _round_dicts(result) == _round_dicts(result_off)

    assert sum(len(record.dropped_clients) for record in result.rounds) > 0
    assert stats["shard_jobs"] == sum(len(record.completed_clients) for record in result.rounds)
    assert not leaked, "a job was sent and never collected"


# Now pins: a client that goes offline mid-round with its job unread is
# left out of the round's read and nobody else is: the round's remaining
# jobs go to their workers as if nothing had happened, the victim's is
# never sent, and the run matches the single-process one driven through
# the same disconnect.
def test_a_disconnect_cancels_only_that_clients_job():
    victim = 1

    def everyone_is_training(handle):
        clients = handle.active_clients()
        return bool(clients) and all(c._pending_batch_event is not None for c in clients)

    def drive(config):
        handle = build_experiment(config)
        executor = handle.cluster.shard_executor
        reads, stats = [], None
        try:
            if executor is not None:
                executor_run = executor.run
                executor.run = lambda jobs: (
                    reads.append([job.client_id for job in jobs]),
                    executor_run(jobs),
                )
            handle.federator.start()
            # Up to the arrival of every TRAIN_REQUEST: every client has
            # drawn its first batch, nothing has been read.
            while not everyone_is_training(handle):
                assert handle.cluster.env.step()
            assert reads == []
            handle.cluster.set_client_offline(victim)
            handle.cluster.set_client_online(victim)
            handle.cluster.run()
            stats = dict(executor.stats) if executor is not None else None
        finally:
            if executor is not None:
                executor.close()
        return handle.federator.result, stats, reads

    kwargs = dict(train_size=384)
    sharded, stats, reads = drive(_smoke_config("fedavg", "iid", "stable", shards=2, **kwargs))
    flat = drive(_smoke_config("fedavg", "iid", "stable", **kwargs))[0]
    assert _round_dicts(sharded) == _round_dicts(flat)
    assert sharded.rounds[0].dropped_clients == [victim]
    # One read per round; the victim's first round is in none of them.
    assert reads == [[0, 2, 3], [0, 1, 2, 3]]
    assert stats["shard_jobs"] == 2 * 4 - 1


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
            executor.pool._workers[0].process.wait(timeout=30)
            killed.append(pid)

    handle.federator.result.add_round_listener(kill_worker)
    result = handle.run()
    assert killed, "the kill listener never fired"
    stats = dict(executor.stats)
    assert stats["worker_restarts"] >= 1
    assert _round_dicts(result) == _round_dicts(golden)


def test_a_worker_error_read_by_snapshot_still_reaches_collect():
    """``snapshot()`` reads a worker's pipe up to its own reply; an error
    reply it meets on the way is kept for the job's ``collect``, which
    raises it instead of waiting for a reply that will not come."""
    pool = ShardPool(1)
    outcome = []

    def collect():
        try:
            outcome.append(pool.collect(0, job_id))
        except ShardWorkerError as exc:
            outcome.append(exc)

    job_id = pool.new_job_id()
    pool.submit(0, job_id, {"architecture": "no-such-net", "dtype": "float32"})
    assert pool._workers[0].conn.poll(60), "the worker never replied"
    (info,) = pool.snapshot()
    assert info["stats"]["jobs"] == 1
    waiter = threading.Thread(target=collect, daemon=True)
    waiter.start()
    waiter.join(timeout=30)
    # A collect() still waiting keeps its pool open: closing the pipe under
    # it would have it respawn the worker and re-dispatch the job.
    assert not waiter.is_alive(), "collect() never returned"
    pool.close()
    (error,) = outcome
    assert isinstance(error, ShardWorkerError) and "no-such-net" in str(error)
    assert pool.idle()


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
        .override(shards=1, **base)
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


# Now pins: a format-4 snapshot that still has the ``"shard"`` section
# (which checkpoints carried until the section was deleted) resumes
# byte-identically.
def test_shard_snapshot_round_trips_through_checkpoint(tmp_path):
    base = dict(checkpoint_interval=1, rounds=4, train_size=384)
    config_flat = _smoke_config("fedavg", "iid", "stable", seed=7, **base)
    config_sharded = config_flat.with_overrides(shards=2)
    golden, golden_store = golden_run(config_flat, tmp_path)

    store = RunStore(tmp_path / "drained")
    handle = run(config_sharded, store=store)
    stream = handle.stream()
    next(stream)
    handle.request_stop("checkpoint")
    for _record in stream:
        pass
    assert handle.stopped
    key = run_key(config_sharded)
    path = store.run_dir(key) / CHECKPOINT_NAME
    snapshot = load_checkpoint(path, run_key=key)
    assert snapshot["format"] == CHECKPOINT_FORMAT == 4
    assert "shard" not in snapshot
    snapshot["shard"] = {
        "num_shards": 2,
        "aggregate_mode": "exact",
        "seed": 7,
        "shard_seeds": [1234, 5678],
        "stats": {"shard_jobs": 4, "remote_cancels": 0, "edge_reduces": 2},
        "workers": [{"shard": 0, "pid": 1, "stats": {"jobs": 2}, "maxrss_kb": 1}, None],
    }
    write_checkpoint(path, snapshot)

    resumed = run(config_sharded, store=store, resume=True)
    assert_bitwise_resume(config_sharded, golden, golden_store, resumed, store)


# ---------------------------------------------------------------------------
# The retired ``shard_aggregate`` key: "exact" loads, "partial" is refused
# ---------------------------------------------------------------------------
# Now pins: a stored manifest that still has ``"shard_aggregate": "exact"``
# (every manifest written while the field existed) loads to the same run_key.
def test_exact_hierarchy_is_bitwise_flat_reduction(tmp_path):
    config = _smoke_config("fedavg", "iid", "stable", train_size=384, rounds=1)
    key = run_key(config)
    run(config, store=RunStore(tmp_path)).result()
    manifest_path = RunStore(tmp_path).run_dir(key) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["shard_aggregate"] = "exact"
    manifest_path.write_text(json.dumps(manifest))

    store = RunStore(tmp_path)
    (stored,) = store.scan()["complete"]
    assert stored.config_hash == key
    assert run_key(stored.load_config()) == key
    assert store.get(config).complete


# Now pins: ``config_from_dict`` refuses ``"partial"`` — a different float
# reduction order, never the run the current code would compute.
def test_partial_hierarchy_is_close_but_need_not_be_bitwise():
    payload = config_to_dict(_smoke_config("fedavg", "iid", "stable", shards=2))
    with pytest.raises(ValueError, match="shard_aggregate='partial'"):
        config_from_dict(dict(payload, shard_aggregate="partial"))
    assert config_from_dict(dict(payload, shard_aggregate="exact")) == config_from_dict(payload)


# Now pins: ``POST /runs`` answers 422 ``invalid_spec`` to ``"partial"``,
# and takes ``"exact"`` as the run without the key.
def test_partial_mode_runs_close_to_exact(tmp_path):
    import http.client

    from repro.serve.protocol import ERR_INVALID_SPEC, parse_spec_payload
    from repro.serve.server import ExperimentServer

    spec = {"algorithm": "fedavg", "scale": "smoke", "overrides": {"shards": 2}}
    server = ExperimentServer(tmp_path, workers=1)
    server.start_background()
    try:
        conn = http.client.HTTPConnection(*server.address, timeout=60)
        legacy = dict(spec, overrides=dict(spec["overrides"], shard_aggregate="partial"))
        conn.request("POST", "/runs", body=json.dumps({"spec": legacy}).encode())
        response = conn.getresponse()
        doc = json.loads(response.read())
        conn.close()
    finally:
        server.close()
    assert response.status == 422
    assert doc["error"] == ERR_INVALID_SPEC and "shard_aggregate" in doc["message"]
    assert list(tmp_path.iterdir()) == []
    exact = dict(spec, overrides=dict(spec["overrides"], shard_aggregate="exact"))
    assert parse_spec_payload(exact) == parse_spec_payload(spec)


# Now pins: ``shard_aggregate`` is no field of the config any more.
def test_partial_aggregation_changes_the_run_key():
    spec = api.experiment("fedavg").scale("smoke").override(shard_aggregate="exact")
    with pytest.raises(TypeError, match="shard_aggregate"):
        spec.build()
    assert "shard_aggregate" not in {field.name for field in dataclasses.fields(ExperimentConfig)}


# ---------------------------------------------------------------------------
# Hashing: shards is an execution knob
# ---------------------------------------------------------------------------
def test_shards_are_excluded_from_run_key():
    config = _smoke_config("fedavg", "iid", "stable")
    sharded = config.with_overrides(shards=4)
    assert run_key(config) == run_key(sharded) == run_key(config.with_overrides(shards=None))
    canonical = canonical_config(sharded)
    assert "shards" not in canonical
    assert "shard_aggregate" not in canonical


def test_config_validation_rejects_bad_shard_knobs():
    with pytest.raises(ValueError, match="shards"):
        _smoke_config("fedavg", "iid", "stable", shards=0)
    # The aggregation mode is no knob any more: an unknown field.
    with pytest.raises(TypeError, match="shard_aggregate"):
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


def test_an_unset_shards_is_one_worker_per_usable_core(monkeypatch):
    from repro.fl import runtime

    config = _smoke_config("fedavg", "iid", "stable", shards=None)  # 4 clients/round
    monkeypatch.setattr(runtime, "blas_threads", lambda: 1)
    monkeypatch.setattr(runtime, "usable_cores", lambda: 1)
    assert runtime.resolved_shards(config) == 1
    assert not uses_sharded_execution(config)
    assert build_experiment(config).cluster.shard_executor is None
    monkeypatch.setattr(runtime, "usable_cores", lambda: 2)
    assert runtime.resolved_shards(config) == 2
    assert uses_sharded_execution(config)
    # Capped at the clients a round trains: a fifth worker would own no job.
    monkeypatch.setattr(runtime, "usable_cores", lambda: 64)
    assert runtime.resolved_shards(config) == config.effective_clients_per_round == 4
    # A core per BLAS thread: a BLAS pool as wide as the host is this
    # process's already.
    monkeypatch.setattr(runtime, "usable_cores", lambda: 2)
    monkeypatch.setattr(runtime, "blas_threads", lambda: 2)
    assert runtime.resolved_shards(config) == 1
    monkeypatch.undo()
    for pinned, cores in (({"OPENBLAS_NUM_THREADS": "1"}, 1), ({"OMP_NUM_THREADS": "3"}, 3), ({}, runtime.usable_cores())):
        for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in pinned.items():
            monkeypatch.setenv(name, value)
        assert runtime.blas_threads() == cores
    # A value that is set always wins, and none of them moves the run key.
    for shards in (1, 3):
        assert runtime.resolved_shards(config.with_overrides(shards=shards)) == shards
        assert run_key(config.with_overrides(shards=shards)) == run_key(config)
    assert not uses_sharded_execution(_smoke_config("fedasync", "iid", "stable", shards=None))


def test_hosted_runs_and_pool_swept_cells_fill_in_one_shard(tmp_path, monkeypatch):
    """A hosted run keeps an unset ``shards`` in the server's process, and a
    pooled sweep cell gets the cores its pool leaves over (one each when
    the pool holds them all); an explicit value still wins.  Nothing is
    spawned."""
    from repro.experiments.scheduler import SweepScheduler
    from repro.serve.session import SessionManager

    unset = _smoke_config("fedavg", "iid", "stable", shards=None)
    manager = SessionManager(RunStore(tmp_path), workers=1)
    monkeypatch.setattr(manager._pool, "submit", lambda *args: None)  # host, never drive
    try:
        hosted, _ = manager.submit(unset)
        asked, _ = manager.submit(unset.with_overrides(shards=2, seed=43))
    finally:
        manager._pool.shutdown()
    assert (hosted.handle.config.shards, asked.handle.config.shards) == (1, 2)

    sent = []

    class _Pool:
        def submit(self, fn, label, config, *rest):
            sent.append(config.shards)

    from repro.fl import runtime

    monkeypatch.setattr(runtime, "usable_cores", lambda: 2)
    monkeypatch.setattr(runtime, "blas_threads", lambda: 1)
    cells = {"unset": unset, "asked": unset.with_overrides(shards=2, seed=43)}
    scheduler = SweepScheduler(cells, executor=lambda label, config: sent.append(config.shards))
    for label in cells:
        scheduler._submit(_Pool(), label, 2)
    # In-process (no pool), the cell keeps its unset value: one per core.
    scheduler._submit(None, "unset", 1)
    # Two cells on eight slots: each cell's clients get the four left over.
    monkeypatch.setattr(runtime, "usable_cores", lambda: 8)
    scheduler._submit(_Pool(), "unset", 2)
    assert sent == [1, 2, None, 4]


def test_a_forked_sweep_worker_starts_its_own_shard_workers():
    """A sharded run leaves its idle pool in this process's cache; a sweep's
    forked pool worker inherits the cache, whose workers are this
    process's.  The child starts its own, and this process's survive."""
    from repro.simulation import shard as shard_mod

    kwargs = dict(train_size=384, rounds=1, shards=2)
    _run_with_stats(_smoke_config("fedavg", "iid", "stable", **kwargs))
    cached = shard_mod._POOL_CACHE.get(2)
    assert cached is not None
    pids = [cached.worker_pid(shard) for shard in range(2)]

    cells = {f"seed{seed}": _smoke_config("fedavg", "iid", "stable", seed=seed, **kwargs) for seed in (1, 2)}
    sweep = api.sweep(cells, workers=2)
    assert sweep.errors == {}
    for label, config in cells.items():
        flat, _, _ = _run_with_stats(config.with_overrides(shards=1))
        assert _round_dicts(sweep.results[label]) == _round_dicts(flat)

    _, stats, _ = _run_with_stats(_smoke_config("fedavg", "iid", "stable", **kwargs))
    assert stats["worker_restarts"] == 0
    assert [shard_mod._POOL_CACHE[2].worker_pid(shard) for shard in range(2)] == pids


_SHARDED_SCRIPT = """\
import json
import repro.api as api
from repro.fl.runtime import build_experiment
config = (
    api.experiment("fedavg").dataset("mnist").partition("iid").scale("smoke").seed(7)
    .override(rounds=1, train_size=384, shards=2).build()
)
with build_experiment(config) as handle:
    result = handle.run()
    jobs = handle.cluster.shard_executor.stats["shard_jobs"]
print(jobs, json.dumps(result.summary(), sort_keys=True))
"""


def test_a_script_on_stdin_or_without_a_main_guard_runs_sharded(tmp_path):
    """Workers never import the parent's ``__main__``: neither a script
    fed through stdin (which has no file to import) nor one without an
    ``if __name__ == "__main__"`` guard (which would run again)."""
    import subprocess
    import sys
    from pathlib import Path

    config = (
        api.experiment("fedavg").dataset("mnist").partition("iid").scale("smoke").seed(7)
        .override(rounds=1, train_size=384, shards=1).build()
    )
    expected = json.dumps(run(config).result().summary(), sort_keys=True)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    script = tmp_path / "unguarded.py"
    script.write_text(_SHARDED_SCRIPT)
    for command, stdin in (([sys.executable, "-"], _SHARDED_SCRIPT), ([sys.executable, str(script)], None)):
        done = subprocess.run(
            command, input=stdin, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300
        )
        assert done.returncode == 0, done.stderr[-2000:]
        jobs, summary = done.stdout.strip().split(" ", 1)
        assert int(jobs) > 0 and summary == expected


def test_a_worker_that_cannot_start_names_why(monkeypatch):
    """A worker that dies before its first reply is respawned once; a
    second such death, or an import that fails, raises the cause."""
    from repro.simulation import shard as shard_mod

    boot = shard_mod._WORKER_BOOT
    for broken, cause in (
        ("import sys; sys.exit(3)", "exit status 3"),
        (boot.replace("repro.simulation.shard", "repro.no_such_module"), "No module named 'repro.no_such_module'"),
    ):
        monkeypatch.setattr(shard_mod, "_WORKER_BOOT", broken)
        pool, restarts = ShardPool(1), {}
        pool.stats_sink = restarts
        job_id = pool.new_job_id()
        try:
            pool.submit(0, job_id, {"architecture": "mnist-cnn"})
            with pytest.raises(ShardWorkerError, match=cause):
                pool.collect(0, job_id)
        finally:
            pool.close()
        assert restarts.get("worker_restarts", 0) <= 1


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
