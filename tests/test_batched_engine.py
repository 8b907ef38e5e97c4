"""Models stepped in turn through the kernels, and per-client execution end to end.

This file pinned the lockstep cohort engine until it was deleted (ISSUE
22), and the kernels' lane axis until that went too (ISSUE 24): a round's
clients step one by one, each at its own simulated events, and with
``shards >= 2`` each on the worker process that owns it.  Every test id is
kept and now pins what remains:

* kernel level: N differently initialised models stepped in turn on one
  thread through the kernels == each alone through the layer loop, bit for
  bit — a full parity matrix over the architecture registry plus forced
  slow-probe fallbacks and max-pool tie/NaN torture inputs;
* round level: ``shards=1`` == ``shards=2`` byte for byte — golden
  smoke summaries, offload divergence, churn, the virtualized client pool
  and SIGKILL crash/resume across the two ways of executing a round;
* what goes to a worker and what stays in the parent, and the retired
  ``batched_execution`` knob.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro.api as api
import repro.nn.batched as batched_mod
from crash_harness import read_rounds_bytes, run_and_crash
from repro.api import RunStore, run, run_key
from repro.data.loader import BatchLoader
from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.config import ExperimentConfig, ResourceConfig, config_from_dict, config_to_dict
from repro.fl.runtime import build_experiment, uses_sharded_execution
from repro.nn.architectures import ARCHITECTURES, build_model
from repro.nn.layers import MaxPool2D
from repro.nn.model import SplitCNN, phase_flops
from repro.fl.training import LocalTrainer, TrainingJob, run_jobs, train
from repro.nn.optim import SGD, ProximalSGD
from repro.simulation.shard import ShardedClientExecutor


def _round_dicts(result):
    return [dataclasses.asdict(record) for record in result.rounds]


# ---------------------------------------------------------------------------
# Kernel-level parity: models stepped in turn == each alone on the layer loop
# ---------------------------------------------------------------------------
def _run_parity_case(arch, dtype_name, frozen, opt_name, clients=2, n=3, steps=2):
    """Step ``clients`` differently initialised models in turn on this thread
    through the kernels (one shared ``Workspace``, each its own
    ``repro.nn.optim`` optimiser); compare each, bitwise, with a twin stepped
    alone through ``train_batch_layerwise``."""
    spec = ARCHITECTURES[arch]

    def build(seed):
        built = build_model(arch, rng=np.random.default_rng(seed))
        model = SplitCNN(built.feature_layers, built.classifier_layers, arch, dtype=dtype_name)
        if frozen == "features":
            model.freeze_features()
        elif frozen == "classifier":
            model.freeze_classifier()
        return model

    kernels = [build(100 + client) for client in range(clients)]
    oracles = [build(100 + client) for client in range(clients)]
    rng = np.random.default_rng(42)
    x = rng.standard_normal((clients, n) + spec.input_shape).astype(kernels[0].dtype)
    y = rng.integers(0, spec.num_classes, size=(clients, n))
    anchor = {s: kernels[0].get_flat_weights(s) for s in SplitCNN.SECTIONS}

    def make_optimizer():
        if opt_name == "sgd":
            return SGD(lr=0.05, momentum=0.9)
        optimizer = ProximalSGD(lr=0.05, mu=0.01)
        optimizer.set_anchor(anchor)
        return optimizer

    # Each oracle alone, all of its steps.
    oracle_losses = []
    for client, model in enumerate(oracles):
        optimizer = make_optimizer()
        oracle_losses.append(
            [model.train_batch_layerwise(x[client], y[client], optimizer)[0] for _ in range(steps)]
        )

    # The kernels round-robin: every step runs on the scratch the previous
    # model's step left behind.
    optimizers = [make_optimizer() for _ in kernels]
    kernel_losses = [[] for _ in kernels]
    for _ in range(steps):
        for client, model in enumerate(kernels):
            loss, _ = model.train_batch(x[client], y[client], optimizers[client])
            kernel_losses[client].append(loss)

    label = f"{arch}/{dtype_name}/{frozen}/{opt_name}"
    for client, (kernel, oracle) in enumerate(zip(kernels, oracles)):
        assert kernel._kernels and not oracle._kernels, "each twin must stay on its path"
        for section in SplitCNN.SECTIONS:
            assert np.array_equal(
                kernel.flat_parameters(section), oracle.flat_parameters(section)
            ), f"{label}: client {client} section {section} diverged"
        for step in range(steps):
            kernel_loss = kernel_losses[client][step]
            oracle_loss = oracle_losses[client][step]
            assert kernel_loss == oracle_loss or (
                np.isnan(kernel_loss) and np.isnan(oracle_loss)
            ), f"{label}: client {client} loss diverged at step {step}"


#: mnist-cnn gets the full frozen-mask x optimizer grid; the other
#: architectures cover every row and column of it (small n keeps the
#: heavier networks fast and exercises the slow-probe GEMM paths).
_FULL_GRID = [
    (frozen, opt)
    for frozen in ("none", "features", "classifier")
    for opt in ("sgd", "prox")
]
_CROSS_GRID = [("none", "sgd"), ("none", "prox"), ("features", "sgd"), ("classifier", "prox")]


# Now pins: models stepped in turn through the kernels, on one workspace,
# == each alone through the layer loop (there is no kernel set of N models).
@pytest.mark.parametrize("dtype_name", ["float32", "float64"])
@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_batched_training_is_bitwise_identical_to_per_client(arch, dtype_name):
    grid = _FULL_GRID if arch == "mnist-cnn" else _CROSS_GRID
    for frozen, opt_name in grid:
        _run_parity_case(arch, dtype_name, frozen, opt_name)


# Now pins the same for four models at the batch sizes whose probes pass.
@pytest.mark.parametrize("batch_n", [16, 32])
def test_batched_parity_holds_on_fast_gemm_paths(batch_n):
    """Large batches flip the probed GEMM orientations; parity must hold."""
    _run_parity_case("mnist-cnn", "float32", "none", "sgd", clients=4, n=batch_n)
    _run_parity_case("mnist-cnn", "float64", "none", "prox", clients=4, n=batch_n)


# Now pins the same with every probe verdict forced false.
def test_batched_parity_survives_forced_slow_probes(monkeypatch):
    """The probe-rejected kernel layouts are the bitwise reference; force
    them everywhere and the kernels must still match the oracle.  The third
    verdict gates the input-gradient GEMM on the width-padded grid: false,
    the grid is filled from the oracle-layout GEMM instead."""
    monkeypatch.setattr(batched_mod, "_probe_fast_gemms", lambda *a: (False, "slow", False))
    monkeypatch.setattr(batched_mod, "_probe_gb_reduce", lambda *a: False)
    _run_parity_case("mnist-cnn", "float32", "none", "sgd", clients=2, n=16)
    _run_parity_case("mnist-cnn", "float64", "none", "sgd", clients=2, n=16)


def test_gemm_probe_modes_are_cached_and_well_formed():
    # (n, out_h, out_w, wp): the input-gradient GEMM is probed on its grid.
    geometry, ckk, oc = (7, 3, 5, 9), 25, 8
    for dtype in (np.float32, np.float64):
        cache_key = geometry + (ckk, oc, np.dtype(dtype).char)
        batched_mod._GEMM_PROBE_CACHE.pop(cache_key, None)
        # An inference pass asks about the forward orientation only ...
        fwd_ok, gw_mode, dx_ok = batched_mod._probe_fast_gemms(geometry, ckk, oc, dtype, False)
        assert isinstance(fwd_ok, bool) and gw_mode is None and dx_ok is None
        # ... and a training pass at the same geometry fills in the rest.
        verdict = batched_mod._probe_fast_gemms(geometry, ckk, oc, dtype)
        assert verdict[0] is fwd_ok and isinstance(verdict[2], bool)
        assert verdict[1] in {"csT", "gT", "slow"}
        assert batched_mod._GEMM_PROBE_CACHE[cache_key] == verdict
        assert batched_mod._probe_fast_gemms(geometry, ckk, oc, dtype) == verdict
        assert batched_mod._probe_fast_gemms(geometry, ckk, oc, dtype, False) == verdict
        assert isinstance(batched_mod._probe_gb_reduce(105, oc, dtype), bool)


def _pool_torture_inputs(pool_size):
    rng = np.random.default_rng(7)
    side = 6 * pool_size
    x = rng.standard_normal((12, 5, side, side)).astype(np.float32)
    # Saturate with exact ties, signed zeros and NaN windows.
    flat = x.reshape(-1)
    flat[::5] = 1.5
    flat[1::5] = 1.5
    flat[2::11] = -0.0
    flat[3::11] = 0.0
    flat[4::23] = np.nan
    yield x
    # What a pool really sees — a ReLU'd map, most windows tied at zero in no
    # regular pattern — at the other dtype and mnist-cnn's first-pool size.
    side = 28 - 28 % pool_size
    x = rng.standard_normal((6, 4, side, side))
    x[rng.random(x.shape) < 0.6] = 0.0
    x[rng.random(x.shape) < 0.05] = -0.0
    x[rng.random(x.shape) < 0.01] = np.nan
    yield x


# Now pins the same on the kernel's one-model ``(C, N, H, W)`` input.
@pytest.mark.parametrize("pool_size", [2, 3])
def test_batched_max_pool_matches_oracle_on_ties_and_nans(pool_size):
    """Tie-breaks and NaN windows are the order-pinned part of pooling: the
    2x2 tournament and the generic equality sweep must both reproduce the
    oracle's first-max (row-major) argmax bitwise — the maxima, the arg-max
    slots and the backward scatter through them."""
    for x in _pool_torture_inputs(pool_size):
        label = f"pool {pool_size}x{pool_size} {x.dtype} {x.shape[-1]}x{x.shape[-1]}"
        bits = f"u{x.dtype.itemsize}"
        w = x.shape[-1]
        rng = np.random.default_rng(8)
        layer = batched_mod._BatchedMaxPool2D(MaxPool2D(pool_size))
        out = layer.forward(x)
        slots = layer._cache[0].copy()
        grad_out = rng.standard_normal(out.shape).astype(x.dtype)
        grad_in = layer.backward(grad_out)

        # Oracle layout is sample-major (N, C, H, W); the kernel's channel-major.
        oracle = MaxPool2D(pool_size)
        ref_out = oracle.forward(x.transpose(1, 0, 2, 3))
        # The oracle caches flat input offsets: back to in-window slots.
        ref_flat = oracle._cache_flat_idx.reshape(ref_out.shape)
        ref_slots = (ref_flat // w % pool_size) * pool_size + ref_flat % pool_size
        ref_grad = oracle.backward(grad_out.transpose(1, 0, 2, 3))
        assert np.array_equal(
            out.view(bits), ref_out.transpose(1, 0, 2, 3).view(bits)
        ), f"{label}: forward bits diverged"
        assert np.array_equal(
            slots, ref_slots.transpose(1, 0, 2, 3)
        ), f"{label}: arg-max slots diverged"
        assert np.array_equal(
            grad_in.view(bits), ref_grad.transpose(1, 0, 2, 3).view(bits)
        ), f"{label}: scatter diverged"


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_analytic_phase_flops_match_executed_trace(arch):
    """A kernel step never runs the profiled per-layer path, and a batch
    computed on a shard worker is charged before it ran: both costs come
    from :func:`phase_flops`; it must equal the real trace."""
    spec = ARCHITECTURES[arch]
    model = build_model(arch, rng=np.random.default_rng(0))
    batch_n = 4
    rng = np.random.default_rng(1)
    x = rng.standard_normal((batch_n,) + spec.input_shape).astype(model.dtype)
    y = rng.integers(0, spec.num_classes, size=batch_n)
    _, trace = model.train_batch(x, y, SGD(lr=0.05))
    analytic = phase_flops(model, batch_n, spec.input_shape)
    assert analytic.flops == trace.flops


# ---------------------------------------------------------------------------
# Round-level integration: where a client trains changes nothing observable
# ---------------------------------------------------------------------------
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


def _assert_bitwise_equal_runs(config_sharded, config_flat):
    result_sharded, stats, _ = _run_with_stats(config_sharded)
    result_flat, stats_flat, _ = _run_with_stats(config_flat)
    assert stats_flat is None, "a single-process run must not install an executor"
    assert _round_dicts(result_sharded) == _round_dicts(result_flat)
    assert json.dumps(result_sharded.summary(), sort_keys=True) == json.dumps(
        result_flat.summary(), sort_keys=True
    )
    return result_sharded, stats


# Now pins: the goldens reproduce when every client trains on a shard
# worker — ragged epoch tails included, which the cohort planner kept in
# the parent.
@pytest.mark.parametrize("algorithm", ["fedavg", "aergia"])
def test_golden_smoke_reproduces_with_batching_forced_on(algorithm):
    from test_golden_baselines import GOLDEN_SMOKE_SUMMARIES, _assert_matches

    config = _smoke_config(algorithm, "noniid", "stable", shards=2)
    result, stats, _ = _run_with_stats(config)
    _assert_matches(result.summary(), GOLDEN_SMOKE_SUMMARIES[algorithm], algorithm)
    # The noniid smoke shards are ragged (100 samples, batch 16): a client's
    # batches differ in size, and the worker steps them as the parent would.
    assert stats["shard_jobs"] > 0 and stats["fallbacks"] == 0


# Now pins: shards=1 == shards=2, and every round's jobs go to the
# workers once each, at aggregation (nothing runs twice).
def test_batched_rounds_are_bitwise_identical_with_live_cohorts():
    kwargs = dict(train_size=384)
    result, stats = _assert_bitwise_equal_runs(
        _smoke_config("fedavg", "iid", "stable", shards=2, **kwargs),
        _smoke_config("fedavg", "iid", "stable", **kwargs),
    )
    assert stats["fallbacks"] == 0
    assert stats["shard_jobs"] == sum(len(record.completed_clients) for record in result.rounds)


# Now pins: a client that freezes for an offload before its last batch is
# one job like any other, run on its worker with the freeze inside it, and
# the strong client's training of the offloaded model is a second job on
# the strong client's worker: one job per result read, none in the parent.
def test_offloading_clients_leave_their_lane_bitwise():
    kwargs = dict(
        seed=13,
        train_size=320,
        resources=ResourceConfig(scheme="explicit", explicit_speeds=(0.1, 0.8, 0.9, 1.0)),
    )
    result, stats = _assert_bitwise_equal_runs(
        _smoke_config("aergia", "iid", "stable", shards=2, **kwargs),
        _smoke_config("aergia", "iid", "stable", **kwargs),
    )
    assert result.summary()["total_offloads"] > 0
    reads = sum(len(record.completed_clients) + record.num_offloads for record in result.rounds)
    assert stats["shard_jobs"] == reads and stats["fallbacks"] == 0


# Now pins: disconnects mid-training (abandoned remote trainings) leave the
# loaders where the single-process run has them.
def test_churn_scenario_is_bitwise_identical_with_batching():
    kwargs = dict(seed=13, train_size=384)
    _, stats = _assert_bitwise_equal_runs(
        _smoke_config("fedavg", "iid", "churn", shards=2, **kwargs),
        _smoke_config("fedavg", "iid", "churn", **kwargs),
    )
    assert stats["shard_jobs"] > 0


# Now pins: dehydration/rehydration interleaves with remote trainings — a
# sharded churn run on a tight arena matches the single-process run on a
# never-evicting one.
def test_virtual_pool_runs_bitwise_identical_with_batching():
    # Partial participation: a full-participation round pins the whole
    # cohort, so nobody would ever be evicted.
    kwargs = dict(seed=13, train_size=384, num_clients=6, clients_per_round=3, rounds=4)
    config_sharded = _smoke_config("fedavg", "iid", "churn", shards=2, pool_slots=3, **kwargs)
    result_sharded, stats, handle = _run_with_stats(config_sharded)
    assert handle.pool.evictions > 0, "config no longer exercises rehydration"
    config_flat = _smoke_config(
        "fedavg", "iid", "churn", pool_slots=config_sharded.num_clients, **kwargs
    )
    result_flat, _, handle_flat = _run_with_stats(config_flat)
    assert handle_flat.pool.evictions == 0
    assert _round_dicts(result_sharded) == _round_dicts(result_flat)
    assert stats["shard_jobs"] > 0


# Now pins: the one model every job trains on is built with the
# experiment, at float32, and a client hydrated later holds its data at
# float32 too — there is no ambient dtype for a later hydration to read.
def test_virtual_pool_hydrates_models_at_config_dtype():
    config = _smoke_config("fedavg", "iid", "stable", train_size=384)
    handle = build_experiment(config)
    actor = handle.pool.hydrate(0)
    assert handle.cluster.trainer.model.dtype == np.dtype("float32")
    assert actor.trainer is handle.cluster.trainer
    assert actor.loader.x.dtype == np.dtype("float32")


# Now pins per-client resume across the two ways of executing a round: a
# single-process run crashed mid-way and resumed with its clients on shard
# workers converges to the bytes of an uninterrupted single-process run.
def test_sigkill_crash_resumes_bitwise_identical_across_engines(tmp_path):
    base = dict(checkpoint_interval=1, rounds=4, train_size=384)
    config_flat = (
        api.experiment("fedavg")
        .dataset("mnist")
        .partition("iid")
        .scale("smoke")
        .scenario("stable")
        .seed(7)
        .override(shards=1, **base)
        .build()
    )
    config_sharded = config_flat.with_overrides(shards=2)
    golden_store = RunStore(tmp_path / "golden")
    golden = run(config_flat, store=golden_store).result()

    store_dir = tmp_path / "crashed"
    run_and_crash(config_flat, store_dir, crash_round=2)
    store = RunStore(store_dir)
    resumed = run(config_sharded, store=store, resume=True)
    result = resumed.result()
    assert resumed.resumed_from_round is not None, "run did not resume"
    assert _round_dicts(result) == _round_dicts(golden)
    key = run_key(config_sharded)
    assert key == run_key(config_flat)
    assert read_rounds_bytes(store.root, key) == read_rounds_bytes(golden_store.root, key)


# ---------------------------------------------------------------------------
# What goes to a worker, what stays in the parent, and the retired knob
# ---------------------------------------------------------------------------
class _RecordingPool:
    """Stands in for the worker pool: records the traffic, spawns nothing,
    and answers ``collect`` with the worker's own code run here."""

    def __init__(self):
        self.submitted = []

    def new_job_id(self):
        return len(self.submitted) + 1

    def submit(self, shard, job_id, payload):
        self.submitted.append((shard, job_id, payload))

    def collect(self, shard, job_id):
        payload = self.submitted[job_id - 1][2]
        template = build_model(payload["architecture"], rng=np.random.default_rng(5))
        return train(template, payload)


def _model():
    return build_model("mnist-cnn", rng=np.random.default_rng(0))


def _executor_without_workers(num_clients=4):
    executor = ShardedClientExecutor(
        num_shards=2, num_clients=num_clients, architecture="mnist-cnn", model=_model()
    )
    executor._pool = _RecordingPool()
    return executor


def _job(trainer, client_id, n_samples, batches, batch_size=16, optimizer=None):
    """A client's round as the event loop records it: ``batches`` drawn."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n_samples, 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, size=n_samples)
    optimizer = optimizer or SGD(lr=0.05, momentum=0.9)
    state = optimizer.capture_state()
    job = TrainingJob(
        trainer, client_id, x, y, trainer.sections(_model().get_weights()), optimizer, state
    )
    if isinstance(optimizer, ProximalSGD):
        state["anchor"] = job.weights
    loader = BatchLoader(x, y, batch_size=batch_size, shuffle=False)
    return job, [job.draw(loader) for _ in range(batches)]


# Now pins what a read sends to the workers: every job it needs in one go,
# each to the shard owning its client — ragged epoch tails included, and
# with its optimizer's hyper-parameters in the payload — and that a worker
# computes what the parent would.
def test_planner_rejects_ragged_and_mismatched_clients():
    executor = _executor_without_workers()
    pool = executor.pool
    jobs = [
        _job(executor, 0, 96, 2)[0],
        _job(executor, 1, 100, 8)[0],
        _job(executor, 3, 96, 2, optimizer=ProximalSGD(lr=0.01, mu=0.5))[0],
    ]
    # A ragged epoch (100 samples, batch 16) is a sequence of batch shapes
    # like any other: known before anything ran.
    assert [len(idx) for idx in jobs[1].indices] == [16] * 6 + [4, 16]
    run_jobs(jobs)
    # Clients 0-1 live on shard 0, clients 2-3 on shard 1.
    assert [shard for shard, _, _ in pool.submitted] == [0, 0, 1]
    assert [
        (type(payload["optimizer"]).__name__, payload["optimizer"].lr)
        for _, _, payload in pool.submitted
    ] == [("SGD", 0.05), ("SGD", 0.05), ("ProximalSGD", 0.01)]
    assert executor.stats["shard_jobs"] == 3 and executor.stats["fallbacks"] == 0
    local = LocalTrainer(_model())
    for job, (client_id, n, batches, optimizer) in zip(
        jobs,
        [(0, 96, 2, None), (1, 100, 8, None), (3, 96, 2, ProximalSGD(lr=0.01, mu=0.5))],
    ):
        twin = _job(local, client_id, n, batches, optimizer=optimizer)[0]
        run_jobs([twin])
        assert twin.losses == job.losses
        assert np.array_equal(twin.flat_weights(), job.flat_weights())


# Now pins: a read of one job sends that job alone — a round of one client
# goes to its worker like any other; a job with nothing drawn sends
# nothing; and a job nobody reads (its round superseded or voided) is never
# sent at all.
def test_planner_falls_back_for_singletons_and_late_activations():
    executor = _executor_without_workers()
    pool = executor.pool
    first, _ = _job(executor, 0, 96, 2)
    idle, _ = _job(executor, 2, 96, 0)
    _job(executor, 1, 48, 2, batch_size=8)  # superseded before anybody read it
    run_jobs([first])
    assert [(shard, job_id) for shard, job_id, _ in pool.submitted] == [(0, 1)]
    run_jobs([idle, first])  # nothing drawn since: nothing to send
    assert len(pool.submitted) == 1 and len(first.losses) == 2
    assert executor.stats == {"shard_jobs": 1, "fallbacks": 0, "worker_restarts": 0}


# Now pins the retirement of the knob: stored manifests and wire
# submissions that carry it still load, to the same run; the constructor
# no longer knows it.
def test_batched_execution_is_excluded_from_run_key_and_cache():
    from repro.api.store import EXECUTION_FIELDS, canonical_config
    from repro.serve.protocol import parse_spec_payload

    config = _smoke_config("fedavg", "iid", "stable")
    assert "batched_execution" not in canonical_config(config)
    assert "batched_execution" not in EXECUTION_FIELDS and len(EXECUTION_FIELDS) == 3
    stored = dict(config_to_dict(config), batched_execution="on")
    assert run_key(config_from_dict(stored)) == run_key(config)
    submission = {"algorithm": "fedavg", "scale": "smoke", "overrides": {"rounds": 2}}
    with_knob = dict(submission, overrides={"rounds": 2, "batched_execution": "on"})
    assert run_key(parse_spec_payload(with_knob)[0]) == run_key(parse_spec_payload(submission)[0])
    with pytest.raises(TypeError, match="batched_execution"):
        config.with_overrides(batched_execution="on")
    with pytest.raises(TypeError, match="batched_execution"):
        ExperimentConfig(batched_execution="on")


# Now pins: no executor in-process at any round size — a 16-client round
# steps its clients one by one like a 4-client one at ``shards=1``; workers
# are spawned for ``shards >= 2`` only.
def test_auto_mode_batches_large_rounds_only():
    config = _smoke_config("fedavg", "iid", "stable")  # 4 clients/round
    big = config.with_overrides(num_clients=16, clients_per_round=16)
    for flat in (config, big):
        assert not uses_sharded_execution(flat)
        with build_experiment(flat) as handle:
            assert handle.cluster.shard_executor is None
    assert uses_sharded_execution(big.with_overrides(shards=2))


def test_trainable_params_cache_aliases_and_invalidates():
    """The legacy dict-view adapter is cached: repeated calls return the
    same alias of the flat buffers (no copies), and freeze/unfreeze or a
    flat-buffer rebuild invalidates it."""
    model = build_model("mnist-cnn", rng=np.random.default_rng(0))
    params, grads = model._trainable_params()
    again_params, again_grads = model._trainable_params()
    assert params is again_params and grads is again_grads  # cached, not rebuilt
    key = next(iter(params))
    section = (
        SplitCNN.FEATURE_PREFIX
        if key.startswith(SplitCNN.FEATURE_PREFIX)
        else SplitCNN.CLASSIFIER_PREFIX
    )
    flat = model.flat_parameters(section)
    # Mutating through the flat vector must be visible through the cached
    # dict view: the views alias the same buffer.
    before = params[key].copy()
    flat += 1.0
    assert not np.array_equal(params[key], before), "cached views must alias, not copy"

    full_count = len(params)
    model.freeze_features()
    frozen_params, _ = model._trainable_params()
    assert frozen_params is not params
    assert 0 < len(frozen_params) < full_count
    assert all(not name.startswith(SplitCNN.FEATURE_PREFIX) for name in frozen_params)
    model.unfreeze_features()
    restored, _ = model._trainable_params()
    assert len(restored) == full_count
