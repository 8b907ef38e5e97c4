"""Batched multi-client compute engine: bitwise parity and integration.

The contract under test (docs/architecture.md, "Batched client
execution"): running a round's lockstep-compatible clients as one
``(clients, params)`` kernel set produces **bitwise identical** weights,
losses and summaries to the per-client oracle path — across every
architecture, dtype, frozen-section mask and optimizer family — so
``batched_execution`` is a pure execution knob, excluded from
``run_key`` exactly like ``pool_slots``.

Three layers of pinning:

* kernel level: a full parity matrix over the architecture registry plus
  forced slow-probe fallbacks and max-pool tie/NaN torture inputs;
* round level: batched-on runs reproduce the per-client rounds (and the
  golden smoke summaries) byte-for-byte, through offload divergence,
  churn, the virtualized client pool and SIGKILL crash/resume;
* planner level: ragged shards, singleton groups and late activations
  fall back to the per-client path instead of batching unsafely.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

import repro.api as api
import repro.nn.batched as batched_mod
from crash_harness import read_rounds_bytes, run_and_crash
from repro.api import RunStore, run, run_key
from repro.data.loader import BatchLoader
from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.config import ResourceConfig
from repro.fl.runtime import build_experiment, uses_batched_execution
from repro.nn.architectures import ARCHITECTURES, build_model
from repro.nn.batched import (
    BatchedClientExecutor,
    BatchedModel,
    BatchedProximalSGD,
    BatchedSGD,
    phase_flops,
)
from repro.nn.dtype import using_dtype
from repro.nn.layers import MaxPool2D
from repro.nn.model import SplitCNN
from repro.nn.optim import SGD, ProximalSGD


def _round_dicts(result):
    return [dataclasses.asdict(record) for record in result.rounds]


# ---------------------------------------------------------------------------
# Kernel-level parity: batched == per-client, bitwise
# ---------------------------------------------------------------------------
def _run_parity_case(arch, dtype_name, frozen, opt_name, lanes=2, n=3, steps=2):
    """Train ``lanes`` clients per-client and as one cohort; compare bitwise."""
    spec = ARCHITECTURES[arch]
    rng = np.random.default_rng(42)
    with using_dtype(dtype_name):
        template = build_model(arch, rng=np.random.default_rng(0))
    dtype = template.dtype
    x = rng.standard_normal((lanes, n) + spec.input_shape).astype(dtype)
    y = rng.integers(0, spec.num_classes, size=(lanes, n))
    lane_weights = []
    for lane in range(lanes):
        with using_dtype(dtype_name):
            model = build_model(arch, rng=np.random.default_rng(100 + lane))
        lane_weights.append({s: model.get_flat_weights(s) for s in SplitCNN.SECTIONS})
    anchor = {s: lane_weights[0][s].copy() for s in SplitCNN.SECTIONS}

    def make_optimizer(batched_model=None):
        if opt_name == "sgd":
            if batched_model is None:
                return SGD(lr=0.05, momentum=0.9)
            return BatchedSGD(lr=0.05, momentum=0.9)
        if batched_model is None:
            optimizer = ProximalSGD(lr=0.05, mu=0.01)
        else:
            optimizer = BatchedProximalSGD(lr=0.05, mu=0.01)
        optimizer.set_anchor({s: anchor[s] for s in SplitCNN.SECTIONS})
        return optimizer

    # Per-client oracle.
    solo_weights, solo_losses = [], []
    for lane in range(lanes):
        with using_dtype(dtype_name):
            model = build_model(arch, rng=np.random.default_rng(0))
        for section in SplitCNN.SECTIONS:
            model.set_flat_weights(lane_weights[lane][section], section=section)
        if frozen == "features":
            model.freeze_features()
        elif frozen == "classifier":
            model.freeze_classifier()
        optimizer = make_optimizer()
        losses = []
        for _ in range(steps):
            loss, _ = model.train_batch(x[lane], y[lane], optimizer)
            losses.append(loss)
        solo_weights.append({s: model.get_flat_weights(s) for s in SplitCNN.SECTIONS})
        solo_losses.append(losses)

    # One lockstep cohort.
    cohort = BatchedModel(template, lanes)
    for lane in range(lanes):
        for section in SplitCNN.SECTIONS:
            cohort.load_lane(section, lane, lane_weights[lane][section])
    if frozen == "features":
        cohort.freeze_features()
    elif frozen == "classifier":
        cohort.freeze_classifier()
    optimizer = make_optimizer(cohort)
    wave_losses = [cohort.train_step(x, y, optimizer) for _ in range(steps)]

    label = f"{arch}/{dtype_name}/{frozen}/{opt_name}"
    for lane in range(lanes):
        for section in SplitCNN.SECTIONS:
            assert np.array_equal(
                cohort.lane_flat(section, lane), solo_weights[lane][section]
            ), f"{label}: lane {lane} section {section} diverged"
        for step in range(steps):
            batched_loss = float(wave_losses[step][lane])
            solo_loss = solo_losses[lane][step]
            assert batched_loss == solo_loss or (
                np.isnan(batched_loss) and np.isnan(solo_loss)
            ), f"{label}: lane {lane} loss diverged at step {step}"


#: mnist-cnn gets the full frozen-mask x optimizer grid; the other
#: architectures cover every row and column of it (small n keeps the
#: heavier networks fast and exercises the slow-probe GEMM paths).
_FULL_GRID = [
    (frozen, opt)
    for frozen in ("none", "features", "classifier")
    for opt in ("sgd", "prox")
]
_CROSS_GRID = [("none", "sgd"), ("none", "prox"), ("features", "sgd"), ("classifier", "prox")]


@pytest.mark.parametrize("dtype_name", ["float32", "float64"])
@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_batched_training_is_bitwise_identical_to_per_client(arch, dtype_name):
    grid = _FULL_GRID if arch == "mnist-cnn" else _CROSS_GRID
    for frozen, opt_name in grid:
        _run_parity_case(arch, dtype_name, frozen, opt_name)


@pytest.mark.parametrize("batch_n", [16, 32])
def test_batched_parity_holds_on_fast_gemm_paths(batch_n):
    """Large batches flip the probed GEMM orientations; parity must hold."""
    _run_parity_case("mnist-cnn", "float32", "none", "sgd", lanes=4, n=batch_n)
    _run_parity_case("mnist-cnn", "float64", "none", "prox", lanes=4, n=batch_n)


def test_batched_parity_survives_forced_slow_probes(monkeypatch):
    """The probe-rejected kernel layouts are the bitwise reference; force
    them everywhere and the cohort must still match the oracle.  The third
    verdict gates the input-gradient GEMM on the width-padded grid: false,
    the grid is filled from the oracle-layout GEMM instead."""
    monkeypatch.setattr(batched_mod, "_probe_fast_gemms", lambda *a: (False, "slow", False))
    monkeypatch.setattr(batched_mod, "_probe_gb_reduce", lambda *a: False)
    _run_parity_case("mnist-cnn", "float32", "none", "sgd", lanes=2, n=16)
    _run_parity_case("mnist-cnn", "float64", "none", "sgd", lanes=2, n=16)


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
    x = rng.standard_normal((3, 4, 5, side, side)).astype(np.float32)
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
    x = rng.standard_normal((2, 3, 4, side, side))
    x[rng.random(x.shape) < 0.6] = 0.0
    x[rng.random(x.shape) < 0.05] = -0.0
    x[rng.random(x.shape) < 0.01] = np.nan
    yield x


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

        oracle = MaxPool2D(pool_size)
        for lane in range(x.shape[0]):
            # Oracle layout is sample-major (N, C, H, W); lanes are channel-major.
            ref_out = oracle.forward(x[lane].transpose(1, 0, 2, 3))
            # The oracle caches flat input offsets: back to in-window slots.
            ref_flat = oracle._cache_flat_idx.reshape(ref_out.shape)
            ref_slots = (ref_flat // w % pool_size) * pool_size + ref_flat % pool_size
            ref_grad = oracle.backward(grad_out[lane].transpose(1, 0, 2, 3))
            assert np.array_equal(
                out[lane].view(bits), ref_out.transpose(1, 0, 2, 3).view(bits)
            ), f"{label} lane {lane}: forward bits diverged"
            assert np.array_equal(
                slots[lane], ref_slots.transpose(1, 0, 2, 3)
            ), f"{label} lane {lane}: arg-max slots diverged"
            assert np.array_equal(
                grad_in[lane].view(bits), ref_grad.transpose(1, 0, 2, 3).view(bits)
            ), f"{label} lane {lane}: scatter diverged"


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_analytic_phase_flops_match_executed_trace(arch):
    """Lanes never run the profiled per-layer path, so their batch cost
    comes from :func:`phase_flops`; it must equal the real trace."""
    spec = ARCHITECTURES[arch]
    with using_dtype("float32"):
        model = build_model(arch, rng=np.random.default_rng(0))
    batch_n = 4
    rng = np.random.default_rng(1)
    x = rng.standard_normal((batch_n,) + spec.input_shape).astype(model.dtype)
    y = rng.integers(0, spec.num_classes, size=batch_n)
    _, trace = model.train_batch(x, y, SGD(lr=0.05))
    analytic = phase_flops(model, batch_n, spec.input_shape)
    assert analytic.flops == trace.flops


# ---------------------------------------------------------------------------
# Round-level integration: the knob changes nothing observable
# ---------------------------------------------------------------------------
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
    executor = handle.cluster.batched_executor
    return result, (dict(executor.stats) if executor is not None else None), handle


def _assert_bitwise_equal_runs(config_on, config_off):
    result_on, stats, _ = _run_with_stats(config_on)
    result_off, stats_off, _ = _run_with_stats(config_off)
    assert stats_off is None, "batched_execution='off' must not install an executor"
    assert _round_dicts(result_on) == _round_dicts(result_off)
    assert json.dumps(result_on.summary(), sort_keys=True) == json.dumps(
        result_off.summary(), sort_keys=True
    )
    return result_on, stats


@pytest.mark.parametrize("algorithm", ["fedavg", "aergia"])
def test_golden_smoke_reproduces_with_batching_forced_on(algorithm):
    from test_golden_baselines import GOLDEN_SMOKE_SUMMARIES, _assert_matches

    config = _smoke_config(algorithm, "noniid", "stable", batched_execution="on")
    result, stats, _ = _run_with_stats(config)
    _assert_matches(result.summary(), GOLDEN_SMOKE_SUMMARIES[algorithm], algorithm)
    # The noniid smoke shards are ragged (100 samples, batch 16), so every
    # client must fall back per-client rather than batch unequal shapes.
    assert stats["fallbacks"] > 0 and stats["waves"] == 0


def test_batched_rounds_are_bitwise_identical_with_live_cohorts():
    kwargs = dict(train_size=384)  # 96 per client: divisible by the batch size
    result, stats = _assert_bitwise_equal_runs(
        _smoke_config("fedavg", "iid", "stable", batched_execution="on", **kwargs),
        _smoke_config("fedavg", "iid", "stable", batched_execution="off", **kwargs),
    )
    assert stats["waves"] > 0 and stats["cohorts_started"] > 0
    assert stats["fallbacks"] == 0
    assert stats["fast_materializations"] == stats["lanes"]


def test_offloading_clients_leave_their_lane_bitwise():
    """Aergia offloads freeze the weak client's features mid-round — the
    lane must materialize (replaying if the cohort ran ahead) with exactly
    the per-client state."""
    kwargs = dict(
        seed=13,
        train_size=320,
        resources=ResourceConfig(scheme="explicit", explicit_speeds=(0.1, 0.8, 0.9, 1.0)),
    )
    result, stats = _assert_bitwise_equal_runs(
        _smoke_config("aergia", "iid", "stable", batched_execution="on", **kwargs),
        _smoke_config("aergia", "iid", "stable", batched_execution="off", **kwargs),
    )
    assert result.summary()["total_offloads"] > 0
    assert stats["waves"] > 0
    assert stats["replays"] > 0, "the straggler's divergence must replay through the oracle"


def test_churn_scenario_is_bitwise_identical_with_batching():
    kwargs = dict(seed=13, train_size=384)
    _, stats = _assert_bitwise_equal_runs(
        _smoke_config("fedavg", "iid", "churn", batched_execution="on", **kwargs),
        _smoke_config("fedavg", "iid", "churn", batched_execution="off", **kwargs),
    )
    assert stats["waves"] > 0


def test_virtual_pool_runs_bitwise_identical_with_batching():
    """Dehydration/rehydration interleaves with lane lifecycles: a batched
    churn run on a tight arena must still match the per-client run on a
    never-evicting one bitwise."""
    # Partial participation: a full-participation round pins the whole
    # cohort, so nobody would ever be evicted.
    kwargs = dict(seed=13, train_size=384, num_clients=6, clients_per_round=3, rounds=4)
    config_on = _smoke_config(
        "fedavg", "iid", "churn", batched_execution="on", pool_slots=3, **kwargs
    )
    result_on, stats, handle = _run_with_stats(config_on)
    assert handle.pool.evictions > 0, "config no longer exercises rehydration"
    config_off = _smoke_config(
        "fedavg", "iid", "churn", batched_execution="off",
        pool_slots=config_on.num_clients, **kwargs,
    )  # fmt: skip
    result_off, _, handle_off = _run_with_stats(config_off)
    assert handle_off.pool.evictions == 0
    assert _round_dicts(result_on) == _round_dicts(result_off)
    assert stats["waves"] > 0


def test_virtual_pool_hydrates_models_at_config_dtype():
    """Slot models are built lazily at hydration time; the factory must pin
    the experiment's dtype even when the ambient default differs, or
    every client fails cohort eligibility (and clients would silently
    train at a precision other than the config's)."""
    config = _smoke_config("fedavg", "iid", "stable", train_size=384)
    handle = build_experiment(config)
    with using_dtype("float64"):
        actor = handle.pool.hydrate(0)
    assert actor.model.dtype == np.dtype("float32")
    assert actor.loader.x.dtype == np.dtype("float32")


def test_sigkill_crash_resumes_bitwise_identical_across_engines(tmp_path):
    """A batched run crash-resumed must converge to the same bytes as an
    uninterrupted *per-client* run: checkpoints carry no engine state."""
    base = dict(checkpoint_interval=1, rounds=4, train_size=384)
    config_off = (
        api.experiment("fedavg")
        .dataset("mnist")
        .partition("iid")
        .scale("smoke")
        .scenario("stable")
        .seed(7)
        .override(batched_execution="off", **base)
        .build()
    )
    config_on = config_off.with_overrides(batched_execution="on")
    golden_store = RunStore(tmp_path / "golden")
    golden = run(config_off, store=golden_store).result()

    store_dir = tmp_path / "crashed"
    run_and_crash(config_on, store_dir, crash_round=2)
    store = RunStore(store_dir)
    resumed = run(config_on, store=store, resume=True)
    result = resumed.result()
    assert resumed.resumed_from_round is not None, "run did not resume"
    assert _round_dicts(result) == _round_dicts(golden)
    key = run_key(config_on)
    assert key == run_key(config_off)
    assert read_rounds_bytes(store.root, key) == read_rounds_bytes(golden_store.root, key)


# ---------------------------------------------------------------------------
# Planner-level: eligibility, fallbacks, config plumbing
# ---------------------------------------------------------------------------
def _fake_actor(n_samples, batch_size=16, optimizer=None, arch="mnist-cnn"):
    with using_dtype("float32"):
        model = build_model(arch, rng=np.random.default_rng(0))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n_samples, 1, 28, 28)).astype(model.dtype)
    y = rng.integers(0, 10, size=n_samples)
    loader = BatchLoader(x, y, batch_size=batch_size, shuffle=False)
    return SimpleNamespace(
        model=model, loader=loader, optimizer=optimizer or SGD(lr=0.05, momentum=0.9)
    )


def test_planner_rejects_ragged_and_mismatched_clients():
    executor = BatchedClientExecutor()
    eligible = executor._eligibility_key(_fake_actor(96))
    assert eligible is not None
    # Ragged epoch tails would change the GEMM shapes mid-epoch.
    assert executor._eligibility_key(_fake_actor(100)) is None
    # Unknown optimizer families cannot be mirrored lane-wise.
    class OddOptimizer(SGD):
        pass

    assert executor._eligibility_key(_fake_actor(96, optimizer=OddOptimizer(lr=0.05))) is None
    # Differing hyper-parameters land in different cohorts.
    other = executor._eligibility_key(_fake_actor(96, optimizer=SGD(lr=0.01)))
    assert other is not None and other != eligible
    # A dataset that fits in one batch is lockstep-safe (single GEMM shape).
    assert executor._eligibility_key(_fake_actor(10)) is not None


def test_planner_falls_back_for_singletons_and_late_activations():
    executor = BatchedClientExecutor()
    with using_dtype("float32"):
        global_model = build_model("mnist-cnn", rng=np.random.default_rng(0))
    a, b, c = _fake_actor(96), _fake_actor(96), _fake_actor(48, batch_size=8)
    for index, actor in enumerate((a, b, c)):
        actor.client_id = index
    executor.plan_round(1, [(0, a, 2), (1, b, 2), (2, c, 2)], global_model)
    # a and b batch together; c's batch shape puts it in a cohort of one,
    # which has nothing to amortise.
    assert executor.stats["cohorts_planned"] == 1
    assert executor.stats["fallbacks"] == 1
    assert executor.activate(c, 1) is None
    # Wrong round / unknown client / double activation all decline.
    assert executor.activate(a, 2) is None
    lane = executor.activate(a, 1)
    assert lane is not None
    assert executor.activate(a, 1) is None
    # Once the first wave ran, the cohort's shapes are fixed: b is too late.
    lane.consume_loss()
    assert executor.activate(b, 1) is None

    executor.finish_round(1)
    lane.materialize(SimpleNamespace(model=a.model, optimizer=a.optimizer, loader=a.loader), 1)
    assert executor.stats["waves"] >= 1


def test_batched_execution_is_excluded_from_run_key_and_cache():
    config = _smoke_config("fedavg", "iid", "stable")
    for mode in ("on", "off"):
        assert run_key(config) == run_key(config.with_overrides(batched_execution=mode))
    from repro.api.store import canonical_config

    assert "batched_execution" not in canonical_config(config.with_overrides(batched_execution="on"))
    with pytest.raises(ValueError):
        config.with_overrides(batched_execution="always")


def test_auto_mode_batches_large_rounds_only():
    config = _smoke_config("fedavg", "iid", "stable")  # 4 clients/round
    assert not uses_batched_execution(config)
    assert uses_batched_execution(config.with_overrides(batched_execution="on"))
    assert not uses_batched_execution(config.with_overrides(batched_execution="off"))
    big = config.with_overrides(
        num_clients=batched_mod.BATCHED_AUTO_MIN_CLIENTS,
        clients_per_round=batched_mod.BATCHED_AUTO_MIN_CLIENTS,
    )
    assert uses_batched_execution(big)


def test_trainable_params_cache_aliases_and_invalidates():
    """The legacy dict-view adapter is cached: repeated calls return the
    same alias of the flat buffers (no copies), and freeze/unfreeze or a
    flat-buffer rebuild invalidates it."""
    with using_dtype("float32"):
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
