"""Tests for the one sweep path: run identity, pooled execution, the store as cache."""

from __future__ import annotations

import json
import os

import pytest

import repro.api as api
from crash_harness import (
    KILL_ROUND_ENV,
    PROBE_ALGORITHM,
    PROBE_DIR_ENV,
    read_rounds_bytes,
    register_probe_federator,
)
from repro.api import RunStore, run_key
from repro.experiments.scheduler import CellState
from repro.fl.config import ResourceConfig


@pytest.fixture
def sweep_configs(smoke_config):
    """A two-cell sweep small enough for the test suite."""
    fast = smoke_config.with_overrides(train_size=240, test_size=60, local_updates=4)
    return {
        "fedavg": fast,
        "fedsgd": fast.with_overrides(algorithm="fedsgd"),
    }


def _summaries_json(suite):
    return {label: json.dumps(result.summary(), sort_keys=True) for label, result in suite.results.items()}


class TestConfigHash:
    def test_stable_and_sensitive(self, smoke_config):
        assert run_key(smoke_config) == run_key(smoke_config)
        copy = smoke_config.with_overrides()
        assert run_key(copy) == run_key(smoke_config)
        assert run_key(smoke_config.with_overrides(seed=8)) != run_key(smoke_config)
        assert run_key(smoke_config.with_overrides(algorithm="aergia")) != run_key(
            smoke_config
        )

    def test_covers_nested_resource_config(self, smoke_config):
        tweaked = smoke_config.with_overrides(
            resources=ResourceConfig(scheme="uniform", low=0.2, high=1.0)
        )
        assert run_key(tweaked) != run_key(smoke_config)

    def test_is_hex_digest(self, smoke_config):
        digest = run_key(smoke_config)
        assert len(digest) == 64
        int(digest, 16)

    # Now pins: dtype None and "float32" keep the float32 key of the parent
    # commit; a float64 config, which had its own key, is refused.
    def test_keys_of_the_parent_commit_are_unchanged(self, smoke_config):
        """Stores written before identity moved into ``repro.api.store`` are
        still hits: these literals were captured at the parent commit."""
        for dtype in (None, "float32"):
            assert run_key(smoke_config.with_overrides(dtype=dtype)) == (
                "e887fe28dae55fcf3705027e463e59ce04c543bbda5b6172b58fdeba943cc721"
            )
        with pytest.raises(ValueError, match="dtype"):
            smoke_config.with_overrides(dtype="float64")

    def test_covers_dynamics_config(self, smoke_config):
        """Two configs differing only in their scenario dynamics must never
        collide — otherwise the store would serve a stable-cluster result
        for a churn run (or vice versa)."""
        from repro.fl.config import DynamicsConfig

        churny = smoke_config.with_overrides(
            dynamics=DynamicsConfig(scenario="churn", churn=True)
        )
        assert run_key(churny) != run_key(smoke_config)
        # Even a single knob inside the (active) dynamics must change the key.
        slower_churn = smoke_config.with_overrides(
            dynamics=DynamicsConfig(scenario="churn", churn=True, mean_offline_s=9.0)
        )
        assert run_key(slower_churn) != run_key(churny)
        # The label alone matters too: a scenario rename invalidates cleanly.
        relabelled = smoke_config.with_overrides(
            dynamics=DynamicsConfig(scenario="weird")
        )
        assert run_key(relabelled) != run_key(smoke_config)

    def test_covers_every_field_of_the_scale_profile(self, smoke_config):
        """The effective scale profile is spread across ExperimentConfig
        fields; every one of them must be part of the run key."""
        perturbations = {
            "num_clients": 5,
            "clients_per_round": 2,
            "rounds": 3,
            "local_updates": 7,
            "profile_batches": 3,
            "train_size": 321,
            "test_size": 81,
            "batch_size": 8,
            "learning_rate": 0.04,
            "momentum": 0.8,
            "weight_decay": 1e-4,
            "fedasync_alpha": 0.5,
            "fedasync_staleness_power": 0.4,
            "fedbuff_buffer_size": 2,
            "async_concurrency": 2,
            "network_latency_s": 0.02,
            "network_bandwidth_bytes_per_s": 1e6,
            "deadline_seconds": 12.0,
        }
        base = run_key(smoke_config)
        for field_name, value in perturbations.items():
            tweaked = smoke_config.with_overrides(**{field_name: value})
            assert run_key(tweaked) != base, field_name


class TestParallelMatchesSerial:
    def test_two_workers_identical_summaries(self, sweep_configs):
        serial = api.sweep(sweep_configs, workers=1)
        parallel = api.sweep(sweep_configs, workers=2)
        assert _summaries_json(serial) == _summaries_json(parallel)
        assert list(parallel.results) == list(sweep_configs)  # label order preserved
        assert parallel.store_hits == [] and parallel.store is None

    def test_progress_fires_for_every_label(self, sweep_configs):
        seen = []
        api.sweep(sweep_configs, workers=2, progress=lambda label, _r: seen.append(label))
        assert sorted(seen) == sorted(sweep_configs)


class TestResultCache:
    """The run store is the only cache a sweep has."""

    def test_round_trip(self, smoke_config, tmp_path):
        handle = api.sweep({"only": smoke_config}, workers=1, store=tmp_path)
        stored = RunStore(tmp_path).get(smoke_config)
        assert stored is not None
        assert stored.manifest["wall_seconds"] > 0
        result = stored.load_result()
        assert json.dumps(result.summary(), sort_keys=True) == json.dumps(
            handle.results["only"].summary(), sort_keys=True
        )
        assert result.num_rounds == handle.results["only"].num_rounds

    def test_warm_cache_short_circuits_execution(self, sweep_configs, tmp_path, monkeypatch):
        cold = api.sweep(sweep_configs, workers=1, store=tmp_path)
        assert cold.store_hits == []

        # A warm run must not execute anything: make execution explode.
        def _boom(label, *_args):
            raise AssertionError(f"store hit executed {label}")

        monkeypatch.setattr("repro.experiments.scheduler._run_cell", _boom)
        warm = api.sweep(sweep_configs, workers=1, store=tmp_path)
        assert sorted(warm.store_hits) == sorted(sweep_configs)
        assert warm.errors == {}
        assert _summaries_json(warm) == _summaries_json(cold)

    @pytest.mark.parametrize("garbage", ["{not json", "null", "[]", '"a string"'])
    def test_corrupt_entry_is_a_miss(self, smoke_config, tmp_path, garbage):
        cold = api.sweep({"only": smoke_config}, workers=1, store=tmp_path)
        store = RunStore(tmp_path)
        (store.run_dir(run_key(smoke_config)) / "manifest.json").write_text(garbage)
        assert store.get(smoke_config) is None
        assert store.runs() == []
        assert store.scan() == {"complete": [], "resumable": [], "incomplete": []}
        again = api.sweep({"only": smoke_config}, workers=1, store=tmp_path)
        assert again.store_hits == [] and again.states == {"only": CellState.COMPLETE}
        assert _summaries_json(again) == _summaries_json(cold)
        assert store.get(smoke_config) is not None

    @pytest.mark.parametrize(
        "manifest",
        [
            {"status": "complete", "format": 1, "num_rounds": "x"},
            {"status": "complete", "format": 1, "config_hash": 7, "algorithm": "a", "dataset": "d"},
            # An explicit null is not an absent field: `.summary` would raise.
            {"status": "running", "config_hash": "k", "algorithm": "a", "dataset": "d", "summary": None},
        ],
    )
    def test_ill_typed_manifest_is_a_miss(self, smoke_config, tmp_path, manifest):
        store = RunStore(tmp_path)
        run_dir = store.run_dir(run_key(smoke_config))
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        assert store.get(smoke_config) is None
        assert store.runs() == []

    def test_different_config_is_a_miss(self, smoke_config, tmp_path):
        api.sweep({"only": smoke_config}, workers=1, store=tmp_path)
        assert RunStore(tmp_path).get(smoke_config.with_overrides(seed=99)) is None

    def test_a_store_hit_parses_the_rounds_file_once(self, smoke_config, tmp_path, monkeypatch):
        api.sweep({"only": smoke_config}, workers=1, store=tmp_path)
        parsed = []
        from repro.fl.metrics import RoundRecord

        original = RoundRecord.__init__

        def counting(self, *args, **kwargs):
            parsed.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RoundRecord, "__init__", counting)
        warm = api.sweep({"only": smoke_config}, workers=1, store=tmp_path)
        assert warm.store_hits == ["only"]
        assert len(parsed) == smoke_config.rounds


class TestRunSuitePolicy:
    """How a sweep finds its worker count and its default store."""

    def test_default_policy_is_serial(self, sweep_configs, monkeypatch):
        """With neither ``workers`` nor ``REPRO_WORKERS``, no pool is built."""
        monkeypatch.delenv("REPRO_WORKERS", raising=False)

        def _no_pool(_max_workers):
            raise AssertionError("an unset worker count must stay in-process")

        monkeypatch.setattr("repro.experiments.scheduler.worker_pool", _no_pool)
        handle = api.sweep(sweep_configs)
        assert handle.states == dict.fromkeys(sweep_configs, CellState.COMPLETE)

    def test_configure_routes_through_parallel(self, sweep_configs, monkeypatch):
        """``REPRO_WORKERS`` fills an unset ``workers``: the cells run in
        other processes (how ``repro figures --workers N`` reaches the
        figure functions)."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        built = []
        from repro.experiments import parallel

        def _pool(max_workers):
            built.append(max_workers)
            return parallel.worker_pool(max_workers)

        monkeypatch.setattr("repro.experiments.scheduler.worker_pool", _pool)
        first = api.sweep(sweep_configs)
        assert built == [2]
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert _summaries_json(api.sweep(sweep_configs)) == _summaries_json(first)
        assert built == [2]

    def test_env_policy(self, sweep_configs, monkeypatch, tmp_path):
        """``REPRO_RESULTS_DIR`` names the store of a sweep that passes none."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        cold = api.sweep(sweep_configs)
        assert cold.store is not None and cold.store.root == tmp_path
        assert cold.store_hits == []
        assert sorted(api.sweep(sweep_configs).store_hits) == sorted(sweep_configs)

    def test_resolve_workers_precedence(self, monkeypatch):
        from repro.experiments.parallel import default_workers, resolve_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == 1
        assert resolve_workers(None) == default_workers()
        assert resolve_workers(None, default=1) == 1
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_workers(None) == 2  # env fills in an unset flag
        assert resolve_workers(None, default=1) == 2
        assert resolve_workers(5) == 5  # explicit flag beats env
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_configure_falls_back_to_env(self, sweep_configs, monkeypatch):
        """A bad ``REPRO_WORKERS`` is an error of the sweep that reads it,
        and an explicit ``workers`` never reads it."""
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            api.sweep(sweep_configs)
        assert api.sweep(sweep_configs, workers=1).errors == {}


# ---------------------------------------------------------------------------
# Pooled cells are store-backed runs of their own
# ---------------------------------------------------------------------------
@pytest.fixture
def probe(tmp_path, monkeypatch):
    """The crash harness's ``fedavg-probe`` algorithm, in this process and
    (through ``REPRO_PLUGINS``) in every pool worker; yields the directory
    its runs leave their process ids in."""
    from repro.registry import FEDERATORS

    probe_dir = tmp_path / "probe"
    probe_dir.mkdir()
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.setenv(PROBE_DIR_ENV, str(probe_dir))
    monkeypatch.setenv("REPRO_PLUGINS", "crash_harness")
    # Spawned workers resolve the plugin module through PYTHONPATH.
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([tests_dir, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    )
    register_probe_federator()
    try:
        yield probe_dir
    finally:
        FEDERATORS.unregister(PROBE_ALGORITHM)


def _probe_configs(smoke_config, rounds=3):
    fast = smoke_config.with_overrides(
        algorithm=PROBE_ALGORITHM, train_size=240, test_size=60, local_updates=4, rounds=rounds
    )
    return {"probe-7": fast, "probe-8": fast.with_overrides(seed=8)}


def _rounds_bytes(store_root, configs):
    return {label: read_rounds_bytes(store_root, run_key(config)) for label, config in configs.items()}


def test_pooled_resumable_sweep_uses_two_processes_and_matches_inline(
    smoke_config, tmp_path, probe
):
    """``workers=2`` with ``resume``/``checkpoint_interval`` — the
    combination that used to fall back to one process — runs its cells in
    two worker processes and leaves the inline sweep's bytes."""
    configs = _probe_configs(smoke_config)
    inline = api.sweep(
        configs, workers=1, store=tmp_path / "inline", resume=True, checkpoint_interval=1
    )
    inline_pids = {int(entry.name) for entry in probe.iterdir()}
    assert inline_pids == {os.getpid()}

    pooled = api.sweep(
        configs, workers=2, store=tmp_path / "pooled", resume=True, checkpoint_interval=1
    )
    worker_pids = {int(entry.name) for entry in probe.iterdir()} - inline_pids
    assert len(worker_pids) == 2, worker_pids
    assert pooled.states == dict.fromkeys(configs, CellState.COMPLETE)
    assert _summaries_json(pooled) == _summaries_json(inline)
    assert _rounds_bytes(tmp_path / "pooled", configs) == _rounds_bytes(tmp_path / "inline", configs)


def test_sigkilled_pool_worker_leaves_a_run_the_next_sweep_resumes(
    smoke_config, sweep_configs, tmp_path, probe, monkeypatch
):
    doomed = _probe_configs(smoke_config, rounds=4)["probe-7"]
    configs = {"doomed": doomed, "bystander": sweep_configs["fedsgd"]}
    golden = api.sweep(configs, workers=1, store=tmp_path / "golden", checkpoint_interval=1)

    store = RunStore(tmp_path / "crashed")
    monkeypatch.setenv(KILL_ROUND_ENV, "2")
    crashed = api.sweep(configs, workers=2, store=store, resume=True, checkpoint_interval=1)
    # The worker wrote the run itself, so its death left a checkpoint behind
    # rather than nothing at all.  (The bystander's worker goes down with
    # the broken pool; whether its cell had finished by then is a race.)
    assert crashed.states["doomed"] == CellState.FAILED
    assert "doomed" in crashed.errors
    assert store.get(doomed) is None
    assert run_key(doomed) in {stored.config_hash for stored in store.scan()["resumable"]}

    monkeypatch.delenv(KILL_ROUND_ENV)
    resumed = api.sweep(configs, workers=2, store=store, resume=True, checkpoint_interval=1)
    assert resumed.states == dict.fromkeys(configs, CellState.COMPLETE)
    assert "doomed" not in resumed.store_hits
    assert _summaries_json(resumed) == _summaries_json(golden)
    assert _rounds_bytes(store.root, configs) == _rounds_bytes(tmp_path / "golden", configs)


def test_labels_sharing_a_run_key_execute_once(sweep_configs, tmp_path):
    config = sweep_configs["fedavg"]
    configs = {
        "a": config,
        # Execution fields are not part of a run's identity.
        "b": config.with_overrides(checkpoint_interval=1),
        "other": sweep_configs["fedsgd"],
    }
    finished = []
    handle = api.sweep(
        configs, workers=2, store=tmp_path, progress=lambda label, _r: finished.append(label)
    )
    assert handle.errors == {}  # in particular: no RunLockedError
    assert handle.states == dict.fromkeys(configs, CellState.COMPLETE)
    assert sorted(finished) == sorted(configs)
    assert handle.results["a"] is handle.results["b"]
    assert handle.suite.wall_seconds["a"] > 0 and handle.suite.wall_seconds["b"] == 0.0
    assert len(RunStore(tmp_path).runs()) == 2


def test_cell_budget_holds_across_a_pool(sweep_configs, smoke_config, tmp_path):
    configs = dict(sweep_configs, third=smoke_config.with_overrides(seed=99))
    handle = api.sweep(configs, workers=2, max_cells=1, store=tmp_path)
    assert list(handle.states.values()) == [
        CellState.COMPLETE,
        CellState.BUDGET_EXCEEDED,
        CellState.BUDGET_EXCEEDED,
    ]
    assert list(handle.results) == ["fedavg"]
    assert len(RunStore(tmp_path).runs()) == 1
