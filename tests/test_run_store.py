"""Tests for the persistent RunStore / Results layer (:mod:`repro.api.store`)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import repro.api as api
from repro.api.store import (
    LOCK_NAME,
    MANIFEST_NAME,
    ROUNDS_NAME,
    STORE_FORMAT,
    run_key,
)
from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.runtime import run_experiment


@pytest.fixture
def smoke_eval_config():
    return evaluation_config(
        "mnist", "fedsgd", "noniid", SCALES["smoke"], seed=11, dtype="float32"
    )


class TestRunStoreRoundTrip:
    def test_persisted_run_reloads_bitwise(self, tmp_path, smoke_eval_config):
        """Acceptance: summary survives the disk round-trip bit-for-bit."""
        handle = api.run(smoke_eval_config, store=tmp_path)
        original = handle.result()

        stored = api.RunStore(tmp_path).get(smoke_eval_config)
        assert stored is not None
        assert stored.config_hash == run_key(smoke_eval_config)
        reloaded = stored.load_result()
        assert reloaded.summary() == original.summary()  # bitwise, no approx
        assert [r.round_number for r in reloaded.rounds] == [
            r.round_number for r in original.rounds
        ]
        assert reloaded.config == original.config
        assert reloaded.setup_time == original.setup_time

    def test_manifest_is_typed_and_complete(self, tmp_path, smoke_eval_config):
        api.run(smoke_eval_config, store=tmp_path).result()
        run_dir = tmp_path / run_key(smoke_eval_config)
        manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
        assert manifest["format"] == STORE_FORMAT
        assert manifest["status"] == "complete"
        assert manifest["config_hash"] == run_key(smoke_eval_config)
        assert manifest["algorithm"] == "fedsgd"
        assert manifest["dataset"] == "mnist"
        assert manifest["scenario"] == "stable"
        assert manifest["dtype"] == "float32"
        assert manifest["seed"] == 11
        assert manifest["config"]["num_clients"] == SCALES["smoke"].num_clients
        assert manifest["summary"]["rounds"] == float(manifest["num_rounds"])
        # One JSONL line per round, parseable back into records.
        lines = [
            json.loads(line)
            for line in (run_dir / ROUNDS_NAME).read_text().splitlines()
            if line.strip()
        ]
        assert len(lines) == int(manifest["num_rounds"])
        assert [line["round_number"] for line in lines] == list(
            range(1, len(lines) + 1)
        )

    def test_manifest_written_before_a_field_was_retired_still_loads(
        self, tmp_path, smoke_eval_config
    ):
        """A restarted server rebuilds in-flight runs from their manifests:
        one that still carries the retired, result-neutral ``client_pool``
        key must load (to the same run), any other unknown key fail loudly."""
        store = api.RunStore(tmp_path)
        store.start_run(smoke_eval_config).abort()  # manifest stays "running"
        manifest_path = store.run_dir(run_key(smoke_eval_config)) / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())

        manifest["config"]["client_pool"] = "auto"
        manifest_path.write_text(json.dumps(manifest))
        (stored,) = store.runs()
        assert run_key(stored.load_config()) == run_key(smoke_eval_config)

        manifest["config"]["client_pol"] = "auto"
        manifest_path.write_text(json.dumps(manifest))
        (stored,) = store.runs()
        with pytest.raises(TypeError, match="client_pol"):
            stored.load_config()

    def test_second_run_is_detected_as_already_present(self, tmp_path, smoke_eval_config):
        first = api.run(smoke_eval_config, store=tmp_path)
        assert not first.loaded_from_store
        summary = first.summary()
        assert first.wall_seconds > 0

        second = api.run(smoke_eval_config, store=tmp_path)
        assert second.loaded_from_store
        assert second.summary() == summary
        assert second.wall_seconds == 0.0
        # Still exactly one stored run.
        assert len(api.RunStore(tmp_path).runs()) == 1

    def test_different_seed_is_a_different_run(self, tmp_path, smoke_eval_config):
        api.run(smoke_eval_config, store=tmp_path).result()
        other = smoke_eval_config.with_overrides(seed=12)
        handle = api.run(other, store=tmp_path)
        assert not handle.loaded_from_store
        handle.result()
        assert len(api.RunStore(tmp_path).runs()) == 2

    def test_incomplete_run_is_not_served(self, tmp_path, smoke_eval_config):
        store = api.RunStore(tmp_path)
        writer = store.start_run(smoke_eval_config)
        # Abandon the run before finalize: status stays "running".
        assert store.get(smoke_eval_config) is None
        writer.abort()
        assert store.get(smoke_eval_config) is None
        # A real run afterwards overwrites the stale attempt.
        handle = api.run(smoke_eval_config, store=store)
        assert not handle.loaded_from_store
        handle.result()
        assert store.get(smoke_eval_config) is not None

    def test_truncated_rounds_file_is_not_replayed(self, tmp_path, smoke_eval_config):
        """A rounds file disagreeing with the manifest re-executes the run."""
        api.run(smoke_eval_config, store=tmp_path).result()
        store = api.RunStore(tmp_path)
        rounds_path = tmp_path / run_key(smoke_eval_config) / ROUNDS_NAME
        rounds_path.write_text("")  # simulate deletion/partial sync
        assert store.get(smoke_eval_config) is None
        handle = api.run(smoke_eval_config, store=tmp_path)
        assert not handle.loaded_from_store
        handle.result()
        assert store.get(smoke_eval_config) is not None

    def test_run_key_survives_version_and_cache_format_bumps(
        self, smoke_eval_config, monkeypatch
    ):
        """The store is an archive: releases must not orphan stored runs."""
        import repro

        before = run_key(smoke_eval_config)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert run_key(smoke_eval_config) == before

    # Now pins: dtype None and "float32" are one run with one key, and
    # "float64" is refused before it could be keyed.
    def test_run_key_covers_the_effective_dtype(self, smoke_eval_config):
        assert run_key(smoke_eval_config.with_overrides(dtype=None)) == run_key(
            smoke_eval_config.with_overrides(dtype="float32")
        )
        with pytest.raises(ValueError, match="dtype"):
            smoke_eval_config.with_overrides(dtype="float64")

    def test_store_summary_matches_direct_execution(self, tmp_path, smoke_eval_config):
        """The persisted summary equals the plain run_experiment path."""
        api.run(smoke_eval_config, store=tmp_path).result()
        stored = api.RunStore(tmp_path).get(smoke_eval_config)
        assert stored.load_result().summary() == run_experiment(smoke_eval_config).summary()


class TestResultsQueries:
    @pytest.fixture
    def populated(self, tmp_path):
        configs = {
            "mnist/fedsgd": evaluation_config(
                "mnist", "fedsgd", "noniid", SCALES["smoke"], seed=5, dtype="float32"
            ),
            "mnist/fedavg": evaluation_config(
                "mnist", "fedavg", "noniid", SCALES["smoke"], seed=5, dtype="float32"
            ),
        }
        handle = api.sweep(configs, store=tmp_path)
        return tmp_path, handle

    def test_open_filter_and_summaries(self, populated):
        tmp_path, handle = populated
        results = api.Results.open(tmp_path)
        assert len(results) == 2
        assert sorted(results.labels()) == ["mnist/fedavg", "mnist/fedsgd"]
        only_sgd = results.runs(algorithm="fedsgd")
        assert [run.algorithm for run in only_sgd] == ["fedsgd"]
        summaries = results.summaries()
        assert summaries["mnist/fedavg"] == handle["mnist/fedavg"].summary()

    def test_load_by_label(self, populated):
        tmp_path, handle = populated
        results = api.Results.open(tmp_path)
        result = results.load("mnist/fedavg")
        assert result.algorithm == "fedavg"
        with pytest.raises(KeyError, match="no stored run"):
            results.load("nope/nope")

    def test_render_from_store_alone(self, populated):
        tmp_path, _ = populated
        results = api.Results.open(tmp_path)
        rendering = results.render_summary()
        assert "mnist/fedavg" in rendering and "final_accuracy" in rendering
        durations = results.render_round_durations()
        assert "mean_round_duration_s" in durations

    def test_sweep_store_hits_on_rerun(self, populated, tmp_path):
        _, first = populated
        configs = {
            "mnist/fedsgd": evaluation_config(
                "mnist", "fedsgd", "noniid", SCALES["smoke"], seed=5, dtype="float32"
            ),
            "mnist/fedavg": evaluation_config(
                "mnist", "fedavg", "noniid", SCALES["smoke"], seed=5, dtype="float32"
            ),
        }
        second = api.sweep(configs, store=tmp_path)
        assert sorted(second.store_hits) == ["mnist/fedavg", "mnist/fedsgd"]
        assert second.summaries() == first.summaries()

class TestWriterLock:
    """The per-run writer lock (concurrent-server / crashed-writer safety)."""

    def test_second_simultaneous_writer_is_rejected(self, tmp_path, smoke_eval_config):
        store = api.RunStore(tmp_path)
        writer = store.start_run(smoke_eval_config)
        with pytest.raises(api.RunLockedError):
            store.start_run(smoke_eval_config)
        # A *different* configuration is a different lock: unaffected.
        other = smoke_eval_config.with_overrides(seed=12)
        store.start_run(other).abort()
        writer.abort()
        # Releasing the lock (abort or finalize) re-opens the run.
        store.start_run(smoke_eval_config).abort()

    def test_lock_survives_only_while_held(self, tmp_path, smoke_eval_config):
        store = api.RunStore(tmp_path)
        lock = tmp_path / run_key(smoke_eval_config) / LOCK_NAME
        writer = store.start_run(smoke_eval_config)
        assert lock.read_text().strip() == str(os.getpid())
        writer.abort()
        assert not lock.exists()

    def test_stale_lock_from_dead_writer_is_broken(self, tmp_path, smoke_eval_config):
        # A crashed writer (the SIGKILL crash-injection scenario) leaves a
        # lock whose pid is gone; the next writer must break it, not fail.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        run_dir = tmp_path / run_key(smoke_eval_config)
        run_dir.mkdir(parents=True)
        (run_dir / LOCK_NAME).write_text(str(proc.pid))

        store = api.RunStore(tmp_path)
        writer = store.start_run(smoke_eval_config)  # must not raise
        assert (run_dir / LOCK_NAME).read_text().strip() == str(os.getpid())
        writer.abort()

    def test_lock_held_by_live_foreign_pid_is_respected(
        self, tmp_path, smoke_eval_config
    ):
        run_dir = tmp_path / run_key(smoke_eval_config)
        run_dir.mkdir(parents=True)
        (run_dir / LOCK_NAME).write_text(str(os.getppid()))  # alive, not ours
        store = api.RunStore(tmp_path)
        with pytest.raises(api.RunLockedError, match="live writer"):
            store.start_run(smoke_eval_config)


class TestResultsToJson:
    def test_to_json_is_machine_readable_and_filtered(self, tmp_path, smoke_eval_config):
        api.run(smoke_eval_config, store=tmp_path).result()
        abandoned = smoke_eval_config.with_overrides(seed=12)
        api.RunStore(tmp_path).start_run(abandoned).abort()

        results = api.Results.open(tmp_path)
        document = results.to_json()
        assert document["results_dir"] == str(tmp_path)
        assert document["store_format"] == STORE_FORMAT
        assert document["count"] == 1
        (run,) = document["runs"]
        assert run["config_hash"] == run_key(smoke_eval_config)
        assert run["status"] == "complete"
        assert run["algorithm"] == "fedsgd"
        assert run["seed"] == 11
        assert run["summary"]["rounds"] == float(run["num_rounds"])
        # The whole document is JSON-serializable as-is.
        json.loads(json.dumps(document))

        everything = results.to_json(complete_only=False)
        assert everything["count"] == 2
        assert sorted(r["status"] for r in everything["runs"]) == [
            "complete",
            "incomplete",
        ]


class TestStaleBreakRace:
    """The two-breaker stale-lock race (writer-lock bugfix regression).

    Scenario: two processes both classify one lock stale; breaker A breaks
    it and re-acquires, then breaker B's *delayed* break fires.  The old
    bare ``os.unlink`` deleted A's fresh lock, opening the run to a second
    live writer on the same ``rounds.jsonl``.  The fixed break serializes
    through an flock guard and re-verifies pid+inode under it, so a break
    can only ever remove the exact stale inode it classified.
    """

    @staticmethod
    def _dead_pid() -> int:
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_delayed_break_spares_the_replacing_fresh_lock(self, tmp_path):
        from repro.api.store import (
            _acquire_run_lock,
            _break_stale_lock,
            _release_run_lock,
        )

        lock = tmp_path / LOCK_NAME
        lock.write_text(str(self._dead_pid()))
        stale_inode = os.stat(lock).st_ino

        # Breaker A: classifies stale, breaks, re-acquires.
        _acquire_run_lock(lock)
        try:
            assert lock.read_text().strip() == str(os.getpid())
            # Breaker B classified the *old* inode stale before A broke it;
            # its delayed break fires only now.  With the old logic this
            # unlinked A's fresh lock; now it must be a verified no-op.
            _break_stale_lock(lock, stale_inode)
            assert lock.exists()
            assert lock.read_text().strip() == str(os.getpid())
        finally:
            _release_run_lock(lock)

    def test_break_removes_exactly_the_verified_stale_inode(self, tmp_path):
        from repro.api.store import _break_stale_lock

        lock = tmp_path / LOCK_NAME
        lock.write_text(str(self._dead_pid()))
        _break_stale_lock(lock, os.stat(lock).st_ino)
        assert not lock.exists()

    def test_backoff_is_jittered_bounded_and_per_pid_deterministic(self, monkeypatch):
        import random as random_module

        from repro.api import store as store_module

        recorded = []
        monkeypatch.setattr(store_module.time, "sleep", recorded.append)

        def schedule(seed: int):
            recorded.clear()
            rng = random_module.Random(seed)
            for attempt in range(8):
                store_module._sleep_backoff(rng, attempt)
            return list(recorded)

        first = schedule(1234)
        assert schedule(1234) == first  # deterministic per seed (per pid)
        assert schedule(99) != first  # decorrelated across pids
        assert all(0.0 < delay <= 0.3 for delay in first)
        # The cap grows: late attempts back off harder than early ones.
        assert max(first[5:]) > max(first[:2])

    def test_multiprocess_stress_never_overlaps_writers(self, tmp_path):
        """N processes hammer one lock through the stale-break path.

        Every winner "crashes" (leaves a dead-pid lock instead of
        releasing), so each subsequent acquire must break a stale lock —
        the racy path.  An O_EXCL sentinel held while the lock is owned
        detects any two simultaneous writers.
        """
        dead_pid = self._dead_pid()
        lock = tmp_path / LOCK_NAME
        sentinel = tmp_path / "critical.sentinel"
        lock.write_text(str(dead_pid))
        src_root = str(
            __import__("pathlib").Path(__file__).resolve().parent.parent / "src"
        )
        worker = tmp_path / "lock_worker.py"
        worker.write_text(
            "import os, sys, time\n"
            f"sys.path.insert(0, {src_root!r})\n"
            "from pathlib import Path\n"
            "from repro.api.store import (RunLockedError, _HELD_LOCKS,\n"
            "    _HELD_LOCKS_GUARD, _acquire_run_lock)\n"
            "lock, sentinel, dead_pid = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]\n"
            "wins = overlaps = 0\n"
            "deadline = time.monotonic() + 6.0\n"
            "while time.monotonic() < deadline and wins < 12:\n"
            "    try:\n"
            "        _acquire_run_lock(lock)\n"
            "    except RunLockedError:\n"
            "        time.sleep(0.001)\n"
            "        continue\n"
            "    try:\n"
            "        fd = os.open(str(sentinel), os.O_CREAT | os.O_EXCL | os.O_WRONLY)\n"
            "    except FileExistsError:\n"
            "        overlaps += 1\n"
            "    else:\n"
            "        time.sleep(0.002)\n"
            "        os.close(fd)\n"
            "        os.unlink(str(sentinel))\n"
            "    wins += 1\n"
            "    # crash instead of releasing: leave a dead-pid (stale) lock\n"
            "    lock.write_text(dead_pid)\n"
            "    with _HELD_LOCKS_GUARD:\n"
            "        _HELD_LOCKS.discard(str(lock))\n"
            "print(wins, overlaps)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, str(worker), str(lock), str(sentinel), str(dead_pid)],
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(4)
        ]
        total_wins = total_overlaps = 0
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            wins, overlaps = (int(part) for part in out.split())
            total_wins += wins
            total_overlaps += overlaps
        assert total_overlaps == 0
        assert total_wins >= 8  # the stale-break path really was contended

    def test_a_lock_its_creator_has_not_signed_yet_is_not_broken(self, tmp_path):
        """The creator of a lock stalls between creating it and writing its
        pid; a rival that finds the lock meanwhile must not take it for the
        debris of a crash.  Exactly one of the two may hold the lock."""
        lock = tmp_path / LOCK_NAME
        stalled = tmp_path / "creator-stalled"
        src_root = str(
            __import__("pathlib").Path(__file__).resolve().parent.parent / "src"
        )
        creator = tmp_path / "lock_creator.py"
        creator.write_text(
            "import os, sys, time\n"
            f"sys.path.insert(0, {src_root!r})\n"
            "from pathlib import Path\n"
            "from repro.api.store import RunLockedError, _acquire_run_lock\n"
            "lock, stalled = Path(sys.argv[1]), Path(sys.argv[2])\n"
            "write = os.write\n"
            "def stalling_write(fd, data):\n"
            "    os.write = write\n"
            "    stalled.touch()\n"
            "    time.sleep(1.5)\n"
            "    return write(fd, data)\n"
            "os.write = stalling_write\n"
            "try:\n"
            "    _acquire_run_lock(lock)\n"
            "except RunLockedError:\n"
            "    print('refused', flush=True)\n"
            "else:\n"
            "    print('holds', flush=True)\n"
            "sys.stdin.read()  # hold on until the test has looked\n"
        )
        from repro.api.store import RunLockedError, _acquire_run_lock, _release_run_lock

        proc = subprocess.Popen(
            [sys.executable, str(creator), str(lock), str(stalled)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not stalled.exists():
                assert proc.poll() is None and time.monotonic() < deadline, "the creator never stalled"
                time.sleep(0.005)
            try:
                _acquire_run_lock(lock)
            except RunLockedError:
                rival_holds = False
            else:
                rival_holds = True
            creator_holds = proc.stdout.readline().strip() == "holds"
            if rival_holds:
                _release_run_lock(lock)
        finally:
            proc.communicate(timeout=60)
        assert rival_holds != creator_holds, (rival_holds, creator_holds)


# ---------------------------------------------------------------------------
# The retired float64 runs: null and "float32" load, "float64" is refused
# ---------------------------------------------------------------------------
class TestLegacyDtype:
    """Every run computes in float32; releases that also ran float64 wrote
    ``"dtype": "float64"`` into manifests, and submitters may still send it."""

    @pytest.mark.parametrize("value", [None, "float32"])
    def test_a_float32_manifest_or_override_loads_to_an_equal_config(self, smoke_eval_config, value):
        from repro.fl.config import config_from_dict, config_to_dict
        from repro.serve.protocol import parse_spec_payload

        written = smoke_eval_config.with_overrides(dtype=value)
        assert config_from_dict(config_to_dict(written)) == written
        assert run_key(written) == run_key(smoke_eval_config)
        spec = {"algorithm": "fedavg", "scale": "smoke"}
        legacy, _ = parse_spec_payload(dict(spec, overrides={"dtype": value}))
        plain, _ = parse_spec_payload(spec)
        assert legacy.dtype == value
        assert legacy.with_overrides(dtype=None) == plain
        assert run_key(legacy) == run_key(plain)

    def test_float64_is_refused_naming_the_field(self, smoke_eval_config):
        from repro.fl.config import config_from_dict, config_to_dict
        from repro.serve.protocol import ERR_INVALID_SPEC, ProtocolError, parse_spec_payload

        payload = config_to_dict(smoke_eval_config)
        with pytest.raises(ValueError, match="dtype='float64'"):
            config_from_dict(dict(payload, dtype="float64"))
        spec = {"algorithm": "fedavg", "scale": "smoke", "overrides": {"dtype": "float64"}}
        with pytest.raises(ProtocolError) as excinfo:
            parse_spec_payload(spec)
        assert excinfo.value.code == ERR_INVALID_SPEC and "dtype" in excinfo.value.message

    @staticmethod
    def _as_float64(store_root, config, **manifest_fields):
        """Rewrite a stored run's manifest as a float64 release wrote it."""
        path = api.RunStore(store_root).run_dir(run_key(config)) / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["dtype"] = manifest["config"]["dtype"] = "float64"
        manifest.update(manifest_fields)
        path.write_text(json.dumps(manifest))

    def test_a_stored_float64_run_scans_and_loads_but_its_config_does_not(
        self, tmp_path, smoke_eval_config
    ):
        expected = api.run(smoke_eval_config, store=tmp_path).result().summary()
        self._as_float64(tmp_path, smoke_eval_config)
        (stored,) = api.RunStore(tmp_path).scan()["complete"]
        assert stored.config_hash == run_key(smoke_eval_config)
        assert stored.manifest["dtype"] == "float64"
        assert stored.load_result().summary() == expected
        with pytest.raises(ValueError, match="dtype"):
            stored.load_config()

    def test_a_restarted_server_skips_a_resumable_float64_run(
        self, tmp_path, smoke_eval_config, caplog
    ):
        from repro.api.store import CHECKPOINT_NAME
        from repro.serve.session import SessionManager

        api.run(smoke_eval_config, store=tmp_path).result()
        self._as_float64(tmp_path, smoke_eval_config, status="running")
        (api.RunStore(tmp_path).run_dir(run_key(smoke_eval_config)) / CHECKPOINT_NAME).write_bytes(b"")
        store = api.RunStore(tmp_path)
        assert len(store.scan()["resumable"]) == 1
        manager = SessionManager(store, workers=1)
        try:
            with caplog.at_level("WARNING", logger="repro.serve.session"):
                assert manager.resume_all() == []
        finally:
            manager.drain()
        assert "cannot resume stored run" in caplog.text and "dtype" in caplog.text
