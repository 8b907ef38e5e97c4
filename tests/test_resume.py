"""Checkpoint/resume: crash injection and bitwise-identical continuation.

The contract under test (docs/architecture.md, "Checkpoint & resume"): a
run interrupted at any point after a checkpoint and resumed with
``resume=True`` produces **byte-for-byte** the same ``rounds.jsonl`` and
the same summary as the same configuration run uninterrupted.

Two interruption modes are exercised:

* *in-process*: the streaming iterator is closed mid-run (the writer
  aborts, the manifest stays ``running``), covering every federator;
* *crash-injection*: a subprocess SIGKILLs itself at a seeded-random
  round (see ``tests/crash_harness.py``) — no cleanup code runs at all —
  for the paper's headline algorithms across stable and churning
  clusters.

A graceful drain (``request_stop("checkpoint")``) is a generated property:
Hypothesis draws the federator, scenario, transport, seed, drain round and
shard count, and the drain must stop at the first capture point after the
request and resume bitwise — a capture never refuses.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.api as api
from crash_harness import (
    assert_bitwise_resume,
    golden_run,
    read_rounds_bytes,
    round_dicts,
    run_and_crash,
)
from repro.api import RunStore, run, run_key
from repro.api.store import CHECKPOINT_NAME
from repro.fl.checkpoint import CHECKPOINT_FORMAT, capture_snapshot, load_checkpoint
from repro.experiments.workloads import SCALES, scenario_transport
from repro.fl.runtime import build_experiment
from repro.registry import SCENARIOS

ALL_ALGORITHMS = [
    "aergia",
    "deadline",
    "fedavg",
    "fedasync",
    "fedbuff",
    "fednova",
    "fedprox",
    "fedsgd",
    "tifl",
]

#: Algorithms pinned through the full subprocess SIGKILL harness (the
#: paper's system plus one sync and one async baseline).
CRASH_ALGORITHMS = ["aergia", "fedavg", "fedbuff"]

ROUNDS = 4


def make_config(algorithm, scenario="churn", seed=7, **overrides):
    merged = {"checkpoint_interval": 1, "rounds": ROUNDS, **overrides}
    return (
        api.experiment(algorithm)
        .dataset("mnist")
        .partition("iid")
        .scale("smoke")
        .scenario(scenario)
        .seed(seed)
        .override(**merged)
        .build()
    )


def interrupt_after(config, store, consumed_rounds):
    """Start a store-backed run, consume a few rounds, abandon the stream."""
    handle = run(config, store=store)
    iterator = handle.stream()
    for _ in range(consumed_rounds):
        next(iterator)
    iterator.close()  # writer aborts; manifest stays "running"
    return handle


def _drain(config, store, after_rounds):
    """Stream a store-backed run, ask for a graceful drain once
    ``after_rounds`` records are out, and return the checkpoint the run
    stopped at — which must be the first capture point after the request."""
    handle = run(config, store=store)
    stream = handle.stream()
    for _ in range(after_rounds):
        next(stream)
    federator = handle.experiment.federator
    hook, points = federator.checkpoint_hook, []

    def watched_hook():
        points.append((federator.env.now, federator._rounds_completed))
        hook()

    federator.checkpoint_hook = watched_hook
    handle.request_stop("checkpoint")
    for _record in stream:
        pass
    assert handle.stopped, "the drain ran the run to its end"
    key = run_key(config)
    snapshot = load_checkpoint(store.run_dir(key) / CHECKPOINT_NAME, run_key=key)
    assert len(points) == 1, "the drain passed a capture point without stopping"
    assert (snapshot["now"], snapshot["round"]) == points[0]
    return snapshot


# ---------------------------------------------------------------------------
# In-process interruption: the full federator matrix
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_interrupted_run_resumes_bitwise_identical(algorithm, tmp_path):
    config = make_config(algorithm)
    golden, golden_store = golden_run(config, tmp_path)

    store = RunStore(tmp_path / "resumed")
    interrupt_after(config, store, consumed_rounds=2)
    assert store.get(config) is None, "interrupted run must not read as complete"

    resumed = run(config, store=store, resume=True)
    assert_bitwise_resume(config, golden, golden_store, resumed, store)


def test_virtual_pool_run_resumes_bitwise_identical(tmp_path):
    config = make_config("aergia", pool_slots=3)
    golden, golden_store = golden_run(config, tmp_path)

    store = RunStore(tmp_path / "resumed")
    interrupt_after(config, store, consumed_rounds=2)
    resumed = run(config, store=store, resume=True)
    assert_bitwise_resume(config, golden, golden_store, resumed, store)


# ---------------------------------------------------------------------------
# Graceful drain: generated federator x scenario x transport x execution mode
# ---------------------------------------------------------------------------
#: Drains whose checkpoint holds a strong client mid-offload: a capture used
#: to refuse these boundaries, so the drain ran the run to its end.
MID_OFFLOAD_DRAINS = {("aergia", "churn", 13), ("aergia", "partition-storm", 7)}
#: Drains whose checkpoint is taken inside the scenario event that ends the
#: round (a client going offline): the event's rest is in the snapshot.
MID_EVENT_DRAINS = {("fedavg", "churn", 6)}


@settings(max_examples=5, deadline=None, derandomize=True)
@example(
    algorithm="aergia", scenario="churn", transport="stable", seed=13, drain_round=1, shards=1
)
@example(
    algorithm="fedavg", scenario="churn", transport="stable", seed=6, drain_round=1, shards=1
)
@example(
    algorithm="aergia",
    scenario="partition-storm",
    transport="partition-storm",
    seed=7,
    drain_round=1,
    shards=1,
)
@given(
    algorithm=st.sampled_from(ALL_ALGORITHMS),
    scenario=st.sampled_from(SCENARIOS.names()),
    transport=st.sampled_from(["stable", "lossy", "partition-storm"]),
    seed=st.integers(0, 10_000),
    drain_round=st.integers(1, 2),
    shards=st.sampled_from([1, 2]),
)
def test_a_drain_stops_at_the_next_capture_point_and_resumes_bitwise(
    algorithm, scenario, transport, seed, drain_round, shards
):
    config = make_config(
        algorithm,
        scenario,
        seed=seed,
        rounds=drain_round + 2,
        transport=scenario_transport(transport, SCALES["smoke"]),
        shards=shards,
    )
    key = run_key(config)
    with tempfile.TemporaryDirectory() as root:
        golden_store, store = RunStore(Path(root) / "golden"), RunStore(Path(root) / "drained")
        # The straight-through run in this process: sharded == flat.
        run(config.with_overrides(shards=1), store=golden_store).result()
        snapshot = _drain(config, store, after_rounds=drain_round)
        if (algorithm, scenario, seed) in MID_OFFLOAD_DRAINS:
            hydrated = snapshot["pool"]["hydrated"]
            assert any(state.get("package") is not None for _cid, state in hydrated)
        if (algorithm, scenario, seed) in MID_EVENT_DRAINS:
            assert snapshot["dynamics"]["tail"] is not None
        resumed = run(config, store=store, resume=True)
        resumed.result()
        assert resumed.resumed_from_round == snapshot["round"]
        assert read_rounds_bytes(store.root, key) == read_rounds_bytes(golden_store.root, key)


# ---------------------------------------------------------------------------
# Crash injection: SIGKILL at a seeded-random round, resume, compare bytes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scenario", ["stable", "churn", "lossy"])
@pytest.mark.parametrize("algorithm", CRASH_ALGORITHMS)
def test_sigkill_crash_resumes_bitwise_identical(algorithm, scenario, tmp_path):
    config = make_config(algorithm, scenario=scenario)
    golden, golden_store = golden_run(config, tmp_path)

    # The crash round is random but derived from a fixed per-case seed, so
    # failures reproduce; >= 2 guarantees at least one written checkpoint
    # (interval 1) before the kill.
    rng = random.Random(f"{algorithm}/{scenario}")
    crash_round = rng.randint(2, ROUNDS - 1)

    store_dir = tmp_path / "crashed"
    run_and_crash(config, store_dir, crash_round)

    store = RunStore(store_dir)
    assert store.get(config) is None, "crashed run must not read as complete"
    scan = store.scan()
    key = run_key(config)
    assert key in [stored.config_hash for stored in scan["resumable"]]

    resumed = run(config, store=store, resume=True)
    assert_bitwise_resume(config, golden, golden_store, resumed, store)


# ---------------------------------------------------------------------------
# Resume edge cases
# ---------------------------------------------------------------------------
def test_resume_without_checkpoint_runs_from_scratch(tmp_path):
    config = make_config("fedavg", checkpoint_interval=None)
    golden, _ = golden_run(config, tmp_path)

    store = RunStore(tmp_path / "resumed")
    interrupt_after(config, store, consumed_rounds=1)  # no checkpoint written
    resumed = run(config, store=store, resume=True)
    result = resumed.result()
    assert resumed.resumed_from_round is None
    assert round_dicts(result) == round_dicts(golden)


def test_resume_ignores_checkpoint_for_other_run_key(tmp_path):
    config = make_config("fedavg")
    store = RunStore(tmp_path / "store")
    interrupt_after(config, store, consumed_rounds=2)
    checkpoint_path = store.run_dir(run_key(config)) / CHECKPOINT_NAME
    assert checkpoint_path.exists()
    assert load_checkpoint(checkpoint_path, run_key="not-this-run") is None
    assert load_checkpoint(checkpoint_path, run_key=run_key(config)) is not None


def test_corrupt_checkpoint_is_ignored(tmp_path):
    config = make_config("fedavg")
    golden, _ = golden_run(config, tmp_path)
    store = RunStore(tmp_path / "resumed")
    interrupt_after(config, store, consumed_rounds=2)
    checkpoint_path = store.run_dir(run_key(config)) / CHECKPOINT_NAME
    payload = checkpoint_path.read_bytes()
    checkpoint_path.write_bytes(payload[: len(payload) // 2])  # torn write

    resumed = run(config, store=store, resume=True)
    result = resumed.result()
    assert resumed.resumed_from_round is None  # fell back to scratch
    assert round_dicts(result) == round_dicts(golden)


def test_checkpoint_of_an_older_format_restarts_from_scratch(tmp_path):
    """A crashed run whose checkpoint predates the current snapshot layout
    (format 3 still had the per-client ``"clients"`` section) is not
    resumed from it: the run restarts and finishes with the same bytes."""
    config = make_config("fedavg")
    golden, golden_store = golden_run(config, tmp_path)
    store_dir = tmp_path / "crashed"
    run_and_crash(config, store_dir, crash_round=2)
    key = run_key(config)
    checkpoint_path = RunStore(store_dir).run_dir(key) / CHECKPOINT_NAME
    snapshot = pickle.loads(checkpoint_path.read_bytes())
    assert snapshot["format"] == CHECKPOINT_FORMAT
    snapshot["format"] = 3
    checkpoint_path.write_bytes(pickle.dumps(snapshot))

    store = RunStore(store_dir)
    resumed = run(config, store=store, resume=True)
    result = resumed.result()
    assert resumed.resumed_from_round is None  # fell back to scratch
    assert round_dicts(result) == round_dicts(golden)
    assert read_rounds_bytes(store.root, key) == read_rounds_bytes(golden_store.root, key)
    assert store.get(config) is not None


#: Check-ins admitted once round 1 has finalized, as ``(client, online,
#: delay)``: both firing times lie after round 2 ends, where the drain below
#: checkpoints, and before the run's last round.
CHECKINS = [(0, False, 0.5), (1, False, 0.5), (0, True, 0.5), (2, False, 0.9), (0, False, 0.9)]


def _admit_batch(dynamics):
    dynamics.admit_checkins(CHECKINS)


def _admit_one_event_per_line(dynamics):
    # What a checkpoint written before check-ins were batched holds.
    for client, online, delay in CHECKINS:
        dynamics._schedule(delay, "checkin", (client, online))


def _run_with_checkins(config, store, admit, drain=False):
    handle = run(config, store=store)
    stream = handle.stream()
    next(stream)  # between two events: the stream is suspended
    admit(handle.experiment.dynamics)
    if drain:
        handle.request_stop("checkpoint")
    for _record in stream:
        pass
    return handle


@pytest.mark.parametrize(
    "admit, kind", [(_admit_batch, "checkins"), (_admit_one_event_per_line, "checkin")]
)
def test_pending_checkins_resume_bitwise_identical(admit, kind, tmp_path):
    config = make_config("fedavg", rounds=8)
    key = run_key(config)
    golden_store = RunStore(tmp_path / "golden")
    _run_with_checkins(config, golden_store, _admit_batch)

    store = RunStore(tmp_path / "drained")
    drained = _run_with_checkins(config, store, admit, drain=True)
    assert drained.stopped
    snapshot = load_checkpoint(store.run_dir(key) / CHECKPOINT_NAME, run_key=key)
    assert snapshot["format"] == CHECKPOINT_FORMAT
    pending = [entry[2] for entry in snapshot["dynamics"]["pending"]]
    assert pending.count(kind) == (2 if kind == "checkins" else len(CHECKINS))

    resumed = run(config, store=store, resume=True)
    for _record in resumed.stream():
        applied = resumed.experiment.dynamics.checkin_events
    assert resumed.resumed_from_round is not None
    assert applied == len(CHECKINS)  # every one fired after the resume
    assert read_rounds_bytes(store.root, key) == read_rounds_bytes(golden_store.root, key)


def test_a_checkin_batch_that_ends_a_round_resumes_bitwise(tmp_path):
    # Client 0 going offline ends round 2 inside the batch event, where the
    # drain checkpoints: the snapshot holds the batch's other seven lines,
    # and the resume applies them once it has re-entered the round start.
    lines = [(client, False, 0.25) for client in range(4)]
    lines += [(client, True, 0.25) for client in range(4)]

    def admit(dynamics):
        dynamics.admit_checkins(lines)

    config = make_config("fedavg")
    key = run_key(config)
    golden_store, store = RunStore(tmp_path / "golden"), RunStore(tmp_path / "drained")
    _run_with_checkins(config, golden_store, admit)
    assert _run_with_checkins(config, store, admit, drain=True).stopped
    snapshot = load_checkpoint(store.run_dir(key) / CHECKPOINT_NAME, run_key=key)
    assert snapshot["round"] == 2
    assert snapshot["dynamics"]["tail"] == ("checkins", tuple((c, o) for c, o, _ in lines[1:]))
    run(config, store=store, resume=True).result()
    assert read_rounds_bytes(store.root, key) == read_rounds_bytes(golden_store.root, key)


def test_capture_refuses_busy_client_and_unaccounted_events(tmp_path):
    # Now pins: a capture never refuses.  A stray event the snapshot cannot
    # re-create is a capture bug and raises, naming both counts; a strong
    # client still training an offloaded model when the round ends is
    # captured, and the run resumes from it bitwise.
    experiment = build_experiment(make_config("fedavg"))
    accounted = experiment.cluster.env.pending_events()
    assert capture_snapshot(experiment) is not None
    stray = experiment.cluster.env.schedule(1.0, lambda: None)
    with pytest.raises(RuntimeError, match=f"{accounted + 1} events pending, {accounted} of"):
        capture_snapshot(experiment)
    stray.cancel()

    # Aergia under churn, seed 13: weak client 1 going offline ends round 2,
    # and the boundary finds client 3 still training client 1's model.
    config = make_config("aergia", seed=13, rounds=3)
    golden, golden_store = golden_run(config, tmp_path)
    store = RunStore(tmp_path / "drained")
    snapshot = _drain(config, store, after_rounds=1)
    assert snapshot["round"] == 2
    strong = dict(snapshot["pool"]["hydrated"])[3]
    assert strong["package"].source_client_id == 1
    assert strong["own_training_done"] and strong["pending_batch"] is not None
    resumed = run(config, store=store, resume=True)
    assert_bitwise_resume(config, golden, golden_store, resumed, store)


def test_checkpoint_interval_excluded_from_run_key():
    base = make_config("fedavg", checkpoint_interval=None)
    assert run_key(base) == run_key(base.with_overrides(checkpoint_interval=1))
    assert run_key(base) == run_key(base.with_overrides(checkpoint_interval=7))

    from repro.api.store import canonical_config

    canonical = canonical_config(base.with_overrides(checkpoint_interval=3))
    assert "checkpoint_interval" not in canonical


# ---------------------------------------------------------------------------
# Torn-file hardening: truncated JSONL / manifests are misses, not errors
# ---------------------------------------------------------------------------
def test_store_treats_torn_rounds_line_as_incomplete(tmp_path):
    config = make_config("fedavg")
    store = RunStore(tmp_path / "store")
    run(config, store=store).result()
    assert store.get(config) is not None

    rounds_path = store.run_dir(run_key(config)) / "rounds.jsonl"
    payload = rounds_path.read_bytes()
    rounds_path.write_bytes(payload[:-25])  # tear the last record mid-line

    stored = store.get(config)
    assert stored is None, "a torn rounds file must read as a miss, not raise"

    # The longest clean prefix still parses for inspection tools.
    from repro.api.store import StoredRun

    damaged = StoredRun(store.run_dir(run_key(config)))
    parsed = damaged.rounds()
    assert len(parsed) == ROUNDS - 1
    with pytest.raises(ValueError):
        damaged.load_result()  # count mismatch stays loud on the strict path


def test_store_treats_corrupt_manifest_as_missing(tmp_path):
    config = make_config("fedavg")
    store = RunStore(tmp_path / "store")
    run(config, store=store).result()
    manifest = store.run_dir(run_key(config)) / "manifest.json"
    manifest.write_text(manifest.read_text()[:40])
    assert store.get(config) is None


def test_result_cache_treats_truncated_entry_as_miss(tmp_path):
    """The store is the sweep's cache: a manifest cut in half is a miss the
    next sweep recomputes, and an unreadable neighbour breaks no listing."""
    config = make_config("fedavg", checkpoint_interval=None, rounds=1)
    store = RunStore(tmp_path / "store")
    cold = api.sweep({"only": config}, store=store)
    assert store.get(config) is not None

    entry = store.run_dir(run_key(config)) / "manifest.json"
    payload = entry.read_bytes()
    entry.write_bytes(payload[: len(payload) // 2])
    assert store.get(config) is None, "truncated manifests are misses"
    assert store.runs() == []

    again = api.sweep({"only": config}, store=store)
    assert again.store_hits == []
    assert round_dicts(again.results["only"]) == round_dicts(cold.results["only"])
    assert store.get(config) is not None
