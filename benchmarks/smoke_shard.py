"""Smoke check of the shard plane: ``shards=2`` leaves ``rounds.jsonl`` byte
for byte as the single-process run does.

Three legs, each compared with the single-process run of its config:

* a city churn cohort (FedAvg);
* the paper's algorithm under churn, with its mid-round offload freezes;
* Aergia under ``partition-storm`` at ``shards=2``, seed 7, checkpointed
  every round, asked to drain after its first round and resumed.  Its
  rounds finalize on a quorum, so at the boundary after round 2, where the
  drain stops, a strong client is still training the offloaded model of a
  weak client that missed the quorum: a checkpoint runs every training job
  it holds — own or offloaded, a round still in progress up to its last
  batch drawn — and captures the client's round whole.

The single-process legs pin ``shards=1``: an unset ``shards`` runs on one
worker per usable core, which would compare the shard plane with itself.
Run from the repository root::

    PYTHONPATH=src python benchmarks/smoke_shard.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import repro.api as api
from repro.api import RunStore, run, run_key


def _rounds_bytes(store: RunStore, key: str) -> bytes:
    return (store.run_dir(key) / "rounds.jsonl").read_bytes()


def _leg(root: Path, algorithm: str, scale: str, scenario: str, seed: int, resume: bool) -> None:
    overrides = dict(rounds=2, shards=1)
    if resume:
        overrides.update(rounds=3, checkpoint_interval=1)
    solo = (
        api.experiment(algorithm)
        .dataset("mnist")
        .partition("iid")
        .scale(scale)
        .scenario(scenario)
        .seed(seed)
        .override(**overrides)
        .build()
    )
    sharded = solo.with_overrides(shards=2)
    key = run_key(solo)
    assert key == run_key(sharded), "shards must not change the run key"
    solo_store, shard_store = RunStore(root / "solo"), RunStore(root / "shard")
    run(solo, store=solo_store).result()
    if resume:
        handle = run(sharded, store=shard_store)
        stream = handle.stream()
        next(stream)
        handle.request_stop("checkpoint")
        for _record in stream:
            pass
        assert handle.stopped, "the sharded run did not stop at its checkpoint"
        resumed = run(sharded, store=shard_store, resume=True)
        resumed.result()
        assert resumed.resumed_from_round == 2, "the drain did not stop at the next boundary"
    else:
        run(sharded, store=shard_store).result()
    solo_bytes, shard_bytes = _rounds_bytes(solo_store, key), _rounds_bytes(shard_store, key)
    assert solo_bytes == shard_bytes, "sharded rounds.jsonl must match bitwise"
    how = "checkpointed, stopped and resumed" if resume else "straight through"
    print(f"2-shard {algorithm} {scale} {scenario}, {how}: {len(shard_bytes)} bytes, bit-exact")


def main() -> int:
    for leg in (
        ("fedavg", "city", "churn", 7, False),
        ("aergia", "smoke", "churn", 13, False),
        ("aergia", "smoke", "partition-storm", 7, True),
    ):
        root = Path(tempfile.mkdtemp(prefix="repro-smoke-shard-"))
        try:
            _leg(root, *leg)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
