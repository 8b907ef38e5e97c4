"""Crash-injection harness for the checkpoint/resume tests.

Importable from the test suite *and* runnable as a subprocess entry
point::

    python tests/crash_harness.py <config.json> <store_dir> <crash_round>

The child starts a store-backed run of the given configuration and
SIGKILLs itself the instant the round listener sees ``crash_round``
finalize — a real, unclean death (no atexit handlers, no flushing, no
``finally`` blocks), exactly what the resume path must survive.  The
parent side (:func:`run_and_crash`) asserts the child actually died from
the signal, then resumes in-process and compares byte-for-byte against
an uninterrupted golden run.

It is also a ``REPRO_PLUGINS`` module for crashing a *pool worker* of a
sweep, where there is no child command line to own: with
``CRASH_HARNESS_PROBE_DIR`` set, importing it (every pool worker does,
through ``load_plugins``) registers the ``fedavg-probe`` algorithm — see
:func:`register_probe_federator`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
for entry in (str(SRC_ROOT), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.fl.config import DynamicsConfig, ExperimentConfig, ResourceConfig, TransportConfig


# ----------------------------------------------------------- config transport
def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-safe dict round-trippable through :func:`config_from_dict`."""
    return dataclasses.asdict(config)


def config_from_dict(payload: dict) -> ExperimentConfig:
    payload = dict(payload)
    payload["resources"] = ResourceConfig(**payload["resources"])
    payload["dynamics"] = DynamicsConfig(**payload["dynamics"])
    payload["transport"] = TransportConfig(**payload["transport"])
    return ExperimentConfig(**payload)


# -------------------------------------------------------------- parent side
def run_and_crash(
    config: ExperimentConfig,
    store_dir: Path,
    crash_round: int,
    kill_worker_marker: Optional[Path] = None,
) -> None:
    """Run ``config`` against ``store_dir`` in a subprocess killed with
    SIGKILL when round ``crash_round`` finalizes; asserts the kill landed.

    With ``kill_worker_marker`` the child also SIGKILLs one of its shard
    workers on the way — see :func:`kill_a_shard_worker_holding_jobs`.
    """
    store_dir = Path(store_dir).resolve()  # the child runs from REPO_ROOT
    store_dir.mkdir(parents=True, exist_ok=True)
    config_path = store_dir / "crash-config.json"
    config_path.write_text(json.dumps(config_to_dict(config)))
    env = dict(os.environ)
    env["REPRO_SCALE"] = "smoke"
    if kill_worker_marker is not None:
        env[KILL_WORKER_ENV] = str(kill_worker_marker)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_ROOT), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(config_path), str(store_dir), str(crash_round)],
        env=env,
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == -signal.SIGKILL, (
        f"crash child should die from SIGKILL at round {crash_round}, got "
        f"returncode {completed.returncode}\nstdout: {completed.stdout}\n"
        f"stderr: {completed.stderr}"
    )


def read_rounds_bytes(store_dir: Path, key: str) -> bytes:
    from repro.api.store import RunStore

    return (RunStore(store_dir).run_dir(key) / "rounds.jsonl").read_bytes()


def round_dicts(result) -> List[dict]:
    return [dataclasses.asdict(record) for record in result.rounds]


def golden_run(config, tmp_path):
    """The uninterrupted run a resumed one is compared with, and its store."""
    from repro.api import RunStore, run

    store = RunStore(tmp_path / "golden")
    return run(config, store=store).result(), store


def assert_bitwise_resume(config, golden, golden_store, resumed_handle, store):
    from repro.api import run_key

    result = resumed_handle.result()
    assert resumed_handle.resumed_from_round is not None, "run did not resume"
    assert round_dicts(result) == round_dicts(golden)
    assert json.dumps(result.summary(), sort_keys=True) == json.dumps(
        golden.summary(), sort_keys=True
    )
    key = run_key(config)
    assert read_rounds_bytes(store.root, key) == read_rounds_bytes(golden_store.root, key)
    stored = store.get(config)
    assert stored is not None, "resumed run should be complete in the store"
    assert not stored.has_checkpoint, "finalize must remove the checkpoint"


# ------------------------------------------------------- pool-worker side
PROBE_ALGORITHM = "fedavg-probe"
PROBE_DIR_ENV = "CRASH_HARNESS_PROBE_DIR"
KILL_ROUND_ENV = "CRASH_HARNESS_KILL_ROUND"


def register_probe_federator() -> None:
    """Register ``fedavg-probe``: FedAvg that reports and can kill its process.

    Every finalized round drops a file named after the process id into
    ``$CRASH_HARNESS_PROBE_DIR`` (which processes executed cells); with
    ``$CRASH_HARNESS_KILL_ROUND`` set, the process SIGKILLs itself when that
    round finalizes.  Both are read at run time, so one registration serves
    a crashing sweep and the clean sweep that resumes it.
    """
    from repro.fl.federator import FedAvgFederator
    from repro.registry import FEDERATORS

    class ProbeFederator(FedAvgFederator):
        algorithm_name = PROBE_ALGORITHM

        def finalize_round(self, state) -> None:
            super().finalize_round(state)
            (Path(os.environ[PROBE_DIR_ENV]) / str(os.getpid())).touch()
            kill_round = os.environ.get(KILL_ROUND_ENV)
            if kill_round and state.round_number >= int(kill_round):
                os.kill(os.getpid(), signal.SIGKILL)

    FEDERATORS.unregister(PROBE_ALGORITHM)
    FEDERATORS.register(PROBE_ALGORITHM, ProbeFederator, description="crash-harness probe")


if os.environ.get(PROBE_DIR_ENV):
    register_probe_federator()


# --------------------------------------------------------------- child side
KILL_WORKER_ENV = "CRASH_HARNESS_KILL_WORKER_MARKER"


def kill_a_shard_worker_holding_jobs(marker: Path) -> None:
    """SIGKILL the first shard worker that is asked for a result while at
    least two of its per-client jobs are uncollected, once per process;
    ``marker`` then holds how many it held.  The pool must respawn it and
    re-dispatch every one of them."""
    from repro.simulation.shard import ShardPool

    collect = ShardPool.collect

    def killing_collect(pool, shard, job_id):
        held = [key for key in pool._outstanding if key[0] == shard and key not in pool._buffered]
        if len(held) >= 2 and not marker.exists():
            worker = pool._workers[shard]
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.wait(timeout=30)
            marker.write_text(str(len(held)))
        return collect(pool, shard, job_id)

    ShardPool.collect = killing_collect


def _child_main(argv: List[str]) -> int:
    from repro.api import RunStore
    from repro.api.handles import run

    config_path, store_dir, crash_round = argv[0], argv[1], int(argv[2])
    config = config_from_dict(json.loads(Path(config_path).read_text()))
    if os.environ.get(KILL_WORKER_ENV):
        kill_a_shard_worker_holding_jobs(Path(os.environ[KILL_WORKER_ENV]))

    def crash_on_round(record) -> None:
        if record.round_number >= crash_round:
            os.kill(os.getpid(), signal.SIGKILL)

    handle = run(config, store=RunStore(store_dir), on_round=crash_on_round)
    handle.result()
    # Reachable only if crash_round was beyond the run's horizon.
    return 0


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
