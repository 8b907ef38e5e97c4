"""Persistent run storage: typed manifests + per-round JSONL records.

Every run executed through :mod:`repro.api` can be persisted into a
:class:`RunStore` — a results directory with one sub-directory per run,
keyed by the run's :func:`run_key` (a content hash of its configuration)::

    results/
      <config_hash>/
        manifest.json     # typed manifest: config hash, scenario, dtype,
                          # source revision, status, summary, full config
        rounds.jsonl      # one JSON object per RoundRecord, appended as
                          # rounds finalize (so a crash leaves the rounds
                          # recorded so far on disk)

The manifest is written twice: once when the run starts (``status:
"running"``) and once when it completes (``status: "complete"``, now
including the flat summary and wall-clock).  :class:`Results` is the query
facade: open a results directory, filter runs by algorithm / dataset /
scenario, reload full :class:`repro.fl.metrics.ExperimentResult` objects
(bit-for-bit summaries — JSON round-trips Python floats exactly) and render
report tables from the store alone, with no in-memory results.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import os
import random
import subprocess
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

import repro
from repro.fl.config import ExperimentConfig, TransportConfig
from repro.fl.metrics import ExperimentResult, RoundRecord

#: Bumped whenever the on-disk layout of manifests/round records changes,
#: or when simulation semantics change such that replaying an old stored
#: run would silently misrepresent the current code's behaviour.
STORE_FORMAT = 1

# ---------------------------------------------------------------------------
# Run identity: which config fields name a run, and the key derived from them
# ---------------------------------------------------------------------------
#: Config fields describing *how* an experiment executes, not *what* it
#: computes; each is pinned bitwise-neutral by a parity suite, so runs that
#: differ only here share one store entry (and archives written before a
#: knob existed keep their keys):
#: ``pool_slots`` — a tight arena == one that never evicts
#: (tests/test_virtual_pool.py); ``checkpoint_interval`` — checkpointed ==
#: straight-through (tests/test_resume.py); ``shards`` — sharded ==
#: single-process (tests/test_shard.py).
EXECUTION_FIELDS = (
    "pool_slots",
    "checkpoint_interval",
    "shards",
)


def _jsonable(value: object) -> object:
    """Normalise a config field value into a JSON-stable representation."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


def canonical_config(config: ExperimentConfig) -> Dict[str, object]:
    """Canonical JSON-stable dict of a config's *result-relevant* fields.

    Drops :data:`EXECUTION_FIELDS` — execution-strategy knobs that cannot
    change results — so store keys are shared across materialization modes
    and across checkpointed/straight-through runs.
    """
    canonical = _jsonable(dataclasses.asdict(config))
    for field_name in EXECUTION_FIELDS:
        canonical.pop(field_name, None)
    # A null transport is bitwise identical to the historical network
    # (pinned by tests/test_golden_baselines.py), so it is dropped from the
    # canonical form: archives written before the field existed keep their
    # keys.  A non-null transport changes results and therefore the key.
    if canonical.get("transport") == _jsonable(dataclasses.asdict(TransportConfig())):
        canonical.pop("transport", None)
    return canonical


def run_key(config: ExperimentConfig) -> str:
    """The store key of a configuration: a sha256 over its canonical JSON.

    The key depends only on the configuration and :data:`STORE_FORMAT` —
    not on the package version.  The RunStore is an
    *archive*: a version bump must not orphan weeks of persisted runs, so a
    complete run is a hit whatever release wrote it; provenance lives in
    each manifest's ``version`` / ``source_revision`` fields, and pointing
    at a fresh results directory is how to force a recompute.
    """
    canonical = canonical_config(config)
    # dtype None and "float32" are one run; the constant keeps the keys of
    # releases that also ran float64.
    canonical["dtype"] = "float32"
    payload = {"store_format": STORE_FORMAT, "config": canonical}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


MANIFEST_NAME = "manifest.json"
ROUNDS_NAME = "rounds.jsonl"
#: Per-run writer lock: exists (holding the writer's pid) while a
#: RunWriter materializes the run, so two sessions can never interleave
#: ``manifest.json``/``rounds.jsonl`` writes for one ``run_key``.
LOCK_NAME = "writer.lock"


class RunLockedError(RuntimeError):
    """Another live writer is materializing this run right now."""


#: Lock files held by writers of *this* process, so a same-pid conflict
#: (two threads, e.g. two server sessions) is distinguished from a stale
#: lock left behind by a crashed previous process that recycled our pid.
_HELD_LOCKS: set = set()
_HELD_LOCKS_GUARD = threading.Lock()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but owned elsewhere
    return True


def _read_lock(lock_path: Path) -> Optional[tuple]:
    """Read one lock file as ``(pid, inode)``, or ``None`` when gone.

    Opening by fd binds the pid we classify to the *inode* we read it from:
    a later break must name that same inode, so a stale-lock verdict can
    never be applied to a fresh lock that replaced it in the meantime.
    """
    try:
        fd = os.open(str(lock_path), os.O_RDONLY)
    except OSError:
        return None
    try:
        inode = os.fstat(fd).st_ino
        raw = os.read(fd, 64).strip()
    except OSError:
        return None
    finally:
        os.close(fd)
    try:
        pid = int(raw) if raw else None
    except ValueError:
        pid = None
    return (pid, inode)


def _break_stale_lock(lock_path: Path, stale_inode: int) -> None:
    """Break one *verified-stale* lock without ever deleting a fresh one.

    The naive break (``unlink(lock_path)``) races: two processes classify
    the same lock stale, breaker A unlinks and re-creates, and breaker B's
    delayed unlink then deletes A's *fresh* lock — two live writers on one
    ``rounds.jsonl``.  Fix: all breaks for a path are serialized through an
    ``flock``-ed guard file, and the verdict is re-checked *under* the
    guard against the inode the classification was made from.  A lock that
    was replaced (different inode) or revived (live pid again) is left
    alone; only the exact stale inode we classified is unlinked — and
    while we hold the guard nothing else can swap the file out from under
    us (writers only ever create by linking to an absent path, a
    stale lock has no live owner to release it, and rival breakers queue
    on the guard).  The zero-byte guard file is left behind; it is inert
    advisory state, and deleting it would reopen the race on its inode.
    """
    guard = lock_path.with_name(lock_path.name + ".break")
    try:
        guard_fd = os.open(str(guard), os.O_CREAT | os.O_RDWR)
    except OSError:
        return
    try:
        fcntl.flock(guard_fd, fcntl.LOCK_EX)
        current = _read_lock(lock_path)
        if current is None:
            return  # a rival breaker got here first
        pid, inode = current
        if inode != stale_inode:
            return  # replaced by a fresh lock since we classified
        if pid is not None and _pid_alive(pid):
            return  # pid recycled into a live process: not ours to break
        os.unlink(str(lock_path))
    except OSError:
        pass
    finally:
        os.close(guard_fd)


def _sleep_backoff(rng: "random.Random", attempt: int) -> None:
    """Jittered exponential backoff between lock-acquire attempts.

    The fixed-cadence spin let every contender re-classify and re-break in
    lockstep — a retry storm where N processes hammer the same inode and
    keep colliding.  Seeding the jitter off the pid decorrelates them while
    keeping each process's schedule deterministic for tests.
    """
    base = min(0.2, 0.005 * (2 ** min(attempt, 5)))
    time.sleep(base * (0.5 + rng.random()))


def _create_lock(lock_path: Path) -> None:
    """Create the lock with this writer's pid already in it.

    The pid is written to a file of this thread's own, which is then
    hard-linked to the lock path: the link fails with ``FileExistsError``
    when the lock exists, and a rival never sees the lock without its pid.
    """
    draft = lock_path.with_name(f"{lock_path.name}.{os.getpid()}.{threading.get_ident()}")
    fd = os.open(str(draft), os.O_CREAT | os.O_TRUNC | os.O_WRONLY)
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
    finally:
        os.close(fd)
    try:
        os.link(str(draft), str(lock_path))
    finally:
        os.unlink(str(draft))


def _acquire_run_lock(lock_path: Path) -> None:
    """Take the per-run writer lock or raise :class:`RunLockedError`.

    The lock is a file holding the writer's pid from the moment it exists
    (:func:`_create_lock`).  A lock whose pid is no longer alive, or that
    holds no pid at all, is *stale* — its writer crashed (the SIGKILL
    crash-injection tests leave exactly this behind) — and is broken and
    re-taken; a live pid means a genuinely concurrent writer.  Stale locks
    are broken through the serialized, inode-verified path of
    :func:`_break_stale_lock`, never by a blind unlink.
    """
    key = str(lock_path)
    rng = random.Random(os.getpid())
    for attempt in range(64):
        try:
            _create_lock(lock_path)
        except FileExistsError:
            with _HELD_LOCKS_GUARD:
                held_here = key in _HELD_LOCKS
            if held_here:
                raise RunLockedError(
                    f"run is already being written by this process: {lock_path.parent}"
                )
            lock = _read_lock(lock_path)
            if lock is None:
                continue  # gone between EXCL-fail and read: retry
            pid, inode = lock
            if pid is not None and _pid_alive(pid):
                raise RunLockedError(
                    f"run is locked by live writer pid {pid}: {lock_path.parent}"
                )
            _break_stale_lock(lock_path, inode)
            _sleep_backoff(rng, attempt)
            continue
        with _HELD_LOCKS_GUARD:
            _HELD_LOCKS.add(key)
        return
    raise RunLockedError(f"could not acquire writer lock: {lock_path}")


def _release_run_lock(lock_path: Path) -> None:
    key = str(lock_path)
    with _HELD_LOCKS_GUARD:
        _HELD_LOCKS.discard(key)
    try:
        os.unlink(key)
    except OSError:
        pass
#: Mid-run resume checkpoint (see :mod:`repro.fl.checkpoint`), written
#: into the run directory every ``config.checkpoint_interval`` rounds and
#: removed when the run finalizes.
CHECKPOINT_NAME = "checkpoint.pkl"

_source_revision_cache: Optional[str] = None
_source_revision_known = False


def _source_revision() -> Optional[str]:
    """Best-effort ``git describe`` of the source tree (None outside git)."""
    global _source_revision_cache, _source_revision_known
    if _source_revision_known:
        return _source_revision_cache
    _source_revision_known = True
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            _source_revision_cache = out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        _source_revision_cache = None
    return _source_revision_cache


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


class RunWriter:
    """Incrementally persists one run: manifest first, rounds as they come.

    Created by :meth:`RunStore.start_run`; used by the streaming
    :class:`repro.api.handles.RunHandle` (append per round) and by
    :meth:`RunStore.put` (bulk write of a finished result).
    """

    def __init__(
        self,
        store: "RunStore",
        config: ExperimentConfig,
        label: Optional[str] = None,
        initial_records: Optional[Sequence[RoundRecord]] = None,
    ):
        self.store = store
        self.config = config
        self.config_hash = run_key(config)
        self.label = label or f"{config.dataset}/{config.algorithm}"
        self.path = store.run_dir(self.config_hash)
        self.path.mkdir(parents=True, exist_ok=True)
        self._rounds_path = self.path / ROUNDS_NAME
        self.checkpoint_path = self.path / CHECKPOINT_NAME
        self._lock_path = self.path / LOCK_NAME
        # Exclusive materialization: a second concurrent writer of the same
        # run_key raises RunLockedError instead of interleaving writes.
        _acquire_run_lock(self._lock_path)
        self._num_rounds = 0
        self._manifest = {
            "format": STORE_FORMAT,
            "version": repro.__version__,
            "source_revision": _source_revision(),
            "config_hash": self.config_hash,
            "label": self.label,
            "algorithm": config.algorithm,
            "dataset": config.dataset,
            "partition": config.partition,
            "scenario": config.dynamics.scenario,
            "seed": config.seed,
            "dtype": "float32",
            "created_at": time.time(),
            "status": "running",
            "config": _jsonable(dataclasses.asdict(config)),
        }
        try:
            self._write_manifest()
            # Truncate any stale rounds from a previous (crashed) attempt; a
            # resume re-writes the rounds recorded before the checkpoint (they
            # are part of the snapshot), so a torn last line from the crash can
            # never survive into the resumed file.
            self._rounds_file = open(self._rounds_path, "w")
            for record in initial_records or ():
                self.append(record)
        except BaseException:
            _release_run_lock(self._lock_path)
            raise

    def _write_manifest(self) -> None:
        _atomic_write(
            self.path / MANIFEST_NAME, json.dumps(self._manifest, sort_keys=True, indent=1)
        )

    def append(self, record: RoundRecord) -> None:
        """Persist one finalized round (flushed so crashes lose nothing)."""
        self._rounds_file.write(
            json.dumps(_jsonable(dataclasses.asdict(record)), sort_keys=True) + "\n"
        )
        self._rounds_file.flush()
        self._num_rounds += 1

    def finalize(self, result: ExperimentResult, wall_seconds: float = 0.0) -> "StoredRun":
        """Mark the run complete: summary, result metadata, wall-clock."""
        if self._num_rounds == 0 and result.rounds:
            for record in result.rounds:
                self.append(record)
        self._rounds_file.close()
        # The finished run supersedes any mid-run checkpoint.
        try:
            self.checkpoint_path.unlink()
        except OSError:
            pass
        self._manifest.update(
            status="complete",
            completed_at=time.time(),
            wall_seconds=float(wall_seconds),
            num_rounds=len(result.rounds),
            summary=_jsonable(result.summary()),
            result={
                "algorithm": result.algorithm,
                "dataset": result.dataset,
                "config": _jsonable(result.config),
                "setup_time": result.setup_time,
                "network": _jsonable(dict(result.network)),
            },
        )
        self._write_manifest()
        _release_run_lock(self._lock_path)
        return StoredRun(self.path)

    def abort(self) -> None:
        """Mark the run as incomplete (stream abandoned mid-flight)."""
        if not self._rounds_file.closed:
            self._rounds_file.close()
        self._manifest["status"] = "incomplete"
        self._write_manifest()
        _release_run_lock(self._lock_path)


#: Manifest fields the readers index or convert unguarded, with the types
#: they rely on.  The identity fields are written when a run starts and
#: must be present; the rest appear as it progresses (a ``running``
#: manifest has no ``num_rounds`` yet) and are checked when present.
_MANIFEST_REQUIRED = {"config_hash": str, "algorithm": str, "dataset": str}
_MANIFEST_OPTIONAL = {
    "created_at": (int, float),
    "num_rounds": int,
    "summary": dict,
    "result": dict,
    "config": dict,
}


class StoredRun:
    """One persisted run: a point-in-time view of its manifest, rounds and result.

    Raises ``ValueError`` for a manifest that is not JSON, not an object,
    or ill-typed in a field the readers rely on — :meth:`RunStore.get`
    reads that as an absent run and :meth:`RunStore.runs` skips it, so one
    damaged file never breaks a report, a server start-up or a sweep.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        manifest = json.loads((self.path / MANIFEST_NAME).read_text())
        if not (
            isinstance(manifest, dict)
            and all(isinstance(manifest.get(k), t) for k, t in _MANIFEST_REQUIRED.items())
            and all(isinstance(manifest[k], t) for k, t in _MANIFEST_OPTIONAL.items() if k in manifest)
        ):
            raise ValueError(f"ill-typed manifest: {self.path / MANIFEST_NAME}")
        self.manifest: Dict[str, Any] = manifest
        self._rounds: Optional[List[RoundRecord]] = None

    # ------------------------------------------------------------ properties
    @property
    def config_hash(self) -> str:
        return str(self.manifest["config_hash"])

    @property
    def label(self) -> str:
        return str(self.manifest.get("label", self.config_hash[:12]))

    @property
    def status(self) -> str:
        return str(self.manifest.get("status", "unknown"))

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    @property
    def algorithm(self) -> str:
        return str(self.manifest["algorithm"])

    @property
    def dataset(self) -> str:
        return str(self.manifest["dataset"])

    @property
    def scenario(self) -> str:
        return str(self.manifest.get("scenario", "stable"))

    @property
    def summary(self) -> Dict[str, object]:
        """The flat summary recorded at completion (empty while running)."""
        return dict(self.manifest.get("summary", {}))

    @property
    def has_checkpoint(self) -> bool:
        """Whether a mid-run resume checkpoint exists for this run."""
        return (self.path / CHECKPOINT_NAME).exists()

    @property
    def checkpoint_path(self) -> Path:
        return self.path / CHECKPOINT_NAME

    # --------------------------------------------------------------- loading
    def rounds(self) -> List[RoundRecord]:
        """Parse the per-round JSONL records.

        Parsing stops at the first unparseable line: a crash mid-``write``
        can tear the last line of an appended file, and everything after a
        torn line is unreliable.  The records before it are intact (each
        append is flushed whole), so callers see the longest clean prefix —
        :meth:`load_result` and :meth:`RunStore.get` then compare that
        prefix length against the manifest to detect the truncation.

        The file is parsed once per :class:`StoredRun` (a store hit is a
        ``get`` followed by a ``load_result``; both count these records).
        """
        if self._rounds is None:
            self._rounds = self._parse_rounds()
        return list(self._rounds)

    def _parse_rounds(self) -> List[RoundRecord]:
        records: List[RoundRecord] = []
        path = self.path / ROUNDS_NAME
        if not path.exists():
            return records
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(RoundRecord(**json.loads(line)))
                except (ValueError, TypeError):
                    break
        return records

    def load_result(self) -> ExperimentResult:
        """Reconstruct the full :class:`ExperimentResult` from disk.

        The reloaded result's :meth:`~ExperimentResult.summary` is bitwise
        identical to the in-memory one: every field is a Python float and
        ``json`` round-trips those exactly.  A rounds file that disagrees
        with the manifest's recorded round count (deleted, truncated,
        partially synced) raises instead of silently replaying a shorter
        run.
        """
        meta = self.manifest.get("result")
        if meta is None:
            raise ValueError(
                f"run {self.config_hash} is not complete (status: {self.status})"
            )
        rounds = self.rounds()
        expected = self.manifest.get("num_rounds")
        if expected is not None and len(rounds) != int(expected):
            raise ValueError(
                f"run {self.config_hash} is corrupt: manifest records "
                f"{expected} rounds but {ROUNDS_NAME} holds {len(rounds)}"
            )
        return ExperimentResult(
            algorithm=str(meta["algorithm"]),
            dataset=str(meta["dataset"]),
            config=dict(meta["config"]),
            setup_time=float(meta["setup_time"]),
            rounds=rounds,
            # Manifests from before the transport work carry no counters.
            network={str(k): float(v) for k, v in meta.get("network", {}).items()},
        )

    def load_config(self) -> ExperimentConfig:
        """Rebuild the run's full :class:`ExperimentConfig` from the manifest.

        This is how a restarted ``repro serve`` resumes in-flight runs: the
        manifest's ``config`` field is the ``asdict`` form written at start.
        """
        from repro.fl.config import config_from_dict

        return config_from_dict(dict(self.manifest["config"]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoredRun({self.label!r}, {self.status}, {self.config_hash[:12]})"


class RunStore:
    """A directory of persisted runs keyed by configuration hash."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def run_dir(self, key: str) -> Path:
        return self.root / key

    # --------------------------------------------------------------- writing
    def start_run(
        self,
        config: ExperimentConfig,
        label: Optional[str] = None,
        initial_records: Optional[Sequence[RoundRecord]] = None,
    ) -> RunWriter:
        """Open a writer for a new run (overwrites an incomplete attempt).

        ``initial_records`` seeds the rounds file before streaming starts —
        the resume path passes the checkpoint's round records so the
        rewritten file is whole regardless of how the crashed attempt died.
        """
        return RunWriter(self, config, label=label, initial_records=initial_records)

    def put(
        self,
        config: ExperimentConfig,
        result: ExperimentResult,
        wall_seconds: float = 0.0,
        label: Optional[str] = None,
    ) -> StoredRun:
        """Persist an already-computed result in one shot."""
        writer = self.start_run(config, label=label)
        return writer.finalize(result, wall_seconds=wall_seconds)

    # --------------------------------------------------------------- reading
    def get(self, config: Union[ExperimentConfig, str]) -> Optional[StoredRun]:
        """The *complete* stored run for a config (or hash), else ``None``.

        This is the already-present check: a second run of the same spec
        finds its predecessor here and is served from disk instead of being
        recomputed.
        """
        key = config if isinstance(config, str) else run_key(config)
        path = self.run_dir(key)
        if not (path / MANIFEST_NAME).exists():
            return None
        try:
            run = StoredRun(path)
        except (OSError, ValueError):
            return None
        if run.manifest.get("format") != STORE_FORMAT or not run.complete:
            return None
        # A rounds file inconsistent with the manifest means the run is
        # corrupt (deleted/truncated): treat it as absent so the caller
        # re-executes rather than replaying a short result.  Only
        # *parseable* records count — a torn last line must register as a
        # truncation here, not blow up in load_result later.
        expected = run.manifest.get("num_rounds")
        if expected is not None:
            try:
                on_disk = len(run.rounds())
            except OSError:
                return None
            if on_disk != int(expected):
                return None
        return run

    def __contains__(self, config: object) -> bool:
        if not isinstance(config, (ExperimentConfig, str)):
            return False
        return self.get(config) is not None

    def scan(self) -> Dict[str, List[StoredRun]]:
        """Classify every stored run for the resume machinery.

        Returns ``{"complete": [...], "resumable": [...], "incomplete":
        [...]}``: complete runs replay from disk, resumable ones (crashed
        or abandoned mid-flight, with a checkpoint on disk) can continue
        from their last checkpointed round, and incomplete ones without a
        checkpoint must re-run from scratch.
        """
        classified: Dict[str, List[StoredRun]] = {
            "complete": [],
            "resumable": [],
            "incomplete": [],
        }
        for run in self.runs():
            if run.complete and run.manifest.get("format") == STORE_FORMAT:
                classified["complete"].append(run)
            elif run.has_checkpoint:
                classified["resumable"].append(run)
            else:
                classified["incomplete"].append(run)
        return classified

    def runs(self) -> List[StoredRun]:
        """Every stored run (any status), ordered by creation time."""
        found: List[StoredRun] = []
        for manifest in self.root.glob(f"*/{MANIFEST_NAME}"):
            try:
                found.append(StoredRun(manifest.parent))
            except (OSError, ValueError):
                continue
        found.sort(key=lambda run: (run.manifest.get("created_at", 0.0), run.label))
        return found

    def __len__(self) -> int:
        return len(self.runs())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunStore({str(self.root)!r})"


def default_store() -> Optional[RunStore]:
    """The store named by ``REPRO_RESULTS_DIR``, or ``None`` when unset.

    When the environment variable is set, every :func:`repro.api.run` /
    :func:`repro.api.sweep` persists its results there by default — which
    makes the figure functions and benchmarks thin clients of the store.
    """
    root = os.environ.get("REPRO_RESULTS_DIR", "").strip()
    return RunStore(root) if root else None


class Results:
    """Query facade over a results directory written by :class:`RunStore`.

    >>> results = Results.open("results/")
    >>> results.labels()
    >>> results.summaries(algorithm="aergia")
    >>> results.load("mnist/aergia").rounds
    """

    def __init__(self, store: Union[RunStore, str, Path]) -> None:
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        #: Point-in-time snapshot of the directory scan: the manifests are
        #: parsed once per Results instance, however many queries/renders
        #: follow (and concurrent writers cannot skew paired scans).  Use
        #: :meth:`refresh` (or a fresh ``Results.open``) to pick up new runs.
        self._snapshot: Optional[List[StoredRun]] = None

    @classmethod
    def open(cls, root: Union[str, Path, RunStore]) -> "Results":
        """Open a results directory for querying."""
        return cls(root)

    def refresh(self) -> "Results":
        """Drop the cached directory snapshot (picks up new runs)."""
        self._snapshot = None
        return self

    def _all_runs(self) -> List[StoredRun]:
        if self._snapshot is None:
            self._snapshot = self.store.runs()
        return self._snapshot

    # -------------------------------------------------------------- querying
    def runs(
        self,
        *,
        algorithm: Optional[str] = None,
        dataset: Optional[str] = None,
        scenario: Optional[str] = None,
        complete_only: bool = True,
        predicate: Optional[Callable[[StoredRun], bool]] = None,
    ) -> List[StoredRun]:
        """Stored runs matching the given filters, in creation order."""
        matches: List[StoredRun] = []
        for run in self._all_runs():
            if complete_only and not run.complete:
                continue
            if algorithm is not None and run.algorithm != algorithm:
                continue
            if dataset is not None and run.dataset != dataset:
                continue
            if scenario is not None and run.scenario != scenario:
                continue
            if predicate is not None and not predicate(run):
                continue
            matches.append(run)
        return matches

    def __iter__(self) -> Iterator[StoredRun]:
        return iter(self.runs())

    def __len__(self) -> int:
        return len(self.runs())

    def _labelled(self, **filters: object) -> List[tuple]:
        """(label, run) pairs from a *single* directory scan, with duplicate
        labels disambiguated by a short hash suffix."""
        labelled: List[tuple] = []
        seen: set = set()
        for run in self.runs(**filters):  # type: ignore[arg-type]
            label = run.label
            if label in seen:
                label = f"{label}@{run.config_hash[:8]}"
            seen.add(run.label)
            labelled.append((label, run))
        return labelled

    def labels(self, **filters: object) -> List[str]:
        """Unique display labels (de-duplicated with a short hash suffix)."""
        return [label for label, _ in self._labelled(**filters)]

    def summaries(self, **filters: object) -> Dict[str, Dict[str, object]]:
        """Per-run flat summaries keyed by label (from manifests alone)."""
        return {label: run.summary for label, run in self._labelled(**filters)}

    def load(self, label_or_hash: str) -> ExperimentResult:
        """Reload one run's full result by label or configuration hash."""
        stored = self.store.get(label_or_hash)
        if stored is not None:
            return stored.load_result()
        for label, run in self._labelled(complete_only=True):
            if label == label_or_hash or run.label == label_or_hash:
                return run.load_result()
        known = ", ".join(self.labels()) or "(store is empty)"
        raise KeyError(f"no stored run {label_or_hash!r}; known: {known}")

    def to_json(self, **filters: object) -> Dict[str, object]:
        """Machine-readable summaries of the stored runs.

        Service clients and the CI serve smoke check assert results from
        this document instead of scraping rendered tables (``repro report
        --json`` prints it).  Accepts the same filters as :meth:`runs`;
        pass ``complete_only=False`` to include crashed/in-flight runs.
        """
        runs: List[Dict[str, object]] = []
        for label, run in self._labelled(**filters):
            manifest = run.manifest
            runs.append(
                {
                    "label": label,
                    "config_hash": run.config_hash,
                    "status": run.status,
                    "algorithm": run.algorithm,
                    "dataset": run.dataset,
                    "scenario": run.scenario,
                    "partition": manifest.get("partition"),
                    "seed": manifest.get("seed"),
                    "dtype": manifest.get("dtype"),
                    "num_rounds": manifest.get("num_rounds"),
                    "wall_seconds": manifest.get("wall_seconds"),
                    "has_checkpoint": run.has_checkpoint,
                    "summary": run.summary,
                }
            )
        return {
            "results_dir": str(self.store.root),
            "store_format": STORE_FORMAT,
            "count": len(runs),
            "runs": runs,
        }

    # ------------------------------------------------------------- rendering
    def render_summary(self, title: str = "", **filters: object) -> str:
        """Summary table of the stored runs (a figure from the store alone)."""
        from repro.experiments.report import render_summaries

        summaries = {
            label: summary for label, summary in self.summaries(**filters).items() if summary
        }
        return render_summaries(
            summaries, title=title or f"stored results: {self.store.root}"
        )

    def render_network(self, title: str = "", **filters: object) -> str:
        """Network/transport counter table (empty string when none recorded)."""
        from repro.experiments.report import render_network_counters

        summaries = {
            label: summary for label, summary in self.summaries(**filters).items() if summary
        }
        return render_network_counters(
            summaries, title=title or "network/transport counters"
        )

    def render_round_durations(self, **filters: object) -> str:
        """Figure-8-style round-duration table rebuilt from the JSONL records."""
        from repro.experiments.report import format_table

        labelled = self._labelled(**filters)
        results = [run.load_result() for _, run in labelled]
        if not results:
            return "no stored runs to render"
        rows = [
            [label, result.mean_round_duration(), float(result.num_rounds)]
            for (label, _), result in zip(labelled, results)
        ]
        return format_table(
            headers=["label", "mean_round_duration_s", "rounds"],
            rows=rows,
            title="Round durations (re-rendered from the store)",
        )
