"""Run and sweep handles: streaming execution + store integration.

:class:`RunHandle` is what :meth:`repro.api.ExperimentSpec.run` (and
:func:`repro.api.run`) returns.  Instead of the historical
block-until-done-only contract, the handle exposes the run as a *stream*:

>>> handle = repro.api.experiment("fedavg").scale("smoke").run()
>>> for record in handle.stream():          # RoundRecords as rounds finalize
...     print(record.round_number, record.test_accuracy)
>>> handle.result().summary()               # the completed ExperimentResult

The stream is backed by the event-driven round engine of PR 3: the handle
registers a round listener on the federator's result and pumps the
simulation's event queue one event at a time, yielding each
:class:`~repro.fl.metrics.RoundRecord` the moment the engine finalizes the
round — for the synchronous and the asynchronous (virtual-round)
federators alike.  Driving the queue to exhaustion this way executes the
exact same event sequence as ``cluster.run()``, so summaries stay
bit-for-bit identical to the classic blocking path.

:func:`sweep` is the batch entry point: it accepts labelled configs (or
specs) and hands them to the one sweep executor, the
:class:`~repro.experiments.scheduler.SweepScheduler`, which serves
already-present cells from the :class:`RunStore` and runs every other cell
as a store-backed :func:`run` — inline, or in a process pool.
"""

from __future__ import annotations

import logging
import queue
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Union

from repro.api.spec import ExperimentSpec
from repro.api.store import RunStore, StoredRun, default_store, run_key
from repro.experiments.parallel import resolve_workers
from repro.experiments.runner import SuiteResult
from repro.fl.config import ExperimentConfig
from repro.fl.metrics import ExperimentResult, RoundRecord

RoundCallback = Callable[[RoundRecord], None]
StoreLike = Union[RunStore, str, Path, None]


def _coerce_store(store: StoreLike, use_default: bool = True) -> Optional[RunStore]:
    if store is None:
        return default_store() if use_default else None
    if isinstance(store, RunStore):
        return store
    return RunStore(store)


class RunHandle:
    """Handle on a single experiment run.

    * :meth:`stream` — iterator of :class:`RoundRecord` as rounds finalize.
    * :meth:`result` — drive the run to completion, return the result.
    * :meth:`summary` — the flat summary row of the completed run.

    With a ``store``, per-round records are appended to the run's JSONL
    file *as they stream* and the manifest is finalized on completion; when
    the store already holds a complete run of the same configuration, the
    handle replays it from disk (``loaded_from_store`` is then ``True``)
    without recomputing anything.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        store: StoreLike = None,
        on_round: Optional[RoundCallback] = None,
        label: Optional[str] = None,
        resume: bool = False,
    ) -> None:
        self.config = config
        self.config_hash = run_key(config)
        self.label = label or f"{config.dataset}/{config.algorithm}"
        self.store = _coerce_store(store)
        self._listeners: List[RoundCallback] = [on_round] if on_round is not None else []
        self._result: Optional[ExperimentResult] = None
        self._wall_seconds = 0.0
        self._iterator: Optional[Iterator[RoundRecord]] = None
        # NB: `is not None` — RunStore has __len__, so an empty store is falsy.
        self._stored: Optional[StoredRun] = (
            self.store.get(config) if self.store is not None else None
        )
        #: Round the run was resumed from (``None``: ran from the start).
        self.resumed_from_round: Optional[int] = None
        self._checkpoint: Optional[dict] = None
        #: The built :class:`repro.fl.runtime.ExperimentHandle`: set while
        #: the stream runs, ``None`` once it ended — complete, stopped,
        #: failed or abandoned, the experiment is closed and let go (and
        #: ``None`` throughout for store replays).  ``repro serve`` reaches
        #: the live :class:`ScenarioDynamics` through this.
        self.experiment = None
        #: Whether the run was stopped early by :meth:`request_stop`.
        self.stopped = False
        self._stop_mode: Optional[str] = None
        self._injections: "queue.SimpleQueue[Callable[[], None]]" = queue.SimpleQueue()
        if resume and self._stored is None and self.store is not None:
            from repro.api.store import CHECKPOINT_NAME
            from repro.fl.checkpoint import load_checkpoint

            # A corrupt/mismatched checkpoint loads as None: the run then
            # simply executes from scratch.
            self._checkpoint = load_checkpoint(
                self.store.run_dir(self.config_hash) / CHECKPOINT_NAME,
                run_key=self.config_hash,
            )

    # ------------------------------------------------------------ inspection
    @property
    def loaded_from_store(self) -> bool:
        """Whether this configuration was already present in the store."""
        return self._stored is not None

    @property
    def done(self) -> bool:
        return self._result is not None

    @property
    def wall_seconds(self) -> float:
        """Wall-clock spent computing (0.0 for store replays)."""
        return self._wall_seconds

    def add_round_listener(self, listener: RoundCallback) -> None:
        """Register a callback fired for every streamed round."""
        self._listeners.append(listener)

    def _notify(self, record: RoundRecord) -> None:
        for listener in self._listeners:
            listener(record)

    # --------------------------------------------------------------- control
    def inject(self, action: Callable[[], None]) -> None:
        """Run ``action`` inside the simulation thread, between two events.

        The only thread-safe way to touch live simulation state (the
        cluster, the scenario dynamics) from outside the thread driving
        :meth:`stream`: actions are queued and executed at the next pump of
        the event loop, where no event is mid-flight.  ``repro serve``'s
        ``/checkin`` endpoint feeds device availability events through
        this seam.  A failing action is logged and dropped — it must not
        kill the run.
        """
        self._injections.put(action)

    def request_stop(self, mode: str = "checkpoint") -> None:
        """Ask the running stream to stop at the next safe point.

        ``mode="checkpoint"`` (graceful drain): keep pumping to the next
        capture point, write the checkpoint there (a capture never refuses),
        mark the stored run incomplete and end the stream — a later
        ``resume=True`` run of the same config continues
        bitwise-identically.  A drain requested after the run's last capture
        point lets the run complete.  Requires a store and
        ``config.checkpoint_interval``; without them it degrades to
        ``mode="abort"``.

        ``mode="abort"`` (cancel): stop at the next event boundary, mark
        the stored run incomplete and delete any mid-run checkpoint, so
        the cancellation is not silently resurrected by a resume.

        Thread-safe; a no-op once the run has completed.
        """
        if mode not in ("checkpoint", "abort"):
            raise ValueError(f"unknown stop mode {mode!r}; use 'checkpoint' or 'abort'")
        self._stop_mode = mode

    def _drain_injections(self) -> None:
        # Once per simulated event, almost always with nothing queued: the
        # emptiness test costs no raised exception.  This thread is the only
        # consumer, so a queue seen non-empty still is when it is read.
        while not self._injections.empty():
            action = self._injections.get_nowait()
            try:
                action()
            except Exception:
                logging.getLogger(__name__).exception(
                    "injected action %r raised; dropped", action
                )

    # ------------------------------------------------------------- execution
    def stream(self) -> Iterator[RoundRecord]:
        """The run as an iterator of finalized rounds (single underlying
        stream: repeated calls resume the same iteration)."""
        if self._iterator is None:
            self._iterator = self._replay() if self._stored is not None else self._execute()
        return self._iterator

    def _replay(self) -> Iterator[RoundRecord]:
        result = self._stored.load_result()
        for record in result.rounds:
            self._notify(record)
            yield record
        self._result = result

    def _execute(self) -> Iterator[RoundRecord]:
        from repro.fl.checkpoint import RunCheckpointer, restore_snapshot
        from repro.fl.runtime import build_experiment

        start = time.perf_counter()
        experiment = build_experiment(self.config)
        self.experiment = experiment
        writer = checkpointer = None
        try:
            snapshot, self._checkpoint = self._checkpoint, None
            if snapshot is not None:
                # Overwrite the freshly built experiment's state with the
                # checkpoint; the round listener is registered afterwards, so
                # only rounds computed from here on stream (and the writer is
                # seeded with the checkpointed records below).
                restore_snapshot(experiment, snapshot)
                self.resumed_from_round = snapshot["round"]
            pending: deque = deque()
            experiment.federator.result.add_round_listener(pending.append)
            if self.store is not None:
                writer = self.store.start_run(
                    self.config,
                    label=self.label,
                    initial_records=snapshot["records"] if snapshot is not None else None,
                )
            if writer is not None and self.config.checkpoint_interval is not None:
                checkpointer = RunCheckpointer(
                    experiment,
                    self.config.checkpoint_interval,
                    writer.checkpoint_path,
                    run_key=self.config_hash,
                )
                checkpointer.install()
            if snapshot is None:
                experiment.federator.start()
            env = experiment.cluster.env
            checkpoints_before_stop: Optional[int] = None
            while True:
                while pending:
                    record = pending.popleft()
                    if writer is not None:
                        writer.append(record)
                    self._notify(record)
                    yield record
                self._drain_injections()
                mode = self._stop_mode
                if mode == "checkpoint" and checkpointer is not None:
                    # Graceful drain: force a checkpoint, keep pumping to
                    # the next capture point, which writes it, then end the
                    # stream; the finally clause marks the stored run
                    # incomplete, leaving it resumable.
                    if checkpoints_before_stop is None:
                        checkpoints_before_stop = checkpointer.written
                        checkpointer.force()
                    if checkpointer.written > checkpoints_before_stop:
                        self.stopped = True
                        return
                elif mode is not None:
                    # Cancel: stop now and drop any mid-run checkpoint so a
                    # later resume cannot resurrect the cancelled run.
                    if mode == "abort" and writer is not None:
                        try:
                            writer.checkpoint_path.unlink()
                        except OSError:
                            pass
                    self.stopped = True
                    return
                if not env.step():
                    break
            result = experiment.federator.result
            self._result = result
            self._wall_seconds = time.perf_counter() - start
            if writer is not None:
                writer.finalize(result, wall_seconds=self._wall_seconds)
                writer = None
        finally:
            # However the stream ended, the run gives back what it built.
            experiment.close()
            self.experiment = None
            if writer is not None:  # stream abandoned mid-run
                writer.abort()

    def result(self) -> ExperimentResult:
        """Drive the run to completion and return its result."""
        for _ in self.stream():
            pass
        assert self._result is not None
        return self._result

    def summary(self) -> Dict[str, float]:
        """The completed run's flat summary row."""
        return self.result().summary()

    def __iter__(self) -> Iterator[RoundRecord]:
        return self.stream()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("stored" if self.loaded_from_store else "pending")
        return f"RunHandle({self.label!r}, {state}, {self.config_hash[:12]})"


def run(
    config: Union[ExperimentConfig, ExperimentSpec],
    *,
    store: StoreLike = None,
    on_round: Optional[RoundCallback] = None,
    label: Optional[str] = None,
    resume: bool = False,
) -> RunHandle:
    """Run one experiment (config or fluent spec), returning its handle.

    With ``resume=True`` and a store, an interrupted run of the same
    configuration continues from its last mid-run checkpoint (see
    ``config.checkpoint_interval``); the resumed rounds are bitwise
    identical to an uninterrupted run.
    """
    if isinstance(config, ExperimentSpec):
        label = label or config.run_label
        config = config.build()
    return RunHandle(config, store=store, on_round=on_round, label=label, resume=resume)


class SweepHandle:
    """Results of a batch of runs executed through :func:`sweep`.

    Wraps the familiar :class:`~repro.experiments.runner.SuiteResult`
    (``.suite``: the cells that completed, in label order) and records
    which of them were served from the persistent store (``.store_hits``),
    the scheduler state every cell ended in (``.states``) and the
    exceptions of the failed ones (``.errors``).
    """

    def __init__(
        self,
        suite: SuiteResult,
        store: Optional[RunStore] = None,
        store_hits: Iterable[str] = (),
        states: Optional[Mapping[str, str]] = None,
        errors: Optional[Mapping[str, BaseException]] = None,
    ) -> None:
        self.suite = suite
        self.store = store
        self.store_hits = list(store_hits)
        self.states: Dict[str, str] = dict(states or {})
        self.errors: Dict[str, BaseException] = dict(errors or {})

    @property
    def results(self) -> Dict[str, ExperimentResult]:
        return self.suite.results

    def labels(self) -> Iterable[str]:
        return self.suite.labels()

    def summaries(self) -> Dict[str, Dict[str, float]]:
        return self.suite.summaries()

    def total_wall_seconds(self) -> float:
        return self.suite.total_wall_seconds()

    def __getitem__(self, label: str) -> ExperimentResult:
        return self.suite[label]

    def __contains__(self, label: str) -> bool:
        return label in self.suite

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepHandle({len(self.suite.results)} runs, {len(self.store_hits)} store hits)"


def _normalise_configs(
    configs: Union[
        Mapping[str, Union[ExperimentConfig, ExperimentSpec]],
        Iterable[ExperimentSpec],
    ],
) -> Dict[str, ExperimentConfig]:
    normalised: Dict[str, ExperimentConfig] = {}
    if isinstance(configs, Mapping):
        items = configs.items()
    else:
        specs = list(configs)
        items = [(spec.run_label, spec) for spec in specs]
    for label, config in items:
        if isinstance(config, ExperimentSpec):
            config = config.build()
        if label in normalised:
            raise ValueError(f"duplicate sweep label {label!r}")
        normalised[label] = config
    return normalised


def sweep(
    configs: Union[
        Mapping[str, Union[ExperimentConfig, ExperimentSpec]],
        Iterable[ExperimentSpec],
    ],
    *,
    store: StoreLike = None,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str, ExperimentResult], None]] = None,
    budget_seconds: Optional[float] = None,
    max_cells: Optional[int] = None,
    resume: bool = False,
    checkpoint_interval: Optional[int] = None,
) -> SweepHandle:
    """Run a labelled batch of experiments, persisting through the store.

    Every batch runs through one
    :class:`~repro.experiments.scheduler.SweepScheduler`.  Cells whose exact
    configuration is already complete in the store are loaded from disk
    (listed in ``SweepHandle.store_hits``); every other cell executes as a
    store-backed :func:`run` — in this process, or in a pool of ``workers``
    processes (an unset ``workers`` is filled from ``REPRO_WORKERS``; with
    neither, the sweep stays in-process).  The budget
    (``budget_seconds`` / ``max_cells``) is checked before each cell and
    marks what it never let start ``budget_exceeded``; a cell that raises
    is recorded in ``SweepHandle.errors`` and the sweep continues; with
    ``resume`` and ``checkpoint_interval`` interrupted cells continue from
    their mid-run checkpoints.
    """
    from repro.experiments.scheduler import BudgetTracker, SweepScheduler

    return SweepScheduler(
        _normalise_configs(configs),
        store=_coerce_store(store),
        budget=BudgetTracker(wall_seconds=budget_seconds, max_cells=max_cells),
        resume=resume,
        checkpoint_interval=checkpoint_interval,
        workers=resolve_workers(workers, default=1),
        progress=progress,
    ).run()
