"""The sweep executor: every batch of cells runs through :class:`SweepScheduler`.

:func:`repro.api.sweep`, ``repro sweep`` and ``repro figures`` all
construct one scheduler per batch; there is no other way a
batch executes.  What it guarantees:

* every cell moves through an explicit state machine
  (``pending -> running -> complete | failed``, plus the terminal
  ``budget_exceeded`` for cells the budget never let start) and illegal
  transitions raise — the scheduler cannot silently lose a cell;
* a :class:`BudgetTracker` bounds the campaign by wall-clock seconds
  and/or executed cell count.  The budget is checked *before* each cell,
  never mid-cell: a running cell always finishes (checkpointing makes a
  killed one resumable anyway), and once the budget is exhausted every
  remaining pending cell is marked ``budget_exceeded`` — never
  ``failed``, so a later ``--resume`` invocation picks them up;
* cells already complete in the :class:`~repro.api.store.RunStore` are
  served from disk before the budget starts ticking, and a crashed cell
  with a checkpoint resumes instead of recomputing (``resume=True``);
* a cell that raises is marked ``failed`` and the sweep *continues* —
  one bad configuration does not abort the campaign;
* admitted cells run inline at ``workers == 1`` and in a process pool
  otherwise.  Either way a cell executes as :func:`repro.api.run` against
  the scheduler's store, so the process that computes it streams its
  ``rounds.jsonl``, writes its checkpoints and holds its writer lock: a
  pooled cell killed mid-run is as resumable as an inline one, and the
  two modes leave byte-identical round files;
* labels whose configurations share a :func:`~repro.api.store.run_key`
  are one execution: the first runs, the rest receive its outcome.

The inline executor is injectable (``executor(label, config) -> (result,
wall_seconds)``) so the state machine is testable with fake clocks and
scripted failures.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import nullcontext
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.parallel import worker_pool
from repro.experiments.runner import SuiteResult
from repro.fl.config import ExperimentConfig
from repro.fl.metrics import ExperimentResult


class CellState:
    """The sweep cell states (plain strings, JSON/manifest friendly)."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETE = "complete"
    FAILED = "failed"
    BUDGET_EXCEEDED = "budget_exceeded"

    ALL = (PENDING, RUNNING, COMPLETE, FAILED, BUDGET_EXCEEDED)


#: The only legal state transitions.  ``pending -> complete`` is the
#: store-hit shortcut (the cell never ran here); the three terminal states
#: have no outgoing edges — a finished cell's verdict never changes within
#: one scheduler run (a *new* run re-plans failed/budget_exceeded cells as
#: pending again).
LEGAL_TRANSITIONS: Dict[str, frozenset] = {
    CellState.PENDING: frozenset(
        {CellState.RUNNING, CellState.COMPLETE, CellState.BUDGET_EXCEEDED}
    ),
    CellState.RUNNING: frozenset({CellState.COMPLETE, CellState.FAILED}),
    CellState.COMPLETE: frozenset(),
    CellState.FAILED: frozenset(),
    CellState.BUDGET_EXCEEDED: frozenset(),
}


class IllegalTransition(RuntimeError):
    """A sweep cell was asked to make a transition the machine forbids."""


class BudgetTracker:
    """Wall-clock and cell-count budget for one sweep campaign.

    ``clock`` is injectable for tests (defaults to ``time.monotonic``).
    With neither limit set the tracker never exhausts.
    """

    def __init__(
        self,
        wall_seconds: Optional[float] = None,
        max_cells: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if wall_seconds is not None and wall_seconds < 0:
            raise ValueError("wall_seconds budget must be non-negative")
        if max_cells is not None and max_cells < 0:
            raise ValueError("max_cells budget must be non-negative")
        self.wall_seconds = wall_seconds
        self.max_cells = max_cells
        self._clock = clock
        self._started: Optional[float] = None
        self.cells_executed = 0

    @property
    def limited(self) -> bool:
        return self.wall_seconds is not None or self.max_cells is not None

    def start(self) -> None:
        if self._started is None:
            self._started = self._clock()

    def elapsed(self) -> float:
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def note_cell(self) -> None:
        """Record one executed (not store-served) cell."""
        self.cells_executed += 1

    def exhausted(self, in_flight: int = 0) -> bool:
        """Whether no further cell may start (``in_flight`` cells are running)."""
        if self.wall_seconds is not None and self.elapsed() >= self.wall_seconds:
            return True
        if self.max_cells is not None and self.cells_executed + in_flight >= self.max_cells:
            return True
        return False


def _run_cell(
    label: str, config: ExperimentConfig, store, resume: bool
) -> Tuple[ExperimentResult, float]:
    """One cell as :func:`repro.api.run`; module-level so it pickles for the pool."""
    from repro.api.handles import run

    handle = run(config, store=store, label=label, resume=resume)
    return handle.result(), handle.wall_seconds


class SweepScheduler:
    """Budget-aware scheduler over labelled experiment configs.

    After :meth:`run`, inspect ``states`` (label -> :class:`CellState`
    value), ``errors`` (label -> exception, for failed cells),
    ``store_hits``, and the returned handle.
    """

    def __init__(
        self,
        configs: Mapping[str, ExperimentConfig],
        *,
        store=None,
        budget: Optional[BudgetTracker] = None,
        resume: bool = False,
        checkpoint_interval: Optional[int] = None,
        workers: int = 1,
        executor: Optional[
            Callable[[str, ExperimentConfig], Tuple[ExperimentResult, float]]
        ] = None,
        progress: Optional[Callable[[str, ExperimentResult], None]] = None,
    ) -> None:
        self.configs: Dict[str, ExperimentConfig] = dict(configs)
        self.store = store
        self.budget = budget if budget is not None else BudgetTracker()
        self.resume = resume
        self.checkpoint_interval = checkpoint_interval
        self.workers = max(1, int(workers))
        self._executor = executor if executor is not None else self._default_executor
        self.progress = progress

        self.states: Dict[str, str] = {
            label: CellState.PENDING for label in self.configs
        }
        self.results: Dict[str, ExperimentResult] = {}
        self.wall_seconds: Dict[str, float] = {}
        self.errors: Dict[str, BaseException] = {}
        self.store_hits: List[str] = []

    # ------------------------------------------------------------ state machine
    def transition(self, label: str, new_state: str) -> None:
        old_state = self.states[label]
        if new_state not in LEGAL_TRANSITIONS[old_state]:
            raise IllegalTransition(
                f"cell {label!r}: illegal transition {old_state!r} -> {new_state!r}"
            )
        self.states[label] = new_state

    def _complete(self, label: str, result: ExperimentResult, wall: float) -> None:
        self.results[label] = result
        self.wall_seconds[label] = wall
        self.transition(label, CellState.COMPLETE)
        if self.progress is not None:
            self.progress(label, result)

    # --------------------------------------------------------------- execution
    def _default_executor(
        self, label: str, config: ExperimentConfig
    ) -> Tuple[ExperimentResult, float]:
        return _run_cell(label, config, self.store, self.resume)

    def _submit(self, pool, label: str) -> Future:
        """Start one admitted cell: inline without a pool, else on a worker."""
        config = self.configs[label]
        if self.checkpoint_interval is not None and config.checkpoint_interval is None:
            # checkpoint_interval is an execution field: the override keeps
            # the run key (and thus the store identity) unchanged.
            config = config.with_overrides(checkpoint_interval=self.checkpoint_interval)
        if pool is not None and config.shards is None:
            # The pool already runs a cell per core: a cell sent to it
            # trains in its worker unless it asks for shard workers.
            config = config.with_overrides(shards=1)
        done: Future = Future()
        try:
            if pool is not None:
                return pool.submit(_run_cell, label, config, self.store, self.resume)
            done.set_result(self._executor(label, config))
        except Exception as exc:
            # The cell raised — or a killed worker (SIGKILL, OOM) broke the
            # pool and it refuses new work: the cells still queued then fail
            # like the ones that were in flight.
            done.set_exception(exc)
        return done

    def _groups(self) -> List[List[str]]:
        """Pending labels grouped by run key (label order; first one runs)."""
        from repro.api.store import run_key

        groups: Dict[str, List[str]] = {}
        for label, config in self.configs.items():
            if self.states[label] == CellState.PENDING:
                groups.setdefault(run_key(config), []).append(label)
        return list(groups.values())

    def _settle(self, group: List[str], future: Future) -> None:
        try:
            result, wall = future.result()
        except Exception as exc:
            for label in group:
                self.errors[label] = exc
                self.transition(label, CellState.FAILED)
            return
        self.budget.note_cell()
        for position, label in enumerate(group):
            # One execution: its compute is booked on the label that ran.
            self._complete(label, result, wall if position == 0 else 0.0)

    def run(self):
        """Execute the campaign; returns a :class:`repro.api.SweepHandle`."""
        from repro.api.handles import SweepHandle

        # Store-complete cells are free: served before the budget starts,
        # and never counted against it.
        if self.store is not None:
            for label, config in self.configs.items():
                stored = self.store.get(config)
                if stored is not None:
                    self.store_hits.append(label)
                    self._complete(label, stored.load_result(), 0.0)

        self.budget.start()
        queue = deque(self._groups())
        slots = max(1, min(self.workers, len(queue)))
        in_flight: Dict[Future, List[str]] = {}
        with (worker_pool(slots) if slots > 1 else nullcontext()) as pool:
            while queue or in_flight:
                while queue and len(in_flight) < slots:
                    group = queue.popleft()
                    state = (
                        CellState.BUDGET_EXCEEDED
                        if self.budget.exhausted(len(in_flight))
                        else CellState.RUNNING
                    )
                    for label in group:
                        self.transition(label, state)
                    if state == CellState.RUNNING:
                        in_flight[self._submit(pool, group[0])] = group
                for future in wait(in_flight, return_when=FIRST_COMPLETED).done:
                    self._settle(in_flight.pop(future), future)

        suite = SuiteResult()
        for label in self.configs:
            if label in self.results:
                suite.results[label] = self.results[label]
                suite.wall_seconds[label] = self.wall_seconds[label]
        return SweepHandle(
            suite,
            store=self.store,
            store_hits=self.store_hits,
            states=self.states,
            errors=self.errors,
        )
