"""Worker processes for sweeps: how many, and how they start.

Every figure of the paper is regenerated from a batch of *independent*
:class:`repro.fl.config.ExperimentConfig` runs, which makes the sweeps
embarrassingly parallel: the simulation is driven entirely by virtual time
and every random stream is derived from ``config.seed``, so executing the
cells in worker processes produces byte-identical
:meth:`repro.fl.metrics.ExperimentResult.summary` rows (and ``rounds.jsonl``
files) to in-process execution.

The :class:`~repro.experiments.scheduler.SweepScheduler` is the one executor
of a batch; an unset worker count is its to resolve, by
:func:`repro.fl.runtime.split_cores`.  This module only reads an explicit
one (:func:`resolve_workers`: a request, else the deprecated
``REPRO_WORKERS``) and builds the spawn-safe process pool the cells run in
(:func:`worker_pool`).
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional


def _worker_init(package_parent: str) -> None:
    """Make ``repro`` importable in pool workers under the spawn start method.

    Under fork the child inherits the parent's ``sys.path``, but spawned
    workers (the default on macOS/Windows) start fresh — if the package is
    only importable through an in-process ``sys.path`` tweak (as the test
    and benchmark conftests do), unpickling the task would fail with
    ``ModuleNotFoundError`` without this.  Plugin modules are re-imported
    for the same reason: a spawned worker's registries start empty, so a
    ``REPRO_PLUGINS``-registered algorithm must be registered again before
    the worker's ``federator_class`` lookup.
    """
    import sys

    if package_parent not in sys.path:
        sys.path.insert(0, package_parent)
    from repro.registry import load_plugins

    load_plugins()


def worker_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers can import ``repro`` and its plugins."""
    return ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_worker_init,
        initargs=(str(Path(__file__).resolve().parents[2]),),
    )


def resolve_workers(requested: Optional[int] = None) -> Optional[int]:
    """An explicit worker count, else the deprecated ``REPRO_WORKERS``, else
    ``None``: the sweep splits the cores by :func:`repro.fl.runtime.split_cores`."""
    raw = os.environ.get("REPRO_WORKERS", "").strip() if requested is None else ""
    if raw:
        message = "REPRO_WORKERS is deprecated; pass workers= (CLI: --workers) instead"
        warnings.warn(message, DeprecationWarning, stacklevel=3)
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from None
    return None if requested is None else max(1, int(requested))
