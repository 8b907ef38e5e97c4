"""Worker processes for sweeps: how many, and how they start.

Every figure of the paper is regenerated from a batch of *independent*
:class:`repro.fl.config.ExperimentConfig` runs, which makes the sweeps
embarrassingly parallel: the simulation is driven entirely by virtual time
and every random stream is derived from ``config.seed``, so executing the
cells in worker processes produces byte-identical
:meth:`repro.fl.metrics.ExperimentResult.summary` rows (and ``rounds.jsonl``
files) to in-process execution.

The :class:`~repro.experiments.scheduler.SweepScheduler` is the one executor
of a batch; this module only resolves its worker count
(:func:`resolve_workers`: explicit request > ``REPRO_WORKERS`` > default)
and builds the spawn-safe process pool its cells run in
(:func:`worker_pool`).
"""

from __future__ import annotations

import os
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


def default_workers() -> int:
    """One worker per CPU."""
    return max(1, os.cpu_count() or 1)


def resolve_workers(requested: Optional[int] = None, default: Optional[int] = None) -> int:
    """Worker-count precedence: explicit request > ``REPRO_WORKERS`` > ``default``.

    ``default=None`` means one per CPU (the CLI's sweep-shaped commands);
    :func:`repro.api.sweep` passes ``1``, so a library sweep stays
    in-process unless the caller or the environment asks for a pool.
    """
    if requested is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if raw:
            try:
                requested = int(raw)
            except ValueError:
                raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from None
    if requested is None:
        requested = default_workers() if default is None else default
    return max(1, int(requested))
