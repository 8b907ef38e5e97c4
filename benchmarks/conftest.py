"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at the
"bench" scale (override with ``REPRO_SCALE=full`` for paper-sized runs) and
prints the regenerated rows/series so they can be compared with the paper.

The figure functions hand their sweeps to :func:`repro.api.sweep` — one
path, the :class:`~repro.experiments.scheduler.SweepScheduler`, and one
cache, the run store — so the whole harness can be replayed without code
changes: set ``REPRO_RESULTS_DIR=results/`` before invoking pytest.  Each
sweep spreads its cells over the usable cores on its own, a core per BLAS
thread (pin ``OPENBLAS_NUM_THREADS=1`` to give every core a cell).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))
SRC_ROOT = REPO_ROOT / "src"
if str(SRC_ROOT) not in sys.path:
    sys.path.insert(0, str(SRC_ROOT))

# Benchmarks default to the "bench" scale unless the user overrides it.
os.environ.setdefault("REPRO_SCALE", "bench")

# api.sweep splits the cores and reads REPRO_RESULTS_DIR itself (storeless
# when unset) — nothing to configure here.


@pytest.fixture
def print_figure(capsys):
    """Print a figure rendering so it survives pytest's output capturing."""

    def _print(rendering: str) -> None:
        with capsys.disabled():
            print()
            print(rendering)
            print()

    return _print


def run_once(benchmark, func, *args, **kwargs):
    """Run an expensive figure regeneration exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
