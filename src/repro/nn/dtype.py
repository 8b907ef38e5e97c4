"""Compute-dtype policy for the numpy engine.

Every figure of the paper reduces to thousands of ``SplitCNN.train_batch``
calls, so the arithmetic width of the engine is a first-order performance
knob: ``float32`` halves memory traffic and roughly doubles BLAS throughput
on most CPUs while leaving the *simulated* results (FLOP counts, virtual
times) untouched, because those are derived from tensor shapes, not from
arithmetic precision.

The policy is a process-wide default plus explicit overrides:

* ``REPRO_DTYPE`` environment variable (``"float32"`` / ``"float64"``)
  selects the default at import time — parallel sweep workers inherit it;
* :func:`set_compute_dtype` changes the default at runtime;
* :func:`using_dtype` overrides it for the calling thread only (the
  experiment runner applies a config's ``dtype`` field this way), so runs
  of different dtypes can be built side by side in one process;
* layer constructors accept an explicit ``dtype=`` argument that wins over
  the global default (used by the dual-dtype gradient-check tests).

``float64`` mode is bit-compatible with the seed engine: every optimisation
in the fast path (scratch reuse, fused updates, flat aggregation) preserves
the exact floating-point operation order of the original implementation.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Union

import numpy as np

DtypeLike = Union[str, type, np.dtype]

#: dtypes the engine supports; anything else is a configuration error.
SUPPORTED_DTYPES = ("float32", "float64")

DEFAULT_DTYPE_NAME = "float32"


def resolve_dtype(spec: Optional[DtypeLike]) -> np.dtype:
    """Normalise a dtype spec (``"float32"``, ``np.float64``, ...) to ``np.dtype``.

    ``None`` resolves to the current global compute dtype.
    """
    if spec is None:
        return compute_dtype()
    dtype = np.dtype(spec)
    if dtype.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype.name!r}; supported: {list(SUPPORTED_DTYPES)}"
        )
    return dtype


def _dtype_from_env() -> np.dtype:
    name = os.environ.get("REPRO_DTYPE", DEFAULT_DTYPE_NAME).strip().lower()
    if name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"invalid REPRO_DTYPE {name!r}; supported: {list(SUPPORTED_DTYPES)}"
        )
    return np.dtype(name)


_COMPUTE_DTYPE: np.dtype = _dtype_from_env()

#: The calling thread's :func:`using_dtype` override (a new thread starts
#: without one and sees the process default).
_OVERRIDE: ContextVar[Optional[np.dtype]] = ContextVar("repro_compute_dtype", default=None)


def compute_dtype() -> np.dtype:
    """The dtype newly constructed layers and models use for parameters."""
    override = _OVERRIDE.get()
    return _COMPUTE_DTYPE if override is None else override


def set_compute_dtype(spec: DtypeLike) -> np.dtype:
    """Set the process-wide default compute dtype; returns the resolved ``np.dtype``."""
    global _COMPUTE_DTYPE
    dtype = np.dtype(spec)
    if dtype.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype.name!r}; supported: {list(SUPPORTED_DTYPES)}"
        )
    _COMPUTE_DTYPE = dtype
    return dtype


@contextmanager
def using_dtype(spec: DtypeLike) -> Iterator[np.dtype]:
    """Switch the calling thread's compute dtype (restored on exit)."""
    dtype = resolve_dtype(spec)
    token = _OVERRIDE.set(dtype)
    try:
        yield dtype
    finally:
        _OVERRIDE.reset(token)
