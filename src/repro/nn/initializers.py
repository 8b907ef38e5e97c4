"""Weight initialisation helpers for the numpy neural-network substrate.

All initialisers take an explicit :class:`numpy.random.Generator` so that
every model in a simulated federated cluster can be constructed
deterministically from a seed.  This is essential for reproducing the
paper's experiments: the federator and every client must start from the
same global model.

Random draws always happen in ``float64`` and are cast to the target
dtype afterwards, so a ``float32`` model is the *rounded* version of the
corresponding ``float64`` model — the underlying random stream (and hence
seed bookkeeping) is identical at either width.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.dtype import DtypeLike, resolve_dtype


def he_normal(
    shape: tuple,
    fan_in: int,
    rng: np.random.Generator,
    dtype: Optional[DtypeLike] = None,
) -> np.ndarray:
    """He (Kaiming) normal initialisation, suited to ReLU networks.

    Parameters
    ----------
    shape:
        Shape of the weight tensor to create.
    fan_in:
        Number of input units feeding each output unit.
    rng:
        Source of randomness.
    dtype:
        Target dtype; defaults to :data:`repro.nn.dtype.COMPUTE_DTYPE`.
    """
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape).astype(resolve_dtype(dtype), copy=False)


def zeros(shape: tuple, dtype: Optional[DtypeLike] = None) -> np.ndarray:
    """All-zero initialisation, used for biases."""
    return np.zeros(shape, dtype=resolve_dtype(dtype))
