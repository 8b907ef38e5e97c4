"""The compute dtype of the numpy engine.

Every run computes in ``float32``: it halves memory traffic and roughly
doubles BLAS throughput against ``float64`` while leaving the *simulated*
results (FLOP counts, virtual times) untouched, because those are derived
from tensor shapes, not from arithmetic precision.  Final accuracy does not
move either: over 21 bench-scale float32/float64 pairs, the final
``test_accuracy`` was identical in every pair.

Layer and :class:`repro.nn.model.SplitCNN` constructors still accept an
explicit ``dtype=``: the finite-difference gradient checks and the
seed-engine oracle (:mod:`repro.nn.reference`) build ``float64`` models by
argument.  Nothing else chooses a dtype.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

DtypeLike = Union[str, type, np.dtype]

#: The dtype every run computes in.
COMPUTE_DTYPE = np.dtype("float32")

#: dtypes a model can be built at by argument; anything else is an error.
SUPPORTED_DTYPES = ("float32", "float64")


def resolve_dtype(spec: Optional[DtypeLike]) -> np.dtype:
    """Normalise a dtype spec (``"float32"``, ``np.float64``, ...) to ``np.dtype``.

    ``None`` resolves to :data:`COMPUTE_DTYPE`.
    """
    if spec is None:
        return COMPUTE_DTYPE
    dtype = np.dtype(spec)
    if dtype.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype.name!r}; supported: {list(SUPPORTED_DTYPES)}"
        )
    return dtype
