"""Dataset-similarity computation used by the Aergia scheduler (§4.4).

The similarity between two clients is the Earth Mover's Distance between
their class distributions (lower = more similar).  The actual numerical
work lives in :mod:`repro.data.distribution`; this module adds the
client-id bookkeeping the federator needs and is what the simulated SGX
enclave executes internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.distribution import similarity_matrix


@dataclass
class ClientSimilarity:
    """A pair-wise dissimilarity matrix together with its client-id index."""

    client_ids: Tuple[int, ...]
    matrix: np.ndarray
    _rows: Dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.client_ids)
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match {n} client ids"
            )
        self._rows = {cid: i for i, cid in enumerate(self.client_ids)}

    def value(self, client_a: int, client_b: int) -> float:
        """EMD between the datasets of two clients."""
        if client_a not in self._rows or client_b not in self._rows:
            raise KeyError(f"unknown client pair ({client_a}, {client_b})")
        return float(self.matrix[self._rows[client_a], self._rows[client_b]])

    def submatrix(self, client_ids: Sequence[int]) -> "ClientSimilarity":
        """Restrict the matrix to a subset of clients (a round's selection)."""
        missing = [cid for cid in client_ids if cid not in self._rows]
        if missing:
            raise KeyError(f"clients {missing} not present in the similarity matrix")
        rows = [self._rows[cid] for cid in client_ids]
        return ClientSimilarity(
            client_ids=tuple(int(c) for c in client_ids),
            matrix=self.matrix[np.ix_(rows, rows)].copy(),
        )


def compute_similarity_matrix(
    class_counts_by_client: Dict[int, np.ndarray],
    client_ids: Optional[Sequence[int]] = None,
) -> ClientSimilarity:
    """Compute the pair-wise EMD matrix from per-client class counts.

    This is the computation the paper executes inside the SGX enclave; the
    reproduction calls it from :class:`repro.core.enclave.SGXEnclave` so the
    raw class counts never reach federator code.  ``client_ids`` restricts
    the result to those clients, in that order (a round's cohort); the
    default is every client, sorted.  Every entry equals the corresponding
    entry of the full matrix bitwise.
    """
    if not class_counts_by_client:
        raise ValueError("need at least one client distribution")
    if client_ids is None:
        ids: List[int] = sorted(class_counts_by_client)
    else:
        ids = [int(cid) for cid in client_ids]
        missing = [cid for cid in ids if cid not in class_counts_by_client]
        if missing:
            raise KeyError(f"clients {missing} have no class distribution")
    counts = [np.asarray(class_counts_by_client[cid], dtype=np.float64) for cid in ids]
    lengths = {c.shape[0] for c in counts}
    if len(lengths) > 1:
        raise ValueError("all class-count vectors must have the same length")
    return ClientSimilarity(client_ids=tuple(ids), matrix=similarity_matrix(counts))
