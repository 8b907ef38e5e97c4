"""Class-distribution vectors and Earth Mover's Distance similarity.

The paper (§2.3, §4.4) measures the heterogeneity of client datasets with
the Earth Mover's Distance (EMD) between their class distributions and uses
pair-wise similarities — computed privately inside an SGX enclave — to
refine the freeze/offload schedule.  This module provides the numerical
side of that computation; :mod:`repro.core.enclave` provides the trusted
execution boundary around it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def class_distribution(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Count the number of samples of each class.

    This is the "number of labels per class" vector that clients encrypt
    and send to the federator's enclave.
    """
    if num_classes < 1:
        raise ValueError("num_classes must be at least 1")
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels outside [0, num_classes)")
    return np.bincount(labels, minlength=num_classes).astype(np.float64)


def normalized_class_distribution(counts: np.ndarray) -> np.ndarray:
    """Normalise a class-count vector into a probability distribution.

    An all-zero vector (a client with no data) maps to the uniform
    distribution, which makes it maximally "average" rather than undefined.
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return np.full(counts.shape, 1.0 / counts.size)
    return counts / total


def earth_movers_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Earth Mover's Distance between two distributions over the same classes.

    For one-dimensional histograms over a common, equally spaced support the
    EMD reduces to the L1 distance between cumulative distributions
    (normalised here to [0, 1] by dividing by the number of classes so the
    value is comparable across datasets with different class counts).
    """
    p = normalized_class_distribution(np.asarray(p, dtype=np.float64))
    q = normalized_class_distribution(np.asarray(q, dtype=np.float64))
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    cdf_diff = np.cumsum(p - q)
    return float(np.abs(cdf_diff).sum() / p.size)


#: Bytes the EMD kernel's ``(rows, clients, classes)`` temporary may take;
#: the full matrix is filled this many rows at a time.
_EMD_BLOCK_BYTES = 4 << 20


def _normalized_rows(counts: np.ndarray) -> np.ndarray:
    """:func:`normalized_class_distribution` applied to every row."""
    totals = counts.sum(axis=1)
    empty = totals <= 0
    rows = counts / np.where(empty, 1.0, totals)[:, None]
    rows[empty] = 1.0 / counts.shape[1]
    return rows


def pairwise_emd(class_counts: np.ndarray, block_rows: Optional[int] = None) -> np.ndarray:
    """EMD between every pair of rows of an ``(clients, classes)`` array.

    The vectorised form of :func:`earth_movers_distance` over all pairs and
    bitwise equal to it: the same subtractions, the same sequential
    ``cumsum`` and the same summation order per pair.  That includes
    normalising twice (callers of the scalar function hand it distributions
    it normalises again, and the quotient by a sum that is only nearly 1
    moves the last bits).  The matrix is filled ``block_rows`` rows at a
    time, which bounds the temporary and changes no value.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ValueError(f"expected a (clients, classes) array, got shape {counts.shape}")
    num_clients, num_classes = counts.shape
    distributions = _normalized_rows(_normalized_rows(counts))
    if block_rows is None:
        block_rows = _EMD_BLOCK_BYTES // max(1, num_clients * num_classes * counts.itemsize)
    block_rows = max(1, block_rows)
    matrix = np.empty((num_clients, num_clients), dtype=np.float64)
    for start in range(0, num_clients, block_rows):
        block = distributions[start : start + block_rows, None, :] - distributions[None, :, :]
        np.cumsum(block, axis=2, out=block)
        np.abs(block, out=block)
        matrix[start : start + block_rows] = block.sum(axis=2) / num_classes
    return matrix


def similarity_matrix(
    class_counts: Sequence[np.ndarray], metric: str = "emd"
) -> np.ndarray:
    """Pair-wise dataset dissimilarity matrix ``S`` used by Algorithm 1.

    ``S[i, j]`` is the EMD between the class distributions of clients ``i``
    and ``j``; lower values mean more similar datasets, which matches the
    cost function of Algorithm 1 (line 24) where a *smaller* ``S`` makes an
    offloading target cheaper.  The matrix is symmetric with a zero
    diagonal.

    Parameters
    ----------
    class_counts:
        One class-count vector per client.
    metric:
        Only ``"emd"`` is supported; the parameter exists so alternative
        privacy-preserving similarity measures can be plugged in later.
    """
    if metric != "emd":
        raise ValueError(f"unsupported similarity metric {metric!r}")
    if len(class_counts) == 0:
        return np.zeros((0, 0), dtype=np.float64)
    return pairwise_emd(np.asarray(class_counts, dtype=np.float64))


def heterogeneity_index(
    class_counts: Sequence[np.ndarray], reference: Optional[np.ndarray] = None
) -> float:
    """Average EMD of client distributions to the global (or given) reference.

    This is the dataset-level heterogeneity measure discussed in §2.3: the
    higher the average EMD, the more non-IID the partition.
    """
    if not class_counts:
        raise ValueError("need at least one client distribution")
    counts = [np.asarray(c, dtype=np.float64) for c in class_counts]
    if reference is None:
        reference = np.sum(counts, axis=0)
    return float(
        np.mean([earth_movers_distance(c, reference) for c in counts])
    )
