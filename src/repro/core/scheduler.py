"""Aergia's centralized scheduling algorithms (Algorithms 1 and 2, §4.3-4.4).

The federator uses the per-phase timings reported by the online profiler to
identify straggling clients and to pair each straggler with a strong client
that (i) has spare capacity and (ii) owns a dataset sufficiently similar to
the straggler's.  Two functions implement the paper's pseudo-code:

* :func:`calc_op` — Algorithm 2, the optimal offloading point between a
  weak client ``a`` and a candidate strong client ``b``;
* :func:`schedule_offloading` — Algorithm 1, the greedy
  longest-processing-time-first matching of weak and strong clients with
  the similarity-weighted cost of line 24.

Both operate on plain data (no simulation or FL dependencies) so they can
be unit- and property-tested in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.offloading import OffloadAssignment, OffloadPlan


@dataclass(frozen=True)
class ClientPerformance:
    """Performance indicators of one client, derived from its profile report.

    Attributes
    ----------
    client_id:
        The client the indicators belong to.
    head_seconds:
        Duration of phases 1-3 of a batch (ff + fc + bc), ``t_{j,{1,2,3}}``.
    tail_seconds:
        Duration of phase 4 (bf), ``t_{j,4}``.
    feature_training_seconds:
        Duration of training only the feature layers of an offloaded model
        on this client (``x_b`` in Algorithm 2).
    remaining_batches:
        Local updates the client still has to perform (``ru_j``).
    """

    client_id: int
    head_seconds: float
    tail_seconds: float
    feature_training_seconds: float
    remaining_batches: int

    def __post_init__(self) -> None:
        if self.head_seconds < 0 or self.tail_seconds < 0 or self.feature_training_seconds < 0:
            raise ValueError("durations cannot be negative")
        if self.remaining_batches < 0:
            raise ValueError("remaining_batches cannot be negative")

    @property
    def batch_seconds(self) -> float:
        """Duration of one complete local update."""
        return self.head_seconds + self.tail_seconds

    @property
    def estimated_completion(self) -> float:
        """Projected time to finish all remaining local updates."""
        return self.remaining_batches * self.batch_seconds


@dataclass
class SchedulerDecision:
    """Output of Algorithm 1 for one round."""

    plan: OffloadPlan
    mean_compute_time: float


def calc_op(
    weak_batch_seconds: float,
    strong_batch_seconds: float,
    strong_feature_seconds: float,
    weak_remaining: int,
    strong_remaining: int,
) -> Tuple[float, int]:
    """Algorithm 2: the optimal offloading point between two clients.

    Parameters map one-to-one onto the paper's inputs: ``t_a``, ``t_b``,
    ``x_b``, ``r_a`` and ``r_b``.  For every candidate number ``d`` of
    offloaded updates the estimated completion time of the pair is::

        max((r_a - d) * t_a + d * x_b,   # weak client's branch
            (r_b - d) * t_b)             # strong client's branch

    i.e. the weak client performs ``r_a - d`` full local updates and the
    remaining ``d`` updates' feature training is executed on the strong
    client at cost ``x_b`` each, while the strong client gives up ``d`` of
    its own updates to make room for the offloaded work.  The function
    returns the smallest estimated completion time and the corresponding
    ``d``.

    The paper's pseudo-code stops as soon as the objective increases (the
    curve is unimodal) and returns the previous value; this implementation
    does the same but returns the *arg-min* ``d`` (the pseudo-code's
    returned ``d`` is off by one, which we treat as a typo).

    Returns
    -------
    tuple
        ``(estimated_completion_seconds, offload_batches)``.  With no
        feasible offloading point (``min(r_a, r_b) < 1``) the weak client's
        unassisted completion time and ``d = 0`` are returned.
    """
    if weak_batch_seconds < 0 or strong_batch_seconds < 0 or strong_feature_seconds < 0:
        raise ValueError("batch durations cannot be negative")
    if weak_remaining < 0 or strong_remaining < 0:
        raise ValueError("remaining update counts cannot be negative")

    best_ct = weak_remaining * weak_batch_seconds
    best_d = 0
    for d in range(1, min(weak_remaining, strong_remaining) + 1):
        weak_branch = (weak_remaining - d) * weak_batch_seconds + d * strong_feature_seconds
        strong_branch = (strong_remaining - d) * strong_batch_seconds
        current_ct = max(weak_branch, strong_branch)
        if current_ct > best_ct:
            break
        best_ct = current_ct
        best_d = d
    return best_ct, best_d


def _similarity_lookup(
    similarity: Optional[np.ndarray],
    index_of: Dict[int, int],
    client_a: int,
    client_b: int,
) -> float:
    """Pairwise dissimilarity of two clients (0 when no matrix is provided)."""
    if similarity is None:
        return 0.0
    i = index_of.get(client_a)
    j = index_of.get(client_b)
    if i is None or j is None:
        return 0.0
    return float(similarity[i, j])


def schedule_offloading(
    performances: Sequence[ClientPerformance],
    similarity: Optional[np.ndarray] = None,
    similarity_client_ids: Optional[Sequence[int]] = None,
    similarity_factor: float = 1.0,
    round_number: int = -1,
    straggler_tolerance: float = 0.02,
) -> SchedulerDecision:
    """Algorithm 1: compute the freeze/offload schedule for one round.

    Parameters
    ----------
    performances:
        One :class:`ClientPerformance` per client participating in the
        round (derived from the profile reports).
    similarity:
        The pair-wise dataset dissimilarity matrix ``S`` computed by the
        enclave (EMD values; lower means more similar).  ``None`` disables
        the similarity term, which is equivalent to ``similarity_factor=0``.
    similarity_client_ids:
        The client id corresponding to each row/column of ``similarity``.
        Defaults to the order of ``performances``.
    similarity_factor:
        The ``f`` parameter of line 24; ``0`` ignores data similarity.
    round_number:
        Stored in the returned plan for bookkeeping.
    straggler_tolerance:
        Relative margin above the mean compute time a client must exceed to
        be classified as a straggler.  The paper's pseudo-code uses a strict
        ``> mct`` comparison; real profiling measurements carry clock-skew
        and overhead jitter, so a small tolerance prevents an (effectively
        homogeneous) cluster from scheduling spurious offloads.

    Returns
    -------
    SchedulerDecision
        The offloading plan plus the round's mean compute time.
    """
    if similarity_factor < 0:
        raise ValueError("similarity_factor must be non-negative")
    if straggler_tolerance < 0:
        raise ValueError("straggler_tolerance must be non-negative")
    if not performances:
        return SchedulerDecision(
            plan=OffloadPlan(round_number=round_number, mean_compute_time=0.0),
            mean_compute_time=0.0,
        )

    ids = [p.client_id for p in performances]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids in performance list")

    if similarity is not None:
        sim_ids = list(similarity_client_ids) if similarity_client_ids is not None else ids
        if similarity.shape[0] != similarity.shape[1] or similarity.shape[0] != len(sim_ids):
            raise ValueError("similarity matrix shape does not match the client id list")
        index_of = {client_id: index for index, client_id in enumerate(sim_ids)}
    else:
        index_of = {}

    # Line 12: mean compute time over the active clients.
    mean_compute_time = float(np.mean([p.estimated_completion for p in performances]))

    # Lines 13-14: senders are the clients whose projected completion exceeds
    # the mean (by the jitter tolerance); receivers are the rest.
    threshold = mean_compute_time * (1.0 + straggler_tolerance)
    sending = [p for p in performances if p.estimated_completion > threshold]
    receiving = [p for p in performances if p.estimated_completion <= threshold]

    # Lines 15-16: the weakest senders are matched first (the round duration
    # is determined by the slowest client), so senders are ordered by
    # decreasing projected completion time; receivers by increasing one.
    sending.sort(key=lambda p: p.estimated_completion, reverse=True)
    receiving.sort(key=lambda p: p.estimated_completion)

    plan = OffloadPlan(round_number=round_number, mean_compute_time=mean_compute_time)

    available = list(receiving)
    for weak in sending:
        if not available:
            break
        selected: Optional[ClientPerformance] = None
        selected_cost = math.inf
        selected_ct = math.inf
        selected_op = 0
        for strong in available:
            ct, op = calc_op(
                weak_batch_seconds=weak.batch_seconds,
                strong_batch_seconds=strong.batch_seconds,
                strong_feature_seconds=strong.feature_training_seconds,
                weak_remaining=weak.remaining_batches,
                strong_remaining=strong.remaining_batches,
            )
            if op == 0:
                continue
            dissimilarity = _similarity_lookup(
                similarity, index_of, weak.client_id, strong.client_id
            )
            cost = ct * (1.0 + math.log(dissimilarity * similarity_factor + 1.0))
            if cost < selected_cost:
                selected_cost = cost
                selected_ct = ct
                selected_op = op
                selected = strong
        if selected is None or selected_op == 0:
            continue
        # Offloading must actually help the weak client; a pairing whose
        # estimated completion is no better than training alone is skipped.
        if selected_ct >= weak.estimated_completion:
            continue
        plan.add(
            OffloadAssignment(
                weak_client=weak.client_id,
                strong_client=selected.client_id,
                offload_batches=selected_op,
                estimated_duration=selected_ct,
                cost=selected_cost,
            )
        )
        available = [p for p in available if p.client_id != selected.client_id]

    return SchedulerDecision(plan=plan, mean_compute_time=mean_compute_time)
