"""Offloading plan data structures.

The scheduler (Algorithm 1) produces an :class:`OffloadPlan`: a set of
:class:`OffloadAssignment` objects, one per weak client, naming the strong
client that will train its frozen feature layers and the number of batch
updates to offload.  The Aergia federator turns the plan into
``OFFLOAD_INSTRUCTION`` / ``OFFLOAD_EXPECT`` messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class OffloadAssignment:
    """One weak-to-strong offloading decision.

    Attributes
    ----------
    weak_client:
        The straggler that freezes and offloads its model.
    strong_client:
        The faster client that trains the frozen feature layers.
    offload_batches:
        Number of local batch updates whose feature training is offloaded
        (``op``/``d`` in Algorithm 2).
    estimated_duration:
        The estimated completion time (``ct``) of the pair under this
        assignment, as computed by Algorithm 2.
    cost:
        The similarity-weighted cost used to pick the assignment (line 24
        of Algorithm 1).
    """

    weak_client: int
    strong_client: int
    offload_batches: int
    estimated_duration: float
    cost: float

    def __post_init__(self) -> None:
        if self.weak_client == self.strong_client:
            raise ValueError("a client cannot offload to itself")
        if self.offload_batches < 0:
            raise ValueError("offload_batches cannot be negative")
        if self.estimated_duration < 0 or self.cost < 0:
            raise ValueError("durations and costs cannot be negative")


@dataclass
class OffloadPlan:
    """The complete offloading schedule for one round."""

    round_number: int
    mean_compute_time: float
    assignments: List[OffloadAssignment] = field(default_factory=list)

    def add(self, assignment: OffloadAssignment) -> None:
        if self.assignment_for(assignment.weak_client) is not None:
            raise ValueError(f"client {assignment.weak_client} already has an assignment")
        if any(a.strong_client == assignment.strong_client for a in self.assignments):
            raise ValueError(
                f"strong client {assignment.strong_client} is already used in this round"
            )
        self.assignments.append(assignment)

    def assignment_for(self, weak_client: int) -> Optional[OffloadAssignment]:
        """The assignment in which ``weak_client`` offloads, if any."""
        for assignment in self.assignments:
            if assignment.weak_client == weak_client:
                return assignment
        return None

    @property
    def num_offloads(self) -> int:
        return len(self.assignments)

    def __iter__(self) -> Iterator[OffloadAssignment]:
        return iter(self.assignments)

    def as_dict(self) -> Dict[int, int]:
        """Mapping weak client -> strong client (handy for logging/tests)."""
        return {a.weak_client: a.strong_client for a in self.assignments}
