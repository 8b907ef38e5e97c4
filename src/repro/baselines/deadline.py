"""Deadline-based straggler mitigation (the motivation baseline of Figure 1).

The naive way to bound the duration of a round is to impose a deadline:
clients that have not returned their update when the deadline expires are
simply excluded from the aggregation.  Figures 1(b) and 1(c) of the paper
show that this effectively caps the training time but severely degrades
accuracy, especially with non-IID data — which motivates Aergia's
freeze-and-offload design.
"""

from __future__ import annotations

from typing import Optional

from repro.fl.federator import BaseFederator
from repro.registry import register_federator


@register_federator("deadline")
class DeadlineFederator(BaseFederator):
    """FedAvg with a per-round deadline after which late clients are dropped.

    Since the round-engine refactor this baseline is a pure *policy*: it
    only supplies the deadline value.  The engine itself arms the deadline
    timer, drops the stragglers when it fires, excludes them from the
    aggregation weights and finalises the round with whatever arrived.
    """

    algorithm_name = "deadline"

    def round_deadline_seconds(self) -> Optional[float]:
        #: ``None`` means an infinite deadline, i.e. plain FedAvg behaviour.
        return self.config.deadline_seconds

    @property
    def deadline_seconds(self) -> Optional[float]:
        """The configured deadline (kept for tests and diagnostics)."""
        return self.config.deadline_seconds

    @property
    def drop_rate(self) -> float:
        """Fraction of selected clients dropped so far (diagnostics)."""
        selected = sum(len(r.selected_clients) for r in self.result.rounds)
        dropped = sum(len(r.dropped_clients) for r in self.result.rounds)
        return dropped / selected if selected else 0.0

