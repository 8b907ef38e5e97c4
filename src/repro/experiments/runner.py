"""The labelled results of a batch of experiment configurations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.fl.metrics import ExperimentResult


@dataclass
class SuiteResult:
    """Results of a batch of experiments, keyed by a caller-chosen label.

    Built by the :class:`~repro.experiments.scheduler.SweepScheduler`, in
    the caller's label order; ``wall_seconds`` is the compute spent on each
    cell in this sweep (0.0 for a cell served from the run store).
    """

    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    wall_seconds: Dict[str, float] = field(default_factory=dict)

    def __getitem__(self, label: str) -> ExperimentResult:
        return self.results[label]

    def __contains__(self, label: str) -> bool:
        return label in self.results

    def labels(self) -> Iterable[str]:
        return self.results.keys()

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """Flat per-label summaries (the rows most figures report)."""
        return {label: result.summary() for label, result in self.results.items()}

    def total_wall_seconds(self) -> float:
        return float(sum(self.wall_seconds.values()))
