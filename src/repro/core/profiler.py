"""Online profiler measuring the four training phases (§4.2 of the paper).

At the beginning of every Aergia round the selected clients run complete
batches (all four phases) and measure, with their local clock, how long
each phase takes.  After ``P`` batches (the paper uses 100 out of 1600)
they report the measurements to the federator and keep training while
waiting for scheduling instructions.  The profiler has a very small
overhead (the paper reports 0.22–0.58 % of training time); the reproduction
charges that overhead explicitly through
:attr:`OnlineProfiler.overhead_fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.nn.model import Phase, SplitCNN


@dataclass
class PhaseProfile:
    """Aggregated per-phase timings measured by the online profiler."""

    phase_seconds: Dict[Phase, float]
    batches_measured: int

    @property
    def batch_seconds(self) -> float:
        """Mean duration of one full training batch."""
        return float(sum(self.phase_seconds.values()))

    def fractions(self) -> Dict[Phase, float]:
        """Share of a batch spent in each phase (the Figure 4 quantities)."""
        total = self.batch_seconds
        if total <= 0:
            return {phase: 0.0 for phase in Phase}
        return {phase: self.phase_seconds[phase] / total for phase in Phase}

    def dominant_phase(self) -> Phase:
        """The phase with the largest share (``bf`` for CNNs, per Figure 4)."""
        return max(Phase, key=lambda phase: self.phase_seconds[phase])


class OnlineProfiler:
    """Accumulates per-phase durations over the profiling batches of a round.

    Parameters
    ----------
    overhead_fraction:
        Fraction of the measured batch time added as profiling overhead.
        The paper measures an overhead of roughly 0.2–0.6 %; the default of
        0.005 sits at the top of that range so the reproduction never
        underestimates the cost of profiling.
    """

    def __init__(self, overhead_fraction: float = 0.005) -> None:
        if overhead_fraction < 0 or overhead_fraction > 0.05:
            raise ValueError("overhead_fraction must be a small non-negative value")
        self.overhead_fraction = overhead_fraction
        self._totals: Dict[Phase, float] = {phase: 0.0 for phase in Phase}
        self._batches = 0
        self._active = True

    # ------------------------------------------------------------------ state
    @property
    def batches_recorded(self) -> int:
        return self._batches

    @property
    def active(self) -> bool:
        """Whether the profiler is still collecting measurements."""
        return self._active

    def stop(self) -> None:
        """Stop collecting (the client does this after ``P`` batches)."""
        self._active = False

    def reset(self) -> None:
        """Clear accumulated measurements and resume collection."""
        self._totals = {phase: 0.0 for phase in Phase}
        self._batches = 0
        self._active = True

    # ------------------------------------------------------- checkpoint seams
    def capture_state(self) -> Dict:
        return {
            "totals": {phase.value: total for phase, total in self._totals.items()},
            "batches": self._batches,
            "active": self._active,
        }

    def restore_state(self, state: Dict) -> None:
        self._totals = {phase: 0.0 for phase in Phase}
        for name, total in state["totals"].items():
            self._totals[Phase(name)] = float(total)
        self._batches = int(state["batches"])
        self._active = bool(state["active"])

    # --------------------------------------------------------------- recording
    def record_batch(self, phase_durations: Dict[Phase, float]) -> float:
        """Record the measured durations of one batch.

        Returns the profiling overhead (in seconds) charged for this batch,
        which the caller adds to the client's virtual time.
        """
        if not self._active:
            return 0.0
        for phase in Phase:
            duration = float(phase_durations.get(phase, 0.0))
            if duration < 0:
                raise ValueError("phase durations cannot be negative")
            self._totals[phase] += duration
        self._batches += 1
        return self.overhead_fraction * float(sum(phase_durations.values()))

    def profile(self) -> PhaseProfile:
        """The mean per-phase durations observed so far."""
        if self._batches == 0:
            raise RuntimeError("no batches recorded yet")
        return PhaseProfile(
            phase_seconds={phase: self._totals[phase] / self._batches for phase in Phase},
            batches_measured=self._batches,
        )


def profile_model_phases(
    model: SplitCNN,
    x: np.ndarray,
    y: np.ndarray,
    batches: int = 5,
    batch_size: int = 32,
    rng: Optional[np.random.Generator] = None,
) -> PhaseProfile:
    """Profile a model's phase costs on a dataset (single-client scenario).

    This is the measurement behind Figure 4: run ``batches`` training
    batches and report the mean cost of each phase.  Costs are expressed in
    FLOP-seconds on a unit-speed client, which gives exactly the same
    *fractions* as wall-clock measurements on any fixed-speed machine.
    """
    if batches < 1:
        raise ValueError("need at least one batch to profile")
    if x.shape[0] < batch_size:
        batch_size = x.shape[0]
    rng = rng if rng is not None else np.random.default_rng(0)
    profiler = OnlineProfiler()
    saved = model.get_weights()
    for _ in range(batches):
        idx = rng.choice(x.shape[0], size=batch_size, replace=False)
        _, trace = model.train_batch(x[idx], y[idx], optimizer=None)
        profiler.record_batch({phase: trace.flops[phase] for phase in Phase})
    model.set_weights(saved)
    return profiler.profile()

