"""Message kinds and structured payloads exchanged between nodes.

The testbed of the paper is message-passing only: nodes are isolated and
communicate through asynchronous RPC (§5.1).  The reproduction keeps the
same discipline — every interaction between the federator and the clients,
and between pairs of clients (model offloading), is a message routed
through the simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.nn.model import Phase

if TYPE_CHECKING:
    from repro.fl.training import TrainingJob


class MessageKind:
    """String tags identifying message types."""

    #: Federator -> client: start local training for a round.
    TRAIN_REQUEST = "train_request"
    #: Client -> federator: finished local training; payload is a TrainingResult.
    TRAIN_RESULT = "train_result"
    #: Client -> federator: online-profiler measurements (Aergia only).
    PROFILE_REPORT = "profile_report"
    #: Federator -> weak client: freeze and offload to the named strong client.
    OFFLOAD_INSTRUCTION = "offload_instruction"
    #: Federator -> strong client: expect an offloaded model from the named weak client.
    OFFLOAD_EXPECT = "offload_expect"
    #: Weak client -> strong client: the (frozen) model to train.
    OFFLOADED_MODEL = "offloaded_model"
    #: Strong client -> federator: trained feature layers of an offloaded model.
    OFFLOAD_RESULT = "offload_result"
    #: Client -> enclave (via federator host): encrypted class distribution.
    DISTRIBUTION_SUBMIT = "distribution_submit"


@dataclass
class ProfileReport:
    """Per-phase timing measurements reported by a client's online profiler.

    Attributes
    ----------
    client_id:
        Reporting client.
    round_number:
        Round the measurements belong to.
    phase_seconds:
        Mean duration (client-local seconds) of each of the four phases for
        one batch.
    batches_measured:
        Number of batches the profiler observed.
    batches_completed:
        Batches already executed when the report was sent (profiling
        batches included).
    remaining_batches:
        Local updates the client still has to perform in this round.
    """

    client_id: int
    round_number: int
    phase_seconds: Dict[Phase, float]
    batches_measured: int
    batches_completed: int
    remaining_batches: int

    @property
    def batch_seconds(self) -> float:
        """Mean duration of one full training batch."""
        return float(sum(self.phase_seconds.values()))

    @property
    def head_seconds(self) -> float:
        """Duration of phases 1-3 (ff + fc + bc), ``t_{j,{1,2,3}}`` in Algorithm 1."""
        return float(
            self.phase_seconds[Phase.FORWARD_FEATURES]
            + self.phase_seconds[Phase.FORWARD_CLASSIFIER]
            + self.phase_seconds[Phase.BACKWARD_CLASSIFIER]
        )

    @property
    def tail_seconds(self) -> float:
        """Duration of phase 4 (bf), ``t_{j,4}`` in Algorithm 1."""
        return float(self.phase_seconds[Phase.BACKWARD_FEATURES])

    @property
    def feature_training_seconds(self) -> float:
        """Cost of training only the feature layers (``x_b`` in Algorithm 2)."""
        return float(
            self.phase_seconds[Phase.FORWARD_FEATURES]
            + self.phase_seconds[Phase.FORWARD_CLASSIFIER]
            + self.phase_seconds[Phase.BACKWARD_FEATURES]
        )

    @property
    def estimated_remaining_seconds(self) -> float:
        """Projected time to finish the remaining local updates."""
        return self.remaining_batches * self.batch_seconds


class _ReadsJob:
    """A result whose arrays are its training ``job``'s: computed the first
    time one of them is read (subclasses' ``_read``), then kept and the job
    let go.  A pickled result carries the values, never the job."""

    def _values(self) -> dict:
        values = self.__dict__
        if values.get("job") is not None:
            values.update(self._read(values["job"]))
            values["job"] = None
        return values

    def __getstate__(self) -> dict:
        return self._values()


@dataclass(eq=False)
class TrainingResult(_ReadsJob):
    """A client's contribution at the end of a round.

    ``weights`` is the per-key dictionary view (used by Aergia's
    recombination and by tests); ``flat_weights`` is the same state as one
    contiguous vector in :meth:`repro.nn.model.SplitCNN.get_flat_weights`
    layout.  The federators aggregate the flat vectors directly whenever a
    contribution is the client's verbatim model state, so the per-round
    reduction is a handful of fused vector operations.  Both, and
    ``train_loss``, are read off the client's ``job``
    (:class:`repro.fl.training.TrainingJob`) the first time one is read.
    """

    client_id: int
    round_number: int
    num_samples: int
    num_steps: int
    features_frozen: bool = False
    offloaded_to: Optional[int] = None
    finished_at: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    job: Optional["TrainingJob"] = field(default=None, repr=False)

    def _read(self, job) -> dict:
        flat = job.flat_weights()
        return {
            "flat_weights": flat,
            "weights": job.trainer.per_key(flat),
            "train_loss": float(np.mean(job.losses)) if job.losses else 0.0,
        }

    @property
    def weights(self) -> Dict[str, np.ndarray]:
        return self._values()["weights"]

    @property
    def flat_weights(self) -> np.ndarray:
        return self._values()["flat_weights"]

    @property
    def train_loss(self) -> float:
        return self._values()["train_loss"]


@dataclass(eq=False)
class OffloadResult(_ReadsJob):
    """Feature layers of an offloaded model, trained by a strong client
    (``feature_weights`` is read off its ``job``, like a
    :class:`TrainingResult`'s weights)."""

    source_client_id: int
    trainer_client_id: int
    round_number: int
    batches_trained: int
    finished_at: float = 0.0
    job: Optional["TrainingJob"] = field(default=None, repr=False)

    def _read(self, job) -> dict:
        from repro.fl.training import run_jobs

        run_jobs([job])
        return {"feature_weights": job.trainer.per_key(job.weights["features"])}

    @property
    def feature_weights(self) -> Dict[str, np.ndarray]:
        return self._values()["feature_weights"]
