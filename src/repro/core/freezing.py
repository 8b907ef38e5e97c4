"""Model freezing, splitting and recombination (§4.1 of the paper).

A weak client that offloads its training freezes its feature
(convolutional) layers, ships the model to a strong client, and keeps
training only its classifier layers.  The strong client trains the frozen
feature layers on its own dataset.  At aggregation time the federator
recombines the two halves: feature layers from the strong client,
classifier layers from the weak client.

The helpers in this module operate on the flat weight dictionaries produced
by :meth:`repro.nn.model.SplitCNN.get_weights`, whose keys are prefixed
with ``"features."`` or ``"classifier."``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.model import SplitCNN

Weights = Dict[str, np.ndarray]


def split_weights(weights: Weights) -> Tuple[Weights, Weights]:
    """Split a flat weight dictionary into (feature, classifier) parts."""
    features: Weights = {}
    classifier: Weights = {}
    for key, value in weights.items():
        if key.startswith(SplitCNN.FEATURE_PREFIX + "."):
            features[key] = value
        elif key.startswith(SplitCNN.CLASSIFIER_PREFIX + "."):
            classifier[key] = value
        else:
            raise KeyError(f"weight key {key!r} belongs to neither section")
    return features, classifier


def merge_weights(feature_weights: Weights, classifier_weights: Weights) -> Weights:
    """Merge feature and classifier weights back into one dictionary.

    Raises if the two parts overlap or if either contains keys from the
    wrong section, which would indicate a recombination bug.
    """
    for key in feature_weights:
        if not key.startswith(SplitCNN.FEATURE_PREFIX + "."):
            raise KeyError(f"{key!r} is not a feature weight")
    for key in classifier_weights:
        if not key.startswith(SplitCNN.CLASSIFIER_PREFIX + "."):
            raise KeyError(f"{key!r} is not a classifier weight")
    merged: Weights = {}
    merged.update(feature_weights)
    merged.update(classifier_weights)
    return merged


def recombine_offloaded_model(
    weak_client_weights: Weights, strong_client_feature_weights: Weights
) -> Weights:
    """Reconstruct a weak client's contribution after offloading.

    The classifier layers come from the weak client (which kept training
    them locally); the feature layers come from the strong client that
    trained them on its own dataset (§3.3 "Model aggregation").  The merge
    is explicitly filtered: *only* the feature keys of the strong client's
    payload are used — any classifier keys it ships are discarded in favour
    of the weak client's, which is the paper's aggregation contract.
    """
    _, classifier = split_weights(weak_client_weights)
    features, _ignored_strong_classifier = split_weights(strong_client_feature_weights)
    if not features:
        raise ValueError("strong client payload contains no feature weights")
    return merge_weights(features, classifier)


@dataclass
class FrozenModelPackage:
    """The payload a weak client ships to its matched strong client.

    Attributes
    ----------
    source_client_id:
        The weak client that froze and offloaded its model.
    round_number:
        Global round the offload belongs to (stale packages are ignored).
    weights:
        Full model weights at the moment of freezing — the strong client
        needs both sections: it trains the features and keeps the classifier
        fixed to compute gradients.  ``None`` when the package was built
        from a model's flat buffer (:meth:`from_model`) or from a job, in
        which case :attr:`flat_weights` holds the same state as one
        contiguous vector.
    batches_to_train:
        Number of local batch updates the strong client should run on the
        offloaded feature layers (the ``op`` output of Algorithm 2).
    flat_weights:
        Full model state as one flat vector in
        :meth:`repro.nn.model.SplitCNN.get_flat_weights` layout; preferred
        over ``weights`` when present (no per-key dictionaries are built
        anywhere on the offload path).
    job:
        The weak client's :class:`repro.fl.training.TrainingJob`, whose state
        at its freeze is the package: :meth:`snapshot` runs the job the first
        time the state is read and fills :attr:`flat_weights` from it.
    """

    source_client_id: int
    round_number: int
    weights: Optional[Weights] = field(default=None, repr=False)
    batches_to_train: int = 0
    flat_weights: Optional[np.ndarray] = field(default=None, repr=False)
    job: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.batches_to_train < 0:
            raise ValueError("batches_to_train cannot be negative")
        has_dict = bool(self.weights)
        has_flat = self.flat_weights is not None and self.flat_weights.size > 0
        if not has_dict and not has_flat and self.job is None:
            raise ValueError("an offloaded package must contain model weights")

    @classmethod
    def from_model(
        cls,
        model: SplitCNN,
        source_client_id: int,
        round_number: int,
        batches_to_train: int,
    ) -> "FrozenModelPackage":
        """Snapshot a model's full state as a flat vector (no dict is built)."""
        return cls(
            source_client_id=source_client_id,
            round_number=round_number,
            batches_to_train=batches_to_train,
            flat_weights=model.get_flat_weights(),
        )

    def snapshot(self) -> Optional[np.ndarray]:
        """The packaged state as a flat vector, running the job it comes from
        if nobody has yet (``None`` for a package of per-key weights)."""
        if self.flat_weights is None and self.job is not None:
            from repro.fl.training import run_jobs

            run_jobs([self.job])
            self.flat_weights, self.job = self.job.snapshot, None
        return self.flat_weights

    def load_into(self, model: SplitCNN) -> None:
        """Restore the packaged state into ``model`` (flat path when available)."""
        if self.snapshot() is not None:
            model.set_flat_weights(self.flat_weights)
        else:
            model.set_weights(self.weights or {})

    def num_parameters(self) -> int:
        """Number of scalar parameters carried by the package."""
        if self.flat_weights is not None:
            return int(self.flat_weights.size)
        if self.job is not None:
            return self.job.trainer.model.num_parameters()
        return int(sum(array.size for array in (self.weights or {}).values()))

    def payload_bytes(self) -> float:
        """Size of the package on the wire (charged by the network model).

        Payloads are charged at the canonical wire width
        (:data:`repro.simulation.network.WIRE_BYTES_PER_PARAM`), not at the
        in-memory dtype of the weights, so simulated communication times do
        not depend on the width the engine computes in.
        """
        from repro.simulation.network import WIRE_BYTES_PER_PARAM

        return float(self.num_parameters() * WIRE_BYTES_PER_PARAM)

    def __getstate__(self) -> dict:
        # Pickled (a checkpoint, a pipe) as the state it carries.
        self.snapshot()
        return self.__dict__
