"""One way to train: a client's round is a job that runs once, where its
result is first read.

The event loop never trains: no scheduling decision reads a model value.
A client draws each batch's sample indices, charges the batch's analytic
cost (:meth:`repro.nn.model.SplitCNN.batch_trace`) to simulated time and
records its round as a :class:`TrainingJob` — start weights and optimizer
state, the index list, the batch at which the features freeze (whose state
an Aergia weak client offloads).  A strong client's offloaded training is
a second job that starts from that package.

A job runs where its result is first read — aggregation, Aergia's
recombination, a checkpoint capture (which runs a round in progress up to
its last batch drawn) — and each read point hands all its jobs to
:func:`run_jobs` in one call.  A result nobody reads is never computed; no
batch is computed twice.  :func:`train` is the one runner:
:class:`LocalTrainer` calls it in this process,
:class:`repro.simulation.shard.ShardedClientExecutor` on a worker.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.freezing import FrozenModelPackage
from repro.fl.aggregation import flatten_weights, weight_spec
from repro.nn.model import SplitCNN

Weights = Dict[str, np.ndarray]


def train(model: SplitCNN, spec: dict) -> dict:
    """Run the batches of one job description (:meth:`TrainingJob.spec`)
    on ``model``, whose every section is overwritten first: any model of
    the job's architecture and dtype computes the same bytes.  The only
    caller of ``SplitCNN.train_batch`` in ``repro.fl`` and
    ``repro.simulation``."""
    model.unfreeze_features()
    model.unfreeze_classifier()
    weights = spec["weights"]
    if isinstance(weights, np.ndarray):
        model.set_flat_weights(weights)
    else:
        for section in model.SECTIONS:
            model.set_flat_weights(weights[section], section=section)
    if spec["frozen"]:
        model.freeze_features()
    if spec["features_only"]:
        model.freeze_classifier()
    optimizer = copy.deepcopy(spec["optimizer"])
    optimizer.restore_state(spec["optimizer_state"])
    x, y, freeze_at = spec["x"], spec["y"], spec["freeze_at"]
    losses: List[float] = []
    snapshot = None
    for step, idx in enumerate(spec["indices"]):
        if step == freeze_at:
            snapshot = model.get_flat_weights()
            model.freeze_features()
        loss, _ = model.train_batch(x[idx], y[idx], optimizer)
        losses.append(loss)
    if freeze_at == len(spec["indices"]):
        snapshot = model.get_flat_weights()
    state = optimizer.capture_state()
    # Bulky, and the job has it: the round's start weights.
    state.pop("anchor", None)
    return {
        "losses": losses,
        "weights": {section: model.get_flat_weights(section) for section in model.SECTIONS},
        "optimizer": state,
        "snapshot": snapshot,
    }


class TrainingJob:
    """One client's local training of one round, or of one offloaded model.

    ``weights`` and ``optimizer_state`` are the state after the batches run
    so far (``losses``); ``indices`` are the batches drawn since, not run
    yet.  ``weights`` is a :class:`FrozenModelPackage` for an offloaded
    model until the job first runs.
    """

    def __init__(
        self,
        trainer: "LocalTrainer",
        client_id: int,
        x: np.ndarray,
        y: np.ndarray,
        weights,
        optimizer,
        optimizer_state: dict,
        frozen: bool = False,
        features_only: bool = False,
        losses: Iterable[float] = (),
    ) -> None:
        self.trainer = trainer
        #: Whose data the job trains on (the shard plane runs it there).
        self.client_id = client_id
        self.x = x
        self.y = y
        self.weights = weights
        #: Hyper-parameters only: the runner steps a copy.
        self.optimizer = optimizer
        self.optimizer_state = optimizer_state
        #: Features frozen from the first pending batch on.
        self.frozen = frozen
        #: Classifier frozen throughout (a strong client's offloaded model).
        self.features_only = features_only
        self.losses: List[float] = list(losses)
        self.indices: List[np.ndarray] = []
        #: Pending batch before which the features freeze; its state is
        #: :attr:`snapshot` once run.
        self.freeze_at: Optional[int] = None
        self.snapshot: Optional[np.ndarray] = None

    # ------------------------------------------------------- the event loop
    def draw(self, loader) -> Tuple[int, ...]:
        """Draw the next batch from ``loader``; returns the batch's shape."""
        idx = loader.next_indices()
        self.indices.append(idx)
        return (len(idx),) + self.x.shape[1:]

    def freeze_features(self) -> None:
        """Freeze the features from the next batch drawn on; the state at
        that point becomes :attr:`snapshot`."""
        if self.indices:
            self.freeze_at = len(self.indices)
        else:  # nothing drawn since the last run: the state is at hand
            self.snapshot = self.flat_weights()
            self.frozen = True

    # ---------------------------------------------------------- the runner
    def spec(self) -> dict:
        """What :func:`train` needs: plain data, no trainer."""
        weights = self.weights
        if isinstance(weights, FrozenModelPackage):
            weights = weights.snapshot()
        return {
            "weights": weights,
            "optimizer": self.optimizer,
            "optimizer_state": self.optimizer_state,
            "x": self.x,
            "y": self.y,
            "indices": self.indices,
            "frozen": self.frozen,
            "features_only": self.features_only,
            "freeze_at": self.freeze_at,
        }

    def absorb(self, outcome: dict) -> None:
        """Take the result of :func:`train` over the pending batches."""
        state = outcome["optimizer"]
        if "anchor" in self.optimizer_state:
            state["anchor"] = self.optimizer_state["anchor"]
        self.weights, self.optimizer_state = outcome["weights"], state
        self.losses.extend(outcome["losses"])
        if self.freeze_at is not None:
            self.snapshot, self.frozen, self.freeze_at = outcome["snapshot"], True, None
        self.indices = []

    # ------------------------------------------------------------- results
    def flat_weights(self) -> np.ndarray:
        """The state after every batch drawn, as one flat vector."""
        run_jobs([self])
        return np.concatenate([self.weights[section] for section in SplitCNN.SECTIONS])


def run_jobs(jobs: Iterable[Optional[TrainingJob]]) -> None:
    """Run every drawn batch of ``jobs`` in two calls to the trainer: first
    every job that starts from plain weights — those whose frozen state an
    offloaded model starts from included — then the offloaded models."""
    jobs = list(dict.fromkeys(job for job in jobs if job is not None))
    later = [
        job
        for job in jobs
        if isinstance(job.weights, FrozenModelPackage) and job.weights.job is not None
    ]
    first = [job.weights.job for job in later] + [job for job in jobs if job not in later]
    for wave in (first, later):
        pending = [job for job in dict.fromkeys(wave) if job.indices]
        if pending:
            pending[0].trainer.run(pending)


class LocalTrainer:
    """Runs jobs in this process, on one model of the experiment's
    architecture: clients own no model."""

    def __init__(self, model: SplitCNN) -> None:
        self.model = model
        self._layout = weight_spec(model.get_weights())
        self._feature_size = model.num_feature_parameters()

    def run(self, jobs: List[TrainingJob]) -> None:
        for job in jobs:
            job.absorb(train(self.model, job.spec()))

    def sections(self, weights: Weights) -> Dict[str, np.ndarray]:
        """Per-key weights as one vector per section, at the model's dtype."""
        flat = flatten_weights(
            weights, self._layout, out=np.empty(self.model.num_parameters(), self.model.dtype)
        )
        split = self._feature_size
        return {SplitCNN.FEATURE_PREFIX: flat[:split], SplitCNN.CLASSIFIER_PREFIX: flat[split:]}

    def per_key(self, flat: np.ndarray) -> Weights:
        """Per-key views of a flat vector; a feature section alone covers
        the feature keys."""
        return {
            key: flat[offset : offset + size].reshape(shape)
            for key, offset, size, shape in self._layout
            if offset + size <= flat.size
        }
