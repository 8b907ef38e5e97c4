"""The fluent, validated experiment builder behind :func:`repro.api.experiment`.

>>> import repro.api as api
>>> spec = api.experiment("aergia").scenario("churn").scale("smoke").seed(3)
>>> config = spec.build()                      # a plain ExperimentConfig
>>> handle = spec.run(store="results/")        # or run it, streaming rounds
>>> for record in handle.stream():
...     print(record.round_number, record.test_accuracy)

Every fluent method validates its argument against the central registries
(:mod:`repro.registry`) *immediately* — an unknown algorithm, dataset,
scenario or scale raises a ``ValueError`` naming every valid choice at
call time, not deep inside the run.  Specs are immutable: each method
returns a new spec, so partial specs can be shared and forked safely::

    base = api.experiment("fedavg").dataset("fmnist").scale("bench")
    runs = [base.seed(s).run() for s in range(5)]   # base is unchanged
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.fl.config import ExperimentConfig
from repro.registry import DATASETS, FEDERATORS, SCALE_PROFILES, SCENARIOS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.handles import RunHandle

_PARTITIONS = ("iid", "noniid", "dirichlet")


class ExperimentSpec:
    """Immutable fluent builder for one experiment configuration.

    The spec captures the *evaluation-level* description — algorithm,
    dataset, partition, scale profile, scenario, seed — and builds the full
    :class:`~repro.fl.config.ExperimentConfig` through the same
    :func:`repro.experiments.workloads.evaluation_config` path the figures
    and the CLI use, so a spec-built run is bit-for-bit identical to the
    harness's own runs.  Arbitrary config fields are reachable through
    :meth:`override`.
    """

    __slots__ = (
        "_algorithm",
        "_dataset",
        "_partition",
        "_scale",
        "_scenario",
        "_seed",
        "_overrides",
        "_label",
    )

    def __init__(self, algorithm: str = "fedavg") -> None:
        self._algorithm = FEDERATORS.validate(algorithm)
        self._dataset = "mnist"
        self._partition = "iid"
        self._scale: Optional[str] = None  # None -> $REPRO_SCALE (else bench)
        self._scenario = "stable"
        self._seed = 42
        self._overrides: Dict[str, object] = {}
        self._label: Optional[str] = None

    # ------------------------------------------------------------- internals
    def _replace(self, **changes: object) -> "ExperimentSpec":
        clone = object.__new__(ExperimentSpec)
        for slot in ExperimentSpec.__slots__:
            value = changes.get(slot, getattr(self, slot))
            object.__setattr__(clone, slot, value)
        return clone

    def __setattr__(self, name: str, value: object) -> None:
        if hasattr(self, "_label"):  # fully constructed -> frozen
            raise AttributeError(
                "ExperimentSpec is immutable; fluent methods return a new spec"
            )
        object.__setattr__(self, name, value)

    # --------------------------------------------------------------- builder
    def algorithm(self, name: str) -> "ExperimentSpec":
        """Select the federated-learning algorithm (registry-validated)."""
        return self._replace(_algorithm=FEDERATORS.validate(name))

    def dataset(self, name: str) -> "ExperimentSpec":
        """Select the dataset (registry-validated)."""
        return self._replace(_dataset=DATASETS.validate(name))

    def partition(self, scheme: str) -> "ExperimentSpec":
        """Select the client data partition: iid, noniid or dirichlet."""
        if scheme not in _PARTITIONS:
            raise ValueError(
                f"unknown partition {scheme!r}; valid partitions: {', '.join(_PARTITIONS)}"
            )
        return self._replace(_partition=scheme)

    def scale(self, name: str) -> "ExperimentSpec":
        """Select the workload scale profile (registry-validated)."""
        return self._replace(_scale=SCALE_PROFILES.validate(name))

    def scenario(self, name: str) -> "ExperimentSpec":
        """Select the cluster-dynamics scenario (registry-validated)."""
        return self._replace(_scenario=SCENARIOS.validate(name))

    def seed(self, value: int) -> "ExperimentSpec":
        """Set the experiment seed (every random stream derives from it)."""
        return self._replace(_seed=int(value))

    def rounds(self, value: int) -> "ExperimentSpec":
        """Override the communication-round budget of the scale profile."""
        return self.override(rounds=int(value))

    def dtype(self, name: str) -> "ExperimentSpec":
        """Name the compute dtype: ``"float32"``, the one every run computes
        in; any other name fails at :meth:`build`."""
        return self.override(dtype=name)

    def override(self, **fields: object) -> "ExperimentSpec":
        """Override arbitrary :class:`ExperimentConfig` fields by name."""
        merged = dict(self._overrides)
        merged.update(fields)
        return self._replace(_overrides=merged)

    def label(self, text: str) -> "ExperimentSpec":
        """Set the display label used by run handles and the RunStore."""
        return self._replace(_label=str(text))

    # ------------------------------------------------------------ inspection
    @property
    def run_label(self) -> str:
        """The label persisted with the run (defaults to dataset/algorithm)."""
        if self._label is not None:
            return self._label
        return f"{self._dataset}/{self._algorithm}"

    def describe(self) -> Dict[str, object]:
        """The spec's fields as a plain dictionary (reprs, logs, tests)."""
        return {
            "algorithm": self._algorithm,
            "dataset": self._dataset,
            "partition": self._partition,
            "scale": self._scale,
            "scenario": self._scenario,
            "seed": self._seed,
            "overrides": dict(self._overrides),
            "label": self.run_label,
        }

    def __repr__(self) -> str:
        parts = [
            f"experiment({self._algorithm!r})",
            f"dataset({self._dataset!r})",
            f"partition({self._partition!r})",
        ]
        if self._scale is not None:
            parts.append(f"scale({self._scale!r})")
        parts.append(f"scenario({self._scenario!r})")
        parts.append(f"seed({self._seed})")
        if self._overrides:
            kwargs = ", ".join(f"{k}={v!r}" for k, v in sorted(self._overrides.items()))
            parts.append(f"override({kwargs})")
        return ".".join(parts)

    # ------------------------------------------------------------- execution
    def build(self) -> ExperimentConfig:
        """Materialise the full experiment configuration."""
        from repro.experiments.workloads import SCALES, evaluation_config, scale_from_env

        profile = SCALES[self._scale] if self._scale is not None else scale_from_env()
        return evaluation_config(
            self._dataset,
            self._algorithm,
            self._partition,
            profile,
            seed=self._seed,
            scenario=self._scenario,
            **self._overrides,
        )

    def run(
        self,
        store: object = None,
        on_round: object = None,
        resume: bool = False,
    ) -> "RunHandle":
        """Build and start the experiment, returning its streaming handle.

        ``store`` (a :class:`~repro.api.store.RunStore` or path) persists
        the run; if the store already holds a complete run of this exact
        configuration, the handle replays it from disk instead of
        recomputing.  ``on_round`` is called with every
        :class:`~repro.fl.metrics.RoundRecord` as rounds finalize.
        ``resume=True`` continues an interrupted store-backed run from its
        last mid-run checkpoint (enable checkpointing with
        ``.override(checkpoint_interval=K)``).
        """
        from repro.api.handles import RunHandle

        return RunHandle(
            self.build(),
            store=store,
            on_round=on_round,
            label=self.run_label,
            resume=resume,
        )

    def stream(self, store: object = None, on_round: object = None, resume: bool = False):
        """Shorthand for ``.run(...).stream()``."""
        return self.run(store=store, on_round=on_round, resume=resume).stream()


def experiment(algorithm: str = "fedavg") -> ExperimentSpec:
    """Start a fluent experiment spec (the main :mod:`repro.api` entry)."""
    return ExperimentSpec(algorithm)
