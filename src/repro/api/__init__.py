"""Public programmatic API of the Aergia reproduction.

This package is the supported seam for building on the reproduction
without touching its internals.  Three pieces:

**Plugin registries** (re-exported from :mod:`repro.registry`)
    Named, decorator-based registries for federated-learning algorithms,
    cluster-dynamics scenarios, workload scale profiles and datasets.
    Everything the CLI and this API accept by name resolves through them::

        from repro.api import register_federator

        @register_federator("my-strategy", description="...")
        class MyFederator(BaseFederator):
            algorithm_name = "my-strategy"

**Fluent experiment specs and streaming runs**
    :func:`experiment` starts an immutable builder; ``run()`` returns a
    :class:`RunHandle` whose :meth:`~repro.api.handles.RunHandle.stream`
    yields :class:`~repro.fl.metrics.RoundRecord` objects as the
    event-driven round engine finalizes them::

        import repro.api as api

        handle = (
            api.experiment("aergia")
            .dataset("fmnist").partition("noniid")
            .scale("smoke").scenario("churn").seed(3)
            .run(store="results/")
        )
        for record in handle.stream():
            print(record.round_number, record.test_accuracy)
        print(handle.summary())

    :func:`sweep` is the batch equivalent (store hits, budget, optional
    process pool), accepting ``{label: config-or-spec}`` mappings.

**The persistent RunStore**
    Runs persist as a typed manifest plus per-round JSONL under a results
    directory; :class:`Results` reopens a directory for querying,
    reloading and re-rendering — entirely from disk::

        results = api.Results.open("results/")
        print(results.render_summary())
        timeline = results.load("fmnist/aergia").accuracy_timeline()

    A second ``run()``/``sweep()`` of an already-stored configuration is
    detected by its config hash and served from disk, not recomputed.

``repro.fl.runtime.run_experiment`` remains as the storeless blocking
call, and the figure functions are thin clients of :func:`sweep`.
"""

from repro.api.handles import RunHandle, SweepHandle, run, sweep
from repro.api.spec import ExperimentSpec, experiment
from repro.api.store import (
    Results,
    RunLockedError,
    RunStore,
    StoredRun,
    default_store,
    run_key,
)
from repro.experiments.scheduler import (
    BudgetTracker,
    CellState,
    IllegalTransition,
    SweepScheduler,
)
from repro.fl.checkpoint import RunCheckpointer, capture_snapshot, load_checkpoint, restore_snapshot
from repro.registry import (
    DATASETS,
    FEDERATORS,
    SCALE_PROFILES,
    SCENARIOS,
    Registry,
    register_dataset,
    register_federator,
    register_scale,
    register_scenario,
    registries,
)

__all__ = [
    # fluent specs + execution
    "experiment",
    "ExperimentSpec",
    "run",
    "sweep",
    "RunHandle",
    "SweepHandle",
    # checkpoint/resume + budget-aware scheduling
    "RunCheckpointer",
    "capture_snapshot",
    "restore_snapshot",
    "load_checkpoint",
    "SweepScheduler",
    "BudgetTracker",
    "CellState",
    "IllegalTransition",
    # persistence
    "RunStore",
    "RunLockedError",
    "StoredRun",
    "Results",
    "default_store",
    "run_key",
    # registries
    "Registry",
    "registries",
    "FEDERATORS",
    "SCENARIOS",
    "SCALE_PROFILES",
    "DATASETS",
    "register_federator",
    "register_scenario",
    "register_scale",
    "register_dataset",
]
