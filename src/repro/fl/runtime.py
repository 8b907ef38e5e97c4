"""End-to-end experiment assembly and execution.

:func:`build_experiment` turns an :class:`repro.fl.config.ExperimentConfig`
into a ready-to-run system: synthetic dataset, client partitions,
heterogeneous cluster, the :class:`repro.simulation.virtual_pool.VirtualClientPool`
that hydrates a :class:`repro.fl.client.FLClient` per selected node, and the
federator implementing the requested algorithm.  :func:`run_experiment`
runs the simulation to completion and returns the
:class:`repro.fl.metrics.ExperimentResult`.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.data.datasets import load_dataset
from repro.data.partition import PartitionPlan, plan_partition
from repro.fl.client import FLClient
from repro.fl.config import ExperimentConfig, ResourceConfig
from repro.fl.federator import BaseFederator
from repro.fl.metrics import ExperimentResult
from repro.fl.training import LocalTrainer
from repro.nn.architectures import ARCHITECTURES, build_model
from repro.nn.dtype import COMPUTE_DTYPE
from repro.registry import FEDERATORS
from repro.fl.transport import build_transport
from repro.simulation.cluster import SimulatedCluster
from repro.simulation.dynamics import ScenarioDynamics
from repro.simulation.network import FaultProfile, LinkSpec
from repro.simulation.virtual_pool import VirtualClientPool
from repro.simulation.resources import (
    ResourceProfile,
    speeds_with_variance,
    tiered_speed_profiles,
    uniform_speed_profiles,
)


@dataclass
class ExperimentHandle:
    """Everything :func:`build_experiment` creates, for inspection by tests.

    The cohort exists as descriptors in ``pool`` and shards derive on
    demand from ``partition_plan``; ``pool.hydrate(client_id)`` returns any
    client's actor and :meth:`active_clients` whatever is hydrated right now.
    """

    config: ExperimentConfig
    cluster: SimulatedCluster
    federator: BaseFederator
    #: The client pool every cohort member lives in.
    pool: VirtualClientPool
    #: Lazy shard derivation the pool slices client data from.
    partition_plan: PartitionPlan
    #: The scenario driver, when the config's dynamics are active.
    dynamics: Optional["ScenarioDynamics"] = None

    def active_clients(self) -> List[FLClient]:
        """The currently hydrated client actors."""
        return self.pool.hydrated_clients()

    def run(self) -> ExperimentResult:
        """Start the federator and run the simulation to completion.

        Releases the shard workers but does not :meth:`close`: the pool,
        the shard executor's counters and the federator's result stay
        readable on the handle afterwards.
        """
        try:
            self.federator.start()
            self.cluster.run()
            return self.federator.result
        finally:
            if self.cluster.shard_executor is not None:
                self.cluster.shard_executor.close()

    def close(self) -> None:
        """End the experiment: break its ownership cycles at their hubs.

        Cluster, clients, federator, pool and scenario driver point at each
        other; emptying the four hubs leaves the dataset, the models and the
        loaders to plain reference counting, so they are freed when the last
        outside reference goes — no collector pass, nothing carried into the
        next run of the process.  Idempotent; a closed experiment cannot run.
        """
        self.cluster.close()
        self.pool.close()
        self.federator.close()
        if self.dynamics is not None:
            self.dynamics.close()

    def __enter__(self) -> "ExperimentHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _build_profiles(resources: ResourceConfig, num_clients: int, rng: np.random.Generator) -> List[ResourceProfile]:
    """Instantiate client resource profiles from the resource configuration."""
    if resources.scheme == "uniform":
        return uniform_speed_profiles(
            num_clients,
            low=resources.low,
            high=resources.high,
            rng=rng,
            base_flops_per_second=resources.base_flops_per_second,
        )
    if resources.scheme == "variance":
        return speeds_with_variance(
            num_clients,
            mean=resources.mean,
            variance=resources.variance,
            rng=rng,
            base_flops_per_second=resources.base_flops_per_second,
        )
    if resources.scheme == "tiers":
        return tiered_speed_profiles(
            num_clients,
            tiers=resources.tiers,
            rng=rng,
            base_flops_per_second=resources.base_flops_per_second,
        )
    if resources.scheme == "explicit":
        speeds = list(resources.explicit_speeds or [])
        if len(speeds) < num_clients:
            raise ValueError(
                f"explicit_speeds has {len(speeds)} entries but {num_clients} clients are required"
            )
        return [
            ResourceProfile(
                speed_fraction=float(speed),
                base_flops_per_second=resources.base_flops_per_second,
            )
            for speed in speeds[:num_clients]
        ]
    raise ValueError(f"unknown resource scheme {resources.scheme!r}")


def available_algorithms() -> Tuple[str, ...]:
    """All algorithm names :func:`federator_class` accepts, sorted.

    Derived from :data:`repro.registry.FEDERATORS`, so the listing always
    matches the CLI help, ``repro list`` and the error message below.
    """
    return FEDERATORS.names()


def federator_class(algorithm: str) -> Type[BaseFederator]:
    """Resolve an algorithm name to its federator class.

    Resolution goes through the central plugin registry
    (:data:`repro.registry.FEDERATORS`): built-in baselines are declared
    lazily and imported on first use; third-party federators registered via
    :func:`repro.registry.register_federator` resolve the same way.  An
    unknown name raises ``ValueError`` listing every valid algorithm.
    """
    return FEDERATORS.get(algorithm)


def _estimate_client_batch_seconds(
    cluster: SimulatedCluster,
    config: ExperimentConfig,
    sample_x: np.ndarray,
) -> Dict[int, float]:
    """Per-client full-batch durations for TiFL's profiling (analytic: nothing trains)."""
    rng = np.random.default_rng(config.seed)
    model = build_model(config.architecture, rng=rng)
    batch = min(config.batch_size, sample_x.shape[0])
    trace = model.batch_trace((batch, *sample_x.shape[1:]))
    return {
        client_id: cluster.cost_model.batch_seconds(trace, cluster.profile(client_id))
        for client_id in cluster.client_ids
    }


def _cast_dataset(dataset):
    """Cast a dataset's images to the compute dtype once, ahead of training.

    Doing the cast here keeps the per-batch path allocation-free: batch
    loaders slice pre-cast arrays, so ``SplitCNN`` never needs to convert
    inputs.  A no-op (returning the same object) when the dtype matches.
    """
    if dataset.x_train.dtype == COMPUTE_DTYPE and dataset.x_test.dtype == COMPUTE_DTYPE:
        return dataset
    return dataclasses.replace(
        dataset,
        x_train=dataset.x_train.astype(COMPUTE_DTYPE),
        x_test=dataset.x_test.astype(COMPUTE_DTYPE),
    )


def usable_cores() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def blas_threads() -> int:
    """The threads one BLAS call of this process (and of a shard worker,
    which inherits the environment) runs on: the count the environment
    pins, else one per usable core, OpenBLAS's default."""
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return usable_cores()


def resolved_shards(config: ExperimentConfig) -> int:
    """How many worker processes ``config`` trains its clients on.

    ``shards`` when it is set.  Unset, one per usable core — counting a
    core for each thread a BLAS call takes, since every worker runs its
    own BLAS pool (a pool of two threads on two cores is this process's
    already: two workers of two threads each ran a round 3x slower than
    one process) — and at most one per client a round trains.  ``1``
    means this process.
    """
    if config.shards is not None:
        return config.shards
    per_core = usable_cores() // blas_threads()
    return max(1, min(per_core, config.effective_clients_per_round))


def uses_sharded_execution(config: ExperimentConfig) -> bool:
    """Whether this configuration trains its clients on shard workers.

    That takes two or more :func:`resolved_shards` and the synchronous
    round structure: an asynchronous federator reads each update alone, on
    its arrival, so a worker would only add a round trip to every job.
    Results are bitwise identical either way; this gate only decides
    whether worker processes are worth spawning.
    """
    if resolved_shards(config) < 2:
        return False
    federator_cls = federator_class(config.algorithm)
    return bool(getattr(federator_cls, "checkpoint_bootstraps_round", True))


def build_experiment(config: ExperimentConfig) -> ExperimentHandle:
    """Assemble a complete experiment from its configuration.

    Every model built here and the dataset arrays are
    :data:`repro.nn.dtype.COMPUTE_DTYPE`.
    """
    rng = np.random.default_rng(config.seed)

    # The global model draws from a generator of its own, so building it
    # first moves no draw.  Its evaluations' first passes probe an oracle
    # GEMM over the whole batch unfolded (38 MiB for a 256-sample mnist-cnn
    # batch): run them now, while the process holds no dataset, clients or
    # arena, not in the middle of the first round's finalize.
    global_model = build_model(config.architecture, rng=np.random.default_rng(config.seed))
    global_model.prepare_evaluation(config.test_size, ARCHITECTURES[config.architecture].input_shape)

    # The built-in datasets synthesise straight into the compute dtype; the
    # cast is for a registered factory that has no ``dtype`` parameter.
    dataset = _cast_dataset(
        load_dataset(
            config.dataset,
            train_size=config.train_size,
            test_size=config.test_size,
            seed=config.seed,
            dtype=COMPUTE_DTYPE,
        )
    )
    plan = plan_partition(
        dataset,
        config.num_clients,
        scheme=config.partition,
        classes_per_client=config.classes_per_client,
        alpha=config.dirichlet_alpha,
        rng=rng,
    )

    profiles = _build_profiles(config.resources, config.num_clients, rng)
    cluster = SimulatedCluster(
        profiles,
        default_link=LinkSpec(
            latency_s=config.network_latency_s,
            bandwidth_bytes_per_s=config.network_bandwidth_bytes_per_s,
        ),
        seed=config.seed,
    )

    # Unreliable transport: install the fault injector and the reliable
    # channel *before* any node registers a handler.  A null transport
    # without loss bursts installs nothing, keeping the wire bitwise
    # identical to the historical reliable network.
    transport_cfg = config.transport
    if transport_cfg.injects_faults() or config.dynamics.loss_burst_rate_per_s > 0:
        cluster.network.fault_profile = FaultProfile(
            drop_rate=transport_cfg.drop_rate,
            duplicate_rate=transport_cfg.duplicate_rate,
            reorder_rate=transport_cfg.reorder_rate,
            reorder_max_delay_s=transport_cfg.reorder_max_delay_s,
            corrupt_rate=transport_cfg.corrupt_rate,
            kinds=tuple(transport_cfg.fault_kinds),
            seed=config.seed,
        )
    if transport_cfg.reliable:
        cluster.install_transport(
            build_transport(cluster.network, cluster.env, transport_cfg, seed=config.seed)
        )

    # Clients own no model: every job of the run trains on this one, in this
    # process or — on shard workers — on the worker owning the job's client.
    model = build_model(config.architecture, rng=np.random.default_rng(config.seed))
    if uses_sharded_execution(config):
        from repro.simulation.shard import ShardedClientExecutor

        cluster.trainer = cluster.shard_executor = ShardedClientExecutor(
            num_shards=resolved_shards(config),
            num_clients=config.num_clients,
            architecture=config.architecture,
            model=model,
        )
    else:
        cluster.trainer = LocalTrainer(model)

    pool = VirtualClientPool(cluster, config, dataset, plan, slots=config.pool_slots)

    federator_cls = federator_class(config.algorithm)
    extra_kwargs: Dict[str, object] = {}
    if config.algorithm == "aergia":
        from repro.core.enclave import SGXEnclave, seal_distribution

        enclave = SGXEnclave(seed=config.seed)
        report = enclave.attest()
        for client_id in range(config.num_clients):
            # Class counts derive from the plan one client at a time: no
            # shard is materialized for it.
            enclave.submit_distribution(
                seal_distribution(client_id, plan.class_counts_for(client_id), report)
            )
        extra_kwargs["enclave"] = enclave
    elif config.algorithm == "tifl":
        extra_kwargs["client_batch_seconds"] = _estimate_client_batch_seconds(
            cluster, config, dataset.x_train
        )

    federator = federator_cls(
        cluster=cluster,
        config=config,
        global_model=global_model,
        x_test=dataset.x_test,
        y_test=dataset.y_test,
        **extra_kwargs,
    )
    federator.pool = pool

    dynamics: Optional[ScenarioDynamics] = None
    if config.dynamics.is_active():
        dynamics = ScenarioDynamics(
            cluster,
            config.dynamics,
            seed=config.seed,
            stop_when=lambda: federator.finished,
        )
        dynamics.install()

    return ExperimentHandle(
        config=config,
        cluster=cluster,
        federator=federator,
        pool=pool,
        partition_plan=plan,
        dynamics=dynamics,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build and run an experiment, returning its result."""
    with build_experiment(config) as handle:
        return handle.run()
