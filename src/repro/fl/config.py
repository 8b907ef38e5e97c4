"""Experiment configuration dataclasses.

A single :class:`ExperimentConfig` describes everything needed to run one
federated-learning experiment: the dataset and model, the client
population and its heterogeneity, the training hyper-parameters, and the
algorithm-specific knobs of the baselines and of Aergia.  The experiment
harness (:mod:`repro.experiments`) builds these configs for every figure
and table of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence


@dataclass
class ResourceConfig:
    """How client compute speeds are generated.

    Attributes
    ----------
    scheme:
        ``"uniform"`` (the paper's default: speeds uniform in
        [``low``, ``high``]), ``"variance"`` (controlled mean/variance,
        used by Figure 1(a)), ``"tiers"`` (discrete weak/medium/strong) or
        ``"explicit"`` (speeds given directly).
    """

    scheme: str = "uniform"
    low: float = 0.1
    high: float = 1.0
    mean: float = 0.5
    variance: float = 0.1
    tiers: Sequence[float] = (0.25, 0.5, 1.0)
    explicit_speeds: Optional[Sequence[float]] = None
    base_flops_per_second: float = 2.0e9

    def __post_init__(self) -> None:
        valid = {"uniform", "variance", "tiers", "explicit"}
        if self.scheme not in valid:
            raise ValueError(f"unknown resource scheme {self.scheme!r}; valid: {sorted(valid)}")
        if self.scheme == "explicit" and not self.explicit_speeds:
            raise ValueError("explicit resource scheme requires explicit_speeds")


@dataclass
class DynamicsConfig:
    """Time-varying cluster behaviour driven by the scenario engine.

    All dynamics are *scheduled on the simulation's event queue* by
    :class:`repro.simulation.dynamics.ScenarioDynamics` and every random
    draw comes from a generator seeded by the experiment seed, so a given
    ``(config, seed)`` pair always produces the identical virtual-time
    trace — dynamic runs stay bit-for-bit reproducible across serial and
    parallel execution.

    The default instance is completely inert (:meth:`is_active` is
    ``False``): no events are scheduled and the simulation behaves exactly
    like the static, build-time-frozen cluster of the original code.

    Attributes
    ----------
    scenario:
        Human-readable label of the named scenario this config was built
        from (``"stable"``, ``"churn"``, ...).  Purely descriptive; the
        behaviour is fully determined by the fields below.
    churn:
        Enable per-client availability cycling: each client alternates
        between online windows (mean ``mean_online_s``) and offline windows
        (mean ``mean_offline_s``), both exponentially distributed.  A client
        that goes offline mid-round drops out of the round: its in-flight
        messages fail and the federator is notified.
    min_online_clients:
        Churn never takes a client offline if doing so would leave fewer
        than this many clients online.
    first_event_s:
        Quiet period before the first dynamics event of any kind.
    slowdown_rate_per_s:
        Poisson rate (events per virtual second, cluster-wide) of straggler
        slowdown bursts.  Each burst divides one random online client's
        ``speed_fraction`` by ``slowdown_factor`` for an exponentially
        distributed duration with mean ``mean_slowdown_s``.
    bandwidth_rate_per_s:
        Poisson rate of bandwidth-trace mutations.  Each mutation rescales
        one random client's up/down links to the federator by a factor
        drawn uniformly from [``bandwidth_low_factor``,
        ``bandwidth_high_factor``], reverting after an exponentially
        distributed hold time with mean ``mean_bandwidth_hold_s``.
    client_timeout_s:
        Per-client timeout used by the synchronous round engine: a selected
        client that has not delivered its update this many virtual seconds
        after the round started is dropped from the round.  ``None`` (the
        default) waits forever, which is the classic FedAvg behaviour.
    """

    scenario: str = "stable"

    # Availability / churn
    churn: bool = False
    mean_online_s: float = 30.0
    mean_offline_s: float = 5.0
    min_online_clients: int = 1
    first_event_s: float = 0.0

    # Straggler slowdown bursts
    slowdown_rate_per_s: float = 0.0
    slowdown_factor: float = 4.0
    mean_slowdown_s: float = 2.0

    # Bandwidth traces
    bandwidth_rate_per_s: float = 0.0
    bandwidth_low_factor: float = 0.1
    bandwidth_high_factor: float = 1.0
    mean_bandwidth_hold_s: float = 3.0

    # Loss bursts: a Poisson process picks a random client and raises the
    # drop rate of its links to the federator to ``loss_burst_drop_rate``
    # for an exponentially distributed hold (mean ``mean_loss_burst_s``).
    # Bursts are absolute overrides on the fault profile, so they bite even
    # when the transport's base drop_rate is zero.
    loss_burst_rate_per_s: float = 0.0
    loss_burst_drop_rate: float = 0.5
    mean_loss_burst_s: float = 3.0

    # Federation-layer tolerance
    client_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mean_online_s <= 0 or self.mean_offline_s <= 0:
            raise ValueError("churn online/offline window means must be positive")
        if self.min_online_clients < 0:
            raise ValueError("min_online_clients cannot be negative")
        if self.first_event_s < 0:
            raise ValueError("first_event_s cannot be negative")
        if self.slowdown_rate_per_s < 0:
            raise ValueError("slowdown_rate_per_s cannot be negative")
        if self.slowdown_factor < 1:
            raise ValueError("slowdown_factor must be >= 1")
        if self.mean_slowdown_s <= 0:
            raise ValueError("mean_slowdown_s must be positive")
        if self.bandwidth_rate_per_s < 0:
            raise ValueError("bandwidth_rate_per_s cannot be negative")
        if not 0 < self.bandwidth_low_factor <= self.bandwidth_high_factor:
            raise ValueError(
                "bandwidth factors must satisfy 0 < low <= high "
                f"(got [{self.bandwidth_low_factor}, {self.bandwidth_high_factor}])"
            )
        if self.mean_bandwidth_hold_s <= 0:
            raise ValueError("mean_bandwidth_hold_s must be positive")
        if self.loss_burst_rate_per_s < 0:
            raise ValueError("loss_burst_rate_per_s cannot be negative")
        if not 0 <= self.loss_burst_drop_rate <= 1:
            raise ValueError("loss_burst_drop_rate must be in [0, 1]")
        if self.mean_loss_burst_s <= 0:
            raise ValueError("mean_loss_burst_s must be positive")
        if self.client_timeout_s is not None and self.client_timeout_s <= 0:
            raise ValueError("client_timeout_s must be positive when set")

    def is_active(self) -> bool:
        """Whether any time-varying behaviour is enabled at all."""
        return bool(
            self.churn
            or self.slowdown_rate_per_s > 0
            or self.bandwidth_rate_per_s > 0
            or self.loss_burst_rate_per_s > 0
        )


@dataclass
class TransportConfig:
    """Message-level fault injection and the reliable-delivery middleware.

    The default instance is *null* (:meth:`is_null` is ``True``): no faults
    are injected, no acknowledgements or retransmit timers are scheduled,
    and the simulation is bitwise identical to the historical fail-stop
    network.  Like the inert :class:`DynamicsConfig`, a null transport is
    excluded from ``run_key`` so existing result archives
    keep their keys.

    Attributes
    ----------
    drop_rate, duplicate_rate, corrupt_rate:
        Per-message probabilities that the fault injector silently drops a
        message, delivers it twice, or poisons its payload (a corrupted
        message is discarded by the receiving channel and never reaches the
        application handler — only a retransmission can recover it).
    reorder_rate, reorder_max_delay_s:
        Probability that a message is held back by an extra uniformly drawn
        delay in ``(0, reorder_max_delay_s]``, letting later sends overtake
        it.
    fault_kinds:
        Message kinds subject to fault injection; empty means *all* kinds.
        Transport acknowledgements are never faulted by kind filters but do
        share the link-level drop/duplicate decisions.
    reliable:
        Enable the :class:`repro.fl.transport.ReliableChannel` middleware:
        every data message carries an id, receivers acknowledge delivery,
        senders retransmit on ACK timeout with exponential backoff plus
        seeded jitter, and receivers deduplicate so retransmits and
        duplicates are applied at most once.
    ack_timeout_s:
        Initial ACK timeout before the first retransmission.
    max_attempts:
        Total send attempts (first transmission included) before the
        channel gives up and reports the message as expired.
    backoff_factor, backoff_jitter:
        The timeout of attempt *n* is ``ack_timeout_s * backoff_factor**n``
        stretched by a uniform jitter in ``[1, 1 + backoff_jitter]``.
    quorum_fraction:
        Synchronous rounds may finalize once this fraction of the selected
        clients has reported, when the remaining clients' requests have
        expired.  1.0 keeps the classic all-or-timeout behaviour.
    """

    # Fault injection
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_max_delay_s: float = 0.05
    corrupt_rate: float = 0.0
    fault_kinds: Sequence[str] = ()

    # Reliable delivery
    reliable: bool = False
    ack_timeout_s: float = 1.0
    max_attempts: int = 4
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    quorum_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1] (got {value})")
        if self.drop_rate >= 1.0 and self.reliable:
            raise ValueError("drop_rate must be < 1 with reliable delivery enabled")
        if self.reorder_max_delay_s <= 0:
            raise ValueError("reorder_max_delay_s must be positive")
        if self.ack_timeout_s <= 0:
            raise ValueError("ack_timeout_s must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter cannot be negative")
        if not 0 < self.quorum_fraction <= 1:
            raise ValueError("quorum_fraction must be in (0, 1]")
        if self.corrupt_rate > 0 and not self.reliable:
            raise ValueError(
                "corrupt_rate requires reliable delivery (a corrupted message "
                "is only recoverable through retransmission)"
            )

    def injects_faults(self) -> bool:
        """Whether the injector can ever touch a message."""
        return bool(
            self.drop_rate > 0
            or self.duplicate_rate > 0
            or self.reorder_rate > 0
            or self.corrupt_rate > 0
        )

    def is_null(self) -> bool:
        """Whether the transport layer is completely inert (pass-through)."""
        return not self.injects_faults() and not self.reliable


@dataclass
class ExperimentConfig:
    """Full description of one federated-learning experiment.

    The defaults are scaled-down relative to the paper (smaller synthetic
    datasets, fewer local updates and rounds) so that a pure-numpy
    reproduction completes in seconds; README.md "Scale profiles" lists
    the harness's scales.
    """

    # Workload
    dataset: str = "mnist"
    architecture: str = "mnist-cnn"
    train_size: int = 2400
    test_size: int = 600
    partition: str = "iid"
    classes_per_client: int = 3
    dirichlet_alpha: float = 0.5

    # Federation
    num_clients: int = 8
    clients_per_round: Optional[int] = None  # None -> all clients every round
    rounds: int = 5
    local_updates: int = 16
    profile_batches: int = 4
    batch_size: int = 32

    # Optimisation
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0

    # Algorithm-specific knobs
    algorithm: str = "fedavg"
    fedprox_mu: float = 0.05
    deadline_seconds: Optional[float] = None
    tifl_num_tiers: int = 3
    aergia_similarity_factor: float = 1.0

    # Asynchronous federation (fedasync / fedbuff)
    #: Base mixing weight of FedAsync's staleness-weighted server update.
    fedasync_alpha: float = 0.6
    #: Exponent of the polynomial staleness discount (1 + s)^-power.
    fedasync_staleness_power: float = 0.5
    #: Updates FedBuff buffers per aggregation; None -> half the per-round
    #: client count (at least 1).
    fedbuff_buffer_size: Optional[int] = None
    #: Clients training concurrently under the async federators; None ->
    #: effective_clients_per_round.
    async_concurrency: Optional[int] = None

    # Heterogeneity
    resources: ResourceConfig = field(default_factory=ResourceConfig)
    network_latency_s: float = 0.01
    network_bandwidth_bytes_per_s: float = 125e6

    # Scenario dynamics (churn, dropouts, slowdown bursts, bandwidth traces).
    # The default is inert: the cluster is static for the whole run.
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)

    # Unreliable transport: fault injection + reliable-delivery middleware.
    # The default is null (pass-through), bitwise identical to the
    # historical network, and excluded from config hashing while null.
    transport: TransportConfig = field(default_factory=TransportConfig)

    # Compute engine
    #: Every run computes in float32 (:mod:`repro.nn.dtype`): None and
    #: "float32" name that one run (and share its run key); anything else
    #: — a float64 manifest of an earlier release included — is refused.
    dtype: Optional[str] = None

    # Client materialization
    #: Hydrated-slot budget of the client pool's LRU arena.  The cohort
    #: lives as lightweight descriptors and a client is hydrated only when
    #: a round selects it; None sizes the arena from the per-round
    #: participant count (plus headroom for clients still finishing after
    #: being dropped from a round), capped at the cohort — so a
    #: full-participation run hydrates each client once and never evicts.
    #: Every budget produces bit-for-bit identical results (pinned by
    #: tests), so the field is an execution knob excluded from ``run_key``.
    pool_slots: Optional[int] = None

    # Sharded multi-process simulation
    #: Number of worker processes the clients' training jobs run on.
    #: ``None`` (the default) is what :func:`repro.fl.runtime.split_cores`
    #: leaves the run: the usable cores, a core per BLAS thread, after a
    #: sweep's pooled cells took theirs, capped at the clients a round
    #: trains (``repro serve`` fills in ``1``); ``1`` keeps everything
    #: in-process.  With two or more the client population is partitioned
    #: into that many contiguous ownership ranges and every job (a client's
    #: round, an offloaded model — see :mod:`repro.fl.training`) runs on the
    #: worker owning its client, where its result is first read; the same
    #: runner, only in another process.  Sharded execution is bitwise identical to the single-process path
    #: (pinned by tests), so — like ``pool_slots`` — the field is an
    #: execution knob excluded from ``run_key``.  Sharding requires a
    #: synchronous federator; otherwise it is inert.
    shards: Optional[int] = None

    # Checkpointing
    #: Write a resumable mid-run checkpoint into the run's store directory
    #: every this many completed (virtual) rounds; ``None`` disables
    #: checkpointing.  Purely an execution knob: a checkpointed run and a
    #: straight-through run produce bitwise-identical results, so the field
    #: is excluded from ``run_key`` (like ``pool_slots``).
    checkpoint_interval: Optional[int] = None

    # Reproducibility
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be at least 1")
        if self.clients_per_round is not None and not 1 <= self.clients_per_round <= self.num_clients:
            raise ValueError("clients_per_round must be in [1, num_clients]")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.local_updates < 1:
            raise ValueError("local_updates must be at least 1")
        if not 0 <= self.profile_batches <= self.local_updates:
            raise ValueError("profile_batches must be in [0, local_updates]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.partition not in {"iid", "noniid", "dirichlet"}:
            raise ValueError(f"unknown partition scheme {self.partition!r}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive when set")
        if self.aergia_similarity_factor < 0:
            raise ValueError("aergia_similarity_factor must be non-negative")
        if self.dtype not in (None, "float32"):
            raise ValueError(
                f"dtype={self.dtype!r} is no longer supported: every run computes "
                "in float32 (dtype None or 'float32')"
            )
        if not 0 < self.fedasync_alpha <= 1:
            raise ValueError("fedasync_alpha must be in (0, 1]")
        if self.fedasync_staleness_power < 0:
            raise ValueError("fedasync_staleness_power cannot be negative")
        if self.fedbuff_buffer_size is not None and self.fedbuff_buffer_size < 1:
            raise ValueError("fedbuff_buffer_size must be at least 1 when set")
        if self.async_concurrency is not None and self.async_concurrency < 1:
            raise ValueError("async_concurrency must be at least 1 when set")
        if self.pool_slots is not None and self.pool_slots < 1:
            raise ValueError("pool_slots must be at least 1 when set")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be at least 1 when set")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1 when set")

    @property
    def effective_clients_per_round(self) -> int:
        """Number of clients selected in each round."""
        return self.clients_per_round if self.clients_per_round is not None else self.num_clients

    @property
    def effective_fedbuff_buffer_size(self) -> int:
        """FedBuff's aggregation buffer size (auto: half the round's clients)."""
        if self.fedbuff_buffer_size is not None:
            return self.fedbuff_buffer_size
        return max(1, self.effective_clients_per_round // 2)

    @property
    def effective_async_concurrency(self) -> int:
        """Clients kept training concurrently by the async federators."""
        if self.async_concurrency is not None:
            return self.async_concurrency
        return self.effective_clients_per_round

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> Dict[str, object]:
        """Short summary used by reports and experiment logs."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "architecture": self.architecture,
            "partition": self.partition,
            "num_clients": self.num_clients,
            "clients_per_round": self.effective_clients_per_round,
            "rounds": self.rounds,
            "local_updates": self.local_updates,
            "seed": self.seed,
            "dtype": self.dtype,
            "scenario": self.dynamics.scenario,
        }


# ---------------------------------------------------------------------------
# Round-tripping configs through JSON (RunStore manifests, the serve protocol)
# ---------------------------------------------------------------------------
#: Config keys of earlier releases that :func:`config_from_dict` drops.
#: Only provably result-neutral execution fields belong here, each pinned
#: bitwise-equal before the path it selected was deleted: ``client_pool``
#: chose between eager and pooled client materialization,
#: ``batched_execution`` between stepping a round's clients one by one and
#: as one lockstep cohort.
RETIRED_CONFIG_KEYS = ("client_pool", "batched_execution")


def drop_retired_keys(fields: Dict[str, object]) -> Dict[str, object]:
    """``fields`` without the config keys of earlier releases.

    :data:`RETIRED_CONFIG_KEYS` go whatever their value.  So does
    ``shard_aggregate`` when it is ``"exact"`` — the value of every manifest
    written while the field existed, the flat FedAvg bit for bit.  Its
    ``"partial"`` mode reduced each shard's block first, a different float
    reduction order and so a different experiment: it raises
    ``ValueError`` rather than run as something else.
    """
    kept = {key: value for key, value in fields.items() if key not in RETIRED_CONFIG_KEYS}
    mode = kept.pop("shard_aggregate", "exact")
    if mode != "exact":
        raise ValueError(
            f"shard_aggregate={mode!r} is no longer supported: sharded runs "
            "always reduce exactly like the single-process run"
        )
    return kept


def config_to_dict(config: ExperimentConfig) -> Dict[str, object]:
    """JSON-safe dict round-trippable through :func:`config_from_dict`."""
    import dataclasses

    return dataclasses.asdict(config)


def config_from_dict(payload: Dict[str, object]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from its ``asdict`` form.

    This is how a restarted ``repro serve`` reconstructs in-flight runs
    from their :class:`repro.api.RunStore` manifests (``manifest["config"]``
    is exactly this shape), and how the wire protocol accepts full-config
    submissions.  Retired keys are dropped (:func:`drop_retired_keys`), so
    manifests and submissions written before a result-neutral field was
    retired still load; every other unknown key raises ``TypeError`` like
    the dataclass constructor would, so a manifest from an incompatible
    version fails loudly instead of running a silently different
    experiment.
    """
    payload = drop_retired_keys(payload)
    payload["resources"] = ResourceConfig(**dict(payload.get("resources") or {}))
    payload["dynamics"] = DynamicsConfig(**dict(payload.get("dynamics") or {}))
    payload["transport"] = TransportConfig(**dict(payload.get("transport") or {}))
    return ExperimentConfig(**payload)
