"""Regeneration functions for every figure of the paper's evaluation.

Each ``figure*`` function runs the corresponding workload (at the requested
:class:`repro.experiments.workloads.ScaleProfile`) and returns a dictionary
with the same rows/series the paper plots, plus a ``render()``-able text
table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profiler import profile_model_phases
from repro.core.scheduler import calc_op
from repro.data.datasets import load_dataset
from repro.experiments.report import format_table
from repro.experiments.runner import SuiteResult
from repro.experiments.workloads import (
    ScaleProfile,
    baseline_algorithms,
    evaluation_config,
    heterogeneity_config,
    motivation_deadline_config,
    noniid_degree_configs,
    scale_from_env,
    similarity_factor_config,
)
from repro.fl.metrics import round_duration_density
from repro.nn.architectures import ARCHITECTURES, build_model
from repro.nn.model import Phase


def _sweep(configs) -> SuiteResult:
    """Run a labelled batch through the public API.

    The figure functions are thin clients of :func:`repro.api.sweep`: the
    batch runs in ``REPRO_WORKERS`` processes (in-process when unset; the
    CLI's ``--workers`` travels through it) and — when a results directory
    is configured (``REPRO_RESULTS_DIR`` or the CLI's ``--results-dir``) —
    every run is persisted to, and replayed from, the
    :class:`repro.api.RunStore`, so figures can be re-rendered from the
    store alone.  A figure needs every cell: the first failed one raises.
    """
    from repro.api import sweep

    handle = sweep(configs)
    for error in handle.errors.values():
        raise error
    return handle.suite


# ---------------------------------------------------------------------------
# Figure 1 — motivation
# ---------------------------------------------------------------------------
def figure1a(
    scale: Optional[ScaleProfile] = None,
    client_counts: Sequence[int] = (3, 5, 7),
    variances: Sequence[float] = (0.0, 0.1, 0.3, 0.5),
    seed: int = 42,
) -> Dict[str, object]:
    """Figure 1(a): round-duration multiplier vs. variance of client CPUs.

    For every cluster size the total FedAvg training time is normalised by
    the homogeneous (variance 0) case, reproducing the multiplicative
    impact that the paper reports.
    """
    scale = scale or scale_from_env()
    configs = {
        f"{clients}/{variance}": heterogeneity_config(clients, variance, scale, seed=seed)
        for clients in client_counts
        for variance in variances
    }
    suite = _sweep(configs)
    multipliers: Dict[int, Dict[float, float]] = {}
    for clients in client_counts:
        baseline = suite[f"{clients}/{variances[0]}"].total_time
        multipliers[clients] = {
            variance: suite[f"{clients}/{variance}"].total_time / baseline
            for variance in variances
        }

    rows = [
        [clients] + [multipliers[clients][v] for v in variances] for clients in client_counts
    ]
    rendering = format_table(
        headers=["clients"] + [f"var={v}" for v in variances],
        rows=rows,
        title="Figure 1(a): impact of CPU-variance on training time (multiplier vs homogeneous)",
    )
    return {
        "client_counts": list(client_counts),
        "variances": list(variances),
        "multipliers": multipliers,
        "render": rendering,
    }


def figure1b_1c(
    scale: Optional[ScaleProfile] = None,
    deadlines: Sequence[Optional[float]] = (None, 70.0, 50.0, 30.0, 10.0),
    seed: int = 42,
) -> Dict[str, object]:
    """Figures 1(b) and 1(c): effect of round deadlines on time and accuracy.

    Runs the MNIST non-IID workload with the paper's deadline values
    (``None`` stands for the unbounded ∞ case).  Figure 1(b) reports the
    total training duration; Figure 1(c) the final test accuracy.
    """
    scale = scale or scale_from_env()
    configs = {
        ("inf" if d is None else f"{int(d)}s"): motivation_deadline_config(d, scale, seed=seed)
        for d in deadlines
    }
    suite = _sweep(configs)
    rows = []
    for label, result in suite.results.items():
        rows.append(
            [
                label,
                result.total_time,
                result.final_accuracy,
                float(result.total_dropped()),
            ]
        )
    rendering = format_table(
        headers=["deadline", "total_time_s", "final_accuracy", "clients_dropped"],
        rows=rows,
        title="Figures 1(b)/1(c): training time and accuracy under round deadlines",
    )
    return {
        "deadlines": [label for label in suite.results],
        "total_time_s": {label: r.total_time for label, r in suite.results.items()},
        "final_accuracy": {label: r.final_accuracy for label, r in suite.results.items()},
        "dropped": {label: r.total_dropped() for label, r in suite.results.items()},
        "render": rendering,
    }


# ---------------------------------------------------------------------------
# Figure 4 — phase profiling
# ---------------------------------------------------------------------------
#: The (dataset, architecture) pairs profiled in Figure 4 of the paper.
FIGURE4_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("cifar10", "cifar10-cnn"),
    ("cifar10", "cifar10-resnet"),
    ("cifar100", "cifar100-vgg"),
    ("cifar100", "cifar100-resnet"),
    ("fmnist", "fmnist-cnn"),
)


def figure4(
    batches: int = 3,
    batch_size: int = 16,
    sample_size: int = 64,
    seed: int = 7,
) -> Dict[str, object]:
    """Figure 4: share of a local update spent in each phase (ff, fc, bc, bf).

    Profiles every (dataset, network) pair of the paper under the
    single-client scenario and reports the per-phase percentages.  The key
    property to reproduce is that the backward pass over the feature layers
    (``bf``) dominates (the paper reports 52–75 %).
    """
    rows = []
    fractions: Dict[str, Dict[str, float]] = {}
    for dataset_name, architecture in FIGURE4_WORKLOADS:
        dataset = load_dataset(dataset_name, train_size=sample_size, test_size=16, seed=seed)
        model = build_model(architecture, rng=np.random.default_rng(seed))
        profile = profile_model_phases(
            model,
            dataset.x_train,
            dataset.y_train,
            batches=batches,
            batch_size=min(batch_size, sample_size),
            rng=np.random.default_rng(seed),
        )
        label = f"{dataset_name}-{architecture.split('-')[-1]}"
        phase_fractions = profile.fractions()
        fractions[label] = {phase.value: frac * 100.0 for phase, frac in phase_fractions.items()}
        rows.append(
            [label]
            + [phase_fractions[phase] * 100.0 for phase in Phase.ordered()]
        )
    rendering = format_table(
        headers=["workload", "ff %", "fc %", "bc %", "bf %"],
        rows=rows,
        title="Figure 4: per-phase share of a local update",
        float_format="{:.1f}",
    )
    return {"fractions": fractions, "render": rendering}


# ---------------------------------------------------------------------------
# Figures 6 and 7 — accuracy and training time, IID and non-IID
# ---------------------------------------------------------------------------
def _evaluation_grid(
    partition: str,
    scale: ScaleProfile,
    datasets: Sequence[str],
    algorithms: Sequence[str],
    seed: int,
) -> Dict[str, object]:
    per_dataset: Dict[str, SuiteResult] = {}
    for dataset in datasets:
        configs = {
            algorithm: evaluation_config(dataset, algorithm, partition, scale, seed=seed)
            for algorithm in algorithms
        }
        per_dataset[dataset] = _sweep(configs)

    rows = []
    accuracy: Dict[str, Dict[str, float]] = {}
    time_s: Dict[str, Dict[str, float]] = {}
    for dataset, suite in per_dataset.items():
        accuracy[dataset] = {}
        time_s[dataset] = {}
        for algorithm, result in suite.results.items():
            accuracy[dataset][algorithm] = result.final_accuracy
            time_s[dataset][algorithm] = result.total_time
            rows.append([dataset, algorithm, result.final_accuracy, result.total_time])
    rendering = format_table(
        headers=["dataset", "algorithm", "final_accuracy", "total_time_s"],
        rows=rows,
        title=f"Accuracy and training time ({partition} partition)",
    )
    return {
        "partition": partition,
        "accuracy": accuracy,
        "total_time_s": time_s,
        "suites": per_dataset,
        "render": rendering,
    }


def figure6(
    scale: Optional[ScaleProfile] = None,
    datasets: Sequence[str] = ("mnist", "fmnist", "cifar10"),
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> Dict[str, object]:
    """Figure 6: accuracy and training time after the budgeted rounds, IID data."""
    scale = scale or scale_from_env()
    algorithms = algorithms if algorithms is not None else baseline_algorithms()
    return _evaluation_grid("iid", scale, datasets, algorithms, seed)


def figure7(
    scale: Optional[ScaleProfile] = None,
    datasets: Sequence[str] = ("mnist", "fmnist", "cifar10"),
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> Dict[str, object]:
    """Figure 7: accuracy and training time after the budgeted rounds, non-IID data."""
    scale = scale or scale_from_env()
    algorithms = algorithms if algorithms is not None else baseline_algorithms()
    return _evaluation_grid("noniid", scale, datasets, algorithms, seed)


# ---------------------------------------------------------------------------
# Figure 8 — density of round durations
# ---------------------------------------------------------------------------
def figure8(
    scale: Optional[ScaleProfile] = None,
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 42,
    bins: int = 12,
) -> Dict[str, object]:
    """Figure 8: distribution of per-round durations on FMNIST (non-IID).

    Aergia's distribution should be shifted towards shorter rounds compared
    to every baseline.
    """
    scale = scale or scale_from_env()
    algorithms = algorithms if algorithms is not None else baseline_algorithms()
    configs = {
        algorithm: evaluation_config("fmnist", algorithm, "noniid", scale, seed=seed)
        for algorithm in algorithms
    }
    suite = _sweep(configs)
    densities = round_duration_density(list(suite.results.values()), bins=bins)
    mean_durations = {
        algorithm: result.mean_round_duration() for algorithm, result in suite.results.items()
    }
    rows = [[algorithm, mean_durations[algorithm]] for algorithm in suite.results]
    rendering = format_table(
        headers=["algorithm", "mean_round_duration_s"],
        rows=rows,
        title="Figure 8: round-duration distribution (means shown; densities in payload)",
    )
    return {
        "densities": densities,
        "mean_round_duration_s": mean_durations,
        "round_durations": {a: r.round_durations().tolist() for a, r in suite.results.items()},
        "render": rendering,
    }


# ---------------------------------------------------------------------------
# Figure 9 — similarity factor
# ---------------------------------------------------------------------------
def figure9(
    scale: Optional[ScaleProfile] = None,
    factors: Sequence[float] = (1.0, 0.75, 0.5, 0.25, 0.0),
    seed: int = 42,
) -> Dict[str, object]:
    """Figure 9: impact of the similarity factor f on accuracy and round time.

    A positive factor restricts the offloading choices to data-compatible
    clients (higher accuracy, slightly longer rounds); ``f = 0`` ignores the
    similarity matrix entirely (shortest rounds, lower accuracy).
    """
    scale = scale or scale_from_env()
    configs = {
        f"f={factor}": similarity_factor_config(factor, scale, seed=seed) for factor in factors
    }
    suite = _sweep(configs)
    rows = []
    for label, result in suite.results.items():
        rows.append([label, result.final_accuracy, result.mean_round_duration()])
    rendering = format_table(
        headers=["similarity factor", "final_accuracy", "mean_round_duration_s"],
        rows=rows,
        title="Figure 9: impact of the similarity factor",
    )
    return {
        "factors": list(factors),
        "accuracy": {label: r.final_accuracy for label, r in suite.results.items()},
        "mean_round_duration_s": {
            label: r.mean_round_duration() for label, r in suite.results.items()
        },
        "render": rendering,
    }


# ---------------------------------------------------------------------------
# Figure 10 — degree of non-IIDness
# ---------------------------------------------------------------------------
def figure10(scale: Optional[ScaleProfile] = None, seed: int = 42) -> Dict[str, object]:
    """Figure 10: accuracy over time for IID and non-IID(10/5/2) under Aergia.

    The runs use twice the scale's round budget: the accuracy gap between the
    non-IID levels only becomes visible once the curves have separated.
    """
    scale = scale or scale_from_env()
    labelled = [
        (label, config.with_overrides(rounds=max(config.rounds * 2, 6)))
        for label, config in noniid_degree_configs(scale, seed=seed)
    ]
    suite = _sweep(dict(labelled))
    rows = []
    timelines: Dict[str, List[Tuple[float, float]]] = {}
    for label, result in suite.results.items():
        timelines[label] = result.accuracy_timeline()
        rows.append([label, result.final_accuracy, result.total_time])
    rendering = format_table(
        headers=["non-IID level", "final_accuracy", "total_time_s"],
        rows=rows,
        title="Figure 10: accuracy vs degree of non-IIDness (Aergia)",
    )
    return {
        "levels": [label for label, _ in labelled],
        "accuracy_timeline": timelines,
        "final_accuracy": {label: r.final_accuracy for label, r in suite.results.items()},
        "total_time_s": {label: r.total_time for label, r in suite.results.items()},
        "render": rendering,
    }


# ---------------------------------------------------------------------------
# Headline claims and profiler overhead
# ---------------------------------------------------------------------------
def headline_claims(
    scale: Optional[ScaleProfile] = None,
    dataset: str = "fmnist",
    partition: str = "noniid",
    seed: int = 42,
) -> Dict[str, object]:
    """The headline comparison (§1, §5.2): Aergia vs FedAvg and TiFL.

    The paper reports time reductions of up to 27 % vs FedAvg and 53 % vs
    TiFL at comparable accuracy; the reproduction reports the same derived
    quantities for the scaled workload.
    """
    scale = scale or scale_from_env()
    configs = {
        algorithm: evaluation_config(dataset, algorithm, partition, scale, seed=seed)
        for algorithm in ("fedavg", "tifl", "aergia")
    }
    suite = _sweep(configs)
    aergia = suite["aergia"]
    fedavg = suite["fedavg"]
    tifl = suite["tifl"]
    reduction_vs_fedavg = 1.0 - aergia.total_time / fedavg.total_time
    reduction_vs_tifl = 1.0 - aergia.total_time / tifl.total_time
    accuracy_gap_fedavg = aergia.final_accuracy - fedavg.final_accuracy
    accuracy_gap_tifl = aergia.final_accuracy - tifl.final_accuracy
    rows = [
        ["aergia vs fedavg", reduction_vs_fedavg * 100.0, accuracy_gap_fedavg],
        ["aergia vs tifl", reduction_vs_tifl * 100.0, accuracy_gap_tifl],
    ]
    rendering = format_table(
        headers=["comparison", "time_reduction_%", "accuracy_delta"],
        rows=rows,
        title=f"Headline claims on {dataset} ({partition})",
    )
    return {
        "time_reduction_vs_fedavg": reduction_vs_fedavg,
        "time_reduction_vs_tifl": reduction_vs_tifl,
        "accuracy_delta_vs_fedavg": accuracy_gap_fedavg,
        "accuracy_delta_vs_tifl": accuracy_gap_tifl,
        "total_time_s": {label: r.total_time for label, r in suite.results.items()},
        "final_accuracy": {label: r.final_accuracy for label, r in suite.results.items()},
        "render": rendering,
    }


def profiler_overhead(
    scale: Optional[ScaleProfile] = None, seed: int = 42
) -> Dict[str, object]:
    """§4.2/§5.4: the online profiler's overhead as a fraction of training time.

    Compares Aergia runs with and without the profiling overhead surcharge;
    the measured overhead should stay well below one percent, as in the
    paper (0.22 % ± 0.09 reported).
    """
    scale = scale or scale_from_env()
    config = evaluation_config("fmnist", "aergia", "iid", scale, seed=seed)
    no_profile_config = config.with_overrides(profile_batches=0, algorithm="fedavg")
    suite = _sweep({"with": config, "without": no_profile_config})
    with_profiling = suite["with"]
    without_profiling = suite["without"]

    # The cleanest estimate of the profiler's own overhead is the configured
    # per-batch surcharge times the number of profiled batches, relative to
    # the total training time of the run.
    from repro.core.profiler import OnlineProfiler

    surcharge = OnlineProfiler().overhead_fraction
    profiled_fraction = config.profile_batches / config.local_updates
    overhead_fraction = surcharge * profiled_fraction
    rows = [["profiler overhead (fraction of training time)", overhead_fraction * 100.0]]
    rendering = format_table(
        headers=["quantity", "percent"],
        rows=rows,
        title="Online profiler overhead",
        float_format="{:.4f}",
    )
    return {
        "overhead_fraction": overhead_fraction,
        "aergia_total_time_s": with_profiling.total_time,
        "fedavg_total_time_s": without_profiling.total_time,
        "render": rendering,
    }


# ---------------------------------------------------------------------------
# Ablations of the design choices called out in DESIGN.md
# ---------------------------------------------------------------------------
def ablation_profile_length(
    scale: Optional[ScaleProfile] = None,
    profile_lengths: Sequence[int] = (1, 2, 4),
    seed: int = 42,
) -> Dict[str, object]:
    """How the number of profiling batches affects Aergia's time and accuracy."""
    scale = scale or scale_from_env()
    configs = {}
    for length in profile_lengths:
        config = evaluation_config("fmnist", "aergia", "noniid", scale, seed=seed)
        configs[f"P={length}"] = config.with_overrides(
            profile_batches=min(length, config.local_updates)
        )
    suite = _sweep(configs)
    rows = [
        [label, result.final_accuracy, result.total_time, result.mean_round_duration()]
        for label, result in suite.results.items()
    ]
    rendering = format_table(
        headers=["profiling batches", "final_accuracy", "total_time_s", "mean_round_s"],
        rows=rows,
        title="Ablation: online-profiling length",
    )
    return {
        "profile_lengths": list(profile_lengths),
        "total_time_s": {label: r.total_time for label, r in suite.results.items()},
        "final_accuracy": {label: r.final_accuracy for label, r in suite.results.items()},
        "render": rendering,
    }


def ablation_offload_point(
    speed_ratios: Sequence[float] = (2.0, 4.0, 8.0),
    remaining: int = 64,
) -> Dict[str, object]:
    """Algorithm 2's optimal offloading point vs a fixed midpoint split.

    For several weak/strong speed ratios, compares the estimated pair
    completion time using (i) the optimal ``d`` found by :func:`calc_op`
    and (ii) a naive 50 % split.  The optimal search should never be worse
    and typically improves the completion time substantially when the
    speed gap is large.
    """
    rows = []
    improvements: Dict[float, float] = {}
    for ratio in speed_ratios:
        weak_batch = 1.0
        strong_batch = 1.0 / ratio
        strong_feature = 0.7 / ratio  # bf dominates, so feature-only is ~70 % of a batch
        optimal_ct, optimal_d = calc_op(weak_batch, strong_batch, strong_feature, remaining, remaining)
        midpoint_d = remaining // 2
        midpoint_ct = max(
            (remaining - midpoint_d) * weak_batch + midpoint_d * strong_feature,
            (remaining - midpoint_d) * strong_batch,
        )
        improvement = 1.0 - optimal_ct / midpoint_ct if midpoint_ct > 0 else 0.0
        improvements[ratio] = improvement
        rows.append([f"{ratio:.0f}x", optimal_d, optimal_ct, midpoint_ct, improvement * 100.0])
    rendering = format_table(
        headers=["speed ratio", "optimal d", "optimal ct", "midpoint ct", "improvement %"],
        rows=rows,
        title="Ablation: Algorithm 2 offloading point vs fixed midpoint",
    )
    return {"improvements": improvements, "render": rendering}


def ablation_freeze_side(batches: int = 3, batch_size: int = 16) -> Dict[str, object]:
    """Freezing feature layers (the paper) vs freezing the classifier instead.

    Uses the Figure 4 phase profiles to compute the per-batch time saved by
    each choice on a straggler.  Freezing the feature layers skips the
    dominant ``bf`` phase and should save several times more work than
    freezing the classifier (which only skips ``bc``).
    """
    profile = figure4(batches=batches, batch_size=batch_size)
    rows = []
    savings: Dict[str, Dict[str, float]] = {}
    for workload, fractions in profile["fractions"].items():
        feature_saving = fractions["bf"]
        classifier_saving = fractions["bc"]
        savings[workload] = {
            "freeze_features_saving_pct": feature_saving,
            "freeze_classifier_saving_pct": classifier_saving,
        }
        rows.append([workload, feature_saving, classifier_saving])
    rendering = format_table(
        headers=["workload", "freeze features saves %", "freeze classifier saves %"],
        rows=rows,
        title="Ablation: which side of the model to freeze",
        float_format="{:.1f}",
    )
    return {"savings": savings, "render": rendering}
