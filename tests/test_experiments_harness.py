"""Tests for the experiment harness: workloads, runner, reports and figure
regeneration functions (run at smoke scale)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.experiments.figures import (
    ablation_freeze_side,
    ablation_offload_point,
    figure4,
    figure9,
)
from repro.experiments.report import format_table, render_summaries, render_table1, table1_comparison
from repro.experiments.workloads import (
    SCALES,
    architecture_for,
    baseline_algorithms,
    evaluation_config,
    heterogeneity_config,
    motivation_deadline_config,
    noniid_degree_configs,
    scale_from_env,
    similarity_factor_config,
)
from repro.fl.config import ExperimentConfig


class TestWorkloads:
    def test_scale_registry(self):
        assert set(SCALES) == {"smoke", "bench", "full", "city", "metro", "continent"}
        assert SCALES["smoke"].rounds < SCALES["bench"].rounds < SCALES["full"].rounds
        # The large-cohort profiles use partial participation: memory is
        # bounded by clients_per_round, not the cohort.
        assert SCALES["city"].num_clients >= 1000
        assert SCALES["metro"].num_clients >= 5000
        assert SCALES["continent"].num_clients >= 100_000
        for name in ("city", "metro", "continent"):
            assert SCALES[name].is_partial_participation

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "bench")
        assert scale_from_env().name == "bench"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            scale_from_env()

    def test_conftest_forces_smoke_scale(self):
        assert scale_from_env().name == "smoke"

    def test_baseline_algorithms_match_paper(self):
        assert baseline_algorithms() == ("fedavg", "fedprox", "fednova", "tifl", "aergia")

    def test_architecture_mapping(self):
        assert architecture_for("mnist") == "mnist-cnn"
        assert architecture_for("cifar10") == "cifar10-cnn"
        with pytest.raises(KeyError):
            architecture_for("svhn")

    def test_evaluation_config_is_valid(self):
        scale = SCALES["smoke"]
        for dataset in ("mnist", "fmnist", "cifar10"):
            for algorithm in baseline_algorithms():
                config = evaluation_config(dataset, algorithm, "noniid", scale)
                assert isinstance(config, ExperimentConfig)
                assert config.dataset == dataset
                assert config.algorithm == algorithm

    def test_cifar_config_is_scaled_down(self):
        scale = SCALES["bench"]
        mnist = evaluation_config("mnist", "fedavg", "iid", scale)
        cifar = evaluation_config("cifar10", "fedavg", "iid", scale)
        assert cifar.num_clients <= mnist.num_clients
        assert cifar.rounds <= mnist.rounds

    def test_motivation_and_sweep_configs(self):
        scale = SCALES["smoke"]
        deadline = motivation_deadline_config(30.0, scale)
        assert deadline.algorithm == "deadline"
        assert deadline.deadline_seconds == 30.0
        hetero = heterogeneity_config(5, 0.2, scale)
        assert hetero.resources.scheme == "variance"
        sim = similarity_factor_config(0.5, scale)
        assert sim.algorithm == "aergia"
        assert sim.aergia_similarity_factor == 0.5
        levels = noniid_degree_configs(scale)
        assert [label for label, _ in levels] == ["IID", "non-IID(10)", "non-IID(5)", "non-IID(2)"]


class TestRunnerAndReport:
    def test_run_configs_collects_all_labels(self, smoke_config):
        suite = api.sweep(
            {
                "fedavg": smoke_config,
                "aergia": smoke_config.with_overrides(algorithm="aergia"),
            },
            workers=1,
        ).suite
        assert set(suite.labels()) == {"fedavg", "aergia"}
        assert suite.total_wall_seconds() > 0
        assert "fedavg" in suite
        summaries = suite.summaries()
        assert summaries["aergia"]["algorithm"] == "aergia"

    def test_run_configs_progress_callback(self, smoke_config):
        seen = []
        api.sweep({"only": smoke_config}, workers=1, progress=lambda label, result: seen.append(label))
        assert seen == ["only"]

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 3.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_table1_contents(self):
        table = table1_comparison()
        assert set(table) == {"FedAvg", "FedProx", "FedNova", "TiFL", "Aergia"}
        assert table["Aergia"]["minimizes_training_time"] == "yes"
        assert table["FedAvg"]["data_heterogeneity"] == "-"
        rendering = render_table1()
        assert "Aergia" in rendering and "TiFL" in rendering

    def test_render_summaries(self, smoke_config):
        suite = api.sweep({"fedavg": smoke_config}, workers=1).suite
        text = render_summaries(suite.summaries(), title="demo")
        assert "fedavg" in text


class TestFigureFunctions:
    """Smoke-level checks that the figure regeneration functions produce the
    expected structure and the paper's qualitative shape.  The quantitative
    regeneration happens in the benchmark harness at bench scale."""

    def test_figure4_bf_dominates_everywhere(self):
        data = figure4(batches=2, batch_size=8, sample_size=32)
        assert set(data["fractions"]) == {
            "cifar10-cnn",
            "cifar10-resnet",
            "cifar100-vgg",
            "cifar100-resnet",
            "fmnist-cnn",
        }
        for workload, fractions in data["fractions"].items():
            assert fractions["bf"] > 40.0, workload
            assert abs(sum(fractions.values()) - 100.0) < 1e-6
        assert "Figure 4" in data["render"]

    def test_figure9_runs_all_factors(self):
        data = figure9(factors=(1.0, 0.0))
        assert set(data["accuracy"]) == {"f=1.0", "f=0.0"}
        assert all(0.0 <= acc <= 1.0 for acc in data["accuracy"].values())
        assert all(t > 0 for t in data["mean_round_duration_s"].values())

    def test_ablation_offload_point_never_worse_than_midpoint(self):
        data = ablation_offload_point(speed_ratios=(2.0, 8.0), remaining=32)
        for ratio, improvement in data["improvements"].items():
            assert improvement >= -1e-9, f"optimal split worse than midpoint at ratio {ratio}"

    def test_ablation_freeze_side_prefers_features(self):
        data = ablation_freeze_side(batches=2, batch_size=8)
        for workload, saving in data["savings"].items():
            assert (
                saving["freeze_features_saving_pct"] > saving["freeze_classifier_saving_pct"]
            ), workload


class TestExamples:
    """The example scripts are part of the public API surface: they must run."""

    def test_quickstart(self):
        from examples.quickstart import main

        summaries = main(rounds=2, num_clients=4, verbose=False)
        assert set(summaries) == {"fedavg", "aergia"}

    def test_noniid_similarity(self):
        from examples.noniid_similarity import main

        targets = main(num_clients=5, verbose=False)
        assert targets["without_similarity_target"] is not None
        assert targets["with_similarity_target"] is not None

    def test_phase_profiling(self):
        from examples.phase_profiling import main

        results = main(batches=1, batch_size=8, verbose=False)
        assert all(result["bf"] > 40.0 for result in results.values())

    def test_offloading_timeline(self):
        from examples.offloading_timeline import main

        timeline = main(verbose=False)
        descriptions = " ".join(entry for _, entry in timeline)
        assert "frozen model transfer" in descriptions
        assert "offloaded features returned" in descriptions
