"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import argparse
import os

import pytest

from repro.cli import FIGURE_NAMES, build_parser, main
from repro.fl.runtime import available_algorithms


@pytest.fixture(autouse=True)
def _no_leaked_store():
    yield
    # --results-dir routes through the environment (so figure sweeps see it);
    # drop it after each test so stores never leak across in-process calls.
    os.environ.pop("REPRO_RESULTS_DIR", None)


class TestParser:
    def test_help_lists_algorithms(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for algorithm in available_algorithms():
            assert algorithm in out

    def test_run_help_lists_algorithms(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "aergia" in out and "tifl" in out

    def test_unknown_algorithm_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--algorithm", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "aergia" in err  # the valid choices are surfaced

    def test_every_figure_name_is_registered(self):
        from repro.cli import _figure_registry

        assert set(_figure_registry()) == set(FIGURE_NAMES)

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--workers", "2", "--scale", "smoke"])
        assert args.command == "sweep"
        assert args.workers == 2
        assert args.scale == "smoke"
        (subcommands,) = [
            action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subcommands.choices) == {"list", "run", "sweep", "figures", "report", "serve"}
        # The benchmarks run as scripts under benchmarks/, not through the CLI.
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["bench"])
        assert excinfo.value.code == 2

    def test_figures_without_names_defaults_to_all(self):
        args = build_parser().parse_args(["figures"])
        assert args.names == ["all"]

    def test_figures_unknown_name_rejected(self, capsys):
        assert main(["figures", "nosuchfig", "--scale", "smoke"]) == 2
        err = capsys.readouterr().err
        assert "nosuchfig" in err and "fig6" in err

    def test_unknown_dataset_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--dataset", "nosuch"])
        assert excinfo.value.code == 2
        assert "mnist" in capsys.readouterr().err


class TestCommands:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "--algorithm", "fedavg", "--dataset", "mnist", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fedavg" in out
        assert "wall-clock" in out

    def test_sweep_with_cache_warm_start(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--scale",
            "smoke",
            "--datasets",
            "mnist",
            "--algorithms",
            "fedavg",
            "fedsgd",
            "--workers",
            "2",
            "--results-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "store hits: 0/2" in cold.out
        assert "cell states: complete=2" in cold.err

        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "store hits: 2/2" in warm.out
        cold, warm = cold.out, warm.out

        # The summary rows themselves are identical cold vs warm.
        rows = lambda text: [line for line in text.splitlines() if line.startswith("mnist/")]
        assert rows(cold) == rows(warm)

    def test_sweep_honors_env_cache_dir(self, tmp_path, monkeypatch, capsys):
        """The one cache a sweep has is the run store, and its environment
        default is ``REPRO_RESULTS_DIR``."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        argv = [
            "sweep",
            "--scale",
            "smoke",
            "--datasets",
            "mnist",
            "--algorithms",
            "fedsgd",
            "--workers",
            "1",
        ]
        assert main(argv) == 0
        assert "store hits: 0/1" in capsys.readouterr().out
        assert main(argv) == 0
        assert "store hits: 1/1" in capsys.readouterr().out

    def test_sweep_with_a_failing_cell_exits_1_and_prints_the_rest(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.experiments.scheduler as scheduler

        run_cell = scheduler._run_cell

        def failing(label, config, store, resume):
            if config.algorithm == "fedsgd":
                raise RuntimeError("scripted failure")
            return run_cell(label, config, store, resume)

        monkeypatch.setattr(scheduler, "_run_cell", failing)
        argv = [
            "sweep",
            "--scale",
            "smoke",
            "--datasets",
            "mnist",
            "--algorithms",
            "fedsgd",
            "fedavg",
            "--workers",
            "1",
            "--results-dir",
            str(tmp_path),
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert any(line.startswith("mnist/fedavg") for line in captured.out.splitlines())
        assert not any(line.startswith("mnist/fedsgd") for line in captured.out.splitlines())
        assert "cell states: complete=1, failed=1" in captured.err
        assert "failed: mnist/fedsgd: scripted failure" in captured.err

        # A cell the budget never let start is unfinished, not failed.
        monkeypatch.setattr(scheduler, "_run_cell", run_cell)
        assert main(argv + ["--max-cells", "0"]) == 0
        assert "budget_exceeded=1, complete=1" in capsys.readouterr().err

    def test_figures_table1(self, capsys):
        assert main(["figures", "table1", "--scale", "smoke", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Aergia" in out

    def test_list_enumerates_every_registry(self, capsys):
        from repro.registry import registries

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for listing, registry in registries().items():
            assert listing in out
            for entry in registry.entries():
                assert entry.name in out
                assert entry.description.splitlines()[0] in out

    def test_run_persists_to_results_dir_and_replays(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        argv = [
            "run",
            "--algorithm",
            "fedsgd",
            "--scale",
            "smoke",
            "--results-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "fedsgd" in cold and "(from store)" not in cold
        manifests = list(tmp_path.glob("*/manifest.json"))
        jsonls = list(tmp_path.glob("*/rounds.jsonl"))
        assert len(manifests) == 1 and len(jsonls) == 1

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "(from store)" in warm

        rows = lambda text: [line for line in text.splitlines() if line.startswith("fedsgd")]
        assert rows(cold) == rows(warm)

    def test_report_renders_from_the_store_alone(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        assert (
            main(
                [
                    "run",
                    "--algorithm",
                    "fedsgd",
                    "--scale",
                    "smoke",
                    "--results-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mnist/fedsgd" in out
        assert "re-rendered from the store" in out

    def test_run_with_cache_dir_still_persists_to_results_dir(
        self, tmp_path, capsys, monkeypatch
    ):
        """``repro run`` has one path — the streaming handle over the run
        store — and none of the sweep-only flags."""
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        argv = ["run", "--algorithm", "fedsgd", "--scale", "smoke", "--results-dir", str(tmp_path)]
        for sweep_only in (["--cache-dir", str(tmp_path / "cache")], ["--workers", "2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + sweep_only)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert main(argv) == 0
        streamed = capsys.readouterr()
        assert "round 1:" in streamed.err  # rounds stream even with a store
        assert len(list(tmp_path.glob("*/manifest.json"))) == 1
        # And the env-routed store does not leak past main().
        assert "REPRO_RESULTS_DIR" not in os.environ
        # A rerun is served from the store.
        assert main(argv) == 0
        assert "(from store)" in capsys.readouterr().out

    def test_report_empty_store_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "no complete runs" in capsys.readouterr().err

    def test_repro_plugins_env_extends_the_cli(self, tmp_path, monkeypatch, capsys):
        """A third-party module named in REPRO_PLUGINS becomes a valid
        --algorithm and shows up in `repro list`."""
        import sys

        (tmp_path / "cli_plugin_under_test.py").write_text(
            "from repro.fl.federator import BaseFederator\n"
            "from repro.registry import register_federator\n"
            "\n"
            "@register_federator('plugin-fed', description='from a plugin')\n"
            "class PluginFederator(BaseFederator):\n"
            "    algorithm_name = 'plugin-fed'\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "cli_plugin_under_test")
        from repro.registry import FEDERATORS

        try:
            assert main(["list"]) == 0
            out = capsys.readouterr().out
            assert "plugin-fed" in out and "from a plugin" in out
            assert main(
                ["run", "--algorithm", "plugin-fed", "--scale", "smoke"]
            ) == 0
            assert "plugin-fed" in capsys.readouterr().out
        finally:
            FEDERATORS.unregister("plugin-fed")
            sys.modules.pop("cli_plugin_under_test", None)
