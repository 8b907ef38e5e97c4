"""End-to-end tests of the public :mod:`repro.api` layer.

The acceptance-critical test here drives
``repro.api.experiment(...).run()`` streaming per-round records and checks
that the final summary is bit-for-bit identical to the golden-baseline
path (:func:`repro.fl.runtime.run_experiment` under the ``stable``
scenario, which `tests/test_golden_baselines.py` pins to the pre-refactor
values), persisted and reloaded through the RunStore.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.metrics import RoundRecord
from repro.fl.runtime import run_experiment


class TestFluentSpec:
    def test_spec_builds_the_same_config_as_the_harness(self):
        spec = (
            api.experiment("aergia")
            .dataset("fmnist")
            .partition("noniid")
            .scale("smoke")
            .scenario("churn")
            .seed(3)
        )
        config = spec.build()
        assert config == evaluation_config(
            "fmnist", "aergia", "noniid", SCALES["smoke"], seed=3, scenario="churn"
        )

    def test_specs_are_immutable_and_forkable(self):
        base = api.experiment("fedavg").dataset("fmnist").scale("smoke")
        forked = base.seed(7).scenario("churn")
        assert base.describe()["seed"] == 42
        assert base.describe()["scenario"] == "stable"
        assert forked.describe()["seed"] == 7
        assert forked.describe()["scenario"] == "churn"
        with pytest.raises(AttributeError, match="immutable"):
            base._seed = 1

    def test_invalid_names_fail_fast_with_full_listings(self):
        with pytest.raises(ValueError, match="valid algorithms: .*fedavg"):
            api.experiment("bogus")
        spec = api.experiment("fedavg")
        with pytest.raises(ValueError, match="valid datasets: .*mnist"):
            spec.dataset("bogus")
        with pytest.raises(ValueError, match="valid scenarios: .*churn"):
            spec.scenario("bogus")
        with pytest.raises(ValueError, match="valid scales: .*smoke"):
            spec.scale("bogus")
        with pytest.raises(ValueError, match="valid partitions"):
            spec.partition("bogus")

    def test_scale_defaults_to_the_environment(self):
        # conftest forces REPRO_SCALE=smoke for the whole suite.
        config = api.experiment("fedsgd").build()
        assert config.num_clients == SCALES["smoke"].num_clients

    # Now pins: ``.dtype("float32")`` reaches the config and
    # ``.dtype("float64")`` is refused at build — every run computes in
    # float32.
    def test_overrides_reach_the_config(self):
        spec = api.experiment("fedprox").scale("smoke").rounds(3).override(fedprox_mu=0.2)
        config = spec.dtype("float32").build()
        assert config.rounds == 3
        assert config.dtype == "float32"
        assert config.fedprox_mu == 0.2
        with pytest.raises(ValueError, match="dtype"):
            spec.dtype("float64").build()

    def test_repr_reads_as_the_fluent_chain(self):
        spec = api.experiment("tifl").scale("smoke").seed(9)
        assert "experiment('tifl')" in repr(spec)
        assert "seed(9)" in repr(spec)


class TestStreamingRun:
    def test_streaming_summary_is_bitwise_identical_to_golden_path(self, tmp_path):
        """The acceptance criterion, end to end."""
        config = evaluation_config(
            "mnist",
            "fedavg",
            "noniid",
            SCALES["smoke"],
            seed=42,
            scenario="stable",
            dtype="float32",
        )
        spec = (
            api.experiment("fedavg")
            .dataset("mnist")
            .partition("noniid")
            .scale("smoke")
            .scenario("stable")
            .seed(42)
            .dtype("float32")
        )
        assert spec.build() == config

        streamed = []
        handle = spec.run(store=tmp_path, on_round=streamed.append)
        records = list(handle.stream())

        # Rounds streamed as they finalized, in order.
        assert [r.round_number for r in records] == [1, 2]
        assert records == streamed
        assert all(isinstance(r, RoundRecord) for r in records)

        golden = run_experiment(config).summary()
        assert handle.summary() == golden  # bit-for-bit, no approx

        # Persisted and reloaded through the RunStore: still bit-for-bit.
        stored = api.RunStore(tmp_path).get(config)
        assert stored is not None
        assert stored.load_result().summary() == golden
        replay = api.run(config, store=tmp_path)
        assert replay.loaded_from_store
        assert replay.summary() == golden

    def test_stream_yields_rounds_before_completion(self):
        """The first record is available while later rounds are unplayed."""
        handle = api.experiment("fedsgd").scale("smoke").run()
        iterator = handle.stream()
        first = next(iterator)
        assert first.round_number == 1
        assert not handle.done  # round 2 has not been simulated yet
        rest = list(iterator)
        assert handle.done
        assert [r.round_number for r in rest] == [2]

    def test_async_federator_streams_virtual_rounds(self):
        handle = api.experiment("fedbuff").scale("smoke").scenario("churn").run()
        records = list(handle.stream())
        assert len(records) == handle.result().num_rounds
        assert records[0].round_number == 1

    def test_result_drains_the_stream(self):
        handle = api.experiment("fedsgd").scale("smoke").run()
        result = handle.result()
        assert result.num_rounds == 2
        assert handle.summary() == result.summary()

    def test_run_accepts_a_plain_config(self):
        config = evaluation_config(
            "mnist", "fedsgd", "iid", SCALES["smoke"], seed=4, dtype="float32"
        )
        assert api.run(config).summary() == run_experiment(config).summary()


class TestSweep:
    def test_sweep_matches_serial_execution(self):
        configs = {
            algorithm: evaluation_config(
                "mnist", algorithm, "noniid", SCALES["smoke"], seed=6, dtype="float32"
            )
            for algorithm in ("fedavg", "fedsgd")
        }
        handle = api.sweep(configs)
        for label, config in configs.items():
            assert handle[label].summary() == run_experiment(config).summary()
        assert list(handle.labels()) == list(configs)

    def test_sweep_accepts_specs(self, tmp_path):
        specs = [
            api.experiment("fedsgd").scale("smoke").seed(s).label(f"seed{s}")
            for s in (1, 2)
        ]
        handle = api.sweep(specs, store=tmp_path)
        assert sorted(handle.labels()) == ["seed1", "seed2"]
        assert len(api.RunStore(tmp_path).runs()) == 2

    def test_duplicate_labels_rejected(self):
        specs = [api.experiment("fedsgd").scale("smoke") for _ in range(2)]
        with pytest.raises(ValueError, match="duplicate sweep label"):
            api.sweep(specs)
