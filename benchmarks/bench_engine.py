"""Compute-engine microbenchmarks: optimised hot path vs the seed engine.

Times the three per-round hot paths — ``SplitCNN.train_batch``, evaluation
forward passes, and 16-client FedAvg/FedNova aggregation — against the
behaviour-preserved seed implementation (:mod:`repro.nn.reference`), and
asserts the headline engine claims:

* >= 1.5x on the per-batch train step (float32 fast path vs seed), and
* >= 3x on 16-client FedAvg aggregation (flat vectors vs per-key loops),
* >= 2x on a 32-client round step (the clients stepped one by one on the
  channel-major kernels vs one by one on the layer-by-layer oracle,
  mnist-cnn float32),
* identical PhaseTrace FLOP counts across engines and dtypes.

Results are printed as a table and written to ``BENCH_engine.json``.  The
same benchmark is available as ``python -m repro bench --engine``.
"""

from __future__ import annotations

import numpy as np

from conftest import run_once

from repro.experiments.engine_bench import render_engine_bench, run_engine_bench
from repro.nn.architectures import build_model
from repro.nn.model import SplitCNN
from repro.nn.optim import SGD
from repro.nn.reference import REFERENCE_ARCHITECTURES, ReferenceSGD


def test_engine_speedups(benchmark, print_figure):
    results = run_once(benchmark, run_engine_bench, output_path="BENCH_engine.json")
    print_figure(render_engine_bench(results))

    train = results["train_step"]
    for arch, row in train.items():
        assert row["speedup"] >= 1.5, (
            f"train step on {arch}: expected >=1.5x vs seed engine, got {row['speedup']:.2f}x"
        )
    fedavg = results["aggregation"]["mnist-cnn"]["fedavg"]
    assert fedavg["speedup"] >= 3.0, (
        f"16-client FedAvg aggregation: expected >=3x vs seed engine, "
        f"got {fedavg['speedup']:.2f}x"
    )
    round_step = results["round_step"]["mnist-cnn"]
    assert round_step["float32_speedup"] >= 2.0, (
        f"32-client round step on the kernels: expected >=2x vs the layer-by-layer oracle, "
        f"got {round_step['float32_speedup']:.2f}x"
    )


def test_flop_counts_identical_across_engines(print_figure):
    """PhaseTrace FLOPs are shape-derived: engine and dtype must not matter."""
    rng = np.random.default_rng(3)
    x64 = rng.normal(size=(8, 1, 28, 28))
    y = rng.integers(0, 10, size=8)

    reference = REFERENCE_ARCHITECTURES["mnist-cnn"](np.random.default_rng(0))
    _, ref_trace = reference.train_batch(x64, y, ReferenceSGD(lr=0.05, model=reference))

    traces = {"reference(float64)": ref_trace}
    for dtype_name in ("float64", "float32"):
        built = build_model("mnist-cnn", rng=np.random.default_rng(0))
        model = SplitCNN(built.feature_layers, built.classifier_layers, built.name, dtype=dtype_name)
        _, trace = model.train_batch(x64.astype(model.dtype), y, SGD(lr=0.05))
        traces[f"optimised({dtype_name})"] = trace

    lines = ["per-phase FLOPs, one mnist-cnn batch of 8:"]
    for name, trace in traces.items():
        lines.append(
            "  "
            + f"{name:<22} "
            + "  ".join(f"{phase.value}={trace.flops[phase]:.0f}" for phase in trace.flops)
        )
        assert trace.flops == ref_trace.flops
    print_figure("\n".join(lines))
