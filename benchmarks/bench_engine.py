"""Compute-engine microbenchmarks: optimised hot path vs the seed engine.

Times the per-round hot paths, each against the behaviour-preserved seed
implementation in :mod:`repro.nn.reference`:

* **train step** — one ``SplitCNN.train_batch`` (channel-major kernels:
  forward, backward, fused optimiser update) per architecture;
* **eval step** — one inference forward pass over a held-out batch;
* **aggregation** — a 16-client FedAvg/FedNova reduction, seed per-key
  dictionary loops versus the flat-vector kernels the federators now use;
* **round step** — 32 clients stepped one by one on the channel-major
  kernels vs one by one on the layer-by-layer oracle;
* **step breakdown** — per-layer forward/backward ms inside real steps.

Timings use the median over ``repeats`` runs after ``warmup`` discarded
runs.  The pytest benchmark asserts the headline engine claims:

* >= 1.5x on the per-batch train step (float32 fast path vs seed), and
* >= 3x on 16-client FedAvg aggregation (flat vectors vs per-key loops),
* >= 2x on a 32-client round step (mnist-cnn float32),
* identical PhaseTrace FLOP counts across engines and dtypes.

Results are printed as a table and written to ``BENCH_engine.json``::

    python -m pytest benchmarks/bench_engine.py -q        # with the assertions
    python benchmarks/bench_engine.py                     # full settings
    python benchmarks/bench_engine.py --quick --output BENCH_engine_ci.json
"""

from __future__ import annotations

import argparse
import json
import os
import time
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from conftest import run_once

from repro.fl.aggregation import fedavg_aggregate_flat, fednova_aggregate_flat
from repro.nn.architectures import build_model
from repro.nn.batched import _GEMM_PROBE_CACHE
from repro.nn.model import SplitCNN
from repro.nn.optim import SGD
from repro.nn.reference import (
    REFERENCE_ARCHITECTURES,
    ReferenceSGD,
    reference_fedavg_aggregate,
    reference_fednova_aggregate,
)

DEFAULT_ARCHITECTURES = ("mnist-cnn", "cifar10-cnn")
AGGREGATION_CLIENTS = 16
ROUND_STEP_CLIENTS = 32

#: Thread-count environment variables that shape BLAS parallelism; their
#: values (when set) are recorded so BENCH_engine.json numbers can be
#: compared across machines and runs.
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _blas_meta() -> Dict[str, object]:
    """BLAS/threading provenance for the benchmark metadata (numpy-only:
    the container has no threadpoolctl, so this reads numpy's build config
    and the standard thread-count environment variables instead)."""
    meta: Dict[str, object] = {
        "numpy_version": np.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ[var] for var in _THREAD_ENV_VARS if var in os.environ},
    }
    config = getattr(np.__config__, "CONFIG", None)
    if isinstance(config, dict):
        deps = config.get("Build Dependencies", {})
        for lib in ("blas", "lapack"):
            info = deps.get(lib)
            if isinstance(info, dict):
                meta[lib] = {
                    key: info[key]
                    for key in ("name", "version", "openblas configuration")
                    if key in info
                }
    return meta


def _time_ms(fn: Callable[[], object], repeats: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return float(median(samples))


def _time_interleaved_ms(
    fns: Sequence[Callable[[], object]], repeats: int, warmup: int
) -> Tuple[List[float], List[float]]:
    """Interleaved timing: ``(median_ms per fn, median of fns[0] / fn per fn)``.

    Timing the contenders back to back in rotating order exposes all of
    them to the same machine-load drift; each reported ratio is the median
    of the per-repetition ratios, which cancels any drift slower than one
    repetition (a sequential block-per-contender layout instead attributes
    a mid-run phase change entirely to one side).  The order rotates every
    repetition so no contender always runs with another's working set
    freshly evicted from cache.
    """
    for _ in range(warmup):
        for fn in fns:
            fn()
    samples: List[List[float]] = [[] for _ in fns]
    for repetition in range(repeats):
        for offset in range(len(fns)):
            index = (repetition + offset) % len(fns)
            start = time.perf_counter()
            fns[index]()
            samples[index].append((time.perf_counter() - start) * 1000.0)
    ratios = [
        float(median(base / own for base, own in zip(samples[0], column)))
        for column in samples
    ]
    return [float(median(column)) for column in samples], ratios


def _build_at(arch: str, dtype_name: str, rng: np.random.Generator) -> SplitCNN:
    """``build_model(arch, rng)`` with its parameters cast to ``dtype_name``:
    the float64 columns time the engine at the seed engine's width."""
    model = build_model(arch, rng=rng)
    return SplitCNN(model.feature_layers, model.classifier_layers, model.name, dtype=dtype_name)


def _input_batch(arch: str, batch_size: int, dtype) -> tuple:
    from repro.nn.architectures import ARCHITECTURES

    spec = ARCHITECTURES[arch]
    rng = np.random.default_rng(7)
    x = rng.normal(size=(batch_size, *spec.input_shape)).astype(dtype)
    y = rng.integers(0, spec.num_classes, size=batch_size)
    return x, y


def bench_train_step(arch: str, batch_size: int, repeats: int, warmup: int) -> Dict[str, float]:
    """Per-batch ``train_batch`` time: seed engine vs optimised float64/float32."""
    results: Dict[str, float] = {}

    reference = REFERENCE_ARCHITECTURES[arch](np.random.default_rng(0))
    x64, y = _input_batch(arch, batch_size, np.float64)
    ref_opt = ReferenceSGD(lr=0.05, momentum=0.9, model=reference)
    results["reference_ms"] = _time_ms(
        lambda: reference.train_batch(x64, y, ref_opt), repeats, warmup
    )

    for dtype_name in ("float64", "float32"):
        model = _build_at(arch, dtype_name, np.random.default_rng(0))
        x = x64.astype(model.dtype)
        optimizer = SGD(lr=0.05, momentum=0.9)
        results[f"{dtype_name}_ms"] = _time_ms(
            lambda: model.train_batch(x, y, optimizer), repeats, warmup
        )

    results["speedup"] = results["reference_ms"] / results["float32_ms"]
    return results


def bench_eval_step(arch: str, batch_size: int, repeats: int, warmup: int) -> Dict[str, float]:
    """Per-batch inference time: seed engine vs optimised float64/float32."""
    results: Dict[str, float] = {}

    reference = REFERENCE_ARCHITECTURES[arch](np.random.default_rng(0))
    x64, y = _input_batch(arch, batch_size, np.float64)
    results["reference_ms"] = _time_ms(
        lambda: reference.evaluate(x64, y, batch_size=batch_size), repeats, warmup
    )

    for dtype_name in ("float64", "float32"):
        model = _build_at(arch, dtype_name, np.random.default_rng(0))
        x = x64.astype(model.dtype)
        results[f"{dtype_name}_ms"] = _time_ms(
            lambda: model.evaluate(x, y, batch_size=batch_size), repeats, warmup
        )

    results["speedup"] = results["reference_ms"] / results["float32_ms"]
    return results


def bench_aggregation(
    arch: str, num_clients: int, repeats: int, warmup: int
) -> Dict[str, Dict[str, float]]:
    """16-client aggregation: seed per-key dict loops vs flat-vector kernels.

    The flat kernels are fed the clients' flat parameter vectors, exactly
    as the federators receive them in ``TrainingResult.flat_weights``.
    """
    sizes = [10 * (i + 1) for i in range(num_clients)]
    steps = [1 + (i % 5) for i in range(num_clients)]

    dicts64 = [
        _build_at(arch, "float64", np.random.default_rng(i)).get_weights()
        for i in range(num_clients)
    ]
    global64 = _build_at(arch, "float64", np.random.default_rng(99)).get_weights()
    rows32 = [
        build_model(arch, rng=np.random.default_rng(i)).get_flat_weights()
        for i in range(num_clients)
    ]
    global32 = build_model(arch, rng=np.random.default_rng(99)).get_flat_weights()
    rows64 = [np.concatenate([value.ravel() for value in weights.values()]) for weights in dicts64]
    global64_vec = np.concatenate([value.ravel() for value in global64.values()])

    fedavg_updates = list(zip(dicts64, sizes))
    fednova_updates = list(zip(dicts64, sizes, steps))

    fedavg = {
        "reference_ms": _time_ms(
            lambda: reference_fedavg_aggregate(fedavg_updates), repeats, warmup
        ),
        "flat_float64_ms": _time_ms(
            lambda: fedavg_aggregate_flat(rows64, sizes), repeats, warmup
        ),
        "flat_float32_ms": _time_ms(
            lambda: fedavg_aggregate_flat(rows32, sizes), repeats, warmup
        ),
    }
    fedavg["speedup"] = fedavg["reference_ms"] / fedavg["flat_float32_ms"]

    fednova = {
        "reference_ms": _time_ms(
            lambda: reference_fednova_aggregate(global64, fednova_updates), repeats, warmup
        ),
        "flat_float64_ms": _time_ms(
            lambda: fednova_aggregate_flat(global64_vec, rows64, sizes, steps), repeats, warmup
        ),
        "flat_float32_ms": _time_ms(
            lambda: fednova_aggregate_flat(global32, rows32, sizes, steps), repeats, warmup
        ),
    }
    fednova["speedup"] = fednova["reference_ms"] / fednova["flat_float32_ms"]

    return {"fedavg": fedavg, "fednova": fednova}


def bench_round_step(
    arch: str, num_clients: int, batch_size: int, repeats: int, warmup: int
) -> Dict[str, float]:
    """One round's client batches, stepped one by one, two ways.

    * ``layerwise`` — a loop of ``train_batch_layerwise`` calls: the
      sample-major layer loop, the oracle every kernel is pinned against;
    * ``kernels`` — a loop of ``train_batch`` calls: the channel-major
      kernels, which is how the system steps a round's clients.

    Every client starts from distinct weights and trains on distinct data
    (as in a real round after the first local step); both sides do
    identical arithmetic.  ``speedup`` is layerwise over kernels.
    """
    from repro.nn.architectures import ARCHITECTURES

    spec = ARCHITECTURES[arch]
    results: Dict[str, float] = {}
    for dtype_name in ("float64", "float32"):
        oracles = [_build_at(arch, dtype_name, np.random.default_rng(i)) for i in range(num_clients)]
        models = [_build_at(arch, dtype_name, np.random.default_rng(i)) for i in range(num_clients)]
        dtype = models[0].dtype
        rng = np.random.default_rng(7)
        x = rng.normal(size=(num_clients, batch_size, *spec.input_shape)).astype(dtype)
        y = rng.integers(0, spec.num_classes, size=(num_clients, batch_size))
        oracle_optimizers = [SGD(lr=0.05, momentum=0.9) for _ in range(num_clients)]
        optimizers = [SGD(lr=0.05, momentum=0.9) for _ in range(num_clients)]

        def layerwise_round() -> None:
            for model, optimizer, xi, yi in zip(oracles, oracle_optimizers, x, y):
                model.train_batch_layerwise(xi, yi, optimizer)

        def kernels_round() -> None:
            for model, optimizer, xi, yi in zip(models, optimizers, x, y):
                model.train_batch(xi, yi, optimizer)

        (layerwise_ms, kernels_ms), (_, ratio) = _time_interleaved_ms(
            [layerwise_round, kernels_round], repeats, warmup
        )
        results[f"{dtype_name}_layerwise_ms"] = layerwise_ms
        results[f"{dtype_name}_kernels_ms"] = kernels_ms
        results[f"{dtype_name}_speedup"] = ratio
    results["speedup"] = results["float32_speedup"]
    return results


def bench_step_breakdown(arch: str, repeats: int, warmup: int) -> Dict[str, object]:
    """Per kernel layer forward/backward ms inside real consecutive steps.

    Timed in situ, around the layers of the model's own training kernel
    set while ``train_batch`` walks fresh batches under a live optimiser: a
    kernel's cost depends on its data (on constant input the pooling arg-max
    select ran 16x faster than on real activations — branch prediction).
    """
    size = 16  # the paper's batch size: the step a ``bench``-scale run spends its time in
    model = build_model(arch, rng=np.random.default_rng(0))
    x, y = _input_batch(arch, size * (1 + warmup + repeats), model.dtype)
    optimizer = SGD(lr=0.05, momentum=0.9)
    model.train_batch(x[:size], y[:size], optimizer)  # builds the kernel set, runs its probes
    kernels = model._kernel_sets()[0]
    samples: Dict[str, List[float]] = {}

    def timed(key: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            samples.setdefault(key, []).append((time.perf_counter() - start) * 1000.0)
            return out

        return wrapper

    for position, layer in enumerate(kernels.feature_layers + kernels.classifier_layers):
        name = f"{position}:{type(layer).__name__[len('_Batched'):]}"
        layer.forward = timed(f"{name} forward", layer.forward)
        layer.backward = timed(f"{name} backward", layer.backward)
    step = timed("step", model.train_batch)
    for start in range(size, len(x), size):
        step(x[start : start + size], y[start : start + size], optimizer)
    table = {key: float(median(column[warmup:])) for key, column in samples.items()}
    return {"batch_size": size, "step_ms": table.pop("step"), "layers_ms": table}


def run_engine_bench(
    architectures: Sequence[str] = DEFAULT_ARCHITECTURES,
    batch_size: int = 32,
    repeats: int = 20,
    warmup: int = 3,
    num_clients: int = AGGREGATION_CLIENTS,
    round_clients: int = ROUND_STEP_CLIENTS,
    output_path: Optional[str] = "BENCH_engine.json",
) -> Dict[str, object]:
    """Run every engine microbenchmark; optionally write ``BENCH_engine.json``."""
    results: Dict[str, object] = {
        "meta": {
            "batch_size": batch_size,
            "repeats": repeats,
            "warmup": warmup,
            "aggregation_clients": num_clients,
            "round_step_clients": round_clients,
            "unit": "ms (median)",
            "reference": "seed engine (repro.nn.reference): float64, per-key loops",
            "blas": _blas_meta(),
        },
        "train_step": {},
        "eval_step": {},
        "aggregation": {},
        "round_step": {},
        "step_breakdown": {},
    }
    for arch in architectures:
        results["train_step"][arch] = bench_train_step(arch, batch_size, repeats, warmup)
        results["eval_step"][arch] = bench_eval_step(arch, batch_size, repeats, warmup)
    # Aggregation cost scales with parameter count, not architecture detail;
    # benchmark it on the first (paper-default) architecture.
    results["aggregation"][architectures[0]] = bench_aggregation(
        architectures[0], num_clients, max(repeats * 5, 50), warmup * 5
    )
    # Round step: the paper-default architecture at the evaluation round
    # size — the layer-loop oracle against the kernels.
    results["round_step"][architectures[0]] = bench_round_step(
        architectures[0], round_clients, batch_size, repeats, warmup
    )
    results["step_breakdown"][architectures[0]] = bench_step_breakdown(
        architectures[0], max(repeats * 5, 50), warmup * 5
    )
    # Which conv GEMMs this BLAS lets through bitwise, for every shape that
    # ran above: ``geometry ckk oc dtype`` -> (forward, weight-grad, input-grad).
    results["meta"]["gemm_probes"] = {  # type: ignore[index]
        " ".join(map(str, (*key[:-1], np.dtype(key[-1]).name))): list(verdict)
        for key, verdict in _GEMM_PROBE_CACHE.items()
    }
    if output_path:
        with open(output_path, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        results["meta"]["output_path"] = output_path  # type: ignore[index]
    return results


def render_engine_bench(results: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`run_engine_bench` results."""
    lines: List[str] = []
    meta = results["meta"]
    lines.append("engine microbenchmarks (median ms; reference = seed float64 engine)")
    lines.append(
        f"  batch_size={meta['batch_size']}  repeats={meta['repeats']}  "
        f"aggregation_clients={meta['aggregation_clients']}"
    )
    header = f"  {'benchmark':<28} {'reference':>10} {'float64':>10} {'float32':>10} {'speedup':>9}"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for section, title in (("train_step", "train"), ("eval_step", "eval")):
        for arch, row in results[section].items():  # type: ignore[union-attr]
            lines.append(
                f"  {title + ' ' + arch:<28} {row['reference_ms']:>10.2f} "
                f"{row['float64_ms']:>10.2f} {row['float32_ms']:>10.2f} "
                f"{row['speedup']:>8.2f}x"
            )
    for arch, rules in results["aggregation"].items():  # type: ignore[union-attr]
        for rule, row in rules.items():
            lines.append(
                f"  {rule + ' agg ' + arch:<28} {row['reference_ms']:>10.3f} "
                f"{row['flat_float64_ms']:>10.3f} {row['flat_float32_ms']:>10.3f} "
                f"{row['speedup']:>8.2f}x"
            )
    round_step = results.get("round_step") or {}
    if round_step:
        clients = results["meta"].get("round_step_clients", ROUND_STEP_CLIENTS)  # type: ignore[union-attr]
        lines.append(
            f"  {'round step (' + str(clients) + ' clients)':<28} "
            f"{'layerwise':>10} {'kernels':>10} {'speedup':>9}"
        )
        for arch, row in round_step.items():
            for dtype_name in ("float64", "float32"):
                lines.append(
                    f"  {arch + ' ' + dtype_name:<28} "
                    f"{row[f'{dtype_name}_layerwise_ms']:>10.2f} "
                    f"{row[f'{dtype_name}_kernels_ms']:>10.2f} "
                    f"{row[f'{dtype_name}_speedup']:>8.2f}x"
                )
    for arch, table in (results.get("step_breakdown") or {}).items():
        lines.append(f"  step breakdown ({arch} float32 B={table['batch_size']}, in situ)")
        lines.append(f"    {'whole step':<26} {table['step_ms']:>8.3f}")
        lines.extend(f"    {key:<26} {ms:>8.3f}" for key, ms in table["layers_ms"].items())
    return "\n".join(lines)


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


#: ``--quick``: one architecture at the paper's batch size, few repeats.
QUICK_SETTINGS = {"architectures": ("mnist-cnn",), "batch_size": 16, "repeats": 5, "warmup": 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="mnist-cnn only, B=16, 5 repeats")
    parser.add_argument("--output", default="BENCH_engine.json", help="result JSON path")
    args = parser.parse_args()
    results = run_engine_bench(output_path=args.output, **(QUICK_SETTINGS if args.quick else {}))
    print(render_engine_bench(results))
    print(f"\nresults written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
