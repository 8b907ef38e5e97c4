"""An experiment decides its evaluation probes before it holds any data.

The first forward-only pass of a process at an evaluation batch size probes
the blocked conv GEMM against an oracle whose operand is the whole batch
unfolded (``nn/batched._probe_blocked_forward``) — the largest transient a
process that evaluates ever has.  ``build_experiment`` runs those passes
over zeros before it loads the dataset (``SplitCNN.prepare_evaluation``),
so the transient no longer stacks on a run's working set.  Pinned here:

* evaluation issues exactly the batch sizes the build decides;
* a run finds every blocked-forward verdict its evaluations need already
  decided, two architectures (a float64 config is refused before any
  probe); a second build runs no pass;
* the first run of a process peaks no higher than the next;
* a fresh probe key asked for by two threads at once is probed once.
"""

from __future__ import annotations

import threading
import time
import tracemalloc

import numpy as np
import pytest

import repro.nn.batched as batched_mod
from repro import api
from repro.fl.runtime import build_experiment
from repro.nn.architectures import build_model
from repro.nn.batched import BatchedModel
from repro.nn.model import EVALUATION_BATCH, SplitCNN, evaluation_batch_sizes

JOIN_TIMEOUT_S = 120.0
MIB = 2**20


@pytest.fixture
def no_verdicts(monkeypatch):
    """A process that has decided nothing: empty probe caches, nothing warmed."""
    for cache in ("_GEMM_PROBE_CACHE", "_BLOCKED_PROBE_CACHE", "_GB_PROBE_CACHE"):
        monkeypatch.setattr(batched_mod, cache, {})
    monkeypatch.setattr(batched_mod, "_WARMED_UP", set())


def _on_a_fresh_thread(fn, *args):
    """``fn(*args)`` on a thread of its own: a workspace nothing else used."""
    box = []
    thread = threading.Thread(target=lambda: box.append(fn(*args)))
    thread.start()
    thread.join(JOIN_TIMEOUT_S)
    assert not thread.is_alive() and box, "the call did not complete"
    return box[0]


def _config(dataset, dtype, algorithm="fedavg", **overrides):
    return (
        api.experiment(algorithm)
        .dataset(dataset)
        .partition("noniid")
        .scale("smoke")
        .scenario("stable")
        .seed(1)
        .dtype(dtype)
        .override(rounds=2, shards=1, **overrides)  # probes and passes of this process
        .build()
    )


# ---------------------------------------------------------------------------
# One definition of the evaluation batch
# ---------------------------------------------------------------------------
def test_evaluate_issues_the_batch_sizes_the_build_decides(monkeypatch):
    model = build_model("mnist-cnn", rng=np.random.default_rng(0))
    seen = []
    forward = SplitCNN.forward

    def spy(self, x, training=False):
        seen.append(len(x))
        return forward(self, x, training)

    monkeypatch.setattr(SplitCNN, "forward", spy)
    assert EVALUATION_BATCH == 256
    for n in (1, 120, 255, 256, 257, 400, 512, 600):
        seen.clear()
        model.evaluate(np.zeros((n, 1, 28, 28), model.dtype), np.zeros(n, dtype=np.int64))
        assert tuple(sorted(set(seen), reverse=True)) == evaluation_batch_sizes(n), n
    assert evaluation_batch_sizes(400) == (256, 144)
    assert evaluation_batch_sizes(120) == (120,)
    assert evaluation_batch_sizes(512) == (256,)


# ---------------------------------------------------------------------------
# The move is correct: a run probes nothing its build has not
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize(
    "dataset, overrides, sizes",
    [("mnist", dict(test_size=400), (256, 144)), ("cifar10", {}, (120,))],
)
def test_a_run_finds_its_evaluation_verdicts_decided_at_build(no_verdicts, dataset, overrides, sizes, dtype):
    # Now pins, for the float64 cases: the config is refused before
    # anything is probed — every run computes in float32.
    if dtype == "float64":
        with pytest.raises(ValueError, match="dtype"):
            _config(dataset, dtype, **overrides)
        assert batched_mod._BLOCKED_PROBE_CACHE == batched_mod._GEMM_PROBE_CACHE == {}
        return
    handle = build_experiment(_config(dataset, dtype, **overrides))
    decided = dict(batched_mod._BLOCKED_PROBE_CACHE)
    # Every conv of the network at every evaluation batch size.
    assert sorted({key[0] for key in decided}) == sorted(sizes)
    evaluation_gemms = {key for key in batched_mod._GEMM_PROBE_CACHE if key[0] in sizes}
    with handle:
        result = handle.run()
    assert len(result.rounds) == 2
    assert batched_mod._BLOCKED_PROBE_CACHE == decided
    # A blocked pass a probe rejects falls back to the unblocked GEMMs,
    # whose forward-only verdicts are decided at build too.
    assert {key for key in batched_mod._GEMM_PROBE_CACHE if key[0] in sizes} == evaluation_gemms


def test_a_second_build_runs_no_inference_pass(no_verdicts, monkeypatch):
    passes = []
    infer = BatchedModel.infer

    def counting(self, x):
        passes.append(x.shape[0])
        return infer(self, x)

    monkeypatch.setattr(BatchedModel, "infer", counting)
    config = _config("mnist", "float32", test_size=400)
    build_experiment(config).close()
    assert passes == [256, 144]
    passes.clear()
    build_experiment(config).close()
    # Another algorithm of the same architecture, test size and dtype too.
    build_experiment(_config("mnist", "float32", algorithm="aergia", test_size=400)).close()
    assert passes == []


# ---------------------------------------------------------------------------
# The first run no longer pays during the run
# ---------------------------------------------------------------------------
def test_the_first_run_of_a_process_peaks_no_higher_than_the_next(no_verdicts):
    """With the probes left to the first evaluation this config traced 58.1
    MiB inside the first run against 22.0 for the second: the oracle
    operand on top of the dataset, the clients and the arena."""
    config = _config("mnist", "float32", test_size=256)

    def two_runs():
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                handle = build_experiment(config)
                tracemalloc.reset_peak()
                handle.run()
                peaks.append(tracemalloc.get_traced_memory()[1])
                handle.close()
                del handle
        finally:
            tracemalloc.stop()
        return peaks

    first, second = _on_a_fresh_thread(two_runs)
    assert abs(first - second) <= 2 * MIB, (first / MIB, second / MIB)


# ---------------------------------------------------------------------------
# A fresh key is probed once, however many threads ask
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "probe, cache, args",
    [
        ("_probe_blocked_forward", "_BLOCKED_PROBE_CACHE", (32, 49, 72, 16, np.float32)),
        ("_probe_fast_gemms", "_GEMM_PROBE_CACHE", ((8, 7, 7, 9), 72, 16, np.float32)),
        ("_probe_gb_reduce", "_GB_PROBE_CACHE", (392, 16, np.float32)),
    ],
)
def test_two_threads_asking_for_one_fresh_key_probe_it_once(no_verdicts, monkeypatch, probe, cache, args):
    """``repro serve`` builds hosted runs on threads of one process."""
    operands = []
    draw = batched_mod._probe_operand

    def counting(*operand_args):
        if threading.get_ident() not in operands:
            # Inside the probe: give the other thread time to get this far.
            time.sleep(0.05)
        operands.append(threading.get_ident())
        return draw(*operand_args)

    monkeypatch.setattr(batched_mod, "_probe_operand", counting)
    ask = getattr(batched_mod, probe)
    alone = _on_a_fresh_thread(ask, *args)
    one_probe = len(operands)
    assert one_probe > 0

    monkeypatch.setattr(batched_mod, cache, {})
    operands.clear()
    start_line = threading.Barrier(2)
    verdicts = [None, None]

    def meet_then_ask(index):
        start_line.wait(timeout=JOIN_TIMEOUT_S)
        verdicts[index] = ask(*args)

    threads = [threading.Thread(target=meet_then_ask, args=(index,)) for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
    assert not any(thread.is_alive() for thread in threads)
    assert len(operands) == one_probe and len(set(operands)) == 1
    assert verdicts == [alone, alone]
