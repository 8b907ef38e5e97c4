"""One scratch workspace per thread: the kernels' memory contract.

No kernel set owns scratch; every pass carves it from the calling thread's
:class:`repro.nn.batched.Workspace` (two bump arenas, ``train`` and
``infer``).  Pinned here:

* the arena itself — aligned, non-overlapping views, growth only between
  passes, no allocation in the steady state;
* the no-escape invariant — any interleaving of models, batch sizes and
  train / infer passes on one thread is bitwise the same sequence run with
  nothing shared, and threads training concurrently (the ``repro serve``
  shape) equal the serial results;
* the lifetime of ``BatchedModel.infer``'s logits;
* memory — a process holds the scratch of its largest pass, not one set per
  model or per cohort size.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.batched as batched_mod
from repro import api
from repro.fl.runtime import build_experiment
from repro.nn.architectures import build_model
from repro.nn.batched import _ALIGN, _Arena
from repro.nn.dtype import using_dtype
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, ResidualBlock
from repro.nn.model import SplitCNN
from repro.nn.optim import SGD

JOIN_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------------
# The arena
# ---------------------------------------------------------------------------
def _pass(arena, requests):
    arena.reset()
    return [arena.take(shape, dtype) for shape, dtype in requests]


def test_arena_views_are_aligned_disjoint_and_grow_only_between_passes():
    arena = _Arena()
    requests = [((3, 5), np.float32), ((7,), bool), ((2, 0, 4), np.float64), ((11, 3), np.int8)]
    first = _pass(arena, requests)
    assert arena._block is None, "a pass never grows the block it runs on"
    # The pass that outgrew the block sized the next one; from then on the
    # same bytes serve every pass and nothing is allocated.
    second = _pass(arena, requests)
    block = arena._block
    third = _pass(arena, requests)
    assert arena._block is block
    for views in (first, second, third):
        for index, (view, (shape, dtype)) in enumerate(zip(views, requests)):
            assert view.shape == shape and view.dtype == dtype and view.flags["C_CONTIGUOUS"]
            assert view.ctypes.data % _ALIGN == 0
            assert not any(np.shares_memory(view, other) for other in views[index + 1 :])
    assert all(np.shares_memory(view, block) for view in second + third if view.size)
    assert not any(np.shares_memory(view, block) for view in first)
    # A larger pass overflows for its remainder only, then the block grows.
    bigger = requests + [((1000,), np.float64)]
    views = _pass(arena, bigger)
    assert arena._block is block
    assert np.shares_memory(views[0], block) and not np.shares_memory(views[-1], block)
    _pass(arena, bigger)
    assert arena._block is not block and arena._capacity >= 8000


# ---------------------------------------------------------------------------
# The no-escape invariant
# ---------------------------------------------------------------------------
def _tiny_resnet(seed):
    rng = np.random.default_rng(seed)
    with using_dtype("float32"):
        return SplitCNN(
            [Conv2D(2, 4, 3, rng=rng), ReLU(), ResidualBlock(4, 6, rng=rng), MaxPool2D(2), Flatten()],
            [Dense(6 * 3 * 3, 5, rng=rng)],
        )


def _dense_only(seed):
    with using_dtype("float64"):
        return SplitCNN([Flatten(), ReLU()], [Dense(12, 3, rng=np.random.default_rng(seed))])


def _mnist(seed, dtype_name):
    with using_dtype(dtype_name):
        return build_model("mnist-cnn", rng=np.random.default_rng(seed))


#: (factory, input shape, classes): different architectures, seeds and
#: dtypes, so consecutive passes ask the arenas for different layouts.
ZOO = (
    (lambda: _mnist(0, "float32"), (1, 28, 28), 10),
    (lambda: _mnist(1, "float64"), (1, 28, 28), 10),
    (lambda: _tiny_resnet(2), (2, 8, 8), 5),
    (lambda: _dense_only(3), (12,), 3),
)
#: 1 is the lone-sample layout; 13 leaves ``evaluate`` a ragged tail of 5.
SIZES = (1, 5, 8, 13)
KINDS = ("train", "train-frozen", "infer")
OPS = st.lists(
    st.tuples(st.integers(0, len(ZOO) - 1), st.sampled_from(SIZES), st.sampled_from(KINDS)),
    min_size=1,
    max_size=8,
)


def _build_zoo():
    models = [factory() for factory, _, _ in ZOO]
    return models, [SGD(lr=0.05, momentum=0.9) for _ in models]


def _run_op(models, optimizers, position, op):
    index, n, kind = op
    model = models[index]
    _, input_shape, classes = ZOO[index]
    rng = np.random.default_rng(1000 * position + n)
    x = (0.5 * rng.standard_normal((n,) + input_shape)).astype(model.dtype)
    y = rng.integers(0, classes, size=n)
    if kind == "infer":
        return model.evaluate(x, y, batch_size=8), model.forward(x).tobytes()
    if kind == "train-frozen":
        model.freeze_features()
    else:
        model.unfreeze_features()
    loss, _ = model.train_batch(x, y, optimizers[index])
    return loss, model.get_flat_weights().tobytes()


def _on_a_fresh_thread(fn, *args):
    """``fn(*args)`` on a thread of its own: a workspace nothing else used."""
    box = []
    thread = threading.Thread(target=lambda: box.append(fn(*args)))
    thread.start()
    thread.join(JOIN_TIMEOUT_S)
    assert not thread.is_alive() and box, "the pass did not complete"
    return box[0]


@settings(max_examples=25, deadline=None)
@given(ops=OPS)
def test_any_interleaving_on_one_thread_equals_nothing_shared(ops):
    """Scratch is dead when its pass ends, so who runs next cannot matter."""
    shared = _build_zoo()
    together = [_run_op(*shared, position, op) for position, op in enumerate(ops)]
    apart_zoo = _build_zoo()
    apart = [_on_a_fresh_thread(_run_op, *apart_zoo, position, op) for position, op in enumerate(ops)]
    assert together == apart


def test_threads_training_concurrently_equal_the_serial_results():
    """The ``repro serve`` shape: hosted runs train on threads of one process."""
    workers = 3  # more than the host's cores

    def work(index):
        model = _mnist(10 + index, "float32")
        optimizer = SGD(lr=0.05, momentum=0.9)
        out = []
        for step in range(6):
            rng = np.random.default_rng(100 * index + step)
            n = (16, 5, 32)[step % 3]
            x = (0.5 * rng.standard_normal((n, 1, 28, 28))).astype(model.dtype)
            y = rng.integers(0, 10, size=n)
            out.append(model.train_batch(x, y, optimizer)[0])
            out.append(model.evaluate(x, y, batch_size=8))
        return out, model.get_flat_weights().tobytes()

    serial = [work(index) for index in range(workers)]
    results = [None] * workers

    def target(index):
        results[index] = work(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=target, args=(index,)) for index in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


def test_infer_logits_live_until_the_next_inference_pass_on_this_thread():
    model, other = _mnist(0, "float32"), _mnist(1, "float32")
    rng = np.random.default_rng(0)
    x = (0.5 * rng.standard_normal((16, 1, 28, 28))).astype(np.float32)
    y = rng.integers(0, 10, size=16)
    infer = model._kernel_sets()[1]
    infer.infer(x[None])  # sizes the arena: later passes run on its block
    logits = infer.infer(x[None])
    kept = logits.copy()
    # Training — of this model or another — uses the other arena ...
    model.train_batch(x, y, SGD(lr=0.01))
    other.train_batch(x, y, SGD(lr=0.01))
    # ... and another thread's inference another workspace.
    _on_a_fresh_thread(other.forward, x)
    assert np.array_equal(logits, kept)
    # The next inference pass here, of any model, takes the bytes back.
    assert np.shares_memory(logits, other._kernel_sets()[1].infer(x[None]))


# ---------------------------------------------------------------------------
# Memory: the largest pass, not the sum over kernel sets
# ---------------------------------------------------------------------------
def _live_kernel_bytes():
    """Live traced bytes allocated from ``nn/batched.py`` (numpy reports its buffers)."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, batched_mod.__file__)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def _churn_run(rounds):
    spec = (
        api.experiment("fedavg")
        .dataset("mnist")
        .partition("noniid")
        .scale("city")
        .scenario("churn")
        .seed(3)
        .dtype("float32")
        .override(
            num_clients=80,
            clients_per_round=20,
            train_size=640,
            test_size=64,
            rounds=rounds,
            local_updates=2,
            profile_batches=1,
        )
    )
    handle = build_experiment(spec.build())
    handle.run()
    return handle


def test_a_churn_run_holds_its_largest_pass_not_a_set_per_cohort_size(monkeypatch):
    cohort_lanes = []
    build_cohort = batched_mod.build_cohort

    def recording(key, lanes, template):
        cohort_lanes.append(lanes)
        return build_cohort(key, lanes, template)

    monkeypatch.setattr(batched_mod, "build_cohort", recording)

    def measure():
        tracemalloc.start()
        try:
            short = _churn_run(rounds=3)
            assert len(set(cohort_lanes)) >= 3, "the run must see several cohort sizes"
            workspace = batched_mod._WORKSPACE
            largest_pass = workspace.train._capacity + workspace.infer._capacity
            live_short = _live_kernel_bytes()
            long = _churn_run(rounds=5)
            return largest_pass, live_short, _live_kernel_bytes(), (short, long)
        finally:
            tracemalloc.stop()

    # A fresh thread, so the arenas are sized by this run alone.
    largest_pass, live_short, live_long, _ = _on_a_fresh_thread(measure)
    # Both arenas, plus state: pad buffers and pooling offsets of the
    # clients' and the global model's kernel sets.  One kernel set per
    # cohort size stood at 5x the largest pass here, and at 12x after the
    # longer run.
    assert live_short <= 1.5 * largest_pass
    assert live_long <= 1.25 * live_short


def test_eight_models_stepped_in_turn_hold_one_models_scratch():
    rng = np.random.default_rng(0)
    x = (0.5 * rng.standard_normal((32, 1, 28, 28))).astype(np.float32)
    y = rng.integers(0, 10, size=32)

    def live_after_stepping(count):
        models = [_mnist(seed, "float32") for seed in range(count)]
        tracemalloc.start()
        try:
            for _ in range(2):
                for model in models:
                    model.train_batch(x, y, SGD(lr=0.01))
            return _live_kernel_bytes()
        finally:
            tracemalloc.stop()

    one = _on_a_fresh_thread(live_after_stepping, 1)
    eight = _on_a_fresh_thread(live_after_stepping, 8)
    # Each further model adds its state (pad buffers, pooling offsets),
    # well under a tenth of a step's scratch; private scratch made it 8x.
    assert eight < 2 * one
