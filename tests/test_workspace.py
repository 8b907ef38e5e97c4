"""One scratch workspace per thread: the kernels' memory contract.

No kernel set owns scratch; every pass — training step, inference pass,
GEMM probe — carves it from the calling thread's
:class:`repro.nn.batched.Workspace`: one bump arena with a mark/release
pair.  Pinned here:

* the arena itself — aligned, non-overlapping views, growth only between
  passes and by a pass's high-water mark, no allocation in the steady
  state, released bytes handed out again;
* the no-escape invariant — any interleaving of models, batch sizes and
  train / infer passes on one thread is bitwise the same sequence run with
  nothing shared, and threads training concurrently (the ``repro serve``
  shape) equal the serial results.  One arena serves both kinds of pass,
  so these two tests are the proof that sharing it is safe;
* the lifetime of ``BatchedModel.infer``'s logits: until this thread's next
  pass of any kind;
* memory — a thread holds the scratch of its largest pass, not one set per
  model or per kind of pass, and its largest pass is one client's training
  step: a round's clients step one by one, a forward-only pass holds its
  widest layer, not all of them, and no more than one block of samples
  unfolded; a probe costs no more than the unblocked pass it decides; and
  between passes a kernel set holds no array but its model's weight and
  gradient views (pad buffers are pass scratch, pooling offsets one shared
  cache), so more models add no kernel memory;
* the probes' verdicts — the rank-one im2col operand lets no orientation
  through that the iid operand it replaced rejects.
"""

from __future__ import annotations

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.batched as batched_mod
from repro import api
from repro.fl.runtime import build_experiment
from repro.nn.architectures import ARCHITECTURES, build_model
from repro.nn.batched import _ALIGN, _Arena
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


def test_arena_release_hands_bytes_back_and_the_high_water_mark_sizes_the_block():
    arena = _Arena()

    def kib(count):
        return (count * 1024,), np.uint8

    def stacked_pass():
        arena.reset()
        kept = arena.take(*kib(4))
        mark = arena.mark()
        wide = arena.take(*kib(64))
        arena.release(mark)
        return kept, wide, arena.take(*kib(8)), arena.take(*kib(8))

    stacked_pass()  # outgrows the empty arena, and so sizes it
    kept, wide, after, last = stacked_pass()
    block = arena._block
    # The high-water mark, not the final offset (20 KiB) or the sum (84).
    assert arena._capacity == 68 * 1024
    assert all(np.shares_memory(view, block) for view in (kept, wide, after, last))
    # Released bytes are the next ones handed out; a release never reaches
    # below its mark, so the earlier view stays whole.
    assert after.ctypes.data == wide.ctypes.data and np.shares_memory(last, wide)
    assert not np.shares_memory(kept, wide) and not np.shares_memory(after, last)
    assert stacked_pass()[0].ctypes.data == kept.ctypes.data and arena._block is block

    # A pass that outgrows the block: what does not fit is private even
    # when it is taken where released bytes were, and it counts.
    arena.reset()
    mark = arena.mark()
    big = arena.take(*kib(100))
    arena.release(mark)
    again = arena.take(*kib(100))
    fits = arena.take(*kib(1))
    assert arena._block is block
    assert not np.shares_memory(big, block) and not np.shares_memory(again, block)
    assert not np.shares_memory(big, again) and not np.shares_memory(fits, again)
    arena.reset()
    assert arena._capacity == 101 * 1024

    # An uncounted release (a probe's): the bytes come back, the block does
    # not grow for them.
    mark = arena.mark()
    probe = arena.take(*kib(500))
    arena.release(mark, counted=False)
    assert not np.shares_memory(probe, arena._block)
    assert arena.take(*kib(1)).ctypes.data == arena._block.ctypes.data + arena._origin
    arena.reset()
    assert arena._capacity == 101 * 1024


# ---------------------------------------------------------------------------
# The no-escape invariant
# ---------------------------------------------------------------------------
def _tiny_resnet(seed):
    rng = np.random.default_rng(seed)
    return SplitCNN(
        [Conv2D(2, 4, 3, rng=rng), ReLU(), ResidualBlock(4, 6, rng=rng), MaxPool2D(2), Flatten()],
        [Dense(6 * 3 * 3, 5, rng=rng)],
    )


def _dense_only(seed):
    return SplitCNN(
        [Flatten(), ReLU()], [Dense(12, 3, rng=np.random.default_rng(seed), dtype=np.float64)]
    )


def _mnist(seed, dtype_name):
    model = build_model("mnist-cnn", rng=np.random.default_rng(seed))
    return SplitCNN(model.feature_layers, model.classifier_layers, model.name, dtype=dtype_name)


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

    def work(index, model):
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

    serial = [work(index, _mnist(10 + index, "float32")) for index in range(workers)]
    # Models are built before the threads start.
    models = [_mnist(10 + index, "float32") for index in range(workers)]
    results = [None] * workers

    def target(index):
        results[index] = work(index, models[index])

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


# Now pins the same through ``infer(x)`` on the batch as ``SplitCNN`` has it.
def test_infer_logits_live_until_the_next_inference_pass_on_this_thread():
    """One arena: the logits live until this thread's next pass *of any kind*.

    (The id predates that: with an arena per kind of pass, training steps
    in between left the logits alone.  No caller relied on it —
    ``SplitCNN.forward`` copies them out.)"""
    model, other = _mnist(0, "float32"), _mnist(1, "float32")
    rng = np.random.default_rng(0)
    x = (0.5 * rng.standard_normal((16, 1, 28, 28))).astype(np.float32)
    y = rng.integers(0, 10, size=16)
    (kernels,) = model._kernel_sets()
    model.train_batch(x, y, SGD(lr=0.01))  # sizes the arena: later passes run on its block
    logits = kernels.infer(x)
    assert np.shares_memory(logits, batched_mod._WORKSPACE.arena._block)
    kept = logits.copy()
    # Another thread's passes, of either kind, use another workspace.
    _on_a_fresh_thread(other.forward, x)
    _on_a_fresh_thread(other.train_batch, x, y, SGD(lr=0.01))
    assert np.array_equal(logits, kept)
    # This thread's next pass takes the bytes back: a training step ...
    other.train_batch(x, y, SGD(lr=0.01))
    assert not np.array_equal(logits, kept)
    # ... or an inference pass, of any model.
    assert np.shares_memory(logits, other._kernel_sets()[0].infer(x))


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
            shards=1,  # the scratch measured is this thread's
        )
    )
    handle = build_experiment(spec.build())
    handle.run()
    return handle


def _train_step_demand(batch=16):
    """What one training step of mnist-cnn asks of a fresh thread's arena."""

    def step():
        rng = np.random.default_rng(0)
        x = (0.5 * rng.standard_normal((batch, 1, 28, 28))).astype(np.float32)
        _mnist(0, "float32").train_batch(x, rng.integers(0, 10, size=batch), SGD(lr=0.01))
        return _high_water()

    return _on_a_fresh_thread(step)


def _live_kernel_arrays():
    """Live traced bytes of the numpy buffers ``nn/batched.py`` allocated."""
    numpy_only = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, batched_mod.__file__)]
    )
    return sum(trace.size for trace in snapshot.filter_traces([numpy_only]).traces)


def _shape_cache_bytes():
    """Bytes of the process-wide pooling offsets, the only kernel arrays
    that are neither scratch nor a model's weights."""
    return sum(offsets.nbytes for offsets in batched_mod._WINDOW_OFFSETS.values())


# Now pins: the scratch of a churn run is one client's pass, and nothing
# else of ``nn/batched.py`` is an array but the shape caches.  (Until the
# lockstep cohort was deleted a wave of the round's 20 clients sized the
# arena — 26.1 MiB here, 6.3 without — before that a kernel set per cohort
# size, which is what the id remembers, and later every hydrated client's
# kernel sets held their own pad buffers and pooling offsets.)
def test_a_churn_run_holds_its_largest_pass_not_a_set_per_cohort_size(monkeypatch):
    monkeypatch.setattr(batched_mod, "_WINDOW_OFFSETS", {})  # filled, and traced, by these runs

    def measure():
        tracemalloc.start()
        try:
            short = _churn_run(rounds=3)
            largest_pass = batched_mod._WORKSPACE.arena._capacity
            live_short = _live_kernel_arrays(), _shape_cache_bytes()
            long = _churn_run(rounds=5)
            block = batched_mod._WORKSPACE.arena._block.nbytes
            live_long = _live_kernel_arrays(), block + _shape_cache_bytes()
            return largest_pass, live_short, live_long, (short, long)
        finally:
            tracemalloc.stop()

    # A fresh thread, so the arena is sized by this run alone.
    largest_pass, (live_short, shared), (live_long, accounted), _ = _on_a_fresh_thread(measure)
    # Eight-sample steps and a blocked 64-sample evaluation, pad buffers
    # included: under one B=16 step (measured 6.5 MiB against 10.3).
    assert largest_pass <= _train_step_demand()
    # With two runs' hydrated clients alive, what the kernels hold is the
    # thread's one block and the pooling offsets every model shares
    # (measured 7.1 + 0.2 MiB): no pad buffer, no offsets, no array at all
    # per client.
    assert live_short == largest_pass + _ALIGN + shared
    assert live_long == accounted


def test_eight_models_stepped_in_turn_hold_one_models_scratch(monkeypatch):
    rng = np.random.default_rng(0)
    x = (0.5 * rng.standard_normal((32, 1, 28, 28))).astype(np.float32)
    y = rng.integers(0, 10, size=32)

    def live_after_stepping(count):
        models = [_mnist(seed, "float32") for seed in range(count)]
        monkeypatch.setattr(batched_mod, "_WINDOW_OFFSETS", {})  # each count traces its own
        tracemalloc.start()
        try:
            for _ in range(2):
                for model in models:
                    model.train_batch(x, y, SGD(lr=0.01))
                    model.evaluate(x, y, batch_size=24)
            block = batched_mod._WORKSPACE.arena._block.nbytes
            return _live_kernel_arrays(), block + _shape_cache_bytes()
        finally:
            tracemalloc.stop()

    one, accounted = _on_a_fresh_thread(live_after_stepping, 1)
    eight, _ = _on_a_fresh_thread(live_after_stepping, 8)
    # Seven more models add no array at all: the arena of the thread's
    # largest pass and the shared shape caches are all there is.  (Private
    # scratch made this 8x; pad buffers and pooling offsets per model, 1.34x.)
    assert one == accounted
    assert eight == one


def _arrays_held(obj, seen):
    """Every ndarray reachable from a kernel object's attributes."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [array for item in obj for array in _arrays_held(item, seen)]
    if type(obj).__module__ == batched_mod.__name__ and id(obj) not in seen:
        seen.add(id(obj))
        return _arrays_held(vars(obj), seen)
    return []


def test_no_kernel_holds_an_array_but_its_models_weights_between_passes():
    """A kernel set is views of its model's flat parameter and gradient
    vectors and nothing else: pad buffers are pass scratch, pooling offsets
    a process-wide cache, and every forward cache is taken by its backward
    — after any kind of pass, at any batch size."""
    zoo = _build_zoo()
    for index, model in enumerate(zoo[0]):
        (kernels,) = model._kernel_sets()
        flat = [model.flat_parameters(s) for s in SplitCNN.SECTIONS]
        flat += [model.flat_grads(s) for s in SplitCNN.SECTIONS]
        passes = ((16, "train"), (40, "infer"), (5, "train-frozen"), (1, "train"))
        for position, (n, kind) in enumerate(passes):
            _run_op(*zoo, position, (index, n, kind))
            held = _arrays_held(kernels, set())
            assert held, "the kernels of a layer with parameters hold its views"
            for array in held:
                # A section without parameters has an empty vector.
                owned = array.size == 0 or any(np.shares_memory(array, v) for v in flat)
                assert owned, (index, kind, n, array.shape)


def _high_water():
    arena = batched_mod._WORKSPACE.arena
    return max(arena._peak, arena._used)


def test_the_first_evaluation_probes_included_costs_no_more_than_the_next(monkeypatch):
    """A fresh thread's first 256-sample evaluation runs every forward probe
    of its shapes and carves everything as private overflow blocks.

    (The id predates the blocked pass: "the next" evaluation unfolds a block
    of samples at a time and needs a quarter of the first, which still pays
    — once per shape and process — for the oracle's full operand.  What the
    first costs no more than is the unblocked pass it replaces.)"""
    model = _mnist(0, "float32")
    x = (0.5 * np.random.default_rng(0).standard_normal((256, 1, 28, 28))).astype(np.float32)

    def footprint(blocked, fast):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batched_mod, "_probe_blocked_forward", lambda *a: blocked)
            patch.setattr(batched_mod, "_probe_fast_gemms", lambda *a: (fast, "slow", False))
            model.forward(x)
        return _high_water()

    def two_evaluations():
        tracemalloc.start()
        try:
            peaks, lives = [], []
            for _ in range(2):
                tracemalloc.reset_peak()
                model.forward(x)
                peaks.append(tracemalloc.get_traced_memory()[1])
                lives.append(_live_kernel_bytes())
            return peaks, lives, batched_mod._WORKSPACE.arena._capacity
        finally:
            tracemalloc.stop()

    rejected = _on_a_fresh_thread(footprint, False, False)
    unblocked = _on_a_fresh_thread(footprint, False, True)
    monkeypatch.setattr(batched_mod, "_BLOCKED_PROBE_CACHE", {})  # the probes run
    (first, second), (live_first, live_second), capacity = _on_a_fresh_thread(two_evaluations)
    assert len(batched_mod._BLOCKED_PROBE_CACHE) == 2
    # The contract: a probe's overflow stays inside the footprint of the
    # path a rejection falls back to.  Measured: inside the unblocked
    # accepted path's (41.6 MiB against 47.5, and 88.8 for the rejected
    # path) — the oracle's operand is one buffer, and the kernel's own
    # buffers take its place once the oracle GEMM has run.
    assert first <= rejected
    assert first <= 1.05 * unblocked
    # Nothing of the first pass or its probes stays: what is live afterwards
    # is state; the second pass adds the arena, sized by the blocked pass —
    # about a training step's (measured 11.6 MiB against 10.1).
    assert live_first + capacity <= live_second + 2**20
    assert second <= 1.05 * capacity + live_first
    assert capacity < 1.5 * _train_step_demand()


def test_a_thread_that_trains_and_evaluates_holds_one_training_step_of_scratch():
    """A B=16 step, then a 256-sample evaluation, on a fresh thread: the
    evaluation's convs run in blocks of ``_FORWARD_BLOCK`` samples, so what
    the thread keeps is about the step's own demand (measured 11.6 MiB
    against 10.1; the unblocked evaluation made it 47.5)."""
    rng = np.random.default_rng(0)
    x = (0.5 * rng.standard_normal((256, 1, 28, 28))).astype(np.float32)
    y = rng.integers(0, 10, size=256)

    def train_then_evaluate():
        model = _mnist(0, "float32")
        model.train_batch(x[:16], y[:16], SGD(lr=0.01))
        step = _high_water()
        for _ in range(2):  # the second pass runs on the block the first sized
            model.evaluate(x, y)
        return step, batched_mod._WORKSPACE.arena._capacity

    step, capacity = _on_a_fresh_thread(train_then_evaluate)
    assert step <= capacity < 1.5 * step


# Now pins the same through ``infer(x)`` / ``_forward(x)`` without a leading axis.
def test_a_forward_only_pass_holds_its_widest_layer_not_all_of_them():
    model = _mnist(0, "float32")
    rng = np.random.default_rng(0)
    x = (0.5 * rng.standard_normal((32, 1, 28, 28))).astype(np.float32)
    (kernels,) = model._kernel_sets()

    def high_water_marks():
        kernels.infer(x)
        forward_only = _high_water()
        batched_mod._WORKSPACE.arena.reset()
        kernels._forward(x, training=True)
        return forward_only, _high_water()

    # Measured 5.9 MiB against 9.7: both im2col blocks are handed back.
    forward_only, training_forward = _on_a_fresh_thread(high_water_marks)
    assert forward_only < 0.7 * training_forward


# ---------------------------------------------------------------------------
# The probes' verdicts: the rank-one operand accepts nothing the iid one rejects
# ---------------------------------------------------------------------------
def _iid_operand(rng, shape, dtype):
    return rng.standard_normal(shape).astype(dtype)


def _iid_probe(geometry, ckk, oc, dtype):
    """The reference: iid operands, the im2col one held in both layouts at once.

    Returns whether each fast orientation came out bitwise equal to the
    oracle's: ``(forward, "csT", "gT", input-gradient)``.
    """
    n, out_h, out_w, wp = geometry
    rows = n * out_h * out_w
    draws = -(-batched_mod._PROBE_MIN_OUTPUTS // min(oc * rows, ckk * oc, ckk * rows))
    fwd = csT = gT = dx = True
    rng = np.random.default_rng(0xC0FFEE)
    for _ in range(draws):
        colsT = _iid_operand(rng, (ckk, rows), dtype)
        w_mat = _iid_operand(rng, (oc, ckk), dtype)
        cols = np.ascontiguousarray(colsT.T)
        fwd = fwd and np.array_equal(np.matmul(w_mat, colsT), (cols @ w_mat.T).T)
        gradT = _iid_operand(rng, (oc, rows), dtype)
        grad = gradT.T if n == 1 else np.ascontiguousarray(gradT.T)
        gw_oracle = grad.T @ cols
        csT = csT and np.array_equal(np.matmul(colsT, gradT.T).T, gw_oracle)
        gT = gT and np.array_equal(np.matmul(gradT, colsT.T), gw_oracle)
        grid = np.zeros((oc, out_h, wp, n), dtype=dtype)
        grid[:, :, :out_w] = gradT.reshape(oc, n, out_h, out_w).transpose(0, 2, 3, 1)
        gc = np.matmul(w_mat.T, grid.reshape(oc, -1)).reshape(ckk, out_h, wp, n)
        dx_oracle = (grad @ w_mat).T.reshape(ckk, n, out_h, out_w)
        dx = dx and np.array_equal(gc[:, :, :out_w], dx_oracle.transpose(0, 2, 3, 1))
    return fwd, csT, gT, dx


def test_the_rank_one_probe_accepts_no_orientation_the_iid_probe_rejects(monkeypatch):
    """Every conv shape of every registered architecture at B=1 and B=7, both
    dtypes, and the thin convs whose products have a handful of outputs.

    Only this direction is a property of the code: a rejected orientation
    runs the oracle's layout, so a needless rejection costs time and never a
    bit, while an orientation the rank-one operand lets through and generic
    data does not would break parity.  Which orientations a BLAS rejects at
    all is the host's business (on the authoring host the two probes agree
    on all 730 shapes of the PR's gate, accepted and rejected both among
    them); both probes are statistical, on at least ``_PROBE_MIN_OUTPUTS``
    compared outputs each.
    """
    monkeypatch.setattr(batched_mod, "_GEMM_PROBE_CACHE", {})
    for dtype_name in ("float32", "float64"):
        for name, spec in ARCHITECTURES.items():
            built = build_model(name, rng=np.random.default_rng(0))
            model = SplitCNN(built.feature_layers, built.classifier_layers, name, dtype=dtype_name)
            for n in (1, 7):
                x = np.zeros((n,) + spec.input_shape, dtype=model.dtype)
                model.train_batch(x, np.zeros(n, dtype=np.int64), SGD(lr=0.01))
    assert len(batched_mod._GEMM_PROBE_CACHE) == 56
    for c, oc, n, (h, w), dtype in itertools.product(
        (1, 2), (1, 2, 4), (1, 2, 16), ((3, 4), (5, 7)), (np.float32, np.float64)
    ):
        # 3x3, stride 1, padding 1: the output map is the input's.
        batched_mod._probe_fast_gemms((n, h, w, w + 2), c * 9, oc, dtype)
    for (*geometry, ckk, oc, char), (fwd, gw_mode, dx) in batched_mod._GEMM_PROBE_CACHE.items():
        iid_fwd, iid_csT, iid_gT, iid_dx = _iid_probe(tuple(geometry), ckk, oc, np.dtype(char))
        accepted = (fwd, gw_mode == "csT", gw_mode == "gT", dx)
        for ours, reference in zip(accepted, (iid_fwd, iid_csT, iid_gT, iid_dx)):
            assert reference or not ours, (geometry, ckk, oc, char, accepted)
