"""The per-client path runs on the channel-major kernels: kernel == oracle.

``SplitCNN.train_batch`` and inference drive the kernel sets of
:mod:`repro.nn.batched` over the model's own flat vectors; the layer loop
(``train_batch_layerwise`` / ``forward_layerwise``) is the generic path and
the oracle.  Pinned here, bitwise:

* the parity grid — every registered architecture x dtype (see ``GRID``) x
  frozen-section mask x batch size x optimiser family: loss, every flat
  section, every gradient and the ``PhaseTrace``, step after step;
  inference logits at B=256 and over a ragged tail;
* generated conv geometries — the registered networks only ever run stride 1
  with "same" padding; the kernel's claims hold for every stride, padding,
  kernel and batch size, and for weights that are not finite;
* forward-only passes — convs over more samples than one block run block
  by block where the per-shape probe accepts that and whole where it does
  not: generated geometries with ragged tails, every registered network at
  the evaluation chunk sizes, and a shape the probe rejects forced through;
* aliasing — whatever writes the flat vectors (the weight-loading API, an
  offload package, a shard worker's result being adopted) is what the
  kernels read next;
* selection — by exact layer type, nothing else;
* the copy contract — clone / pickle / deepcopy of a model that has trained
  and evaluated carries parameters and structure, no scratch, no kernels.
"""

from __future__ import annotations

import copy
import itertools
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.nn.batched as batched_mod
from repro.core.freezing import FrozenModelPackage
from repro.data.loader import BatchLoader
from repro.nn.architectures import ARCHITECTURES, build_model
from repro.nn.batched import BatchedModel
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.loss import softmax
from repro.nn.model import SplitCNN
from repro.nn.optim import SGD, ProximalSGD
from repro.nn.reference import reference_mnist_cnn
from repro.fl.training import TrainingJob, run_jobs, train
from repro.simulation.shard import ShardedClientExecutor

DTYPES = ("float32", "float64")
#: The 28x28 networks run at both dtypes: float64 models are built by
#: argument and keep the kernels honest at the seed engine's width.  The
#: CIFAR networks cost 10-30x as much per sample and run at float32, the
#: width every run computes in.
CHEAP = ("mnist-cnn", "fmnist-cnn")
GRID = [
    pytest.param(arch, dtype_name, id=f"{arch}-{dtype_name}")
    for arch in sorted(ARCHITECTURES)
    for dtype_name in (DTYPES if arch in CHEAP else ("float32",))
]
FROZEN = ("none", "features", "classifier")
#: Odd sizes land on GEMM shapes where ``_probe_fast_gemms`` rejects an
#: orientation, so the fallback operand layouts are exercised too.
BATCH_SIZES = (1, 7, 16, 32)
OPTIMIZERS = ("sgd", "prox")
#: Steps per batch size.  One model pair walks all four sizes, so every cell
#: of the grid sees at least four consecutive steps on live optimiser state;
#: the cheap networks take three at each size.
STEPS = dict.fromkeys(CHEAP, 3)


def _build_at(arch, dtype_name, seed):
    """``build_model`` with its parameters cast to ``dtype_name``."""
    model = build_model(arch, rng=np.random.default_rng(seed))
    return SplitCNN(model.feature_layers, model.classifier_layers, model.name, dtype=dtype_name)


def _twins(arch, dtype_name, seed=0):
    """Two identically initialised models: one per path."""
    return _build_at(arch, dtype_name, seed), _build_at(arch, dtype_name, seed)


def _batch(arch, model, n, seed):
    spec = ARCHITECTURES[arch]
    rng = np.random.default_rng(seed)
    x = (0.5 * rng.standard_normal((n,) + spec.input_shape)).astype(model.dtype)
    return x, rng.integers(0, spec.num_classes, size=n)


def _optimizer(opt_name, model):
    if opt_name == "sgd":
        return SGD(lr=0.01, momentum=0.9, weight_decay=1e-3)
    optimizer = ProximalSGD(lr=0.01, mu=0.1)
    optimizer.set_anchor({s: model.flat_parameters(s) for s in model.SECTIONS})
    return optimizer


def _freeze(model, frozen):
    if frozen == "features":
        model.freeze_features()
    elif frozen == "classifier":
        model.freeze_classifier()


def _assert_same_state(kernel, oracle, label):
    for section in SplitCNN.SECTIONS:
        assert np.array_equal(
            kernel.flat_parameters(section), oracle.flat_parameters(section)
        ), f"{label}: {section} weights diverged"
        assert np.array_equal(
            kernel.flat_grads(section), oracle.flat_grads(section)
        ), f"{label}: {section} gradients diverged"


def _assert_same_step(kernel, oracle, x, y, kernel_opt, oracle_opt, label):
    loss, trace = kernel.train_batch(x, y, kernel_opt)
    ref_loss, ref_trace = oracle.train_batch_layerwise(x, y, oracle_opt)
    assert np.isfinite(ref_loss), f"{label}: the oracle diverged, the comparison is void"
    assert loss == ref_loss, f"{label}: loss"
    assert trace.flops == ref_trace.flops, f"{label}: PhaseTrace"
    assert list(trace.flops) == list(ref_trace.flops), f"{label}: PhaseTrace phase order"
    _assert_same_state(kernel, oracle, label)


# ---------------------------------------------------------------------------
# The parity grid
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("arch, dtype_name", GRID)
def test_training_on_kernels_is_bitwise_the_layer_loop(arch, dtype_name):
    for frozen in FROZEN:
        for opt_name in OPTIMIZERS:
            # One model pair walks the batch sizes, so consecutive steps also
            # change the kernel scratch shapes under live optimiser state.
            kernel, oracle = _twins(arch, dtype_name)
            _freeze(kernel, frozen)
            _freeze(oracle, frozen)
            kernel_opt, oracle_opt = _optimizer(opt_name, kernel), _optimizer(opt_name, oracle)
            for n in BATCH_SIZES:
                for step in range(STEPS.get(arch, 1)):
                    x, y = _batch(arch, kernel, n, seed=100 * n + step)
                    label = f"{arch}/{dtype_name}/{frozen}/{opt_name}/B={n}/step {step}"
                    _assert_same_step(kernel, oracle, x, y, kernel_opt, oracle_opt, label)
            assert kernel._kernels and not oracle._kernels, "each twin must stay on its path"


@pytest.mark.parametrize("arch, dtype_name", GRID)
def test_inference_on_kernels_is_bitwise_the_layer_loop(arch, dtype_name):
    kernel, oracle = _twins(arch, dtype_name)
    x, y = _batch(arch, kernel, 256 + 37, seed=5)
    # A training step first: its scratch and the inference scratch are apart.
    kernel.train_batch(x[:16], y[:16], SGD(lr=0.01))
    oracle.train_batch_layerwise(x[:16], y[:16], SGD(lr=0.01))
    for chunk in (x[:256], x[256:]):
        logits = oracle.forward_layerwise(chunk)
        assert np.array_equal(kernel.forward(chunk), logits)
    assert np.array_equal(kernel.predict_proba(chunk), softmax(logits))
    assert np.array_equal(kernel.predict(chunk), logits.argmax(axis=1))


@pytest.mark.parametrize("dtype_name", DTYPES)
def test_evaluate_walks_full_batches_and_the_ragged_tail(dtype_name):
    kernel, oracle = _twins("mnist-cnn", dtype_name)
    x, y = _batch("mnist-cnn", kernel, 256 + 37, seed=6)
    total_loss, correct = 0.0, 0
    for start in (0, 256):
        logits = oracle.forward_layerwise(x[start : start + 256])
        labels = y[start : start + 256]
        total_loss += oracle.loss_fn.forward(logits, labels) * len(labels)
        correct += int((logits.argmax(axis=1) == labels).sum())
    assert kernel.evaluate(x, y, batch_size=256) == (total_loss / len(x), correct / len(x))
    # The same tail shape again, after the full one: scratch is re-fitted.
    assert kernel.evaluate(x, y, batch_size=256) == (total_loss / len(x), correct / len(x))


# Now pins the same through ``_forward(x)`` / ``infer(x)`` on the batch as
# ``SplitCNN`` has it (no leading axis).
def test_inference_between_forward_and_backward_keeps_the_activations():
    """Inference run in the middle of a training step (here: between two
    steps' worth of cached state) changes nothing — through the model's one
    kernel set, which keeps nothing for a backward from a forward-only pass."""
    kernel, oracle = _twins("mnist-cnn", "float32")
    x, y = _batch("mnist-cnn", kernel, 16, seed=1)
    (kernels,) = kernel._kernel_sets()
    logits = kernels._forward(x, training=True)
    cached = logits.copy()
    kernel.forward(x[:5])
    kernel.evaluate(x, y, batch_size=8)
    assert np.array_equal(logits, cached)
    assert not np.shares_memory(logits, kernels.infer(x))
    # Returned logits are the caller's, not scratch of the next call.
    first = kernel.forward(x[:5])
    kept = first.copy()
    kernel.forward(x[5:10])
    assert np.array_equal(first, kept)
    # One selection, by layer coverage: ``training`` does not pick a path.
    assert np.array_equal(kernel.forward(x[:5], training=True), first)
    assert all(layer._cache_cols is None for layer in kernel.feature_layers if type(layer) is Conv2D)


@pytest.mark.parametrize(
    "arch, dtype_name",
    [cell for cell in GRID if cell.values[0] in CHEAP]
    # Two convs of one padded shape in one pass: the CNN's last two, and
    # each residual block's conv1 and conv2.
    + [pytest.param(arch, "float32") for arch in ("cifar10-cnn", "cifar10-resnet")],
)
def test_training_alternating_with_evaluation_sized_passes_is_the_layer_loop(arch, dtype_name):
    """One kernel set serves every batch shape on one thread: B=16 steps
    alternating with 256- and 144-sample evaluations (an evaluation of 400
    samples), each pass carving its pad buffers afresh — weights, losses,
    logits and the evaluation itself bit for bit the layer loop's."""
    kernel, oracle = _twins(arch, dtype_name)
    kernel_opt, oracle_opt = SGD(lr=0.01, momentum=0.9), SGD(lr=0.01, momentum=0.9)
    x, y = _batch(arch, kernel, 400, seed=11)
    for step in range(3):
        batch = slice(16 * step, 16 * step + 16)
        label = f"{arch}/{dtype_name}/step {step}"
        _assert_same_step(kernel, oracle, x[batch], y[batch], kernel_opt, oracle_opt, label)
        if step == 2:
            break
        total_loss, correct = 0.0, 0
        for chunk in (slice(0, 256), slice(256, 400)):
            logits = oracle.forward_layerwise(x[chunk])
            assert np.array_equal(kernel.forward(x[chunk]), logits), label
            total_loss += oracle.loss_fn.forward(logits, y[chunk]) * len(y[chunk])
            correct += int((logits.argmax(axis=1) == y[chunk]).sum())
        assert kernel.evaluate(x, y) == (total_loss / len(x), correct / len(x)), label
    assert len(kernel._kernel_sets()) == 1


def test_inference_does_not_rewrite_the_callers_batch():
    """A ReLU behind a Flatten sees the caller's array through a view."""
    rng = np.random.default_rng(0)
    model = SplitCNN([Flatten(), ReLU()], [Dense(12, 3, rng=rng)])
    oracle = SplitCNN([Flatten(), ReLU()], [Dense(12, 3, rng=np.random.default_rng(0))])
    x = np.random.default_rng(1).standard_normal((6, 12)).astype(np.float32)
    y = np.arange(6) % 3
    before = x.copy()
    assert np.array_equal(model.forward(x), oracle.forward_layerwise(x))
    _assert_same_step(model, oracle, x, y, SGD(lr=0.1), SGD(lr=0.1), "flat input")
    assert model._kernels, "a Flatten/ReLU/Dense model is kernel-covered"
    assert np.array_equal(x, before)


# ---------------------------------------------------------------------------
# The conv kernel alone, over geometries no registered network has
# ---------------------------------------------------------------------------
def _bits(array):
    """Bit patterns: NaN payloads and the sign of a zero count."""
    return np.ascontiguousarray(array).view(f"u{array.dtype.itemsize}")


def _conv_kernel_and_oracle(c, oc, k, stride, padding, dtype_name, seed=0):
    """The conv kernel over one layer, and an identically initialised oracle."""
    layer, oracle = (
        Conv2D(c, oc, k, stride, padding, rng=np.random.default_rng(seed), dtype=dtype_name)
        for _ in range(2)
    )
    for conv in (layer, oracle):
        conv.params["b"][...] = np.linspace(-1.0, 1.0, oc)
    return batched_mod._BatchedConv2D(layer), oracle


def _assert_conv_parity(kernel, oracle, x, grad_out, label):
    """Forward + backward, bit for bit.  ``x`` is ``(n, c, h, w)``,
    ``grad_out`` the kernel's channel-major ``(oc, n, out_h, out_w)``."""
    batched_mod._WORKSPACE.arena.reset()
    out = kernel.forward(np.ascontiguousarray(x.transpose(1, 0, 2, 3)))
    assert out.shape == grad_out.shape, label
    grad_x = kernel.backward(grad_out)
    oracle.zero_grad()
    ref_out = oracle.forward(x)
    ref_grad_x = oracle.backward(np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3)))
    for name, got, ref in (
        ("out", out.transpose(1, 0, 2, 3), ref_out),
        ("dX", grad_x.transpose(1, 0, 2, 3), ref_grad_x),
        ("gW", kernel.gW, oracle.grads["W"]),
        ("gb", kernel.gb, oracle.grads["b"]),
    ):
        assert np.array_equal(_bits(got), _bits(ref)), f"{label}: {name}"


@st.composite
def _conv_geometries(draw):
    """Small convs: every kernel/stride/padding combination, ragged maps."""
    k = draw(st.sampled_from((1, 3, 5)))
    stride = draw(st.sampled_from((1, 2)))
    padding = draw(st.integers(0, k // 2))
    smallest = max(1, k - 2 * padding)
    h, w = draw(
        st.lists(st.integers(smallest, smallest + 6), min_size=2, max_size=2, unique=True)
    )
    return SimpleNamespace(
        k=k,
        stride=stride,
        padding=padding,
        h=h,
        w=w,
        # One-wide operands included: GEMVs, and products of so few outputs
        # that a one-draw probe passed them by luck (``_PROBE_MIN_OUTPUTS``).
        c=draw(st.sampled_from((1, 2, 3))),
        oc=draw(st.sampled_from((1, 2, 4))),
        n=draw(st.sampled_from((1, 2, 7, 16))),
        dtype_name=draw(st.sampled_from(DTYPES)),
        seed=draw(st.integers(0, 2**16)),
    )


# Now pins the one-model kernel: ``(c, n, h, w)`` in, no ``lanes`` draw.
@settings(max_examples=150, deadline=None)
@given(g=_conv_geometries())
def test_conv_kernel_matches_the_oracle_over_generated_geometries(g):
    """Strides, paddings, kernels, ragged maps and batch sizes the registered
    architectures never reach: the width-padded grid and its flat shifted
    adds are one formulation for all of them.  Tiny shapes: 150 examples
    take about half a second."""
    kernel, oracle = _conv_kernel_and_oracle(
        g.c, g.oc, g.k, g.stride, g.padding, g.dtype_name, g.seed
    )
    rng = np.random.default_rng(g.seed)
    dtype = kernel.W.dtype
    x = rng.standard_normal((g.n, g.c, g.h, g.w)).astype(dtype)
    out_h, out_w = oracle.output_shape((g.c, g.h, g.w))[1:]
    grad_out = rng.standard_normal((g.oc, g.n, out_h, out_w)).astype(dtype)
    # Exact zeros, as a ReLU or a pooling scatter upstream leaves them.
    grad_out[rng.random(grad_out.shape) < 0.3] = 0.0
    _assert_conv_parity(kernel, oracle, x, grad_out, repr(g))


# ---------------------------------------------------------------------------
# Forward-only passes run their convs in blocks of samples
# ---------------------------------------------------------------------------
# Now pins the one-model kernel: ``(c, n, h, w)`` in, no ``lanes`` draw.
@settings(max_examples=100, deadline=None)
@given(
    g=_conv_geometries(),
    n=st.sampled_from((1, 16, 17, 33, 40, 64)),
    blocked=st.sampled_from((None, False)),
)
# A one-channel conv whose GEMV rounds its last four of 396 outputs its own
# way one draw in five: the probe let it through on three draws, and now
# never reorients a one-wide product.
@example(
    g=SimpleNamespace(k=1, stride=1, padding=0, h=3, w=4, c=3, oc=1, n=1, dtype_name="float32", seed=1),
    n=33,
    blocked=None,
)
def test_forward_only_conv_matches_the_oracle_in_blocks_and_whole(g, n, blocked):
    """A forward-only conv over more than ``_FORWARD_BLOCK`` samples runs
    block by block where the probe accepts that (``blocked=None``: the probe
    decides — ragged one-sample tails, 17 and 33, are what it rejects on
    some shapes) and whole where it does not (``blocked=False``: every
    verdict forced).  Either way: the layer's own output, bit for bit."""
    kernel, oracle = _conv_kernel_and_oracle(
        g.c, g.oc, g.k, g.stride, g.padding, g.dtype_name, g.seed
    )
    x = np.random.default_rng(g.seed).standard_normal((n, g.c, g.h, g.w))
    x = x.astype(kernel.W.dtype)
    with pytest.MonkeyPatch.context() as patch:
        if blocked is not None:
            patch.setattr(batched_mod, "_probe_blocked_forward", lambda *a: blocked)
        batched_mod._WORKSPACE.arena.reset()
        out = kernel.forward(np.ascontiguousarray(x.transpose(1, 0, 2, 3)), training=False)
    assert kernel._cache is None, "a forward-only pass keeps nothing for a backward"
    ref = oracle.forward(x, training=False)
    assert np.array_equal(_bits(out.transpose(1, 0, 2, 3)), _bits(ref)), (g, n)


@pytest.mark.parametrize(
    "arch, dtype_name, blocked",
    [(*cell.values, "probed") for cell in GRID]
    # The unblocked pass is the one every network ran before there was a
    # blocked one (and still runs at B <= 16): the cheap networks suffice.
    + [(arch, dtype_name, "never") for arch in CHEAP for dtype_name in DTYPES],
)
def test_evaluation_sized_passes_are_bitwise_the_layer_loop(arch, dtype_name, blocked):
    """The chunk sizes ``evaluate`` meets (256, and the 64 / 144 / 240-sample
    remainders of the registered scales' test sets), logits and loss, with
    the blocked pass where the probe accepts it and with it forced off."""
    kernel, oracle = _twins(arch, dtype_name)
    x, y = _batch(arch, kernel, 256, seed=8)
    with pytest.MonkeyPatch.context() as patch:
        if blocked == "never":
            patch.setattr(batched_mod, "_probe_blocked_forward", lambda *a: False)
        for n in (64, 144, 240, 256):
            logits = oracle.forward_layerwise(x[:n])
            assert np.array_equal(kernel.forward(x[:n]), logits), n
            total_loss = oracle.loss_fn.forward(logits, y[:n]) * n
            correct = int((logits.argmax(axis=1) == y[:n]).sum())
            assert kernel.evaluate(x[:n], y[:n]) == (total_loss / n, correct / n), n
    assert kernel._kernels and not oracle._kernels, "each twin must stay on its path"


def test_a_blocked_pass_the_probe_rejects_would_not_be_bitwise(monkeypatch):
    """The probe is what protects the blocked pass: forced to accept a shape
    it rejects, the pass differs from the oracle.  Which shapes a BLAS
    rejects is the host's business (here: mnist-cnn's second conv with a
    one-sample tail block, which takes another edge kernel)."""
    for dtype_name, n in itertools.product(DTYPES, (17, 33)):
        kernel, oracle = _twins("mnist-cnn", dtype_name)
        x, _ = _batch("mnist-cnn", kernel, n, seed=11)
        logits = oracle.forward_layerwise(x)
        assert np.array_equal(kernel.forward(x), logits)
        char = kernel.dtype.char
        verdicts = [batched_mod._BLOCKED_PROBE_CACHE[(n, 784, 25, 8, char)],
                    batched_mod._BLOCKED_PROBE_CACHE[(n, 196, 200, 16, char)]]  # fmt: skip
        if not all(verdicts):
            break
    else:
        pytest.skip("this BLAS blocks every tried shape bit for bit")
    monkeypatch.setattr(batched_mod, "_probe_blocked_forward", lambda *a: True)
    assert not np.array_equal(kernel.forward(x), logits)


# Now pins the one-model kernel: non-finite weights reroute that model's pass.
@pytest.mark.parametrize("dtype_name", DTYPES)
@pytest.mark.parametrize("weights", ["finite", "non-finite"])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_weights_and_gradients_stay_bitwise(weights, dtype_name):
    """``0 * w`` is NaN for an Inf or NaN weight: the grid's junk columns must
    not carry that into border pixels the oracle leaves alone.  mnist-cnn's
    second conv at B=16, a shape whose probes all pass on OpenBLAS — so
    finite weights send the NaN, Inf and -0.0 gradients through the grid
    GEMM, and non-finite ones reroute the pass."""
    n, c, oc, k, side = 16, 8, 16, 5, 14
    kernel, oracle = _conv_kernel_and_oracle(c, oc, k, 1, 2, dtype_name)
    if weights == "non-finite":
        kernel.W[3, 2, 1, 4] = np.inf
        kernel.W[5, 0, 0, 0] = np.nan
        kernel.W[7, 1, 2, 3] = -np.inf
        oracle.params["W"][...] = kernel.W
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, c, side, side)).astype(kernel.W.dtype)
    grad_out = rng.standard_normal((oc, n, side, side)).astype(kernel.W.dtype)
    grad_out.reshape(-1)[23::7] = -0.0
    grad_out.reshape(-1)[29::13] = 0.0
    grad_out[2, 3, 4, 5] = np.nan
    grad_out[5, 0, 0, 0] = np.inf
    grad_out[5, 9, 13, 13] = -np.inf
    grad_out[9, 15, 7, 0] = np.inf
    _assert_conv_parity(kernel, oracle, x, grad_out, f"{weights}/{dtype_name}")


# ---------------------------------------------------------------------------
# Aliasing: the kernels read the model's own flat vectors
# ---------------------------------------------------------------------------
def _donor_weights(seed=9):
    return build_model("mnist-cnn", rng=np.random.default_rng(seed))


def _load_flat(model, donor):
    model.set_flat_weights(donor.get_flat_weights())


def _load_flat_sections(model, donor):
    for section in SplitCNN.SECTIONS:
        model.set_flat_weights(donor.get_flat_weights(section), section=section)


def _load_dict(model, donor):
    model.set_weights(donor.get_weights())


def _load_partial(model, donor):
    model.set_partial_weights(donor.get_feature_weights())
    model.set_partial_weights(donor.get_classifier_weights())


def _load_package(model, donor):
    FrozenModelPackage.from_model(donor, 0, 1, batches_to_train=1).load_into(model)


@pytest.mark.parametrize(
    "load", [_load_flat, _load_flat_sections, _load_dict, _load_partial, _load_package]
)
def test_weights_loaded_after_the_kernels_exist_are_what_they_train_on(load):
    kernel, oracle = _twins("mnist-cnn", "float32")
    x, y = _batch("mnist-cnn", kernel, 16, seed=2)
    kernel_opt, oracle_opt = SGD(lr=0.01, momentum=0.9), SGD(lr=0.01, momentum=0.9)
    _assert_same_step(kernel, oracle, x, y, kernel_opt, oracle_opt, "warm-up")
    assert kernel._kernels
    donor = _donor_weights()
    load(kernel, donor)
    load(oracle, donor)
    _assert_same_step(kernel, oracle, x, y, kernel_opt, oracle_opt, load.__name__)
    assert np.array_equal(kernel.forward(x), oracle.forward_layerwise(x))


# Now pins: a kernel set holds no parameter memory of its own — every
# kernel reads its layer's views into the model's flat vectors (the
# ``(1, size)`` arenas went with the lane axis).
def test_kernel_arenas_are_views_of_the_flat_vectors():
    model = _donor_weights()
    (kernels,) = model._kernel_sets()
    assert type(kernels) is BatchedModel
    sections = (
        (SplitCNN.FEATURE_PREFIX, kernels.feature_layers, model.feature_layers),
        (SplitCNN.CLASSIFIER_PREFIX, kernels.classifier_layers, model.classifier_layers),
    )
    for index, (section, kernel_layers, layers) in enumerate(sections):
        assert kernels._grads[index] is model.flat_grads(section)
        for kernel, layer in zip(kernel_layers, layers):
            for name in layer.params:
                weights, grads = getattr(kernel, name), getattr(kernel, "g" + name)
                assert weights.shape == layer.params[name].shape
                assert np.shares_memory(weights, model.flat_parameters(section))
                assert np.shares_memory(grads, model.flat_grads(section))


def _lane_actor(client_id, n_samples=32):
    model = build_model("mnist-cnn", rng=np.random.default_rng(client_id))
    x, y = _batch("mnist-cnn", model, n_samples, seed=40 + client_id)
    return SimpleNamespace(
        client_id=client_id,
        model=model,
        loader=BatchLoader(x, y, batch_size=16, shuffle=False),
        optimizer=SGD(lr=0.01, momentum=0.9),
    )


class _InProcessWorker:
    """A shard pool of no processes: ``collect`` runs the worker's own code here."""

    def __init__(self, template=None):
        self.jobs = {}
        self.template = template

    def new_job_id(self):
        return len(self.jobs) + 1

    def submit(self, shard, job_id, payload):
        self.jobs[job_id] = payload

    def collect(self, shard, job_id):
        template = self.template
        if template is None:
            template = build_model("mnist-cnn", rng=np.random.default_rng(99))
        return train(template, self.jobs[job_id])


# Now pins: a job the shard plane runs (through a pool of no processes) is
# the layer loop's step, and a model whose kernel sets exist before the
# job's weights land — the one every job of a run trains on — takes the
# oracle's next step from them: result -> model buffers -> kernels, all one
# memory.
def test_a_materialized_lane_is_what_the_next_train_batch_sees():
    global_model = _donor_weights(seed=77)
    actor = _lane_actor(0)
    x, y = actor.loader.x, actor.loader.y
    # The model's kernel sets exist (and have run) before the result lands.
    actor.model.train_batch(x[:16], y[:16], None)

    executor = ShardedClientExecutor(
        num_shards=2, num_clients=2, architecture="mnist-cnn", model=actor.model
    )
    executor._pool = _InProcessWorker()
    job = TrainingJob(
        executor,
        0,
        x,
        y,
        executor.sections(global_model.get_weights()),
        actor.optimizer,
        actor.optimizer.capture_state(),
    )
    assert job.draw(actor.loader) == (16, 1, 28, 28)
    run_jobs([job])
    assert executor.stats["shard_jobs"] == 1 and len(executor._pool.jobs) == 1

    oracle = _donor_weights(seed=77)
    oracle_opt = SGD(lr=0.01, momentum=0.9)
    ref_loss, _ = oracle.train_batch_layerwise(x[:16], y[:16], oracle_opt)
    assert job.losses == [ref_loss]
    actor.model.set_flat_weights(job.flat_weights())
    actor.optimizer.restore_state(job.optimizer_state)
    _assert_same_step(
        actor.model, oracle, x[16:], y[16:], actor.optimizer, oracle_opt, "after adopting"
    )


# ---------------------------------------------------------------------------
# Selection: exact layer types, nothing else
# ---------------------------------------------------------------------------
class _ScaledConv(Conv2D):
    """A subclass may change the math; only the layer loop honours that."""

    def forward(self, x, training=True):
        return 2.0 * super().forward(x, training)


def _tiny_cnn(conv_cls):
    rng = np.random.default_rng(0)
    return SplitCNN(
        [conv_cls(1, 2, 3, padding=1, rng=rng), ReLU(), MaxPool2D(2), Flatten()],
        [Dense(2 * 4 * 4, 3, rng=rng)],
    )


# Now pins ``BatchedModel(model)`` refusing the layer, and the batch checks
# both paths share.
def test_a_model_with_an_unregistered_layer_type_takes_the_layer_loop():
    x = np.random.default_rng(1).standard_normal((4, 1, 8, 8)).astype(np.float32)
    y = np.arange(4) % 3
    plain, scaled = _tiny_cnn(Conv2D), _tiny_cnn(_ScaledConv)
    plain.train_batch(x, y, None)
    scaled.train_batch(x, y, None)
    assert plain._kernels and scaled._kernels == ()
    assert np.array_equal(scaled.forward(x), scaled.forward_layerwise(x))
    assert not np.array_equal(scaled.forward(x), plain.forward(x))
    # ... and no kernel set can be built over it.
    with pytest.raises(TypeError, match="_ScaledConv"):
        BatchedModel(scaled)
    # One new case (ISSUE 24): a batch whose labels do not match its rows is
    # refused by both paths with one message, before anything is written;
    # and the kernels still refuse a batch nobody cast to the model dtype.
    for model in (plain, scaled):
        optimizer = SGD(lr=0.1, momentum=0.9)
        model.train_batch(x, y, optimizer)
        weights, state = model.get_flat_weights(), optimizer.capture_state()
        with pytest.raises(ValueError, match=r"^batch size mismatch: x has 4 rows, y has 3$"):
            model.train_batch(x, y[:3], optimizer)
        assert np.array_equal(model.get_flat_weights(), weights)
        after = optimizer.capture_state()
        assert all(np.array_equal(after["velocity"][k], v) for k, v in state["velocity"].items())
    (kernels,) = plain._kernel_sets()
    with pytest.raises(TypeError, match="pre-cast to float32"):
        kernels.train_step(x.astype(np.float64), y)
    with pytest.raises(TypeError, match="pre-cast to float32"):
        kernels.infer(x.astype(np.float64))
    # ... and its jobs never go to a shard worker (which would build the
    # stock architecture): they run in the parent, on the layer loop, as
    # at `shards=1` — the same bytes as the model's own train_batch.
    def run_one(model):
        executor = ShardedClientExecutor(
            num_shards=2, num_clients=2, architecture="mnist-cnn", model=model
        )
        executor._pool = _InProcessWorker(template=_tiny_cnn(Conv2D))
        job = TrainingJob(
            executor, 0, x, y, executor.sections(model.get_weights()), SGD(lr=0.1), {"velocity": {}}
        )
        job.draw(BatchLoader(x, y, batch_size=4, shuffle=False))
        oracle = copy.deepcopy(model)
        run_jobs([job])
        assert job.losses == [oracle.train_batch(x, y, SGD(lr=0.1))[0]]
        assert np.array_equal(job.flat_weights(), oracle.get_flat_weights())
        return executor

    fallback, sent = run_one(scaled), run_one(plain)
    assert fallback.stats == {"shard_jobs": 0, "fallbacks": 1, "worker_restarts": 0}
    assert fallback._pool.jobs == {}
    assert sent.stats == {"shard_jobs": 1, "fallbacks": 0, "worker_restarts": 0}


def test_the_seed_reference_engine_takes_the_layer_loop():
    model = reference_mnist_cnn(np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((4, 1, 28, 28))
    y = np.arange(4)
    loss, trace = model.train_batch(x, y, None)
    assert model._kernels == ()
    twin = reference_mnist_cnn(np.random.default_rng(0))
    ref_loss, ref_trace = twin.train_batch_layerwise(x, y, None)
    assert loss == ref_loss and trace.flops == ref_trace.flops
    assert np.array_equal(model.forward(x), twin.forward_layerwise(x))


# ---------------------------------------------------------------------------
# Copies carry parameters and structure only
# ---------------------------------------------------------------------------
def _array_bytes(obj, seen=None):
    """Bytes of every distinct array buffer reachable from ``obj``."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(item, seen) for item in obj)
    if hasattr(obj, "__dict__") and type(obj).__module__.startswith("repro."):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return _array_bytes(vars(obj), seen)
    return 0


def _used_model(arch="cifar10-resnet"):
    """A model that has trained and evaluated on both paths."""
    model = build_model(arch, rng=np.random.default_rng(3))
    x, y = _batch(arch, model, 8, seed=4)
    model.train_batch(x, y, SGD(lr=0.01))
    model.train_batch_layerwise(x, y, SGD(lr=0.01))
    model.forward_layerwise(x)
    model.evaluate(x, y)
    model.freeze_features()
    return model, x, y


@pytest.mark.parametrize(
    "duplicate",
    [
        lambda model: model.clone_architecture(),
        copy.deepcopy,
        lambda model: pickle.loads(pickle.dumps(model)),
    ],
    ids=["clone_architecture", "deepcopy", "pickle"],
)
def test_copies_of_a_used_model_carry_parameters_and_structure_only(duplicate):
    model, x, y = _used_model()
    params_bytes = model.num_parameters() * model.dtype.itemsize
    assert _array_bytes(model) > 10 * params_bytes, "the original holds scratch"
    twin = duplicate(model)
    # Weights and gradients, nothing else.
    assert _array_bytes(twin) == 2 * params_bytes
    assert twin._kernels is None
    assert np.array_equal(twin.get_flat_weights(), model.get_flat_weights())
    for section in SplitCNN.SECTIONS:
        assert not np.shares_memory(
            twin.flat_parameters(section), model.flat_parameters(section)
        )
    # The copy is a working model on both paths, independent of the original.
    model.unfreeze_features()
    twin.unfreeze_features()
    oracle = duplicate(model)
    _assert_same_step(twin, oracle, x, y, SGD(lr=0.01), SGD(lr=0.01), "copy")
    assert not np.array_equal(twin.get_flat_weights(), model.get_flat_weights())


def test_clone_architecture_unfreezes_and_other_copies_keep_the_mask():
    model, _, _ = _used_model("mnist-cnn")
    assert model.features_frozen
    assert not model.clone_architecture().features_frozen
    assert copy.deepcopy(model).features_frozen


def test_rebuilding_the_flat_buffers_drops_the_kernel_sets():
    model, x, y = _used_model("mnist-cnn")
    stale = model._kernels
    model._rebuild_flat_buffers()
    assert model._kernels is None
    oracle = copy.deepcopy(model)
    model.unfreeze_features()
    oracle.unfreeze_features()
    _assert_same_step(model, oracle, x, y, SGD(lr=0.01), SGD(lr=0.01), "rebuilt")
    assert model._kernels is not stale
