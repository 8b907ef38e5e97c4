"""Phase-aware CNN model container.

The paper (§2.1, Figure 3) splits a local training step into four phases:

* ``ff`` — forward pass through the feature (convolutional) layers,
* ``fc`` — forward pass through the classifier (fully connected) layers,
* ``bc`` — backward pass through the classifier layers,
* ``bf`` — backward pass through the feature layers.

Aergia's key observation (Figure 4) is that ``bf`` dominates the cost of a
step, so freezing the feature layers of a straggler removes most of its
per-batch work.  :class:`SplitCNN` makes this structure explicit: the model
is a pair of layer stacks (features, classifier) and
:meth:`SplitCNN.train_batch` executes and accounts for the four phases
separately, optionally skipping ``bf`` (and feature-parameter updates) when
the features are frozen.

Parameter storage is *flat*: each section (features, classifier) owns one
contiguous vector per dtype-width scalar, and every layer parameter is a
named view into it (see :meth:`SplitCNN.flat_parameters`).  Weight
aggregation, optimiser steps and payload sizing operate on the vectors in
single fused numpy operations; the dictionary API (:meth:`get_weights` /
:meth:`set_weights`) remains available as a thin adapter over the views.

Compute runs on one kernel set: :meth:`SplitCNN.train_batch` and
inference drive the channel-major kernels of :mod:`repro.nn.batched`, over
the same flat vectors.  The layer-by-layer loop over :mod:`repro.nn.layers` objects remains as the
generic path for a model holding a layer type without a kernel — and, for
that reason, as the oracle the parity tests compare the kernels against.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.dtype import COMPUTE_DTYPE, DtypeLike, resolve_dtype
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU, ResidualBlock
from repro.nn.loss import CrossEntropyLoss, softmax
from repro.nn.optim import Optimizer


class Phase(str, enum.Enum):
    """The four training phases of a local update (paper Figure 3)."""

    FORWARD_FEATURES = "ff"
    FORWARD_CLASSIFIER = "fc"
    BACKWARD_CLASSIFIER = "bc"
    BACKWARD_FEATURES = "bf"

    @classmethod
    def ordered(cls) -> Tuple["Phase", ...]:
        """Phases in execution order within a training step."""
        return (
            cls.FORWARD_FEATURES,
            cls.FORWARD_CLASSIFIER,
            cls.BACKWARD_CLASSIFIER,
            cls.BACKWARD_FEATURES,
        )


@dataclass
class PhaseTrace:
    """FLOP counts per training phase for one (or several) batches.

    The cluster simulator converts these counts into virtual seconds by
    dividing by a client's effective compute rate, which recreates the
    heterogeneous per-phase timings that the paper measures on throttled
    Docker containers.
    """

    flops: Dict[Phase, float] = field(
        default_factory=lambda: {phase: 0.0 for phase in Phase}
    )

    def add(self, phase: Phase, flops: float) -> None:
        self.flops[phase] += float(flops)

    def merge(self, other: "PhaseTrace") -> "PhaseTrace":
        merged = PhaseTrace()
        for phase in Phase:
            merged.flops[phase] = self.flops[phase] + other.flops[phase]
        return merged

    def total(self) -> float:
        return float(sum(self.flops.values()))

    def fractions(self) -> Dict[Phase, float]:
        """Share of the total FLOPs spent in each phase."""
        total = self.total()
        if total == 0:
            return {phase: 0.0 for phase in Phase}
        return {phase: self.flops[phase] / total for phase in Phase}

    def scaled(self, factor: float) -> "PhaseTrace":
        scaled = PhaseTrace()
        for phase in Phase:
            scaled.flops[phase] = self.flops[phase] * factor
        return scaled


# ---------------------------------------------------------------------------
# Analytic per-phase FLOP counts
# ---------------------------------------------------------------------------
def _conv_flops(layer: Conv2D, n: int, in_shape: Tuple[int, ...]) -> Tuple[int, int, Tuple[int, ...]]:
    out_shape = layer.output_shape(in_shape)
    _, out_h, out_w = out_shape
    k = layer.kernel_size
    macs = n * out_h * out_w * layer.out_channels * layer.in_channels * k * k
    return 2 * macs, 4 * macs, out_shape


def _layer_flops(layer, n: int, in_shape: Tuple[int, ...]) -> Tuple[int, int, Tuple[int, ...]]:
    """``(forward_flops, backward_flops, out_shape)`` for one batch of ``n``.

    Mirrors the ``last_forward_flops``/``last_backward_flops`` accounting of
    each layer in :mod:`repro.nn.layers` exactly (pinned by tests), so the
    channel-major kernels can hand the cost model the same
    :class:`PhaseTrace` the layer loop records — without running a layer.
    """
    size_in = n * int(np.prod(in_shape))
    if isinstance(layer, Conv2D):
        return _conv_flops(layer, n, in_shape)
    if isinstance(layer, MaxPool2D):
        return size_in, size_in, layer.output_shape(in_shape)
    if isinstance(layer, ReLU):
        return size_in, size_in, in_shape
    if isinstance(layer, Flatten):
        return 0, 0, layer.output_shape(in_shape)
    if isinstance(layer, Dense):
        macs = n * layer.in_features * layer.out_features
        return 2 * macs, 4 * macs, (layer.out_features,)
    if isinstance(layer, ResidualBlock):
        c1_fwd, c1_bwd, s1 = _conv_flops(layer.conv1, n, in_shape)
        relu1 = n * int(np.prod(s1))
        c2_fwd, c2_bwd, s2 = _conv_flops(layer.conv2, n, s1)
        proj_fwd = proj_bwd = 0
        if layer.proj is not None:
            proj_fwd, proj_bwd, _ = _conv_flops(layer.proj, n, in_shape)
        out_size = n * int(np.prod(s2))
        # forward: conv1 + relu1 + conv2 + proj + relu_out + (h + shortcut)
        fwd = c1_fwd + relu1 + c2_fwd + proj_fwd + out_size + out_size
        # backward: relu_out + conv2 + relu1 + conv1 + proj + grad_out.size
        bwd = c1_bwd + relu1 + c2_bwd + proj_bwd + out_size + out_size
        return fwd, bwd, s2
    raise TypeError(f"no analytic FLOP model for layer {type(layer).__name__}")


def phase_flops(model: "SplitCNN", batch_size: int, input_shape: Sequence[int]) -> PhaseTrace:
    """Analytic :class:`PhaseTrace` of one unfrozen training batch.

    Bitwise identical to the trace the layer loop records (FLOP counts
    are shape-derived integers, never data-dependent).  It is the trace of
    every kernel-path step — the input-layer dX the kernels skip stays
    charged at its canonical cost — and what a client whose training runs
    on a shard worker is charged *before* the worker has computed anything.
    """
    trace = PhaseTrace()
    shape = tuple(int(dim) for dim in input_shape)
    for layer in model.feature_layers:
        fwd, bwd, shape = _layer_flops(layer, batch_size, shape)
        trace.add(Phase.FORWARD_FEATURES, fwd)
        trace.add(Phase.BACKWARD_FEATURES, bwd)
    for layer in model.classifier_layers:
        fwd, bwd, shape = _layer_flops(layer, batch_size, shape)
        trace.add(Phase.FORWARD_CLASSIFIER, fwd)
        trace.add(Phase.BACKWARD_CLASSIFIER, bwd)
    return trace


#: Samples per forward pass of :meth:`SplitCNN.evaluate`.
EVALUATION_BATCH = 256


def evaluation_batch_sizes(num_samples: int, batch_size: int = EVALUATION_BATCH) -> Tuple[int, ...]:
    """The distinct batch sizes :meth:`SplitCNN.evaluate` issues over
    ``num_samples`` samples: full batches, then the ragged tail."""
    full, tail = divmod(num_samples, batch_size)
    return (batch_size,) * bool(full) + (tail,) * bool(tail)


@dataclass(frozen=True)
class FlatSlot:
    """Location of one named parameter inside a section's flat vector."""

    key: str
    offset: int
    size: int
    shape: Tuple[int, ...]


class _FlatSection:
    """One contiguous parameter vector (plus gradient vector) per section."""

    def __init__(self, name: str, layers: Sequence[Tuple[str, Layer]], dtype: np.dtype) -> None:
        self.name = name
        slots: List[FlatSlot] = []
        offset = 0
        for layer_name, layer in layers:
            for param_name, value in layer.params.items():
                key = f"{layer_name}.{param_name}"
                slots.append(FlatSlot(key, offset, int(value.size), tuple(value.shape)))
                offset += int(value.size)
        self.slots: Tuple[FlatSlot, ...] = tuple(slots)
        self.vector = np.empty(offset, dtype=dtype)
        self.grads = np.zeros(offset, dtype=dtype)
        self.views: Dict[str, np.ndarray] = {}
        self.grad_views: Dict[str, np.ndarray] = {}
        slot_iter = iter(self.slots)
        for layer_name, layer in layers:
            param_views: Dict[str, np.ndarray] = {}
            grad_views: Dict[str, np.ndarray] = {}
            for param_name in layer.params:
                slot = next(slot_iter)
                view = self.vector[slot.offset : slot.offset + slot.size].reshape(slot.shape)
                gview = self.grads[slot.offset : slot.offset + slot.size].reshape(slot.shape)
                param_views[param_name] = view
                grad_views[param_name] = gview
                self.views[slot.key] = view
                self.grad_views[slot.key] = gview
            layer.rebase_parameters(param_views, grad_views)

    @property
    def size(self) -> int:
        return int(self.vector.size)


class SplitCNN:
    """A CNN explicitly split into feature layers and classifier layers.

    Parameters
    ----------
    feature_layers:
        Convolutional part of the network (phases ``ff``/``bf``).
    classifier_layers:
        Fully connected part (phases ``fc``/``bc``).
    name:
        Human-readable architecture name used in reports.
    dtype:
        Compute dtype of the model's parameters and activations; defaults
        to the dtype of the provided layers' parameters (which in turn
        default to :data:`repro.nn.dtype.COMPUTE_DTYPE`).  Inputs are cast
        to this dtype at the model boundary.

    .. note::
       Construction **takes ownership** of the given layers: their
       parameters and gradients are rebased onto this model's contiguous
       section buffers.  If the layers previously belonged to another
       ``SplitCNN``, that model is detached (its flat vectors no longer
       observe the layers) and must not be trained afterwards.
    """

    FEATURE_PREFIX = "features"
    CLASSIFIER_PREFIX = "classifier"

    #: Section names in flat-vector concatenation order.
    SECTIONS = (FEATURE_PREFIX, CLASSIFIER_PREFIX)

    def __init__(
        self,
        feature_layers: Sequence[Layer],
        classifier_layers: Sequence[Layer],
        name: str = "split-cnn",
        dtype: Optional[DtypeLike] = None,
    ) -> None:
        if not classifier_layers:
            raise ValueError("SplitCNN requires at least one classifier layer")
        self.feature_layers: List[Layer] = list(feature_layers)
        self.classifier_layers: List[Layer] = list(classifier_layers)
        self.name = name
        self.loss_fn = CrossEntropyLoss()
        self.features_frozen = False
        self.classifier_frozen = False
        if dtype is not None:
            self.dtype = resolve_dtype(dtype)
        else:
            self.dtype = self._infer_dtype()
        self._sections: Dict[str, _FlatSection] = {}
        self._rebuild_flat_buffers()

    def _infer_dtype(self) -> np.dtype:
        for _, layer in self._named_layers():
            for value in layer.params.values():
                return value.dtype
        return COMPUTE_DTYPE

    # ------------------------------------------------------------ structure
    def _named_layers(self) -> Iterable[Tuple[str, Layer]]:
        for idx, layer in enumerate(self.feature_layers):
            yield f"{self.FEATURE_PREFIX}.{idx}", layer
        for idx, layer in enumerate(self.classifier_layers):
            yield f"{self.CLASSIFIER_PREFIX}.{idx}", layer

    def _section_layers(self, section: str) -> List[Tuple[str, Layer]]:
        layers = (
            self.feature_layers if section == self.FEATURE_PREFIX else self.classifier_layers
        )
        return [(f"{section}.{idx}", layer) for idx, layer in enumerate(layers)]

    def _rebuild_flat_buffers(self) -> None:
        """(Re)allocate the per-section flat vectors and rebase all layers.

        Called from ``__init__`` and from ``__setstate__`` (pickling and
        deepcopy sever numpy view relationships).
        """
        self._sections = {
            section: _FlatSection(section, self._section_layers(section), self.dtype)
            for section in self.SECTIONS
        }
        # The legacy dict-view adapter and the kernel set alias the section
        # buffers just replaced, so any cached copy is stale now.
        self._trainable_cache = None
        self._kernels: Optional[tuple] = None
        self._batch_traces: Dict[Tuple[int, ...], PhaseTrace] = {}

    # Pickling and ``copy.deepcopy`` carry structure and parameter values
    # only: the flat buffers are rebuilt around the restored layers, and
    # kernel sets and the view caches are dropped (layers drop their own
    # scratch, see ``Layer.__getstate__``).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in ("_sections", "_trainable_cache", "_kernels", "_batch_traces"):
            del state[key]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rebuild_flat_buffers()

    def _kernel_sets(self) -> tuple:
        """``(kernels,)``, this model's one kernel set, or ``()`` for the layer loop.

        Built on first use: a :class:`~repro.nn.batched.BatchedModel` over
        this model's flat section vectors and nothing else, so the optimiser
        and the flat/dict weight API keep operating on the memory it reads.
        It runs training steps and inference passes of every batch shape, in
        the calling thread's :class:`~repro.nn.batched.Workspace`: a training
        step runs its backward before it returns, so no evaluation ever falls
        between the two.
        """
        if self._kernels is None:
            # Imported here: repro.nn.batched imports this module.
            from repro.nn.batched import solo_kernels

            kernels = solo_kernels(self)
            self._kernels = () if kernels is None else (kernels,)
        return self._kernels

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(section.size for section in self._sections.values())

    def num_feature_parameters(self) -> int:
        """Number of parameters in the feature (convolutional) section."""
        return self._sections[self.FEATURE_PREFIX].size

    def num_classifier_parameters(self) -> int:
        """Number of parameters in the classifier (fully connected) section."""
        return self._sections[self.CLASSIFIER_PREFIX].size

    # ------------------------------------------------------------ flat API
    def _section(self, section: str) -> _FlatSection:
        try:
            return self._sections[section]
        except KeyError:
            raise KeyError(
                f"unknown section {section!r}; valid sections: {list(self.SECTIONS)}"
            ) from None

    def flat_parameters(self, section: str) -> np.ndarray:
        """The *live* contiguous parameter vector of a section (no copy).

        In-place updates to this vector are immediately visible to every
        layer, because layer parameters are views into it.
        """
        return self._section(section).vector

    def flat_grads(self, section: str) -> np.ndarray:
        """The *live* contiguous gradient vector of a section (no copy)."""
        return self._section(section).grads

    def flat_slots(self, section: str) -> Tuple[FlatSlot, ...]:
        """Named (key, offset, size, shape) layout of a section's vector."""
        return self._section(section).slots

    def named_flat_views(self) -> Dict[str, np.ndarray]:
        """Mapping ``"<section>.<layer>.<param>"`` -> live view into the flat buffers."""
        views: Dict[str, np.ndarray] = {}
        for section in self.SECTIONS:
            views.update(self._sections[section].views)
        return views

    def get_flat_weights(self, section: Optional[str] = None) -> np.ndarray:
        """Copy of the parameters as one contiguous vector.

        ``section`` restricts the copy to ``"features"`` or ``"classifier"``;
        when omitted the sections are concatenated in :attr:`SECTIONS` order.
        """
        if section is not None:
            return self._section(section).vector.copy()
        return np.concatenate([self._sections[s].vector for s in self.SECTIONS])

    def set_flat_weights(self, values: np.ndarray, section: Optional[str] = None) -> None:
        """Load parameters from a flat vector produced by :meth:`get_flat_weights`."""
        values = np.asarray(values)
        if section is not None:
            target = self._section(section).vector
            if values.shape != target.shape:
                raise ValueError(
                    f"flat weights for section {section!r} must have shape {target.shape}, "
                    f"got {values.shape}"
                )
            target[...] = values
            return
        total = self.num_parameters()
        if values.shape != (total,):
            raise ValueError(
                f"flat weights for {self.name} must have shape ({total},), got {values.shape}"
            )
        offset = 0
        for name in self.SECTIONS:
            sec = self._sections[name]
            sec.vector[...] = values[offset : offset + sec.size]
            offset += sec.size

    # ------------------------------------------------------------ weights IO
    def get_weights(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters keyed ``"<section>.<layer>.<param>"``."""
        weights: Dict[str, np.ndarray] = {}
        for section in self.SECTIONS:
            for key, view in self._sections[section].views.items():
                weights[key] = np.array(view, copy=True)
        return weights

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        """Load parameters produced by :meth:`get_weights` (copied in place)."""
        for section in self.SECTIONS:
            for key, view in self._sections[section].views.items():
                if key not in weights:
                    raise KeyError(f"missing weight {key!r} when loading into {self.name}")
                incoming = weights[key]
                if incoming.shape != view.shape:
                    raise ValueError(
                        f"shape mismatch for {key!r}: model {view.shape}, incoming {incoming.shape}"
                    )
                view[...] = incoming

    def get_feature_weights(self) -> Dict[str, np.ndarray]:
        """Weights of the feature section only (offloaded to strong clients)."""
        return {
            key: np.array(view, copy=True)
            for key, view in self._sections[self.FEATURE_PREFIX].views.items()
        }

    def get_classifier_weights(self) -> Dict[str, np.ndarray]:
        """Weights of the classifier section only (kept by the weak client)."""
        return {
            key: np.array(view, copy=True)
            for key, view in self._sections[self.CLASSIFIER_PREFIX].views.items()
        }

    def set_partial_weights(self, weights: Dict[str, np.ndarray]) -> None:
        """Load a subset of weights (e.g. only the feature section) in place.

        Only the provided keys are written; everything else is untouched.
        All keys and shapes are validated *before* any write, so a bad
        payload leaves the model unchanged.
        """
        views = self.named_flat_views()
        for key, value in weights.items():
            if key not in views:
                raise KeyError(f"unknown weight {key!r} for model {self.name}")
            value = np.asarray(value)
            if value.shape != views[key].shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: model {views[key].shape}, "
                    f"incoming {value.shape}"
                )
        for key, value in weights.items():
            views[key][...] = value

    # ------------------------------------------------------------- inference
    def _cast_input(self, x: np.ndarray) -> np.ndarray:
        """Cast a batch to the model's compute dtype (no-op when it matches)."""
        if x.dtype == self.dtype:
            return x
        return x.astype(self.dtype)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Full forward pass returning logits.

        Runs the forward-only kernels (no pooling arg-max, no ReLU masks);
        ``training`` only reaches the layer loop of a model the kernels do
        not cover.  To drive ``layer.backward`` by hand, call
        :meth:`forward_layerwise` with ``training=True``.
        """
        kernels = self._kernel_sets()
        if not kernels:
            return self.forward_layerwise(x, training)
        # The logits are workspace scratch, dead at this thread's next
        # pass; the caller gets its own.
        return kernels[0].infer(self._cast_input(x)).copy()

    def forward_layerwise(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """:meth:`forward` through the layer objects (generic path and oracle)."""
        h = self._cast_input(x)
        for layer in self.feature_layers:
            h = layer.forward(h, training)
        for layer in self.classifier_layers:
            h = layer.forward(h, training)
        return h

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class labels for a batch of inputs."""
        return np.argmax(self.forward(x, training=False), axis=1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Predicted class probabilities for a batch of inputs."""
        return softmax(self.forward(x, training=False))

    # -------------------------------------------------------------- training
    def zero_grad(self) -> None:
        """Zero all gradients with one in-place fill per section vector."""
        for section in self._sections.values():
            section.grads.fill(0)

    def freeze_features(self) -> None:
        """Freeze the feature layers (skip ``bf`` and feature updates)."""
        self.features_frozen = True
        self._trainable_cache = None

    def unfreeze_features(self) -> None:
        """Undo :meth:`freeze_features`."""
        self.features_frozen = False
        self._trainable_cache = None

    def freeze_classifier(self) -> None:
        """Freeze the classifier parameters (used by strong clients that train
        offloaded feature layers: the classifier backward pass still runs so
        gradients reach the features, but classifier weights are not updated)."""
        self.classifier_frozen = True
        self._trainable_cache = None

    def unfreeze_classifier(self) -> None:
        """Undo :meth:`freeze_classifier`."""
        self.classifier_frozen = False
        self._trainable_cache = None

    def _trainable_sections(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Section name -> (parameter vector, gradient vector) for unfrozen sections."""
        sections: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        if not self.features_frozen:
            sec = self._sections[self.FEATURE_PREFIX]
            sections[self.FEATURE_PREFIX] = (sec.vector, sec.grads)
        if not self.classifier_frozen:
            sec = self._sections[self.CLASSIFIER_PREFIX]
            sections[self.CLASSIFIER_PREFIX] = (sec.vector, sec.grads)
        return sections

    def _trainable_params(self) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Per-key dict view of the unfrozen parameters (legacy adapter).

        The dicts only depend on the frozen-section mask and the section
        view tables, so they are cached and invalidated on freeze/unfreeze
        and on flat-buffer rebuilds; the cached values alias the flat
        section buffers, never copy them.
        """
        cached = self._trainable_cache
        if cached is not None:
            return cached
        params: Dict[str, np.ndarray] = {}
        grads: Dict[str, np.ndarray] = {}
        for name, section in self._sections.items():
            if self.features_frozen and name == self.FEATURE_PREFIX:
                continue
            if self.classifier_frozen and name == self.CLASSIFIER_PREFIX:
                continue
            params.update(section.views)
            grads.update(section.grad_views)
        self._trainable_cache = (params, grads)
        return params, grads

    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optional[Optimizer] = None,
    ) -> Tuple[float, PhaseTrace]:
        """Run one training step on a mini-batch.

        Executes the four phases in order and reports their FLOPs as a
        :class:`PhaseTrace`.  When the feature layers are frozen the ``bf``
        phase is skipped entirely, which is exactly the saving that Aergia's
        weak clients realise after offloading.

        The step runs on the channel-major kernels (see
        :meth:`_kernel_sets`) and its trace is the analytic
        :func:`phase_flops`; a model with a layer type the kernels do not
        cover runs :meth:`train_batch_layerwise` instead.  Both are bitwise
        the same function of the inputs.

        Parameters
        ----------
        x, y:
            Input batch and integer labels.
        optimizer:
            Optimiser applied to the (unfrozen) parameters; when ``None``
            gradients are computed but no update is applied.  The update is
            one fused vector operation per unfrozen section
            (:meth:`repro.nn.optim.Optimizer.step_flat`).

        Returns
        -------
        tuple
            ``(loss, phase_trace)``.
        """
        kernels = self._kernel_sets()
        if not kernels:
            return self.train_batch_layerwise(x, y, optimizer)
        step = kernels[0]
        step.features_frozen = self.features_frozen
        loss = step.train_step(self._cast_input(x), y)
        if optimizer is not None:
            optimizer.step_flat(self._trainable_sections())
        return loss, self.batch_trace(x.shape)

    def batch_trace(
        self, batch_shape: Tuple[int, ...], features_frozen: Optional[bool] = None
    ) -> PhaseTrace:
        """The trace :meth:`train_batch_layerwise` would record for a batch of
        this shape — what a step costs, known without running it.

        ``features_frozen`` defaults to this model's own flag.  A layer type
        with no analytic FLOP model is measured instead, by one layer-loop
        pass over zeros per shape: its counts are shape-derived all the same.
        """
        unfrozen = self._batch_traces.get(batch_shape)
        if unfrozen is None:
            try:
                unfrozen = phase_flops(self, batch_shape[0], batch_shape[1:])
            except TypeError:
                unfrozen = self._measured_trace(batch_shape)
            self._batch_traces[batch_shape] = unfrozen
        flops = dict(unfrozen.flops)
        if self.features_frozen if features_frozen is None else features_frozen:
            flops[Phase.BACKWARD_FEATURES] = 0.0
        return PhaseTrace(flops)

    def _measured_trace(self, batch_shape: Tuple[int, ...]) -> PhaseTrace:
        frozen = self.features_frozen
        self.features_frozen = False
        try:
            zeros = np.zeros(batch_shape, dtype=self.dtype)
            _, trace = self.train_batch_layerwise(zeros, np.zeros(batch_shape[0], dtype=int))
        finally:
            self.features_frozen = frozen
        return trace

    def train_batch_layerwise(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optional[Optimizer] = None,
    ) -> Tuple[float, PhaseTrace]:
        """:meth:`train_batch` through the layer objects, one at a time.

        The generic path: :meth:`train_batch` lands here for a model that
        holds a layer type without a channel-major kernel (the seed engine
        of :mod:`repro.nn.reference`, third-party layers).  Parity tests
        call it directly as the oracle of the kernel path; the per-phase
        FLOPs are read off the layers as they run.
        """
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"batch size mismatch: x has {x.shape[0]} rows, y has {y.shape[0]}")
        self.zero_grad()
        trace = PhaseTrace()

        # Phase ff: forward through the feature layers.
        h = self._cast_input(x)
        for layer in self.feature_layers:
            h = layer.forward(h, training=True)
            trace.add(Phase.FORWARD_FEATURES, layer.last_forward_flops)

        # Phase fc: forward through the classifier layers.
        logits = h
        for layer in self.classifier_layers:
            logits = layer.forward(logits, training=True)
            trace.add(Phase.FORWARD_CLASSIFIER, layer.last_forward_flops)

        loss, grad = self.loss_fn.forward_backward(logits, y)

        # Phase bc: backward through the classifier layers.
        for layer in reversed(self.classifier_layers):
            grad = layer.backward(grad)
            trace.add(Phase.BACKWARD_CLASSIFIER, layer.last_backward_flops)

        # Phase bf: backward through the feature layers (skipped when frozen).
        if not self.features_frozen:
            for layer in reversed(self.feature_layers):
                grad = layer.backward(grad)
                trace.add(Phase.BACKWARD_FEATURES, layer.last_backward_flops)

        if optimizer is not None:
            optimizer.step_flat(self._trainable_sections())

        return loss, trace

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = EVALUATION_BATCH
    ) -> Tuple[float, float]:
        """Compute mean loss and accuracy over a dataset.

        Evaluation is performed in mini-batches to bound memory use on the
        larger synthetic datasets.
        """
        if x.shape[0] == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        total_loss = 0.0
        correct = 0
        n = x.shape[0]
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.forward(xb, training=False)
            total_loss += self.loss_fn.forward(logits, yb) * xb.shape[0]
            correct += int((np.argmax(logits, axis=1) == yb).sum())
        return total_loss / n, correct / n

    def prepare_evaluation(self, num_samples: int, input_shape: Sequence[int]) -> None:
        """Decide now what the first :meth:`evaluate` over ``num_samples``
        samples would probe, one zero-input pass per batch size.

        Its first pass at a batch size probes the blocked conv GEMMs against
        an oracle that unfolds the whole batch (``BatchedModel.warm_up``);
        ``build_experiment`` calls this before it loads the dataset, so that
        transient never stacks on a run's working set.  A no-op for a model
        on the layer loop.
        """
        kernels = self._kernel_sets()
        if kernels:
            for n in evaluation_batch_sizes(num_samples):
                kernels[0].warm_up((n, *input_shape), self.name)

    def phase_trace_for_batch(self, x: np.ndarray, y: np.ndarray) -> PhaseTrace:
        """Measure per-phase FLOPs of one batch without updating weights."""
        snapshot = self.get_flat_weights()
        _, trace = self.train_batch(x, y, optimizer=None)
        self.set_flat_weights(snapshot)
        return trace

    def clone_architecture(self) -> "SplitCNN":
        """Create a structurally identical model sharing no arrays with the original.

        Copies structure and parameter values only (see ``__getstate__``):
        no layer scratch, no activation caches, no kernel sets.  Callers
        typically follow up with :meth:`set_weights` (or
        :meth:`set_flat_weights`) to copy the state.
        """
        clone = copy.deepcopy(self)
        clone.unfreeze_features()
        clone.unfreeze_classifier()
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SplitCNN(name={self.name!r}, features={len(self.feature_layers)} layers, "
            f"classifier={len(self.classifier_layers)} layers, params={self.num_parameters()})"
        )
