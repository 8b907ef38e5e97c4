"""Neural-network layers with forward/backward passes and FLOP accounting.

Every layer exposes:

* :meth:`Layer.forward` / :meth:`Layer.backward` — real numpy math,
* :attr:`Layer.params` / :attr:`Layer.grads` — named parameter and gradient
  arrays (empty for stateless layers),
* :attr:`Layer.last_forward_flops` / :attr:`Layer.last_backward_flops` —
  the floating-point operation counts of the most recent forward/backward
  call.  The cluster simulator converts these counts into virtual seconds,
  which is how the reproduction recreates the heterogeneous training times
  of the paper's Docker/Kubernetes testbed without real CPU throttling.

Layers operate on arrays of their parameters' dtype (``float32``, see
:mod:`repro.nn.dtype`; ``float64`` when a test builds one so) in
``(N, C, H, W)`` layout for images and ``(N, F)`` layout for flat features.

The per-batch path is engineered to be allocation-free where possible:
scratch buffers (im2col columns, padded inputs, ReLU masks, pooling
windows) are reused across same-shape batches, ``zero_grad`` fills
existing gradient buffers in place, and ``MaxPool2D`` caches the flat
indices of each window's maximum instead of materialising boolean masks.
Every optimisation preserves the exact floating-point operation order of
the original implementation: a ``float64`` layer is bit-identical with the
seed engine's (:mod:`repro.nn.reference`, which the parity tests hold it
to).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.dtype import DtypeLike
from repro.nn.initializers import he_normal, zeros


def _scratch(current: Optional[np.ndarray], shape: Tuple[int, ...], dtype) -> np.ndarray:
    """Return ``current`` if it matches ``shape``/``dtype``, else a new buffer."""
    if current is not None and current.shape == shape and current.dtype == dtype:
        return current
    return np.empty(shape, dtype=dtype)


class Layer:
    """Base class for all layers.

    Subclasses must implement :meth:`forward` and :meth:`backward` and keep
    ``self._params`` / ``self._grads`` dictionaries in sync.  Gradients are
    *accumulated into* ``self._grads`` on each backward call after being
    reset by :meth:`zero_grad`.
    """

    #: Instance attributes that hold per-batch scratch or activation caches.
    #: Pickling and ``copy.deepcopy`` reset them to ``None``: a copy carries
    #: structure and parameters, and rebuilds scratch on its next forward.
    _transient: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._params: Dict[str, np.ndarray] = {}
        self._grads: Dict[str, np.ndarray] = {}
        self.last_forward_flops: int = 0
        self.last_backward_flops: int = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.update(dict.fromkeys(self._transient))
        return state

    # ------------------------------------------------------------------ API
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def params(self) -> Dict[str, np.ndarray]:
        """Named trainable parameters of this layer."""
        return self._params

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Named gradients, matching :attr:`params` keys and shapes."""
        return self._grads

    def zero_grad(self) -> None:
        """Reset all gradient buffers to zero (in place, without reallocating)."""
        for key, value in self._params.items():
            grad = self._grads.get(key)
            if grad is not None and grad.shape == value.shape and grad.dtype == value.dtype:
                grad.fill(0)
            else:
                self._grads[key] = np.zeros_like(value)

    def rebase_parameters(
        self,
        param_views: Dict[str, np.ndarray],
        grad_views: Dict[str, np.ndarray],
    ) -> None:
        """Move parameters and gradients onto externally owned array views.

        :class:`repro.nn.model.SplitCNN` uses this to place every parameter
        of a model section into one contiguous flat buffer; the views keep
        the per-layer dict API intact while aggregation and optimiser steps
        operate on the underlying vector.  Current values are copied into
        the views (casting to the view dtype if necessary).
        """
        for key in self._params:
            view = param_views[key]
            view[...] = self._params[key]
            self._params[key] = view
            gview = grad_views[key]
            old_grad = self._grads.get(key)
            if old_grad is not None and old_grad.shape == gview.shape:
                gview[...] = old_grad
            else:
                gview.fill(0)
            self._grads[key] = gview

    def num_parameters(self) -> int:
        """Total number of scalar parameters in this layer."""
        return int(sum(p.size for p in self._params.values()))

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape (excluding the batch dimension) produced for ``input_shape``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}()"


# --------------------------------------------------------------------------
# Convolution
# --------------------------------------------------------------------------
class Conv2D(Layer):
    """2D convolution layer (``NCHW`` layout) implemented with im2col.

    Parameters
    ----------
    in_channels, out_channels:
        Number of input and output feature maps.
    kernel_size:
        Side of the square convolution kernel.
    stride:
        Convolution stride (same in both spatial dimensions).
    padding:
        Symmetric zero padding.
    rng:
        Generator used for He-normal weight initialisation.  A default
        generator is created when omitted, which is convenient in tests but
        should be avoided in experiments that must be reproducible.
    dtype:
        Parameter dtype; defaults to :data:`repro.nn.dtype.COMPUTE_DTYPE`.

    The im2col column matrix — the largest per-batch intermediate, ``k**2``
    times the input size — lives in a scratch buffer that is reused across
    batches of the same shape.  Training and inference use separate column
    scratches so that an evaluation pass between ``forward(training=True)``
    and ``backward`` cannot clobber the cached activations.
    """

    _transient = (
        "_cache_cols",
        "_cols_train",
        "_cols_eval",
        "_pad_scratch",
        "_grad_cols_scratch",
        "_col2im_scratch",
    )

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
        dtype: Optional[DtypeLike] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

        fan_in = in_channels * kernel_size * kernel_size
        self._params["W"] = he_normal(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng, dtype=dtype
        )
        self._params["b"] = zeros((out_channels,), dtype=dtype)
        self.zero_grad()

        self._cache_cols: Optional[np.ndarray] = None
        self._cache_x_shape: Optional[Tuple[int, int, int, int]] = None
        # Reused scratch buffers (see class docstring).
        self._cols_train: Optional[np.ndarray] = None
        self._cols_eval: Optional[np.ndarray] = None
        self._pad_scratch: Optional[np.ndarray] = None
        self._grad_cols_scratch: Optional[np.ndarray] = None
        self._col2im_scratch: Optional[np.ndarray] = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        return (self.out_channels, out_h, out_w)

    # ------------------------------------------------------------- im2col
    def _padded(self, x: np.ndarray) -> np.ndarray:
        """Zero-padded input, built in a reused scratch buffer.

        Only the interior is rewritten on each call; the zero border is
        written once when the buffer is (re)allocated and stays untouched.
        """
        p = self.padding
        if p == 0:
            return x
        n, c, h, w = x.shape
        shape = (n, c, h + 2 * p, w + 2 * p)
        if (
            self._pad_scratch is None
            or self._pad_scratch.shape != shape
            or self._pad_scratch.dtype != x.dtype
        ):
            self._pad_scratch = np.zeros(shape, dtype=x.dtype)
        self._pad_scratch[:, :, p:-p, p:-p] = x
        return self._pad_scratch

    def _im2col(self, x: np.ndarray, training: bool) -> np.ndarray:
        """Patch-to-column rearrangement into a reused scratch buffer.

        Returns a C-contiguous array of shape ``(N, out_h, out_w, C*k*k)``.
        """
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        shape = (n, out_h, out_w, c * k * k)
        if training:
            cols = self._cols_train = _scratch(self._cols_train, shape, x.dtype)
        else:
            cols = self._cols_eval = _scratch(self._cols_eval, shape, x.dtype)
        padded = self._padded(x)
        cols6 = cols.reshape(n, out_h, out_w, c, k, k)
        # One C-level strided copy via a sliding-window view instead of k*k
        # per-offset slice assignments (~3x faster for 5x5 kernels).
        windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
        np.copyto(cols6, windows[:, :, ::s, ::s].transpose(0, 2, 3, 1, 4, 5))
        return cols

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n = x.shape[0]
        k = self.kernel_size
        cols = self._im2col(x, training)
        out_h, out_w = cols.shape[1], cols.shape[2]

        w_mat = self._params["W"].reshape(self.out_channels, -1)
        out = cols.reshape(n * out_h * out_w, -1) @ w_mat.T
        out += self._params["b"]
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

        if training:
            self._cache_cols = cols
            self._cache_x_shape = x.shape

        # 2 flops (mul + add) per MAC.
        macs = n * out_h * out_w * self.out_channels * self.in_channels * k * k
        self.last_forward_flops = 2 * macs
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_cols is None or self._cache_x_shape is None:
            raise RuntimeError("Conv2D.backward called before forward(training=True)")
        n, _, out_h, out_w = grad_out.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        cols = self._cache_cols
        w_mat = self._params["W"].reshape(self.out_channels, -1)

        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, self.out_channels)
        cols_flat = cols.reshape(n * out_h * out_w, -1)

        grad_w = grad_flat.T @ cols_flat
        self._grads["W"] += grad_w.reshape(self._params["W"].shape)
        self._grads["b"] += grad_flat.sum(axis=0)

        result_dtype = np.result_type(grad_flat.dtype, w_mat.dtype)
        self._grad_cols_scratch = _scratch(
            self._grad_cols_scratch, (grad_flat.shape[0], w_mat.shape[1]), result_dtype
        )
        grad_cols = np.matmul(grad_flat, w_mat, out=self._grad_cols_scratch)

        # col2im: accumulate overlapping patches into a reused padded buffer.
        _, c, h, w = self._cache_x_shape
        acc_shape = (n, c, h + 2 * p, w + 2 * p)
        self._col2im_scratch = _scratch(self._col2im_scratch, acc_shape, result_dtype)
        acc = self._col2im_scratch
        acc.fill(0)
        gc6 = grad_cols.reshape(n, out_h, out_w, c, k, k)
        for i in range(k):
            i_max = i + s * out_h
            for j in range(k):
                j_max = j + s * out_w
                acc[:, :, i:i_max:s, j:j_max:s] += gc6[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        grad_x = acc[:, :, p:-p, p:-p].copy() if p > 0 else acc.copy()

        macs = n * out_h * out_w * self.out_channels * self.in_channels * k * k
        self.last_backward_flops = 4 * macs  # dW and dX matmuls
        return grad_x

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )


# --------------------------------------------------------------------------
# Pooling
# --------------------------------------------------------------------------
class MaxPool2D(Layer):
    """Max pooling with a square window and equal stride.

    The spatial dimensions must be divisible by ``pool_size``; the
    architectures in :mod:`repro.nn.architectures` are built so that this
    always holds.

    Instead of materialising a 6-D boolean mask plus a per-window tie-break
    matrix on every forward pass, the layer caches one flat ``intp`` index
    per pooling window — the position of the window's first maximum in the
    flattened input — and the backward pass scatters the upstream gradient
    through those indices.  Ties resolve to the first maximum in row-major
    window order, exactly as before.
    """

    _transient = ("_cache_flat_idx", "_idx_scratch", "_eq_scratch", "_base_offsets")

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        self.pool_size = pool_size
        self._cache_flat_idx: Optional[np.ndarray] = None
        self._cache_shape: Optional[Tuple[int, ...]] = None
        self._idx_scratch: Optional[np.ndarray] = None
        self._eq_scratch: Optional[np.ndarray] = None
        self._base_shape: Optional[Tuple[int, ...]] = None
        self._base_offsets: Optional[np.ndarray] = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        if h % self.pool_size or w % self.pool_size:
            raise ValueError(
                f"MaxPool2D requires spatial dims divisible by {self.pool_size}, got {input_shape}"
            )
        return (c, h // self.pool_size, w // self.pool_size)

    def _window_base_offsets(self, shape: Tuple[int, int, int, int]) -> np.ndarray:
        """Flat index of each pooling window's top-left corner (cached per shape)."""
        if self._base_shape == shape and self._base_offsets is not None:
            return self._base_offsets
        n, c, h, w = shape
        p = self.pool_size
        rows = np.arange(0, h, p, dtype=np.intp) * w
        cols = np.arange(0, w, p, dtype=np.intp)
        plane = (rows[:, None] + cols[None, :]).ravel()  # (h//p * w//p,)
        images = np.arange(n * c, dtype=np.intp) * (h * w)
        self._base_offsets = (images[:, None] + plane[None, :]).ravel()
        self._base_shape = shape
        return self._base_offsets

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        p = self.pool_size
        if h % p or w % p:
            raise ValueError(f"MaxPool2D input spatial dims {h}x{w} not divisible by {p}")
        reshaped = x.reshape(n, c, h // p, p, w // p, p)
        # One strided view per in-window position, in row-major window order;
        # a pairwise np.maximum sweep over these is far faster than an
        # axis-reduction over tiny p*p rows (and bit-identical: max is exact).
        columns = [reshaped[:, :, :, i, :, j] for i in range(p) for j in range(p)]
        out = np.empty((n, c, h // p, w // p), dtype=x.dtype)
        if len(columns) == 1:
            np.copyto(out, columns[0])
        else:
            np.maximum(columns[0], columns[1], out=out)
            for column in columns[2:]:
                np.maximum(out, column, out=out)

        if training:
            # First max of each window: sweep positions from last to first so
            # the smallest matching index wins, which reproduces the original
            # boolean-mask tie-break (first max in row-major window order).
            shape = out.shape
            idx = self._idx_scratch = _scratch(self._idx_scratch, shape, np.intp)
            eq = self._eq_scratch = _scratch(self._eq_scratch, shape, bool)
            idx.fill(len(columns) - 1)
            for t in range(len(columns) - 2, -1, -1):
                np.equal(columns[t], out, out=eq)
                np.copyto(idx, t, where=eq)
            flat = idx.reshape(-1)
            in_row, in_col = np.divmod(flat, p)
            np.multiply(in_row, w, out=in_row)
            in_row += in_col
            in_row += self._window_base_offsets(x.shape)
            self._cache_flat_idx = in_row
            self._cache_shape = x.shape

        self.last_forward_flops = x.size
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_flat_idx is None or self._cache_shape is None:
            raise RuntimeError("MaxPool2D.backward called before forward(training=True)")
        n, c, h, w = self._cache_shape
        grad = np.zeros(n * c * h * w, dtype=grad_out.dtype)
        grad[self._cache_flat_idx] = grad_out.ravel()
        self.last_backward_flops = grad.size
        return grad.reshape(n, c, h, w)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MaxPool2D(pool_size={self.pool_size})"


# --------------------------------------------------------------------------
# Activations and reshaping
# --------------------------------------------------------------------------
class ReLU(Layer):
    """Rectified linear unit activation.

    The backward mask (``x > 0``) is stored in a compact boolean scratch
    buffer that is reused across same-shape batches.
    """

    _transient = ("_cache_mask",)

    def __init__(self) -> None:
        super().__init__()
        self._cache_mask: Optional[np.ndarray] = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = np.maximum(x, 0.0)
        if training:
            if self._cache_mask is None or self._cache_mask.shape != x.shape:
                self._cache_mask = np.empty(x.shape, dtype=bool)
            np.greater(x, 0.0, out=self._cache_mask)
        self.last_forward_flops = x.size
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_mask is None:
            raise RuntimeError("ReLU.backward called before forward(training=True)")
        self.last_backward_flops = grad_out.size
        return grad_out * self._cache_mask


class Flatten(Layer):
    """Flatten ``(N, C, H, W)`` feature maps into ``(N, C*H*W)`` vectors."""

    def __init__(self) -> None:
        super().__init__()
        self._cache_shape: Optional[Tuple[int, ...]] = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._cache_shape = x.shape
        self.last_forward_flops = 0
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise RuntimeError("Flatten.backward called before forward(training=True)")
        self.last_backward_flops = 0
        return grad_out.reshape(self._cache_shape)


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    _transient = ("_cache_x",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        dtype: Optional[DtypeLike] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self._params["W"] = he_normal((in_features, out_features), in_features, rng, dtype=dtype)
        self._params["b"] = zeros((out_features,), dtype=dtype)
        self.zero_grad()
        self._cache_x: Optional[np.ndarray] = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.out_features,)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._cache_x = x
        self.last_forward_flops = 2 * x.shape[0] * self.in_features * self.out_features
        out = x @ self._params["W"]
        out += self._params["b"]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise RuntimeError("Dense.backward called before forward(training=True)")
        x = self._cache_x
        self._grads["W"] += x.T @ grad_out
        self._grads["b"] += grad_out.sum(axis=0)
        self.last_backward_flops = 4 * x.shape[0] * self.in_features * self.out_features
        return grad_out @ self._params["W"].T

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dense({self.in_features}, {self.out_features})"


# --------------------------------------------------------------------------
# Residual block (used by the ResNet-style profiling architectures)
# --------------------------------------------------------------------------
class ResidualBlock(Layer):
    """Two-convolution residual block with identity (or projected) skip.

    ``out = ReLU(conv2(ReLU(conv1(x))) + skip(x))`` where ``skip`` is the
    identity when the channel counts match and a 1x1 convolution otherwise.
    Parameters of inner layers are exposed with ``conv1.``/``conv2.``/
    ``proj.`` prefixes so that the model-level weight dictionaries stay flat.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: Optional[np.random.Generator] = None,
        dtype: Optional[DtypeLike] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.conv1 = Conv2D(in_channels, out_channels, 3, padding=1, rng=rng, dtype=dtype)
        self.relu1 = ReLU()
        self.conv2 = Conv2D(out_channels, out_channels, 3, padding=1, rng=rng, dtype=dtype)
        self.relu_out = ReLU()
        self.proj: Optional[Conv2D] = None
        if in_channels != out_channels:
            self.proj = Conv2D(in_channels, out_channels, 1, rng=rng, dtype=dtype)
        self._sync_param_views()

    def _sublayers(self) -> List[Tuple[str, Layer]]:
        subs: List[Tuple[str, Layer]] = [("conv1", self.conv1), ("conv2", self.conv2)]
        if self.proj is not None:
            subs.append(("proj", self.proj))
        return subs

    def _sync_param_views(self) -> None:
        self._params = {}
        self._grads = {}
        for prefix, sub in self._sublayers():
            for key, value in sub.params.items():
                self._params[f"{prefix}.{key}"] = value
            for key, value in sub.grads.items():
                self._grads[f"{prefix}.{key}"] = value

    def zero_grad(self) -> None:
        for _, sub in self._sublayers():
            sub.zero_grad()
        self._sync_param_views()

    def rebase_parameters(
        self,
        param_views: Dict[str, np.ndarray],
        grad_views: Dict[str, np.ndarray],
    ) -> None:
        """Delegate rebasing to sub-layers, then refresh the flattened views."""
        for prefix, sub in self._sublayers():
            lead = prefix + "."
            sub.rebase_parameters(
                {key[len(lead):]: view for key, view in param_views.items() if key.startswith(lead)},
                {key[len(lead):]: view for key, view in grad_views.items() if key.startswith(lead)},
            )
        self._sync_param_views()

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return self.conv2.output_shape(self.conv1.output_shape(input_shape))

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        h = self.conv1.forward(x, training)
        h = self.relu1.forward(h, training)
        h = self.conv2.forward(h, training)
        shortcut = x if self.proj is None else self.proj.forward(x, training)
        out = self.relu_out.forward(h + shortcut, training)
        self.last_forward_flops = (
            self.conv1.last_forward_flops
            + self.relu1.last_forward_flops
            + self.conv2.last_forward_flops
            + (self.proj.last_forward_flops if self.proj is not None else 0)
            + self.relu_out.last_forward_flops
            + h.size
        )
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_sum = self.relu_out.backward(grad_out)
        grad_h = self.conv2.backward(grad_sum)
        grad_h = self.relu1.backward(grad_h)
        grad_x = self.conv1.backward(grad_h)
        if self.proj is not None:
            grad_x = grad_x + self.proj.backward(grad_sum)
        else:
            grad_x = grad_x + grad_sum
        self._sync_param_views()
        self.last_backward_flops = (
            self.conv1.last_backward_flops
            + self.relu1.last_backward_flops
            + self.conv2.last_backward_flops
            + (self.proj.last_backward_flops if self.proj is not None else 0)
            + self.relu_out.last_backward_flops
            + grad_out.size
        )
        return grad_x

    def __repr__(self) -> str:  # pragma: no cover
        return f"ResidualBlock({self.in_channels}, {self.out_channels})"
