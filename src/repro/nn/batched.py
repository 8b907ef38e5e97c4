"""The channel-major compute kernels.

One kernel set computes every training step and every inference pass of a
kernel-covered :class:`~repro.nn.model.SplitCNN`: :class:`BatchedModel`
runs forward / backward / loss of *one* model over that model's own
parameter and gradient views, so whatever writes its flat section vectors
(optimiser steps, weight loads, a shard worker's result being adopted) is
what the next pass reads.  Nothing larger than one client's training step
runs on a thread: a round's clients step one by one, each at its own
simulated events (or, with ``shards``, on the worker process that owns
them, see :mod:`repro.simulation.shard`).

What makes the kernels fast is their layout: channel-major ``(C, N, H, W)``
activations (the classifier sees ``(N, features)``), pad and pool staging
fused into the consumer's pad buffer, col2im as flat shifted adds over a
width-padded grid, no input-layer dX.

A kernel set holds nothing but views of its model's flat parameter and
gradient vectors, so a model has one, for every batch shape and both kinds
of pass.  Every buffer a pass writes and reads back — conv pad buffers,
im2col blocks, activations, grad-cols, pooling masks — is carved from the
calling thread's :class:`Workspace`, so a thread holds the scratch of its
*largest* pass, in the steady state one client's training step, not of
every model it ever ran; the rule that makes that safe (nothing taken from
the workspace is read after the pass that took it), and the one larger
transient (a blocked-forward probe, which :meth:`BatchedModel.warm_up`
runs at build time), are stated there.

Parity contract
---------------
Every kernel reproduces the exact floating-point operation order of the
layer it stands for in :mod:`repro.nn.layers`, relying only on
transformations that are bitwise-exact (GEMMs over the same operands,
elementwise ops, per-row reductions); the loss is
:class:`repro.nn.loss.CrossEntropyLoss` itself and the optimisers are
:mod:`repro.nn.optim`'s, stepped by the model.  Where a GEMM is issued in
another orientation or in column blocks, equality with the oracle's
product is probed at the exact shape and a rejected shape takes the
oracle's own layout.  The layer-by-layer loop
(``SplitCNN.train_batch_layerwise`` / ``forward_layerwise``) stays on as
the *parity oracle* — and as the generic path for a model with a layer
type this module has no kernel for: the kernels must reproduce it bit for
bit, which the test suite pins.

Timing is untouched: batch durations come from analytic
:class:`~repro.nn.model.PhaseTrace` FLOP counts (identical to what the
layer loop records), so the discrete-event loop — stragglers, deadlines,
churn, transport faults — behaves exactly as before.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, ResidualBlock
from repro.nn.loss import CrossEntropyLoss
from repro.nn.model import SplitCNN


#: Scratch views start on a cache line.
_ALIGN = 64


def _aligned_block(nbytes: int) -> Tuple[np.ndarray, int]:
    """A fresh byte block and the offset of its first aligned byte."""
    block = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    return block, -block.ctypes.data % _ALIGN


class _Arena:
    """A bump allocator over one block of raw bytes, used as a stack.

    :meth:`take` carves aligned views off the block in call order,
    :meth:`release` hands back everything taken since a :meth:`mark`, and
    :meth:`reset` — once per kernel pass — hands the whole block out again.
    The block grows only *between* passes: a pass that outgrows it gets a
    private overflow block per request that does not fit, and the next
    ``reset`` replaces the block with one of that pass's high-water mark.
    So the block is as large as the largest pass so far asked for at any
    one moment, and no setting sizes it.
    """

    __slots__ = ("_block", "_origin", "_capacity", "_used", "_peak")

    def __init__(self) -> None:
        self._block: Optional[np.ndarray] = None
        self._origin = 0
        self._capacity = 0
        self._used = 0
        self._peak = 0

    def reset(self) -> None:
        demand = max(self._peak, self._used)
        if demand > self._capacity:
            self._block = None  # released first: old and new never coexist
            self._block, self._origin = _aligned_block(demand)
            self._capacity = demand
        self._used = self._peak = 0

    def take(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised ``shape``/``dtype`` array, dead after this pass."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        start = self._used
        self._used = start + nbytes + -nbytes % _ALIGN
        if self._used <= self._capacity:
            return np.ndarray(shape, dtype, self._block, self._origin + start)
        return np.ndarray(shape, dtype, *_aligned_block(nbytes))

    def mark(self) -> int:
        return self._used

    def release(self, mark: int, counted: bool = True) -> None:
        """Every view taken since ``mark`` is dead: the next take aliases it.
        Uncounted, it leaves the high-water mark alone (a probe's operands
        do not size the block of the pass they decide)."""
        if counted:
            self._peak = max(self._peak, self._used)
        self._used = mark


class Workspace(threading.local):
    """The scratch of every kernel pass on one thread.

    A kernel set holds views of its model's weights and gradients and
    nothing else; everything a pass writes and reads back within the pass —
    conv pad buffers, im2col blocks, activations, grad-cols, pooling masks,
    the operands of a GEMM probe — is carved from here.  Per thread, because
    ``repro serve`` trains hosted runs on worker threads of one process
    (shard and sweep workers are processes).

    One arena: :meth:`BatchedModel.train_step` (backward included) and
    :meth:`BatchedModel.infer` each reset it and run to completion, so two
    passes never overlap on a thread, and

    **nothing taken from the workspace may be read after the pass that took
    it** — the next pass *of any kind, of any model on this thread*
    overwrites it.  ``SplitCNN.forward`` copies the logits out,
    ``train_step`` returns the loss as a float, and a layer's forward cache
    is consumed (and dropped: a kept view would pin a block the arena has
    since replaced) by the same step's backward.

    A forward that keeps nothing for a backward (inference, frozen
    features) releases each conv's im2col block once its GEMM has run, so
    it holds its widest layer, not all of them — and of that layer one
    block of ``_FORWARD_BLOCK`` samples unfolded, not the batch; a training
    forward releases nothing, because its backward reads those blocks.  So
    the arena of a thread settles at one client's training step; only the
    blocked-forward probe, once per shape and process, carves more (the
    oracle's whole-batch operand, as overflow that is freed with the pass),
    and an experiment has it carved at build time, before its dataset
    exists (:meth:`BatchedModel.warm_up`).
    """

    def __init__(self) -> None:
        self.arena = _Arena()


_WORKSPACE = Workspace()


# ---------------------------------------------------------------------------
# Layer kernels (exact op-order mirrors of repro.nn.layers)
# ---------------------------------------------------------------------------
class _BatchedLayer:
    """Base for the kernel mirrors of :mod:`repro.nn.layers`.

    A mirror of a layer with parameters reads and writes that layer's own
    ``params`` / ``grads`` arrays: views into the model's flat section
    vectors.
    """

    def forward(self, x, training: bool = True):
        """``training=False`` skips whatever only ``backward`` reads."""
        raise NotImplementedError

    def backward(self, grad_out, need_input_grad: bool = True):
        raise NotImplementedError


def _probe_operand(rng: np.random.Generator, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """``rng.standard_normal(shape).astype(dtype)``, staging included, in workspace bytes."""
    out = _WORKSPACE.arena.take(shape, dtype)
    out[...] = rng.standard_normal(out=_WORKSPACE.arena.take(shape, np.float64))
    return out


#: A probe's verdict rests on at least this many compared outputs.  Two
#: reduction orders agree on most single elements (nine in ten of a 20-term
#: float64 dot), so a product with a handful of outputs — a thin conv, a
#: one-wide operand that turns the GEMM into a GEMV — passed on a lucky
#: draw; it is probed on as many draws as it takes instead.  The convs of
#: the registered networks need at most six.
_PROBE_MIN_OUTPUTS = 1024

#: Held while a probe cache miss is filled.  ``repro serve`` builds and runs
#: hosted runs on threads of one process: two runs of one architecture
#: would otherwise both miss a fresh key and run its probe side by side,
#: each thread holding the operands.
_PROBE_LOCK = threading.Lock()


def _known(verdict) -> bool:
    return verdict is not None


def _known_for_training(verdict) -> bool:
    """A forward-only GEMM probe leaves the backward verdicts ``None``."""
    return verdict is not None and verdict[1] is not None


def _verdict(cache: dict, key: tuple, settled, probe, *args):
    """``cache[key]``, computed as ``probe(*args)`` when it is not ``settled``.

    A miss is looked up again and filled under :data:`_PROBE_LOCK`, so a key
    is probed once however many threads ask for it at the same moment.
    """
    verdict = cache.get(key)
    if not settled(verdict):
        with _PROBE_LOCK:
            verdict = cache.get(key)
            if not settled(verdict):
                verdict = cache[key] = probe(*args)
    return verdict


_GEMM_PROBE_CACHE: Dict[tuple, Tuple[bool, Optional[str], Optional[bool]]] = {}


def _probe_fast_gemms(
    geometry: Tuple[int, int, int, int], ckk: int, oc: int, dtype, backward: bool = True
) -> Tuple[bool, Optional[str], Optional[bool]]:
    """Check the channel-major GEMMs of one conv geometry bitwise.

    ``geometry`` is ``(n, out_h, out_w, wp)``: batch size, output map and
    the padded input's width (the row pitch of the input-gradient grid).
    BLAS picks its blocking from shapes and operand layouts, never from
    values, so random probes at the exact shapes decide equality for every
    input.  Compares the 2-D GEMMs exactly as :class:`_BatchedConv2D`
    issues them (transposed-view operands and the width-padded grid
    included) against the oracle's 2-D GEMMs;
    a failing GEMM is routed through the oracle's exact operand layout
    instead.

    Returns ``(fwd_ok, gw_mode, dx_ok)``.  ``gw_mode`` picks between two
    fast weight-gradient orientations: ``"csT"`` computes the transposed
    gradient ``colsT @ gradT.T`` (a wide-N GEMM, typically ~2x the speed of
    the reduction-heavy direct form on OpenBLAS) and ``"gT"`` the direct
    ``gradT @ colsT.T``; ``"slow"`` falls back to the oracle layout.
    ``dx_ok`` is the input-gradient GEMM ``w_mat.T @ grid`` over the
    ``(oc, out_h * wp * n)`` grid: its real columns must carry the
    oracle's ``grad @ w_mat`` bit for bit, wherever the junk columns put
    them in BLAS's blocking.

    ``backward=False`` is an inference pass asking: only the forward
    orientation is probed (``gw_mode`` and ``dx_ok`` come back ``None``
    unless a training pass at this geometry already filled them in), so a
    shape that never trains — a 256-sample evaluation batch, the largest
    GEMM of a process — never builds the gradient operands or runs the five
    backward GEMMs.  Either way the operands are the same draws.

    Operands and products are workspace scratch, released uncounted, and the
    im2col operand is one buffer written in the oracle's layout, then the
    kernels': a rank-one product (docs/architecture.md, "A probe costs no
    more than the pass it decides").

    For a batch of one sample the oracle's ``(rows, oc)`` output gradient is
    not a row-major copy but a transposed view of the ``(oc, rows)`` feature
    map (numpy reshapes a lone sample without copying), so its backward
    GEMMs see different operand layouts; the probe compares against those.
    """
    key = geometry + (ckk, oc, np.dtype(dtype).char)
    settled = _known_for_training if backward else _known
    return _verdict(_GEMM_PROBE_CACHE, key, settled, _fast_gemm_verdicts, geometry, ckk, oc, dtype, backward)


def _fast_gemm_verdicts(geometry, ckk, oc, dtype, backward):
    n, out_h, out_w, wp = geometry
    rows = n * out_h * out_w
    fewest = min(oc * rows, ckk * oc, ckk * rows) if backward else oc * rows
    draws = -(-_PROBE_MIN_OUTPUTS // fewest)
    fwd = csT = gT = dx = True
    rng = np.random.default_rng(0xC0FFEE)
    arena = _WORKSPACE.arena
    take = arena.take
    start = arena.mark()
    for _ in range(draws):
        u = _probe_operand(rng, (ckk,), dtype)
        v = _probe_operand(rng, (rows,), dtype)
        w_mat = _probe_operand(rng, (oc, ckk), dtype)
        if backward:
            gradT = _probe_operand(rng, (oc, rows), dtype)
            # Oracle layout (rows, oc): a view of the feature map for a lone sample.
            grad = gradT.T
            if n > 1:
                grad = take((rows, oc), dtype)
                grad[...] = gradT.T
        tail = arena.mark()
        im2col = take((ckk * rows,), dtype)
        cols = np.multiply.outer(v, u, out=im2col.reshape(rows, ckk))
        fwd_oracle = np.matmul(cols, w_mat.T, out=take((rows, oc), dtype))
        if backward:
            gw_oracle = np.matmul(grad.T, cols, out=take((oc, ckk), dtype))
        colsT = np.multiply.outer(u, v, out=im2col.reshape(ckk, rows))
        fwd_fast = np.matmul(w_mat, colsT, out=take((oc, rows), dtype))
        fwd = fwd and np.array_equal(fwd_fast, fwd_oracle.T)
        if backward:
            gw = np.matmul(colsT, gradT.T, out=take((ckk, oc), dtype))
            csT = csT and np.array_equal(gw.T, gw_oracle)
            # The direct form only counts once "csT" has failed, which a lone
            # draw knows before running it (it is the slowest GEMM here).
            if gT and not (csT and draws == 1):
                gw = np.matmul(gradT, colsT.T, out=take((oc, ckk), dtype))
                gT = np.array_equal(gw, gw_oracle)
            # The two input-gradient products are each as large as the
            # im2col operand, and take its place (and its products').
            arena.release(tail, counted=False)
            grid = take((oc, out_h, wp, n), dtype)
            grid[:, :, out_w:] = 0
            grid[:, :, :out_w] = gradT.reshape(oc, n, out_h, out_w).transpose(0, 2, 3, 1)
            gc = np.matmul(w_mat.T, grid.reshape(oc, -1), out=take((ckk, out_h * wp * n), dtype))
            dx_oracle = np.matmul(grad, w_mat, out=take((rows, ckk), dtype))
            dx = dx and np.array_equal(
                gc.reshape(ckk, out_h, wp, n)[:, :, :out_w],
                dx_oracle.reshape(n, out_h, out_w, ckk).transpose(3, 1, 2, 0),
            )
        arena.release(start, counted=False)
    # A product with a one-wide output is a GEMV on one side, whose edge
    # kernel can round a few outputs its own way one draw in several: the
    # last four of a 3->1-channel conv's 396, one draw in five each, passed
    # three draws one time in eleven.  So none is reoriented.
    fwd = fwd and min(oc, rows) > 1
    if not backward:
        return fwd, None, None
    gw_mode = "csT" if csT else "gT" if gT else "slow"
    return fwd, gw_mode if min(oc, ckk) > 1 else "slow", dx and min(ckk, rows) > 1


#: Samples per block of a forward-only conv pass (any accepted value gives
#: the same bytes; this one is a training batch, so a 256-sample evaluation
#: holds no more im2col than a training step does).
_FORWARD_BLOCK = 16

_BLOCKED_PROBE_CACHE: Dict[tuple, bool] = {}


def _probe_blocked_forward(n: int, pixels: int, ckk: int, oc: int, dtype) -> bool:
    """Check the forward GEMM of one conv shape, issued in sample blocks, bitwise.

    A forward-only :class:`_BatchedConv2D` pass over ``n > _FORWARD_BLOCK``
    samples runs ``w_mat @ cols`` one ``_FORWARD_BLOCK``-sample column
    block at a time, each into its column slice of the output.  Every
    output column is its own dot product, but which BLAS micro-kernel
    computes it depends on where the column sits in the call: a one-sample
    tail block of ``mnist-cnn`` at float32 takes another edge kernel and
    rounds differently.  So the blocked product is a per-shape verdict like
    the orientations of :func:`_probe_fast_gemms`: it is issued exactly as
    the kernel will (contiguous block operand, strided output slice, ragged
    tail included) and compared with the oracle's one GEMM over all ``n``
    samples, on the same rank-one operand.

    The oracle's operand is the one buffer here as large as the unblocked
    pass's; like every probe's it is workspace scratch released uncounted,
    and the kernel's own buffers take its place once the oracle GEMM has
    run.  It is the largest transient of a process that evaluates, so an
    experiment decides these verdicts at build time, before it holds a
    dataset (:meth:`BatchedModel.warm_up`), and a run finds them cached.
    """
    key = (n, pixels, ckk, oc, np.dtype(dtype).char)
    return _verdict(_BLOCKED_PROBE_CACHE, key, _known, _blocked_forward_equal, n, pixels, ckk, oc, dtype)


def _blocked_forward_equal(n, pixels, ckk, oc, dtype) -> bool:
    rows, span = n * pixels, _FORWARD_BLOCK * pixels
    rng = np.random.default_rng(0xB10C)
    arena = _WORKSPACE.arena
    take = arena.take
    start = arena.mark()
    result = True
    for _ in range(-(-_PROBE_MIN_OUTPUTS // (oc * rows))):
        u = _probe_operand(rng, (ckk,), dtype)
        v = _probe_operand(rng, (rows,), dtype)
        w_mat = _probe_operand(rng, (oc, ckk), dtype)
        oracle = take((rows, oc), dtype)
        tail = arena.mark()
        np.matmul(np.multiply.outer(v, u, out=take((rows, ckk), dtype)), w_mat.T, out=oracle)
        arena.release(tail, counted=False)
        out = take((oc, rows), dtype)
        block = take((ckk * span,), dtype)
        for s0 in range(0, rows, span):
            s1 = min(s0 + span, rows)
            cols = np.multiply.outer(u, v[s0:s1], out=block[: ckk * (s1 - s0)].reshape(ckk, -1))
            np.matmul(w_mat, cols, out=out[:, s0:s1])
        result = result and bool(np.array_equal(out, oracle.T))
        arena.release(start, counted=False)
    return result and oc > 1  # a GEMV: see _fast_gemm_verdicts


_GB_PROBE_CACHE: Dict[Tuple[int, int, str], bool] = {}


def _probe_gb_reduce(rows: int, oc: int, dtype) -> bool:
    """Check ``einsum('ro->o')`` against ``sum(axis=0)`` bitwise at one shape.

    The bias gradient must reduce a contiguous ``(rows, oc)`` buffer along
    its first axis in the oracle's pairwise order.  ``np.einsum`` walks the
    same order several times faster than ``ndarray.sum`` for the thin
    trailing axes conv layers produce, but that equality is an
    implementation detail — so it is probed per shape, like the GEMMs, and
    like them on more than a handful of outputs: for a lone channel ``sum``
    goes pairwise down the column, ``einsum`` does not, and one sum in four
    still comes out the same — 32 sums leave no room for that.
    """
    key = (rows, oc, np.dtype(dtype).char)
    return _verdict(_GB_PROBE_CACHE, key, _known, _gb_reduce_equal, rows, oc, dtype)


def _gb_reduce_equal(rows, oc, dtype) -> bool:
    rng = np.random.default_rng(0xB1A5)
    arena = _WORKSPACE.arena
    mark = arena.mark()
    result = True
    for _ in range(-(-32 // oc)):
        buf = _probe_operand(rng, (rows, oc), dtype)
        result = result and bool(np.array_equal(np.einsum("ro->o", buf), buf.sum(axis=0)))
        arena.release(mark, counted=False)
    return result


#: ``(model name, batch shape, dtype)`` of every forward-only pass
#: :meth:`BatchedModel.warm_up` has run in this process: the verdicts that
#: pass decided are in the caches above, so asking again runs nothing.
_WARMED_UP: set = set()


class _BatchedConv2D(_BatchedLayer):
    """Conv2D over channel-major ``(C, N, H, W)`` activations.

    The layer-loop oracle keeps activations sample-major and pays a strided
    gather or transpose in im2col, after the forward GEMM, and in every
    col2im pass.  The kernel leads with the channel axis instead, so the
    im2col copy writes contiguous ``(n*oh*ow)`` rows and the forward GEMM
    emits channel-major output directly (no transpose pass).  Layout is
    free to differ from the oracle; values are not: operand values, GEMM
    dot order (``(c, k, k)`` along K) and the per-element ascending
    ``(i, j)`` col2im addition order all match the scalar path bitwise.
    The transposed GEMM orientations are only shape-wise equal to the
    oracle's, so each is verified by :func:`_probe_fast_gemms` at the exact
    working shape; a failing probe routes that GEMM through the oracle's
    operand layout (at the cost of a transposed copy), keeping every shape
    bitwise regardless.

    The input gradient runs on a *width-padded, batch-innermost grid*.  The
    output gradient is staged as ``(oc, out_h, wp, n)`` — ``wp = w + 2p`` is
    the padded input's width, the ``wp - out_w`` junk columns of each row
    are zero — and the grad-cols GEMM ``w_mat.T @ grid`` runs at that
    shape: every grid column is an independent dot product over ``oc``, so
    permuting and padding the column set leaves each real element's
    reduction alone (the probe confirms it per shape).  With the grid's
    rows on the accumulator's pitch, output pixel ``g = oh*wp + ow`` of tap
    ``(i, j)`` lands on flat accumulator pixel ``s*g + i*wp + j``, so
    col2im is one shifted add per tap over the ``(c, H*wp, n)``
    accumulator — at stride 1 a single contiguous run per channel where
    the sample-innermost form walked ``out_w``-element rows.  Each
    accumulator element still receives its taps in ascending ``(i, j)``
    order onto +0.0; the junk addends interleaved with them are exact
    zeros, which change nothing (an accumulator that starts at +0.0 never
    holds -0.0, and ``x + 0 == x`` bitwise for every other ``x``, NaN and
    Inf included).  ``0 * w`` is only zero for a finite ``w``: a pass whose
    weights hold an Inf or NaN fills the grad-cols from the oracle-layout
    GEMM instead — the same route a rejected probe takes — and zeroes the
    junk columns itself.
    """

    def __init__(self, template: Conv2D) -> None:
        self.out_channels = template.out_channels
        self.kernel_size = template.kernel_size
        self.stride = template.stride
        self.padding = template.padding
        self.W = template.params["W"]  # (oc, ic, k, k)
        self.b = template.params["b"]  # (oc,)
        self.gW = template.grads["W"]
        self.gb = template.grads["b"]
        # (pad buffer, interior) staged for this pass's input; _windows takes it.
        self._staged: Optional[tuple] = None
        # (colsT, oracle-layout cols or None, input shape, weight-grad mode,
        # input-grad verdict) of a training forward; backward takes it.
        self._cache: Optional[tuple] = None

    def stage_input(self, shape: Tuple[int, ...], dtype) -> Optional[np.ndarray]:
        """Interior view of a zeroed pad buffer for a ``shape``-shaped input.

        The producing layer writes its output straight into this view, so
        ``_windows`` can skip the separate interior copy (the values are
        identical either way — only the copy is fused out).  Returns
        ``None`` when this conv has no padding.  The buffer is scratch of
        this pass (so two convs of one padded shape get two), zeroed by one
        contiguous fill: cheaper than four strided border fills.
        """
        p = self.padding
        if p == 0:
            return None
        c, n, h, w = shape
        pad = _WORKSPACE.arena.take((c, n, h + 2 * p, w + 2 * p), dtype)
        pad.fill(0)
        self._staged = (pad, pad[:, :, p:-p, p:-p])
        return self._staged[1]

    def _window_view(self, padded):
        """Overlapping ``(c, k, k, n, out_h, out_w)`` im2col windows.

        Built every pass, by the ``np.ndarray`` constructor at a seventh of
        ``as_strided``'s cost: it refuses a ``padded`` that is not
        C-contiguous (every conv input is workspace scratch, which is) and a
        view that would reach past it.
        """
        k, s = self.kernel_size, self.stride
        c, n, hp, wp = padded.shape
        sc, sn, sH, sW = padded.strides
        shape = (c, k, k, n, (hp - k) // s + 1, (wp - k) // s + 1)
        return np.ndarray(shape, padded.dtype, padded, strides=(sc, sH, sW, sn, s * sH, s * sW))

    def _windows(self, x):
        """The im2col window view over ``x``, zero-padded."""
        if self.padding == 0:
            # ``x`` is workspace scratch: nothing built on it is kept.
            return self._window_view(x)
        # A producer that staged its output directly into the interior left
        # nothing to copy; the border is already zero either way.
        if self._staged is None or x is not self._staged[1]:
            self.stage_input(x.shape, x.dtype)[...] = x
        (pad, _), self._staged = self._staged, None
        return self._window_view(pad)

    def forward(self, x, training: bool = True):
        c, n, h, w = x.shape
        k, p = self.kernel_size, self.padding
        windows = self._windows(x)
        out_h, out_w = windows.shape[4:]
        pixels = out_h * out_w
        rows = n * pixels
        ckk = c * k * k
        oc = self.out_channels
        arena = _WORKSPACE.arena
        take = arena.take
        w_mat = self.W.reshape(oc, ckk)
        blocked = not training and n > _FORWARD_BLOCK
        if blocked and _probe_blocked_forward(n, pixels, ckk, oc, x.dtype):
            # Nothing is kept for a backward, so no more than one block of
            # samples is ever unfolded: copy a block's windows, GEMM it into
            # its column slice of the output while it is still cache-hot.
            out = take((oc, rows), x.dtype)
            mark = arena.mark()
            block = take((ckk * _FORWARD_BLOCK * pixels,), x.dtype)
            for s0 in range(0, n, _FORWARD_BLOCK):
                s1 = min(s0 + _FORWARD_BLOCK, n)
                cols = block[: ckk * (s1 - s0) * pixels].reshape(ckk, -1)
                np.copyto(cols.reshape(c, k, k, s1 - s0, out_h, out_w), windows[:, :, :, s0:s1])
                np.matmul(w_mat, cols, out=out[:, s0 * pixels : s1 * pixels])
            out += self.b[:, None]
            arena.release(mark)
            return out.reshape(oc, n, out_h, out_w)
        fast_fwd, gw_mode, fast_dx = _probe_fast_gemms(
            (n, out_h, out_w, w + 2 * p), ckk, oc, x.dtype, training
        )
        out = take((oc, rows), x.dtype)
        mark = arena.mark()  # what follows is dead once the GEMM has run
        # Transposed im2col, (c*k*k, n*oh*ow) with contiguous rows: one copy
        # of the window view.  The nditer walks the destination in C order,
        # so each channel's image block is read cache-hot across all k*k taps.
        colsT = take((ckk, rows), x.dtype)
        np.copyto(colsT.reshape(windows.shape), windows)
        cols_sm = None
        if fast_fwd:
            np.matmul(w_mat, colsT, out=out)
        else:
            # The probe rejected the fast orientation: sample-major
            # (rows, ckk) cols in the oracle's layout, which backward
            # shares when it needs them too.
            cols_sm = take((rows, ckk), x.dtype)
            np.copyto(cols_sm, colsT.T)
            out_sm = np.matmul(cols_sm, w_mat.T, out=take((rows, oc), x.dtype))
            np.copyto(out, out_sm.T)
        out += self.b[:, None]
        if training:
            # ... unless a backward reads it; the verdicts ride along.
            self._cache = (colsT, cols_sm, x.shape, gw_mode, fast_dx)
        else:
            arena.release(mark)
        return out.reshape(oc, n, out_h, out_w)

    def backward(self, grad_out, need_input_grad: bool = True):
        if self._cache is None:
            raise RuntimeError("_BatchedConv2D.backward called before forward")
        (colsT, cols_sm, x_shape, gw_mode, fast_dx), self._cache = self._cache, None
        oc, n, out_h, out_w = grad_out.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        rows = n * out_h * out_w
        grad2 = grad_out.reshape(oc, rows)
        ckk = colsT.shape[0]
        c, _, h, w = x_shape
        hp, wp = h + 2 * p, w + 2 * p
        take = _WORKSPACE.arena.take

        grad_w = take((oc, ckk), grad2.dtype)
        w_mat = self.W.reshape(oc, ckk)
        result_dtype = np.result_type(grad2.dtype, w_mat.dtype)

        # The oracle reduces a row-major (rows, oc) buffer along its first
        # axis for gb; the staging copy keeps that layout, so the reduction
        # order matches.  For a lone sample the oracle's buffer is instead
        # a transposed view of the feature map (see _probe_fast_gemms) —
        # which is what grad2.T is, so no staging copy is made.
        if n == 1:
            gbuf = grad2.T
        else:
            gbuf = take((rows, oc), grad2.dtype)
            np.copyto(gbuf, grad2.T)
        if gw_mode == "csT":
            gwT = np.matmul(colsT, grad2.T, out=take((ckk, oc), grad2.dtype))
            np.copyto(grad_w, gwT.T)
        elif gw_mode == "gT":
            np.matmul(grad2, colsT.T, out=grad_w)
        else:
            # The cols in the oracle's (rows, ckk) layout.
            if cols_sm is None:
                cols_sm = take((rows, ckk), colsT.dtype)
                np.copyto(cols_sm, colsT.T)
            np.matmul(gbuf.T, cols_sm, out=grad_w)
        self.gW += grad_w.reshape(self.gW.shape)
        if n > 1 and _probe_gb_reduce(rows, oc, grad2.dtype):
            self.gb += np.einsum("ro->o", gbuf, out=take((oc,), grad2.dtype))
        else:
            self.gb += gbuf.sum(axis=0)
        if not need_input_grad:
            return None

        gc = take((ckk, out_h * wp * n), result_dtype)
        # Junk addends must be exact zeros, and 0 * w is not for an Inf or
        # NaN weight: such a pass takes the oracle-layout GEMM too.  Either
        # way the grid is filled through its real columns only.
        if fast_dx and np.isfinite(w_mat).all():
            grid = take((oc, out_h * wp * n), grad2.dtype)
            staged = grid.reshape(oc, out_h, wp, n)
            staged[:, :, out_w:] = 0
            np.copyto(staged[:, :, :out_w], grad_out.transpose(0, 2, 3, 1))
            np.matmul(w_mat.T, grid, out=gc)
        else:
            gsm = np.matmul(gbuf, w_mat, out=take((rows, ckk), result_dtype))
            staged = gc.reshape(ckk, out_h, wp, n)
            staged[:, :, out_w:] = 0
            np.copyto(
                staged[:, :, :out_w],
                gsm.T.reshape(ckk, n, out_h, out_w).transpose(0, 2, 3, 1),
            )
        span = (out_h - 1) * wp + out_w
        taps = gc.reshape(c, k, k, out_h * wp, n)[:, :, :, :span]
        acc = take((c, hp * wp, n), result_dtype)
        acc.fill(0)
        for i in range(k):
            for j in range(k):
                shift = i * wp + j
                acc[:, shift : shift + s * span : s] += taps[:, i, j]
        gx = take((c, n, h, w), result_dtype)
        np.copyto(gx, acc.reshape(c, hp, wp, n)[:, p : p + h, p : p + w].transpose(0, 3, 1, 2))
        return gx


#: ``(h, w, pool)`` -> read-only offsets for the most images yet asked for,
#: shared by every model and thread: fewer images read a prefix.
_WINDOW_OFFSETS: Dict[Tuple[int, int, int], np.ndarray] = {}


def _window_base_offsets(images: int, h: int, w: int, p: int) -> np.ndarray:
    """Flat offset of each window's top-left element over a C-order
    ``(images, h, w)`` block, image-major.  ``intp``, the type fancy
    indexing works in: narrower indices are converted on every scatter,
    which costs more than the traffic they save.
    """
    count = images * (h // p) * (w // p)
    offsets = _WINDOW_OFFSETS.get((h, w, p))
    if offsets is None or offsets.size < count:
        rows = np.arange(0, h, p, dtype=np.intp) * w
        cols = np.arange(0, w, p, dtype=np.intp)
        plane = (rows[:, None] + cols[None, :]).ravel()
        image_base = np.arange(images, dtype=np.intp) * (h * w)
        offsets = (image_base[:, None] + plane[None, :]).ravel()
        offsets.flags.writeable = False
        _WINDOW_OFFSETS[(h, w, p)] = offsets
    return offsets[:count]


class _BatchedMaxPool2D(_BatchedLayer):
    """MaxPool2D over channel-major ``(C, N, H, W)`` input.

    Window maxima are computed by reducing the innermost (contiguous)
    window axis first.  ``np.maximum`` keeps its first operand on ties, so
    any bracketing of the window fold selects the leftmost maximal element
    (and the leftmost NaN) — bitwise identical to the oracle's sequential
    column sweep.  Only the argmax tie-break is order-pinned: the 2x2
    tournament derives it from its own equality masks with int8 arithmetic
    (a select written as a masked copy costs a mispredicted branch per
    window on real activations), the generic path replicates the oracle's
    reverse equality sweep.  Backward turns the arg-max slots into flat
    offsets arithmetically and scatters with one fancy assignment.
    """

    def __init__(self, template: MaxPool2D) -> None:
        self.pool_size = template.pool_size
        if self.pool_size * self.pool_size > 127:
            raise ValueError("MaxPool2D pool_size too large for int8 window slots")
        # When the next layer is a padded conv, its pad-buffer interior is
        # used as this pool's output buffer, fusing out the conv's pad copy.
        self.sink: Optional[_BatchedConv2D] = None
        # (arg-max slots, input shape) of a training forward; backward takes it.
        self._cache: Optional[tuple] = None

    def _fold_max(self, columns, out):
        """Sequential window fold, first operand kept on ties (the oracle's)."""
        if len(columns) == 1:
            np.copyto(out, columns[0])
        else:
            np.maximum(columns[0], columns[1], out=out)
            for col in columns[2:]:
                np.maximum(out, col, out=out)
        return out

    def forward(self, x, training: bool = True):
        c, n, h, w = x.shape
        p = self.pool_size
        if h % p or w % p:
            raise ValueError(f"MaxPool2D input spatial dims {h}x{w} not divisible by {p}")
        take = _WORKSPACE.arena.take
        if not x.flags["C_CONTIGUOUS"]:
            xc = take(x.shape, x.dtype)
            np.copyto(xc, x)
            x = xc
        reshaped = x.reshape(c, n, h // p, p, w // p, p)
        out = None
        if self.sink is not None:
            out = self.sink.stage_input((c, n, h // p, w // p), x.dtype)
        if out is None:
            out = take((c, n, h // p, w // p), x.dtype)
        columns = [reshaped[:, :, :, i, :, j] for i in range(p) for j in range(p)]
        if not training:
            # Maxima only: the arg-max bookkeeping below serves backward.
            return self._fold_max(columns, out)
        idx = take(out.shape, np.int8)
        eq = take(out.shape, bool)
        if p == 2:
            # 2x2 tournament: cheap contiguous passes instead of the
            # generic seven double-strided ones.  Per window [c0 c1; c2 c3]
            # (row-major slots 0..3): M_r = max of row r, winner-in-row
            # b_r = (left == M_r), out = max(M0, M1), row pick =
            # (M0 == out).  ``maximum`` keeps its first operand on ties,
            # so the equalities resolve non-NaN ties to the leftmost /
            # topmost slot — out is bitwise the sequential fold and idx
            # the first-max slot.  NaN windows: ``maximum`` propagates
            # the NaN into out, every equality on it is False, and the
            # oracle sweep leaves slot p*p-1 there — restored by the fixup.
            c0, c1, c2, c3 = columns
            m0 = take(out.shape, x.dtype)
            m1 = take(out.shape, x.dtype)
            b0 = take(out.shape, np.int8)
            b1 = take(out.shape, np.int8)
            brow = take(out.shape, np.int8)
            np.maximum(c0, c1, out=m0)
            np.equal(c0, m0, out=b0.view(bool))
            np.maximum(c2, c3, out=m1)
            np.equal(c2, m1, out=b1.view(bool))
            np.maximum(m0, m1, out=out)
            np.equal(m0, out, out=brow.view(bool))
            # slot = 1 - b0 in the top row, 3 - b1 in the bottom row: as
            # arithmetic on the 0/1 masks, 3 - b1 + brow * (b1 - b0 - 2).
            np.subtract(np.int8(3), b1, out=idx)
            np.subtract(b1, b0, out=b1)
            np.subtract(b1, np.int8(2), out=b1)
            np.multiply(b1, brow, out=b1)
            np.add(idx, b1, out=idx)
            np.isnan(out, out=eq)
            if eq.any():
                np.copyto(idx, np.int8(3), where=eq)
        else:
            self._fold_max(columns, out)
            idx.fill(len(columns) - 1)
            for t in range(len(columns) - 2, -1, -1):
                np.equal(columns[t], out, out=eq)
                np.copyto(idx, np.int8(t), where=eq)
        self._cache = (idx, x.shape)
        return out

    def backward(self, grad_out, need_input_grad: bool = True):
        if self._cache is None:
            raise RuntimeError("_BatchedMaxPool2D.backward called before forward")
        (idx, (c, n, h, w)), self._cache = self._cache, None
        p = self.pool_size
        take = _WORKSPACE.arena.take
        idx = idx.reshape(-1)
        # Slot t = (i, j) sits i rows and j columns past its window's
        # top-left corner: i*w + j = t + (t // p) * (w - p), below p*w, so
        # computed in the narrowest type that holds that — int8, the slots'
        # own, for every map up to 64 wide at p = 2.
        narrow = np.min_scalar_type(-p * w)
        offset = take(idx.shape, narrow)
        np.floor_divide(idx, np.int8(p), out=offset)
        np.multiply(offset, narrow.type(w - p), out=offset)
        np.add(offset, idx, out=offset)
        flat = take(idx.shape, np.intp)
        np.add(offset, _window_base_offsets(c * n, h, w, p), out=flat)
        grad = take((c * n * h * w,), grad_out.dtype)
        grad.fill(0)
        grad[flat] = grad_out.reshape(-1)
        return grad.reshape(c, n, h, w)


class _BatchedReLU(_BatchedLayer):
    """Elementwise ReLU; layout- and order-free, so bitwise-safe in place.

    ``inplace=True`` rewrites the incoming activation / gradient scratch
    buffers instead of taking its own.  Only the top-level chains opt
    in: there every input is the previous layer's scratch, which is never
    re-read after the handoff.  Inside :class:`_BatchedResidualBlock` the
    default out-of-place form is kept (the skip path aliases buffers).
    """

    def __init__(self, inplace: bool = False) -> None:
        self.inplace = inplace
        # The ``x > 0`` mask of a training forward; backward takes it.
        self._mask: Optional[np.ndarray] = None

    def forward(self, x, training: bool = True):
        take = _WORKSPACE.arena.take
        if training:
            self._mask = np.greater(x, 0.0, out=take(x.shape, bool))
        return np.maximum(x, 0.0, out=x if self.inplace else take(x.shape, x.dtype))

    def backward(self, grad_out, need_input_grad: bool = True):
        if self._mask is None:
            raise RuntimeError("_BatchedReLU.backward called before forward")
        mask, self._mask = self._mask, None
        gx = grad_out if self.inplace else _WORKSPACE.arena.take(grad_out.shape, grad_out.dtype)
        return np.multiply(grad_out, mask, out=gx)


class _BatchedFlatten(_BatchedLayer):
    """Flatten; converts channel-major feature maps back to sample-major.

    The classifier operates on ``(n, features)`` with the oracle's
    ``(c, h, w)`` per-sample feature order, so 4-D channel-major input
    pays one small transposed copy here (and one on the way back).
    """

    def __init__(self) -> None:
        self._cache_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x, training: bool = True):
        if training:
            self._cache_shape = x.shape
        if x.ndim == 4:
            c, n, h, w = x.shape
            out = _WORKSPACE.arena.take((n, c, h, w), x.dtype)
            np.copyto(out, x.transpose(1, 0, 2, 3))
            return out.reshape(n, c * h * w)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out, need_input_grad: bool = True):
        if self._cache_shape is None:
            raise RuntimeError("_BatchedFlatten.backward called before forward")
        shape, self._cache_shape = self._cache_shape, None
        if len(shape) == 4:
            c, n, h, w = shape
            gx = _WORKSPACE.arena.take(shape, grad_out.dtype)
            np.copyto(gx, grad_out.reshape(n, c, h, w).transpose(1, 0, 2, 3))
            return gx
        return grad_out.reshape(shape)


class _BatchedDense(_BatchedLayer):
    def __init__(self, template: Dense) -> None:
        self.in_features = template.in_features
        self.out_features = template.out_features
        self.W = template.params["W"]  # (in, out)
        self.b = template.params["b"]  # (out,)
        self.gW = template.grads["W"]
        self.gb = template.grads["b"]
        # The input of a training forward; backward takes it.
        self._cache_x = None

    def forward(self, x, training: bool = True):
        if training:
            self._cache_x = x
        out = _WORKSPACE.arena.take((x.shape[0], self.out_features), x.dtype)
        np.matmul(x, self.W, out=out)
        out += self.b
        return out

    def backward(self, grad_out, need_input_grad: bool = True):
        if self._cache_x is None:
            raise RuntimeError("_BatchedDense.backward called before forward")
        x, self._cache_x = self._cache_x, None
        take = _WORKSPACE.arena.take
        self.gW += np.matmul(x.T, grad_out, out=take(self.gW.shape, self.gW.dtype))
        self.gb += grad_out.sum(axis=0)
        if not need_input_grad:
            return None
        gx = take((grad_out.shape[0], self.in_features), grad_out.dtype)
        return np.matmul(grad_out, self.W.T, out=gx)


class _BatchedResidualBlock(_BatchedLayer):
    def __init__(self, template: ResidualBlock) -> None:
        self.conv1 = _BatchedConv2D(template.conv1)
        self.relu1 = _BatchedReLU()
        self.conv2 = _BatchedConv2D(template.conv2)
        self.relu_out = _BatchedReLU()
        self.proj = None if template.proj is None else _BatchedConv2D(template.proj)

    def forward(self, x, training: bool = True):
        h = self.conv1.forward(x, training)
        h = self.relu1.forward(h, training)
        h = self.conv2.forward(h, training)
        shortcut = x if self.proj is None else self.proj.forward(x, training)
        total = _WORKSPACE.arena.take(h.shape, np.result_type(h.dtype, shortcut.dtype))
        np.add(h, shortcut, out=total)
        return self.relu_out.forward(total, training)

    def backward(self, grad_out, need_input_grad: bool = True):
        grad_sum = self.relu_out.backward(grad_out)
        grad_h = self.conv2.backward(grad_sum)
        grad_h = self.relu1.backward(grad_h)
        grad_x = self.conv1.backward(grad_h, need_input_grad=need_input_grad)
        if self.proj is not None:
            proj_grad = self.proj.backward(grad_sum, need_input_grad=need_input_grad)
            if not need_input_grad:
                return None
            np.add(grad_x, proj_grad, out=grad_x)
        else:
            if not need_input_grad:
                return None
            np.add(grad_x, grad_sum, out=grad_x)
        return grad_x


# ---------------------------------------------------------------------------
# The kernel set of one model
# ---------------------------------------------------------------------------
#: Layer types with a channel-major kernel.  Matched on the exact type: a
#: subclass may override ``forward``/``backward``, and only the layer loop
#: honours that.
_KERNEL_LAYER_TYPES = (Conv2D, MaxPool2D, ReLU, Flatten, Dense, ResidualBlock)


def kernels_cover(model: SplitCNN) -> bool:
    """Whether every layer of ``model`` has a channel-major kernel."""
    return all(
        type(layer) in _KERNEL_LAYER_TYPES
        for layer in (*model.feature_layers, *model.classifier_layers)
    )


class BatchedModel:
    """The kernels of one :class:`SplitCNN`, over the model's own memory.

    Every kernel with parameters reads the views its layer holds into the
    model's flat section vectors and accumulates into the matching gradient
    views, so the optimiser and the flat/dict weight API keep operating on
    the same memory.  :meth:`train_step` is ``SplitCNN.train_batch`` up to
    the optimiser step; :meth:`infer` is ``SplitCNN.forward``.
    """

    def __init__(self, model: SplitCNN) -> None:
        self.dtype = model.dtype
        #: Set by ``SplitCNN.train_batch`` before each step.
        self.features_frozen = False
        self.loss = CrossEntropyLoss()
        self._grads = [model.flat_grads(section) for section in SplitCNN.SECTIONS]
        self.feature_layers = self._build_layers(model.feature_layers)
        self.classifier_layers = self._build_layers(model.classifier_layers)
        for prev, nxt in zip(self.feature_layers, self.feature_layers[1:]):
            if isinstance(prev, _BatchedMaxPool2D) and isinstance(nxt, _BatchedConv2D):
                prev.sink = nxt

    def _build_layers(self, source) -> List[_BatchedLayer]:
        layers: List[_BatchedLayer] = []
        for position, layer in enumerate(source):
            kind = type(layer)
            if kind is Conv2D:
                kernel: _BatchedLayer = _BatchedConv2D(layer)
            elif kind is MaxPool2D:
                kernel = _BatchedMaxPool2D(layer)
            elif kind is ReLU:
                # A ReLU fed by another kernel's scratch buffer may rewrite
                # it in place; a leading one, or one behind a Flatten (which
                # hands a flat input through as a view), would rewrite the
                # caller's batch.
                owns_input = position > 0 and type(source[position - 1]) is not Flatten
                kernel = _BatchedReLU(inplace=owns_input)
            elif kind is Flatten:
                kernel = _BatchedFlatten()
            elif kind is Dense:
                kernel = _BatchedDense(layer)
            elif kind is ResidualBlock:
                kernel = _BatchedResidualBlock(layer)
            else:
                raise TypeError(f"no batched kernel for layer {kind.__name__}")
            layers.append(kernel)
        return layers

    def zero_grad(self) -> None:
        for grads in self._grads:
            grads.fill(0)

    def train_step(self, x, y) -> float:
        """Forward, loss and backward of one batch; returns the loss.

        ``x`` is the sample-major batch as ``SplitCNN`` has it, already in
        the model dtype (``SplitCNN.train_batch`` casts before it calls).
        Gradients land in the model's flat gradient vectors; the caller
        steps the optimiser.
        """
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"batch size mismatch: x has {x.shape[0]} rows, y has {y.shape[0]}")
        if x.dtype != self.dtype:
            raise TypeError(f"batched inputs must be pre-cast to {self.dtype}, got {x.dtype}")
        _WORKSPACE.arena.reset()
        self.zero_grad()
        logits = self._forward(x, training=True)
        loss, grad = self.loss.forward_backward(logits, y)
        for layer in reversed(self.classifier_layers):
            grad = layer.backward(grad)
        if not self.features_frozen and self.feature_layers:
            for layer in reversed(self.feature_layers[1:]):
                grad = layer.backward(grad)
            # The input-layer dX is never consumed: skip its grad-cols GEMM
            # and col2im (values unaffected; the analytic FLOP trace still
            # charges the oracle's cost).
            self.feature_layers[0].backward(grad, need_input_grad=False)
        return loss

    def infer(self, x):
        """Forward-only pass over a sample-major batch; returns the logits.

        The result is workspace scratch: valid until this thread's next
        pass of any kind — a training step included — of this or any other
        model.  Copy what must outlive that.
        """
        if x.dtype != self.dtype:
            raise TypeError(f"batched inputs must be pre-cast to {self.dtype}, got {x.dtype}")
        _WORKSPACE.arena.reset()
        return self._forward(x, training=False)

    def warm_up(self, shape: Tuple[int, ...], name: str) -> None:
        """Decide every probe verdict an :meth:`infer` over ``shape`` needs.

        One forward-only pass over zeros, so the probes fire through the
        code the real pass runs and the verdicts are its own (they depend on
        shapes, never on values).  Once per process, ``name`` (the model's
        architecture), shape and dtype: a second call is a set lookup.  Two
        threads warming one key at once may both run the pass; its probes
        still run once (:func:`_verdict`).
        """
        key = (name, tuple(shape), self.dtype.char)
        if key not in _WARMED_UP:
            self.infer(np.zeros(shape, self.dtype))
            _WARMED_UP.add(key)

    def _forward(self, x, training: bool):
        # Frozen features run no backward, so nothing is kept for one.
        keep = training and not self.features_frozen
        h = x
        if h.ndim == 4:
            # Feature kernels run channel-major (C, N, H, W): one cheap
            # transposed copy here keeps every downstream pass streaming.
            # When the first layer is a padded conv the copy lands straight
            # in its pad-buffer interior, fusing out the pad pass.
            n, c, ih, iw = h.shape
            cm = None
            if self.feature_layers and isinstance(self.feature_layers[0], _BatchedConv2D):
                cm = self.feature_layers[0].stage_input((c, n, ih, iw), h.dtype)
            if cm is None:
                cm = _WORKSPACE.arena.take((c, n, ih, iw), h.dtype)
            np.copyto(cm, h.transpose(1, 0, 2, 3))
            h = cm
        for layer in self.feature_layers:
            h = layer.forward(h, keep)
        for layer in self.classifier_layers:
            h = layer.forward(h, training)
        return h


def solo_kernels(model: SplitCNN) -> Optional[BatchedModel]:
    """The kernel set running ``model`` itself, for training and inference.

    It holds nothing but views of the model's weights and gradients, so one
    serves every batch shape.  ``None`` when a layer has no kernel; the
    model then runs its layer loop.
    """
    return BatchedModel(model) if kernels_cover(model) else None
