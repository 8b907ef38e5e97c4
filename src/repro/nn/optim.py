"""Optimisers used by clients during local training.

Two optimisers are needed by the reproduction:

* :class:`SGD` — plain stochastic gradient descent with optional momentum
  and weight decay, used by FedAvg, FedNova, TiFL, Aergia and the deadline
  baseline.
* :class:`ProximalSGD` — SGD with the FedProx proximal term
  ``(mu / 2) * ||w - w_global||^2`` added to the local objective, realised
  as an extra ``mu * (w - w_global)`` term in the gradient.

Optimisers update parameter arrays **in place** so that composite layers
(e.g. :class:`repro.nn.layers.ResidualBlock`) that expose views of their
sub-layer parameters keep observing the updated values.

The hot path is :meth:`Optimizer.step_flat`, which
:meth:`repro.nn.model.SplitCNN.train_batch` calls with one contiguous
``(parameter vector, gradient vector)`` pair per unfrozen model section:
the whole update is a handful of fused vector operations instead of a
per-key Python loop, and all intermediates live in per-key scratch buffers
that are reused across steps.  The dictionary :meth:`Optimizer.step` API is
kept as a thin adapter over the same fused kernel, so existing baselines
and tests keep working unchanged.  The fused kernel preserves the exact
floating-point operation order of the original per-key implementation
(``update = grad + wd*w``; ``v = m*v + update``; ``w -= lr*v``), so a
``float64`` model steps bit-identically with the seed engine.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np


class Optimizer:
    """Interface shared by all optimisers."""

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        """Apply one update to ``params`` given ``grads`` (in place)."""
        raise NotImplementedError

    def step_flat(self, sections: Mapping[str, Tuple[np.ndarray, np.ndarray]]) -> None:
        """Apply one update to named ``(param_vector, grad_vector)`` pairs.

        The default implementation adapts to :meth:`step`; subclasses with a
        fused kernel override :meth:`step` instead and get both entry points
        for free.  Internal state (momentum, anchors) is keyed by the given
        names, so a section name must not collide with a per-key name within
        one optimiser instance's lifetime.
        """
        self.step(
            {name: vectors[0] for name, vectors in sections.items()},
            {name: vectors[1] for name, vectors in sections.items()},
        )

    def reset_state(self) -> None:
        """Drop any internal state (momentum buffers, anchors, scratch)."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[str, np.ndarray] = {}
        self._scratch: Dict[str, np.ndarray] = {}

    def _scratch_for(self, key: str, template: np.ndarray) -> np.ndarray:
        scratch = self._scratch.get(key)
        if scratch is None or scratch.shape != template.shape or scratch.dtype != template.dtype:
            scratch = np.empty_like(template)
            self._scratch[key] = scratch
        return scratch

    def _apply_update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        """Fused, allocation-free update of one parameter array.

        Operation order matches the original per-key implementation exactly
        (IEEE addition is commutative, so ``wd*w + g == g + wd*w`` bitwise).
        """
        scratch = self._scratch_for(key, param)
        if self.weight_decay:
            np.multiply(param, self.weight_decay, out=scratch)
            scratch += grad
            grad = scratch
        if self.momentum:
            velocity = self._velocity.get(key)
            if velocity is None or velocity.shape != param.shape:
                velocity = np.zeros_like(param)
                self._velocity[key] = velocity
            velocity *= self.momentum
            velocity += grad
            update = velocity
        else:
            update = grad
        if update is scratch:
            scratch *= self.lr
        else:
            np.multiply(update, self.lr, out=scratch)
        param -= scratch

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        for key, param in params.items():
            self._apply_update(key, param, grads[key])

    def reset_state(self) -> None:
        self._velocity.clear()
        self._scratch.clear()

    def capture_state(self) -> dict:
        """Serializable mid-training state (checkpointing).

        Only the momentum buffers carry information across steps; scratch
        buffers are overwritten before every use and are rebuilt lazily.
        """
        return {"velocity": {key: value.copy() for key, value in self._velocity.items()}}

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`capture_state` (after reset)."""
        self.reset_state()
        self._velocity.update(
            {key: np.array(value, copy=True) for key, value in state["velocity"].items()}
        )


class ProximalSGD(SGD):
    """SGD with the FedProx proximal term.

    The anchor (global) weights must be set with :meth:`set_anchor` at the
    start of each local training pass; the gradient of the proximal term is
    then ``mu * (w - w_anchor)``.  With ``mu = 0`` the optimiser degrades to
    plain SGD, matching the FedProx formulation.

    The anchor mapping is keyed by whatever names the step entry point
    uses: per-parameter keys for the dictionary :meth:`step` API, or
    section names holding one contiguous anchor vector each for the flat
    path (``SplitCNN`` clients pass ``model.flat_parameters(section)``
    copies).  Names absent from the anchor receive no proximal term.
    """

    def __init__(
        self,
        lr: float = 0.01,
        mu: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(lr=lr, momentum=momentum, weight_decay=weight_decay)
        if mu < 0:
            raise ValueError(f"mu must be non-negative, got {mu}")
        self.mu = mu
        self._anchor: Optional[Dict[str, np.ndarray]] = None
        self._prox_scratch: Dict[str, np.ndarray] = {}

    def set_anchor(self, weights: Mapping[str, np.ndarray]) -> None:
        """Record the global model weights the proximal term pulls towards."""
        self._anchor = {key: np.array(value, copy=True) for key, value in weights.items()}

    def step_flat(self, sections: Mapping[str, Tuple[np.ndarray, np.ndarray]]) -> None:
        if self.mu and self._anchor is not None:
            missing = [key for key in sections if key not in self._anchor]
            if missing:
                # Fail loudly instead of silently dropping the proximal term
                # for any section: an anchor keyed by per-parameter names (or
                # covering only some sections) cannot be applied to the
                # section-vector step that SplitCNN.train_batch drives.
                raise ValueError(
                    f"ProximalSGD anchor is missing model sections {sorted(missing)} "
                    f"(anchor keys: {sorted(self._anchor)}); set the anchor from the "
                    "model's flat section vectors (model.flat_parameters(section)) "
                    "before training through SplitCNN.train_batch"
                )
        super().step_flat(sections)

    def _apply_update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        anchor = self._anchor.get(key) if self._anchor is not None else None
        if self.mu and anchor is not None:
            if anchor.shape != param.shape:
                raise ValueError(
                    f"anchor shape {anchor.shape} does not match parameter "
                    f"{key!r} shape {param.shape}"
                )
            scratch = self._prox_scratch.get(key)
            if scratch is None or scratch.shape != param.shape or scratch.dtype != param.dtype:
                scratch = np.empty_like(param)
                self._prox_scratch[key] = scratch
            np.subtract(param, anchor, out=scratch)
            scratch *= self.mu
            scratch += grad
            grad = scratch
        super()._apply_update(key, param, grad)

    def reset_state(self) -> None:
        super().reset_state()
        self._anchor = None
        self._prox_scratch.clear()

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["anchor"] = (
            {key: value.copy() for key, value in self._anchor.items()}
            if self._anchor is not None
            else None
        )
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        anchor = state.get("anchor")
        if anchor is not None:
            self.set_anchor(anchor)
