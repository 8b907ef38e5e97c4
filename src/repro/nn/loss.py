"""Loss functions for the numpy substrate.

The paper trains image classifiers with the cross-entropy loss; this module
provides a numerically stable softmax cross-entropy with the gradient with
respect to the logits.

The loss follows the dtype of the incoming logits; the scalar batch mean
is always accumulated in ``float64`` so that reported losses stay stable
at ``float32``.  On ``float64`` logits (the parity tests') every value is
bit-identical with the seed implementation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilised by max subtraction."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels.

    The loss is averaged over the batch.  :meth:`forward_backward` returns
    both the scalar loss and the gradient with respect to the logits, which
    the model feeds into the classifier backward pass (phase ``bc``).
    """

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        probs = softmax(logits)
        n = logits.shape[0]
        picked = probs[np.arange(n), labels]
        return float(-np.mean(np.log(np.clip(picked, 1e-12, None)), dtype=np.float64))

    def forward_backward(self, logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        """Compute the loss and its gradient w.r.t. ``logits`` in one pass."""
        probs = softmax(logits)
        n = logits.shape[0]
        picked = probs[np.arange(n), labels]
        loss = float(-np.mean(np.log(np.clip(picked, 1e-12, None)), dtype=np.float64))
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        grad /= n
        return loss, grad
