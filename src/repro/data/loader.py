"""Mini-batch iteration over a client's local dataset."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np


class BatchLoader:
    """Deterministic, reshuffling mini-batch loader.

    Mirrors the behaviour of a PyTorch ``DataLoader`` with
    ``shuffle=True, drop_last=False``: every epoch visits all samples once
    in a fresh random order.  The loader owns its random generator so that
    per-client shuffling is reproducible and independent across clients.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int,
        shuffle: bool = True,
        seed: int = 0,
    ) -> None:
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x and y disagree on sample count: {x.shape[0]} vs {y.shape[0]}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.x = x
        self.y = y
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = np.random.default_rng(seed)
        self._order = np.arange(x.shape[0])
        self._cursor = 0
        if self.shuffle and x.shape[0]:
            self._rng.shuffle(self._order)

    def __len__(self) -> int:
        """Number of batches per epoch."""
        n = self.x.shape[0]
        return int(np.ceil(n / self.batch_size)) if n else 0

    @property
    def num_samples(self) -> int:
        return int(self.x.shape[0])

    def next_indices(self) -> np.ndarray:
        """Draw the next mini-batch's sample indices, reshuffling at epoch
        boundaries; nothing is gathered.  The array is the caller's: a later
        reshuffle does not move it."""
        n = self.x.shape[0]
        if n == 0:
            raise ValueError("cannot draw batches from an empty dataset")
        if self._cursor >= n:
            self._cursor = 0
            if self.shuffle:
                self._rng.shuffle(self._order)
        idx = self._order[self._cursor : self._cursor + self.batch_size].copy()
        self._cursor += self.batch_size
        return idx

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the next mini-batch, reshuffling at epoch boundaries."""
        idx = self.next_indices()
        return self.x[idx], self.y[idx]

    def state(self) -> dict:
        """The loader's position in its shuffle stream, as plain data.

        Together with :meth:`set_state` this lets the virtualized client
        pool dehydrate a client and later resume its batch sequence exactly
        where an always-hydrated client would be — the loader is the only
        numeric state that persists across rounds.
        """
        return {
            "rng_state": self._rng.bit_generator.state,
            "order": self._order.copy(),
            "cursor": self._cursor,
        }

    def set_state(self, state: dict) -> None:
        """Restore a position previously captured with :meth:`state`."""
        order = np.asarray(state["order"])
        if order.shape[0] != self.x.shape[0]:
            raise ValueError(
                f"loader state covers {order.shape[0]} samples, dataset has {self.x.shape[0]}"
            )
        self._rng.bit_generator.state = state["rng_state"]
        self._order = order.copy()
        self._cursor = int(state["cursor"])

    def epoch(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Iterate over exactly one epoch of batches."""
        for _ in range(len(self)):
            yield self.next_batch()

    def batches_per_epochs(self, epochs: int) -> int:
        """Total number of batches needed to train for ``epochs`` epochs."""
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        return len(self) * epochs
