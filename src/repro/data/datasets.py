"""Deterministic synthetic image datasets mirroring the paper's benchmarks.

The reproduction cannot download MNIST, Fashion-MNIST or Cifar-10, so this
module generates class-conditional synthetic images with the same shapes
(28x28x1 for MNIST/FMNIST, 32x32x3 for Cifar) and the same number of
classes.  Each class is defined by a smooth random prototype image; samples
are produced by adding a per-sample deformation (random shift) and Gaussian
pixel noise to the prototype.  The result is a dataset that:

* is learnable by a small CNN (accuracy well above chance within a few
  epochs), so accuracy comparisons between FL algorithms are meaningful;
* has genuine class structure, so non-IID label partitions create the model
  divergence effects the paper studies;
* is fully deterministic given a seed, so experiments are reproducible.

This substitution is documented in DESIGN.md §1.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.registry import DATASETS as _DATASET_REGISTRY
from repro.registry import RegistryView, register_dataset


@dataclass
class Dataset:
    """An in-memory image classification dataset.

    Attributes
    ----------
    name:
        Dataset identifier (``"mnist"``, ``"fmnist"``, ``"cifar10"``, ...).
    x_train, y_train, x_test, y_test:
        Images in ``(N, C, H, W)`` layout (float64 unless the dataset was
        built for another compute dtype) and integer labels.
    num_classes:
        Number of distinct labels.
    """

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        """Per-sample shape ``(C, H, W)``."""
        return tuple(self.x_train.shape[1:])  # type: ignore[return-value]

    @property
    def train_size(self) -> int:
        return int(self.x_train.shape[0])

    @property
    def test_size(self) -> int:
        return int(self.x_test.shape[0])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """A new dataset whose training split is restricted to ``indices``.

        The test split is shared (not copied) because federated clients
        evaluate against the same global test set.
        """
        indices = np.asarray(indices, dtype=int)
        return Dataset(
            name=self.name,
            x_train=self.x_train[indices],
            y_train=self.y_train[indices],
            x_test=self.x_test,
            y_test=self.y_test,
            num_classes=self.num_classes,
        )


def _smooth_prototype(
    shape: Tuple[int, int, int], rng: np.random.Generator, smoothness: int = 4
) -> np.ndarray:
    """Create a smooth class prototype by upsampling low-resolution noise."""
    c, h, w = shape
    low = rng.uniform(0.0, 1.0, size=(c, smoothness, smoothness))
    # Bilinear-ish upsample by repetition then box blur.
    proto = np.repeat(np.repeat(low, h // smoothness + 1, axis=1), w // smoothness + 1, axis=2)
    proto = proto[:, :h, :w]
    kernel = np.ones((3, 3)) / 9.0
    blurred = np.empty_like(proto)
    padded = np.pad(proto, ((0, 0), (1, 1), (1, 1)), mode="edge")
    for i in range(3):
        for j in range(3):
            if i == 0 and j == 0:
                blurred = kernel[0, 0] * padded[:, i : i + h, j : j + w]
            else:
                blurred = blurred + kernel[i, j] * padded[:, i : i + h, j : j + w]
    return blurred


#: Samples per block in :func:`_generate_split` (any value gives the same
#: bytes; this one keeps the float64 working set around a megabyte).
_NOISE_BLOCK = 256


def _generate_split(
    n_samples: int,
    prototypes: np.ndarray,
    noise: float,
    max_shift: int,
    rng: np.random.Generator,
    dtype=np.float64,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``n_samples`` images by perturbing class prototypes.

    ``prototypes`` has shape ``(num_classes, modes, C, H, W)``: each class
    can have several visual modes (e.g. different writing styles of the same
    digit), which keeps the classification problem from being trivially
    separable and lets accuracy evolve over multiple federated rounds.

    Every sample is computed in float64 and stored as ``dtype``, a block of
    samples at a time: the result is byte for byte the float64 split cast
    with ``astype(dtype)``, without a split-sized float64 array.
    """
    num_classes, modes, c, h, w = prototypes.shape
    labels = rng.integers(0, num_classes, size=n_samples)
    mode_choice = rng.integers(0, modes, size=n_samples)
    shifts_y = rng.integers(-max_shift, max_shift + 1, size=n_samples)
    shifts_x = rng.integers(-max_shift, max_shift + 1, size=n_samples)
    # A cyclic shift is a window of the prototype extended periodically by
    # ``max_shift`` pixels: ``np.roll(p, (sy, sx))[y, x]`` is
    # ``padded[y + max_shift - sy, x + max_shift - sx]``.  One gather per
    # block then picks class, mode and shift together, and what is kept
    # beside the prototypes is their padding, not a bank of rolled copies.
    pad = ((0, 0),) * 3 + ((max_shift, max_shift),) * 2
    windows = sliding_window_view(np.pad(prototypes, pad, mode="wrap"), (h, w), axis=(3, 4))
    origin_y, origin_x = max_shift - shifts_y, max_shift - shifts_x
    images = np.empty((n_samples, c, h, w), dtype=dtype)
    # The generator stream — and so every byte — is that of one
    # ``rng.normal(0.0, noise, size=images.shape)`` (``0.0 + noise * z`` is
    # ``noise * z``), drawn through the one float64 buffer a block is
    # finished in.
    buffer = np.empty((min(n_samples, _NOISE_BLOCK), c, h, w), dtype=np.float64)
    for start in range(0, n_samples, _NOISE_BLOCK):
        block = slice(start, min(start + _NOISE_BLOCK, n_samples))
        part = buffer[: block.stop - start]
        rng.standard_normal(out=part)
        part *= noise
        part += windows[labels[block], mode_choice[block], :, origin_y[block], origin_x[block]]
        np.clip(part, 0.0, 1.0, out=part)
        # Standardise to zero mean / unit-ish scale, like torchvision transforms.
        part -= 0.5
        part /= 0.5
        images[block] = part
    return images, labels.astype(np.int64)


def make_dataset(
    name: str,
    shape: Tuple[int, int, int],
    num_classes: int,
    train_size: int,
    test_size: int,
    noise: float = 0.35,
    max_shift: int = 3,
    modes_per_class: int = 2,
    seed: int = 0,
    dtype=np.float64,
) -> Dataset:
    """Build a synthetic dataset with the requested geometry.

    Parameters
    ----------
    name:
        Dataset identifier used in reports.
    shape:
        Per-sample ``(C, H, W)`` shape.
    num_classes:
        Number of classes.
    train_size, test_size:
        Number of training and test samples.
    noise:
        Standard deviation of the per-pixel Gaussian noise.
    max_shift:
        Maximum absolute spatial shift (pixels) applied to prototypes.
    modes_per_class:
        Number of distinct prototypes (visual modes) per class; more modes
        make the classification problem harder.
    seed:
        Seed controlling prototypes and samples.
    dtype:
        Dtype the images are stored in (the arithmetic is float64 whatever
        it is: a float32 dataset is the float64 one, cast).
    """
    if train_size <= 0 or test_size <= 0:
        raise ValueError("train_size and test_size must be positive")
    if num_classes < 2:
        raise ValueError("a classification dataset needs at least 2 classes")
    if modes_per_class < 1:
        raise ValueError("modes_per_class must be at least 1")
    rng = np.random.default_rng(seed)
    prototypes = np.stack(
        [
            np.stack([_smooth_prototype(shape, rng) for _ in range(modes_per_class)])
            for _ in range(num_classes)
        ]
    )
    x_train, y_train = _generate_split(train_size, prototypes, noise, max_shift, rng, dtype)
    x_test, y_test = _generate_split(test_size, prototypes, noise, max_shift, rng, dtype)
    return Dataset(
        name=name,
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        num_classes=num_classes,
    )


@register_dataset("mnist")
def synthetic_mnist(
    train_size: int = 4000, test_size: int = 1000, seed: int = 1, dtype=np.float64
) -> Dataset:
    """Synthetic stand-in for MNIST (28x28 grayscale, 10 classes)."""
    return make_dataset(
        "mnist", (1, 28, 28), 10, train_size, test_size, noise=0.35, seed=seed, dtype=dtype
    )


@register_dataset("fmnist")
def synthetic_fmnist(
    train_size: int = 4000, test_size: int = 1000, seed: int = 2, dtype=np.float64
) -> Dataset:
    """Synthetic stand-in for Fashion-MNIST (28x28 grayscale, 10 classes)."""
    return make_dataset(
        "fmnist", (1, 28, 28), 10, train_size, test_size, noise=0.45, seed=seed, dtype=dtype
    )


@register_dataset("cifar10")
def synthetic_cifar10(
    train_size: int = 4000, test_size: int = 1000, seed: int = 3, dtype=np.float64
) -> Dataset:
    """Synthetic stand-in for Cifar-10 (32x32 RGB, 10 classes)."""
    return make_dataset(
        "cifar10", (3, 32, 32), 10, train_size, test_size, noise=0.5, seed=seed, dtype=dtype
    )


@register_dataset("cifar100")
def synthetic_cifar100(
    train_size: int = 4000, test_size: int = 1000, seed: int = 4, dtype=np.float64
) -> Dataset:
    """Synthetic stand-in for Cifar-100 (32x32 RGB, 100 classes)."""
    return make_dataset(
        "cifar100", (3, 32, 32), 100, train_size, test_size, noise=0.5, seed=seed, dtype=dtype
    )


#: Dict-like facade over the dataset registry, kept for the historical
#: ``DATASETS[name]`` call sites; :data:`repro.registry.DATASETS` is the
#: source of truth (datasets registered by third-party code appear here).
DATASETS: Mapping[str, Callable[..., Dataset]] = RegistryView(_DATASET_REGISTRY)


def load_dataset(
    name: str,
    train_size: Optional[int] = None,
    test_size: Optional[int] = None,
    seed: Optional[int] = None,
    dtype=None,
) -> Dataset:
    """Load a named synthetic dataset with optional size/seed/dtype overrides.

    ``dtype`` reaches the factories that take one (every built-in does, and
    synthesises straight into it); a registered factory without a ``dtype``
    parameter returns whatever it builds and the caller casts.
    """
    try:
        factory = DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}") from None
    kwargs = {}
    if train_size is not None:
        kwargs["train_size"] = train_size
    if test_size is not None:
        kwargs["test_size"] = test_size
    if seed is not None:
        kwargs["seed"] = seed
    if dtype is not None and "dtype" in inspect.signature(factory).parameters:
        kwargs["dtype"] = dtype
    return factory(**kwargs)
