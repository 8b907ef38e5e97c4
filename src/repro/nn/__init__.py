"""Pure-numpy neural network substrate used by the Aergia reproduction.

This package provides everything the federated-learning layers of the
reproduction need from a deep-learning framework:

* layers (:mod:`repro.nn.layers`) with forward and backward passes and
  per-call FLOP accounting,
* a model container (:mod:`repro.nn.model`) that splits a convolutional
  network into *feature* layers and *classifier* layers and executes the
  four training phases of the paper (ff, fc, bc, bf) separately,
* losses (:mod:`repro.nn.loss`), optimisers (:mod:`repro.nn.optim`),
  metrics (:mod:`repro.nn.metrics`),
* the network architectures used in the paper's evaluation
  (:mod:`repro.nn.architectures`).

The substrate performs real gradient computation so that accuracy numbers
in the experiments are the product of actual learning, while FLOP counts
per phase feed the cluster simulator's virtual-time cost model.
"""

from repro.nn.dtype import COMPUTE_DTYPE, resolve_dtype
from repro.nn.layers import (
    Layer,
    Conv2D,
    Dense,
    ReLU,
    Flatten,
    MaxPool2D,
    ResidualBlock,
)
from repro.nn.loss import CrossEntropyLoss, softmax
from repro.nn.model import SplitCNN, PhaseTrace, Phase
from repro.nn.optim import SGD, ProximalSGD, Optimizer
from repro.nn.metrics import accuracy, top_k_accuracy
from repro.nn.architectures import (
    build_model,
    mnist_cnn,
    fmnist_cnn,
    cifar10_cnn,
    cifar10_resnet,
    cifar100_vgg,
    cifar100_resnet,
    ARCHITECTURES,
)

__all__ = [
    "COMPUTE_DTYPE",
    "resolve_dtype",
    "Layer",
    "Conv2D",
    "Dense",
    "ReLU",
    "Flatten",
    "MaxPool2D",
    "ResidualBlock",
    "CrossEntropyLoss",
    "softmax",
    "SplitCNN",
    "PhaseTrace",
    "Phase",
    "SGD",
    "ProximalSGD",
    "Optimizer",
    "accuracy",
    "top_k_accuracy",
    "build_model",
    "mnist_cnn",
    "fmnist_cnn",
    "cifar10_cnn",
    "cifar10_resnet",
    "cifar100_vgg",
    "cifar100_resnet",
    "ARCHITECTURES",
]
