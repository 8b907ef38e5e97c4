"""Dataset substrate: synthetic image benchmarks, partitioning and similarity.

The paper evaluates on MNIST, Fashion-MNIST and Cifar-10 and (for phase
profiling) Cifar-100.  Because this reproduction runs offline, the datasets
are replaced by deterministic *synthetic* class-conditional image
generators with the same shapes and class counts
(:mod:`repro.data.datasets`).  All the machinery that the paper's
evaluation actually depends on — partitioning data across clients, IID and
non-IID label skews, per-client class distributions, and Earth Mover's
Distance similarity between clients — operates on these datasets exactly
as it would on the real benchmarks.
"""

from repro.data.datasets import (
    Dataset,
    make_dataset,
    synthetic_mnist,
    synthetic_fmnist,
    synthetic_cifar10,
    synthetic_cifar100,
    DATASETS,
)
from repro.data.partition import (
    ClientPartition,
    partition_iid,
    partition_noniid_label_skew,
    partition_dirichlet,
    partition_dataset,
)
from repro.data.distribution import (
    class_distribution,
    normalized_class_distribution,
    earth_movers_distance,
    pairwise_emd,
    similarity_matrix,
)
from repro.data.loader import BatchLoader

__all__ = [
    "Dataset",
    "make_dataset",
    "synthetic_mnist",
    "synthetic_fmnist",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "DATASETS",
    "ClientPartition",
    "partition_iid",
    "partition_noniid_label_skew",
    "partition_dirichlet",
    "partition_dataset",
    "class_distribution",
    "normalized_class_distribution",
    "earth_movers_distance",
    "pairwise_emd",
    "similarity_matrix",
    "BatchLoader",
]
