"""Tests for the dataset substrate: generation, partitioning, EMD, loading."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import (
    _NOISE_BLOCK,
    DATASETS,
    Dataset,
    _smooth_prototype,
    load_dataset,
    make_dataset,
    synthetic_cifar10,
    synthetic_mnist,
)
from repro.data.distribution import (
    class_distribution,
    earth_movers_distance,
    heterogeneity_index,
    normalized_class_distribution,
    pairwise_emd,
    similarity_matrix,
)
from repro.data.loader import BatchLoader
from repro.data.partition import (
    partition_dataset,
    partition_dirichlet,
    partition_iid,
    partition_noniid_label_skew,
)


class TestDatasets:
    def test_mnist_shapes(self):
        dataset = synthetic_mnist(train_size=120, test_size=40)
        assert dataset.x_train.shape == (120, 1, 28, 28)
        assert dataset.x_test.shape == (40, 1, 28, 28)
        assert dataset.input_shape == (1, 28, 28)
        assert dataset.num_classes == 10

    def test_cifar_shapes(self):
        dataset = synthetic_cifar10(train_size=60, test_size=20)
        assert dataset.x_train.shape == (60, 3, 32, 32)

    def test_labels_in_range(self):
        dataset = synthetic_mnist(train_size=150, test_size=30)
        assert dataset.y_train.min() >= 0
        assert dataset.y_train.max() < 10

    def test_determinism(self):
        a = synthetic_mnist(train_size=50, test_size=10, seed=11)
        b = synthetic_mnist(train_size=50, test_size=10, seed=11)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)

    def test_different_seeds_differ(self):
        a = synthetic_mnist(train_size=50, test_size=10, seed=1)
        b = synthetic_mnist(train_size=50, test_size=10, seed=2)
        assert not np.allclose(a.x_train, b.x_train)

    def test_values_standardised(self):
        dataset = synthetic_mnist(train_size=100, test_size=10)
        assert dataset.x_train.min() >= -1.0 - 1e-9
        assert dataset.x_train.max() <= 1.0 + 1e-9

    def test_subset(self):
        dataset = synthetic_mnist(train_size=100, test_size=10)
        subset = dataset.subset(np.arange(10))
        assert subset.train_size == 10
        assert subset.test_size == dataset.test_size
        assert np.array_equal(subset.y_train, dataset.y_train[:10])

    def test_dataset_is_learnable(self):
        """A linear probe beats chance comfortably, so FL accuracy is meaningful.

        With a single prototype per class the problem is nearly linearly
        separable; the default multi-mode datasets are intentionally harder
        (a CNN is needed to do well, see TestRealArchitectureTraining).
        """
        dataset = make_dataset(
            "probe", (1, 12, 12), 4, 400, 100, noise=0.3, seed=2, modes_per_class=1
        )
        x = np.hstack([dataset.x_train.reshape(dataset.train_size, -1), np.ones((400, 1))])
        x_test = np.hstack([dataset.x_test.reshape(dataset.test_size, -1), np.ones((100, 1))])
        # One-vs-all least squares probe.
        targets = np.eye(4)[dataset.y_train]
        w, *_ = np.linalg.lstsq(x, targets, rcond=None)
        predictions = np.argmax(x_test @ w, axis=1)
        assert np.mean(predictions == dataset.y_test) > 0.5

    def test_registry_and_loader_function(self):
        assert set(DATASETS) == {"mnist", "fmnist", "cifar10", "cifar100"}
        dataset = load_dataset("fmnist", train_size=40, test_size=10, seed=3)
        assert dataset.name == "fmnist"
        with pytest.raises(KeyError):
            load_dataset("imagenet")

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_dataset("x", (1, 8, 8), 3, 0, 10)
        with pytest.raises(ValueError):
            make_dataset("x", (1, 8, 8), 1, 10, 10)
        with pytest.raises(ValueError):
            make_dataset("x", (1, 8, 8), 3, 10, 10, modes_per_class=0)


def _per_sample_dataset(name, shape, num_classes, train_size, test_size, noise, max_shift=3, modes_per_class=2, seed=0):
    """``make_dataset`` as it was written first: one ``np.roll`` per sample.

    The oracle the vectorised ``_generate_split`` must equal bit for bit,
    draw for draw.
    """
    rng = np.random.default_rng(seed)
    prototypes = np.stack(
        [
            np.stack([_smooth_prototype(shape, rng) for _ in range(modes_per_class)])
            for _ in range(num_classes)
        ]
    )

    def split(n_samples):
        labels = rng.integers(0, num_classes, size=n_samples)
        mode_choice = rng.integers(0, modes_per_class, size=n_samples)
        images = np.empty((n_samples,) + shape, dtype=np.float64)
        shifts_y = rng.integers(-max_shift, max_shift + 1, size=n_samples)
        shifts_x = rng.integers(-max_shift, max_shift + 1, size=n_samples)
        for i in range(n_samples):
            proto = prototypes[labels[i], mode_choice[i]]
            images[i] = np.roll(proto, (shifts_y[i], shifts_x[i]), axis=(1, 2))
        images += rng.normal(0.0, noise, size=images.shape)
        np.clip(images, 0.0, 1.0, out=images)
        images = (images - 0.5) / 0.5
        return images, labels.astype(np.int64)

    x_train, y_train = split(train_size)
    x_test, y_test = split(test_size)
    return Dataset(name, x_train, y_train, x_test, y_test, num_classes)


def _assert_same_arrays(dataset, oracle):
    for field in ("x_train", "y_train", "x_test", "y_test"):
        got, expected = getattr(dataset, field), getattr(oracle, field)
        assert got.dtype == expected.dtype and got.shape == expected.shape, field
        assert np.array_equal(got, expected), field


#: geometry and noise of the registered datasets (their factories' constants)
_REGISTERED = {
    "mnist": ((1, 28, 28), 10, 0.35),
    "fmnist": ((1, 28, 28), 10, 0.45),
    "cifar10": ((3, 32, 32), 10, 0.5),
    "cifar100": ((3, 32, 32), 100, 0.5),
}


class TestDatasetSynthesisMatchesPerSampleRoll:
    @pytest.mark.parametrize("seed", [1, 23])
    # The last pair sits on the noise-block edges: two full blocks and one
    # sample, and exactly one block.
    @pytest.mark.parametrize(
        "sizes", [(97, 1), (400, 60), (2 * _NOISE_BLOCK + 1, _NOISE_BLOCK)]
    )
    @pytest.mark.parametrize("name", sorted(_REGISTERED))
    def test_registered_datasets(self, name, sizes, seed):
        shape, num_classes, noise = _REGISTERED[name]
        train_size, test_size = sizes
        dataset = load_dataset(name, train_size=train_size, test_size=test_size, seed=seed)
        oracle = _per_sample_dataset(name, shape, num_classes, train_size, test_size, noise, seed=seed)
        _assert_same_arrays(dataset, oracle)

    @pytest.mark.parametrize("max_shift", [0, 1, 5])
    def test_shift_range_and_modes(self, max_shift):
        kwargs = dict(noise=0.2, max_shift=max_shift, modes_per_class=3, seed=7)
        dataset = make_dataset("probe", (2, 9, 11), 4, 150, 1, **kwargs)
        _assert_same_arrays(dataset, _per_sample_dataset("probe", (2, 9, 11), 4, 150, 1, **kwargs))

    # Each block-edge size once as the train split and once as the test
    # split, which continues the train split's generator.
    @pytest.mark.parametrize(
        "sizes",
        [
            (1, 2 * _NOISE_BLOCK + 1),
            (_NOISE_BLOCK - 1, _NOISE_BLOCK),
            (_NOISE_BLOCK, _NOISE_BLOCK - 1),
            (2 * _NOISE_BLOCK + 1, 1),
        ],
    )
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", sorted(_REGISTERED))
    def test_compute_dtype_is_the_float64_dataset_cast(self, name, dtype, sizes):
        """Synthesised straight into ``dtype`` == synthesised, then cast."""
        train_size, test_size = sizes
        kwargs = dict(train_size=train_size, test_size=test_size, seed=9)
        direct = load_dataset(name, dtype=np.dtype(dtype), **kwargs)
        reference = load_dataset(name, **kwargs)
        assert reference.x_train.dtype == reference.x_test.dtype == np.float64
        for field in ("x_train", "x_test"):
            got = getattr(direct, field)
            assert got.dtype == np.dtype(dtype), field
            assert got.tobytes() == getattr(reference, field).astype(dtype).tobytes(), field
        for field in ("y_train", "y_test"):
            got, expected = getattr(direct, field), getattr(reference, field)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), field

    def test_build_peak_is_the_dataset_not_three_of_it(self):
        """No split-sized float64 staging array and no cast copy: building a
        float32 ``city`` dataset peaks near the arrays it returns (loading
        in float64 and casting peaked at three times that)."""
        import tracemalloc

        tracemalloc.start()
        try:
            dataset = load_dataset("mnist", train_size=8000, test_size=64, seed=5, dtype=np.float32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(
            getattr(dataset, field).nbytes for field in ("x_train", "y_train", "x_test", "y_test")
        )
        assert peak < 1.3 * returned, (peak, returned)


class TestDatasetFactoryWithoutDtype:
    """A third-party factory that predates the ``dtype`` parameter."""

    @pytest.fixture
    def plain_factory(self):
        from repro.registry import DATASETS as registry
        from repro.registry import register_dataset

        @register_dataset("unit-test-plain", architecture="mnist-cnn")
        def plain(train_size=200, test_size=40, seed=0):
            return make_dataset("unit-test-plain", (1, 28, 28), 10, train_size, test_size, seed=seed)

        try:
            yield plain
        finally:
            registry.unregister("unit-test-plain")

    def test_load_dataset_does_not_pass_it_a_dtype(self, plain_factory):
        dataset = load_dataset("unit-test-plain", train_size=20, test_size=5, dtype=np.float32)
        assert dataset.x_train.dtype == np.float64  # the caller casts

    def test_it_still_builds_a_float32_experiment(self, plain_factory, smoke_config):
        from repro.fl.runtime import build_experiment

        config = smoke_config.with_overrides(dataset="unit-test-plain", dtype="float32")
        with build_experiment(config) as handle:
            assert handle.pool.dataset.x_train.dtype == np.float32
            assert handle.federator.x_test.dtype == np.float32
            result = handle.run()
        assert result.num_rounds == config.rounds


class TestPartitioning:
    def test_iid_partitions_are_disjoint_and_cover(self, tiny_dataset):
        partitions = partition_iid(tiny_dataset, 5, rng=np.random.default_rng(0))
        all_indices = np.concatenate([p.indices for p in partitions])
        assert len(all_indices) == tiny_dataset.train_size
        assert len(np.unique(all_indices)) == tiny_dataset.train_size

    def test_iid_sizes_balanced(self, tiny_dataset):
        partitions = partition_iid(tiny_dataset, 4, rng=np.random.default_rng(0))
        sizes = [p.size for p in partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_iid_class_counts_match_indices(self, tiny_dataset):
        partitions = partition_iid(tiny_dataset, 3, rng=np.random.default_rng(0))
        for p in partitions:
            counts = np.bincount(tiny_dataset.y_train[p.indices], minlength=3)
            assert np.array_equal(counts, p.class_counts)

    def test_noniid_respects_classes_per_client(self, tiny_dataset):
        partitions = partition_noniid_label_skew(
            tiny_dataset, 4, classes_per_client=2, rng=np.random.default_rng(0)
        )
        for p in partitions:
            classes_owned = np.count_nonzero(p.class_counts)
            assert classes_owned <= 2

    def test_noniid_partitions_are_disjoint(self, tiny_dataset):
        partitions = partition_noniid_label_skew(
            tiny_dataset, 4, classes_per_client=2, rng=np.random.default_rng(1)
        )
        all_indices = np.concatenate([p.indices for p in partitions if p.size])
        assert len(all_indices) == len(np.unique(all_indices))

    def test_noniid_invalid_classes_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            partition_noniid_label_skew(tiny_dataset, 3, classes_per_client=0)
        with pytest.raises(ValueError):
            partition_noniid_label_skew(tiny_dataset, 3, classes_per_client=99)

    def test_noniid_is_more_heterogeneous_than_iid(self, small_mnist):
        iid = partition_iid(small_mnist, 6, rng=np.random.default_rng(0))
        noniid = partition_noniid_label_skew(
            small_mnist, 6, classes_per_client=2, rng=np.random.default_rng(0)
        )
        iid_h = heterogeneity_index([p.class_counts for p in iid])
        noniid_h = heterogeneity_index([p.class_counts for p in noniid])
        assert noniid_h > iid_h

    def test_dirichlet_partition_covers_all_samples(self, tiny_dataset):
        partitions = partition_dirichlet(tiny_dataset, 4, alpha=0.5, rng=np.random.default_rng(0))
        total = sum(p.size for p in partitions)
        assert total == tiny_dataset.train_size

    def test_dirichlet_invalid_alpha(self, tiny_dataset):
        with pytest.raises(ValueError):
            partition_dirichlet(tiny_dataset, 4, alpha=0.0)

    def test_dispatch_by_scheme(self, tiny_dataset):
        for scheme in ("iid", "noniid", "dirichlet"):
            partitions = partition_dataset(tiny_dataset, 3, scheme=scheme)
            assert len(partitions) == 3
        with pytest.raises(ValueError):
            partition_dataset(tiny_dataset, 3, scheme="bogus")

    def test_too_many_clients_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            partition_iid(tiny_dataset, tiny_dataset.train_size + 1)


class TestDistributionAndEMD:
    def test_class_distribution_counts(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        assert np.array_equal(class_distribution(labels, 4), [2, 1, 3, 0])

    def test_class_distribution_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            class_distribution(np.array([0, 5]), 3)

    def test_normalisation(self):
        dist = normalized_class_distribution(np.array([2.0, 2.0]))
        assert np.allclose(dist, [0.5, 0.5])

    def test_normalisation_of_empty_counts_is_uniform(self):
        dist = normalized_class_distribution(np.zeros(4))
        assert np.allclose(dist, 0.25)

    def test_emd_identity(self):
        p = np.array([3.0, 1.0, 0.0])
        assert earth_movers_distance(p, p) == pytest.approx(0.0)

    def test_emd_symmetry(self):
        p = np.array([3.0, 1.0, 0.0])
        q = np.array([0.0, 1.0, 3.0])
        assert earth_movers_distance(p, q) == pytest.approx(earth_movers_distance(q, p))

    def test_emd_disjoint_greater_than_overlapping(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        c = np.array([0.5, 0.5, 0.0, 0.0])
        assert earth_movers_distance(a, b) > earth_movers_distance(a, c)

    def test_emd_shape_mismatch(self):
        with pytest.raises(ValueError):
            earth_movers_distance(np.ones(3), np.ones(4))

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=8),
        st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_emd_properties(self, counts_a, counts_b):
        """EMD is non-negative, bounded by 1 and symmetric for equal lengths."""
        size = min(len(counts_a), len(counts_b))
        a = np.array(counts_a[:size], dtype=float)
        b = np.array(counts_b[:size], dtype=float)
        d_ab = earth_movers_distance(a, b)
        d_ba = earth_movers_distance(b, a)
        assert 0.0 <= d_ab <= 1.0
        assert d_ab == pytest.approx(d_ba)

    def test_similarity_matrix_properties(self):
        counts = [np.array([5, 0, 0]), np.array([0, 5, 0]), np.array([2, 2, 1])]
        matrix = similarity_matrix(counts)
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_similarity_metric_validation(self):
        with pytest.raises(ValueError):
            similarity_matrix([np.ones(3)], metric="cosine")

    def test_similarity_matrix_of_no_clients_is_empty(self):
        assert similarity_matrix([]).shape == (0, 0)
        with pytest.raises(ValueError):
            similarity_matrix([np.ones(3), np.ones(4)])
        with pytest.raises(ValueError):
            pairwise_emd(np.ones(3))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_scalar_emd_bitwise(self, data):
        """Every pair, every bit: 2-100 classes, 1-64 clients, empty and
        single-class clients, any block size."""
        num_classes = data.draw(st.integers(min_value=2, max_value=100), label="classes")
        num_clients = data.draw(st.integers(min_value=1, max_value=64), label="clients")
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 2000, size=(num_clients, num_classes))
        counts[rng.random(counts.shape) < rng.random()] = 0  # label skew
        kinds = rng.integers(0, 4, size=num_clients)
        counts[kinds == 0] = 0  # a client with no data
        for row in np.flatnonzero(kinds == 1):  # a client with one class
            counts[row] = 0
            counts[row, rng.integers(num_classes)] = rng.integers(1, 2000)

        matrix = similarity_matrix(list(counts))

        # The scalar path as it was: normalise, then a distance that
        # normalises again.
        distributions = [normalized_class_distribution(c) for c in counts]
        expected = np.zeros((num_clients, num_clients))
        for i in range(num_clients):
            for j in range(num_clients):
                if i != j:
                    expected[i, j] = earth_movers_distance(distributions[i], distributions[j])
        assert np.array_equal(matrix, expected)
        assert np.array_equal(matrix, matrix.T)
        assert not np.diag(matrix).any()
        block_rows = data.draw(st.integers(min_value=1, max_value=num_clients), label="block_rows")
        assert np.array_equal(pairwise_emd(counts, block_rows=block_rows), matrix)
        # A pair's distance does not depend on who else is in the cohort.
        subset = rng.permutation(num_clients)[: data.draw(st.integers(1, num_clients), label="subset")]
        assert np.array_equal(pairwise_emd(counts[subset]), matrix[np.ix_(subset, subset)])

    def test_heterogeneity_index_empty_raises(self):
        with pytest.raises(ValueError):
            heterogeneity_index([])


class TestBatchLoader:
    def test_epoch_covers_all_samples(self):
        x = np.arange(10).reshape(10, 1).astype(float)
        y = np.arange(10)
        loader = BatchLoader(x, y, batch_size=3, seed=0)
        seen = []
        for xb, _ in loader.epoch():
            seen.extend(xb.ravel().astype(int).tolist())
        assert sorted(seen) == list(range(10))

    def test_len_counts_partial_batch(self):
        loader = BatchLoader(np.zeros((10, 1)), np.zeros(10, dtype=int), batch_size=4)
        assert len(loader) == 3

    def test_reshuffles_between_epochs(self):
        x = np.arange(32).reshape(32, 1).astype(float)
        y = np.arange(32)
        loader = BatchLoader(x, y, batch_size=32, seed=3)
        first = loader.next_batch()[0].ravel().tolist()
        second = loader.next_batch()[0].ravel().tolist()
        assert sorted(first) == sorted(second)
        assert first != second

    def test_without_shuffle_order_is_stable(self):
        x = np.arange(6).reshape(6, 1).astype(float)
        y = np.arange(6)
        loader = BatchLoader(x, y, batch_size=2, shuffle=False)
        assert loader.next_batch()[0].ravel().tolist() == [0.0, 1.0]

    def test_batches_per_epochs(self):
        loader = BatchLoader(np.zeros((10, 1)), np.zeros(10, dtype=int), batch_size=5)
        assert loader.batches_per_epochs(3) == 6
        with pytest.raises(ValueError):
            loader.batches_per_epochs(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchLoader(np.zeros((3, 1)), np.zeros(2, dtype=int), batch_size=1)
        with pytest.raises(ValueError):
            BatchLoader(np.zeros((3, 1)), np.zeros(3, dtype=int), batch_size=0)
        empty = BatchLoader(np.zeros((0, 1)), np.zeros(0, dtype=int), batch_size=2)
        with pytest.raises(ValueError):
            empty.next_batch()
