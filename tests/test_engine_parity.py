"""Old-vs-new engine parity: the optimised float64 path must be bit-identical.

The optimised engine (scratch reuse, flat-index pooling, fused optimiser
steps, stacked-vector aggregation) claims to preserve the exact
floating-point operation order of the seed implementation when running in
``float64``.  These tests hold it to that claim at three levels:

1. per-layer forward/backward against :mod:`repro.nn.reference`,
2. multi-step training and the fused optimiser/aggregation kernels,
3. the federated loop: client jobs run by ``fl.training.train`` and FedAvg
   over several rounds on the reference layers must equal the same loop on
   the optimised layers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.aggregation import fedavg_aggregate, fednova_aggregate
from repro.nn import architectures
from repro.nn.layers import Conv2D, Dense, MaxPool2D
from repro.nn.model import SplitCNN
from repro.nn.optim import SGD, ProximalSGD
from repro.nn.reference import (
    ReferenceConv2D,
    ReferenceDense,
    ReferenceMaxPool2D,
    ReferenceSGD,
    reference_fedavg_aggregate,
    reference_fednova_aggregate,
    reference_mnist_cnn,
)


def _random_weight_sets(num_clients: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    shapes = {"features.0.W": (8, 1, 5, 5), "features.0.b": (8,), "classifier.1.W": (784, 10)}
    return [
        {key: rng.normal(size=shape) for key, shape in shapes.items()}
        for _ in range(num_clients)
    ]


class TestLayerParity:
    def _pair(self, new_layer, ref_layer, x, upstream):
        for key, value in new_layer.params.items():
            value[...] = ref_layer.params[key]
        out_new = new_layer.forward(x, training=True)
        out_ref = ref_layer.forward(x, training=True)
        assert np.array_equal(out_new, out_ref)
        new_layer.zero_grad()
        ref_layer.zero_grad()
        new_layer.forward(x, training=True)
        ref_layer.forward(x, training=True)
        gx_new = new_layer.backward(upstream)
        gx_ref = ref_layer.backward(upstream)
        assert np.array_equal(gx_new, gx_ref)
        for key in new_layer.grads:
            assert np.array_equal(new_layer.grads[key], ref_layer.grads[key])

    def test_conv2d_padded(self):
        rng = np.random.default_rng(3)
        new = Conv2D(2, 4, 5, padding=2, rng=np.random.default_rng(1), dtype=np.float64)
        ref = ReferenceConv2D(2, 4, 5, padding=2, rng=np.random.default_rng(1))
        x = rng.normal(size=(3, 2, 8, 8))
        self._pair(new, ref, x, rng.normal(size=(3, 4, 8, 8)))

    def test_conv2d_strided(self):
        rng = np.random.default_rng(4)
        new = Conv2D(1, 2, 3, stride=2, rng=np.random.default_rng(1), dtype=np.float64)
        ref = ReferenceConv2D(1, 2, 3, stride=2, rng=np.random.default_rng(1))
        x = rng.normal(size=(2, 1, 9, 9))
        self._pair(new, ref, x, rng.normal(size=(2, 2, 4, 4)))

    def test_maxpool_with_ties(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 3, size=(2, 3, 8, 8)).astype(np.float64)  # many ties
        upstream = rng.normal(size=(2, 3, 4, 4))
        new, ref = MaxPool2D(2), ReferenceMaxPool2D(2)
        assert np.array_equal(new.forward(x, training=True), ref.forward(x, training=True))
        assert np.array_equal(new.backward(upstream), ref.backward(upstream))

    def test_dense(self):
        rng = np.random.default_rng(6)
        new = Dense(12, 5, rng=np.random.default_rng(1), dtype=np.float64)
        ref = ReferenceDense(12, 5, rng=np.random.default_rng(1))
        x = rng.normal(size=(4, 12))
        self._pair(new, ref, x, rng.normal(size=(4, 5)))


class TestOptimizerParity:
    @pytest.mark.parametrize("momentum,weight_decay", [(0.0, 0.0), (0.9, 0.0), (0.9, 1e-3)])
    def test_fused_sgd_matches_seed_loop(self, momentum, weight_decay):
        rng = np.random.default_rng(7)
        params_a = {k: rng.normal(size=(17,)) for k in ("a", "b", "c")}
        params_b = {k: v.copy() for k, v in params_a.items()}
        fused = SGD(lr=0.05, momentum=momentum, weight_decay=weight_decay)
        seed = ReferenceSGD(lr=0.05, momentum=momentum, weight_decay=weight_decay)
        for _ in range(5):
            grads = {k: rng.normal(size=(17,)) for k in params_a}
            fused.step(params_a, grads)
            seed.step(params_b, grads)
        for key in params_a:
            assert np.array_equal(params_a[key], params_b[key])

    def test_fused_proximal_sgd_matches_seed_formula(self):
        rng = np.random.default_rng(8)
        anchor = {"w": rng.normal(size=(9,))}
        params = {"w": rng.normal(size=(9,))}
        expected = params["w"].copy()
        grads = {"w": rng.normal(size=(9,))}
        prox = ProximalSGD(lr=0.1, mu=0.5)
        prox.set_anchor(anchor)
        prox.step(params, grads)
        # Seed formula: w -= lr * (g + mu * (w - anchor)).
        expected -= 0.1 * (grads["w"] + 0.5 * (expected - anchor["w"]))
        assert np.array_equal(params["w"], expected)


class TestAggregationParity:
    def test_fedavg_matches_seed_loop(self):
        weight_sets = _random_weight_sets(16, seed=11)
        updates = [(weights, 10 * (i + 1)) for i, weights in enumerate(weight_sets)]
        new = fedavg_aggregate(updates)
        ref = reference_fedavg_aggregate(updates)
        assert set(new) == set(ref)
        for key in new:
            assert np.array_equal(new[key], ref[key])

    def test_fednova_matches_seed_loop(self):
        weight_sets = _random_weight_sets(16, seed=12)
        global_weights = _random_weight_sets(1, seed=13)[0]
        updates = [
            (weights, 10 * (i + 1), 1 + (i % 5)) for i, weights in enumerate(weight_sets)
        ]
        new = fednova_aggregate(global_weights, updates)
        ref = reference_fednova_aggregate(global_weights, updates)
        for key in new:
            assert np.array_equal(new[key], ref[key])


class TestModelParity:
    def test_training_trajectory_bitwise_identical(self):
        """Several momentum+weight-decay steps on the full mnist-cnn stack."""
        new_model = architectures.mnist_cnn(rng=np.random.default_rng(2))
        ref_model = reference_mnist_cnn(rng=np.random.default_rng(9))
        new64 = SplitCNN(
            new_model.feature_layers, new_model.classifier_layers, "mnist-cnn", dtype=np.float64
        )
        new64.set_flat_weights(ref_model.get_flat_weights())
        rng = np.random.default_rng(10)
        x = rng.normal(size=(16, 1, 28, 28))
        y = rng.integers(0, 10, size=16)
        opt_new = SGD(lr=0.05, momentum=0.9, weight_decay=1e-4)
        opt_ref = ReferenceSGD(lr=0.05, momentum=0.9, weight_decay=1e-4, model=ref_model)
        for step in range(4):
            loss_new, trace_new = new64.train_batch(x, y, opt_new)
            loss_ref, trace_ref = ref_model.train_batch(x, y, opt_ref)
            assert loss_new == loss_ref
            assert trace_new.flops == trace_ref.flops
        assert np.array_equal(new64.get_flat_weights(), ref_model.get_flat_weights())


class TestSuiteParity:
    """The federated loop, seed engine against optimised engine (float64)."""

    CLIENT_SIZES = (40, 48, 56, 64)
    ROUNDS = 3
    BATCHES = 3

    def _federate(self, model, aggregate):
        """FedAvg over non-IID mnist shards: every round, each client's job
        runs through ``fl.training.train`` from the global weights; returns
        the losses, each round's global vector and the final evaluation."""
        from repro.data.datasets import load_dataset
        from repro.fl.training import train

        data = load_dataset("mnist", train_size=256, test_size=64, seed=42, dtype=np.float64)
        order = np.argsort(data.y_train, kind="stable")  # label-sorted: non-IID shards
        bounds = np.cumsum((0,) + self.CLIENT_SIZES)
        shards = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        optimizer = SGD(lr=0.05, momentum=0.9, weight_decay=1e-4)
        states = [{"velocity": {}} for _ in shards]
        global_weights = reference_mnist_cnn(rng=np.random.default_rng(9)).get_flat_weights()
        losses, trajectory = [], []
        for round_number in range(self.ROUNDS):
            outcomes = []
            for client, shard in enumerate(shards):
                rng = np.random.default_rng(100 * round_number + client)
                outcome = train(
                    model,
                    {
                        "weights": global_weights,
                        "optimizer": optimizer,
                        "optimizer_state": states[client],
                        "x": data.x_train[shard],
                        "y": data.y_train[shard],
                        "indices": [
                            rng.choice(len(shard), 16, replace=False) for _ in range(self.BATCHES)
                        ],
                        "frozen": False,
                        "features_only": False,
                        "freeze_at": None,
                    },
                )
                states[client] = outcome["optimizer"]
                losses.extend(outcome["losses"])
                outcomes.append(np.concatenate([outcome["weights"][s] for s in model.SECTIONS]))
            global_weights = aggregate(model, outcomes)
            trajectory.append(global_weights)
        model.set_flat_weights(global_weights)
        return losses, trajectory, model.evaluate(data.x_test, data.y_test)

    # Now pins: seed parity of the federated loop at float64 without a
    # float64 run — client jobs through ``fl.training.train`` and FedAvg,
    # over several rounds and clients: the optimised layers (cast to
    # float64) with the flat FedAvg kernel against the reference layers with
    # the seed FedAvg loop, every loss, every round's global model and the
    # final evaluation bit for bit.
    def test_serial_suite_summaries_match_reference_engine(self):
        """Per-round global models: reference layers vs optimised layers (float64)."""
        from repro.fl.aggregation import fedavg_aggregate_flat

        def flat_fedavg(model, rows):
            return fedavg_aggregate_flat(rows, self.CLIENT_SIZES)

        def seed_fedavg(model, rows):
            updates = []
            for row, size in zip(rows, self.CLIENT_SIZES):
                model.set_flat_weights(row)
                updates.append((model.get_weights(), size))
            model.set_weights(reference_fedavg_aggregate(updates))
            return model.get_flat_weights()

        built = architectures.mnist_cnn(rng=np.random.default_rng(2))
        optimised = SplitCNN(
            built.feature_layers, built.classifier_layers, "mnist-cnn", dtype=np.float64
        )
        reference = reference_mnist_cnn(rng=np.random.default_rng(9))
        new_losses, new_trajectory, new_eval = self._federate(optimised, flat_fedavg)
        ref_losses, ref_trajectory, ref_eval = self._federate(reference, seed_fedavg)
        assert len(new_losses) == len(self.CLIENT_SIZES) * self.ROUNDS * self.BATCHES
        assert new_losses == ref_losses
        for new_global, ref_global in zip(new_trajectory, ref_trajectory):
            assert new_global.dtype == ref_global.dtype == np.float64
            assert np.array_equal(new_global, ref_global)
        assert new_eval == ref_eval
