"""Tests for the phase-aware SplitCNN model container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.architectures import build_model
from repro.nn.layers import Dense, Flatten, ReLU
from repro.nn.model import Phase, PhaseTrace, SplitCNN
from repro.nn.optim import SGD


def tiny_model(rng=None):
    """A very small split model over 1x4x4 inputs with 3 classes."""
    rng = rng if rng is not None else np.random.default_rng(0)
    from repro.nn.layers import Conv2D

    features = [Conv2D(1, 2, 3, padding=1, rng=rng), ReLU()]
    classifier = [Flatten(), Dense(2 * 4 * 4, 3, rng=rng)]
    return SplitCNN(features, classifier, name="tiny")


def tiny_batch(rng=None, n=8):
    rng = rng if rng is not None else np.random.default_rng(1)
    x = rng.normal(size=(n, 1, 4, 4))
    y = rng.integers(0, 3, size=n)
    return x, y


class TestPhaseTrace:
    def test_fractions_sum_to_one(self):
        trace = PhaseTrace()
        for i, phase in enumerate(Phase, start=1):
            trace.add(phase, float(i))
        assert sum(trace.fractions().values()) == pytest.approx(1.0)

    def test_empty_trace_fractions_are_zero(self):
        assert all(v == 0.0 for v in PhaseTrace().fractions().values())

    def test_merge_and_scale(self):
        a, b = PhaseTrace(), PhaseTrace()
        a.add(Phase.FORWARD_FEATURES, 2.0)
        b.add(Phase.FORWARD_FEATURES, 3.0)
        merged = a.merge(b)
        assert merged.flops[Phase.FORWARD_FEATURES] == 5.0
        assert merged.scaled(2.0).flops[Phase.FORWARD_FEATURES] == 10.0

    def test_ordered_phases(self):
        assert [p.value for p in Phase.ordered()] == ["ff", "fc", "bc", "bf"]


class TestWeightsIO:
    def test_get_set_roundtrip(self):
        model = tiny_model()
        weights = model.get_weights()
        other = tiny_model(np.random.default_rng(99))
        other.set_weights(weights)
        for key, value in other.get_weights().items():
            assert np.allclose(value, weights[key])

    def test_get_weights_returns_copies(self):
        model = tiny_model()
        weights = model.get_weights()
        key = next(iter(weights))
        weights[key] += 100.0
        assert not np.allclose(model.get_weights()[key], weights[key])

    def test_set_weights_missing_key_raises(self):
        model = tiny_model()
        weights = model.get_weights()
        weights.pop(next(iter(weights)))
        with pytest.raises(KeyError):
            model.set_weights(weights)

    def test_set_weights_shape_mismatch_raises(self):
        model = tiny_model()
        weights = model.get_weights()
        key = next(iter(weights))
        weights[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.set_weights(weights)

    def test_feature_classifier_split_covers_all_keys(self):
        model = tiny_model()
        features = model.get_feature_weights()
        classifier = model.get_classifier_weights()
        assert set(features) | set(classifier) == set(model.get_weights())
        assert not set(features) & set(classifier)

    def test_set_partial_weights(self):
        model = tiny_model()
        features = model.get_feature_weights()
        for key in features:
            features[key] = features[key] + 1.0
        model.set_partial_weights(features)
        for key, value in model.get_feature_weights().items():
            assert np.allclose(value, features[key])

    def test_set_partial_weights_unknown_key_raises(self):
        model = tiny_model()
        with pytest.raises(KeyError):
            model.set_partial_weights({"bogus.key": np.zeros(3)})

    def test_parameter_counts_consistent(self):
        model = tiny_model()
        assert model.num_parameters() == (
            model.num_feature_parameters() + model.num_classifier_parameters()
        )

    def test_set_partial_weights_is_atomic_on_bad_shape(self):
        """A payload with one bad shape must leave the model untouched."""
        model = tiny_model()
        before = model.get_weights()
        payload = model.get_feature_weights()
        good_key = next(iter(payload))
        payload[good_key] = payload[good_key] + 5.0
        payload["classifier.1.W"] = np.zeros((1, 1))  # wrong shape
        with pytest.raises(ValueError):
            model.set_partial_weights(payload)
        for key, value in model.get_weights().items():
            assert np.array_equal(value, before[key])


class TestFlatWeightAPI:
    def test_sections_cover_all_parameters(self):
        model = tiny_model()
        total = sum(model.flat_parameters(s).size for s in model.SECTIONS)
        assert total == model.num_parameters()
        assert model.get_flat_weights().shape == (total,)

    def test_flat_views_alias_layer_params(self):
        """Layer parameter dicts must be live views into the section vectors."""
        model = tiny_model()
        vec = model.flat_parameters("features")
        conv = model.feature_layers[0]
        vec[...] = 0.0
        assert not conv.params["W"].any()
        conv.params["W"][...] = 3.0
        assert vec.sum() == pytest.approx(conv.params["W"].size * 3.0)

    def test_flat_roundtrip_matches_dict_roundtrip(self):
        model = tiny_model()
        other = tiny_model(np.random.default_rng(77))
        other.set_flat_weights(model.get_flat_weights())
        for key, value in model.get_weights().items():
            assert np.array_equal(value, other.get_weights()[key])

    def test_section_flat_roundtrip(self):
        model = tiny_model()
        features = model.get_flat_weights("features")
        model.set_flat_weights(features * 0.0, section="features")
        assert not model.flat_parameters("features").any()
        model.set_flat_weights(features, section="features")
        assert np.array_equal(model.get_flat_weights("features"), features)

    def test_flat_shape_validation(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.set_flat_weights(np.zeros(3))
        with pytest.raises(ValueError):
            model.set_flat_weights(np.zeros(3), section="classifier")
        with pytest.raises(KeyError):
            model.flat_parameters("bogus")

    def test_flat_slots_describe_layout(self):
        model = tiny_model()
        views = model.named_flat_views()
        for section in model.SECTIONS:
            vec = model.flat_parameters(section)
            for slot in model.flat_slots(section):
                view = vec[slot.offset : slot.offset + slot.size].reshape(slot.shape)
                assert view.base is not None
                assert np.array_equal(view, views[slot.key])

    def test_flat_grads_follow_backward(self):
        model = tiny_model()
        x, y = tiny_batch()
        model.train_batch(x, y, optimizer=None)
        assert np.abs(model.flat_grads("features")).sum() > 0
        assert np.abs(model.flat_grads("classifier")).sum() > 0
        model.zero_grad()
        assert not model.flat_grads("features").any()

    def test_optimizer_step_visible_through_views(self):
        """A fused flat step must move the per-layer parameter views."""
        model = tiny_model()
        x, y = tiny_batch()
        before = model.feature_layers[0].params["W"].copy()
        model.train_batch(x, y, SGD(lr=0.5))
        assert not np.array_equal(model.feature_layers[0].params["W"], before)

    def test_explicit_dtype_casts_parameters(self):
        model64 = tiny_model()
        from repro.nn.model import SplitCNN

        cast = SplitCNN(
            model64.feature_layers, model64.classifier_layers, "tiny64", dtype=np.float64
        )
        assert cast.dtype == np.float64
        assert cast.get_flat_weights().dtype == np.float64
        for value in cast.get_weights().values():
            assert value.dtype == np.float64


class TestTraining:
    def test_train_batch_returns_all_phases(self):
        model = tiny_model()
        x, y = tiny_batch()
        _, trace = model.train_batch(x, y, SGD(lr=0.01))
        for phase in Phase:
            assert trace.flops[phase] > 0

    def test_training_reduces_loss(self):
        model = tiny_model()
        x, y = tiny_batch(n=32)
        optimizer = SGD(lr=0.1, momentum=0.9)
        first_loss, _ = model.train_batch(x, y, optimizer)
        for _ in range(30):
            last_loss, _ = model.train_batch(x, y, optimizer)
        assert last_loss < first_loss

    def test_batch_size_mismatch_raises(self):
        model = tiny_model()
        x, y = tiny_batch()
        with pytest.raises(ValueError):
            model.train_batch(x, y[:-1], SGD(lr=0.1))

    def test_frozen_features_skip_bf_phase(self):
        model = tiny_model()
        x, y = tiny_batch()
        model.freeze_features()
        _, trace = model.train_batch(x, y, SGD(lr=0.1))
        assert trace.flops[Phase.BACKWARD_FEATURES] == 0.0
        assert trace.flops[Phase.BACKWARD_CLASSIFIER] > 0.0

    def test_frozen_features_are_not_updated(self):
        model = tiny_model()
        x, y = tiny_batch()
        model.freeze_features()
        before = model.get_feature_weights()
        model.train_batch(x, y, SGD(lr=0.5))
        after = model.get_feature_weights()
        for key in before:
            assert np.allclose(before[key], after[key])

    def test_frozen_classifier_is_not_updated_but_features_are(self):
        model = tiny_model()
        x, y = tiny_batch()
        model.freeze_classifier()
        classifier_before = model.get_classifier_weights()
        features_before = model.get_feature_weights()
        model.train_batch(x, y, SGD(lr=0.5))
        for key, value in model.get_classifier_weights().items():
            assert np.allclose(value, classifier_before[key])
        changed = any(
            not np.allclose(value, features_before[key])
            for key, value in model.get_feature_weights().items()
        )
        assert changed

    def test_unfreeze_restores_updates(self):
        model = tiny_model()
        x, y = tiny_batch()
        model.freeze_features()
        model.unfreeze_features()
        before = model.get_feature_weights()
        model.train_batch(x, y, SGD(lr=0.5))
        changed = any(
            not np.allclose(value, before[key])
            for key, value in model.get_feature_weights().items()
        )
        assert changed

    def test_train_without_optimizer_keeps_weights(self):
        model = tiny_model()
        x, y = tiny_batch()
        before = model.get_weights()
        model.train_batch(x, y, optimizer=None)
        after = model.get_weights()
        for key in before:
            assert np.allclose(before[key], after[key])

    def test_phase_trace_for_batch_preserves_weights(self):
        model = tiny_model()
        x, y = tiny_batch()
        before = model.get_weights()
        trace = model.phase_trace_for_batch(x, y)
        assert trace.total() > 0
        for key, value in model.get_weights().items():
            assert np.allclose(value, before[key])


class TestInferenceAndEvaluation:
    def test_forward_shape(self):
        model = tiny_model()
        x, _ = tiny_batch()
        assert model.forward(x).shape == (x.shape[0], 3)

    def test_predict_proba_rows_sum_to_one(self):
        model = tiny_model()
        x, _ = tiny_batch()
        probs = model.predict_proba(x)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_evaluate_bounds(self):
        model = tiny_model()
        x, y = tiny_batch(n=20)
        loss, accuracy = model.evaluate(x, y)
        assert loss > 0
        assert 0.0 <= accuracy <= 1.0

    def test_evaluate_empty_raises(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.evaluate(np.zeros((0, 1, 4, 4)), np.zeros((0,), dtype=int))

    def test_clone_architecture_is_independent(self):
        model = tiny_model()
        clone = model.clone_architecture()
        clone_weights = clone.get_weights()
        key = next(iter(clone_weights))
        clone.params_changed = clone_weights[key] + 1  # unrelated attribute
        model_weights_before = model.get_weights()
        # Training the clone must not change the original.
        x, y = tiny_batch()
        clone.train_batch(x, y, SGD(lr=0.5))
        for k, value in model.get_weights().items():
            assert np.allclose(value, model_weights_before[k])

    def test_requires_classifier_layers(self):
        with pytest.raises(ValueError):
            SplitCNN([ReLU()], [], name="broken")


class TestRealArchitectureTraining:
    def test_mnist_cnn_learns_on_tiny_dataset(self, small_mnist):
        model = build_model("mnist-cnn", rng=np.random.default_rng(0))
        optimizer = SGD(lr=0.05, momentum=0.9)
        x, y = small_mnist.x_train[:64], small_mnist.y_train[:64]
        _, accuracy_before = model.evaluate(x, y)
        for _ in range(12):
            model.train_batch(x[:32], y[:32], optimizer)
            model.train_batch(x[32:], y[32:], optimizer)
        _, accuracy_after = model.evaluate(x, y)
        assert accuracy_after > accuracy_before


class TestComputeDtypeOverride:
    # Now pins: there is no override to leak between threads — a model's
    # dtype is its own argument, and a model built without one is float32
    # whichever thread builds it.
    def test_an_override_on_one_thread_is_invisible_on_another(self):
        """Two models of different dtypes built side by side on two threads."""
        import threading

        built = {}

        def build_float64():
            plain = tiny_model()
            built["float64"] = SplitCNN(
                plain.feature_layers, plain.classifier_layers, "tiny64", dtype=np.float64
            )
            built["plain"] = tiny_model()

        thread = threading.Thread(target=build_float64)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert built["float64"].dtype == np.float64
        assert built["float64"].get_flat_weights().dtype == np.float64
        assert built["plain"].dtype == tiny_model().dtype == np.float32
