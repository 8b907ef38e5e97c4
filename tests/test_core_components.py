"""Tests for the Aergia core components: profiler, freezing, scheduler,
similarity and the simulated SGX enclave."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aergia import AergiaFederator
from repro.core.enclave import (
    EXPECTED_MEASUREMENT,
    AttestationReport,
    EnclaveError,
    SealedDistribution,
    SGXEnclave,
    seal_distribution,
)
from repro.core.freezing import (
    FrozenModelPackage,
    merge_weights,
    recombine_offloaded_model,
    split_weights,
)
from repro.core.offloading import OffloadAssignment, OffloadPlan
from repro.core.profiler import OnlineProfiler, PhaseProfile, profile_model_phases
from repro.core.scheduler import ClientPerformance, calc_op, schedule_offloading
from repro.core.similarity import compute_similarity_matrix
from repro.fl.config import ExperimentConfig
from repro.fl.federator import RoundState
from repro.fl.messages import ProfileReport
from repro.nn.architectures import build_model
from repro.nn.model import Phase
from repro.simulation.cluster import SimulatedCluster
from repro.simulation.resources import ResourceProfile


# ---------------------------------------------------------------------------
# Online profiler
# ---------------------------------------------------------------------------
class TestOnlineProfiler:
    def _durations(self, scale=1.0):
        return {
            Phase.FORWARD_FEATURES: 0.3 * scale,
            Phase.FORWARD_CLASSIFIER: 0.05 * scale,
            Phase.BACKWARD_CLASSIFIER: 0.1 * scale,
            Phase.BACKWARD_FEATURES: 0.55 * scale,
        }

    def test_profile_means(self):
        profiler = OnlineProfiler()
        profiler.record_batch(self._durations(1.0))
        profiler.record_batch(self._durations(3.0))
        profile = profiler.profile()
        assert profile.batches_measured == 2
        assert profile.phase_seconds[Phase.BACKWARD_FEATURES] == pytest.approx(0.55 * 2.0)

    def test_overhead_is_small_and_proportional(self):
        profiler = OnlineProfiler(overhead_fraction=0.005)
        overhead = profiler.record_batch(self._durations())
        assert overhead == pytest.approx(0.005 * 1.0)

    def test_stop_prevents_recording(self):
        profiler = OnlineProfiler()
        profiler.record_batch(self._durations())
        profiler.stop()
        assert profiler.record_batch(self._durations()) == 0.0
        assert profiler.batches_recorded == 1

    def test_reset(self):
        profiler = OnlineProfiler()
        profiler.record_batch(self._durations())
        profiler.reset()
        assert profiler.batches_recorded == 0
        assert profiler.active

    def test_profile_without_batches_raises(self):
        with pytest.raises(RuntimeError):
            OnlineProfiler().profile()

    def test_negative_duration_rejected(self):
        profiler = OnlineProfiler()
        with pytest.raises(ValueError):
            profiler.record_batch({Phase.FORWARD_FEATURES: -1.0})

    def test_invalid_overhead_rejected(self):
        with pytest.raises(ValueError):
            OnlineProfiler(overhead_fraction=0.5)

    def test_fractions_and_dominant_phase(self):
        profile = PhaseProfile(phase_seconds=self._durations(), batches_measured=1)
        fractions = profile.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert profile.dominant_phase() == Phase.BACKWARD_FEATURES

    def test_profile_model_phases_bf_dominates(self, small_mnist):
        """The paper's key observation (Figure 4): bf is the dominant phase."""
        model = build_model("mnist-cnn", rng=np.random.default_rng(0))
        profile = profile_model_phases(
            model, small_mnist.x_train, small_mnist.y_train, batches=2, batch_size=16
        )
        fractions = profile.fractions()
        assert fractions[Phase.BACKWARD_FEATURES] > 0.4
        assert profile.dominant_phase() == Phase.BACKWARD_FEATURES

    def test_profile_model_phases_preserves_weights(self, small_mnist):
        model = build_model("mnist-cnn", rng=np.random.default_rng(0))
        before = model.get_weights()
        profile_model_phases(model, small_mnist.x_train, small_mnist.y_train, batches=2, batch_size=8)
        after = model.get_weights()
        for key in before:
            assert np.allclose(before[key], after[key])


# ---------------------------------------------------------------------------
# Freezing / recombination
# ---------------------------------------------------------------------------
class TestFreezing:
    def _weights(self):
        model = build_model("mnist-cnn", rng=np.random.default_rng(0))
        return model.get_weights()

    def test_split_and_merge_roundtrip(self):
        weights = self._weights()
        features, classifier = split_weights(weights)
        merged = merge_weights(features, classifier)
        assert set(merged) == set(weights)
        for key in weights:
            assert np.allclose(merged[key], weights[key])

    def test_split_rejects_unknown_section(self):
        with pytest.raises(KeyError):
            split_weights({"bogus.W": np.zeros(2)})

    def test_merge_rejects_misplaced_keys(self):
        weights = self._weights()
        features, classifier = split_weights(weights)
        with pytest.raises(KeyError):
            merge_weights(classifier, classifier)

    def test_recombination_takes_features_from_strong_client(self):
        weak = self._weights()
        strong_model = build_model("mnist-cnn", rng=np.random.default_rng(9))
        strong_features, _ = split_weights(strong_model.get_weights())
        combined = recombine_offloaded_model(weak, strong_features)
        _, weak_classifier = split_weights(weak)
        for key, value in strong_features.items():
            assert np.allclose(combined[key], value)
        for key, value in weak_classifier.items():
            assert np.allclose(combined[key], value)

    def test_recombination_requires_feature_weights(self):
        weak = self._weights()
        with pytest.raises(ValueError):
            recombine_offloaded_model(weak, {})

    def test_recombination_ignores_strong_client_classifier_keys(self):
        """Strong-client classifier keys are dropped in favour of the weak's."""
        weak = self._weights()
        strong_model = build_model("mnist-cnn", rng=np.random.default_rng(9))
        strong_full = strong_model.get_weights()  # includes classifier keys
        combined = recombine_offloaded_model(weak, strong_full)
        strong_features, strong_classifier = split_weights(strong_full)
        _, weak_classifier = split_weights(weak)
        assert set(combined) == set(weak)
        for key, value in strong_features.items():
            assert np.allclose(combined[key], value)
        for key, value in weak_classifier.items():
            # The weak client's classifier wins over the strong client's.
            assert np.allclose(combined[key], value)
            if not np.allclose(value, strong_classifier[key]):  # skip zero-init biases
                assert not np.allclose(combined[key], strong_classifier[key])

    def test_frozen_package_validation(self):
        weights = self._weights()
        package = FrozenModelPackage(1, 3, weights, batches_to_train=5)
        assert package.payload_bytes() > 0
        with pytest.raises(ValueError):
            FrozenModelPackage(1, 3, weights, batches_to_train=-1)
        with pytest.raises(ValueError):
            FrozenModelPackage(1, 3, {}, batches_to_train=1)

    def test_frozen_package_flat_snapshot_roundtrip(self):
        """from_model packages the flat vector; load_into restores it exactly."""
        model = build_model("mnist-cnn", rng=np.random.default_rng(0))
        package = FrozenModelPackage.from_model(
            model, source_client_id=1, round_number=3, batches_to_train=5
        )
        assert package.flat_weights is not None
        assert package.num_parameters() == model.num_parameters()
        other = build_model("mnist-cnn", rng=np.random.default_rng(42))
        package.load_into(other)
        assert np.array_equal(other.get_flat_weights(), model.get_flat_weights())

    def test_payload_bytes_independent_of_compute_dtype(self):
        """Wire size is charged at the canonical width in both dtypes."""
        from repro.nn.model import SplitCNN
        from repro.simulation.network import WIRE_BYTES_PER_PARAM

        sizes = {}
        for dtype in ("float32", "float64"):
            built = build_model("mnist-cnn", rng=np.random.default_rng(0))
            model = SplitCNN(built.feature_layers, built.classifier_layers, built.name, dtype=dtype)
            package = FrozenModelPackage.from_model(model, 1, 3, batches_to_train=2)
            sizes[dtype] = package.payload_bytes()
        assert sizes["float32"] == sizes["float64"]
        assert sizes["float64"] == model.num_parameters() * WIRE_BYTES_PER_PARAM


# ---------------------------------------------------------------------------
# Offload plan containers
# ---------------------------------------------------------------------------
class TestOffloadPlan:
    def test_add_and_lookup(self):
        plan = OffloadPlan(round_number=1, mean_compute_time=10.0)
        plan.add(OffloadAssignment(1, 2, 4, 8.0, 8.0))
        assert plan.assignment_for(1).strong_client == 2
        assert plan.assignment_for(99) is None
        assert plan.as_dict() == {1: 2}
        assert plan.num_offloads == 1

    def test_duplicate_sender_rejected(self):
        plan = OffloadPlan(round_number=1, mean_compute_time=10.0)
        plan.add(OffloadAssignment(1, 2, 4, 8.0, 8.0))
        with pytest.raises(ValueError):
            plan.add(OffloadAssignment(1, 3, 4, 8.0, 8.0))

    def test_strong_client_used_once(self):
        plan = OffloadPlan(round_number=1, mean_compute_time=10.0)
        plan.add(OffloadAssignment(1, 2, 4, 8.0, 8.0))
        with pytest.raises(ValueError):
            plan.add(OffloadAssignment(3, 2, 4, 8.0, 8.0))

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            OffloadAssignment(1, 1, 4, 8.0, 8.0)
        with pytest.raises(ValueError):
            OffloadAssignment(1, 2, -4, 8.0, 8.0)
        with pytest.raises(ValueError):
            OffloadAssignment(1, 2, 4, -8.0, 8.0)


# ---------------------------------------------------------------------------
# Algorithm 2 (calc_op)
# ---------------------------------------------------------------------------
class TestCalcOp:
    def test_no_offloading_when_no_remaining_updates(self):
        ct, d = calc_op(1.0, 0.5, 0.3, weak_remaining=0, strong_remaining=10)
        assert d == 0
        assert ct == pytest.approx(0.0)

    def test_offloading_helps_slow_client(self):
        ct, d = calc_op(2.0, 0.5, 0.3, weak_remaining=20, strong_remaining=20)
        assert d > 0
        assert ct < 20 * 2.0

    def test_returned_ct_matches_objective_at_d(self):
        weak_t, strong_t, strong_x, ra, rb = 2.0, 0.5, 0.3, 16, 12
        ct, d = calc_op(weak_t, strong_t, strong_x, ra, rb)
        expected = max((ra - d) * weak_t + d * strong_x, (rb - d) * strong_t)
        assert ct == pytest.approx(expected)

    def test_result_is_global_minimum(self):
        weak_t, strong_t, strong_x, ra, rb = 3.0, 0.4, 0.25, 24, 30
        ct, _ = calc_op(weak_t, strong_t, strong_x, ra, rb)
        brute_force = min(
            max((ra - d) * weak_t + d * strong_x, (rb - d) * strong_t)
            for d in range(0, min(ra, rb) + 1)
        )
        assert ct == pytest.approx(brute_force)

    def test_validation(self):
        with pytest.raises(ValueError):
            calc_op(-1.0, 1.0, 1.0, 5, 5)
        with pytest.raises(ValueError):
            calc_op(1.0, 1.0, 1.0, -5, 5)

    @given(
        weak_t=st.floats(min_value=0.5, max_value=5.0),
        strong_t=st.floats(min_value=0.05, max_value=0.5),
        x_factor=st.floats(min_value=0.3, max_value=1.0),
        ra=st.integers(min_value=1, max_value=40),
        rb=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_calc_op_never_worse_than_no_offloading(self, weak_t, strong_t, x_factor, ra, rb):
        """Property: the optimal offloading point never hurts the weak client."""
        strong_x = strong_t * x_factor
        ct, d = calc_op(weak_t, strong_t, strong_x, ra, rb)
        assert 0 <= d <= min(ra, rb)
        assert ct <= ra * weak_t + 1e-9


# ---------------------------------------------------------------------------
# Algorithm 1 (schedule_offloading)
# ---------------------------------------------------------------------------
def _performance(client_id: int, batch_seconds: float, remaining: int = 20) -> ClientPerformance:
    head = batch_seconds * 0.35
    tail = batch_seconds * 0.65
    return ClientPerformance(
        client_id=client_id,
        head_seconds=head,
        tail_seconds=tail,
        feature_training_seconds=batch_seconds * 0.9,
        remaining_batches=remaining,
    )


class TestScheduleOffloading:
    def test_empty_input_gives_empty_plan(self):
        decision = schedule_offloading([])
        assert decision.plan.num_offloads == 0

    def test_homogeneous_clients_need_no_offloading(self):
        performances = [_performance(i, 1.0) for i in range(4)]
        decision = schedule_offloading(performances)
        assert decision.plan.num_offloads == 0

    def test_slow_client_offloads_to_fast_client(self):
        performances = [
            _performance(0, 4.0),
            _performance(1, 0.5),
            _performance(2, 0.6),
        ]
        decision = schedule_offloading(performances)
        plan = decision.plan
        assert plan.num_offloads >= 1
        assignment = plan.assignment_for(0)
        assert assignment is not None
        assert assignment.strong_client in (1, 2)
        assert assignment.offload_batches > 0
        assert assignment.estimated_duration < performances[0].estimated_completion

    def test_each_strong_client_used_at_most_once(self):
        performances = [
            _performance(0, 5.0),
            _performance(1, 4.0),
            _performance(2, 3.5),
            _performance(3, 0.4),
        ]
        decision = schedule_offloading(performances)
        receivers = list(decision.plan.as_dict().values())
        assert len(receivers) == len(set(receivers))
        assert decision.plan.num_offloads <= 1  # only one strong client available

    def test_weakest_client_is_served_first(self):
        performances = [
            _performance(0, 3.0),
            _performance(1, 6.0),   # the weakest
            _performance(2, 0.4),
        ]
        decision = schedule_offloading(performances)
        # With a single strong client, the weakest sender (client 1) gets it.
        assert decision.plan.assignment_for(1) is not None

    def test_similarity_steers_choice_of_strong_client(self):
        performances = [
            _performance(0, 4.0),
            _performance(1, 0.5),
            _performance(2, 0.5),
        ]
        # Client 2's data is identical to client 0's; client 1's is disjoint.
        similarity = np.array(
            [
                [0.0, 0.9, 0.0],
                [0.9, 0.0, 0.9],
                [0.0, 0.9, 0.0],
            ]
        )
        decision = schedule_offloading(
            performances,
            similarity=similarity,
            similarity_client_ids=[0, 1, 2],
            similarity_factor=5.0,
        )
        assignment = decision.plan.assignment_for(0)
        assert assignment is not None
        assert assignment.strong_client == 2

    def test_zero_similarity_factor_ignores_matrix(self):
        performances = [
            _performance(0, 4.0),
            _performance(1, 0.4),
            _performance(2, 0.6),
        ]
        similarity = np.array(
            [
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 1.0],
                [0.0, 1.0, 0.0],
            ]
        )
        with_sim = schedule_offloading(
            performances, similarity=similarity, similarity_client_ids=[0, 1, 2], similarity_factor=0.0
        )
        without = schedule_offloading(performances, similarity=None)
        assert with_sim.plan.as_dict() == without.plan.as_dict()

    def test_mean_compute_time_matches_definition(self):
        performances = [_performance(0, 2.0, remaining=10), _performance(1, 1.0, remaining=10)]
        decision = schedule_offloading(performances)
        expected = np.mean([p.estimated_completion for p in performances])
        assert decision.mean_compute_time == pytest.approx(expected)

    def test_duplicate_client_ids_rejected(self):
        with pytest.raises(ValueError):
            schedule_offloading([_performance(0, 1.0), _performance(0, 2.0)])

    def test_similarity_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            schedule_offloading(
                [_performance(0, 1.0), _performance(1, 2.0)],
                similarity=np.zeros((3, 3)),
                similarity_client_ids=[0, 1],
            )

    def test_negative_similarity_factor_rejected(self):
        with pytest.raises(ValueError):
            schedule_offloading([_performance(0, 1.0)], similarity_factor=-1.0)

    @given(
        speeds=st.lists(st.floats(min_value=0.2, max_value=6.0), min_size=2, max_size=10),
        remaining=st.integers(min_value=4, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_schedule_invariants(self, speeds, remaining):
        """Property: the plan never pairs a client with itself, never reuses a
        strong client, and only offloads when it improves the weak client's
        projected completion time."""
        performances = [_performance(i, s, remaining=remaining) for i, s in enumerate(speeds)]
        decision = schedule_offloading(performances)
        plan = decision.plan
        strong_clients = list(plan.as_dict().values())
        assert len(strong_clients) == len(set(strong_clients))
        by_id = {p.client_id: p for p in performances}
        for assignment in plan:
            assert assignment.weak_client != assignment.strong_client
            assert assignment.offload_batches > 0
            assert assignment.estimated_duration <= by_id[assignment.weak_client].estimated_completion


# ---------------------------------------------------------------------------
# Similarity + enclave
# ---------------------------------------------------------------------------
class TestSimilarityAndEnclave:
    def _counts(self):
        return {
            0: np.array([10, 0, 0, 0]),
            1: np.array([0, 10, 0, 0]),
            2: np.array([5, 5, 0, 0]),
        }

    def test_similarity_matrix_structure(self):
        similarity = compute_similarity_matrix(self._counts())
        assert similarity.client_ids == (0, 1, 2)
        assert similarity.matrix.shape == (3, 3)
        assert similarity.value(0, 0) == pytest.approx(0.0)
        assert similarity.value(0, 1) > similarity.value(0, 2)

    def test_submatrix(self):
        similarity = compute_similarity_matrix(self._counts())
        sub = similarity.submatrix([2, 0])
        assert sub.client_ids == (2, 0)
        assert sub.value(2, 0) == pytest.approx(similarity.value(0, 2))
        with pytest.raises(KeyError):
            similarity.submatrix([0, 99])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            compute_similarity_matrix({0: np.ones(3), 1: np.ones(4)})
        with pytest.raises(ValueError):
            compute_similarity_matrix({})

    def test_attestation_and_submission_flow(self):
        enclave = SGXEnclave(seed=3)
        report = enclave.attest()
        assert report.verify()
        for client_id, counts in self._counts().items():
            enclave.submit_distribution(seal_distribution(client_id, counts, report))
        assert enclave.num_submissions == 3
        similarity = enclave.similarity_matrix()
        expected = compute_similarity_matrix(self._counts())
        assert np.allclose(similarity.matrix, expected.matrix)

    def test_ciphertext_differs_from_plaintext(self):
        enclave = SGXEnclave(seed=3)
        report = enclave.attest()
        counts = np.array([1, 2, 3, 4], dtype=np.int64)
        sealed = seal_distribution(0, counts, report)
        assert sealed.ciphertext != counts.tobytes()

    def test_clients_refuse_unverified_enclave(self):
        bogus = AttestationReport(measurement="not-the-right-enclave", session_key=b"0" * 32)
        with pytest.raises(EnclaveError):
            seal_distribution(0, np.array([1, 2]), bogus)
        assert not bogus.verify(EXPECTED_MEASUREMENT)

    def test_raw_distributions_never_leave_the_enclave(self):
        enclave = SGXEnclave(seed=1)
        report = enclave.attest()
        enclave.submit_distribution(seal_distribution(0, np.array([1, 2, 3]), report))
        with pytest.raises(EnclaveError):
            _ = enclave.distributions
        with pytest.raises(EnclaveError):
            _ = enclave.raw_distributions

    def test_similarity_before_submissions_raises(self):
        with pytest.raises(EnclaveError):
            SGXEnclave().similarity_matrix()

    def test_tampered_ciphertext_detected_or_rejected(self):
        enclave = SGXEnclave(seed=3)
        report = enclave.attest()
        sealed = seal_distribution(0, np.array([3, 4, 5], dtype=np.int64), report)
        tampered = type(sealed)(
            client_id=sealed.client_id,
            ciphertext=sealed.ciphertext[:-4],
            num_classes=sealed.num_classes,
        )
        with pytest.raises(EnclaveError):
            enclave.submit_distribution(tampered)

    def test_seal_validation(self):
        report = SGXEnclave().attest()
        with pytest.raises(ValueError):
            seal_distribution(0, np.array([[1, 2]]), report)
        with pytest.raises(ValueError):
            seal_distribution(0, np.array([-1, 2]), report)

    def test_unknown_clients_raise_key_error(self):
        similarity = compute_similarity_matrix(self._counts())
        with pytest.raises(KeyError):
            similarity.value(0, 99)
        with pytest.raises(KeyError):
            compute_similarity_matrix(self._counts(), [0, 99])
        enclave = _enclave_with(self._counts())
        with pytest.raises(KeyError):
            enclave.similarity_for([0, 99])
        with pytest.raises(EnclaveError):
            SGXEnclave().similarity_for([0])

    def test_lookup_index_is_built_once(self):
        similarity = compute_similarity_matrix(self._counts())
        rows = similarity._rows
        assert rows == {0: 0, 1: 1, 2: 2}
        similarity.value(0, 1)
        assert similarity.submatrix([2, 0])._rows == {2: 0, 0: 1}
        assert similarity._rows is rows

    def test_cohort_of_nobody_is_an_empty_block(self):
        block = _enclave_with(self._counts()).similarity_for([])
        assert block.client_ids == () and block.matrix.shape == (0, 0)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_cohort_block_equals_the_full_matrix_bitwise(self, data):
        """Any subset, any order, repeats included: what the enclave
        releases per round is the paper's matrix restricted to the cohort."""
        num_clients = data.draw(st.integers(min_value=1, max_value=24), label="clients")
        num_classes = data.draw(st.integers(min_value=2, max_value=30), label="classes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        counts = rng.integers(0, 500, size=(num_clients, num_classes))
        counts[rng.random(counts.shape) < 0.6] = 0
        ids = [int(c) for c in rng.permutation(1000)[:num_clients]]  # not 0..n-1, not sorted
        enclave = _enclave_with(dict(zip(ids, counts)))
        cohort = data.draw(st.lists(st.sampled_from(ids), max_size=2 * num_clients), label="cohort")

        block = enclave.similarity_for(cohort)
        expected = enclave.similarity_matrix().submatrix(cohort)
        assert block.client_ids == expected.client_ids == tuple(cohort)
        assert np.array_equal(block.matrix, expected.matrix)
        assert np.array_equal(block.matrix, block.matrix.T)
        assert not np.diag(block.matrix).any()

    def test_late_submission_is_released_on_the_next_lookup(self):
        counts = self._counts()
        enclave = _enclave_with({cid: counts[cid] for cid in (0, 1)})
        first = enclave.similarity_for([1, 0])
        with pytest.raises(KeyError):
            enclave.similarity_for([0, 1, 2])
        enclave.submit_distribution(seal_distribution(2, counts[2], enclave.attest()))
        second = enclave.similarity_for([0, 1, 2])
        assert second.value(0, 1) == first.value(0, 1)
        assert np.array_equal(second.matrix, compute_similarity_matrix(counts).matrix)


def _enclave_with(counts_by_client) -> SGXEnclave:
    enclave = SGXEnclave(seed=3)
    report = enclave.attest()
    for client_id, counts in counts_by_client.items():
        enclave.submit_distribution(seal_distribution(client_id, counts, report))
    return enclave


def _per_byte_xor(client_id: int, data: bytes, key: bytes) -> bytes:
    """The sealing cipher as it was written first, a byte at a time."""
    nonce = client_id.to_bytes(8, "big", signed=True)
    stream = b""
    counter = 0
    while len(stream) < len(data):
        stream += hashlib.sha256(key + nonce + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(d ^ s for d, s in zip(data, stream))


class TestSealing:
    KEY = bytes(range(7, 39))

    @pytest.mark.parametrize("client_id", [0, 1, 4999, -3, 2**40])
    @pytest.mark.parametrize("num_classes", [1, 3, 10, 100])
    def test_ciphertext_equals_the_per_byte_cipher(self, client_id, num_classes):
        report = AttestationReport(measurement=EXPECTED_MEASUREMENT, session_key=self.KEY)
        counts = np.random.default_rng(num_classes).integers(0, 2**40, size=num_classes)
        sealed = seal_distribution(client_id, counts, report)
        assert sealed.num_classes == num_classes
        assert sealed.ciphertext == _per_byte_xor(client_id, counts.astype(np.int64).tobytes(), self.KEY)

    def test_round_trip_through_the_enclave(self):
        counts = {5: np.array([9, 0, 3, 1]), -2: np.array([0, 0, 0, 0]), 11: np.array([1, 1, 1, 1])}
        enclave = _enclave_with(counts)
        assert np.array_equal(enclave.similarity_matrix().matrix, compute_similarity_matrix(counts).matrix)

    def _blob(self, enclave, client_id, values, num_classes=None, cut=None):
        """A blob sealed by the per-byte cipher, so it can hold what
        ``seal_distribution`` refuses to seal."""
        plaintext = np.asarray(values, dtype=np.int64).tobytes()
        ciphertext = _per_byte_xor(client_id, plaintext, enclave.attest().session_key)
        return SealedDistribution(
            client_id=client_id,
            ciphertext=ciphertext[:cut],
            num_classes=len(values) if num_classes is None else num_classes,
        )

    def test_integrity_checks_still_refuse_bad_blobs(self):
        enclave = SGXEnclave(seed=3)
        enclave.submit_distribution(self._blob(enclave, 0, [3, 4, 5]))  # the helper seals correctly
        assert enclave.num_submissions == 1
        for bad, reason in (
            (self._blob(enclave, 1, [3, 4, 5], cut=-4), "truncated"),
            (self._blob(enclave, 1, [3, 4, 5], cut=-8), "wrong length"),
            (self._blob(enclave, 1, [3, 4, 5], num_classes=4), "wrong length"),
            (self._blob(enclave, 1, [3, -4, 5]), "negative"),
        ):
            with pytest.raises(EnclaveError, match=reason):
                enclave.submit_distribution(bad)
        assert enclave.num_submissions == 1


def _aergia_federator(enclave=None, similarity=None) -> AergiaFederator:
    cluster = SimulatedCluster([ResourceProfile(speed_fraction=s) for s in (0.1, 0.9, 1.0)])
    config = ExperimentConfig(
        dataset="mnist", architecture="mnist-cnn", algorithm="aergia", num_clients=3,
        rounds=1, local_updates=6, profile_batches=2, train_size=96, test_size=16, batch_size=16,
    )  # fmt: skip
    model = build_model("mnist-cnn", rng=np.random.default_rng(0))
    x_test, y_test = np.zeros((16, 1, 28, 28)), np.zeros(16, dtype=np.int64)
    return AergiaFederator(cluster, config, model, x_test, y_test, enclave=enclave, similarity=similarity)


def _reported_round(client_ids) -> RoundState:
    """A round in which client 0 is a clear straggler and all have reported."""
    state = RoundState(round_number=1, start_time=0.0, selected_clients=list(client_ids))
    for client_id in client_ids:
        batch = 1.0 if client_id == 0 else 0.1
        state.profile_reports[client_id] = ProfileReport(
            client_id=client_id,
            round_number=1,
            phase_seconds={
                Phase.FORWARD_FEATURES: 0.4 * batch,
                Phase.FORWARD_CLASSIFIER: 0.1 * batch,
                Phase.BACKWARD_CLASSIFIER: 0.1 * batch,
                Phase.BACKWARD_FEATURES: 0.4 * batch,
            },
            batches_measured=2,
            batches_completed=2,
            remaining_batches=4,
        )
    return state


class TestAergiaAsksTheEnclavePerRound:
    COUNTS = {0: np.array([10, 0, 0, 0]), 1: np.array([0, 0, 0, 10]), 2: np.array([9, 1, 0, 0])}

    def test_late_joiner_reaches_the_scheduler(self):
        """A distribution submitted after the federator was built is part of
        the next plan (the federator used to snapshot the matrix)."""
        enclave = _enclave_with({cid: self.COUNTS[cid] for cid in (0, 1)})
        federator = _aergia_federator(enclave=enclave)
        assert federator._compute_plan(_reported_round([0, 1])).as_dict() == {0: 1}
        with pytest.raises(KeyError):
            federator._compute_plan(_reported_round([0, 1, 2]))
        enclave.submit_distribution(seal_distribution(2, self.COUNTS[2], enclave.attest()))
        # Clients 1 and 2 are equally fast; 2 holds the straggler's classes.
        assert federator._compute_plan(_reported_round([0, 1, 2])).as_dict() == {0: 2}

    def test_injected_similarity_serves_the_same_call_site(self):
        full = compute_similarity_matrix(self.COUNTS)
        from_matrix = _aergia_federator(similarity=full)._compute_plan(_reported_round([0, 1, 2]))
        from_enclave = _aergia_federator(enclave=_enclave_with(self.COUNTS))._compute_plan(_reported_round([0, 1, 2]))
        assert from_matrix.as_dict() == from_enclave.as_dict() == {0: 2}
        with pytest.raises(KeyError):
            _aergia_federator(similarity=full.submatrix([0, 1]))._compute_plan(_reported_round([0, 1, 2]))
