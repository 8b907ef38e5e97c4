"""The client pool: mechanics and slot-budget parity guarantees.

Two layers of coverage:

* unit tests of :class:`repro.simulation.virtual_pool.VirtualClientPool`
  (LRU recycling, pinning, dehydration safety, loader-state round-trips)
  driven through a built experiment handle;
* end-to-end parity: a run with a tight slot budget must reproduce the
  never-evicting run (``pool_slots=num_clients`` — what "eager" means now
  that every cohort lives in the pool) **bit for bit**, including under
  churn with partial participation (the regime where clients are evicted
  and rehydrated between rounds).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.runtime import build_experiment, run_experiment


def _partial_config(algorithm="fedavg", scenario="churn", **overrides):
    """Small partial-participation config that forces pool churn."""
    return evaluation_config(
        "mnist",
        algorithm,
        "noniid",
        SCALES["smoke"],
        seed=5,
        scenario=scenario,
        dtype="float32",
        num_clients=6,
        clients_per_round=3,
        rounds=3,
        **overrides,
    )


# ---------------------------------------------------------------------------
# Arena sizing: which slot budget a config gets
# ---------------------------------------------------------------------------
def _profile_config(scale_name):
    return evaluation_config("mnist", "fedavg", "noniid", SCALES[scale_name], seed=1)


class TestModeSelection:
    """How many slots the one client pool gets (the eager/virtual mode switch is gone)."""

    def test_auto_keeps_small_cohorts_eager(self, smoke_config):
        assert smoke_config.pool_slots is None
        handle = build_experiment(smoke_config)
        assert handle.pool.slots == smoke_config.num_clients
        assert handle.active_clients() == []  # hydration waits for selection
        handle.run()
        assert len(handle.active_clients()) == smoke_config.num_clients

    @pytest.mark.parametrize("scale", ["smoke", "bench", "full"])
    def test_full_participation_profiles_hold_the_whole_cohort(self, scale):
        config = _profile_config(scale)
        assert build_experiment(config).pool.slots == config.num_clients

    def test_bench_run_hydrates_each_client_once_and_never_evicts(self):
        config = _profile_config("bench")
        handle = build_experiment(config)
        handle.run()
        stats = handle.pool.describe()
        assert stats["evictions"] == 0
        assert stats["hydrations"] == stats["hydrated"] == config.num_clients

    def test_auto_virtualizes_large_cohorts(self, smoke_config):
        big = smoke_config.with_overrides(num_clients=100, clients_per_round=4, train_size=400)
        pool = build_experiment(big).pool
        assert big.effective_clients_per_round <= pool.slots < big.num_clients

    def test_explicit_slots_override_the_derivation(self, smoke_config):
        assert build_experiment(smoke_config.with_overrides(pool_slots=3)).pool.slots == 3
        # A budget beyond the cohort is capped: there is nobody else to hold.
        capped = build_experiment(smoke_config.with_overrides(pool_slots=1000))
        assert capped.pool.slots == smoke_config.num_clients

    def test_invalid_pool_settings_rejected(self, smoke_config):
        with pytest.raises(ValueError):
            smoke_config.with_overrides(pool_slots=0)
        with pytest.raises(TypeError):  # the retired mode switch is not a field
            smoke_config.with_overrides(client_pool="eager")

    def test_city_and_metro_profiles_resolve_to_virtual_configs(self):
        for name in ("city", "metro"):
            config = _profile_config(name)
            assert config.effective_clients_per_round < config.num_clients
            assert build_experiment(config).pool.slots < config.num_clients

    def test_large_scales_are_wired_through_api_and_cli(self):
        import repro.api as api
        from repro.cli import build_parser

        config = api.experiment("fedavg").dataset("mnist").scale("city").scenario("churn").build()
        assert config.num_clients == SCALES["city"].num_clients
        # The CLI's --scale choices render from the registry, so the new
        # profiles are accepted without CLI changes.
        args = build_parser().parse_args(["run", "--scale", "metro"])
        assert args.scale == "metro"


# ---------------------------------------------------------------------------
# Pool mechanics
# ---------------------------------------------------------------------------
class TestPoolMechanics:
    def _pool(self, slots=3):
        config = _partial_config(scenario="stable").with_overrides(pool_slots=slots)
        handle = build_experiment(config)
        return handle, handle.pool

    def test_descriptors_cover_cohort_without_hydration(self):
        handle, pool = self._pool()
        assert len(pool.descriptors) == 6
        assert pool.hydrated_ids() == []
        assert handle.active_clients() == []
        # Descriptor shard sizes agree with the lazy plan.
        for cid, descriptor in pool.descriptors.items():
            assert descriptor.num_samples == handle.partition_plan.size_of(cid)

    def test_hydrate_is_idempotent_and_lru_ordered(self):
        _, pool = self._pool(slots=3)
        first = pool.hydrate(0)
        assert pool.hydrate(0) is first
        pool.hydrate(1)
        pool.hydrate(2)
        pool.hydrate(0)  # refresh 0: LRU order becomes 1, 2, 0
        assert pool.hydrated_ids() == [1, 2, 0]
        pool.hydrate(3)  # arena full: evicts client 1 (least recently used)
        assert pool.hydrated_ids() == [2, 0, 3]
        assert pool.client(1) is None
        assert pool.evictions == 1 and pool.peak_hydrated == 3

    # Now pins: an arena entry holds a client and its data shard, never a
    # model — every job of the run trains on the trainer's one model, so
    # eviction has no model buffers to recycle.
    def test_eviction_recycles_model_buffers(self):
        handle, pool = self._pool(slots=2)
        a = pool.hydrate(0)
        pool.hydrate(1)
        pool.hydrate(2)  # evicts 0
        assert pool.hydrated_ids() == [1, 2] and pool.peak_hydrated == 2
        for client in (a, pool.client(2)):
            assert not hasattr(client, "model")
            assert client.trainer is handle.cluster.trainer
        assert "slots_built" not in pool.describe()

    def test_pinned_clients_are_never_evicted(self):
        _, pool = self._pool(slots=2)
        pool.ensure_active([0, 1])
        pool.hydrate(2)  # everything pinned: the arena grows instead
        assert set(pool.hydrated_ids()) == {0, 1, 2}
        assert pool.peak_hydrated == 3
        pool.ensure_active([2, 3])  # new pins release 0/1 for eviction
        assert 3 in pool.hydrated_ids()

    def test_dehydration_unregisters_the_client(self):
        handle, pool = self._pool(slots=2)
        pool.hydrate(0)
        assert handle.cluster.actor(0) is not None
        pool.dehydrate(0)
        assert handle.cluster.actor(0) is None
        assert pool.client(0) is None
        with pytest.raises(KeyError):
            handle.cluster.network.send("federator", 0, "train_request")

    def test_loader_position_round_trips_through_eviction(self):
        handle, pool = self._pool(slots=2)
        client = pool.hydrate(0)
        seen = [client.loader.next_batch()[1].copy() for _ in range(3)]
        pool.dehydrate(0)
        assert pool.descriptors[0].saved_state is not None
        resumed = pool.hydrate(0)
        assert resumed is not client  # a fresh instance...
        continuation = resumed.loader.next_batch()[1]
        # ... that continues the exact batch sequence: replaying 4 draws on
        # a control client yields the same labels in the same order.
        control_handle = build_experiment(handle.config)
        control = control_handle.pool.hydrate(0)
        control_seq = [control.loader.next_batch()[1] for _ in range(4)]
        for a, b in zip(seen + [continuation], control_seq):
            assert np.array_equal(a, b)

    def test_lifetime_counters_survive_eviction(self):
        _, pool = self._pool(slots=2)
        client = pool.hydrate(0)
        client.rounds_participated = 4
        client.total_batches_trained = 17
        pool.dehydrate(0)
        resumed = pool.hydrate(0)
        assert resumed.rounds_participated == 4
        assert resumed.total_batches_trained == 17

    def test_clients_expecting_an_offload_are_not_evictable(self):
        # An OFFLOAD_EXPECT promises an incoming model that leaves no
        # pending event or in-flight message on the recipient; eviction in
        # that window would lose the offload (or crash the sender on an
        # unregistered recipient).  While the weak source can still send,
        # the expectation must pin the client; once the source finishes
        # without offloading (or vanishes), the void promise must *not*
        # pin it forever.
        from repro.fl.client import ClientRound
        from repro.fl.messages import MessageKind
        from repro.simulation.network import Message

        _, pool = self._pool(slots=2)
        strong = pool.hydrate(0)
        weak = pool.hydrate(2)
        strong.round_state = ClientRound(round=1, total_batches=6)
        weak.round_state = ClientRound(round=1, total_batches=6)
        weak._pending_batch_event = object()  # still training toward the freeze point
        strong.handle_message(
            Message(
                sender="federator",
                recipient=0,
                kind=MessageKind.OFFLOAD_EXPECT,
                payload={"source": 2, "offload_batches": 3},
                round_number=1,
            )
        )
        assert not strong.is_quiescent(resolve_peer=pool.client)
        pool.hydrate(1)  # arena pressure: neither 0 nor 2 is evictable -> grow
        assert {0, 2} <= set(pool.hydrated_ids())
        assert pool.peak_hydrated == 3
        # The source finishes its own training without offloading: the
        # expectation is void and the strong client is evictable again.
        weak._pending_batch_event = None
        weak.round_state.own_training_done = True
        assert strong.is_quiescent(resolve_peer=pool.client)
        # Without peer resolution the check stays conservative.
        assert not strong.is_quiescent()

    def test_disconnects_while_dehydrated_are_counted(self):
        # Churn can take a dehydrated client offline: there is no actor to
        # notify, so the descriptor must record the disconnect for the
        # lifetime counter to match an always-hydrated client's.
        handle, pool = self._pool(slots=2)
        pool.hydrate(0)
        pool.dehydrate(0)
        handle.cluster.set_client_offline(0)
        handle.cluster.set_client_online(0)
        handle.cluster.set_client_offline(0)
        handle.cluster.set_client_online(0)
        assert pool.descriptors[0].pending_disconnects == 2
        assert pool.hydrate(0).times_disconnected == 2
        # Never-hydrated clients are covered too.
        handle.cluster.set_client_offline(1)
        handle.cluster.set_client_online(1)
        assert pool.hydrate(1).times_disconnected == 1
        # Hydrated clients count through their own on_disconnect, not the
        # descriptor (no double counting).
        handle.cluster.set_client_offline(1)
        assert pool.client(1).times_disconnected == 2
        assert pool.descriptors[1].pending_disconnects == 0


# ---------------------------------------------------------------------------
# End-to-end parity: tight arena == never-evicting arena, bit for bit
# ---------------------------------------------------------------------------
def _run_never_evicting(config):
    """The reference run: every client keeps its slot once hydrated."""
    handle = build_experiment(config.with_overrides(pool_slots=config.num_clients))
    result = handle.run()
    assert handle.pool.evictions == 0
    return result


class TestEagerParity:
    """A tight arena == a never-evicting one, bit for bit (the eager loop is gone)."""

    @pytest.mark.parametrize("algorithm", ["fedavg", "tifl", "aergia", "fedbuff"])
    def test_virtual_run_matches_eager_bitwise(self, algorithm):
        base = _partial_config(algorithm=algorithm, scenario="churn")
        eager = _run_never_evicting(base)
        handle = build_experiment(base.with_overrides(pool_slots=3))
        virtual = handle.run()
        assert eager.summary() == virtual.summary()
        assert len(eager.rounds) == len(virtual.rounds)
        for a, b in zip(eager.rounds, virtual.rounds):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert handle.pool.hydrations >= base.effective_clients_per_round

    def test_parity_holds_across_eviction_and_rehydration(self):
        # Seed/round count chosen so selection rotates through the cohort:
        # the 3-slot arena must evict and rehydrate mid-run, and the
        # resumed loaders keep the run bit-identical to never evicting.
        base = _partial_config(scenario="churn").with_overrides(seed=3, rounds=4)
        eager = _run_never_evicting(base)
        handle = build_experiment(base.with_overrides(pool_slots=3))
        virtual = handle.run()
        assert eager.summary() == virtual.summary()
        assert handle.pool.evictions > 0, "config no longer exercises rehydration"

    def test_aergia_offload_pairs_survive_arena_pressure(self):
        # Straggler bursts maximise offload scheduling; the weak/strong
        # pairing spans the quiescent window between OFFLOAD_EXPECT and
        # OFFLOADED_MODEL delivery, which must not be broken by eviction.
        base = _partial_config(algorithm="aergia", scenario="straggler-burst").with_overrides(
            seed=3, rounds=4
        )
        eager = _run_never_evicting(base)
        virtual = run_experiment(base.with_overrides(pool_slots=3))
        assert eager.summary() == virtual.summary()

    def test_deadline_stragglers_block_eviction_until_drained(self):
        # The deadline baseline drops stragglers that keep training past the
        # round; they are not quiescent and must survive arena pressure.
        base = _partial_config(algorithm="deadline", scenario="stable").with_overrides(
            deadline_seconds=0.4
        )
        eager = _run_never_evicting(base)
        virtual = run_experiment(base.with_overrides(pool_slots=3))
        assert eager.summary() == virtual.summary()

    def test_empty_shard_clients_are_never_selected(self):
        # Extreme non-IID splits of huge cohorts can leave clients with
        # zero samples; descriptor-level selection must skip them (training
        # a data-less client is impossible).
        config = evaluation_config(
            "mnist",
            "fedavg",
            "noniid",
            SCALES["smoke"],
            seed=2,
            scenario="stable",
            dtype="float32",
            num_clients=200,
            clients_per_round=8,
            rounds=2,
            train_size=400,  # ~2 samples per client: empty shards guaranteed
        )
        handle = build_experiment(config)
        pool = handle.pool
        empty = [cid for cid in range(200) if not pool.has_data(cid)]
        assert empty, "config no longer produces empty shards"
        result = handle.run()
        assert result.num_rounds == 2
        for record in result.rounds:
            assert not set(record.selected_clients) & set(empty)
        # A never-evicting arena skips them identically (every slot budget
        # shares one store key, so they must behave the same).
        assert _run_never_evicting(config).summary() == result.summary()

    def test_pool_stays_bounded_across_many_rounds(self):
        config = evaluation_config(
            "mnist",
            "fedavg",
            "noniid",
            SCALES["smoke"],
            seed=9,
            scenario="churn",
            dtype="float32",
            num_clients=120,
            clients_per_round=6,
            rounds=5,
            train_size=480,
        )
        handle = build_experiment(config)
        handle.run()
        stats = handle.pool.describe()
        assert stats["peak_hydrated"] <= 2 * config.effective_clients_per_round
        assert stats["hydrations"] >= 5  # rounds actually hydrated clients
