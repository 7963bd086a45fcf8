"""Unit tests for the sharded kernel's building blocks.

Covers the pure pieces in isolation: :class:`ShardPlan` partitioning,
the caller-keyed event queue API (``push_at_key`` / ``run_window``),
the lookahead window, and the straggler check at its exact boundary.
End-to-end serial-parity runs live in
``tests/integration/test_shard_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ShardingError
from repro.net.message import Message
from repro.sim import shards as shards_module
from repro.sim.event import (
    PRIORITY_ARRIVAL_BAND,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    EventQueue,
)
from repro.sim.kernel import Simulator
from repro.sim.shards import (
    _DELIVERY_PRIORITY,
    _PRIORITY_CEILING,
    ShardedSimulator,
    ShardPlan,
    _Shard,
)
from repro.workloads.base import build_machine
from repro.workloads.task_queue import (
    TaskQueueConfig,
    _build_task_queue,
    run_task_queue,
)


class TestShardPlan:
    def test_even_split_without_groups(self):
        plan = ShardPlan.from_groups(8, 2)
        assert plan.owner == (0, 0, 0, 0, 1, 1, 1, 1)
        assert plan.n_shards == 2
        assert plan.owned(1) == frozenset({4, 5, 6, 7})

    def test_shard_ids_dense_and_node_zero_first(self):
        for n_nodes, n_shards in [(5, 2), (9, 4), (7, 3), (3, 3)]:
            plan = ShardPlan.from_groups(n_nodes, n_shards)
            assert plan.owner[0] == 0
            assert sorted(set(plan.owner)) == list(range(plan.n_shards))

    def test_more_shards_than_nodes_clamps(self):
        plan = ShardPlan.from_groups(3, 8)
        assert plan.n_shards <= 3
        assert plan.n_nodes == 3

    def test_group_members_colocate_when_they_fit(self):
        plan = ShardPlan.from_groups(6, 2, groups=[(0, 3), (1, 4)])
        assert plan.shard_of(0) == plan.shard_of(3)
        assert plan.shard_of(1) == plan.shard_of(4)
        assert plan.n_shards == 2

    def test_oversized_cluster_splits_contiguously(self):
        # One machine-wide group cannot fit any shard's quota; it must
        # stream across shards in contiguous blocks.
        plan = ShardPlan.from_groups(6, 3, groups=[range(6)])
        assert plan.owner == (0, 0, 1, 1, 2, 2)

    def test_shard_of_matches_owned(self):
        plan = ShardPlan.from_groups(9, 3, groups=[(0, 1, 2, 3)])
        for node in range(9):
            assert node in plan.owned(plan.shard_of(node))

    def test_invalid_inputs_raise(self):
        with pytest.raises(ShardingError):
            ShardPlan.from_groups(0, 2)
        with pytest.raises(ShardingError):
            ShardPlan.from_groups(4, 0)
        with pytest.raises(ShardingError):
            ShardPlan(())
        with pytest.raises(ShardingError):
            ShardPlan((0, 2))  # ids must be dense from 0


class TestArrivalBandKeys:
    def test_band_sorts_before_every_local_priority(self):
        assert PRIORITY_ARRIVAL_BAND < PRIORITY_URGENT < PRIORITY_NORMAL
        assert PRIORITY_ARRIVAL_BAND < -1

    def test_push_at_key_orders_tokens_in_send_order(self):
        queue = EventQueue()
        fired: list[str] = []
        # Three same-instant arrivals with shuffled send-order tokens,
        # plus a same-time local event: arrivals fire first, in token
        # (send time, src, idx) order.
        queue.push(1.0, lambda: fired.append("local"))
        queue.push_at_key(
            1.0, PRIORITY_ARRIVAL_BAND, (0.7, 2, 0), lambda: fired.append("b")
        )
        queue.push_at_key(
            1.0, PRIORITY_ARRIVAL_BAND, (0.5, 4, 1), lambda: fired.append("a")
        )
        queue.push_at_key(
            1.0, PRIORITY_ARRIVAL_BAND, (0.7, 2, 3), lambda: fired.append("c")
        )
        while queue:
            queue.pop().fn()
        assert fired == ["a", "b", "c", "local"]


class TestRunWindow:
    def _sim(self) -> Simulator:
        return Simulator()

    def test_limit_key_is_exclusive(self):
        # A window drains everything strictly below the limit key and
        # nothing at or above it.
        sim = self._sim()
        fired: list[str] = []
        key = (2.0, PRIORITY_ARRIVAL_BAND, (1.5, 0, 0))
        sim._queue.push(1.0, lambda: fired.append("before"))
        sim._queue.push_at_key(*key, lambda: fired.append("at-limit"))
        sim._queue.push(3.0, lambda: fired.append("after"))
        count, last = sim.run_window(key)
        assert fired == ["before"]
        assert count == 1
        assert last == (1.0, PRIORITY_NORMAL, 0)
        # The event exactly at the limit fires on the next window.
        count, last = sim.run_window((3.0, -_PRIORITY_CEILING, 0))
        assert fired == ["before", "at-limit"]
        assert last == key

    def test_time_only_horizon_excludes_whole_instant(self):
        sim = self._sim()
        fired: list[int] = []
        sim._queue.push(1.0, lambda: fired.append(1))
        sim._queue.push_at_key(
            2.0, PRIORITY_ARRIVAL_BAND, (1.0, 0, 0), lambda: fired.append(2)
        )
        # A (t, -ceiling, 0) horizon sorts below every real key at t,
        # including arrival-band keys: nothing at t fires.
        count, _last = sim.run_window((2.0, -_PRIORITY_CEILING, 0))
        assert fired == [1]
        assert count == 1


def _task_queue_kernel(n_nodes: int = 5, shards: int = 2) -> ShardedSimulator:
    config = TaskQueueConfig(n_nodes=n_nodes, total_tasks=4)
    plan = ShardPlan.from_groups(n_nodes, shards)
    return ShardedSimulator(lambda owned: _build_task_queue(config, owned), plan)


class TestShardedSimulatorConfig:
    def test_conservative_window_equals_lookahead(self, monkeypatch):
        # Every round drains each shard to exactly GVT + lookahead.
        kernel = _task_queue_kernel()
        assert kernel.lookahead > 0
        gvts: list[float] = []
        limits: list[float] = []
        kernel.on_gvt = gvts.append
        drain = _Shard.drain

        def spy(self, limit):
            limits.append(limit[0])
            return drain(self, limit)

        monkeypatch.setattr(_Shard, "drain", spy)
        kernel.run()
        assert gvts
        assert limits == [
            gvt + kernel.lookahead for gvt in gvts for _ in kernel.shards
        ]

    def test_unshardable_system_rejected(self):
        def factory(owned):
            machine, system = build_machine("entry", 4)
            machine.shard_owned = owned
            return machine, system

        with pytest.raises(ShardingError, match="not.*shardable|shardable"):
            ShardedSimulator(factory, ShardPlan.from_groups(4, 2))

    def test_factory_must_honour_owned_set(self):
        def factory(owned):
            machine, system = build_machine("gwc", 4)
            machine.shard_owned = frozenset({0})  # ignores `owned`
            return machine, system

        with pytest.raises(ShardingError, match="shard_owned"):
            ShardedSimulator(factory, ShardPlan.from_groups(4, 2))


class TestRetiredTaskQueueInputs:
    # The two field names survive on TaskQueueConfig for the frozen
    # benchmark's variants; any value that used to select a removed
    # path must fail as a ReproError, not run something else.
    @pytest.mark.parametrize(
        "retired",
        [{"shard_policy": "optimistic"}, {"shard_backend": "process"}],
    )
    def test_removed_values_raise_sharding_error(self, retired):
        with pytest.raises(ShardingError, match="removed"):
            run_task_queue(
                TaskQueueConfig(n_nodes=5, total_tasks=4, shards=2, **retired)
            )

    def test_surviving_values_run(self):
        result = run_task_queue(
            TaskQueueConfig(
                n_nodes=5,
                total_tasks=4,
                shards=2,
                shard_policy="conservative",
                shard_backend="inproc",
            )
        )
        assert result.extra["all_executed"]


class TestStragglerClassification:
    def _route_one(self, kernel, lvt, token, monkeypatch):
        injected: list[tuple] = []
        monkeypatch.setattr(
            _Shard, "inject", lambda self, key, msg: injected.append(key)
        )
        dst = next(iter(kernel.shards[1].owned))
        kernel.shards[1].lvt = lvt
        msg = Message(0, dst, "test.kind", payload=None, size_bytes=16)
        kernel.shards[0].router.outbox.append((msg, 1.0, 1, token))
        kernel._route_round()
        return injected

    def test_arrival_exactly_at_lvt_is_a_straggler(self, monkeypatch):
        # The boundary case: a delivery whose key EQUALS the shard's
        # last executed key arrives in the executed past (key order is
        # execution order), so `<=` — not `<` — is the straggler test.
        kernel = _task_queue_kernel()
        key = (1.0, _DELIVERY_PRIORITY, (0.5, 0, 0))
        with pytest.raises(ShardingError, match="lookahead bound was violated"):
            self._route_one(kernel, key, key[2], monkeypatch)

    def test_arrival_just_past_lvt_is_injected_normally(self, monkeypatch):
        kernel = _task_queue_kernel()
        token = (0.5, 0, 1)
        injected = self._route_one(
            kernel, (1.0, _DELIVERY_PRIORITY, (0.5, 0, 0)), token, monkeypatch
        )
        assert injected == [(1.0, _DELIVERY_PRIORITY, token)]
        assert kernel.stats.routed == 1

    def test_over_reported_lookahead_fails_loudly(self, monkeypatch):
        # The one way the window can be wrong: a lookahead larger than
        # the real minimum cross-shard latency.  Shards then run past
        # messages still in flight towards them; the run must end in
        # ShardingError, never in a silently different state hash.
        real = shards_module.min_cross_latency
        monkeypatch.setattr(
            shards_module,
            "min_cross_latency",
            lambda machine, owner: 50 * real(machine, owner),
        )
        with pytest.raises(ShardingError, match="lookahead bound was violated"):
            run_task_queue(TaskQueueConfig(n_nodes=5, total_tasks=16, shards=2))
