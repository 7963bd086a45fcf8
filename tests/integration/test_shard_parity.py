"""Sharded-kernel parity: bit-identical final state vs serial runs.

The sharded kernel (:mod:`repro.sim.shards`) is only allowed to exist
because it changes *nothing* observable: every test here runs the same
workload serially and sharded and compares canonical state hashes
(:mod:`repro.sim.statehash`), across shard counts, multiple topologies
and seeds, and under deterministic fault plans — including a node
crash landing inside a lookahead window.
"""

from __future__ import annotations

import pytest

from repro.core.section import Section
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, crash, delay
from repro.workloads import counter as counter_wl
from repro.workloads.base import build_machine, finish, run_sharded
from repro.workloads.pipeline import PipelineConfig, run_pipeline
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue


def _tq(shards: int = 1, **overrides):
    config = TaskQueueConfig(
        n_nodes=overrides.pop("n_nodes", 5),
        total_tasks=overrides.pop("total_tasks", 24),
        shards=shards,
        **overrides,
    )
    return run_task_queue(config)


def _pipe(shards: int = 1, **overrides):
    config = PipelineConfig(
        n_nodes=overrides.pop("n_nodes", 4),
        data_size=overrides.pop("data_size", 32),
        shards=shards,
        **overrides,
    )
    return run_pipeline(config)


def _assert_parity(serial, sharded, shards: int):
    __tracebackhide__ = True
    assert sharded.extra["state_hash"] == serial.extra["state_hash"]
    assert sharded.extra["shards"] == shards
    assert sharded.elapsed == serial.elapsed
    assert sharded.speedup == pytest.approx(serial.speedup)


class TestTaskQueueParity:
    @pytest.mark.parametrize("n_nodes", [3, 5])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_mesh(self, n_nodes, shards):
        serial = _tq(n_nodes=n_nodes)
        sharded = _tq(shards=shards, n_nodes=n_nodes)
        _assert_parity(serial, sharded, min(shards, n_nodes))
        assert sharded.extra["all_executed"]

    def test_ring(self):
        serial = _tq(n_nodes=5, topology="ring")
        sharded = _tq(shards=2, n_nodes=5, topology="ring")
        _assert_parity(serial, sharded, 2)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_seeds(self, seed):
        serial = _tq(n_nodes=5, seed=seed)
        sharded = _tq(shards=2, n_nodes=5, seed=seed)
        _assert_parity(serial, sharded, 2)


class TestPipelineParity:
    @pytest.mark.parametrize("system", ["gwc", "gwc_optimistic"])
    def test_four_nodes_two_shards(self, system):
        serial = _pipe(system=system)
        sharded = _pipe(shards=2, system=system)
        _assert_parity(serial, sharded, 2)
        assert sharded.extra["acc_correct"]

    def test_eight_nodes_four_shards(self):
        serial = _pipe(n_nodes=8, data_size=64, system="gwc_optimistic")
        sharded = _pipe(
            shards=4, n_nodes=8, data_size=64, system="gwc_optimistic"
        )
        _assert_parity(serial, sharded, 4)


class TestShardStats:
    def test_cross_shard_traffic_is_routed(self):
        # The contended task queue must really cross shard boundaries —
        # a run with nothing routed would make the parity tests above
        # vacuous for the coordinator.
        stats = _tq(shards=2, n_nodes=5).extra["shard_stats"]
        assert set(stats) == {"rounds", "executed", "routed"}
        assert stats["rounds"] > 0
        assert stats["executed"] > 0
        assert stats["routed"] > 0


class TestFaultPlanParity:
    DELAY_PLAN = FaultPlan(
        [delay(200e-6, extra=40e-6, until=2000e-6, probability=1.0)], seed=3
    )

    def test_deterministic_delay_plan(self):
        # probability=1.0 with zero jitter draws no randomness, so the
        # same plan installed on every replica behaves bit-identically.
        serial = _tq(n_nodes=5, fault_plan=self.DELAY_PLAN)
        sharded = _tq(shards=2, n_nodes=5, fault_plan=self.DELAY_PLAN)
        _assert_parity(serial, sharded, 2)


class TestCrashMidWindow:
    """A node crash landing inside a lookahead window.

    The task queue cannot survive losing a consumer (its claimed task is
    never reported and the producer waits forever), so this uses the
    shared-counter kernel with the crashed node's process tracked by the
    injector: the crash kills the generator, the survivors keep
    incrementing, and the run quiesces with a deterministic, reduced
    final count — which the sharded run must reproduce exactly even
    though the crash fires while the other shard is elsewhere in the
    window.
    """

    N_NODES = 6
    PLAN = FaultPlan([crash(35e-6, node=4)], seed=2)
    CONFIG = counter_wl.CounterConfig(n_nodes=N_NODES, increments_per_node=6)
    SECTION = Section(
        lock=counter_wl.LOCK,
        body=counter_wl._increment_body,
        shared_reads=(counter_wl.COUNTER,),
        shared_writes=(counter_wl.COUNTER,),
        label="counter-increment",
    )

    @classmethod
    def _build(cls, owned):
        machine, system = build_machine("gwc", cls.N_NODES, seed=0)
        machine.shard_owned = owned
        injector = FaultInjector(machine, cls.PLAN)
        injector.install()
        machine.create_group(counter_wl.GROUP)
        machine.declare_variable(
            counter_wl.GROUP, counter_wl.COUNTER, 0, mutex_lock=counter_wl.LOCK
        )
        machine.declare_lock(
            counter_wl.GROUP,
            counter_wl.LOCK,
            protects=(counter_wl.COUNTER,),
            data_bytes=8,
        )
        for node in machine.nodes:
            node.locals["_update_time"] = cls.CONFIG.update_time
            process = machine.spawn_for(
                node.id,
                counter_wl._worker(node, system, cls.CONFIG, cls.SECTION),
                name=f"counter-{node.id}",
            )
            if process is not None:
                injector.track_process(node.id, process)
        return machine, system

    def _serial(self):
        machine, system = self._build(None)
        result = finish(machine, system)
        result.extra["final"] = machine.nodes[0].store.read(counter_wl.COUNTER)
        return result

    def test_crash_parity(self):
        serial = self._serial()
        expected = self.N_NODES * self.CONFIG.increments_per_node
        # The crash really bites: node 4 loses increments.
        assert 0 < serial.extra["final"] < expected
        sharded = run_sharded(self._build, self.N_NODES, 2)
        kernel = sharded.extra.pop("_kernel")
        assert sharded.extra["state_hash"] == serial.extra["state_hash"]
        assert kernel.node(0).store.read(counter_wl.COUNTER) == serial.extra["final"]


class TestShardFallbacks:
    def test_entry_consistency_falls_back_to_serial(self):
        result = _tq(shards=2, system="entry", n_nodes=3, total_tasks=8)
        assert "message-pure" in result.extra["shard_fallback"]
        assert "shards" not in result.extra  # ran the serial path

    def test_single_shard_is_plain_serial(self):
        result = _tq(shards=1, n_nodes=3, total_tasks=8)
        assert "shard_fallback" not in result.extra
        assert "shards" not in result.extra

    def test_zero_delay_params_fall_back(self):
        from repro.params import PAPER_PARAMS

        result = _tq(
            shards=2, n_nodes=3, total_tasks=8, params=PAPER_PARAMS.zero_delay()
        )
        assert "lookahead" in result.extra["shard_fallback"]
