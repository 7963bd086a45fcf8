"""Targeted races and corner cases in the comparator protocols."""

from __future__ import annotations

import pytest

from repro.consistency.base import make_system
from repro.core.machine import DSMMachine
from repro.errors import ReproError
from repro.memory.interface import install_apply_spy
from repro.workloads.lock_bench import LockBenchConfig, run_lock_bench


def build(system, n=6, topology="ring"):
    machine = DSMMachine(n_nodes=n, topology=topology)
    machine.create_group("g", root=0)
    machine.declare_variable("g", "m", 0, mutex_lock="L")
    machine.declare_lock("g", "L", protects=("m",))
    return machine, make_system(system, machine)


class TestReleaseLockForwardBounce:
    def test_forward_racing_release_is_re_dispatched(self):
        """A request forwarded to a holder that has already released
        must bounce back through the manager and still be granted."""
        machine, system = build("release")
        order = []

        def holder(node):
            yield from system.acquire(node, "L")
            order.append(("acq", node.id))
            yield 2e-6
            # Release while the forward for the late requester is still
            # in flight toward us (ring: the forward takes ~0.7 us).
            yield from system.release(node, "L")

        def late(node):
            # Timed so the request reaches the manager while node 3
            # holds, but the forward reaches node 3 after its release.
            yield 2.0e-6
            yield from system.acquire(node, "L")
            order.append(("acq", node.id))
            yield from system.release(node, "L")

        machine.spawn(holder(machine.nodes[3]), name="h")
        machine.spawn(late(machine.nodes[5]), name="l")
        machine.run()
        assert order == [("acq", 3), ("acq", 5)]

    def test_many_rapid_cycles_never_wedge(self):
        machine, system = build("release")
        done = []

        def churner(node):
            for _ in range(10):
                yield from system.acquire(node, "L")
                yield from system.release(node, "L")
            done.append(node.id)

        for node in machine.nodes:
            machine.spawn(churner(node), name=f"c{node.id}")
        machine.run()  # quiescence check catches wedges
        assert sorted(done) == list(range(6))


class TestMcsRaces:
    def test_release_concurrent_with_enqueue(self):
        """The CAS-fails-then-wait-for-link path of MCS release: the
        releasing node sees next == NIL, its CAS loses to a concurrent
        fetch-and-store, and it must wait for the link write."""
        # Heavy churn with zero think time maximizes the race window.
        result = run_lock_bench(
            LockBenchConfig(
                protocol="mcs",
                n_nodes=8,
                increments_per_node=10,
                think_time=0.1e-6,
                update_time=0.2e-6,
            )
        )
        assert result.extra["correct"]
        assert result.extra["converged"]

    @pytest.mark.parametrize("seed", range(3))
    def test_mcs_fairness_is_fifo_by_enqueue(self, seed):
        result = run_lock_bench(
            LockBenchConfig(
                protocol="mcs", n_nodes=5, increments_per_node=6, seed=seed
            )
        )
        assert result.extra["correct"]


class TestEntryForwarding:
    def test_request_racing_ownership_transfer_is_forwarded(self):
        """A request sent to the old owner mid-transfer must chase the
        lock to its new owner (counted as ec.forwards)."""
        machine, system = build("entry", n=8)
        order = []

        def worker(node, delay):
            yield delay
            yield from system.acquire(node, "L")
            order.append(node.id)
            yield 0.5e-6
            yield from system.release(node, "L")

        # 1 takes from initial owner 0; while the grant is in flight to
        # 1, node 7 requests from whomever it believes owns the lock.
        machine.spawn(worker(machine.nodes[1], 0.0), name="w1")
        machine.spawn(worker(machine.nodes[7], 0.3e-6), name="w7")
        machine.run()
        assert sorted(order) == [1, 7]
        assert len(order) == 2


class TestGwcFreeGrantSequencing:
    def test_free_propagation_then_new_request(self):
        """Release with empty queue propagates FREE; a later request is
        granted from the free state, and every member's copy converges
        through the exact value sequence."""
        machine, system = build("gwc", n=4, topology="mesh_torus")
        lock_values_seen = []
        node3 = machine.nodes[3]
        original = node3.store.write

        def spy(name, value, original=original):
            if name == "L":
                lock_values_seen.append(value)
            original(name, value)

        install_apply_spy(node3.iface, node3.store, "write", spy)

        def first(node):
            yield from system.acquire(node, "L")
            yield 1e-6
            yield from system.release(node, "L")

        def second(node):
            yield 10e-6  # clearly after the FREE propagated
            yield from system.acquire(node, "L")
            yield from system.release(node, "L")

        machine.spawn(first(machine.nodes[1]), name="f")
        machine.spawn(second(machine.nodes[2]), name="s")
        machine.run()
        from repro.memory.varspace import FREE_VALUE, grant_value

        assert lock_values_seen == [
            grant_value(1),
            FREE_VALUE,
            grant_value(2),
            FREE_VALUE,
        ]


class TestErrorHierarchy:
    def test_every_library_error_is_a_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not ReproError:
                    assert issubclass(obj, ReproError), name

    def test_catching_base_class_works(self):
        from repro.errors import LockNestingError

        with pytest.raises(ReproError):
            raise LockNestingError("nested")
