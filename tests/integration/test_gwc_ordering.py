"""Integration tests for group write consistency semantics.

These exercise the full stack — machine, network, root engine, node
interfaces — and assert the ordering guarantees Section 2 of the paper
builds its locks on.
"""

from __future__ import annotations

import pytest

from repro.consistency.base import make_system
from repro.core.machine import DSMMachine
from repro.memory.interface import install_apply_spy
from repro.memory.varspace import FREE_VALUE, grant_value
from repro.sim.trace import Tracer


def make_machine(n=4, **kwargs):
    machine = DSMMachine(n_nodes=n, **kwargs)
    machine.create_group("g", root=0)
    return machine


class TestTotalOrder:
    def test_all_members_see_writes_in_the_same_order(self):
        """Two nodes write the same variable concurrently; every member
        must observe the identical sequence (total store order within
        the group)."""
        machine = make_machine(5)
        machine.declare_variable("g", "x", 0)
        applied: dict[int, list] = {n.id: [] for n in machine.nodes}

        # Observe every sequenced apply by wrapping each store's write.
        for node in machine.nodes:
            original = node.store.write

            def spy(name, value, nid=node.id, original=original):
                if name == "x":
                    applied[nid].append(value)
                original(name, value)

            install_apply_spy(node.iface, node.store, "write", spy)

        def writer(node, values):
            for v in values:
                node.iface.share_write("x", v)
                yield 0.1e-6

        machine.spawn(writer(machine.nodes[1], ["a1", "a2", "a3"]), name="w1")
        machine.spawn(writer(machine.nodes[3], ["b1", "b2", "b3"]), name="w2")
        machine.run()
        # Non-writing members see exactly the root's global sequence;
        # they must all agree (writers also interleave their own local
        # program-order writes, so compare the pure observers).
        observers = [applied[0], applied[2], applied[4]]
        assert observers[0] == observers[1] == observers[2]
        assert len(observers[0]) == 6
        finals = {n.store.read("x") for n in machine.nodes}
        assert len(finals) == 1

    def test_sequenced_count_matches_writes(self):
        machine = make_machine(3)
        machine.declare_variable("g", "x", 0)

        def writer(node):
            for i in range(5):
                node.iface.share_write("x", i)
                yield 0.1e-6

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.run()
        engine = machine.root_engine("g")
        assert engine.sequenced == 5
        assert engine.discarded == 0

    def test_origin_applies_its_own_echo_for_ordinary_vars(self):
        """Ordinary (non-mutex) values must be echoed to the origin to
        achieve GWC order on all participating processors."""
        machine = make_machine(3)
        machine.declare_variable("g", "x", 0)

        def writer(node):
            node.iface.share_write("x", 1)
            yield 0

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.run()
        assert machine.nodes[1].iface.applied_count == 1  # echo applied
        assert machine.nodes[1].iface.filter.dropped == 0


class TestRootDiscard:
    def test_speculative_write_from_non_holder_discarded(self):
        machine = make_machine(3)
        machine.declare_variable("g", "m", 0, mutex_lock="L")
        machine.declare_lock("g", "L", protects=("m",))

        def speculator(node):
            # Write mutex data without ever requesting the lock.
            node.iface.share_write("m", 123)
            yield 0

        machine.spawn(speculator(machine.nodes[2]), name="spec")
        machine.run()
        engine = machine.root_engine("g")
        assert engine.discarded == 1
        assert engine.sequenced == 0
        # No other node saw the speculative value.
        assert machine.nodes[0].store.read("m") == 0
        assert machine.nodes[1].store.read("m") == 0
        # The speculator's own local copy still shows it (pending
        # rollback, which the optimistic runner would perform).
        assert machine.nodes[2].store.read("m") == 123

    def test_holder_writes_are_sequenced(self):
        machine = make_machine(3)
        machine.declare_variable("g", "m", 0, mutex_lock="L")
        machine.declare_lock("g", "L", protects=("m",))
        system = make_system("gwc", machine)

        def holder(node):
            yield from system.acquire(node, "L")
            node.iface.share_write("m", 7)
            yield from system.release(node, "L")

        machine.spawn(holder(machine.nodes[1]), name="holder")
        machine.run()
        assert machine.root_engine("g").discarded == 0
        assert all(n.store.read("m") == 7 for n in machine.nodes)


class TestGrantAfterData:
    def test_grant_arrives_after_previous_holders_data(self):
        """The defining GWC lock property: when a node sees its grant,
        the previous holder's protected writes are already local."""
        machine = make_machine(5, tracer=Tracer())
        machine.declare_variable("g", "m", 0, mutex_lock="L")
        machine.declare_lock("g", "L", protects=("m",))
        system = make_system("gwc", machine)
        seen_at_grant = {}

        def first(node):
            yield from system.acquire(node, "L")
            yield 5e-6
            node.iface.share_write("m", 42)
            yield from system.release(node, "L")

        def second(node):
            yield 1e-6  # request while first still holds
            yield from system.acquire(node, "L")
            seen_at_grant[node.id] = node.store.read("m")
            yield from system.release(node, "L")

        machine.spawn(first(machine.nodes[1]), name="first")
        machine.spawn(second(machine.nodes[4]), name="second")
        machine.run()
        assert seen_at_grant[4] == 42

    def test_lock_value_transitions_visible_everywhere(self):
        machine = make_machine(3)
        machine.declare_variable("g", "m", 0, mutex_lock="L")
        machine.declare_lock("g", "L", protects=("m",))
        system = make_system("gwc", machine)

        def user(node):
            yield from system.acquire(node, "L")
            yield 1e-6
            yield from system.release(node, "L")

        machine.spawn(user(machine.nodes[2]), name="user")
        machine.run()
        # After everything drains the lock reads FREE on every member.
        assert all(n.store.read("L") == FREE_VALUE for n in machine.nodes)

    def test_queued_requester_gets_positive_id(self):
        machine = make_machine(4)
        machine.declare_variable("g", "m", 0, mutex_lock="L")
        machine.declare_lock("g", "L", protects=("m",))
        system = make_system("gwc", machine)
        grants = []

        def user(node, delay):
            yield delay
            yield from system.acquire(node, "L")
            grants.append((node.sim.now, node.id, node.store.read("L")))
            yield 1e-6
            yield from system.release(node, "L")

        machine.spawn(user(machine.nodes[1], 0.0), name="u1")
        machine.spawn(user(machine.nodes[3], 0.2e-6), name="u3")
        machine.run()
        assert [g[1] for g in sorted(grants)] == [1, 3]
        for _, node_id, lock_value in grants:
            assert lock_value == grant_value(node_id)


class TestMultipleGroups:
    def test_groups_sequence_independently(self):
        machine = DSMMachine(n_nodes=4)
        machine.create_group("g1", members=(0, 1, 2), root=0)
        machine.create_group("g2", members=(1, 2, 3), root=3)
        machine.declare_variable("g1", "x", 0)
        machine.declare_variable("g2", "y", 0)

        def writer(node, var, count):
            for i in range(count):
                node.iface.share_write(var, i)
                yield 0.05e-6

        machine.spawn(writer(machine.nodes[1], "x", 3), name="wx")
        machine.spawn(writer(machine.nodes[2], "y", 4), name="wy")
        machine.run()
        assert machine.root_engine("g1").sequenced == 3
        assert machine.root_engine("g2").sequenced == 4
        assert machine.nodes[2].store.read("x") == 2
        assert machine.nodes[1].store.read("y") == 3

    def test_non_member_has_no_copy(self):
        machine = DSMMachine(n_nodes=4)
        machine.create_group("g1", members=(0, 1), root=0)
        machine.declare_variable("g1", "x", 0)
        assert not machine.nodes[3].store.knows("x")
