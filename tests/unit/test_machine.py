"""Unit tests for the DSMMachine builder and NodeHandle."""

from __future__ import annotations

import pytest

from repro.consistency.base import make_system, system_names
from repro.core.machine import DSMMachine
from repro.errors import MemoryError_, NetworkError, ReproError
from repro.net.message import Message
from repro.sim.waiters import Signal


class TestMachineConstruction:
    def test_builds_nodes_and_attaches_handlers(self):
        machine = DSMMachine(n_nodes=4)
        assert machine.n_nodes == 4
        assert [n.id for n in machine.nodes] == [0, 1, 2, 3]

    def test_duplicate_group_rejected(self):
        machine = DSMMachine(n_nodes=2)
        machine.create_group("g")
        with pytest.raises(MemoryError_):
            machine.create_group("g")

    def test_group_defaults_to_all_nodes_root_zero(self):
        machine = DSMMachine(n_nodes=3)
        group = machine.create_group("g")
        assert group.members == (0, 1, 2)
        assert group.root == 0
        assert "g" in machine.nodes[0].iface.root_engines

    def test_lock_lookup_across_groups(self):
        machine = DSMMachine(n_nodes=4)
        machine.create_group("g1", members=(0, 1), root=0)
        machine.create_group("g2", members=(2, 3), root=2)
        machine.declare_variable("g2", "y", 0, mutex_lock="L2")
        machine.declare_lock("g2", "L2", protects=("y",))
        assert machine.group_of_lock("L2").locks["L2"].group == "g2"
        assert machine.group_of_lock("L2").root == 2
        with pytest.raises(MemoryError_):
            machine.group_of_lock("missing")

    def test_unknown_message_kind_raises(self):
        machine = DSMMachine(n_nodes=2)
        machine.network.send(Message(src=0, dst=1, kind="alien.probe"))
        with pytest.raises(NetworkError, match="no handler"):
            machine.sim.run()

    def test_duplicate_kind_prefix_rejected(self):
        machine = DSMMachine(n_nodes=2)
        with pytest.raises(NetworkError):
            machine.register_kind_handler("gwc", lambda n, m: None)

    def test_run_records_elapsed_in_metrics(self):
        machine = DSMMachine(n_nodes=2)

        def proc():
            yield 5e-6

        machine.spawn(proc(), name="p")
        machine.run()
        assert machine.metrics.elapsed == pytest.approx(5e-6)


class TestGroupFamilies:
    @pytest.mark.parametrize(
        "create",
        [
            # Part 1's name is taken by a group of its own.
            lambda m: m.create_group("g", roots=(0, 1)),
            # Part 1's root is not a member.
            lambda m: m.create_group("g", members=(0, 1, 2), roots=(0, 3)),
        ],
        ids=["part_name_taken", "root_not_member"],
    )
    def test_rejected_sharded_group_leaves_nothing(self, create):
        machine = DSMMachine(n_nodes=4)
        machine.create_group("g@r1", root=1)
        with pytest.raises(ReproError):
            create(machine)
        assert set(machine.groups) == {"g@r1"}
        assert set(machine.families) == {"g@r1"}
        for node in machine.nodes:
            assert set(node.iface.groups) == {"g@r1"}
            assert "g" not in node.iface.root_engines
        # The name is free again and the retry works end to end.
        machine.create_group("g")
        machine.declare_variable("g", "x", 0)
        assert machine.family("g").home("x") is machine.groups["g"]

    @pytest.mark.parametrize(
        "entry",
        [
            lambda m: m.declare_variable("nope", "x", 0),
            lambda m: m.declare_lock("nope", "L"),
            lambda m: m.family("nope"),
            lambda m: m.root_engine("nope"),
            lambda m: m.engines_for("nope"),
        ],
        ids=["declare_variable", "declare_lock", "family", "root_engine",
             "engines_for"],
    )
    def test_unknown_group_is_named(self, entry):
        machine = DSMMachine(n_nodes=2)
        machine.create_group("g")
        with pytest.raises(MemoryError_, match="no group 'nope'"):
            entry(machine)

    def test_every_group_is_a_family(self):
        machine = DSMMachine(n_nodes=4)
        single = machine.create_group("a")
        machine.create_group("b", roots=(1, 2, 3))
        assert machine.family("a").parts == (single,)
        assert single.family is machine.family("a")
        parts = machine.family("b").parts
        assert [p.name for p in parts] == ["b", "b@r1", "b@r2"]
        assert [p.root for p in parts] == [1, 2, 3]
        assert all(p.family is machine.family("b") for p in parts)


class TestSystemRegistry:
    def test_all_expected_systems_registered(self):
        names = system_names()
        for expected in ("gwc", "gwc_optimistic", "entry", "release", "weak",
                         "sequential"):
            assert expected in names

    def test_unknown_system_rejected(self):
        machine = DSMMachine(n_nodes=2)
        with pytest.raises(KeyError, match="unknown system"):
            make_system("imaginary", machine)

    def test_optimistic_kwargs_forwarded(self):
        machine = DSMMachine(n_nodes=2)
        system = make_system("gwc_optimistic", machine, threshold=0.7, decay=0.9)
        assert system.config.threshold == 0.7
        assert system.config.decay == 0.9


class TestNodeHandle:
    def test_busy_records_bucket(self):
        machine = DSMMachine(n_nodes=1)
        node = machine.nodes[0]

        def proc():
            yield from node.busy(2e-6, kind="useful")
            yield from node.busy(1e-6, kind="overhead")
            yield from node.busy(0.0, kind="useful")  # no-op

        machine.spawn(proc(), name="p")
        machine.run()
        assert node.metrics.useful == pytest.approx(2e-6)
        assert node.metrics.overhead == pytest.approx(1e-6)

    def test_compute_uses_cpu_speed(self):
        machine = DSMMachine(n_nodes=1)
        node = machine.nodes[0]

        def proc():
            yield from node.compute(33e6)  # one second of FLOPs

        machine.spawn(proc(), name="p")
        machine.run()
        assert machine.sim.now == pytest.approx(1.0)

    def test_interruptible_busy_completes_without_abort(self):
        machine = DSMMachine(n_nodes=1)
        node = machine.nodes[0]
        results = []

        def proc():
            result = yield from node.interruptible_busy(3e-6, Signal())
            results.append(result)

        machine.spawn(proc(), name="p")
        machine.run()
        assert results == [(3e-6, False)]

    def test_interruptible_busy_cut_short_by_signal(self):
        machine = DSMMachine(n_nodes=1)
        node = machine.nodes[0]
        abort = Signal()
        results = []

        def proc():
            result = yield from node.interruptible_busy(10e-6, abort)
            results.append(result)

        machine.spawn(proc(), name="p")
        machine.sim.schedule(4e-6, lambda: abort.fire("stop"))
        machine.run()
        elapsed, aborted = results[0]
        assert aborted
        assert elapsed == pytest.approx(4e-6)

    def test_interruptible_busy_without_signal(self):
        machine = DSMMachine(n_nodes=1)
        node = machine.nodes[0]
        results = []

        def proc():
            results.append((yield from node.interruptible_busy(1e-6, None)))

        machine.spawn(proc(), name="p")
        machine.run()
        assert results == [(1e-6, False)]


class TestInterfaceService:
    def test_inbound_messages_serialize_at_a_node(self):
        """With a positive interface service time, a node handles one
        inbound message at a time — the hot-spot model behind the
        grouping ablation."""
        from dataclasses import replace

        from repro.net.message import Message
        from repro.params import PAPER_PARAMS

        params = replace(PAPER_PARAMS, interface_service_time=1e-6)
        machine = DSMMachine(n_nodes=4, params=params)
        handled = []
        machine.register_kind_handler(
            "probe", lambda node_id, msg: handled.append(machine.sim.now)
        )
        # Three messages from different sources arrive almost together.
        for src in (1, 2, 3):
            machine.network.send(
                Message(src=src, dst=0, kind="probe.x", size_bytes=16)
            )
        machine.sim.run()
        gaps = [b - a for a, b in zip(handled, handled[1:])]
        assert all(gap >= 1e-6 * 0.999 for gap in gaps), gaps

    def test_zero_service_time_handles_immediately(self):
        from repro.net.message import Message

        machine = DSMMachine(n_nodes=2)
        handled = []
        machine.register_kind_handler(
            "probe", lambda node_id, msg: handled.append(machine.sim.now)
        )
        arrival = machine.network.send(
            Message(src=1, dst=0, kind="probe.x", size_bytes=16)
        )
        machine.sim.run()
        assert handled == [arrival]

    def test_negative_service_time_rejected(self):
        from repro.errors import ExperimentError
        from repro.params import MachineParams

        with pytest.raises(ExperimentError):
            MachineParams(interface_service_time=-1e-6)
