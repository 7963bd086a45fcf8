"""Unit tests for write-burst combining at the sharing interface.

Layer 2 of the batching work: with ``write_burst != 1`` consecutive
plain writes by one process accumulate into one multi-write
``gwc.update_burst`` packet, flushed at the burst size or at any
synchronization boundary.  The default (1) must leave every paper
behaviour untouched.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.machine import DSMMachine
from repro.consistency.base import make_system
from repro.params import PAPER_PARAMS
from repro.workloads.burst_writer import (
    BurstWriterConfig,
    run_burst_writer,
)


def make_machine(write_burst, n_nodes=4):
    params = dataclasses.replace(PAPER_PARAMS, write_burst=write_burst)
    machine = DSMMachine(n_nodes=n_nodes, topology="mesh_torus", params=params)
    machine.create_group("g", root=0)
    for i in range(4):
        machine.declare_variable("g", f"x{i}", initial=0)
    machine.declare_variable("g", "guarded", 0, mutex_lock="lk")
    machine.declare_lock("g", "lk", protects=("guarded",))
    return machine


class TestBuffering:
    def test_default_burst_sends_every_write(self):
        machine = make_machine(write_burst=1)
        iface = machine.nodes[1].iface
        for i in range(4):
            iface.share_write(f"x{i}", i)
        machine.run()
        assert machine.network.stats.by_kind["gwc.update"] == 4
        assert machine.network.stats.by_kind.get("gwc.update_burst", 0) == 0
        assert iface.burst_writes == 0

    def test_writes_buffer_until_burst_size(self):
        machine = make_machine(write_burst=3)
        iface = machine.nodes[1].iface
        iface.share_write("x0", 1)
        iface.share_write("x1", 2)
        assert iface.pending_burst_writes == 2
        assert machine.network.stats.messages == 0
        iface.share_write("x2", 3)  # hits the burst size -> flush
        assert iface.pending_burst_writes == 0
        assert machine.network.stats.by_kind["gwc.update_burst"] == 1
        machine.run()
        # The root sequenced all three writes individually.
        for node in machine.nodes:
            assert node.store.read("x0") == 1
            assert node.store.read("x1") == 2
            assert node.store.read("x2") == 3

    def test_unbounded_burst_flushes_only_at_boundary(self):
        machine = make_machine(write_burst=0)
        iface = machine.nodes[1].iface
        for i in range(4):
            iface.share_write(f"x{i}", i + 10)
        assert iface.pending_burst_writes == 4
        iface.flush_write_bursts()
        assert iface.pending_burst_writes == 0
        assert machine.network.stats.by_kind["gwc.update_burst"] == 1
        machine.run()
        for node in machine.nodes:
            for i in range(4):
                assert node.store.read(f"x{i}") == i + 10

    def test_single_buffered_write_degenerates_to_plain_update(self):
        machine = make_machine(write_burst=0)
        iface = machine.nodes[1].iface
        iface.share_write("x0", 5)
        iface.flush_write_bursts()
        assert machine.network.stats.by_kind["gwc.update"] == 1
        assert machine.network.stats.by_kind.get("gwc.update_burst", 0) == 0

    def test_atomic_exchange_is_a_boundary_and_rides_the_flush(self):
        machine = make_machine(write_burst=0)
        iface = machine.nodes[1].iface
        iface.share_write("x0", 1)
        iface.share_write("x1", 2)
        old = iface.atomic_exchange("x2", 99)
        assert old == 0
        assert iface.pending_burst_writes == 0
        # One combined packet carried data + the exchanged write.
        assert machine.network.stats.by_kind["gwc.update_burst"] == 1
        machine.run()
        for node in machine.nodes:
            assert node.store.read("x2") == 99

    def test_burst_wire_size_shares_one_header(self):
        machine = make_machine(write_burst=0)
        iface = machine.nodes[1].iface
        for i in range(4):
            iface.share_write(f"x{i}", i)
        before = machine.network.stats.bytes
        assert before == 0
        iface.flush_write_bursts()
        burst_bytes = machine.network.stats.bytes
        # Four writes unbatched would pay four headers; the burst pays
        # one header plus the four payloads, so it must be smaller.
        group = iface.groups["g"]
        packet_bytes = machine.network.params.packet_bytes
        unbatched = sum(
            group.wire_bytes(f"x{i}", packet_bytes) for i in range(4)
        )
        assert burst_bytes == unbatched - 3 * packet_bytes

    def test_suspend_insharing_flushes(self):
        machine = make_machine(write_burst=0)
        iface = machine.nodes[1].iface
        iface.share_write("x0", 7)
        iface.suspend_insharing()
        assert iface.pending_burst_writes == 0
        iface.resume_insharing()


class TestRootBurstHandling:
    def test_non_holder_burst_of_mutex_data_is_discarded(self):
        machine = make_machine(write_burst=0)
        iface = machine.nodes[2].iface
        iface.share_write("guarded", 123)  # speculative: node 2 holds no lock
        iface.share_write("x0", 1)
        iface.flush_write_bursts()
        machine.run()
        engine = machine.nodes[0].iface.root_engines["g"]
        assert engine.discarded == 1
        # The plain write still sequenced.
        assert machine.nodes[3].store.read("x0") == 1
        # The guarded write never reached other nodes.
        assert machine.nodes[3].store.read("guarded") == 0

    def test_burst_applies_reach_members_as_one_train(self):
        machine = make_machine(write_burst=0)
        iface = machine.nodes[1].iface
        for i in range(4):
            iface.share_write(f"x{i}", i + 1)
        iface.flush_write_bursts()
        machine.run()
        engine = machine.nodes[0].iface.root_engines["g"]
        assert engine.sequenced == 4
        assert engine.trains_sent == 1

    def test_end_to_end_equivalence_across_burst_sizes(self):
        images = []
        for burst in (1, 3, 0):
            result = run_burst_writer(
                BurstWriterConfig(
                    n_nodes=4,
                    rounds=3,
                    writes_per_round=5,
                    params=dataclasses.replace(PAPER_PARAMS, write_burst=burst),
                )
            )
            assert result.extra["acc_correct"], f"burst={burst}"
            assert result.extra["image_correct"], f"burst={burst}"
            assert result.extra["pending_burst_writes"] == 0
            images.append(result.extra["image"])
        assert images[0] == images[1] == images[2]

    def test_bursting_reduces_origin_messages(self):
        def origin_messages(burst):
            result = run_burst_writer(
                BurstWriterConfig(
                    n_nodes=4,
                    rounds=3,
                    writes_per_round=5,
                    params=dataclasses.replace(PAPER_PARAMS, write_burst=burst),
                )
            )
            return (
                result.extra["update_messages"] + result.extra["burst_messages"]
            )

        assert origin_messages(0) < origin_messages(3) < origin_messages(1)


class TestSiblingFlushOrder:
    def test_lock_write_flushes_sibling_partitions_in_ascending_order(
        self, monkeypatch
    ):
        """A lock write publishes a section: every other partition's
        buffered writes leave first, lowest partition first, then the
        lock's own partition carries the lock value."""
        from repro.memory.varspace import request_value

        params = dataclasses.replace(PAPER_PARAMS, write_burst=0)
        machine = DSMMachine(n_nodes=4, topology="mesh_torus", params=params)
        machine.create_group("g", roots=(0, 1, 2))  # partition k -> root k
        machine.declare_lock("g", "lk")
        pmap = machine.partition_map("g")
        var_on: dict[int, str] = {}
        for i in range(16):
            machine.declare_variable("g", f"x{i}", initial=0)
            var_on.setdefault(pmap.partition_of(f"x{i}"), f"x{i}")
        lock_home = pmap.partition_of("lk")
        siblings = [p for p in range(3) if p != lock_home]
        sent: list[int] = []
        send = machine.network.send
        monkeypatch.setattr(
            machine.network, "send", lambda msg: (sent.append(msg.dst), send(msg))[1]
        )
        iface = machine.nodes[3].iface
        for partition in reversed(siblings):  # buffer order must not matter
            iface.share_write(var_on[partition], 7)
        assert sent == []
        iface.share_write("lk", request_value(3))
        assert sent == [*siblings, lock_home]
        machine.run()
        for partition in siblings:
            assert machine.nodes[0].store.read(var_on[partition]) == 7


class TestParamsValidation:
    def test_negative_write_burst_rejected(self):
        from repro.errors import ExperimentError
        from repro.params import MachineParams

        with pytest.raises(ExperimentError, match="write_burst"):
            MachineParams(write_burst=-1)
