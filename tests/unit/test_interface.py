"""Unit tests for the eagersharing interface: sequencing, suspension,
interrupts, and the Figure 6 hardware blocking filter."""

from __future__ import annotations

import pytest

from repro.errors import MemoryError_, SequencingError, UnknownVariableError
from repro.memory.interface import (
    SUPPRESSED,
    ApplyPacket,
    NodeInterface,
    apply_cohort,
)
from repro.memory.packet_filter import HardwareBlockingFilter
from repro.memory.sharing_group import SharingGroup
from repro.memory.store import LocalStore
from repro.memory.varspace import LockDecl, VarDecl
from repro.net.network import Network
from repro.net.topology import Ring
from repro.params import MachineParams
from repro.sim.kernel import Simulator


def make_iface(node=1, echo_blocking=True):
    sim = Simulator()
    network = Network(sim, Ring(4), MachineParams())
    store = LocalStore(node)
    iface = NodeInterface(sim, network, node, store, echo_blocking=echo_blocking)
    network.attach(node, iface.on_message)
    for other in range(4):
        if other != node:
            network.attach(other, lambda msg: None)  # sink for forwards
    group = SharingGroup("g", network, (0, 1, 2, 3), root=0)
    group.declare_variable(VarDecl(name="x", group="g", initial=0))
    group.declare_variable(VarDecl(name="m", group="g", initial=0, mutex_lock="L"))
    group.declare_lock(LockDecl(name="L", group="g", protects=("m",)))
    iface.join_group(group)
    return sim, iface, store, group


def packet(seq, var="x", value=1, origin=0, mutex=False, lock=False):
    return ApplyPacket(
        group="g",
        seq=seq,
        var=var,
        value=value,
        origin=origin,
        is_mutex_data=mutex,
        is_lock=lock,
    )


class TestHardwareBlockingFilter:
    def test_drops_own_mutex_data_echo(self):
        filt = HardwareBlockingFilter(node=1)
        assert filt.should_drop(origin=1, is_mutex_data=True, is_lock=False)
        assert filt.dropped == 1

    def test_keeps_others_mutex_data(self):
        filt = HardwareBlockingFilter(node=1)
        assert not filt.should_drop(origin=2, is_mutex_data=True, is_lock=False)

    def test_keeps_own_ordinary_data(self):
        filt = HardwareBlockingFilter(node=1)
        assert not filt.should_drop(origin=1, is_mutex_data=False, is_lock=False)

    def test_never_drops_lock_values(self):
        """Echoed local lock changes are part of the mutex group but are
        not dropped (they drive the interrupt)."""
        filt = HardwareBlockingFilter(node=1)
        assert not filt.should_drop(origin=1, is_mutex_data=True, is_lock=True)

    def test_disabled_filter_drops_nothing(self):
        filt = HardwareBlockingFilter(node=1, enabled=False)
        assert not filt.should_drop(origin=1, is_mutex_data=True, is_lock=False)
        assert filt.dropped == 0


class TestSequencing:
    def test_in_order_applies(self):
        sim, iface, store, group = make_iface()
        iface._receive(packet(0, value=10))
        iface._receive(packet(1, value=20))
        assert store.read("x") == 20
        assert iface.applied_count == 2

    def test_out_of_order_buffers_until_gap_fills(self):
        sim, iface, store, group = make_iface()
        iface._receive(packet(1, value=20))
        assert store.read("x") == 0  # seq 0 still missing
        iface._receive(packet(0, value=10))
        assert store.read("x") == 20  # both applied, in order

    def test_duplicate_seq_rejected(self):
        sim, iface, store, group = make_iface()
        iface._receive(packet(0))
        with pytest.raises(SequencingError):
            iface._receive(packet(0))

    def test_echo_consumes_sequence_number(self):
        """A dropped echo must still advance the expected sequence."""
        sim, iface, store, group = make_iface(node=1)
        iface._receive(packet(0, var="m", value=99, origin=1, mutex=True))
        assert store.read("m") == 0  # dropped
        iface._receive(packet(1, var="x", value=7))
        assert store.read("x") == 7  # sequence advanced past the drop


class TestInsharingSuspension:
    def test_suspended_packets_queue_and_replay_in_order(self):
        sim, iface, store, group = make_iface()
        iface.suspend_insharing()
        iface._receive(packet(0, value=1))
        iface._receive(packet(1, value=2))
        assert store.read("x") == 0
        assert iface.pending_suspended == 2
        iface.resume_insharing()
        assert store.read("x") == 2
        assert iface.pending_suspended == 0

    def test_filter_applies_to_drained_packets(self):
        sim, iface, store, group = make_iface(node=1)
        iface.suspend_insharing()
        iface._receive(packet(0, var="m", value=5, origin=1, mutex=True))
        iface.resume_insharing()
        assert store.read("m") == 0
        assert iface.filter.dropped == 1


class TestLockInterrupt:
    def test_interrupt_fires_with_suspension_engaged(self):
        sim, iface, store, group = make_iface()
        seen = []

        def handler(value):
            seen.append((value, iface.insharing_suspended))
            iface.resume_insharing()

        iface.arm_lock_interrupt("L", handler)
        iface._receive(packet(0, var="L", value=3, origin=0, lock=True))
        assert seen == [(3, True)]
        assert store.read("L") == 3  # value applied before the handler
        assert not iface.insharing_suspended

    def test_interrupt_disarms_itself(self):
        sim, iface, store, group = make_iface()
        calls = []
        iface.arm_lock_interrupt("L", lambda v: (calls.append(v), iface.resume_insharing()))
        iface._receive(packet(0, var="L", value=1, origin=0, lock=True))
        iface._receive(packet(1, var="L", value=2, origin=0, lock=True))
        assert calls == [1]

    def test_drain_stops_at_armed_lock_change(self):
        """Resuming insharing replays queued packets but an armed lock
        change re-suspends and leaves the rest queued."""
        sim, iface, store, group = make_iface()
        order = []

        def handler(value):
            order.append(("interrupt", value))
            # Leave insharing suspended (the rollback path).

        iface.suspend_insharing()
        iface._receive(packet(0, var="x", value=1))
        iface._receive(packet(1, var="L", value=9, origin=0, lock=True))
        iface._receive(packet(2, var="x", value=2))
        iface.arm_lock_interrupt("L", handler)
        iface.resume_insharing()
        assert order == [("interrupt", 9)]
        assert store.read("x") == 1  # packet 2 still queued
        assert iface.pending_suspended == 1
        iface.resume_insharing()
        assert store.read("x") == 2

    def test_unarmed_lock_changes_do_not_suspend(self):
        sim, iface, store, group = make_iface()
        iface._receive(packet(0, var="L", value=4, origin=0, lock=True))
        assert not iface.insharing_suspended
        assert store.read("L") == 4


class TestApplyCohort:
    """The batch entry point: inline only what ``_receive`` + ``_process``
    would do for a plain in-order commit, defer to them for the rest."""

    def test_in_order_commit_counts_and_wakes_waiters(self):
        sim, iface, store, group = make_iface()
        woken = []
        store.signal_for("x").add_callback(woken.append)
        apply_cohort(((iface,), packet(0, value=10)))
        apply_cohort(((iface,), packet(1, value=20)))
        assert store.read("x") == 20
        assert store.write_counts["x"] == 2
        assert iface.applied_count == 2
        assert woken == [10]  # a signal wakes only the waiters it had

    def test_future_seq_is_buffered_until_the_gap_fills(self):
        sim, iface, store, group = make_iface()
        apply_cohort(((iface,), packet(1, value=20)))
        assert store.read("x") == 0 and iface.applied_count == 0
        apply_cohort(((iface,), packet(0, value=10)))
        assert store.read("x") == 20 and iface.applied_count == 2

    def test_suspended_member_queues_while_its_sibling_applies(self):
        sim, iface, store, group = make_iface(node=1)
        sibling = NodeInterface(sim, iface.network, 2, LocalStore(2))
        sibling.join_group(group)
        iface.suspend_insharing()
        apply_cohort(((iface, sibling), packet(0, value=5)))
        assert (store.read("x"), iface.pending_suspended) == (0, 1)
        assert sibling.store.read("x") == 5

    def test_own_mutex_echo_is_dropped_but_consumes_its_seq(self):
        sim, iface, store, group = make_iface(node=1)
        apply_cohort(((iface,), packet(0, var="m", value=99, origin=1, mutex=True)))
        assert store.read("m") == 0
        assert (iface.filter.dropped, iface.applied_count) == (1, 0)
        apply_cohort(((iface,), packet(1, var="m", value=7, origin=2, mutex=True)))
        assert store.read("m") == 7

    def test_echo_applies_when_blocking_is_disabled(self):
        sim, iface, store, group = make_iface(node=1, echo_blocking=False)
        apply_cohort(((iface,), packet(0, var="m", value=99, origin=1, mutex=True)))
        assert store.read("m") == 99 and iface.filter.dropped == 0

    def test_header_only_apply_keeps_the_local_value(self):
        sim, iface, store, group = make_iface()
        apply_cohort(((iface,), packet(0, value=SUPPRESSED)))
        assert store.read("x") == 0
        assert (iface.suppressed_applies, iface.applied_count) == (1, 0)

    def test_undeclared_variable_and_unjoined_group_still_raise(self):
        sim, iface, store, group = make_iface()
        with pytest.raises(UnknownVariableError):
            apply_cohort(((iface,), packet(0, var="ghost")))
        stranger = ApplyPacket("other", 0, "x", 1, 0, False, False)
        with pytest.raises(MemoryError_, match="unjoined group"):
            apply_cohort(((iface,), stranger))


class TestOutbound:
    def test_share_write_applies_locally_and_forwards(self):
        sim, iface, store, group = make_iface(node=1)
        iface.share_write("x", 42)
        assert store.read("x") == 42
        assert iface.network.stats.by_kind["gwc.update"] == 1

    def test_atomic_exchange_returns_old_value(self):
        sim, iface, store, group = make_iface(node=1)
        store.write("x", 5)
        old = iface.atomic_exchange("x", 9)
        assert old == 5
        assert store.read("x") == 9

    def test_wire_size_includes_declared_payload(self):
        sim, iface, store, group = make_iface(node=1)
        assert group.wire_bytes("L", 16) == 16
        assert group.wire_bytes("x", 16) == 24  # 16 header + 8 payload
