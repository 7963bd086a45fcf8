"""Unit tests for the root-failover subsystem.

Covers the pieces that can be exercised without a full chaos run: the
``crash(root_of=...)`` plan validation, the epoch bookkeeping on the
sharing interface, the failover manager's preconditions, the
first-person lock reconstruction rule, and the loss-model gate for
failover control traffic.
"""

from __future__ import annotations

import random

import pytest

from repro.core.machine import DSMMachine
from repro.errors import FaultError
from repro.faults.failover import (
    FailoverReply,
    RootFailoverManager,
    _Election,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, crash
from repro.memory.varspace import (
    FREE_VALUE,
    grant_value,
    request_value,
)
from repro.net.loss import FAILOVER_CONTROL_KINDS, LossModel
from repro.net.message import Message


class TestCrashRootPlan:
    def test_root_of_is_a_valid_crash_target(self):
        plan = FaultPlan([crash(1e-6, root_of="g")], seed=0)
        plan.validate(n_nodes=4)
        assert plan.events[0].root_of == "g"

    def test_crash_needs_exactly_one_target(self):
        with pytest.raises(FaultError):
            crash(1e-6)
        with pytest.raises(FaultError):
            crash(1e-6, node=1, root_of="g")
        with pytest.raises(FaultError):
            crash(1e-6, holder_of="L", root_of="g")


class TestInterfaceEpochs:
    def _machine(self):
        machine = DSMMachine(n_nodes=4, reliable=True)
        machine.create_group("g")
        machine.declare_variable("g", "v", 0)
        return machine

    def test_adopt_epoch_fast_forwards_cursor(self):
        machine = self._machine()
        iface = machine.nodes[1].iface
        assert iface._epoch["g"] == 0
        iface._adopt_epoch("g", 2, 7)
        assert iface._epoch["g"] == 2
        assert iface._next_seq["g"] == 7

    def test_adopt_epoch_never_rewinds_cursor(self):
        machine = self._machine()
        iface = machine.nodes[1].iface
        iface._next_seq["g"] = 10
        iface._adopt_epoch("g", 1, 4)
        assert iface._next_seq["g"] == 10

    def test_stale_epoch_counter_feeds_network_stats(self):
        machine = self._machine()
        iface = machine.nodes[1].iface
        before = machine.network.stats.stale_epoch_discards
        iface._note_stale_epoch()
        assert machine.network.stats.stale_epoch_discards == before + 1


class TestManagerPreconditions:
    def test_requires_reliability(self):
        machine = DSMMachine(n_nodes=4)  # no NACK/heartbeat machinery
        injector = FaultInjector(machine, FaultPlan([], seed=0))
        with pytest.raises(FaultError):
            RootFailoverManager(machine, injector)

    def test_double_install_rejected(self):
        machine = DSMMachine(n_nodes=4, reliable=True)
        injector = FaultInjector(machine, FaultPlan([], seed=0))
        RootFailoverManager(machine, injector).install()
        with pytest.raises(FaultError):
            RootFailoverManager(machine, injector).install()


def _reply(member, lock_value, lock_seq=-1, next_seq=0):
    return FailoverReply(
        group="g",
        member=member,
        epoch=1,
        next_seq=next_seq,
        image={},
        lock_state={"L": lock_value},
        lock_seq={"L": lock_seq},
    )


class TestLockReconstruction:
    def _manager(self):
        machine = DSMMachine(n_nodes=6, reliable=True)
        injector = FaultInjector(machine, FaultPlan([], seed=0))
        manager = RootFailoverManager(machine, injector)
        manager.install()
        return manager

    def _election(self, replies):
        election = _Election("g", old_root=0, successor=1, epoch=1)
        for reply in replies:
            election.replies[reply.member] = reply
        return election

    def test_first_person_claim_wins(self):
        manager = self._manager()
        election = self._election(
            [
                _reply(1, grant_value(1), lock_seq=5),
                _reply(2, request_value(2)),
                _reply(3, FREE_VALUE),
            ]
        )
        holder, pending = manager._reconstruct_lock(election, "L")
        assert holder == 1
        assert pending == [2]

    def test_third_party_grant_evidence_is_ignored(self):
        # Everyone's copy says "grant(4)" but node 4 (crashed) sent no
        # reply: re-granting to it would hand the lock to a dead node.
        manager = self._manager()
        election = self._election(
            [_reply(1, grant_value(4)), _reply(2, grant_value(4))]
        )
        holder, pending = manager._reconstruct_lock(election, "L")
        assert holder is None
        assert pending == []

    def test_claim_tie_broken_by_lock_seq_then_id(self):
        # Two self-claims can coexist when a grant raced the crash; the
        # one whose grant was sequenced later wins.
        manager = self._manager()
        election = self._election(
            [
                _reply(2, grant_value(2), lock_seq=3),
                _reply(5, grant_value(5), lock_seq=9),
            ]
        )
        holder, _ = manager._reconstruct_lock(election, "L")
        assert holder == 5

    def test_queue_head_promoted_when_no_claim(self):
        manager = self._manager()
        election = self._election(
            [_reply(3, request_value(3)), _reply(2, request_value(2))]
        )
        holder, pending = manager._reconstruct_lock(election, "L")
        assert holder is None
        assert pending == [2, 3]  # id order; _takeover promotes pending[0]


class TestTakeover:
    """``_takeover`` on a hand-built quorum whose members disagree."""

    def _takeover(self, holder=None):
        machine = DSMMachine(n_nodes=4, reliable=True)
        machine.create_group("g")
        machine.declare_variable("g", "v", 0)
        machine.declare_variable("g", "d", 0, mutex_lock="L")
        machine.declare_lock("g", "L", protects=("d",))
        injector = FaultInjector(machine, FaultPlan([], seed=0))
        manager = RootFailoverManager(machine, injector)
        manager.install()
        election = _Election("g", old_root=0, successor=1, epoch=1)
        # Member 3 applied the longest prefix; member 2 lags behind it.
        for member, next_seq, value in ((1, 6, 5), (2, 4, 3), (3, 9, 8)):
            lock = grant_value(member) if member == holder else FREE_VALUE
            election.replies[member] = FailoverReply(
                group="g", member=member, epoch=1, next_seq=next_seq,
                image={"v": value, "d": 0}, lock_state={"L": lock},
                lock_seq={"L": 2},
            )
        manager._pending["g"] = election
        manager._takeover(election)
        return machine

    def test_successor_adopts_the_longest_applied_prefix(self):
        machine = self._takeover()
        engine = machine.root_engine("g")
        assert engine.epoch_start_seq == 9
        assert engine.authoritative_read("v") == 8
        machine.run()
        for node in machine.nodes[1:]:
            assert node.store.read("v") == 8

    def test_successor_writes_under_the_new_epoch_at_once(self):
        # The successor's own interface adopts the epoch inside the
        # takeover: a write it issues at that instant is sequenced, not
        # window-discarded as if it came from the old sequencer's era.
        machine = self._takeover()
        machine.nodes[1].iface.share_write("v", 11)
        machine.run()
        engine = machine.root_engine("g")
        assert engine.window_discards == 0
        assert engine.authoritative_read("v") == 11

    def test_an_unwanted_rebuilt_grant_is_declined(self):
        # Member 2's evidence shows it holding L, but its release died
        # with the old root: when the rebuilt grant lands its own copy
        # reads FREE, so it declines and the lock comes back free.
        machine = self._takeover(holder=2)
        manager = machine.root_engine("g").lock_managers["L"]
        assert manager.holder == 2
        machine.nodes[2].store.write("L", FREE_VALUE)
        machine.run()
        assert machine.nodes[2].iface.declined_regrants == 1
        assert manager.holder is None
        for node in machine.nodes:
            assert node.store.read("L") == FREE_VALUE


class TestLossModelFailoverGate:
    def _msg(self, kind, retransmit=False):
        class _Payload:
            pass

        payload = _Payload()
        payload.retransmit = retransmit
        return Message(src=0, dst=1, kind=kind, payload=payload, size_bytes=64)

    def test_failover_kinds_reliable_by_default(self):
        model = LossModel(0.999, random.Random(0))
        assert not model.should_drop(self._msg("failover.query"))
        assert not model.should_drop(self._msg("failover.reply"))

    def test_opt_in_makes_failover_control_lossy(self):
        model = LossModel(0.999, random.Random(0), lossy_failover=True)
        assert FAILOVER_CONTROL_KINDS <= model.lossy_kinds
        assert model.should_drop(self._msg("failover.query"))

    def test_retransmissions_stay_exempt(self):
        model = LossModel(0.999, random.Random(0), lossy_failover=True)
        assert not model.should_drop(self._msg("failover.query", retransmit=True))
        assert not model.should_drop(self._msg("failover.reply", retransmit=True))
