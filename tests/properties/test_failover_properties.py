"""Stateful properties of the failover-era lock and epoch machinery.

Two Hypothesis state machines:

* :class:`LeaseEpochMachine` drives a lease-armed
  :class:`~repro.locks.gwc_lock.GwcLockManager` through request /
  release / re-acquire / crash / expiry sequences (including lease
  checks that fire with a stale grant epoch, the shape a deposed root's
  timer leaves behind) and asserts a reclaim never hits a live holder —
  in particular never one that released and re-acquired under a newer
  grant epoch.
* :class:`EpochFenceMachine` drives a post-failover successor engine
  with a mix of current-epoch and stale-epoch update requests (data
  writes and lock FREEs) and asserts stale traffic is discarded without
  touching the authoritative image or the rebuilt lock table, while the
  deposed predecessor ignores everything.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.consistency.gwc import GroupRootEngine
from repro.core.machine import DSMMachine
from repro.locks.gwc_lock import GwcLockManager
from repro.memory.interface import UpdateRequest
from repro.memory.varspace import (
    FREE_VALUE,
    LockDecl,
    grant_value,
    request_value,
)

NODES = list(range(5))
LEASE = 1e-3


class _FakeSim:
    """Minimal scheduler: just enough for the lease machinery."""

    class _Event:
        __slots__ = ("time", "fn", "cancelled")

        def __init__(self, time, fn):
            self.time = time
            self.fn = fn
            self.cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.now = 0.0
        self.events = []

    def schedule(self, delay, fn):
        event = self._Event(self.now + delay, fn)
        self.events.append(event)
        return event

    def advance(self, dt):
        """Move time forward, firing due events in time order."""
        deadline = self.now + dt
        while True:
            due = [e for e in self.events if not e.cancelled and e.time <= deadline]
            if not due:
                break
            event = min(due, key=lambda e: e.time)
            self.events.remove(event)
            self.now = event.time
            event.fn()
        self.now = deadline


class LeaseEpochMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = _FakeSim()
        self.manager = GwcLockManager(LockDecl(name="L", group="g"))
        self.crashed: set[int] = set()
        self.reclaim_log: list[tuple[int, bool]] = []
        self.manager.enable_lease(
            self.sim,
            emit=lambda values: None,
            duration=LEASE,
            is_crashed=lambda n: n in self.crashed,
        )

        def record(name, old_holder, new_holder, now):
            self.reclaim_log.append((old_holder, old_holder in self.crashed))

        self.manager.on_reclaim = record

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def _idle_live(self):
        busy = set(self.manager.queue) | self.crashed
        if self.manager.holder is not None:
            busy.add(self.manager.holder)
        return [n for n in NODES if n not in busy]

    @precondition(lambda self: self._idle_live())
    @rule(data=st.data())
    def request(self, data):
        node = data.draw(st.sampled_from(self._idle_live()))
        self.manager.on_write(node, request_value(node))

    @precondition(
        lambda self: self.manager.holder is not None
        and self.manager.holder not in self.crashed
    )
    @rule()
    def release(self):
        self.manager.on_write(self.manager.holder, FREE_VALUE)

    @precondition(
        lambda self: self.manager.holder is not None
        and self.manager.holder not in self.crashed
        and not self.manager.queue
    )
    @rule()
    def reacquire(self):
        # Release + immediate re-request: same holder, strictly newer
        # grant epoch.  Any lease check armed for the old occupancy is
        # now stale and must never reclaim the new one.
        holder = self.manager.holder
        before = self.manager._grant_epoch
        self.manager.on_write(holder, FREE_VALUE)
        self.manager.on_write(holder, request_value(holder))
        assert self.manager.holder == holder
        assert self.manager._grant_epoch > before

    @precondition(lambda self: self.manager.holder is not None)
    @rule(data=st.data())
    def stale_lease_check_is_inert(self, data):
        # A check left over from an older occupancy (e.g. a deposed
        # root's timer) fires late: it must not touch the lock.
        stale = data.draw(
            st.integers(min_value=0, max_value=self.manager._grant_epoch - 1)
        )
        holder, reclaims = self.manager.holder, self.manager.lease_reclaims
        self.manager._lease_check(stale)
        assert self.manager.holder == holder
        assert self.manager.lease_reclaims == reclaims

    @precondition(
        lambda self: self.manager.holder is not None
        and self.manager.holder not in self.crashed
    )
    @rule()
    def crash_holder(self):
        self.crashed.add(self.manager.holder)

    @rule()
    def expire_lease(self):
        self.sim.advance(LEASE * 1.5)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def reclaims_only_hit_crashed_holders(self):
        assert all(was_crashed for _, was_crashed in self.reclaim_log)

    @invariant()
    def queue_never_contains_the_holder(self):
        assert self.manager.holder not in self.manager.queue


class EpochFenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        machine = DSMMachine(n_nodes=5, reliable=True)
        machine.create_group("g")
        machine.declare_variable("g", "v", 0, mutex_lock="L")
        machine.declare_lock("g", "L", protects=("v",))
        group = machine.groups["g"]
        self.old = machine.root_engine("g")
        self.old.depose()
        self.new = GroupRootEngine(
            machine.sim, group, machine.params.packet_bytes
        )
        for decl in group.locks.values():
            self.new.add_lock(decl)
        # Rebuilt lock table: node 1 holds, node 2 queued.
        manager = self.new.lock_managers["L"]
        manager.queue.append(2)
        manager._grant_to(1)
        self.new.hand_off(
            self.old.epoch + 1,
            self.old.sequenced,
            {"v": 0, "L": grant_value(1)},
            old_owner=group.root,
            rebuilt=True,
        )
        self.model_value = 0
        self.stale_sent = 0

    def _send(self, var, value, origin, epoch):
        self.new.on_update(
            UpdateRequest(group="g", var=var, value=value, origin=origin, epoch=epoch)
        )

    @rule(value=st.integers(0, 100))
    def holder_writes_current_epoch(self, value):
        self._send("v", value, origin=1, epoch=self.new.epoch)
        self.model_value = value

    @rule(value=st.integers(0, 100))
    def stale_data_write_discarded(self, value):
        self._send("v", value, origin=1, epoch=self.old.epoch)
        self.stale_sent += 1

    @rule(origin=st.sampled_from(NODES))
    def stale_free_discarded(self, origin):
        # A FREE issued into the failover window (the old holder's
        # release that died with the old root, re-sent with a stale
        # stamp) must not unlock the rebuilt table.
        self._send("L", FREE_VALUE, origin=origin, epoch=self.old.epoch)
        self.stale_sent += 1

    @rule(value=st.integers(0, 100))
    def deposed_root_ignores_everything(self, value):
        ignored = self.old.deposed_ignored
        self.old.on_update(
            UpdateRequest(
                group="g", var="v", value=value, origin=1, epoch=self.old.epoch
            )
        )
        assert self.old.deposed_ignored == ignored + 1

    @invariant()
    def stale_traffic_never_lands(self):
        assert self.new.window_discards == self.stale_sent
        assert self.new.authoritative_read("v") == self.model_value

    @invariant()
    def rebuilt_lock_table_intact(self):
        manager = self.new.lock_managers["L"]
        assert manager.holder == 1
        assert manager.queue == [2]
        assert self.new.authoritative_read("L") == grant_value(1)


TestLeaseEpochs = LeaseEpochMachine.TestCase
TestLeaseEpochs.settings = settings(max_examples=60, deadline=None)

TestEpochFence = EpochFenceMachine.TestCase
TestEpochFence.settings = settings(max_examples=60, deadline=None)
