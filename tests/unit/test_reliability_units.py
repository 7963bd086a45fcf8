"""Unit-level tests for the reliable-multicast machinery."""

from __future__ import annotations

import pytest

from repro.core.machine import DSMMachine
from repro.errors import MemoryError_
from repro.sim.event import Event


def build(loss_rate=0.1, seed=0, n=4):
    machine = DSMMachine(n_nodes=n, loss_rate=loss_rate, seed=seed)
    machine.create_group("g", root=0)
    machine.declare_variable("g", "x", 0)
    return machine


class TestNackTimeoutDerivation:
    def test_timeout_set_when_lossy(self):
        machine = build(loss_rate=0.1)
        assert machine.nack_timeout is not None
        assert machine.nack_timeout >= 2e-6
        for node in machine.nodes:
            assert node.iface.nack_timeout == machine.nack_timeout

    def test_no_timeout_when_lossless(self):
        machine = build(loss_rate=0.0)
        assert machine.nack_timeout is None
        assert machine.loss_model is None

    def test_reliability_enabled_on_engines(self):
        machine = build(loss_rate=0.1)
        engine = machine.root_engine("g")
        assert engine._heartbeat_interval == machine.nack_timeout


class TestRootHistory:
    def test_history_kept_only_when_reliable(self):
        lossy = build(loss_rate=0.1)

        def writer(node):
            node.iface.share_write("x", 1)
            yield 0

        lossy.spawn(writer(lossy.nodes[1]), name="w")
        lossy.run(max_events=100_000)
        assert len(lossy.root_engine("g")._history) == 1

        clean = build(loss_rate=0.0)
        clean.spawn(writer(clean.nodes[1]), name="w")
        clean.run()
        assert len(clean.root_engine("g")._history) == 0

    def test_nack_served_from_history(self):
        machine = build(loss_rate=0.0)
        # Manually enable reliability so NACKs are legal, then write and
        # NACK from a member.
        engine = machine.root_engine("g")
        engine.enable_reliability(heartbeat_interval=5e-6)
        for node in machine.nodes:
            node.iface.nack_timeout = 5e-6

        def writer(node):
            node.iface.share_write("x", 42)
            yield 2e-6
            # Member 3 pretends it lost everything.
            machine.nodes[3].iface._next_seq["g"] = 0
            machine.nodes[3].iface._send_nack("g")

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.run(max_events=100_000)
        assert engine.retransmissions >= 1
        assert machine.nodes[3].store.read("x") == 42

    def test_nack_without_reliability_rejected(self):
        machine = build(loss_rate=0.0)
        with pytest.raises(MemoryError_):
            machine.root_engine("g").on_nack(member=1, from_seq=0)


class TestHeartbeat:
    def test_heartbeat_fires_after_quiet_period(self):
        machine = build(loss_rate=0.1, seed=0)

        def writer(node):
            node.iface.share_write("x", 1)
            yield 0

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.run(max_events=100_000)
        # One trailing heartbeat went to the non-root members.
        assert machine.network.stats.by_kind.get("gwc.heartbeat", 0) >= 3

    def test_heartbeat_resets_on_new_traffic(self):
        machine = build(loss_rate=0.1, seed=0)
        interval = machine.nack_timeout

        def writer(node):
            # Writes spaced at half the heartbeat interval: the timer
            # keeps being pushed back, so at most one trailing heartbeat
            # burst fires after the last write.
            for i in range(6):
                node.iface.share_write("x", i)
                yield interval / 2

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.run(max_events=200_000)
        beats = machine.network.stats.by_kind.get("gwc.heartbeat", 0)
        assert beats == 3  # exactly one burst to the 3 non-root members


class TestTrailingHeartbeatKey:
    """A run of sequenced packets moves the trailing heartbeat by
    reserving its key: one live event chases the latest deadline and
    pops there, and no cancelled entry is left in the heap."""

    def run_writes(self, machine, after_writes=None):
        engine = machine.nodes[0].iface.root_engines["g"]
        engine.enable_reliability(heartbeat_interval=5e-6)
        refreshed, emitted = [], []
        refresh, emit = engine._refresh_heartbeat, engine._emit_heartbeat

        def recording_refresh():
            refresh()
            heap = machine.sim._queue._heap
            events = [e[2] for e in heap if e[2].__class__ is Event]
            assert [e.cancelled for e in events] == [False]
            refreshed.append((machine.sim.now, engine._heartbeat_key))

        def recording_emit():
            emitted.append(machine.sim.now)
            emit()

        engine._refresh_heartbeat = recording_refresh
        engine._emit_heartbeat = recording_emit

        def writer(node):
            for i in range(5):
                node.iface.share_write("x", i)
                yield 1e-6
            if after_writes is not None:
                after_writes(engine)

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.run()
        return engine, refreshed, emitted

    def test_one_live_event_pops_at_the_latest_key(self):
        machine = build(loss_rate=0.0)
        engine, refreshed, emitted = self.run_writes(machine)
        assert len(refreshed) == 5
        last_time, (deadline, _seq) = refreshed[-1]
        assert deadline == last_time + 5e-6
        assert emitted == [deadline]
        assert machine.network.stats.by_kind["gwc.heartbeat"] == 3
        assert engine._heartbeat_event is None

    def test_an_immediate_heartbeat_cancels_the_trailing_one(self):
        machine = build(loss_rate=0.0)
        engine, refreshed, emitted = self.run_writes(
            machine, after_writes=lambda engine: engine.emit_heartbeat()
        )
        # Only the immediate announcement; the chased deadline never pops.
        assert len(emitted) == 1 and emitted[0] < refreshed[-1][1][0]
        assert machine.network.stats.by_kind["gwc.heartbeat"] == 3
