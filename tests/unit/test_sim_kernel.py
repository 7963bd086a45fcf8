"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired: list[str] = []
        queue.push(3.0, lambda: fired.append("c"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(2.0, lambda: fired.append("b"))
        while queue:
            queue.pop().fn()
        assert fired == ["a", "b", "c"]

    def test_same_time_pops_in_schedule_order(self):
        queue = EventQueue()
        fired: list[int] = []
        for i in range(10):
            queue.push(1.0, lambda i=i: fired.append(i))
        while queue:
            queue.pop().fn()
        assert fired == list(range(10))

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired: list[str] = []
        event = queue.push(1.0, lambda: fired.append("cancelled"))
        queue.push(2.0, lambda: fired.append("kept"))
        event.cancel()
        assert len(queue) == 1
        while queue:
            queue.pop().fn()
        assert fired == ["kept"]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_time(self):
        queue = EventQueue()
        queue.push(5.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.peek_time() == 2.0

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(float("nan"), lambda: None)


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run(self):
        sim = Simulator()
        times: list[float] = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(0.5, lambda: times.append(sim.now))
        end = sim.run()
        assert times == [0.5, 1.5]
        assert end == 1.5

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)

    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        fired: list[float] = []
        sim.schedule(1.0, lambda: fired.append(1.0))
        sim.schedule(5.0, lambda: fired.append(5.0))
        end = sim.run(until=2.0)
        assert fired == [1.0]
        assert end == 2.0
        assert sim.pending_events == 1

    def test_events_at_until_still_fire(self):
        sim = Simulator()
        fired: list[float] = []
        sim.schedule(2.0, lambda: fired.append(2.0))
        sim.run(until=2.0)
        assert fired == [2.0]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired: list[str] = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_max_events_guards_livelock(self):
        sim = Simulator()

        def respawn():
            sim.schedule(0.0, respawn)

        sim.schedule(0.0, respawn)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_cancel_via_simulator(self):
        sim = Simulator()
        fired: list[str] = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        sim.cancel(event)
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def reenter():
            sim.run()

        sim.schedule(0.0, reenter)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()

    def test_rng_streams_are_deterministic(self):
        a = Simulator(seed=42).rng.stream("x").random()
        b = Simulator(seed=42).rng.stream("x").random()
        c = Simulator(seed=43).rng.stream("x").random()
        assert a == b
        assert a != c

    def test_rng_streams_are_independent_by_name(self):
        sim = Simulator(seed=1)
        first = sim.rng.stream("a").random()
        # Drawing from another stream must not perturb the first.
        sim2 = Simulator(seed=1)
        sim2.rng.stream("b").random()
        assert sim2.rng.stream("a").random() == first


class TestCancellation:
    """The queue-routed cancellation bookkeeping stays exact."""

    def test_double_cancel_is_noop(self):
        queue = EventQueue()
        kept: list[str] = []
        doomed = queue.push(1.0, lambda: kept.append("doomed"))
        queue.push(2.0, lambda: kept.append("kept"))
        doomed.cancel()
        doomed.cancel()  # second cancel must not decrement again
        assert len(queue) == 1
        while queue:
            queue.pop().fn()
        assert kept == ["kept"]

    def test_cancel_keeps_live_count_exact(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(6)]
        assert len(queue) == 6
        events[1].cancel()
        events[4].cancel()
        assert len(queue) == 4
        popped = 0
        while queue:
            queue.pop()
            popped += 1
        assert popped == 4
        assert len(queue) == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired: list[str] = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        sim.schedule(2.0, lambda: fired.append("y"))
        sim.run()
        assert fired == ["x", "y"]
        event.cancel()  # already fired: must not corrupt the count
        assert sim.pending_events == 0

    def test_cancel_during_run_respects_pending_count(self):
        sim = Simulator()
        fired: list[str] = []
        later = sim.schedule(2.0, lambda: fired.append("later"))
        sim.schedule(1.0, lambda: later.cancel())
        sim.run()
        assert fired == []
        assert sim.pending_events == 0
