"""Property-based tests for the event queue and simulator ordering."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestEventQueueProperties:
    @given(st.lists(times, max_size=200))
    def test_pop_order_is_total_and_stable(self, entries):
        """Events pop sorted by time, with insertion order breaking
        ties."""
        queue = EventQueue()
        for time in entries:
            queue.push(time, lambda: None)
        order = []
        while queue:
            event = queue.pop()
            order.append((event.time, event.seq))
        assert order == sorted(order)
        assert len(order) == len(entries)

    @given(st.lists(times, min_size=1, max_size=100), st.data())
    def test_cancellation_removes_exactly_the_cancelled(self, ts, data):
        queue = EventQueue()
        events = [queue.push(t, lambda: None) for t in ts]
        to_cancel = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(ts) - 1), max_size=len(ts))
        )
        for idx in to_cancel:
            events[idx].cancel()
        surviving = []
        while queue:
            surviving.append(queue.pop().seq)
        expected = [e.seq for i, e in enumerate(events) if i not in to_cancel]
        assert sorted(surviving) == sorted(expected)


class TestSimulatorProperties:
    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=50))
    def test_clock_is_monotone(self, delays):
        sim = Simulator()
        observed: list[float] = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @settings(max_examples=30)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0.01, max_value=10.0), max_size=10),
            min_size=1,
            max_size=8,
        )
    )
    def test_processes_accumulate_their_own_delays(self, all_delays):
        sim = Simulator()
        finished: dict[int, float] = {}

        def proc(i, delays):
            for d in delays:
                yield d
            finished[i] = sim.now

        for i, delays in enumerate(all_delays):
            sim.spawn(proc(i, delays), name=f"p{i}")
        sim.run()
        for i, delays in enumerate(all_delays):
            assert finished[i] == sum(delays) or abs(
                finished[i] - sum(delays)
            ) < 1e-9 * max(1.0, sum(delays))
