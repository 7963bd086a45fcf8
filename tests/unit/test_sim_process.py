"""Unit tests for generator-based simulated processes and waiters."""

from __future__ import annotations

import pytest

from repro.errors import ProcessError, SimulationError
from repro.sim.kernel import Simulator
from repro.sim.waiters import Future, Signal


class TestProcessBasics:
    def test_sleep_advances_clock(self):
        sim = Simulator()
        log: list[float] = []

        def proc():
            yield 1.0
            log.append(sim.now)
            yield 2.5
            log.append(sim.now)

        sim.spawn(proc(), name="p")
        sim.run()
        assert log == [1.0, 3.5]

    def test_return_value_captured(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return "result"

        p = sim.spawn(proc(), name="p")
        sim.run()
        assert p.finished
        assert p.result == "result"

    def test_yield_none_reschedules_immediately(self):
        sim = Simulator()
        order: list[str] = []

        def a():
            order.append("a1")
            yield
            order.append("a2")

        def b():
            order.append("b1")
            yield
            order.append("b2")

        sim.spawn(a(), name="a")
        sim.spawn(b(), name="b")
        sim.run()
        # Interleaved: both first halves run before either second half.
        assert order == ["a1", "b1", "a2", "b2"]
        assert sim.now == 0.0

    def test_negative_delay_rejected(self):
        sim = Simulator()

        def proc():
            yield -1.0

        sim.spawn(proc(), name="p")
        with pytest.raises(ProcessError, match="negative delay"):
            sim.run()

    def test_bad_yield_value_rejected(self):
        sim = Simulator()

        def proc():
            yield "nonsense"

        sim.spawn(proc(), name="p")
        with pytest.raises(ProcessError, match="unsupported"):
            sim.run()

    def test_exceptions_propagate_out_of_run(self):
        sim = Simulator()

        def proc():
            yield 1.0
            raise ValueError("model bug")

        sim.spawn(proc(), name="p")
        with pytest.raises(ValueError, match="model bug"):
            sim.run()

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            sim.spawn(lambda: None, name="p")  # type: ignore[arg-type]

    def test_check_quiescent_flags_blocked_process(self):
        sim = Simulator()
        never = Future(name="never")

        def proc():
            yield never

        sim.spawn(proc(), name="stuck")
        sim.run()
        with pytest.raises(SimulationError, match="stuck"):
            sim.check_quiescent()


class TestFutureWaiting:
    def test_wait_receives_resolved_value(self):
        sim = Simulator()
        future = Future()
        got: list[object] = []

        def waiter():
            value = yield future
            got.append((sim.now, value))

        sim.spawn(waiter(), name="w")
        sim.schedule(2.0, lambda: future.resolve("payload"))
        sim.run()
        assert got == [(2.0, "payload")]

    def test_wait_on_already_resolved_future(self):
        sim = Simulator()
        future = Future()
        future.resolve(7)
        got: list[object] = []

        def waiter():
            value = yield future
            got.append(value)

        sim.spawn(waiter(), name="w")
        sim.run()
        assert got == [7]

    @pytest.mark.parametrize("subclassed", [False, True], ids=["Future", "subclass"])
    def test_a_future_subclass_waits_like_a_future(self, subclassed):
        """``_dispatch`` tests the exact class first; a subclass must
        still reach the ``isinstance`` arm and cost the same events."""

        class Tagged(Future):
            __slots__ = ()

        sim = Simulator()
        future = Tagged(name="tagged") if subclassed else Future(name="tagged")
        got: list[object] = []

        def waiter():
            got.append((yield future))
            got.append(sim.now)

        process = sim.spawn(waiter(), name="w")
        sim.schedule(2.0, lambda: future.resolve("payload"))
        sim.run(until=1.0)
        assert process.waiting_on is future
        assert process.describe_wait() == "waiting on future 'tagged' since t=0"
        assert sim.pending_events == 1
        sim.run()
        assert got == ["payload", 2.0]
        assert process.steps == 2

    def test_double_resolve_rejected(self):
        future = Future()
        future.resolve(1)
        with pytest.raises(SimulationError, match="twice"):
            future.resolve(2)

    def test_value_before_resolve_rejected(self):
        with pytest.raises(SimulationError):
            Future().value

    def test_many_waiters_all_wake(self):
        sim = Simulator()
        future = Future()
        got: list[int] = []

        def waiter(i):
            yield future
            got.append(i)

        for i in range(5):
            sim.spawn(waiter(i), name=f"w{i}")
        sim.schedule(1.0, lambda: future.resolve(None))
        sim.run()
        assert sorted(got) == [0, 1, 2, 3, 4]


class TestSignalWaiting:
    def test_fire_wakes_current_waiters_only(self):
        sim = Simulator()
        signal = Signal()
        got: list[tuple[str, object]] = []

        def early():
            value = yield signal
            got.append(("early", value))

        sim.spawn(early(), name="early")
        sim.schedule(1.0, lambda: signal.fire("first"))
        sim.schedule(2.0, lambda: signal.fire("second"))
        sim.run()
        assert got == [("early", "first")]
        assert signal.fire_count == 2

    def test_re_wait_sees_next_fire(self):
        sim = Simulator()
        signal = Signal()
        got: list[object] = []

        def loop():
            for _ in range(3):
                value = yield signal
                got.append(value)

        sim.spawn(loop(), name="loop")
        for i in range(1, 4):
            sim.schedule(float(i), lambda i=i: signal.fire(i))
        sim.run()
        assert got == [1, 2, 3]

    def test_wake_resumes_before_events_scheduled_after_the_fire(self):
        """A woken process is an ordinary same-instant event: it runs
        before anything scheduled at that instant after the fire."""
        sim = Simulator()
        signal = Signal()
        order: list[str] = []

        def waiter():
            yield signal
            order.append("resumed")

        def fire():
            signal.fire()
            sim.schedule_fn(0.0, lambda: order.append("scheduled after the fire"))

        sim.spawn(waiter(), name="waiter")
        sim.schedule_fn(1.0, fire)
        sim.run()
        assert order == ["resumed", "scheduled after the fire"]

    def test_remove_callback(self):
        signal = Signal()
        seen: list[object] = []
        cb = seen.append
        signal.add_callback(cb)
        assert signal.remove_callback(cb) is True
        assert signal.remove_callback(cb) is False
        signal.fire("x")
        assert seen == []

    def test_join_process(self):
        sim = Simulator()
        got: list[object] = []

        def child():
            yield 2.0
            return "child-done"

        def parent():
            result = yield sim.spawn(child(), name="child")
            got.append((sim.now, result))

        sim.spawn(parent(), name="parent")
        sim.run()
        assert got == [(2.0, "child-done")]
