"""A filtered store wait is order-exact against the unfiltered one.

:meth:`LocalStore.wait_until` tests each write at fire time
(:class:`~repro.sim.waiters.PredicateWait`); the reference,
``tests.schedule.unfiltered_wait_until``, resumes the process on every
write and re-tests there.  Each case runs one scenario both ways and
compares what a run can see — who proceeds when, at which heap key, the
watchdog's step counts and the wait descriptions — and the popped
``(time, seq)`` stream, with the reference's false wakes dropped.
"""

from __future__ import annotations

import pytest

from repro.errors import StallError
from repro.locks.optimistic import WAIT_SWAP
from repro.memory.store import LocalStore
from repro.sim.kernel import Simulator
from repro.sim.watchdog import Watchdog
from tests.schedule import popped_schedule_sha256, unfiltered_wait_until


def waiter(sim, store, log, name, predicate, delay=0.0):
    if delay:
        yield delay
    value = yield from store.wait_until("x", predicate)
    log.append((name, sim.now, sim._seq, value))


def observe(monkeypatch, scenario, filtered):
    """Run ``scenario(sim, store, log)`` (returns its processes) one way."""
    with monkeypatch.context() as patch:
        if not filtered:
            patch.setattr(LocalStore, "wait_until", unfiltered_wait_until)
        sim = Simulator()
        store = LocalStore(0)
        store.declare("x", 0)
        log = []
        processes = scenario(sim, store, log)
        digest = popped_schedule_sha256(
            patch, sim, sim.run, drop_false_wakes=not filtered
        )
    return {
        "log": log,
        "digest": digest,
        "next_seq": sim._queue._next_seq,
        "steps": [p.steps for p in processes],
        "waits": [p.describe_wait() for p in processes],
    }


def both(monkeypatch, scenario):
    filtered = observe(monkeypatch, scenario, True)
    reference = observe(monkeypatch, scenario, False)
    assert filtered == reference
    return filtered


class TestPendingSlot:
    def test_false_then_true_resumes_at_the_reserved_key(self, monkeypatch):
        def scenario(sim, store, log):
            p = sim.spawn(waiter(sim, store, log, "p", lambda v: v == 2), name="p")

            def burst():
                log.append(("slot", sim._queue._next_seq))
                store.write("x", 1)  # false: reserves the slot
                store.write("x", 2)  # true while the slot is pending

            sim.schedule(1.0, burst)
            return [p]

        seen = both(monkeypatch, scenario)
        (_, slot), resumed = seen["log"]
        assert resumed == ("p", 1.0, slot, 2)
        assert seen["next_seq"] == slot + 1

    def test_false_then_false_reserves_one_seq(self, monkeypatch):
        def scenario(sim, store, log):
            p = sim.spawn(waiter(sim, store, log, "p", lambda v: v == 2), name="p")

            def burst():
                before = sim._queue._next_seq
                store.write("x", 1)
                store.write("x", 3)
                log.append(("taken", sim._queue._next_seq - before))

            sim.schedule(1.0, burst)
            sim.schedule(2.0, lambda: store.write("x", 2))
            return [p]

        seen = both(monkeypatch, scenario)
        assert seen["log"][0] == ("taken", 1)
        assert seen["log"][1][:2] == ("p", 2.0)

    def test_true_then_false_before_the_resume_waits_again(self, monkeypatch):
        def scenario(sim, store, log):
            p = sim.spawn(waiter(sim, store, log, "p", lambda v: v == 2), name="p")

            def burst():
                store.write("x", 2)  # wakes p...
                store.write("x", 3)  # ...which re-reads a false value

            sim.schedule(1.0, burst)
            sim.schedule(2.0, lambda: store.write("x", 2))
            return [p]

        seen = both(monkeypatch, scenario)
        assert [entry[:2] for entry in seen["log"]] == [("p", 2.0)]


class TestRegistrationOrder:
    def test_a_waiter_registering_before_the_slot_goes_first(self, monkeypatch):
        """p1's false wake at t=1 reserves its slot; p2 (a resume pushed
        earlier, popped after the fire) and a plain callback register
        before that slot is reached, so both go ahead of p1."""

        def scenario(sim, store, log):
            sim.schedule(1.0, lambda: store.write("x", 1))
            p1 = sim.spawn(waiter(sim, store, log, "p1", lambda v: v == 5), name="p1")
            p2 = sim.spawn(
                waiter(sim, store, log, "p2", lambda v: v == 5, delay=1.0), name="p2"
            )
            sim.schedule(
                1.0,
                lambda: store.signal_for("x").add_callback(
                    lambda value: log.append(("cb", sim.now, sim._seq, value))
                ),
            )
            sim.schedule(2.0, lambda: store.write("x", 5))
            return [p1, p2]

        seen = both(monkeypatch, scenario)
        assert [entry[0] for entry in seen["log"]] == ["cb", "p2", "p1"]

    def test_waiters_filtered_by_one_fire_keep_their_order(self, monkeypatch):
        def scenario(sim, store, log):
            procs = [
                sim.spawn(waiter(sim, store, log, f"p{i}", lambda v: v == 4), name=f"p{i}")
                for i in range(3)
            ]
            for t, value in ((1.0, 1), (2.0, 2), (3.0, 4)):
                sim.schedule(t, lambda value=value: store.write("x", value))
            return procs

        seen = both(monkeypatch, scenario)
        assert [entry[0] for entry in seen["log"]] == ["p0", "p1", "p2"]


class TestKilledWaiter:
    def test_killed_waiter_gets_the_plain_resume(self, monkeypatch):
        def scenario(sim, store, log):
            p = sim.spawn(waiter(sim, store, log, "p", lambda v: v == 2), name="p")
            sim.schedule(1.0, p.kill)
            sim.schedule(2.0, lambda: store.write("x", 1))
            sim.schedule(3.0, lambda: store.write("x", 2))
            return [p]

        seen = both(monkeypatch, scenario)
        assert seen["log"] == []
        assert seen["waits"] == ["killed"]

    def test_killed_between_the_fire_and_its_slot(self, monkeypatch):
        """The unfiltered resume at the slot is a no-op once the process
        is killed; the filtered wait pushes nothing for it at all, and a
        later fire does not reach it."""

        def scenario(sim, store, log):
            p = sim.spawn(waiter(sim, store, log, "p", lambda v: v == 2), name="p")

            def burst():
                store.write("x", 1)
                p.kill()
                store.write("x", 2)

            sim.schedule(1.0, burst)
            sim.schedule(2.0, lambda: store.write("x", 2))
            return [p]

        filtered = observe(monkeypatch, scenario, True)
        reference = observe(monkeypatch, scenario, False)
        assert filtered["log"] == reference["log"] == []
        assert filtered["next_seq"] == reference["next_seq"]
        assert filtered["waits"] == reference["waits"] == ["killed"]


class TestDiagnostics:
    def test_steps_and_wait_text_of_a_filtered_waiter(self, monkeypatch):
        def scenario(sim, store, log):
            p = sim.spawn(waiter(sim, store, log, "p", lambda v: v == 9), name="p")
            for t in (1.0, 2.5):
                sim.schedule(t, lambda t=t: store.write("x", t))
            return [p]

        seen = both(monkeypatch, scenario)
        # The first step, then one per false wake.
        assert seen["steps"] == [3]
        assert seen["waits"] == ["waiting on signal 'n0.x' since t=2.5"]

    @pytest.mark.parametrize("filtered", [True, False], ids=["filtered", "reference"])
    def test_stall_report_names_the_last_false_wake(self, monkeypatch, filtered):
        def scenario(sim, store, log):
            p = sim.spawn(waiter(sim, store, log, "p", lambda v: v == 9), name="p")

            def tick():
                sim.schedule(0.5, tick)

            tick()
            sim.schedule(0.25, lambda: store.write("x", 1))
            sim.schedule(1.25, lambda: store.write("x", 2))
            Watchdog(sim, interval=1.0, patience=2).arm()
            return [p]

        with pytest.raises(StallError) as caught:
            observe(monkeypatch, scenario, filtered)
        assert str(caught.value) == (
            "stall detected at t=4: no process progressed for 2 consecutive "
            "checks (1s apart); 1 process(es) blocked:\n"
            "  - p: waiting on signal 'n0.x' since t=1.25"
        )


class TestSwapWait:
    def test_swap_mode_run_is_order_exact(self, monkeypatch):
        """The optimistic runner's WAIT_SWAP path falls back to a store
        wait once background work runs out."""
        from repro.consistency.base import make_system
        from repro.consistency.checker import MutualExclusionChecker
        from repro.core.machine import DSMMachine
        from repro.core.section import Section

        def body(ctx):
            value = ctx.read("v")
            yield from ctx.compute(4e-6)
            if ctx.aborted:
                return
            ctx.write("v", value + 1)

        section = Section(lock="L", body=body, shared_reads=("v",), shared_writes=("v",))

        def run(filtered):
            with monkeypatch.context() as patch:
                if not filtered:
                    patch.setattr(LocalStore, "wait_until", unfiltered_wait_until)
                machine = DSMMachine(n_nodes=4, checker=MutualExclusionChecker())
                machine.create_group("g")
                machine.declare_variable("g", "v", 0, mutex_lock="L")
                machine.declare_lock("g", "L", protects=("v",))
                system = make_system(
                    "gwc_optimistic", machine, wait_mode=WAIT_SWAP, force="regular"
                )

                def worker(node):
                    node.add_background_work([2e-6, 2e-6])
                    for _ in range(4):
                        yield from system.run_section(node, section)

                for node in machine.nodes:
                    machine.spawn(worker(node), name=f"w{node.id}")
                digest = popped_schedule_sha256(
                    patch, machine.sim, machine.run, drop_false_wakes=not filtered
                )
            return (
                digest,
                machine.sim.now,
                machine.metrics.total_counter("swap.switches"),
                [n.store.read("v") for n in machine.nodes],
            )

        filtered, reference = run(True), run(False)
        assert filtered == reference
        assert filtered[2] > 0 and filtered[3] == [16] * 4
