"""Integration tests for the optimistic mutual-exclusion protocol.

Each test pins one path through Figures 4 and 5: speculative success
with full overlap, conflict-and-rollback, the regular path under
recorded usage, the unsaved-conflict path, flicker handling, and the
nesting error.
"""

from __future__ import annotations

import pytest

from repro.consistency.base import make_system
from repro.consistency.checker import MutualExclusionChecker
from repro.core.machine import DSMMachine
from repro.core.section import Section
from repro.errors import LockNestingError


def build(n=4, threshold=None, force=None, topology="mesh_torus", **kwargs):
    machine = DSMMachine(
        n_nodes=n, topology=topology, checker=MutualExclusionChecker(), **kwargs
    )
    machine.create_group("g", root=0)
    machine.declare_variable("g", "v", 0, mutex_lock="L")
    machine.declare_lock("g", "L", protects=("v",))
    sys_kwargs = {}
    if threshold is not None:
        sys_kwargs["threshold"] = threshold
    if force is not None:
        sys_kwargs["force"] = force
    system = make_system("gwc_optimistic", machine, **sys_kwargs)
    return machine, system


def increment_section(compute=1e-6):
    def body(ctx):
        value = ctx.read("v")
        yield from ctx.compute(compute)
        if ctx.aborted:
            return
        ctx.write("v", value + 1)
        ctx.observe_rmw("v", value, value + 1)

    return Section(
        lock="L", body=body, shared_reads=("v",), shared_writes=("v",)
    )


class TestSpeculativeSuccess:
    def test_uncontended_section_succeeds_optimistically(self):
        machine, system = build()
        section = increment_section()
        outcomes = []

        def worker(node):
            outcome = yield from system.run_section(node, section)
            outcomes.append(outcome)

        machine.spawn(worker(machine.nodes[2]), name="w")
        machine.run()
        assert outcomes[0].optimistic
        assert not outcomes[0].rolled_back
        assert machine.metrics.total_counter("opt.successes") == 1
        assert machine.metrics.total_counter("opt.rollbacks") == 0
        assert all(n.store.read("v") == 1 for n in machine.nodes)

    def test_overlap_hides_the_lock_round_trip(self):
        """If the section compute exceeds the request round trip, total
        time is compute-bound: the grant delay is fully hidden."""
        compute = 20e-6
        machine, system = build(n=9)
        section = increment_section(compute=compute)
        finish_time = []

        def worker(node):
            yield from system.run_section(node, section)
            finish_time.append(node.sim.now)

        # Node 4 is several hops from the root on the 3x3 torus.
        machine.spawn(worker(machine.nodes[4]), name="w")
        machine.run()
        # Allow only the save/restore bookkeeping on top of the compute.
        assert finish_time[0] == pytest.approx(compute, rel=0.02)

    def test_regular_lock_pays_the_round_trip(self):
        compute = 20e-6
        machine_opt, system_opt = build(n=9)
        machine_reg, system_reg = build(n=9, force="regular")
        times = {}

        for label, (machine, system) in (
            ("opt", (machine_opt, system_opt)),
            ("reg", (machine_reg, system_reg)),
        ):
            section = increment_section(compute=compute)

            def worker(node, label=label, system=system):
                yield from system.run_section(node, section)
                times[label] = node.sim.now

            machine.spawn(worker(machine.nodes[4]), name="w")
            machine.run()
        round_trip = 2 * machine_reg.network.delay(4, 0, 16)
        assert times["reg"] - times["opt"] == pytest.approx(round_trip, rel=0.2)


class TestConflictAndRollback:
    def test_contending_nodes_roll_back_and_stay_correct(self):
        machine, system = build(n=4)
        section = increment_section(compute=2e-6)

        def worker(node):
            for _ in range(4):
                yield from system.run_section(node, section)

        for node in machine.nodes:
            machine.spawn(worker(node), name=f"w{node.id}")
        machine.run()
        machine.checker.verify_chain("v", 0)
        assert machine.metrics.total_counter("opt.rollbacks") > 0
        assert all(n.store.read("v") == 16 for n in machine.nodes)

    def test_rollback_restores_saved_values(self):
        """A rolled-back section's speculative write must not survive
        locally once the conflicting holder's value arrives."""
        machine, system = build(n=4)
        observed = []

        def body_slow(ctx):
            value = ctx.read("v")
            yield from ctx.compute(8e-6)
            if ctx.aborted:
                return
            observed.append(("slow-write", value + 100))
            ctx.write("v", value + 100)

        def body_fast(ctx):
            value = ctx.read("v")
            yield from ctx.compute(0.2e-6)
            if ctx.aborted:
                return
            ctx.write("v", value + 1)

        slow = Section(lock="L", body=body_slow, shared_reads=("v",), shared_writes=("v",))
        fast = Section(lock="L", body=body_fast, shared_reads=("v",), shared_writes=("v",))

        def slow_worker(node):
            yield 0.0
            yield from system.run_section(node, slow)

        def fast_worker(node):
            yield from system.run_section(node, fast)

        # The fast worker is adjacent to the root and wins the race; the
        # slow worker (far away) speculates, conflicts, and rolls back.
        machine.spawn(fast_worker(machine.nodes[1]), name="fast")
        machine.spawn(slow_worker(machine.nodes[3]), name="slow")
        machine.run()
        assert all(n.store.read("v") == 101 for n in machine.nodes)

    def test_rollback_restores_shared_and_local_values_for_the_rerun(self):
        """Figure 4 lines (22)-(24).  The holder that wins the race
        writes nothing, so no sequenced apply ever repairs the
        speculator's copy: only the restore can hand the re-executed
        body the pre-section values of ``v`` and of its local."""
        machine, system = build(n=4)
        speculator = machine.nodes[3]
        speculator.locals["_c"] = 1
        seen = []

        def body_speculating(ctx):
            seen.append((ctx.read("v"), ctx.local("_c")))
            ctx.write("v", 100)
            ctx.set_local("_c", 5)
            # The conflicting grant lands during this compute, after
            # both speculative writes.
            yield from ctx.compute(8e-6)

        def body_holder(ctx):
            yield from ctx.compute(0.2e-6)

        speculating = Section(
            lock="L",
            body=body_speculating,
            shared_reads=("v",),
            shared_writes=("v",),
            local_vars=("_c",),
        )
        holding = Section(lock="L", body=body_holder)

        def speculating_worker(node):
            yield 0.0
            outcome = yield from system.run_section(node, speculating)
            assert outcome.rolled_back

        def holding_worker(node):
            yield from system.run_section(node, holding)

        # Node 1 is adjacent to the root and wins; node 3 is two hops
        # away, speculates, conflicts and re-runs under the lock.
        machine.spawn(holding_worker(machine.nodes[1]), name="holder")
        machine.spawn(speculating_worker(speculator), name="speculator")
        machine.run()
        assert machine.metrics.total_counter("opt.rollbacks") == 1
        assert machine.root_engine("g").discarded == 1
        assert seen == [(0, 1), (0, 1)]
        assert speculator.locals["_c"] == 5
        assert all(n.store.read("v") == 100 for n in machine.nodes)

    def test_wasted_time_recorded_for_rollbacks(self):
        machine, system = build(n=4)
        section = increment_section(compute=4e-6)

        def worker(node):
            yield from system.run_section(node, section)

        for node in machine.nodes[1:]:
            machine.spawn(worker(node), name=f"w{node.id}")
        machine.run()
        if machine.metrics.total_counter("opt.rollbacks"):
            assert machine.metrics.total_wasted() > 0


class TestRegularPath:
    def test_history_pushes_hot_lock_to_regular_path(self):
        machine, system = build(n=4, threshold=0.05)
        section = increment_section(compute=2e-6)

        def worker(node):
            for _ in range(8):
                yield from system.run_section(node, section)

        for node in machine.nodes:
            machine.spawn(worker(node), name=f"w{node.id}")
        machine.run()
        assert machine.metrics.total_counter("opt.regular_path") > 0
        assert all(n.store.read("v") == 32 for n in machine.nodes)

    def test_force_regular_never_speculates(self):
        machine, system = build(n=4, force="regular")
        section = increment_section()

        def worker(node):
            yield from system.run_section(node, section)

        for node in machine.nodes:
            machine.spawn(worker(node), name=f"w{node.id}")
        machine.run()
        assert machine.metrics.total_counter("opt.attempts") == 0
        assert machine.root_engine("g").discarded == 0
        assert all(n.store.read("v") == 4 for n in machine.nodes)

    def test_force_optimistic_always_speculates(self):
        machine, system = build(n=4, force="optimistic")
        section = increment_section(compute=2e-6)

        def worker(node):
            for _ in range(4):
                yield from system.run_section(node, section)

        for node in machine.nodes:
            machine.spawn(worker(node), name=f"w{node.id}")
        machine.run()
        total = machine.metrics.total_counter
        # Every request either speculated or found the lock visibly held.
        assert total("opt.attempts") + total("opt.regular_path") == 16
        assert total("opt.attempts") > 0
        assert all(n.store.read("v") == 16 for n in machine.nodes)


class TestEdgeCases:
    def test_nested_acquisition_rejected(self):
        machine, system = build()
        inner = increment_section()

        def nesting_body(ctx):
            yield from ctx.compute(0.1e-6)
            # Illegal: re-enter the same lock from inside the section.
            yield from system.run_section(ctx.node, inner)

        outer = Section(lock="L", body=nesting_body)

        def worker(node):
            yield from system.run_section(node, outer)

        machine.spawn(worker(machine.nodes[1]), name="w")
        with pytest.raises(LockNestingError):
            machine.run()

    def test_own_release_flicker_continues_speculation(self):
        """Back-to-back sections by one node: the echo of its own
        release (FREE) arrives mid-speculation and must not abort it."""
        machine, system = build(n=6, topology="ring")
        section = increment_section(compute=3e-6)

        def worker(node):
            for _ in range(3):
                yield from system.run_section(node, section)

        machine.spawn(worker(machine.nodes[3]), name="w")
        machine.run()
        assert machine.metrics.total_counter("opt.flickers") > 0
        assert machine.metrics.total_counter("opt.rollbacks") == 0
        assert machine.metrics.total_counter("opt.successes") == 3
        assert all(n.store.read("v") == 3 for n in machine.nodes)

    def test_standalone_acquire_release_still_works(self):
        """The optimistic system's plain acquire/release (no section) is
        the regular blocking protocol."""
        machine, system = build()
        log = []

        def worker(node):
            yield from system.acquire(node, "L")
            log.append("held")
            yield from system.release(node, "L")

        machine.spawn(worker(machine.nodes[2]), name="w")
        machine.run()
        assert log == ["held"]
