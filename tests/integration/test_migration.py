"""Epoch-fenced ownership handoff between live roots.

Online re-partitioning migrates a hot unit from one live root to
another behind an epoch fence — the same stale-window rule the
optimistic protocol already obeys for failover: any window that was
in flight when the fence landed is discarded and re-run under the new
owner, never committed against stale ownership.  These are regression
tests for that rule (the probe shapes below deterministically catch a
locker mid-window at fence time), plus an InvariantMonitor-armed run
that re-partitions a contended lock mid-flight.
"""

from __future__ import annotations

from itertools import count

import pytest

from repro.consistency.base import make_system
from repro.consistency.checker import MutualExclusionChecker
from repro.consistency.oracles import InvariantMonitor
from repro.core.machine import DSMMachine
from repro.core.section import Section
from repro.errors import MemoryError_
from repro.faults.failover import RootFailoverManager
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.locks.gwc_lock import LockRetryPolicy
from repro.memory.interface import UpdateRequest
from repro.memory.repartition import arm_migration_fencing, migrate_units
from repro.memory.varspace import FREE_VALUE, request_value
from repro.sim.statehash import shared_state_hash
from repro.workloads.rootshard import (
    RootShardConfig,
    _increment_body,
    _plain_writer,
    run_rootshard,
)


def _config(roots: int, rebalance: bool, **overrides) -> RootShardConfig:
    """The probe shape: 8 nodes, rebalance at 35% progress catches the
    lockers mid-window when the fence lands (deterministic per seed)."""
    return RootShardConfig(
        n_nodes=8,
        roots=roots,
        hot_rounds=24,
        cold_units=4,
        cold_rounds=8,
        n_locks=2,
        n_lockers=6,
        increments=4,
        rebalance=rebalance,
        rebalance_frac=overrides.pop("rebalance_frac", 0.35),
        **overrides,
    )


class TestFencedHandoff:
    def test_handoff_discards_inflight_window_and_reruns(self):
        """A migration fence lands while lockers are mid-section: the
        stale window is discarded, the section re-runs under the new
        owner, and the final state still matches the serial baseline."""
        serial = run_rootshard(_config(roots=1, rebalance=False))
        sharded = run_rootshard(_config(roots=2, rebalance=True))
        assert sharded.extra["correct"]
        assert sharded.extra["shared_hash"] == serial.extra["shared_hash"]
        moves = sharded.extra["migration_moves"]
        assert moves, "rebalance never migrated a unit"
        assert all(src != dst for src, dst in moves.values())
        # The handoff happened between two LIVE roots — a lock unit
        # changed sequencers with its grant/queue state intact.
        assert sharded.extra["locks_transferred"] >= 1
        # The stale-window rule fired: at least one in-flight section
        # saw its epoch fence, rolled back, and re-ran.
        assert sharded.extra["epoch_restarts"] >= 1

    def test_optimistic_window_discarded_at_fence(self):
        """Same handoff under the optimistic system: the root also
        discards buffered old-epoch mutex writes for migrated names
        (they re-arrive at the new owner via the section re-run)."""
        serial = run_rootshard(
            _config(roots=1, rebalance=False, system="gwc_optimistic")
        )
        sharded = run_rootshard(
            _config(
                roots=2,
                rebalance=True,
                rebalance_frac=0.5,
                system="gwc_optimistic",
            )
        )
        assert sharded.extra["correct"]
        assert sharded.extra["shared_hash"] == serial.extra["shared_hash"]
        assert sharded.extra["epoch_restarts"] >= 1
        assert sharded.extra["migration_discards"] >= 1

    def test_handoff_is_deterministic(self):
        """Same seed, same fence, same moves, same state."""
        a = run_rootshard(_config(roots=2, rebalance=True))
        b = run_rootshard(_config(roots=2, rebalance=True))
        assert a.extra["shared_hash"] == b.extra["shared_hash"]
        assert a.extra["migration_moves"] == b.extra["migration_moves"]
        assert a.extra["epoch_restarts"] == b.extra["epoch_restarts"]


GROUP = "migr_group"
LOCK = "migr_lock"
COUNTER = "migr_counter"


def _locker(node, system, section, increments, think_time):
    for _ in range(increments):
        yield think_time
        yield from system.run_section(node, section)


def _migrating_controller(machine, threshold, moves, done):
    """Wait for real sequencing progress, then migrate mid-flight."""
    while sum(e.locally_sequenced for e in machine.engines_for(GROUP)) < threshold:
        yield machine.nack_timeout
    done["report"] = migrate_units(machine, GROUP, moves)


class TestMonitoredRepartition:
    def test_invariant_monitor_stays_quiet_across_handoff(self):
        """Re-partition a contended lock unit while the full oracle set
        (mutex, epoch/cursor monotonicity, RMW chain) is armed: the
        handoff must not trip a single invariant and the counter must
        land exactly on lockers x increments."""
        machine = DSMMachine(
            n_nodes=8,
            topology="mesh_torus",
            seed=0,
            reliable=True,
            checker=MutualExclusionChecker(),
        )
        unit = machine.nack_timeout
        retry = LockRetryPolicy(timeout=40.0 * unit, max_retries=64)
        system = make_system("gwc", machine, lock_retry=retry)
        machine.create_group(GROUP, roots=(0, 4))
        machine.declare_variable(GROUP, COUNTER, 0, mutex_lock=LOCK)
        machine.declare_lock(GROUP, LOCK, protects=(COUNTER,), data_bytes=8)
        for engine in machine.engines_for(GROUP):
            engine.configure_lock_recovery()
        arm_migration_fencing(machine)
        monitor = InvariantMonitor(machine, interval=5.0 * unit)
        monitor.install()

        lockers, increments = 6, 4
        section = Section(
            lock=LOCK,
            body=_increment_body,
            shared_reads=(COUNTER,),
            shared_writes=(COUNTER,),
            label="migr-inc",
        )
        for rank in range(lockers):
            node = machine.nodes[rank]
            node.locals["_rootshard_var"] = COUNTER
            node.locals["_rootshard_update_time"] = 1e-6
            machine.spawn(
                _locker(node, system, section, increments, 2e-6),
                name=f"migr-locker{rank}",
            )
        pmap = machine.family(GROUP).pmap
        source = pmap.partition_of(LOCK)
        target = 1 - source
        done: dict = {}
        total = 4 * lockers * increments
        machine.spawn(
            _migrating_controller(
                machine, total // 3, {LOCK: target}, done
            ),
            name="migr-controller",
        )

        machine.run()  # raises InvariantViolationError on any oracle trip
        monitor.armed = False
        monitor.check_now()

        assert monitor.sweeps > 0, "monitor never swept"
        report = done.get("report")
        assert report is not None, "controller never migrated"
        assert report.locks_transferred == 1
        assert report.moves[LOCK] == (source, target)
        assert pmap.partition_of(LOCK) == target
        assert pmap.partition_of(COUNTER) == target
        machine.checker.verify_chain(COUNTER, 0)
        machine.checker.verify_no_occupancy()
        for node in machine.nodes:
            assert node.store.read(COUNTER) == lockers * increments


INCREMENT = Section(
    lock=LOCK,
    body=_increment_body,
    shared_reads=(COUNTER,),
    shared_writes=(COUNTER,),
    label="migr-inc",
)


def _spawn_locker(machine, system, rank: int, increments: int) -> None:
    node = machine.nodes[rank]
    node.locals["_rootshard_var"] = COUNTER
    node.locals["_rootshard_update_time"] = 1e-6
    machine.spawn(
        _locker(node, system, INCREMENT, increments, 2e-6),
        name=f"migr-locker{rank}",
    )


def _family(roots=(0, 4), **machine_kwargs) -> DSMMachine:
    """The counter family: one lock unit protecting one counter."""
    machine = DSMMachine(
        n_nodes=8, topology="mesh_torus", seed=0, reliable=True, **machine_kwargs
    )
    machine.create_group(GROUP, roots=roots)
    machine.declare_variable(GROUP, COUNTER, 0, mutex_lock=LOCK)
    machine.declare_lock(GROUP, LOCK, protects=(COUNTER,), data_bytes=8)
    return machine


def _family_after_one_increment() -> DSMMachine:
    """The family once node 1 has run one section: both names sequenced."""
    machine = _family()
    for engine in machine.engines_for(GROUP):
        engine.configure_lock_recovery()
    _spawn_locker(machine, make_system("gwc", machine), 1, 1)
    machine.run()
    return machine


def _name_in(pmap, partition: int, prefix: str) -> str:
    """The first ``prefix<i>`` whose hash lands in ``partition``."""
    return next(
        f"{prefix}{i}"
        for i in count()
        if pmap.hash_partition(f"{prefix}{i}") == partition
    )


class TestMigrationGuards:
    def test_a_rejected_move_changes_nothing(self):
        """Every move is validated before any moves: a unit that owns
        nothing in its source aborts the call with the family exactly as
        it was, even when a valid unit of the same source sorts first."""
        machine = _family_after_one_increment()
        pmap = machine.family(GROUP).pmap
        groups = machine.family(GROUP).parts
        source = pmap.partition_of(LOCK)
        ghost = _name_in(pmap, source, "zz_ghost")  # sorts after LOCK

        def snapshot():
            return (
                dict(pmap.overrides),
                [(dict(g.variables), dict(g.locks)) for g in groups],
                [
                    (dict(e.lock_managers), e.epoch, e.sequenced, set(e.migrated))
                    for e in machine.engines_for(GROUP)
                ],
            )

        before = snapshot()
        with pytest.raises(MemoryError_, match="owns nothing"):
            migrate_units(machine, GROUP, {LOCK: 1 - source, ghost: 1 - source})
        assert snapshot() == before

    def test_a_unit_nothing_has_written_yet_moves(self):
        """The source reads each moved name's value before its
        declaration leaves, so a unit still at its initial values hands
        them across instead of failing the lookup."""
        machine = _family()
        pmap = machine.family(GROUP).pmap
        source = pmap.partition_of(LOCK)
        migrate_units(machine, GROUP, {LOCK: 1 - source})
        target = machine.engines_for(GROUP)[1 - source]
        assert target.authoritative_read(COUNTER) == 0
        assert target.authoritative_read(LOCK) == FREE_VALUE
        assert pmap.partition_of(COUNTER) == 1 - source

    def test_a_unit_moves_back_to_its_old_owner(self):
        """A unit that returns to a root it once left is owned there
        again: the next critical section on it completes."""
        machine = _family_after_one_increment()
        source = machine.family(GROUP).pmap.partition_of(LOCK)
        migrate_units(machine, GROUP, {LOCK: 1 - source})
        migrate_units(machine, GROUP, {LOCK: source})
        _spawn_locker(machine, make_system("gwc", machine), 2, 1)
        machine.run()  # a returned name still marked migrated deadlocks
        assert machine.engines_for(GROUP)[source].authoritative_read(COUNTER) == 2

    def test_old_owner_never_sequences_a_moved_name(self):
        """A current-epoch write for a name that migrated away (issued
        across a crash and a restart that fast-forwarded the epoch) is
        discarded at the old owner, never sequenced there."""
        machine = _family_after_one_increment()
        source = machine.family(GROUP).pmap.partition_of(LOCK)
        migrate_units(machine, GROUP, {LOCK: 1 - source})
        old = machine.engines_for(GROUP)[source]
        sequenced, discards = old.sequenced, old.migration_discards
        old.on_update(
            UpdateRequest(
                group=old.group.name, var=COUNTER, value=1, origin=1,
                epoch=old.epoch,
            )
        )
        old.on_update(
            UpdateRequest(
                group=old.group.name, var=LOCK, value=request_value(1),
                origin=1, epoch=old.epoch,
            )
        )
        assert old.sequenced == sequenced
        assert old.migration_discards == discards + 2


PLAIN_ROUNDS = 12


def _migrate_then_crash(machine, injector, moves, threshold, source_root, out):
    """Migrate mid-flight, then crash the fenced source root and bring
    it back as a member once its successor has taken over."""
    unit = machine.nack_timeout

    def epochs():
        return tuple(e.epoch for e in machine.engines_for(GROUP))

    while sum(e.locally_sequenced for e in machine.engines_for(GROUP)) < threshold:
        yield unit
    out["epochs"] = [epochs()]
    out["report"] = migrate_units(machine, GROUP, moves)
    out["epochs"].append(epochs())
    yield 5.0 * unit
    injector.crash_node(source_root)
    while machine.failover_manager.takeovers == 0:
        yield unit
    out["epochs"].append(epochs())
    yield 20.0 * unit
    injector.restart_node(source_root)


def _counter_run(roots, plain: str, handoffs: bool):
    """Six lockers on the counter and one plain writer; with ``handoffs``
    the lock unit migrates and then the source root it fenced crashes."""
    machine = _family(roots=roots, checker=MutualExclusionChecker())
    unit = machine.nack_timeout
    retry = LockRetryPolicy(timeout=40.0 * unit, max_retries=64)
    system = make_system("gwc", machine, lock_retry=retry)
    machine.declare_variable(GROUP, plain, 0)
    for engine in machine.engines_for(GROUP):
        engine.configure_lock_recovery()
    monitor = None
    out: dict = {}
    if handoffs:
        injector = FaultInjector(machine, FaultPlan([], seed=0))
        injector.install()
        RootFailoverManager(machine, injector).install()
        arm_migration_fencing(machine)
        monitor = InvariantMonitor(machine, interval=5.0 * unit, injector=injector)
        monitor.install()
        source = machine.family(GROUP).pmap.partition_of(LOCK)
        out["source"] = source
        machine.spawn(
            _migrate_then_crash(
                machine, injector, {LOCK: 1 - source}, 40, roots[source], out
            ),
            name="handoff-controller",
        )
    lockers = [n for n in range(8) if n not in roots][:6]
    for rank in lockers:
        _spawn_locker(machine, system, rank, 4)
    machine.spawn(
        _plain_writer(
            machine.nodes[lockers[-1]], system, plain, PLAIN_ROUNDS, 8e-6,
            unit / 4.0,
        ),
        name="handoff-plain",
    )
    machine.run()
    if monitor is not None:
        monitor.armed = False
        monitor.check_now()
    return machine, out, len(lockers) * 4


class TestMigrationThenFailover:
    def test_both_handoffs_in_one_run(self):
        """One run through both callers of the handoff: a lock unit
        migrates off its root, then that fenced source root crashes and
        fails over.  Epochs only rise, the monitor stays quiet, and the
        family ends where a single-root run does."""
        probe = _family()
        pmap = probe.family(GROUP).pmap
        # A plain variable that stays on the source, so the failover
        # has a live name to rebuild and refresh.
        plain = _name_in(pmap, pmap.partition_of(LOCK), "plain")

        machine, out, tally = _counter_run((0, 4), plain, handoffs=True)
        serial, _, serial_tally = _counter_run((0,), plain, handoffs=False)

        source = out["source"]
        assert out["report"].moves[LOCK] == (source, 1 - source)
        assert machine.failover_manager.takeovers == 1
        before, migrated, failed_over = out["epochs"]
        assert before[source] == 0
        assert migrated[source] == 1  # the migration fence
        assert failed_over[source] == 2  # the takeover, one epoch on
        assert before[1 - source] == migrated[1 - source] == 0
        assert failed_over[1 - source] == 0
        final = tuple(e.epoch for e in machine.engines_for(GROUP))
        assert final == failed_over
        assert tally == serial_tally
        for node in machine.nodes:
            assert node.store.read(COUNTER) == tally
            assert node.store.read(plain) == PLAIN_ROUNDS
        machine.checker.verify_chain(COUNTER, 0)
        assert shared_state_hash(machine) == shared_state_hash(serial)
