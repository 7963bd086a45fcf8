"""Online re-partitioning: move hot units between live roots.

Root sharding assigns every sequencing unit (a lock plus its mutex
group, or a standalone variable) to one partition of a sharded-root
family via the :class:`RootPartitionMap` hash; a hot unit saturates its
root while siblings idle.  :func:`migrate_units` moves units through the
one ownership handoff (:meth:`GroupRootEngine.hand_off
<repro.consistency.gwc.GroupRootEngine.hand_off>`, DESIGN.md §6b) and
owns only what a *live* source adds: the partition-map override, the
declarations moving subgroup, the exact lock state handed across
(:meth:`GwcLockManager.export_state` / ``adopt_state``), the names
recorded as ``migrated`` at the source, an immediate heartbeat for the
source's fence, and the members' cleared group caches.

Plain writes in flight at fence time are delivered at most once, as
under failover; workloads that need one to survive re-share it (see
``repro.workloads.rootshard``).  A request eaten by the fence is
re-issued by the client's :class:`~repro.locks.gwc_lock.LockRetryPolicy`
and a release by ``GwcSystem._confirm_release``, so lock managers need
recovery mode for duplicate/cancel tolerance.  Requires reliability
(``machine.nack_timeout``), and :func:`arm_migration_fencing` must run
before any critical section that may span a migration starts.

:func:`plan_rebalance` is the LPT (longest-processing-time) greedy
planner over observed per-unit load; :func:`rebalance_family` glues
observation, planning, and migration together.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import MemoryError_

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import DSMMachine


@dataclass(slots=True)
class MigrationReport:
    """What one :func:`migrate_units` call actually did."""

    family: str
    #: unit -> (source partition, target partition), applied moves only.
    moves: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: Lock managers handed across live.
    locks_transferred: int = 0
    #: Source partitions that bumped their epoch.
    fenced_partitions: tuple[int, ...] = ()


def arm_migration_fencing(machine: "DSMMachine") -> None:
    """Arm the epoch-fenced critical-section paths for migration.

    Must be called before workload sections start: the fenced lock-held
    and optimistic paths are chosen at section entry, so a section
    already running unfenced when the first migration fires would miss
    the epoch change.  Idempotent; a no-op when failover is installed
    (fencing is already armed).
    """
    if machine.nack_timeout is None:
        raise MemoryError_(
            "online re-partitioning needs reliability (reliable=True or a "
            "loss model): the epoch fence depends on heartbeat/NACK recovery"
        )
    machine._migration_fencing = True


def migrate_units(
    machine: "DSMMachine",
    family: str,
    moves: "dict[str, int]",
) -> MigrationReport:
    """Migrate sequencing units between live roots of one family.

    ``moves`` maps unit name -> target partition.  Moves are batched by
    *source* partition so each source pays one epoch bump and one
    full-state refresh regardless of how many of its units leave.  The
    whole handoff happens within the calling sim event: after it
    returns, every member routes new writes for the moved names to
    their new owning root.
    """
    arm_migration_fencing(machine)
    pmap = machine.partition_map(family)
    groups = machine.family_groups(family)
    report = MigrationReport(family=family)

    # Resolve and validate every move before changing anything, batched
    # by source partition.
    by_source: dict[int, list[tuple[str, int, list[str]]]] = {}
    for unit, target in sorted(moves.items()):
        if not 0 <= target < pmap.n_partitions:
            raise MemoryError_(
                f"family {family!r}: target partition {target} out of range "
                f"[0, {pmap.n_partitions})"
            )
        source = pmap.partition_of_unit(unit)
        if source == target:
            continue
        src_group = groups[source]
        names = sorted(
            name
            for name in (*src_group.variables, *src_group.locks)
            if pmap.unit_of(name) == unit
        )
        if not names:
            raise MemoryError_(
                f"family {family!r}: unit {unit!r} owns nothing in "
                f"partition {source}"
            )
        by_source.setdefault(source, []).append((unit, target, names))
    if not by_source:
        return report

    moved: list[str] = []
    fenced: list[int] = []
    for source in sorted(by_source):
        src_group = groups[source]
        src_engine = machine.root_engine(src_group.name)
        moved_here: list[str] = []

        for unit, target, names in by_source[source]:
            tgt_group = groups[target]
            tgt_engine = machine.root_engine(tgt_group.name)
            pmap.set_override(unit, target)
            report.moves[unit] = (source, target)

            image = {}
            for name in names:
                image[name] = src_engine.authoritative_read(name)
                if name in src_group.locks:
                    decl = src_group.locks.pop(name)
                    new_decl = dataclasses.replace(decl, group=tgt_group.name)
                    tgt_group.locks[name] = new_decl
                    state = src_engine.lock_managers.pop(name).export_state()
                    manager = tgt_engine.add_lock(new_decl)
                    manager.adopt_state(state)
                    report.locks_transferred += 1
                else:
                    decl = src_group.variables.pop(name)
                    tgt_group.variables[name] = dataclasses.replace(
                        decl, group=tgt_group.name
                    )
            # Target refresh: the moved names join the target's stream
            # under its own (unchanged) epoch, owned again if they once
            # migrated away from it.
            if tgt_engine.migrated:
                tgt_engine.migrated.difference_update(names)
            tgt_engine.hand_off(
                tgt_engine.epoch, tgt_engine.epoch_start_seq, image,
                src_group.root,
            )
            moved_here += names

        # Source fence: a new epoch from the current position, so a
        # member whose cursor jumps to it loses nothing that the source
        # still owns; announced at once, so a member that misses every
        # refresh packet still adopts it and NACKs its way back in.
        src_engine.migrated.update(moved_here)
        src_engine.hand_off(
            src_engine.epoch + 1, src_engine.sequenced,
            {
                name: src_engine.authoritative_read(name)
                for name in sorted((*src_group.variables, *src_group.locks))
            },
            src_group.root,
        )
        src_engine.emit_heartbeat()
        fenced.append(source)
        moved += moved_here

    # Every member re-routes new writes for the moved names at once
    # (declarations are shared by reference; only the caches lag).
    moved_tuple = tuple(moved)
    for member in groups[0].members:
        machine.nodes[member].iface.forget_group_of(moved_tuple)
    report.fenced_partitions = tuple(fenced)
    return report


def plan_rebalance(
    unit_loads: "dict[str, int]",
    n_partitions: int,
    pinned: "dict[str, int] | None" = None,
) -> dict[str, int]:
    """LPT greedy assignment of units to partitions by observed load.

    Sorts units by (load desc, name) and assigns each to the currently
    least-loaded partition (ties to the lowest partition id), which
    guarantees max-partition load <= (4/3 - 1/(3K)) x optimal — far
    inside the <= 2x-of-mean acceptance bar whenever any balance is
    achievable.  ``pinned`` entries are placed first at their fixed
    partition.  Deterministic: same loads -> same plan.
    """
    if n_partitions < 1:
        raise MemoryError_(f"need >= 1 partition, got {n_partitions}")
    totals = [0] * n_partitions
    plan: dict[str, int] = {}
    if pinned:
        for unit, partition in sorted(pinned.items()):
            totals[partition] += unit_loads.get(unit, 0)
            plan[unit] = partition
    heap = [(total, partition) for partition, total in enumerate(totals)]
    heapq.heapify(heap)
    for unit, load in sorted(
        ((u, l) for u, l in unit_loads.items() if u not in plan),
        key=lambda item: (-item[1], item[0]),
    ):
        total, partition = heapq.heappop(heap)
        plan[unit] = partition
        heapq.heappush(heap, (total + load, partition))
    return plan


def family_unit_loads(machine: "DSMMachine", family: str) -> dict[str, int]:
    """Aggregate locally-sequenced load per unit across a family's roots."""
    loads: dict[str, int] = {}
    pmap = machine.partition_map(family)
    for engine in machine.engines_for(family):
        for unit, count in engine.load_by_unit.items():
            # Engine load keys are already unit names (lock writes and
            # mutex data both charge the lock); normalize anyway in
            # case a unit was registered after traffic started.
            unit = pmap.unit_of(unit)
            loads[unit] = loads.get(unit, 0) + count
    return loads


def rebalance_family(
    machine: "DSMMachine",
    family: str,
    min_gain: float = 0.0,
) -> MigrationReport:
    """Observe load, plan with LPT, and migrate what should move.

    ``min_gain`` skips the migration when the planned max-partition
    load is not at least that fraction below the current max (0.0 =
    always apply a differing plan).
    """
    pmap = machine.partition_map(family)
    loads = family_unit_loads(machine, family)
    if not loads:
        return MigrationReport(family=family)
    plan = plan_rebalance(loads, pmap.n_partitions)
    current_totals = [0] * pmap.n_partitions
    planned_totals = [0] * pmap.n_partitions
    for unit, load in loads.items():
        current_totals[pmap.partition_of_unit(unit)] += load
        planned_totals[plan[unit]] += load
    if max(planned_totals) >= max(current_totals) * (1.0 - min_gain):
        return MigrationReport(family=family)
    moves = {
        unit: partition
        for unit, partition in plan.items()
        if partition != pmap.partition_of_unit(unit)
    }
    return migrate_units(machine, family, moves)
