"""Online safety oracles for chaos and campaign runs.

The post-run checks in :mod:`repro.faults.chaos` only see the final
state; a campaign wants to catch a safety violation *at the instant it
happens*, with enough context to explain it.  :class:`InvariantMonitor`
is that layer: it wraps the run's :class:`MutualExclusionChecker` and
adds a periodic in-simulation sweep that samples protocol state the
checker cannot see.  Armed oracles:

``mutual_exclusion``
    Two live nodes inside a section guarded by the same lock (the
    wrapped checker's entry check, re-raised with evidence).
``section_pairing``
    A section exit without a matching enter (wrapped checker).
``epoch_monotonic``
    A node's adopted sequencer epoch, or the current root engine's
    epoch, moved backwards.  Epochs are fencing tokens; a regression
    would let a deposed sequencer's writes back in.
``sequencer_gap``
    A node's apply cursor moved backwards, or its reorder buffer holds
    a packet *below* the cursor (an already-applied sequence number
    buffered for re-apply — a duplicate about to corrupt the stream).
``single_writer``
    Single-writer token integrity, checked two ways.  The sweep compares
    occupancy with the root's authoritative lock state: a live node
    inside the critical section while the root believes another node
    (or nobody) holds the lock means the token was reclaimed or
    re-granted under a live holder.  At every RMW commit, the update's
    read must equal the previous committed write: two writers that
    derived updates from the same base value held the token
    concurrently, even if their sections never visibly overlapped
    (the epoch-fenced runner records enter/exit atomically at commit,
    so this is the *only* live signal of a stolen token there).  A
    break matching the crash-lost-write signature — the new read equals
    the previous entry's own read, and a crash has fired — is excused,
    mirroring the post-run crash-tolerant chain check.

Every observation lands in a bounded evidence ring; on violation the
monitor raises :class:`~repro.errors.InvariantViolationError` carrying
the oracle name and the trail, so a minimized repro bundle can replay
not just *that* the run failed but *how*.

Like the :class:`~repro.sim.watchdog.Watchdog`, the sweep disarms
itself once every process has finished, so a healthy run is never kept
alive by its checks.  The sweep is read-only: it never mutates protocol
state or draws randomness, so arming the monitor cannot change a run's
protocol-visible behaviour.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    ConsistencyError,
    InvariantViolationError,
    SimulationError,
)
from repro.memory.varspace import grant_value

if TYPE_CHECKING:
    from repro.core.machine import DSMMachine
    from repro.faults.injector import FaultInjector

#: Observations kept in the evidence ring (oldest dropped first).
DEFAULT_EVIDENCE = 48

#: The oracle names InvariantMonitor can raise under.
ORACLES = (
    "mutual_exclusion",
    "section_pairing",
    "epoch_monotonic",
    "sequencer_gap",
    "single_writer",
)


class InvariantMonitor:
    """Continuous invariant checking for one chaos run.

    Args:
        machine: The machine under test (its ``checker`` must be set for
            the mutual-exclusion oracle to arm).
        interval: Simulated seconds between sweeps.
        injector: Optional fault injector; when given, crashed nodes are
            skipped (their frozen state legitimately lags) and their
            monotonicity baselines reset so a restart re-learns them.
    """

    def __init__(
        self,
        machine: "DSMMachine",
        interval: float,
        injector: "FaultInjector | None" = None,
        max_evidence: int = DEFAULT_EVIDENCE,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"monitor interval must be > 0: {interval}")
        self.machine = machine
        self.interval = interval
        self.injector = injector
        self.evidence: deque[str] = deque(maxlen=max_evidence)
        #: Diagnostics.
        self.sweeps = 0
        self.armed = False
        self.installed = False
        #: Monotonicity baselines, reset for a node while it is down.
        self._node_epochs: dict[tuple[int, str], int] = {}
        self._node_cursors: dict[tuple[int, str], int] = {}
        self._root_epochs: dict[str, int] = {}
        #: Last committed (read, written) per RMW counter, plus how many
        #: chain breaks were excused as crash-lost writes.
        self._chain_tail: dict[str, tuple[Any, Any]] = {}
        self._chain_excused = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap the checker and schedule the first sweep (idempotent)."""
        if self.installed:
            return
        self.installed = True
        checker = self.machine.checker
        if checker is not None:
            self._wrap_checker(checker)
        self.armed = True
        self.machine.sim.schedule(self.interval, self._sweep)

    def _wrap_checker(self, checker: Any) -> None:
        orig_enter = checker.enter
        orig_exit = checker.exit
        orig_crashed = checker.node_crashed

        def enter(lock: str, node: int, time: float) -> None:
            self._note(f"t={time:.9g} node {node} entered {lock!r}")
            try:
                orig_enter(lock, node, time)
            except ConsistencyError as exc:
                self._violate("mutual_exclusion", str(exc))

        def exit(lock: str, node: int, time: float) -> None:
            self._note(f"t={time:.9g} node {node} exited {lock!r}")
            try:
                orig_exit(lock, node, time)
            except ConsistencyError as exc:
                self._violate("section_pairing", str(exc))

        def node_crashed(node: int, time: float) -> list[str]:
            released = orig_crashed(node, time)
            self._note(
                f"t={time:.9g} node {node} crashed"
                + (f", force-exited {released}" if released else "")
            )
            return released

        orig_rmw = checker.observe_rmw

        def observe_rmw(counter: str, read_value: Any, written_value: Any) -> None:
            self._check_rmw(counter, read_value, written_value)
            orig_rmw(counter, read_value, written_value)

        checker.enter = enter
        checker.exit = exit
        checker.node_crashed = node_crashed
        checker.observe_rmw = observe_rmw

    # ------------------------------------------------------------------
    # Evidence and violation plumbing
    # ------------------------------------------------------------------

    def _note(self, line: str) -> None:
        self.evidence.append(line)

    def _violate(self, oracle: str, detail: str) -> None:
        self._note(f"VIOLATION[{oracle}]: {detail}")
        raise InvariantViolationError(
            f"invariant {oracle!r} violated at t={self.machine.sim.now:.9g}: "
            f"{detail}",
            oracle=oracle,
            evidence=tuple(self.evidence),
        )

    def _down(self, node: int) -> bool:
        return self.injector is not None and self.injector.is_crashed(node)

    def _check_rmw(self, counter: str, read_value: Any, written_value: Any) -> None:
        """Online RMW-chain continuity (single-writer token integrity).

        Each committed update must read exactly the previous committed
        write.  A break means two token holders derived updates from the
        same base value — concurrent writers — unless it carries the
        crash-lost-write signature (new read equals the previous entry's
        own read) with an unconsumed fired crash to blame.
        """
        now = self.machine.sim.now
        self._note(
            f"t={now:.9g} rmw {counter!r}: read {read_value!r} "
            f"wrote {written_value!r}"
        )
        last = self._chain_tail.get(counter)
        if last is not None and read_value != last[1]:
            crashes = self.injector.crashes if self.injector is not None else 0
            if self._chain_excused < crashes and read_value == last[0]:
                self._chain_excused += 1
                self._note(
                    f"t={now:.9g} excused chain break on {counter!r} "
                    f"(crash-lost write {last[1]!r})"
                )
            else:
                self._violate(
                    "single_writer",
                    f"rmw on {counter!r} read {read_value!r} but the "
                    f"previous committed write was {last[1]!r}: two "
                    "writers held the token concurrently (lost update)",
                )
        self._chain_tail[counter] = (read_value, written_value)

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------

    def _sweep(self) -> None:
        if not self.armed:
            return
        sim = self.machine.sim
        if not sim.blocked_processes():
            # Workload complete: stop sweeping so the queue can drain.
            self.armed = False
            return
        self.sweeps += 1
        self.check_now()
        sim.schedule(self.interval, self._sweep)

    def check_now(self) -> None:
        """Run every sampled oracle once (also usable post-run)."""
        self._check_sequencing()
        self._check_root_epochs()
        self._check_single_writer()

    def _check_sequencing(self) -> None:
        """Per-node apply-cursor / epoch monotonicity and gap absence."""
        for node in self.machine.nodes:
            if self._down(node.id):
                # Frozen pre-crash state; forget baselines so the
                # restart's adopted cursor/epoch start a fresh chain.
                for group in list(node.iface._next_seq):
                    self._node_cursors.pop((node.id, group), None)
                    self._node_epochs.pop((node.id, group), None)
                continue
            iface = node.iface
            for group, cursor in iface._next_seq.items():
                key = (node.id, group)
                last = self._node_cursors.get(key)
                if last is not None and cursor < last:
                    self._violate(
                        "sequencer_gap",
                        f"node {node.id} apply cursor for {group!r} moved "
                        f"backwards: {last} -> {cursor}",
                    )
                self._node_cursors[key] = cursor
                stale = [
                    seq for seq in iface._reorder.get(group, ()) if seq < cursor
                ]
                if stale:
                    self._violate(
                        "sequencer_gap",
                        f"node {node.id} reorder buffer for {group!r} holds "
                        f"already-applied seq(s) {sorted(stale)} below "
                        f"cursor {cursor}",
                    )
                epoch = iface._epoch[group]
                last_epoch = self._node_epochs.get(key)
                if last_epoch is not None and epoch < last_epoch:
                    self._violate(
                        "epoch_monotonic",
                        f"node {node.id} epoch for {group!r} moved "
                        f"backwards: {last_epoch} -> {epoch}",
                    )
                self._node_epochs[key] = epoch

    def _check_root_epochs(self) -> None:
        """The current root engine's epoch never decreases per group."""
        for name in self.machine.groups:
            try:
                engine = self.machine.root_engine(name)
            except KeyError:
                continue  # mid-failover: no engine installed yet
            last = self._root_epochs.get(name)
            if last is not None and engine.epoch < last:
                self._violate(
                    "epoch_monotonic",
                    f"root engine epoch for {name!r} moved backwards: "
                    f"{last} -> {engine.epoch}",
                )
            self._root_epochs[name] = engine.epoch

    def _check_single_writer(self) -> None:
        """Root's lock token vs actual occupancy.

        If a live node is inside a critical section, the authoritative
        lock manager at the group's current root must still name it as
        the holder.  Anything else means the token was reclaimed or
        re-granted under a live holder — the exact failure a broken
        lease configuration produces, caught here *before* a second
        entry turns it into a mutual-exclusion violation.
        """
        checker = self.machine.checker
        if checker is None:
            return
        for lock, (node, since) in list(checker._inside.items()):
            if self._down(node):
                continue  # the injector's force-exit callback is pending
            try:
                group = self.machine.group_of_lock(lock)
            except Exception:
                continue  # lock not group-managed (non-GWC protocols)
            try:
                engine = self.machine.root_engine(group.name)
            except KeyError:
                continue
            manager = engine.lock_managers.get(lock)
            if manager is None:
                continue
            if manager.holder != node:
                self._violate(
                    "single_writer",
                    f"node {node} has been inside {lock!r} since "
                    f"t={since:.9g} but the root's holder is "
                    f"{manager.holder} (token reclaimed/re-granted under "
                    f"a live holder; grant value would be "
                    f"{grant_value(node)})",
                )


__all__ = [
    "DEFAULT_EVIDENCE",
    "ORACLES",
    "InvariantMonitor",
]
