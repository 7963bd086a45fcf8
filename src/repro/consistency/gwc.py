"""Group write consistency with eagersharing (the Sesame model).

Root side — :class:`GroupRootEngine`: every shared write in a group
flows to the group root, which (1) runs the lock manager for writes to
lock variables, (2) **discards** updates to mutex-protected data from
nodes that do not currently hold the protecting lock (the guarantee
optimistic execution relies on), and (3) stamps everything else with the
group-global sequence number and multicasts it down the spanning tree.

Node side — :class:`GwcSystem`: reads are local (eagersharing already
delivered remote changes), writes are non-blocking ("the Sesame
interface copies local data changes without slowing calculations"),
waiting for a value change is a sleep on the local store's change
signal, and locks are the Section 2 queue-based GWC locks.

:class:`OptimisticGwcSystem` is the same substrate with critical
sections executed by the Section 4 optimistic protocol.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator

from repro.consistency.base import DsmSystem, register_system
from repro.core.node import NodeHandle
from repro.core.section import Section, SectionOutcome
from repro.errors import MemoryError_
from repro.locks.gwc_lock import GwcLockClient, GwcLockManager, LockRetryPolicy
from repro.memory.interface import ApplyPacket, BurstUpdateRequest, UpdateRequest
from repro.memory.sharing_group import SharingGroup
from repro.memory.varspace import LockDecl
from repro.net.message import Message
from repro.sim.kernel import Simulator


class GroupRootEngine:
    """Sequencing arbiter + lock manager host for one sharing group."""

    def __init__(self, sim: Simulator, group: SharingGroup, packet_bytes: int) -> None:
        self.sim = sim
        self.group = group
        self.packet_bytes = packet_bytes
        self.lock_managers: dict[str, GwcLockManager] = {}
        #: Speculative mutex-data updates discarded at the root.
        self.discarded = 0
        #: Updates sequenced and multicast in this group: a failover
        #: successor, built on its retargeted tree, starts where it does.
        self.sequenced = group.tree._next_seq
        #: Sequencer epoch (root failover): bumped on every re-election;
        #: every packet and heartbeat is stamped with it so members can
        #: fence out a deposed sequencer's traffic.  ``epoch_start_seq``
        #: is the first sequence number this engine's epoch covers.
        self.epoch = 0
        self.epoch_start_seq = 0
        #: Set when a successor took over this engine's group: a deposed
        #: engine sequences nothing and answers no NACKs.
        self.deposed = False
        #: Stale messages swallowed by the deposed guard.
        self.deposed_ignored = 0
        #: Updates stamped with a superseded epoch and discarded: writes
        #: issued into the failover window, dropped by the new root
        #: exactly like a non-holder's speculative write (§4).
        self.window_discards = 0
        #: Writes this engine itself stamped and multicast.  Unlike
        #: :attr:`sequenced` (which a successor inherits from the tree),
        #: this counts only local sequencing work,
        #: so per-root load comparisons reflect where work happened.
        self.locally_sequenced = 0
        #: Local sequencing work by sequencing unit (a lock write or a
        #: write to its mutex data counts against the lock; a standalone
        #: variable counts against itself).  Feeds hot-unit detection
        #: and the per-root load CSV fields.
        self.load_by_unit: dict[str, int] = {}
        #: Local sequencing work by sequencer epoch.
        self.load_by_epoch: dict[int, int] = {}
        #: Names whose ownership migrated *away* from this engine's
        #: partition (online re-partitioning), and stale in-flight
        #: updates for them discarded at the old owner's fence.
        self.migrated: set[str] = set()
        self.migration_discards = 0
        #: The root's authoritative value of every variable, updated at
        #: sequencing time.  Remote atomics (locks/rmw.py) serialize here.
        self._authoritative: dict[str, Any] = {}
        #: Reliable-multicast state ("...and to retransmit all hidden
        #: sharing messages"): sequenced-packet history for NACK service
        #: plus a trailing heartbeat that exposes tail loss.
        self._history: dict[int, ApplyPacket] = {}
        self._heartbeat_interval: float | None = None
        self._heartbeat_event = None
        self.retransmissions = 0
        #: Members that dynamically disabled eagersharing, per variable.
        self._excluded: dict[str, set[int]] = {}
        self.suppressed_sends = 0
        #: Lock-recovery configuration (see :meth:`configure_lock_recovery`).
        self._lock_recovery = False
        self._lease_duration: float | None = None
        self._lease_is_crashed: "Callable[[int], bool] | None" = None
        self._lease_max_extensions: int | None = None
        #: Packet-train collection (Layer 1 batching): while a train is
        #: open, :meth:`_sequence_and_multicast` appends sequenced
        #: packets here instead of multicasting each one immediately;
        #: :meth:`_train_flush` ships the whole run as one
        #: :meth:`MulticastTree.multicast_train` — one heap event per
        #: member instead of one per (member, packet), with per-packet
        #: arrival times computed exactly as unbatched.  ``None`` means
        #: no train is open (single sequenced writes take the direct
        #: path, byte-for-byte the pre-train behaviour).
        self._train: "list[ApplyPacket] | None" = None
        self._train_depth = 0
        #: Multi-packet trains actually shipped (diagnostics).
        self.trains_sent = 0

    def enable_reliability(self, heartbeat_interval: float) -> None:
        """Keep history for retransmission and emit trailing heartbeats."""
        self._heartbeat_interval = heartbeat_interval

    def emit_heartbeat(self) -> None:
        """Immediately announce the latest sequence number to members.

        The trailing heartbeat only re-arms on new sequenced traffic, so
        a member cut off by a (now healed) partition could otherwise
        miss the final packets forever if no further writes happen.  The
        fault injector calls this on partition heal and node restart so
        NACK-based catch-up starts at once.  No-op when reliability is
        off (there is no retransmission history to catch up from).
        """
        if self._heartbeat_interval is None:
            return
        if self._heartbeat_event is not None:
            self.sim.cancel(self._heartbeat_event)
            self._heartbeat_event = None
        self._emit_heartbeat()

    def configure_lock_recovery(
        self,
        lease_duration: float | None = None,
        is_crashed: "Callable[[int], bool] | None" = None,
        max_extensions: int | None = None,
    ) -> None:
        """Enable recovery mode (and optionally leases) on every lock.

        Applies to locks already declared and to locks added later.
        With ``lease_duration`` set, each manager reclaims a crashed
        holder's lock after the lease expires, emitting the follow-on
        grant through the normal sequencing path.  ``max_extensions``
        bounds consecutive live-holder lease extensions per grant (see
        :meth:`GwcLockManager.enable_lease`).
        """
        self._lock_recovery = True
        self._lease_duration = lease_duration
        self._lease_is_crashed = is_crashed
        self._lease_max_extensions = max_extensions
        for manager in self.lock_managers.values():
            self._apply_recovery(manager)

    def _apply_recovery(self, manager: GwcLockManager) -> None:
        manager.enable_recovery()
        if self._lease_duration is not None:
            manager.enable_lease(
                self.sim,
                partial(self._emit_lock_values, manager.decl.name),
                self._lease_duration,
                self._lease_is_crashed,
                max_extensions=self._lease_max_extensions,
            )

    def _emit_lock_values(self, name: str, values: list[Any]) -> None:
        """Sequence root-originated lock writes (lease reclaim grants)."""
        self._train_begin()
        try:
            for value in values:
                self._sequence_and_multicast(
                    var=name,
                    value=value,
                    origin=self.group.root,
                    is_mutex_data=False,
                    is_lock=True,
                )
        finally:
            self._train_flush()

    def depose(self) -> None:
        """Mark this engine superseded by a failover successor.

        Cancels its timers so a stale lease check or trailing heartbeat
        cannot allocate sequence numbers on the group's (now replaced)
        multicast tree after the new epoch has begun.
        """
        self.deposed = True
        if self._heartbeat_event is not None:
            self.sim.cancel(self._heartbeat_event)
            self._heartbeat_event = None
        for manager in self.lock_managers.values():
            manager._cancel_lease()

    def hand_off(
        self,
        epoch: int,
        start_seq: int,
        image: "dict[str, Any]",
        old_owner: int,
        rebuilt: bool = False,
    ) -> None:
        """Take over ``image`` behind an epoch fence: the one ownership handoff.

        Root failover (dead source) and online re-partitioning (live
        source: its own fence, and the target's refresh under the
        target's unchanged epoch) both move a root's authority this way.
        The engine runs under ``epoch`` from ``start_seq`` on: updates
        stamped with an older epoch are window-discarded (§4's non-holder
        rule, extended across a change of owner), and a member adopting
        the fence jumps its cursor to ``start_seq``.  Every name of
        ``image`` is then re-sequenced, in the caller's order, as one
        packet train attributed to ``old_owner`` — the only node whose
        echo filter could drop a mutex-data refresh, and it is dead or
        already holds the value.  ``rebuilt`` stamps the lock writes so
        a member can decline a grant it no longer wants (failover's
        table comes from evidence that may predate a release).
        """
        self.epoch = epoch
        self.epoch_start_seq = start_seq
        if self.sim.trace_enabled:
            self.sim.tracer.record(
                self.sim.now,
                "root.handoff",
                group=self.group.name,
                epoch=epoch,
                epoch_start=start_seq,
                old_owner=old_owner,
                names=list(image),
            )
        variables = self.group.variables
        locks = self.group.locks
        self._train_begin()
        try:
            for name in image:
                is_lock = name in locks
                self._sequence_and_multicast(
                    var=name,
                    value=image[name],
                    origin=old_owner,
                    is_mutex_data=(
                        name in variables and variables[name].is_mutex_data
                    ),
                    is_lock=is_lock,
                    rebuilt=rebuilt and is_lock,
                )
        finally:
            self._train_flush()

    def on_nack(self, member: int, from_seq: int) -> None:
        """Resend every sequenced packet from ``from_seq`` to ``member``."""
        if self.deposed:
            self.deposed_ignored += 1
            return
        if self._heartbeat_interval is None:
            raise MemoryError_(
                f"group {self.group.name!r} got a NACK but reliability is off"
            )
        import dataclasses

        for seq in range(max(from_seq, self.epoch_start_seq), self.sequenced):
            packet = dataclasses.replace(self._history[seq], retransmit=True)
            self.retransmissions += 1
            self.group.tree.network.send(
                Message(
                    src=self.group.root,
                    dst=member,
                    kind="gwc.apply",
                    payload=packet,
                    size_bytes=self.group.wire_bytes(packet.var, self.packet_bytes),
                )
            )

    def _refresh_heartbeat(self) -> None:
        if self._heartbeat_interval is None:
            return
        if self._heartbeat_event is not None:
            self.sim.cancel(self._heartbeat_event)
        self._heartbeat_event = self.sim.schedule(
            self._heartbeat_interval, self._emit_heartbeat
        )

    def _emit_heartbeat(self) -> None:
        self._heartbeat_event = None
        if self.deposed:
            return
        latest = self.sequenced - 1
        if latest < 0:
            return
        payload = (self.group.name, latest, self.epoch, self.epoch_start_seq)
        for member in self.group.members:
            if member == self.group.root:
                continue
            self.group.tree.network.send(
                Message(
                    src=self.group.root,
                    dst=member,
                    kind="gwc.heartbeat",
                    payload=payload,
                    size_bytes=self.packet_bytes,
                )
            )

    def authoritative_read(self, var: str) -> Any:
        """The value of ``var`` in global sequence order, as of now."""
        if var not in self._authoritative:
            for name, value in self.group.initial_image().items():
                self._authoritative.setdefault(name, value)
        return self._authoritative[var]

    def sequence_plain_write(self, var: str, value: Any, origin: int) -> None:
        """Sequence a write produced at the root itself (remote atomics)."""
        decl = self.group.variables.get(var)
        self._sequence_and_multicast(
            var=var,
            value=value,
            origin=origin,
            is_mutex_data=decl.is_mutex_data if decl is not None else False,
            is_lock=self.group.is_lock(var),
        )

    def on_unsubscribe(self, var: str, member: int) -> None:
        """Dynamic eagersharing disable: stop shipping values to member."""
        self._excluded.setdefault(var, set()).add(member)

    def on_resubscribe(self, var: str, member: int) -> None:
        """Re-enable eagersharing; refresh everyone with a sequenced write.

        The refresh is an ordinary sequenced write of the current
        authoritative value, so the resubscriber (and anyone else) ends
        up with a copy that is correct in global order.
        """
        excluded = self._excluded.get(var)
        if excluded is not None:
            excluded.discard(member)
        self.sequence_plain_write(var, self.authoritative_read(var), self.group.root)

    def add_lock(self, decl: LockDecl) -> GwcLockManager:
        manager = GwcLockManager(decl)
        self.lock_managers[decl.name] = manager
        if self._lock_recovery:
            self._apply_recovery(manager)
        return manager

    def manager(self, lock: str) -> GwcLockManager:
        return self.lock_managers[lock]

    def on_update(self, request: UpdateRequest) -> None:
        """Handle one origin->root update packet."""
        if self.deposed:
            # A stale in-flight update addressed to the old sequencer;
            # the client's retry re-routes to the successor.
            self.deposed_ignored += 1
            return
        if request.epoch != self.epoch:
            # Issued into the failover window under the previous
            # sequencer's epoch.  The origin's view of the lock state
            # (and of the sequence history) may predate reconstruction,
            # so the write is discarded like any non-holder speculation;
            # the origin re-issues after adopting the new epoch.
            self.window_discards += 1
            if request.var in self.migrated:
                self.migration_discards += 1
            if self.sim.trace_enabled:
                self.sim.tracer.record(
                    self.sim.now,
                    "root.window_discarded",
                    group=self.group.name,
                    var=request.var,
                    origin=request.origin,
                    epoch=request.epoch,
                    current=self.epoch,
                )
            return
        self._train_begin()
        try:
            self._handle_write(request.var, request.value, request.origin)
        finally:
            self._train_flush()

    def on_update_burst(self, request: BurstUpdateRequest) -> None:
        """Handle one origin->root multi-write burst packet.

        Each write is sequenced individually, in issue order, through
        exactly the per-write logic of :meth:`on_update` (lock manager,
        mutex-data discard, plain sequencing); the resulting run of
        apply packets ships down the tree as one packet train.
        """
        if self.deposed:
            self.deposed_ignored += 1
            return
        if request.epoch != self.epoch:
            # Every write in the burst was issued into the failover
            # window; discard them all, one count per write, exactly as
            # if they had arrived as individual stale updates.
            self.window_discards += len(request.writes)
            if self.migrated:
                self.migration_discards += sum(
                    var in self.migrated for var, _ in request.writes
                )
            if self.sim.trace_enabled:
                self.sim.tracer.record(
                    self.sim.now,
                    "root.window_discarded_burst",
                    group=self.group.name,
                    writes=len(request.writes),
                    origin=request.origin,
                    epoch=request.epoch,
                    current=self.epoch,
                )
            return
        self._train_begin()
        try:
            for var, value in request.writes:
                self._handle_write(var, value, request.origin)
        finally:
            self._train_flush()

    def _handle_write(self, var: str, value: Any, origin: int) -> None:
        """Lock-manage / discard / sequence one current-epoch write."""
        group = self.group
        if var in self.migrated:
            # A write buffered before an online re-partition moved the
            # name away, flushed after this member adopted the bumped
            # epoch.  This root no longer owns the declaration; discard
            # like any migration-window write (the origin's durable-
            # write retry re-routes to the new owner).
            self.migration_discards += 1
            return
        if group.is_lock(var):
            manager = self.lock_managers[var]
            for granted in manager.on_write(origin, value):
                self._sequence_and_multicast(
                    var=var,
                    value=granted,
                    origin=group.root,
                    is_mutex_data=False,
                    is_lock=True,
                )
            return

        decl = group.var_decl(var)
        if decl.is_mutex_data:
            manager = self.lock_managers[decl.mutex_lock]
            if not manager.holds(origin):
                self.discarded += 1
                if self.sim.trace_enabled:
                    self.sim.tracer.record(
                        self.sim.now,
                        "root.discarded",
                        group=group.name,
                        var=var,
                        value=value,
                        origin=origin,
                        holder=manager.holder,
                    )
                return
        self._sequence_and_multicast(
            var=var,
            value=value,
            origin=origin,
            is_mutex_data=decl.is_mutex_data,
            is_lock=False,
        )

    def _sequence_and_multicast(
        self,
        var: str,
        value: Any,
        origin: int,
        is_mutex_data: bool,
        is_lock: bool,
        rebuilt: bool = False,
    ) -> None:
        if self.deposed:
            self.deposed_ignored += 1
            return
        self._authoritative[var] = value
        seq = self.group.tree.next_sequence()
        packet = ApplyPacket(
            group=self.group.name,
            seq=seq,
            var=var,
            value=value,
            origin=origin,
            is_mutex_data=is_mutex_data,
            is_lock=is_lock,
            epoch=self.epoch,
            epoch_start=self.epoch_start_seq,
            rebuilt=rebuilt,
        )
        self.sequenced += 1
        self.locally_sequenced += 1
        unit = var
        if is_mutex_data:
            decl = self.group.variables.get(var)
            if decl is not None and decl.mutex_lock is not None:
                unit = decl.mutex_lock
        self.load_by_unit[unit] = self.load_by_unit.get(unit, 0) + 1
        self.load_by_epoch[self.epoch] = self.load_by_epoch.get(self.epoch, 0) + 1
        if self.sim.trace_enabled:
            self.sim.tracer.record(
                self.sim.now,
                "root.sequenced",
                group=self.group.name,
                seq=seq,
                var=var,
                value=value,
                origin=origin,
            )
        if self._heartbeat_interval is not None:
            self._history[seq] = packet
        if self._train is not None:
            # A train is open: the whole synchronous run of sequenced
            # packets ships together at flush time.
            self._train.append(packet)
            return
        self._emit_packet(packet)
        self._refresh_heartbeat()

    # ------------------------------------------------------------------
    # Packet-train emission (Layer 1 batching)
    # ------------------------------------------------------------------

    def _train_begin(self) -> None:
        """Open a packet train (re-entrant; outermost flush ships it)."""
        if self._train_depth == 0:
            self._train = []
        self._train_depth += 1

    def _train_flush(self) -> None:
        """Close the train and ship any collected packets.

        A one-packet train takes the ordinary single-multicast path —
        byte-for-byte what the root did before trains existed.  A
        multi-packet train ships via
        :meth:`MulticastTree.multicast_train`, unless some variable in
        the train has excluded (unsubscribed) members, in which case
        each packet is emitted individually so per-member suppression
        applies exactly as unbatched.
        """
        self._train_depth -= 1
        if self._train_depth > 0:
            return
        train = self._train
        self._train = None
        if not train:
            return
        if len(train) == 1:
            self._emit_packet(train[0])
        elif any(self._excluded.get(packet.var) for packet in train):
            for packet in train:
                self._emit_packet(packet)
        else:
            self.trains_sent += 1
            self.group.tree.multicast_train(
                "gwc.apply",
                train,
                [
                    self.group.wire_bytes(packet.var, self.packet_bytes)
                    for packet in train
                ],
            )
        self._refresh_heartbeat()

    def _emit_packet(self, packet: ApplyPacket) -> None:
        """Multicast one sequenced packet (with per-member suppression)."""
        var = packet.var
        excluded = self._excluded.get(var)
        if not excluded:
            self.group.tree.multicast(
                "gwc.apply", packet, self.group.wire_bytes(var, self.packet_bytes)
            )
        else:
            import dataclasses

            from repro.memory.interface import SUPPRESSED

            full_size = self.group.wire_bytes(var, self.packet_bytes)
            # Point-to-point sends: stamped ``direct`` so hierarchical-
            # multicast relays do not forward what every member already
            # received straight from the root.
            full = dataclasses.replace(packet, direct=True)
            header = dataclasses.replace(packet, value=SUPPRESSED, direct=True)
            for member in self.group.members:
                suppress = member in excluded
                self.suppressed_sends += int(suppress)
                self.group.tree.network.send(
                    Message(
                        src=self.group.root,
                        dst=member,
                        kind="gwc.apply",
                        payload=header if suppress else full,
                        size_bytes=self.packet_bytes if suppress else full_size,
                    )
                )


class GwcSystem(DsmSystem):
    """Group write consistency with the regular Section 2 locks."""

    name = "gwc"

    def __init__(
        self,
        machine: "DSMMachine",  # noqa: F821
        lock_retry: LockRetryPolicy | None = None,
    ) -> None:
        super().__init__(machine)
        self._clients: dict[str, GwcLockClient] = {}
        #: Optional timeout/backoff policy for every lock acquisition
        #: (see :class:`~repro.locks.gwc_lock.LockRetryPolicy`).  None
        #: keeps the paper's block-forever protocol.
        self.lock_retry = lock_retry

    def _client(self, lock: str) -> GwcLockClient:
        client = self._clients.get(lock)
        if client is None:
            client = GwcLockClient(self.machine.lock_decl(lock), self.lock_retry)
            self._clients[lock] = client
        return client

    # -- data ----------------------------------------------------------

    def read(self, node: NodeHandle, var: str) -> Generator[Any, Any, Any]:
        return node.store.read(var)
        yield  # pragma: no cover - marks this function as a generator

    def write(
        self, node: NodeHandle, var: str, value: Any
    ) -> Generator[Any, Any, None]:
        node.iface.share_write(var, value)
        return
        yield  # pragma: no cover - marks this function as a generator

    def wait_value(
        self,
        node: NodeHandle,
        var: str,
        predicate: Callable[[Any], bool],
    ) -> Generator[Any, Any, Any]:
        # Blocking on a value is a synchronization boundary: anything
        # this process buffered must become visible before it sleeps,
        # or a peer waiting on one of those writes would deadlock.
        node.iface.flush_write_bursts()
        return (yield from node.store.wait_until(var, predicate))

    def section_write(self, node: NodeHandle, var: str, value: Any) -> None:
        node.iface.share_write(var, value)

    # -- locks ----------------------------------------------------------

    def acquire(self, node: NodeHandle, lock: str) -> Generator[Any, Any, None]:
        yield from self._client(lock).acquire(node)

    def release(self, node: NodeHandle, lock: str) -> Generator[Any, Any, None]:
        yield from self._client(lock).release(node)
        if self.machine.migration_fencing:
            yield from self._confirm_release(node, lock)

    def _confirm_release(
        self, node: NodeHandle, lock: str
    ) -> Generator[Any, Any, None]:
        """Wait out the release under a migration fence, re-sending if eaten.

        The paper's release is fire-and-forget, and that is safe only
        while the sequencer is immortal: a FREE in flight when a
        migration epoch fence lands is window-discarded, leaving the
        root convinced this node still holds the lock (and the fence's
        refresh re-imposes the stale grant on this node's own store,
        which would trip the next acquire's nesting check).  Requests
        already recover via the retry policy and data writes via the
        fenced durability barrier; this is the same barrier for the
        release: poll until the sequenced stream moves past our grant,
        re-issuing the FREE once the new epoch has been adopted.

        Root *failover* does not need (or run) this barrier: there the
        stale holder table dies with the old root, and the successor
        rebuilds the lock from first-person member evidence — this
        node's local FREE — so a lost release is corrected on the root
        side.  Migration hands the exported table between two live
        roots with no reconstruction step, which is exactly why the
        client must make its release durable itself.
        """
        from repro.memory.varspace import FREE_VALUE, grant_value

        mine = grant_value(node.id)
        iface = node.iface
        settle = self.machine.nack_timeout / 4.0
        waits = 0
        while (
            iface._applied.get(lock) == mine or node.store.read(lock) == mine
        ):
            yield settle
            waits += 1
            if waits % 8 == 0:
                iface.share_write(lock, FREE_VALUE)
            if waits > 100_000:
                from repro.errors import LockStateError

                raise LockStateError(
                    f"node {node.id}: release of {lock!r} never sequenced"
                )


class OptimisticGwcSystem(GwcSystem):
    """GWC with Section 4 optimistic mutual exclusion for sections.

    Standalone :meth:`acquire`/:meth:`release` remain the regular
    blocking protocol; :meth:`run_section` speculates.
    """

    name = "gwc_optimistic"

    def __init__(
        self,
        machine: "DSMMachine",  # noqa: F821
        decay: float | None = None,
        threshold: float | None = None,
        force: str | None = None,
        wait_mode: str | None = None,
        swap_overhead: float | None = None,
        lock_retry: LockRetryPolicy | None = None,
    ) -> None:
        super().__init__(machine, lock_retry=lock_retry)
        from repro.locks.history import DEFAULT_DECAY, DEFAULT_THRESHOLD
        from repro.locks.optimistic import (
            WAIT_SPIN,
            OptimisticConfig,
            OptimisticMutexRunner,
        )

        self.config = OptimisticConfig(
            decay=decay if decay is not None else DEFAULT_DECAY,
            threshold=threshold if threshold is not None else DEFAULT_THRESHOLD,
            force=force,
            wait_mode=wait_mode if wait_mode is not None else WAIT_SPIN,
            swap_overhead=swap_overhead if swap_overhead is not None else 1e-6,
        )
        self.runner = OptimisticMutexRunner(self, self.config)

    def run_section(
        self, node: NodeHandle, section: Section
    ) -> Generator[Any, Any, SectionOutcome]:
        return (yield from self.runner.run_section(node, section))


register_system("gwc", GwcSystem)
register_system("gwc_optimistic", OptimisticGwcSystem)
