"""The per-node memory sharing interface (the simulated Sesame hardware).

Outbound: :meth:`NodeInterface.share_write` applies a shared write to the
local store immediately ("without slowing its calculations") and forwards
an update packet to the group root for sequencing.

Inbound: sequenced apply packets from the root pass through, in order,

1. the **hardware blocking filter** (Figure 6) — root echoes of this
   node's own mutex-group data are dropped,
2. the **insharing suspension** gate — while suspended, packets queue and
   local memory is immune to external changes,
3. the **apply** step — the value is committed to the local store, and
4. the **lock-change interrupt** — if an interrupt is armed on a lock
   variable, applying it atomically engages insharing suspension and
   invokes the handler (Figure 5's ``intrpt_and_sharing_suspension``).

All four steps happen inside a single simulator event, which is what
makes the paper's "interrupt is atomically coupled with a suspension of
insharing" hold by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import MemoryError_, SequencingError
from repro.memory.packet_filter import HardwareBlockingFilter
from repro.memory.sharing_group import SharingGroup
from repro.memory.varspace import FREE_VALUE, grant_value, request_value
from repro.memory.store import LocalStore
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.kernel import Simulator

#: Callback invoked when an armed lock variable changes: receives the new
#: lock value.  Insharing is already suspended when it runs.
LockInterruptHandler = Callable[[Any], None]


class _Suppressed:
    """Sentinel payload of a header-only apply to an unsubscribed member.

    Dynamic disabling of eagersharing (Section 1.1) suppresses the
    *data* of updates a member said it no longer needs; the sequencing
    header still flows so the member's in-order apply stream has no
    gaps.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<suppressed>"


#: The shared suppression sentinel.
SUPPRESSED = _Suppressed()


@dataclass(frozen=True, slots=True)
class UpdateRequest:
    """Origin -> root packet: one shared write awaiting sequencing."""

    group: str
    var: str
    value: Any
    origin: int
    #: Sequencer epoch the origin had adopted when it issued the write.
    #: A root sequences only current-epoch requests; anything stamped
    #: with an older epoch was issued into the failover window and is
    #: discarded exactly like a non-holder's speculative write (§4) —
    #: the origin re-issues against the new root after adopting it.
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class BurstUpdateRequest:
    """Origin -> root packet: a combined burst of shared writes.

    The modeled Sesame hardware transmits *groups* of writes atomically
    (that is what Group Write Consistency means, §2); with
    ``write_burst != 1`` the interface combines consecutive plain
    writes by one processor into a single multi-write update that pays
    one packet header and one origin->root message for the whole run.
    The root sequences the writes individually, in issue order, so
    members observe the same per-write apply stream as unbatched —
    only later (writes become remotely visible at the flush, not at
    issue).
    """

    group: str
    #: ``(var, value)`` pairs in program (issue) order.  Lock-variable
    #: writes may appear only as the final entry (the synchronization
    #: boundary that triggered the flush rides in the same packet).
    writes: tuple[tuple[str, Any], ...]
    origin: int
    #: Sequencer epoch at flush time; same fencing as
    #: :class:`UpdateRequest`.
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class ApplyPacket:
    """Root -> member packet: one sequenced shared write."""

    group: str
    seq: int
    var: str
    value: Any
    origin: int
    is_mutex_data: bool
    is_lock: bool
    #: True on NACK-triggered retransmissions (never dropped by the
    #: loss model; duplicates of it are tolerated).
    retransmit: bool = False
    #: Root-failover fencing (see :mod:`repro.faults.failover`): the
    #: group's sequencer epoch this packet was stamped under, and the
    #: first sequence number of that epoch.  Members discard packets
    #: from epochs older than the one they have adopted; a packet from
    #: a *newer* epoch makes them adopt it and rewind their cursor to
    #: ``epoch_start`` so the normal NACK path fills anything missed.
    epoch: int = 0
    epoch_start: int = 0
    #: True on lock writes a failover successor synthesized from member
    #: evidence rather than from a live request/release.  A member that
    #: receives a rebuilt grant *for itself* that it no longer wants
    #: (it already released, but the release died with the old root)
    #: declines it by re-sharing FREE instead of silently holding.
    rebuilt: bool = False
    #: True on packets the root sent point-to-point to one member (the
    #: unsubscribe-exclusion path) rather than down the multicast tree.
    #: Hierarchical-multicast relays must not forward these: every
    #: member already got its own copy directly.
    direct: bool = False


class NodeInterface:
    """The memory-sharing hardware interface of one node."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: int,
        store: LocalStore,
        echo_blocking: bool = True,
        nack_timeout: float | None = None,
        write_burst: int = 1,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self.store = store
        #: Write-burst combining (see :class:`BurstUpdateRequest` and
        #: ``MachineParams.write_burst``): 1 = off (every write is its
        #: own update packet, the paper-calibrated default), k > 1 =
        #: flush after k buffered writes, 0 = flush only at
        #: synchronization boundaries.
        self.write_burst = write_burst
        #: Per-group burst buffers of pending ``(var, value)`` writes.
        self._burst: dict[str, list[tuple[str, Any]]] = {}
        #: Diagnostics: writes that passed through a burst buffer, and
        #: multi-write update packets actually sent.
        self.burst_writes = 0
        self.burst_flushes = 0
        self.filter = HardwareBlockingFilter(node, enabled=echo_blocking)
        self.groups: dict[str, SharingGroup] = {}
        #: var/lock name -> owning joined group (see :meth:`group_of`).
        self._group_cache: dict[str, SharingGroup] = {}
        #: Apply packets this node forwarded down a hierarchical
        #: multicast relay tree (diagnostics).
        self.relayed_applies = 0
        #: True once any joined group uses a relay tree; keeps the
        #: dominant direct-fanout apply path free of relay checks.
        self._relay_mode = False
        #: Root engines for groups rooted at this node (installed by the
        #: machine builder); maps group name -> engine with an
        #: ``on_update(UpdateRequest)`` method.
        self.root_engines: dict[str, Any] = {}
        self._next_seq: dict[str, int] = {}
        self._reorder: dict[str, dict[int, ApplyPacket]] = {}
        #: Highest sequencer epoch adopted per group (root failover).
        self._epoch: dict[str, int] = {}
        self._suspended = False
        self._suspended_queue: deque[ApplyPacket] = deque()
        self._interrupts: dict[str, LockInterruptHandler] = {}
        #: When set, the reliable-multicast recovery is active: sequence
        #: gaps older than this many seconds trigger a NACK to the root,
        #: and duplicate (retransmitted) packets are tolerated.
        self.nack_timeout = nack_timeout
        self._gap_check_pending: set[str] = set()
        #: Failover evidence (maintained only when reliability is on):
        #: the last *sequenced* value this node applied per variable —
        #: unlike the store it never contains speculative local writes,
        #: so a reconstruction quorum can adopt it wholesale — plus the
        #: sequence number of the last applied write per lock (claim
        #: tie-breaking) and the root each group's writes last targeted
        #: (re-route accounting).
        self._applied: dict[str, Any] = {}
        self._applied_lock_seq: dict[str, int] = {}
        self._last_root: dict[str, int] = {}
        #: Diagnostics.
        self.applied_count = 0
        self.duplicates_ignored = 0
        self.nacks_sent = 0
        self.suppressed_applies = 0
        self.stale_epoch_discards = 0
        self.declined_regrants = 0

    # ------------------------------------------------------------------
    # Group membership
    # ------------------------------------------------------------------

    def join_group(self, group: SharingGroup) -> None:
        """Install a group's variables into the local store."""
        if not group.has_member(self.node):
            raise MemoryError_(
                f"node {self.node} is not a member of group {group.name!r}"
            )
        self.groups[group.name] = group
        self._next_seq.setdefault(group.name, 0)
        self._reorder.setdefault(group.name, {})
        self._epoch.setdefault(group.name, 0)
        self._burst.setdefault(group.name, [])
        if group.fanout is not None:
            self._relay_mode = True
        for name, value in group.initial_image().items():
            self.store.declare(name, value)

    def group_of(self, var: str) -> SharingGroup:
        """The group declaring variable or lock ``var`` on this node.

        Cached per name: with root-sharded families a node joins one
        subgroup per partition, and the linear scan would otherwise run
        on every shared write.  Online re-partitioning moves names
        between sibling subgroups and invalidates the affected entries
        (see :meth:`forget_group_of`).
        """
        cached = self._group_cache.get(var)
        if cached is not None:
            return cached
        for group in self.groups.values():
            if var in group.variables or var in group.locks:
                self._group_cache[var] = group
                return group
        raise MemoryError_(f"node {self.node}: no joined group declares {var!r}")

    def forget_group_of(self, names: "tuple[str, ...] | list[str]") -> None:
        """Drop cached var->group entries (ownership migrated)."""
        for name in names:
            self._group_cache.pop(name, None)

    # ------------------------------------------------------------------
    # Outbound path
    # ------------------------------------------------------------------

    def share_write(self, var: str, value: Any) -> None:
        """Eagerly share a write: apply locally, forward to the group root.

        With write-burst combining enabled (``write_burst != 1``) plain
        data writes accumulate in the group's burst buffer instead of
        each paying an origin->root message; a lock-variable write is a
        synchronization boundary — it flushes the buffer and rides the
        resulting update as its final entry, preserving program order
        on the FIFO channel (so grant-after-data still holds).
        """
        group = self.group_of(var)
        self.store.write(var, value)
        if self.write_burst == 1:
            self._forward_to_root(group, var, value)
            return
        if group.is_lock(var):
            self._flush_sibling_bursts(group)
            self._flush_burst(group, tail=(var, value))
            return
        buffer = self._burst[group.name]
        buffer.append((var, value))
        self.burst_writes += 1
        if self.write_burst and len(buffer) >= self.write_burst:
            self._flush_burst(group)

    def atomic_exchange(self, var: str, value: Any) -> Any:
        """Atomically swap the local copy with ``value``; share the write.

        This is line (04) of Figure 4: requesting the lock and saving the
        previous local lock value access the same memory location within
        one simulator event, so no incoming lock change can interleave.
        An atomic exchange is a synchronization boundary: any buffered
        burst writes flush first (same packet), keeping program order.
        """
        group = self.group_of(var)
        old = self.store.read(var)
        self.store.write(var, value)
        if self.write_burst == 1:
            self._forward_to_root(group, var, value)
        else:
            self._flush_sibling_bursts(group)
            self._flush_burst(group, tail=(var, value))
        return old

    def flush_write_bursts(self, group_name: str | None = None) -> None:
        """Flush pending burst buffers (one group, or all of them).

        Called at every synchronization boundary that does not itself
        write a shared variable: optimistic rollback, insharing
        suspension, sequencer-epoch adoption, and blocking value waits.
        A no-op when nothing is buffered (and always with the default
        ``write_burst=1``, where nothing ever buffers).
        """
        if group_name is not None:
            buffer = self._burst.get(group_name)
            if buffer:
                self._flush_burst(self.groups[group_name])
            return
        for name, buffer in self._burst.items():
            if buffer:
                self._flush_burst(self.groups[name])

    @property
    def pending_burst_writes(self) -> int:
        """Buffered writes not yet flushed to any root (diagnostics)."""
        return sum(len(buffer) for buffer in self._burst.values())

    def _flush_sibling_bursts(self, group: SharingGroup) -> None:
        """Cross-root atomics rule for sharded-root families.

        A synchronization-boundary write (lock value or atomic
        exchange) owned by one partition flushes every *sibling*
        partition's burst buffer first, in ascending partition order,
        before its own flush carries the boundary write.  Program order
        is therefore preserved across roots: every buffered write is on
        the wire to its owning root before the lock value that
        publishes the critical section leaves this node.
        """
        for sibling in group.family.parts:
            if sibling is not group and self._burst[sibling.name]:
                self._flush_burst(sibling)

    def _flush_burst(
        self, group: SharingGroup, tail: tuple[str, Any] | None = None
    ) -> None:
        """Send the group's buffered writes as one multi-write update.

        ``tail`` is the boundary write (lock value or atomic exchange)
        that triggered the flush; it is appended after the buffered
        writes so the root processes it last, exactly as if every write
        had crossed the channel individually.  A flush of a single
        write degenerates to the ordinary :class:`UpdateRequest` path.
        """
        buffer = self._burst[group.name]
        if not buffer:
            if tail is not None:
                self._forward_to_root(group, tail[0], tail[1])
            return
        writes = list(buffer)
        buffer.clear()
        if tail is not None:
            writes.append(tail)
        if len(writes) == 1:
            self._forward_to_root(group, writes[0][0], writes[0][1])
            return
        packet_bytes = self.network.params.packet_bytes
        # One shared header plus every write's declared payload bytes.
        size = packet_bytes + sum(
            group.wire_bytes(var, packet_bytes) - packet_bytes
            for var, _ in writes
        )
        request = BurstUpdateRequest(
            group=group.name,
            writes=tuple(writes),
            origin=self.node,
            epoch=self._outgoing_epoch(group),
        )
        self.burst_flushes += 1
        self.network.send(
            Message(
                src=self.node,
                dst=group.root,
                kind="gwc.update_burst",
                payload=request,
                size_bytes=size,
            )
        )

    def _outgoing_epoch(self, group: SharingGroup) -> int:
        """Epoch stamp + root re-route accounting for one outgoing update."""
        if self.nack_timeout is None:
            return 0
        last = self._last_root.get(group.name)
        if last != group.root:
            if last is not None:
                self.network.stats.rerouted_requests += 1
            self._last_root[group.name] = group.root
        return self._epoch[group.name]

    def _forward_to_root(self, group: SharingGroup, var: str, value: Any) -> None:
        request = UpdateRequest(
            group=group.name,
            var=var,
            value=value,
            origin=self.node,
            epoch=self._outgoing_epoch(group),
        )
        self.network.send(
            Message(
                src=self.node,
                dst=group.root,
                kind="gwc.update",
                payload=request,
                size_bytes=group.wire_bytes(var, self.network.params.packet_bytes),
            )
        )

    # ------------------------------------------------------------------
    # Dynamic disabling of eagersharing (Section 1.1)
    # ------------------------------------------------------------------

    def unsubscribe(self, var: str) -> None:
        """Stop receiving this variable's values (header-only applies).

        "Dynamic disabling of eagersharing can avoid some costs" — a
        node that no longer reads a variable tells the root, which then
        sends it sequencing headers without the payload.  Lock variables
        and mutex-protected data cannot be unsubscribed: their values
        drive the synchronization protocol.
        """
        group = self.group_of(var)
        if group.is_lock(var) or group.var_decl(var).is_mutex_data:
            raise MemoryError_(
                f"node {self.node}: cannot unsubscribe synchronization "
                f"variable {var!r}"
            )
        # Ordering: any buffered writes must reach the root before the
        # subscription change they precede in program order.
        self.flush_write_bursts(group.name)
        self.network.send(
            Message(
                src=self.node,
                dst=group.root,
                kind="gwc.unsub",
                payload=(group.name, var, self.node),
                size_bytes=self.network.params.packet_bytes,
            )
        )

    def resubscribe(self, var: str) -> None:
        """Resume eagersharing; the root refreshes the current value."""
        group = self.group_of(var)
        self.flush_write_bursts(group.name)
        self.network.send(
            Message(
                src=self.node,
                dst=group.root,
                kind="gwc.resub",
                payload=(group.name, var, self.node),
                size_bytes=self.network.params.packet_bytes,
            )
        )

    # ------------------------------------------------------------------
    # Insharing suspension and lock interrupts
    # ------------------------------------------------------------------

    @property
    def insharing_suspended(self) -> bool:
        return self._suspended

    @property
    def pending_suspended(self) -> int:
        return len(self._suspended_queue)

    def suspend_insharing(self) -> None:
        """Suspend insharing — a synchronization boundary: flush bursts."""
        self.flush_write_bursts()
        self._suspended = True

    def resume_insharing(self) -> None:
        """Lift suspension and drain queued packets in arrival order.

        Draining stops immediately if one of the drained packets is an
        armed lock change — applying it re-engages suspension (the
        atomic interrupt), and the rest of the queue waits for the next
        resume.
        """
        self._suspended = False
        while self._suspended_queue and not self._suspended:
            self._process(self._suspended_queue.popleft())

    def arm_lock_interrupt(self, lock: str, handler: LockInterruptHandler) -> None:
        """Enable Figure 5's interrupt-and-sharing-suspension on a lock."""
        self._interrupts[lock] = handler

    def disarm_lock_interrupt(self, lock: str) -> None:
        self._interrupts.pop(lock, None)

    def interrupt_armed(self, lock: str) -> bool:
        return lock in self._interrupts

    # ------------------------------------------------------------------
    # Inbound path
    # ------------------------------------------------------------------

    def delivery_for(self, kind: str) -> Callable[[Message], None]:
        """The leanest delivery callable for one message kind.

        Apply packets dominate GWC traffic (every sequenced write fans
        out to the whole group), so they get a dedicated entry point;
        everything else dispatches through :meth:`on_message`.
        """
        if kind == "gwc.apply":
            return self._on_apply
        return self.on_message

    def batch_delivery_for(
        self, kind: str
    ) -> "tuple[Callable[[tuple], None], NodeInterface] | None":
        """The batch entry point for one message kind, if it has one.

        Multicast applies are taken a cohort at a time (see
        :func:`apply_cohort` and :meth:`Network.attach`).
        """
        if kind == "gwc.apply":
            return (apply_cohort, self)
        return None

    def _on_apply(self, msg: Message) -> None:
        """Delivery of one point-to-point ``gwc.apply``: a cohort of one."""
        apply_cohort(((self,), msg.payload))

    def on_message(self, msg: Message) -> None:
        """Network delivery entry point for GWC traffic."""
        # Apply packets dominate GWC traffic (every sequenced write fans
        # out to the whole group), so they are tested first.
        if msg.kind == "gwc.apply":
            if self._relay_mode:
                self._relay_apply(msg.payload)
            self._receive(msg.payload)
        elif msg.kind == "gwc.update":
            engine = self.root_engines.get(msg.payload.group)
            if engine is None:
                raise MemoryError_(
                    f"node {self.node} received an update for group "
                    f"{msg.payload.group!r} it does not root"
                )
            engine.on_update(msg.payload)
        elif msg.kind == "gwc.update_burst":
            engine = self.root_engines.get(msg.payload.group)
            if engine is None:
                raise MemoryError_(
                    f"node {self.node} received a burst update for group "
                    f"{msg.payload.group!r} it does not root"
                )
            engine.on_update_burst(msg.payload)
        elif msg.kind == "gwc.nack":
            group_name, from_seq, member = msg.payload
            engine = self.root_engines.get(group_name)
            if engine is None:
                raise MemoryError_(
                    f"node {self.node} got a NACK for group {group_name!r} "
                    "it does not root"
                )
            engine.on_nack(member, from_seq)
        elif msg.kind == "gwc.heartbeat":
            self._on_heartbeat(*msg.payload)
        elif msg.kind in ("gwc.unsub", "gwc.resub"):
            group_name, var, member = msg.payload
            engine = self.root_engines.get(group_name)
            if engine is None:
                raise MemoryError_(
                    f"node {self.node} got a subscription change for group "
                    f"{group_name!r} it does not root"
                )
            if msg.kind == "gwc.unsub":
                engine.on_unsubscribe(var, member)
            else:
                engine.on_resubscribe(var, member)
        else:
            raise MemoryError_(f"node {self.node}: unknown message kind {msg.kind!r}")

    def _relay_apply(self, packet: ApplyPacket) -> None:
        """Forward a tree-multicast apply to this node's relay children.

        Only hierarchical-multicast groups (``fanout`` set) relay, and
        only packets that travelled the tree: NACK retransmissions and
        point-to-point ``direct`` sends already reached every member
        straight from the root.  The forward happens at *delivery*,
        before this node's own ordering checks — a relay that is itself
        behind still keeps its subtree fed.
        """
        if packet.retransmit or packet.direct:
            return
        group = self.groups.get(packet.group)
        if group is None or group.fanout is None or self.node == group.root:
            return
        kids = group.tree.children_of(self.node)
        if not kids:
            return
        packet_bytes = self.network.params.packet_bytes
        if packet.value is SUPPRESSED:
            size = packet_bytes
        else:
            # The declaration may have migrated to a sibling partition
            # while this apply was in flight (decl dicts are shared by
            # reference, so this relay's view moved too); size the
            # forward from whichever part owns it now.
            sized = group
            if (
                packet.var not in group.variables
                and packet.var not in group.locks
            ):
                sized = group.family.home(packet.var)
            size = sized.wire_bytes(packet.var, packet_bytes)
        self.relayed_applies += len(kids)
        self.network.send_fanout(self.node, kids, "gwc.apply", packet, size)

    def _receive(self, packet: ApplyPacket) -> None:
        """Order-check an arriving packet, then process in-sequence ones."""
        group = packet.group
        expected = self._next_seq.get(group)
        if expected is None:
            raise MemoryError_(
                f"node {self.node} got apply for unjoined group {group!r}"
            )
        current_epoch = self._epoch[group]
        if packet.epoch != current_epoch:
            if packet.epoch < current_epoch:
                # Fencing: a deposed sequencer's packet (or a stale
                # retransmission from before the failover) must not
                # overwrite state the new epoch already refreshed.
                self._note_stale_epoch()
                return
            self._adopt_epoch(group, packet.epoch, packet.epoch_start)
            expected = self._next_seq[group]
        if packet.seq == expected and not self._reorder[group]:
            # In-order arrival with nothing buffered — the overwhelmingly
            # common case on lossless FIFO channels.  Skip the reorder
            # buffer round-trip entirely.
            self._next_seq[group] = expected + 1
            if self._suspended:
                self._suspended_queue.append(packet)
            else:
                self._process(packet)
            return
        if packet.seq < expected:
            if self.nack_timeout is not None or packet.retransmit:
                # A retransmission raced the original (or a repeated
                # NACK over-fetched); in-order delivery already happened.
                self.duplicates_ignored += 1
                return
            raise SequencingError(
                f"node {self.node} group {packet.group!r}: duplicate seq "
                f"{packet.seq} (expected {expected})"
            )
        reorder = self._reorder[packet.group]
        reorder[packet.seq] = packet
        while self._next_seq[packet.group] in reorder:
            next_packet = reorder.pop(self._next_seq[packet.group])
            self._next_seq[packet.group] += 1
            if self._suspended:
                self._suspended_queue.append(next_packet)
            else:
                self._process(next_packet)
        if reorder and self.nack_timeout is not None:
            self._schedule_gap_check(packet.group)

    # ------------------------------------------------------------------
    # Sequencer-epoch fencing (root failover)
    # ------------------------------------------------------------------

    def _note_stale_epoch(self, count: int = 1) -> None:
        self.stale_epoch_discards += count
        self.network.stats.stale_epoch_discards += count
        if self.sim.trace_enabled:
            self.sim.tracer.record(
                self.sim.now, "iface.stale_epoch", node=self.node, count=count
            )

    def _adopt_epoch(self, group: str, epoch: int, epoch_start: int) -> None:
        """Switch to a newer sequencer epoch announced by a new root.

        Anything still buffered from the old sequencer is fenced out,
        and the apply cursor moves to the new epoch's first sequence
        number: the takeover refresh (which re-sequences every variable
        and lock starting exactly there) subsumes any tail of the old
        epoch this member missed.  A gap *within* the new epoch is
        recovered by the ordinary NACK path — the new root's history
        starts at ``epoch_start``.

        Buffered burst writes flush *before* the epoch switches: they
        were issued under the old sequencer, and stamping them with the
        old epoch makes the new root window-discard them exactly like
        unbatched writes that were already in flight at failover.
        """
        self.flush_write_bursts(group)
        self._epoch[group] = epoch
        reorder = self._reorder[group]
        if reorder:
            self._note_stale_epoch(len(reorder))
            reorder.clear()
        if self._next_seq[group] < epoch_start:
            self._next_seq[group] = epoch_start
        if self.sim.trace_enabled:
            self.sim.tracer.record(
                self.sim.now,
                "iface.epoch_adopted",
                node=self.node,
                group=group,
                epoch=epoch,
                epoch_start=epoch_start,
            )

    # ------------------------------------------------------------------
    # Reliable-multicast recovery (NACK + heartbeat)
    # ------------------------------------------------------------------

    def _schedule_gap_check(self, group: str) -> None:
        if group in self._gap_check_pending:
            return
        self._gap_check_pending.add(group)
        expected_at_schedule = self._next_seq[group]
        self.sim.schedule(
            self.nack_timeout,
            lambda: self._gap_check(group, expected_at_schedule),
        )

    def _gap_check(self, group: str, expected_at_schedule: int) -> None:
        self._gap_check_pending.discard(group)
        if not self._reorder[group]:
            return
        if self._next_seq[group] > expected_at_schedule:
            # Progress was made; give the stream another timeout before
            # declaring the remaining gap lost.
            self._schedule_gap_check(group)
            return
        self._send_nack(group)
        self._schedule_gap_check(group)

    def _send_nack(self, group: str) -> None:
        self.nacks_sent += 1
        root = self.groups[group].root
        self.network.send(
            Message(
                src=self.node,
                dst=root,
                kind="gwc.nack",
                payload=(group, self._next_seq[group], self.node),
                size_bytes=self.network.params.packet_bytes,
            )
        )
        if self.sim.trace_enabled:
            self.sim.tracer.record(
                self.sim.now,
                "iface.nack",
                node=self.node,
                group=group,
                from_seq=self._next_seq[group],
            )

    def _on_heartbeat(
        self,
        group: str,
        latest_seq: int,
        epoch: int = 0,
        epoch_start: int = 0,
    ) -> None:
        """Root heartbeat: detect tail loss (a gap nothing follows)."""
        if self.nack_timeout is None or group not in self._next_seq:
            return
        current_epoch = self._epoch[group]
        if epoch < current_epoch:
            return  # A deposed root's trailing heartbeat: ignore.
        if epoch > current_epoch:
            self._adopt_epoch(group, epoch, epoch_start)
        if self._next_seq[group] <= latest_seq:
            self._send_nack(group)

    def _process(self, packet: ApplyPacket) -> None:
        """Filter, apply, and possibly interrupt — one in-order packet."""
        if packet.value is SUPPRESSED:
            # A header-only apply to an unsubscribed member: the sequence
            # number is consumed, the stale local value stays.
            self.suppressed_applies += 1
            return
        if self.nack_timeout is not None:
            # Failover evidence: record the sequenced value *before* the
            # echo filter so a holder's own committed writes are part of
            # its image (the store diverges — the origin applied the
            # write locally at issue time, possibly speculatively).
            self._applied[packet.var] = packet.value
            if packet.is_lock:
                self._applied_lock_seq[packet.var] = packet.seq
                if packet.rebuilt and packet.value == grant_value(self.node):
                    local = self.store.read(packet.var)
                    if local != packet.value and local != request_value(
                        self.node
                    ):
                        # A rebuilt grant for a lock this node neither
                        # holds nor wants: its release died with the old
                        # root after the evidence was captured.  Decline
                        # by re-sharing FREE so the new root passes the
                        # lock on instead of leasing it to an unwilling
                        # holder.
                        self.declined_regrants += 1
                        if self.sim.trace_enabled:
                            self.sim.tracer.record(
                                self.sim.now,
                                "iface.regrant_declined",
                                node=self.node,
                                lock=packet.var,
                                seq=packet.seq,
                            )
                        self.share_write(packet.var, FREE_VALUE)
                        return
        # Inlined HardwareBlockingFilter.should_drop (Figure 6): drop a
        # root echo of this node's own mutex-group data.  Kept branch-
        # for-branch identical so ``filter.dropped`` stays exact.
        flt = self.filter
        if (
            flt.enabled
            and not packet.is_lock
            and packet.origin == self.node
            and packet.is_mutex_data
        ):
            flt.dropped += 1
            if self.sim.trace_enabled:
                self.sim.tracer.record(
                    self.sim.now,
                    "iface.echo_dropped",
                    node=self.node,
                    var=packet.var,
                    seq=packet.seq,
                )
            return
        self.store.write(packet.var, packet.value)
        self.applied_count += 1
        if packet.is_lock:
            handler = self._interrupts.pop(packet.var, None)
            if handler is not None:
                # Atomic with the apply: same simulator event.
                self._suspended = True
                if self.sim.trace_enabled:
                    self.sim.tracer.record(
                        self.sim.now,
                        "iface.lock_interrupt",
                        node=self.node,
                        lock=packet.var,
                        value=packet.value,
                    )
                handler(packet.value)


def apply_cohort(cohort: tuple) -> None:
    """Deliver one sequenced apply to every interface of a cohort.

    ``cohort[0]`` holds the interfaces whose FIFO-clamped arrivals
    coincide, in target order, and ``cohort[1]`` the :class:`ApplyPacket`
    they share (the record :meth:`Network.send_fanout` schedules).  Per
    recipient this is ``on_message -> _receive -> _process ->
    store.write`` inside the one event, with the common case inline: an
    in-order, current-epoch packet on an unsuspended interface with
    nothing buffered skips :meth:`NodeInterface._receive`, and a plain
    commit — a value for a declared variable, no failover evidence to
    keep, not this node's own mutex-data echo (Figure 6), no interrupt
    armed on it — skips :meth:`NodeInterface._process`.  A recipient
    whose ``_process`` or ``store.write`` is overridden on the instance
    (``OrderProbe``, test spies) always goes through them: an observer
    sees every apply.
    """
    packet = cohort[1]
    group = packet.group
    seq = packet.seq
    epoch = packet.epoch
    var = packet.var
    value = packet.value
    origin = packet.origin
    is_lock = packet.is_lock
    echo = packet.is_mutex_data and not is_lock
    suppressed = value is SUPPRESSED
    for iface in cohort[0]:
        # Forward before this node's own ordering checks (_relay_apply).
        if iface._relay_mode:
            iface._relay_apply(packet)
        if (
            iface._next_seq.get(group) != seq
            or iface._epoch[group] != epoch
            or iface._reorder[group]
            or iface._suspended
        ):
            iface._receive(packet)
            continue
        iface._next_seq[group] = seq + 1
        store = iface.store
        slot = store._slots.get(var)
        if (
            slot is None
            or suppressed
            or iface.nack_timeout is not None
            or (echo and origin == iface.node)
            or (is_lock and var in iface._interrupts)
            or "_process" in iface.__dict__
            or "write" in store.__dict__
        ):
            iface._process(packet)
            continue
        # LocalStore.write, inlined: commit, count, wake waiters.
        slot[0] = value
        slot[1] += 1
        signal = slot[2]
        if signal is not None:
            signal.fire(value)
        iface.applied_count += 1
