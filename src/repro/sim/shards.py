"""The sharded simulation kernel: replicas under lookahead windows.

The node set is partitioned into shards (sharing-group-aware contiguous
blocks, :class:`ShardPlan`).  Each shard runs a **full replica** of the
machine, built from the same deterministic factory as a serial run, but
only spawns the processes of the nodes it owns
(:meth:`~repro.core.machine.DSMMachine.spawn_for`).  A
:class:`ShardRouter` installed on each replica's network diverts sends
addressed to non-owned nodes into an outbox; the coordinator
(:class:`ShardedSimulator`) stamps them with globally unique delivery
keys and injects them into the owning replica's event heap.
Intra-shard traffic never leaves the replica's fast path.

Synchronization: every round, each shard drains events strictly below
``GVT + lookahead``, where GVT is the earliest pending event anywhere
and lookahead is the minimum cross-shard wire latency.  A message sent
at time ``s >= GVT`` arrives at ``s + latency >= GVT + lookahead`` — at
or beyond every shard's horizon — so a delivery can never land in a
shard's executed past and no shard ever has to undo work.  The router
still checks each delivery against the target's local virtual time; a
hit means the lookahead bound was violated and ends the run with
:class:`~repro.errors.ShardingError`.

Arrival ordering: in the serial kernel a delivery's sequence number is
allocated at *send* time, so two messages arriving at the same instant
fire in send order, and both fire before anything their handlers later
schedule at that instant.  A partitioned run cannot share one counter,
so every arrival in a routed replica — intra-shard and cross-shard
alike — is keyed ``(arrival, _DELIVERY_PRIORITY, token)`` where the
token is ``(send time, src node, per-src send index)``.  The priority
band sorts arrivals before every same-time local event (zero-delay
wakeups a handler schedules key-sort after their delivery), and the
token orders arrivals among themselves by send time exactly as the
serial counter does, while staying independent of any replica-local
counter.

Determinism and parity: a shard's execution is a pure function of its
factory and the injected delivery sequence, so the merged final state
(each node read from its owning replica, each group's lock table from
the root's owner) is bit-identical to a serial run — enforced via
:mod:`repro.sim.statehash` by the shard-parity tests and the
``shard-smoke`` CI gate.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ShardingError
from repro.net.message import Message
from repro.sim.event import PRIORITY_ARRIVAL_BAND
from repro.sim.kernel import EventKey

#: Priority band for message arrivals in a routed replica.  Far below
#: every local priority (URGENT is -1), so an arrival fires *before*
#: any same-time local event; the seq slot holds a ``(send time, src
#: node, per-src send index)`` token that orders same-time arrivals in
#: send order, exactly as the serial kernel's seq-at-send-time counter
#: does.  Both directions are load-bearing: events a delivery handler
#: schedules at the same timestamp (zero-delay wakeups) get ordinary
#: local keys, which must sort *after* the delivery, and two arrivals
#: colliding at one instant must fire in send order whichever shard
#: each came from.  With band ordering, execution order within a
#: replica always equals key order, so "key at or below the replica's
#: local virtual time" means exactly "in its executed past".
_DELIVERY_PRIORITY = PRIORITY_ARRIVAL_BAND

#: Priority bound used to build the exclusive window limit key
#: (strictly outside both the delivery band and local priorities).
_PRIORITY_CEILING = 1 << 30


class ShardPlan:
    """A partition of node ids into shards.

    Built group-aware: nodes sharing a group are clustered (union-find)
    and clusters are kept whole when they fit a shard's quota, so most
    sharing traffic stays intra-shard; clusters larger than one quota
    (e.g. a single machine-wide group) split into contiguous blocks —
    the root's shard then sees the cross-shard root<->member traffic.
    """

    __slots__ = ("owner", "n_nodes", "n_shards")

    def __init__(self, owner: Sequence[int]) -> None:
        if not owner:
            raise ShardingError("a shard plan needs at least one node")
        shards = sorted(set(owner))
        if shards != list(range(len(shards))):
            raise ShardingError(f"shard ids must be dense from 0: {shards}")
        self.owner = tuple(owner)
        self.n_nodes = len(self.owner)
        self.n_shards = len(shards)

    def __repr__(self) -> str:
        return f"ShardPlan(owner={self.owner})"

    def shard_of(self, node: int) -> int:
        return self.owner[node]

    def owned(self, shard: int) -> frozenset[int]:
        return frozenset(
            node for node, owner in enumerate(self.owner) if owner == shard
        )

    @classmethod
    def from_groups(
        cls,
        n_nodes: int,
        n_shards: int,
        groups: Iterable[Iterable[int]] = (),
    ) -> "ShardPlan":
        """Partition ``n_nodes`` into up to ``n_shards`` shards.

        ``groups`` are member sets whose nodes should co-locate when
        possible.  The result may use fewer shards than requested (never
        more than there are nodes); shard ids are dense and ordered by
        their smallest node, with node 0 always in shard 0.
        """
        if n_nodes < 1:
            raise ShardingError(f"need at least one node: {n_nodes}")
        if n_shards < 1:
            raise ShardingError(f"need at least one shard: {n_shards}")
        n_shards = min(n_shards, n_nodes)
        parent = list(range(n_nodes))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for members in groups:
            members = list(members)
            for member in members[1:]:
                root_a, root_b = find(members[0]), find(member)
                if root_a != root_b:
                    parent[root_b] = root_a
        clusters: dict[int, list[int]] = {}
        for node in range(n_nodes):
            clusters.setdefault(find(node), []).append(node)
        ordered = sorted(clusters.values(), key=lambda c: c[0])

        quota = -(-n_nodes // n_shards)  # ceil
        owner = [0] * n_nodes
        shard = 0
        filled = 0
        for cluster in ordered:
            # Keep a cluster whole when it fits the next shard's
            # remaining space; otherwise (or when it can never fit)
            # stream it across shards contiguously.
            if filled and filled + len(cluster) > quota and shard < n_shards - 1:
                shard += 1
                filled = 0
            for node in cluster:
                if filled >= quota and shard < n_shards - 1:
                    shard += 1
                    filled = 0
                owner[node] = shard
                filled += 1
        # Renumber densely in first-appearance order (node 0 -> shard 0).
        remap: dict[int, int] = {}
        for node in range(n_nodes):
            remap.setdefault(owner[node], len(remap))
        return cls(tuple(remap[owner[node]] for node in range(n_nodes)))


class ShardRouter:
    """Per-replica send interceptor (installed on the replica's network).

    Collects cross-shard emissions into an outbox the coordinator flushes
    each round.
    """

    __slots__ = ("owned", "outbox")

    def __init__(self, owned: frozenset[int]) -> None:
        self.owned = owned
        #: ``(msg, arrival, copies, token)`` in emission order; ``token``
        #: is the send-order key the network stamped (see
        #: :data:`_DELIVERY_PRIORITY`).
        self.outbox: list[tuple[Message, float, int, tuple]] = []

    def emit(
        self, msg: Message, arrival: float, copies: int, token: tuple
    ) -> None:
        self.outbox.append((msg, arrival, copies, token))


class _Shard:
    """One shard: the nodes it owns and its replica of the machine."""

    __slots__ = ("owned", "machine", "system", "router", "lvt")

    def __init__(
        self,
        owned: frozenset[int],
        machine: Any,
        system: Any,
        router: ShardRouter,
    ) -> None:
        self.owned = owned
        self.machine = machine
        self.system = system
        self.router = router
        #: Key of the last executed event (local virtual time), or None.
        self.lvt: EventKey | None = None

    def drain(self, limit: EventKey) -> int:
        fired, last = self.machine.sim.run_window(limit)
        if last is not None:
            self.lvt = last
        return fired

    def inject(self, key: EventKey, msg: Message) -> None:
        """Schedule ``msg``'s delivery in this replica's heap at ``key``.

        The handler is resolved against *this* replica's network; the
        message object is the sender's, as in a serial run.
        """
        network = self.machine.network
        handler = network._direct.get((msg.dst, msg.kind))
        if handler is None:
            handler = network._resolve_direct(msg.dst, msg.kind)
        time, priority, seq = key
        self.machine.sim._queue.push_at_key(
            time, priority, seq, partial(handler, msg)
        )


class ShardStats:
    """Aggregate behaviour counters for one sharded run."""

    __slots__ = ("rounds", "executed", "routed")

    def __init__(self) -> None:
        self.rounds = 0
        #: Events fired across all replicas.
        self.executed = 0
        #: Cross-shard deliveries (one per copy).
        self.routed = 0

    def summary(self) -> dict[str, int]:
        return {
            "rounds": self.rounds,
            "executed": self.executed,
            "routed": self.routed,
        }


#: A factory builds one replica: ``factory(owned) -> (machine, system)``.
#: ``owned=None`` must build the plain serial machine; with a frozenset
#: it must set ``machine.shard_owned`` (or use ``spawn_for``) so only
#: owned processes spawn.  The build must be deterministic: every
#: replica comes from this function.
ShardFactory = Callable[[frozenset[int] | None], tuple[Any, Any]]


def build_replica(factory: ShardFactory, owned: frozenset[int]) -> _Shard:
    """Build and validate one shard's replica."""
    machine, system = factory(owned)
    if machine.shard_owned != owned:
        raise ShardingError(
            "factory must set machine.shard_owned to the owned set "
            f"(got {machine.shard_owned!r}, want {set(owned)!r})"
        )
    if not getattr(system, "shardable", False):
        raise ShardingError(
            f"system {getattr(system, 'name', system)!r} is not "
            "shardable (not message-pure); run serial"
        )
    if machine.loss_model is not None:
        raise ShardingError(
            "random loss models are not shardable: per-replica RNG "
            "draw order diverges from the serial kernel"
        )
    if machine.failover_manager is not None:
        raise ShardingError(
            "root failover crosses replica boundaries (direct engine "
            "state reads); not supported under sharding"
        )
    router = ShardRouter(owned)
    machine.network.install_shard_router(router)
    return _Shard(owned, machine, system, router)


def min_cross_latency(machine: Any, owner: Sequence[int]) -> float:
    """The lookahead: the smallest cross-shard wire latency."""
    topology = machine.topology
    hop = machine.params.hop_latency
    best = float("inf")
    n_nodes = len(owner)
    for src in range(n_nodes):
        for dst in range(n_nodes):
            if owner[src] == owner[dst]:
                continue
            latency = topology.hops(src, dst) * hop
            if latency < best:
                best = latency
    if best == float("inf"):
        # Single shard: no cross traffic; any positive window works.
        return hop if hop > 0 else 0.0
    return best


def check_merged_spans(spans: list[tuple[str, float, float, int]]) -> None:
    """Verify mutual exclusion across merged per-replica section spans.

    Per-replica checkers only see their own nodes' sections; the merged
    ``(lock, enter, exit, node)`` spans re-verify exclusion across shard
    boundaries.
    """
    spans.sort()
    previous: dict[str, tuple[float, int]] = {}
    for lock, enter, exit_, node in spans:
        last = previous.get(lock)
        if last is not None and enter < last[0]:
            raise ShardingError(
                f"merged mutual exclusion violated on {lock!r}: node "
                f"{node} entered at t={enter} before node {last[1]} "
                f"exited at t={last[0]}"
            )
        previous[lock] = (exit_, node)


class ShardedSimulator:
    """Coordinates N shard replicas under one virtual clock.

    Args:
        factory: Deterministic replica builder (see :data:`ShardFactory`).
        plan: Node-to-shard assignment.
    """

    def __init__(self, factory: ShardFactory, plan: ShardPlan) -> None:
        self.plan = plan
        self.stats = ShardStats()
        #: Optional observer called with each round's GVT estimate
        #: (campaign oracles hook GvtMonitor.note here).  Must be
        #: read-only: it runs inside the round loop.
        self.on_gvt: Callable[[float], None] | None = None
        self.shards = [
            build_replica(factory, plan.owned(index))
            for index in range(plan.n_shards)
        ]
        self._finished = False
        first = self.shards[0].machine
        self.n_nodes = first.n_nodes
        self.lookahead = min_cross_latency(first, plan.owner)
        if self.lookahead <= 0.0:
            raise ShardingError(
                "zero cross-shard lookahead (hop_latency=0 or co-located "
                "shards): sharding cannot make progress; run serial"
            )

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------

    def _gvt(self) -> float | None:
        """Earliest pending event time across all replicas."""
        best: float | None = None
        for shard in self.shards:
            queue = shard.machine.sim._queue
            if queue:
                time = queue.peek_time()
                if best is None or time < best:
                    best = time
        return best

    def run(self, max_rounds: int | None = None) -> float:
        """Drive all shards to completion; returns the final clock."""
        if self._finished:
            raise ShardingError("sharded run already finished")
        while True:
            gvt = self._gvt()
            if gvt is None:
                break
            if self.on_gvt is not None:
                self.on_gvt(gvt)
            self.stats.rounds += 1
            if max_rounds is not None and self.stats.rounds > max_rounds:
                raise ShardingError(
                    f"exceeded max_rounds={max_rounds}; likely a livelock"
                )
            horizon: EventKey = (gvt + self.lookahead, -_PRIORITY_CEILING, 0)
            for shard in self.shards:
                self.stats.executed += shard.drain(horizon)
            self._route_round()
        self._finished = True
        return self.elapsed

    def _route_round(self) -> None:
        """Flush outboxes, stamp delivery keys, inject into the owners.

        A routed delivery's key is ``(arrival, band, token)`` with the
        send-order token the source network stamped at emission time —
        the same key the arrival would have carried had it stayed
        intra-shard, so cross- and intra-shard arrivals colliding at one
        instant order exactly as in a serial run; the parity tests hold
        this to bit-identical final state.
        """
        owner = self.plan.owner
        for source in self.shards:
            outbox = source.router.outbox
            for msg, arrival, copies, token in outbox:
                target = self.shards[owner[msg.dst]]
                send_time, send_src, send_idx = token
                lvt = target.lvt
                for copy in range(copies):
                    key: EventKey = (
                        arrival,
                        _DELIVERY_PRIORITY,
                        (send_time, send_src, send_idx + copy),
                    )
                    if lvt is not None and key <= lvt:
                        # Straggler: arrived in the shard's executed past.
                        raise ShardingError(
                            f"straggler {msg} at {key} behind local "
                            f"virtual time {lvt}: the lookahead bound was "
                            "violated (internal error)"
                        )
                    target.inject(key, msg)
                    self.stats.routed += 1
            outbox.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def machines(self) -> list[Any]:
        """The replica machines, by shard index."""
        return [shard.machine for shard in self.shards]

    @property
    def system_name(self) -> str:
        return self.shards[0].system.name

    @property
    def elapsed(self) -> float:
        """The final clock: time of the last event executed anywhere."""
        return max(shard.machine.sim.now for shard in self.shards)

    def node(self, node_id: int) -> Any:
        """Node ``node_id``'s handle from its owning replica."""
        return self.shards[self.plan.owner[node_id]].machine.nodes[node_id]

    @property
    def nodes(self) -> list[Any]:
        """All node handles, each from its owning replica."""
        return [self.node(node_id) for node_id in range(self.n_nodes)]

    def merged_metrics(self) -> Any:
        """A MachineMetrics view merging every node's owning replica."""
        from repro.metrics.collector import MachineMetrics

        merged = MachineMetrics(self.n_nodes)
        merged.nodes = [
            self.node(node_id).metrics for node_id in range(self.n_nodes)
        ]
        merged.elapsed = self.elapsed
        return merged

    def state_hash(self) -> str:
        """Canonical hash of the merged final state (parity comparator)."""
        from repro.sim.statehash import state_hash

        return state_hash(self.machines, self.plan.owner)

    def verify(self) -> None:
        """Post-run checks: quiescence and global mutual exclusion."""
        for shard in self.shards:
            shard.machine.sim.check_quiescent()
        checkers = [
            shard.machine.checker
            for shard in self.shards
            if shard.machine.checker is not None
        ]
        for checker in checkers:
            checker.verify_no_occupancy()
        spans: list[tuple[str, float, float, int]] = []
        for checker in checkers:
            for span in checker.spans:
                spans.append((span.lock, span.enter, span.exit, span.node))
        check_merged_spans(spans)
