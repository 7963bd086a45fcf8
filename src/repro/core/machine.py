"""The DSM machine: processors + interconnect + sharing groups.

:class:`DSMMachine` assembles a complete simulated system: a
deterministic simulator, the chosen topology and cost parameters, one
:class:`~repro.core.node.NodeHandle` per processor (local store +
eagersharing interface + metrics), and any number of sharing groups with
their variables, locks, and root engines.

Typical construction::

    machine = DSMMachine(n_nodes=8)
    machine.create_group("g")                       # all nodes, root 0
    machine.declare_variable("g", "counter", 0, mutex_lock="L")
    machine.declare_lock("g", "L", protects=("counter",))
    system = make_system("gwc_optimistic", machine)
    machine.spawn_workers(worker_fn, system)        # or machine.sim.spawn
    machine.run()
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Iterable

from repro.consistency.checker import MutualExclusionChecker
from repro.core.node import NodeHandle
from repro.errors import MemoryError_, NetworkError
from repro.memory.interface import NodeInterface
from repro.memory.sharing_group import GroupFamily, SharingGroup
from repro.memory.store import LocalStore
from repro.memory.varspace import FREE_VALUE, LockDecl, VarDecl
from repro.metrics.collector import MachineMetrics
from repro.net.message import Message
from repro.net.network import Network
from repro.net.topology import make_topology
from repro.params import PAPER_PARAMS, MachineParams
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer

#: Handler for non-GWC protocol traffic: ``handler(node_id, message)``.
KindHandler = Callable[[int, Message], None]


class DSMMachine:
    """A simulated distributed-shared-memory machine."""

    def __init__(
        self,
        n_nodes: int,
        topology: str = "mesh_torus",
        params: MachineParams = PAPER_PARAMS,
        seed: int = 0,
        tracer: Tracer | None = None,
        echo_blocking: bool = True,
        checker: MutualExclusionChecker | None = None,
        loss_rate: float = 0.0,
        reliable: bool = False,
        lossy_failover: bool = False,
    ) -> None:
        self.params = params
        self.sim = Simulator(seed=seed, tracer=tracer)
        self.topology = make_topology(topology, n_nodes)
        self.loss_model = None
        nack_timeout = None
        if loss_rate > 0.0 or reliable:
            # ``reliable`` arms the NACK/heartbeat/duplicate-tolerance
            # machinery without random loss — needed when a fault
            # injector (rather than the loss model) removes or
            # duplicates messages.
            if loss_rate > 0.0:
                from repro.net.loss import LossModel

                self.loss_model = LossModel(
                    loss_rate,
                    self.sim.rng.stream("loss"),
                    lossy_failover=lossy_failover,
                )
            nack_timeout = params.nack_timeout(self.topology.diameter())
        self.nack_timeout = nack_timeout
        self.network = Network(self.sim, self.topology, params, self.loss_model)
        self.metrics = MachineMetrics(n_nodes)
        self.checker = checker
        #: Installed by :class:`repro.faults.failover.RootFailoverManager`.
        #: Its presence gates the epoch-fenced critical-section paths;
        #: when ``None`` every section runs the original code path.
        self.failover_manager: Any = None
        #: Set by :mod:`repro.memory.repartition` when online
        #: re-partitioning may bump epochs on live roots; arms the same
        #: fenced critical-section paths failover uses (see
        #: :attr:`epoch_fencing`).
        self._migration_fencing = False
        #: group name -> its family of root partitions (see :meth:`family`).
        self.families: dict[str, GroupFamily] = {}
        #: part name -> part, every family's parts in creation order.
        self.groups: dict[str, SharingGroup] = {}
        self._kind_handlers: dict[str, KindHandler] = {}
        self._per_node_handlers: dict[
            str, Callable[[int, str], Callable[[Message], None]]
        ] = {}
        self._iface_free_at: dict[int, float] = {}
        self.nodes: list[NodeHandle] = []
        for node_id in range(n_nodes):
            store = LocalStore(node_id)
            iface = NodeInterface(
                self.sim,
                self.network,
                node_id,
                store,
                echo_blocking=echo_blocking,
                nack_timeout=nack_timeout,
            )
            handle = NodeHandle(
                node_id=node_id,
                sim=self.sim,
                store=store,
                iface=iface,
                metrics=self.metrics[node_id],
                params=params,
            )
            self.nodes.append(handle)
            dispatcher = self._make_dispatcher(node_id)
            if params.interface_service_time <= 0.0:
                # Immediate dispatch is stateless per message, so the
                # network may resolve (dst, kind) -> final callable once
                # and skip the dispatcher frame on every delivery — and
                # hand a multicast apply to a whole cohort of interfaces
                # at once (the "gwc" prefix is registered below).
                self.network.attach(
                    node_id,
                    dispatcher,
                    resolver=partial(self._resolve_kind, node_id),
                    batch=iface.batch_delivery_for,
                )
            else:
                self.network.attach(node_id, dispatcher)
        self.register_kind_handler(
            "gwc",
            lambda node_id, msg: self.nodes[node_id].iface.on_message(msg),
            per_node=lambda node_id, kind: self.nodes[node_id].iface.delivery_for(
                kind
            ),
        )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def migration_fencing(self) -> bool:
        """Whether online re-partitioning may fence live-root epochs."""
        return self._migration_fencing

    @property
    def epoch_fencing(self) -> bool:
        """Whether critical sections must run the epoch-fenced paths.

        True when root failover is installed *or* online re-partitioning
        is armed — both can bump a group's epoch under a live section,
        which the fenced lock-held and optimistic runners detect and
        turn into a rollback + re-run.
        """
        return self.failover_manager is not None or self._migration_fencing

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _make_dispatcher(self, node_id: int) -> Callable[[Message], None]:
        # Per-node cache of kind -> single-argument delivery callable.
        # Prefixes registered with a ``per_node`` resolver collapse to
        # the node's bound method (no intermediate dispatch frame);
        # others fall back to ``handler(node_id, msg)``.
        kind_cache: dict[str, Callable[[Message], None]] = {}

        def handle(msg: Message) -> None:
            fn = kind_cache.get(msg.kind)
            if fn is None:
                fn = self._resolve_kind(node_id, msg.kind)
                kind_cache[msg.kind] = fn
            fn(msg)

        service = self.params.interface_service_time
        if service <= 0.0:
            return handle

        def dispatch_serialized(msg: Message) -> None:
            # The node's interface processes one inbound message at a
            # time: a hot node (e.g. an overloaded global root) queues.
            start = max(self.sim.now, self._iface_free_at.get(node_id, 0.0))
            done = start + service
            self._iface_free_at[node_id] = done
            self.sim.at_fn(done, partial(handle, msg))

        return dispatch_serialized

    def _resolve_kind(self, node_id: int, kind: str) -> Callable[[Message], None]:
        """Build the delivery callable for one (node, kind) pair.

        Unknown kinds resolve to a callable that raises on *delivery*,
        matching the historical behaviour of failing when the message
        event fires rather than when it is sent.
        """
        prefix = kind.split(".", 1)[0]
        resolver = self._per_node_handlers.get(prefix)
        if resolver is not None:
            return resolver(node_id, kind)
        handler = self._kind_handlers.get(prefix)
        if handler is None:
            def unknown_kind(msg: Message) -> None:
                raise NetworkError(
                    f"node {node_id}: no handler for message kind {msg.kind!r}"
                )

            return unknown_kind
        return partial(handler, node_id)

    def register_kind_handler(
        self,
        prefix: str,
        handler: KindHandler,
        per_node: Callable[[int, str], Callable[[Message], None]] | None = None,
    ) -> None:
        """Route messages whose kind starts with ``prefix + '.'``.

        Args:
            prefix: Kind prefix (the part before the first ``.``).
            handler: Generic ``handler(node_id, msg)`` callback.
            per_node: Optional ``(node_id, kind) ->`` direct delivery
                callable resolver; when given, dispatch skips the
                generic handler's extra call frame.
        """
        if prefix in self._kind_handlers:
            raise NetworkError(f"kind prefix {prefix!r} already registered")
        self._kind_handlers[prefix] = handler
        if per_node is not None:
            self._per_node_handlers[prefix] = per_node

    # ------------------------------------------------------------------
    # Groups, variables, locks
    # ------------------------------------------------------------------

    def create_group(
        self,
        name: str,
        members: Iterable[int] | None = None,
        root: int = 0,
        roots: Iterable[int] | None = None,
        partition_seed: int = 0,
        fanout: int | None = None,
    ) -> SharingGroup:
        """Create a sharing group (default: all nodes, rooted at node 0).

        With ``roots=(r0, r1, ...)`` the group's address space is
        *root-sharded*: a :class:`GroupFamily` of K parts over the same
        members — part 0 keeps ``name``, part k is ``{name}@r{k}`` —
        each with its own root, sequencer, and epoch.  Its partition
        map, seeded with ``partition_seed``, deterministically assigns
        every declared variable/lock unit to one part.  ``fanout``
        bounds per-node multicast degree via a hierarchical relay tree
        (None = direct root fanout).  Returns part 0.
        """
        member_tuple = (
            tuple(range(self.n_nodes)) if members is None else tuple(members)
        )
        root_tuple = (root,) if roots is None else tuple(roots)
        if len(set(root_tuple)) != len(root_tuple):
            raise MemoryError_(f"group {name!r}: duplicate roots {root_tuple}")
        family = GroupFamily.build(
            name, self.network, member_tuple, root_tuple, fanout, partition_seed
        )
        for part in family.parts:
            if part.name in self.groups:
                raise MemoryError_(f"group {part.name!r} already exists")
        from repro.consistency.gwc import GroupRootEngine

        self.families[name] = family
        for part in family.parts:
            self.groups[part.name] = part
            for node_id in part.members:
                self.nodes[node_id].iface.join_group(part)
            # The root engine lives on the root node's interface.
            engine = GroupRootEngine(self.sim, part, self.params.packet_bytes)
            if self.nack_timeout is not None:
                engine.enable_reliability(heartbeat_interval=self.nack_timeout)
            self.nodes[part.root].iface.root_engines[part.name] = engine
        return family.parts[0]

    def family(self, name: str) -> GroupFamily:
        """The group (family of root partitions) called ``name``."""
        try:
            return self.families[name]
        except KeyError:
            raise MemoryError_(f"no group {name!r}") from None

    def root_engine(self, group: str) -> "GroupRootEngine":  # noqa: F821
        """The root engine of part ``group`` (lives at the part's root)."""
        try:
            part = self.groups[group]
        except KeyError:
            raise MemoryError_(f"no group {group!r}") from None
        return self.nodes[part.root].iface.root_engines[group]

    def engines_for(self, family: str) -> "tuple[GroupRootEngine, ...]":  # noqa: F821
        """All root engines of a family, in partition order."""
        return tuple(self.root_engine(p.name) for p in self.family(family).parts)

    def declare_variable(
        self,
        group: str,
        name: str,
        initial: Any = 0,
        mutex_lock: str | None = None,
        size_bytes: int = 8,
    ) -> VarDecl:
        """Declare an eagerly shared variable on a group (family).

        In a sharded-root family the variable lands on the subgroup its
        partition-map unit hashes to; variables with a ``mutex_lock``
        share that lock's unit, so grants and mutex-data discard
        decisions always happen on the owning root.
        """
        family = self.family(group)
        family.pmap.register(name, mutex_lock)
        grp = family.home(name)
        decl = VarDecl(
            name=name,
            group=grp.name,
            initial=initial,
            size_bytes=size_bytes,
            mutex_lock=mutex_lock,
        )
        grp.declare_variable(decl)
        for node_id in grp.members:
            self.nodes[node_id].store.declare(name, initial)
        return decl

    def declare_lock(
        self,
        group: str,
        name: str,
        protects: Iterable[str] = (),
        data_bytes: int = 64,
    ) -> LockDecl:
        """Declare a lock on a group; installs the root-side manager."""
        family = self.family(group)
        family.pmap.register(name)
        grp = family.home(name)
        decl = LockDecl(
            name=name,
            group=grp.name,
            protects=tuple(protects),
            data_bytes=data_bytes,
        )
        grp.declare_lock(decl)
        for node_id in grp.members:
            self.nodes[node_id].store.declare(name, FREE_VALUE)
        self.root_engine(grp.name).add_lock(decl)
        return decl

    def group_of_lock(self, name: str) -> SharingGroup:
        """The part that declares lock ``name`` (its manager's root)."""
        for group in self.groups.values():
            if name in group.locks:
                return group
        raise MemoryError_(f"no group declares lock {name!r}")

    def enable_span_recording(self) -> None:
        """Keep per-interval busy records for timeline rendering."""
        for node in self.nodes:
            node.metrics.record_spans()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def spawn(
        self, gen: Generator[Any, Any, Any], name: str = "process"
    ) -> "Process":  # noqa: F821
        return self.sim.spawn(gen, name)

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        check_quiescent: bool = True,
    ) -> float:
        """Run to completion; records elapsed time into the metrics."""
        elapsed = self.sim.run(until=until, max_events=max_events)
        self.metrics.elapsed = elapsed
        if check_quiescent and until is None:
            self.sim.check_quiescent()
        return elapsed
