"""Point-to-point message delivery with the paper's delay model.

A :class:`Network` owns the topology and the cost parameters.  Sending a
message from ``a`` to ``b`` costs::

    hops(a, b) * hop_latency  +  size_bytes / link_bandwidth

Channels are FIFO: the network never delivers message *m2* sent after
*m1* on the same ``(src, dst)`` channel before *m1* arrives, even if *m2*
is smaller.  Group write consistency's sequencing guarantee is built on
this property, exactly as Sesame builds it on ordered hardware links.

The send path is performance-critical (every protocol message crosses
it), so the per-pair hop latency is memoized, delivery is scheduled by
pushing a ``(arrival, seq, handler, msg)`` entry directly
onto the simulator's event heap (no closure or handle allocation per
send), and the tracer check is a cached boolean rather than a property
call.  A multicast (:meth:`Network.send_fanout`) goes further: its
recipients are grouped into *cohorts* of equal FIFO-clamped arrival
time, and each cohort costs one heap entry and one delivery loop.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable

from repro.errors import NetworkError
from repro.net.message import Message, fire_cohort
from repro.net.topology import Topology
from repro.params import MachineParams
from repro.sim.kernel import Simulator

#: Handler signature for delivered messages.
Handler = Callable[[Message], None]
#: ``batch(kind) -> (fire, receiver) | None`` (see :meth:`Network.attach`).
BatchResolver = Callable[[str], "tuple[Callable[[tuple], None], object] | None"]


@dataclass(slots=True)
class ChannelStats:
    """Aggregate traffic counters kept by the network."""

    messages: int = 0
    bytes: int = 0
    #: Messages removed before delivery — by the loss model or by a
    #: fault injector.  Dropped messages still count as sent traffic
    #: (``messages`` / ``bytes`` / ``outbound``) but never as received
    #: load.  The per-cause split lives in ``loss_dropped`` /
    #: ``fault_dropped``.
    dropped: int = 0
    #: Drops charged to the random :class:`~repro.net.loss.LossModel`.
    loss_dropped: int = 0
    #: Drops charged to a fault injector (crashed endpoint / partition).
    fault_dropped: int = 0
    #: Messages whose delivery a fault injector postponed.
    fault_delayed: int = 0
    #: Extra delivery copies created by duplicate faults.
    fault_duplicated: int = 0
    #: Root-failover counters: apply/heartbeat packets fenced out by
    #: members because they carried a superseded sequencer epoch,
    #: origin writes and lock requests re-issued toward a new root
    #: after its election, and completed root failovers.
    stale_epoch_discards: int = 0
    rerouted_requests: int = 0
    failovers: int = 0
    by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Messages received per node — the load metric that exposes
    #: hot-spots such as an overloaded global root.
    inbound: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    outbound: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: Messages dropped per destination node (loss + fault causes).
    dropped_inbound: dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def hottest_receiver(self) -> tuple[int, int]:
        """(node, message count) of the most-loaded receiver."""
        if not self.inbound:
            return (-1, 0)
        node = max(self.inbound, key=lambda n: self.inbound[n])
        return (node, self.inbound[node])


@dataclass(frozen=True, slots=True)
class _FanoutPlan:
    """The payload-independent part of one ``(src, kind, targets)``
    multicast, resolved once (see :meth:`Network.send_fanout`)."""

    #: ``fire(record)`` delivers one cohort record ``(receivers,
    #: payload, src, kind, size_bytes, sent_at)``: the recipients'
    #: shared batch entry point, or the generic
    #: :func:`~repro.net.message.fire_cohort`.
    fire: Callable[[tuple], None]
    #: Per target, in target order: the ``(src, dst)`` channel key and
    #: what ``fire`` iterates over for that recipient.
    keys: tuple[tuple[int, int], ...]
    receivers: tuple
    #: Targets grouped by hop latency, nearest first: ``(hop latency,
    #: channel keys, receivers)``, members in target order.  Absent
    #: FIFO clamping these are the equal-arrival cohorts.
    cohorts: tuple[tuple[float, tuple, tuple], ...]


class Network:
    """Delivers :class:`Message` objects between attached node handlers."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        params: MachineParams,
        loss_model: "LossModel | None" = None,  # noqa: F821
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.params = params
        self.loss_model = loss_model
        self.stats = ChannelStats()
        self._handlers: dict[int, Handler] = {}
        #: Optional per-node kind resolvers (see :meth:`attach`) and the
        #: lazily filled ``(dst, kind) -> delivery callable`` cache they
        #: feed.  Resolution collapses the per-message dispatch chain to
        #: one dict lookup in :meth:`send`.
        self._resolvers: dict[int, Callable[[str], Handler]] = {}
        self._direct: dict[tuple[int, str], Handler] = {}
        #: Optional per-node batch resolvers (see :meth:`attach`) and the
        #: ``(src, kind, targets) -> plan`` cache of :meth:`send_fanout`.
        self._batchers: dict[int, BatchResolver] = {}
        self._fanout_plans: dict[tuple, _FanoutPlan] = {}
        #: Last scheduled arrival per (src, dst) channel, for FIFO clamping.
        self._last_arrival: dict[tuple[int, int], float] = {}
        #: Memoized ``hops * hop_latency`` per (src, dst) pair, so the
        #: delay model is a dict lookup plus one serialization division.
        self._base_latency: dict[tuple[int, int], float] = {}
        self._link_bandwidth = params.link_bandwidth
        self._hop_latency = params.hop_latency
        #: Deliveries are fire-and-forget (nothing cancels an in-flight
        #: message) and the arrival time is provably >= now, so sends
        #: push ``(arrival, prio, seq, handler, msg)`` entries straight
        #: onto the event heap: no Event handle, no past-check, and no
        #: per-send ``partial`` allocation.
        self._queue = sim._queue
        #: Optional fault injector (see :mod:`repro.faults.injector`).
        #: ``None`` on the hot path keeps fault support free for normal
        #: runs: one identity check per send.
        self._injector: "FaultInjector | None" = None  # noqa: F821

    def install_injector(self, injector: "FaultInjector") -> None:  # noqa: F821
        """Hook a fault injector into the send and delivery paths.

        At most one injector per network.  Installing clears the
        ``(dst, kind)`` delivery cache so future resolutions wrap the
        handler in the injector's delivery guard, which drops in-flight
        messages addressed to a node that crashed after they were sent.
        """
        if self._injector is not None:
            raise NetworkError("a fault injector is already installed")
        self._injector = injector
        self._direct.clear()

    def attach(
        self,
        node: int,
        handler: Handler,
        resolver: Callable[[str], Handler] | None = None,
        batch: BatchResolver | None = None,
    ) -> None:
        """Register the delivery handler for ``node`` (one per node).

        Args:
            node: Destination node id.
            handler: Generic per-message delivery callable.
            resolver: Optional ``resolver(kind) -> callable`` giving the
                final per-kind delivery target, letting the network skip
                the handler's internal dispatch on every message.  Only
                valid when dispatch is stateless per message (e.g. no
                serialized interface-service queueing).
            batch: Optional ``batch(kind) -> (fire, receiver) | None``
                advertising batch delivery, under the same statelessness
                condition.  When every recipient of a
                :meth:`send_fanout` names the same ``fire``, each
                equal-arrival cohort is delivered by one
                ``fire(record)`` call — ``record[0]`` the cohort's
                ``receiver`` objects in target order, ``record[1]`` the
                payload — in place of one :class:`Message` and one
                handler call per recipient.
        """
        if node in self._handlers:
            raise NetworkError(f"node {node} already has a handler attached")
        if not 0 <= node < self.topology.n_nodes:
            raise NetworkError(f"node {node} not in topology {self.topology!r}")
        self._handlers[node] = handler
        if resolver is not None:
            self._resolvers[node] = resolver
        if batch is not None:
            self._batchers[node] = batch

    def _resolve_direct(self, dst: int, kind: str) -> Handler:
        """Fill the ``(dst, kind)`` delivery cache (slow path, once)."""
        resolver = self._resolvers.get(dst)
        if resolver is not None:
            fn = resolver(kind)
        else:
            fn = self._handlers.get(dst)
            if fn is None:
                raise NetworkError(f"no handler attached for destination {dst}")
        injector = self._injector
        if injector is not None:
            fn = injector.guard_delivery(dst, fn)
        self._direct[(dst, kind)] = fn
        return fn

    def delay(self, src: int, dst: int, size_bytes: int) -> float:
        """Raw transfer delay for a message, before FIFO clamping."""
        key = (src, dst)
        base = self._base_latency.get(key)
        if base is None:
            base = self.topology.hops(src, dst) * self._hop_latency
            self._base_latency[key] = base
        return base + size_bytes / self._link_bandwidth

    def send(self, msg: Message) -> float:
        """Inject ``msg``; returns its scheduled arrival time.

        Local sends (``src == dst``) are delivered with zero wire delay but
        still go through the event queue so handler re-entrancy is
        impossible.
        """
        dst = msg.dst
        kind = msg.kind
        handler = self._direct.get((dst, kind))
        if handler is None:
            handler = self._resolve_direct(dst, kind)
        sim = self.sim
        now = sim._now
        msg.sent_at = now

        src = msg.src
        size_bytes = msg.size_bytes
        stats = self.stats
        stats.messages += 1
        stats.bytes += size_bytes
        stats.by_kind[kind] += 1
        stats.outbound[src] += 1

        # Inlined self.delay(): one dict probe plus the serialization
        # division, with the per-pair hop latency memoized on first use.
        key = (src, dst)
        base = self._base_latency.get(key)
        if base is None:
            base = self.topology.hops(src, dst) * self._hop_latency
            self._base_latency[key] = base
        arrival = now + (base + size_bytes / self._link_bandwidth)
        if self.loss_model is not None and self.loss_model.should_drop(msg):
            stats.dropped += 1
            stats.loss_dropped += 1
            stats.dropped_inbound[dst] += 1
            if sim.trace_enabled:
                sim.tracer.record(now, "net.dropped", msg=str(msg), arrival=arrival)
            return arrival
        copies = 1
        clamp_fifo = True
        injector = self._injector
        if injector is not None:
            verdict = injector.on_send(msg)
            if verdict is not None:
                extra_delay, copies, clamp_fifo = verdict
                if copies == 0:
                    # Crashed endpoint or partition-crossing message.
                    stats.dropped += 1
                    stats.fault_dropped += 1
                    stats.dropped_inbound[dst] += 1
                    if sim.trace_enabled:
                        sim.tracer.record(
                            now, "fault.dropped", msg=str(msg), arrival=arrival
                        )
                    return arrival
                if extra_delay > 0.0:
                    arrival += extra_delay
                    stats.fault_delayed += 1
                if copies > 1:
                    stats.fault_duplicated += copies - 1
        if clamp_fifo:
            last_arrival = self._last_arrival
            previous = last_arrival.get(key)
            if previous is not None and arrival < previous:
                arrival = previous
            last_arrival[key] = arrival
        stats.inbound[dst] += copies

        # Inlined EventQueue.push_call (one entry per delivery copy).
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + copies
        heappush(queue._heap, (arrival, seq, handler, msg))
        if copies > 1:
            heap = queue._heap
            for offset in range(1, copies):
                heappush(heap, (arrival, seq + offset, handler, msg))
        queue._live += copies
        if sim.trace_enabled:
            sim.tracer.record(now, "net.send", msg=str(msg), arrival=arrival)
        return arrival

    def _plan_fanout(
        self, src: int, kind: str, targets: tuple[int, ...]
    ) -> _FanoutPlan:
        """Build and cache the fan-out plan for one multicast (once)."""
        batches = []
        for dst in targets:
            batch = self._batchers.get(dst)
            batches.append(batch(kind) if batch is not None else None)
        if None not in batches and len({fire for fire, _ in batches}) == 1:
            fire = batches[0][0]
            receivers = tuple(receiver for _, receiver in batches)
        else:
            fire = fire_cohort
            handlers = []
            for dst in targets:
                handler = self._direct.get((dst, kind))
                if handler is None:
                    handler = self._resolve_direct(dst, kind)
                handlers.append((dst, handler))
            receivers = tuple(handlers)
        keys = tuple((src, dst) for dst in targets)
        by_base: dict[float, list[int]] = {}
        for index, dst in enumerate(targets):
            # delay() of an empty payload is the memoized hop latency.
            by_base.setdefault(self.delay(src, dst, 0), []).append(index)
        cohorts = tuple(
            (
                base,
                tuple(keys[i] for i in members),
                tuple(receivers[i] for i in members),
            )
            for base, members in sorted(by_base.items())
        )
        plan = _FanoutPlan(fire, keys, receivers, cohorts)
        self._fanout_plans[(src, kind, targets)] = plan
        return plan

    def send_fanout(
        self,
        src: int,
        targets: tuple[int, ...],
        kind: str,
        payload: object,
        size_bytes: int,
    ) -> None:
        """Send one payload from ``src`` to every target (multicast path).

        Semantically identical to building and :meth:`send`-ing one
        :class:`Message` per target — same stats, same per-channel
        FIFO-clamped arrivals, same delivery order — but recipients
        whose clamped arrivals coincide share ONE heap entry (a
        *cohort*), delivered by one loop in target order.  The fan-out
        still consumes one sequence number per recipient and keys its
        entries inside that block: the block is contiguous and heap
        keys are ``(time, seq)``, so no foreign event can sort between
        two equal-time recipients and the per-message order is
        reproduced exactly (docs/PROTOCOL.md §8, "Cohort delivery").

        Loss-model, fault-injection, and tracing runs take the plain
        :meth:`send` path so per-message drop decisions and trace
        records stay exactly as before.
        """
        sim = self.sim
        if (
            self.loss_model is not None
            or self._injector is not None
            or sim.trace_enabled
        ):
            for dst in targets:
                self.send(Message(src, dst, kind, payload, size_bytes))
            return
        plan = self._fanout_plans.get((src, kind, targets))
        if plan is None:
            plan = self._plan_fanout(src, kind, targets)
        now = sim._now
        n = len(targets)
        stats = self.stats
        stats.messages += n
        stats.bytes += size_bytes * n
        stats.by_kind[kind] += n
        stats.outbound[src] += n
        inbound = stats.inbound
        for dst in targets:
            inbound[dst] += 1
        last_arrival = self._last_arrival
        serial = size_bytes / self._link_bandwidth
        # Pass 1: the per-channel FIFO clamp, hop cohort by hop cohort.
        # A clamped channel keeps its (later) last arrival; every other
        # member lands on its cohort's arrival.
        cohorts: list[tuple[float, object]] = []
        regroup = False
        for base, keys, receivers in plan.cohorts:
            # The same expression as send(), so it rounds identically.
            arrival = now + (base + serial)
            if cohorts and arrival == cohorts[-1][0]:
                # Two hop latencies rounded onto one instant: they are
                # one cohort, interleaved in target order.
                regroup = True
            cohorts.append((arrival, receivers))
            for key in keys:
                previous = last_arrival.get(key)
                if previous is not None and arrival < previous:
                    regroup = True
                else:
                    last_arrival[key] = arrival
        if regroup:
            # A clamped recipient leaves its hop cohort and joins
            # whichever cohort shares its clamped time, in target order.
            # After pass 1 ``last_arrival`` holds every exact arrival.
            groups: dict[float, list] = {}
            for key, receiver in zip(plan.keys, plan.receivers):
                groups.setdefault(last_arrival[key], []).append(receiver)
            cohorts = list(groups.items())
        queue = self._queue
        heap = queue._heap
        seq = queue._next_seq
        queue._next_seq = seq + n
        fire = plan.fire
        for offset, (arrival, receivers) in enumerate(cohorts):
            record = (receivers, payload, src, kind, size_bytes, now)
            heappush(heap, (arrival, seq + offset, fire, record))
        queue._live += len(cohorts)
