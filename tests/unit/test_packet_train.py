"""Packet-train delivery parity: batched sends must be timing-transparent.

``Network.send_fanout`` and ``Network.send_fanout_train`` are pure
mechanical optimizations over per-message ``send`` calls: every logical
message keeps its own ChannelStats accounting and its own FIFO-clamped
arrival time, and every destination handler sees the same messages in
the same order at the same simulated instants.  These tests drive both
paths with identical traffic and require the observable streams to be
**equal**, not merely close.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.loss import LossModel
from repro.net.message import Message, fire_cohort, fire_train
from repro.net.network import Network
from repro.net.topology import MeshTorus
from repro.params import MachineParams
from repro.sim.kernel import Simulator


def make_net(n=9, loss_model=None, **params):
    sim = Simulator()
    net = Network(sim, MeshTorus(n), MachineParams(**params), loss_model)
    return sim, net


def record_deliveries(sim, net, nodes):
    """Attach recorders; returns {node: [(time, payload, size), ...]}."""
    got = {node: [] for node in nodes}

    def recorder(node):
        return lambda msg: got[node].append((sim.now, msg.payload, msg.size_bytes))

    for node in nodes:
        net.attach(node, recorder(node))
    return got


def stats_snapshot(net):
    s = net.stats
    return {
        "messages": s.messages,
        "bytes": s.bytes,
        "by_kind": dict(s.by_kind),
        "inbound": dict(s.inbound),
        "outbound": dict(s.outbound),
    }


class TestFanoutParity:
    """Satellite: send_fanout must equal one send per target, exactly."""

    def run_per_message(self, payload="p", size=16, warm=None):
        sim, net = make_net()
        got = record_deliveries(sim, net, range(9))
        if warm is not None:
            net.send(Message(src=0, dst=warm[0], kind="warm", size_bytes=warm[1]))
        for dst in range(1, 9):
            net.send(Message(src=0, dst=dst, kind="k", payload=payload, size_bytes=size))
        sim.run()
        return got, stats_snapshot(net)

    def run_fanout(self, payload="p", size=16, warm=None):
        sim, net = make_net()
        got = record_deliveries(sim, net, range(9))
        if warm is not None:
            net.send(Message(src=0, dst=warm[0], kind="warm", size_bytes=warm[1]))
        net.send_fanout(0, tuple(range(1, 9)), "k", payload, size)
        sim.run()
        return got, stats_snapshot(net)

    def test_identical_arrivals_and_stats(self):
        got_a, stats_a = self.run_per_message()
        got_b, stats_b = self.run_fanout()
        assert got_a == got_b
        assert stats_a == stats_b

    def test_fifo_last_arrival_clamp(self):
        """A large in-flight message must clamp the fanout identically."""
        # 4096 bytes to node 1: its serialization dwarfs the 16-byte
        # fanout packet, so the channel (0, 1) clamps the fanout arrival
        # to the large message's arrival while other channels do not.
        warm = (1, 4096)
        got_a, stats_a = self.run_per_message(warm=warm)
        got_b, stats_b = self.run_fanout(warm=warm)
        assert got_a == got_b
        assert stats_a == stats_b
        # The clamp actually engaged: node 1 got both at the same time.
        times_at_1 = [t for t, *_ in got_a[1]]
        assert times_at_1[0] == times_at_1[1]


class TestTrainParity:
    """send_fanout_train == send_fanout per entry, byte for byte."""

    TARGETS = tuple(range(1, 9))

    def run_fanouts(self, payloads, sizes, loss_model=None):
        sim, net = make_net(loss_model=loss_model)
        got = record_deliveries(sim, net, range(9))
        for payload, size in zip(payloads, sizes):
            net.send_fanout(0, self.TARGETS, "k", payload, size)
        sim.run()
        return got, stats_snapshot(net)

    def run_train(self, payloads, sizes, loss_model=None):
        sim, net = make_net(loss_model=loss_model)
        got = record_deliveries(sim, net, range(9))
        net.send_fanout_train(0, self.TARGETS, "k", payloads, sizes)
        sim.run()
        return got, stats_snapshot(net)

    def test_equal_sizes_coalesce_identically(self):
        payloads = [f"p{i}" for i in range(6)]
        sizes = [16] * 6
        got_a, stats_a = self.run_fanouts(payloads, sizes)
        got_b, stats_b = self.run_train(payloads, sizes)
        assert got_a == got_b
        assert stats_a == stats_b

    def test_equal_sizes_use_one_event_per_member(self):
        """The point of the train: k same-size packets, one delivery event."""
        sim, net = make_net()
        events = []
        for node in range(9):
            net.attach(node, lambda msg: events.append(sim.now))
        net.send_fanout_train(0, self.TARGETS, "k", ["p"] * 6, [16] * 6)
        # 8 members x 6 packets = 48 deliveries from only 8 heap entries.
        assert net._queue._live == 8
        sim.run()
        assert len(events) == 48

    def test_mixed_sizes_split_segments_identically(self):
        """A larger mid-train packet forces a later arrival; the smaller
        one behind it clamps to it.  Arrival math must match unbatched."""
        payloads = ["a", "b", "big", "c"]
        sizes = [16, 16, 4096, 16]
        got_a, stats_a = self.run_fanouts(payloads, sizes)
        got_b, stats_b = self.run_train(payloads, sizes)
        assert got_a == got_b
        assert stats_a == stats_b
        # Two distinct arrival instants per member: the pre-big pair and
        # the big+clamped tail.
        for node in self.TARGETS:
            assert len({t for t, *_ in got_a[node]}) == 2

    def test_single_entry_delegates_to_fanout(self):
        got_a, stats_a = self.run_fanouts(["only"], [16])
        got_b, stats_b = self.run_train(["only"], [16])
        assert got_a == got_b
        assert stats_a == stats_b

    def test_loss_model_falls_back_to_per_message_sends(self):
        """With a loss model attached the train path must defer to plain
        sends so per-message drop decisions stay possible."""
        payloads = [f"p{i}" for i in range(4)]
        sizes = [16] * 4

        def lossless():
            return LossModel(0.0, random.Random(7))

        got_a, stats_a = self.run_fanouts(payloads, sizes)
        got_b, stats_b = self.run_train(payloads, sizes, loss_model=lossless())
        assert got_a == got_b
        assert stats_a == stats_b

    def test_delivery_order_is_sequence_order(self):
        got, _ = self.run_train([0, 1, 2, 3, 4], [16] * 5)
        for node in self.TARGETS:
            assert [payload for _, payload, _ in got[node]] == [0, 1, 2, 3, 4]


class TestFireTrain:
    def test_invokes_handler_per_message_in_order(self):
        seen = []
        msgs = tuple(
            Message(src=0, dst=1, kind="k", payload=i) for i in range(3)
        )
        fire_train((seen.append, msgs))
        assert seen == list(msgs)


class TestCohorts:
    """send_fanout: one heap entry per distinct FIFO-clamped arrival."""

    TARGETS = tuple(range(1, 9))

    @staticmethod
    def cohort_members(net):
        """{arrival: [dst, ...]} of the generic cohort entries in the heap."""
        return {
            entry[0]: [dst for dst, _ in entry[3][0]]
            for entry in net._queue._heap
            if entry[2] is fire_cohort
        }

    def test_equal_hop_siblings_share_one_heap_entry(self):
        sim, net = make_net()
        got = record_deliveries(sim, net, range(9))
        net.send_fanout(0, self.TARGETS, "k", "p", 16)
        live = net._queue._live
        sim.run()
        arrivals = {t for node in self.TARGETS for t, *_ in got[node]}
        # A 3x3 torus has every other node one or two hops away.
        assert live == len(arrivals) == 2
        assert all(len(got[node]) == 1 for node in self.TARGETS)

    def test_entries_are_keyed_inside_the_fanouts_own_seq_block(self):
        """What makes cohort order equal per-message order: the fan-out
        still owns one seq per recipient, its entries sit inside that
        block, and a later event sorts after all of them."""
        sim, net = make_net()
        record_deliveries(sim, net, range(9))
        before = net._queue._next_seq
        net.send_fanout(0, self.TARGETS, "k", "p", 16)
        assert net._queue._next_seq == before + len(self.TARGETS)
        for entry in net._queue._heap:
            assert before <= entry[1] < before + len(self.TARGETS)

    def test_inflight_message_clamps_exactly_that_recipient(self):
        sim, net = make_net()
        record_deliveries(sim, net, range(9))
        # 4096 bytes in flight on channel (0, 1) outlast the fan-out's
        # 16-byte packet there, and nowhere else.
        clamped_to = net.send(Message(src=0, dst=1, kind="warm", size_bytes=4096))
        net.send_fanout(0, self.TARGETS, "k", "p", 16)
        cohorts = self.cohort_members(net)
        assert cohorts[clamped_to] == [1]
        siblings = [dst for dst in self.TARGETS if net.topology.hops(0, dst) == 1]
        assert 1 in siblings
        rest = [members for t, members in cohorts.items() if t != clamped_to]
        assert sorted(rest) == sorted(
            [
                [dst for dst in siblings if dst != 1],
                [dst for dst in self.TARGETS if dst not in siblings],
            ]
        )
        assert net._last_arrival[(0, 1)] == clamped_to

    def test_clamped_recipient_joins_the_cohort_sharing_its_time(self):
        """Clamped onto another cohort's instant, a recipient is delivered
        there in target order, exactly where its own event would sort."""
        sim, net = make_net()
        log = []
        for node in range(9):
            net.attach(node, lambda msg, node=node: log.append((sim.now, node)))
        far = next(dst for dst in self.TARGETS if net.topology.hops(0, dst) == 2)
        near = [dst for dst in self.TARGETS if net.topology.hops(0, dst) == 1]
        far_arrival = net.delay(0, far, 16)
        # Pin channel (0, near[1]) to the far cohort's arrival instant.
        net._last_arrival[(0, near[1])] = far_arrival
        net.send_fanout(0, self.TARGETS, "k", "p", 16)
        assert net._queue._live == 2
        sim.run()
        late = [node for t, node in log if t == far_arrival]
        assert late == sorted(late) and near[1] in late
        assert [node for t, node in log if t < far_arrival] == [
            dst for dst in near if dst != near[1]
        ]

    def test_zero_delay_puts_every_member_in_one_cohort_at_now(self):
        """Figure 2's ideal series: no hop latency, infinite bandwidth."""
        sim = Simulator()
        net = Network(sim, MeshTorus(9), MachineParams().zero_delay())
        got = record_deliveries(sim, net, range(9))
        sim.schedule(3e-6, lambda: net.send_fanout(0, self.TARGETS, "k", "p", 4096))
        sim.step()  # the scheduling event alone
        assert net._queue._live == 1
        assert self.cohort_members(net) == {3e-6: list(self.TARGETS)}
        sim.run()
        assert all(got[node] == [(3e-6, "p", 4096)] for node in self.TARGETS)

    def test_generic_handlers_get_one_message_per_recipient(self):
        sim, net = make_net()
        seen = []
        for node in range(9):
            net.attach(node, seen.append)
        sim.schedule(2e-6, lambda: net.send_fanout(3, self.TARGETS, "k", "p", 48))
        sim.run()
        assert sorted(msg.dst for msg in seen) == list(self.TARGETS)
        assert len({id(msg) for msg in seen}) == len(self.TARGETS)
        for msg in seen:
            assert (msg.src, msg.kind, msg.payload) == (3, "k", "p")
            assert msg.size_bytes == 48
            assert msg.sent_at == 2e-6

    def test_advertised_batch_entry_point_gets_the_cohort(self):
        """Recipients that all name one ``fire`` through ``attach(batch=)``
        get one call per cohort with their receiver objects."""
        calls = []

        def fire(record):
            calls.append((sim.now, list(record[0]), record[1]))

        def per_message(msg):  # pragma: no cover - batch path only
            raise AssertionError("per-message delivery on the batch path")

        sim, net = make_net()
        for node in range(9):
            net.attach(
                node,
                per_message,
                batch=lambda kind, node=node: (fire, f"r{node}") if kind == "k" else None,
            )
        net.send_fanout(0, self.TARGETS, "k", "p", 16)
        sim.run()
        assert len(calls) == 2
        assert sorted(r for _, receivers, _ in calls for r in receivers) == [
            f"r{node}" for node in self.TARGETS
        ]
        assert all(
            payload == "p" and receivers == sorted(receivers)
            for _, receivers, payload in calls
        )

    def test_mixed_recipients_fall_back_to_per_message_handlers(self):
        """One recipient without a batch entry (or a kind it does not
        batch) puts the whole fan-out on the generic cohort."""
        seen = []
        sim, net = make_net()

        def batch(kind):
            return (seen.append, "batched") if kind == "k" else None

        net.attach(1, lambda msg: seen.append(msg.dst), batch=batch)
        net.attach(2, lambda msg: seen.append(msg.dst))
        net.attach(3, lambda msg: seen.append(msg.dst), batch=batch)
        net.send_fanout(0, (1, 2), "k", "p", 16)
        net.send_fanout(0, (1, 3), "other", "p", 16)
        sim.run()
        assert sorted(seen) == [1, 1, 2, 3]


class TestFireCohort:
    def test_builds_one_message_per_receiver_in_order(self):
        seen = []
        receivers = tuple((dst, seen.append) for dst in (4, 2, 7))
        fire_cohort((receivers, "p", 0, "k", 32, 1.5))
        assert [msg.dst for msg in seen] == [4, 2, 7]
        assert all(
            (msg.src, msg.kind, msg.payload, msg.size_bytes, msg.sent_at)
            == (0, "k", "p", 32, 1.5)
            for msg in seen
        )


# One op: (delay before it, "send" | "fanout", src, dst-or-targets, size).
_SIZES = st.sampled_from([16, 16, 64, 1024, 4096])
_NODE = st.integers(min_value=0, max_value=8)
_GAPS = st.sampled_from([0.0, 0.0, 0.1e-6, 1e-6])
_OPS = st.lists(
    st.one_of(
        st.tuples(_GAPS, st.just("send"), _NODE, _NODE, _SIZES),
        st.tuples(
            _GAPS,
            st.just("fanout"),
            _NODE,
            st.lists(_NODE, min_size=1, max_size=9, unique=True).map(tuple),
            _SIZES,
        ),
    ),
    min_size=1,
    max_size=14,
)


def _run_ops(ops, cohorts):
    """Drive one interleaving; returns (global delivery log, stats).

    ``cohorts=False`` is the per-message reference: every fan-out is a
    loop of plain sends.  Node 4 relays every third payload it gets to
    its ring neighbours and itself, so events are also pushed *during*
    a cohort's delivery loop.
    """
    sim, net = make_net()
    log = []

    def fanout(src, targets, payload, size):
        if cohorts:
            net.send_fanout(src, targets, "k", payload, size)
        else:
            for dst in targets:
                net.send(Message(src, dst, "k", payload, size))

    def handler(node):
        def on_message(msg):
            assert msg.dst == node
            log.append((sim.now, node, msg.payload, msg.size_bytes, msg.sent_at))
            if node == 4 and isinstance(msg.payload, int) and msg.payload % 3 == 0:
                fanout(4, (3, 5, 4), ("relay", msg.payload), msg.size_bytes)

        return on_message

    for node in range(9):
        net.attach(node, handler(node))

    def issue(index, op):
        _, what, src, where, size = op
        if what == "send":
            net.send(Message(src, where, "k", index, size))
        else:
            fanout(src, where, index, size)

    at = 0.0
    for index, op in enumerate(ops):
        at += op[0]
        sim.at_fn(at, lambda index=index, op=op: issue(index, op))
    sim.run()
    return log, stats_snapshot(net)


class TestCohortInterleavingProperty:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS)
    def test_global_delivery_log_equals_per_message_path(self, ops):
        """One log across all nodes: same-instant cross-node order is
        part of the contract, which per-node recorders cannot see."""
        log_a, stats_a = _run_ops(ops, cohorts=False)
        log_b, stats_b = _run_ops(ops, cohorts=True)
        assert log_a == log_b
        assert stats_a == stats_b


class TestBurstSweepTraceTransparency:
    """Whole-run parity: a traced run takes the per-message fallback in
    ``send_fanout_train``, and must still report the very same floats."""

    def test_rows_equal_on_train_path_and_traced_fallback(self, monkeypatch):
        from repro.experiments.burst import EXPERIMENT, run_burst_sweep
        from repro.sim.trace import Tracer

        on_trains = run_burst_sweep(**EXPERIMENT.quick)
        # Every Simulator built without a tracer now gets an enabled one.
        monkeypatch.setattr("repro.sim.kernel.NullTracer", Tracer)
        traced = run_burst_sweep(**EXPERIMENT.quick)
        assert traced == on_trains
