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

from repro.net.loss import LossModel
from repro.net.message import Message, fire_train
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
