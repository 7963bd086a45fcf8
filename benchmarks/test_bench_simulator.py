"""Micro-benchmarks of the simulation substrate itself.

These are honest pytest-benchmark timing runs (many rounds) of the
hottest kernels: event scheduling, process context switching, network
delivery (eager sharing and packet trains), and the end-to-end event
rate of a busy GWC machine.  They
exist so performance regressions in the substrate are visible without
re-running the full figure sweeps.
"""

from __future__ import annotations

from repro.core.machine import DSMMachine
from repro.net.network import Network
from repro.net.topology import make_topology
from repro.params import DEFAULT_PACKET_BYTES, PAPER_PARAMS
from repro.sim.kernel import Simulator
from repro.workloads.counter import CounterConfig, run_counter


def test_bench_event_scheduling(benchmark):
    def schedule_and_drain():
        sim = Simulator()
        for i in range(2000):
            sim.schedule(i * 1e-6, lambda: None)
        sim.run()
        return sim.now

    result = benchmark(schedule_and_drain)
    assert result > 0


def test_bench_process_switching(benchmark):
    def ping_pong():
        sim = Simulator()

        def proc():
            for _ in range(500):
                yield 1e-6

        for i in range(4):
            sim.spawn(proc(), name=f"p{i}")
        sim.run()
        return sim.now

    benchmark(ping_pong)


def test_bench_eagersharing_throughput(benchmark):
    def shared_writes():
        machine = DSMMachine(n_nodes=9)
        machine.create_group("g")
        machine.declare_variable("g", "x", 0)

        def writer(node):
            for i in range(100):
                node.iface.share_write("x", i)
                yield 0.5e-6

        for node in machine.nodes:
            machine.spawn(writer(node), name=f"w{node.id}")
        machine.run()
        return machine.network.stats.messages

    messages = benchmark(shared_writes)
    assert messages > 0


def test_bench_train_delivery(benchmark):
    """A root ships 16-packet trains to its 7 members — the shape of a
    sequenced write burst.  The mechanism is checked as a count, not a
    time: one heap entry per member per train, whatever the host."""
    n_nodes, train_len, rounds = 8, 16, 50
    targets = tuple(range(1, n_nodes))
    payloads = [None] * train_len
    sizes = [DEFAULT_PACKET_BYTES] * train_len

    def pump_trains():
        sim = Simulator()
        net = Network(sim, make_topology("mesh_torus", n_nodes), PAPER_PARAMS)
        delivered = [0]

        def count(msg):
            delivered[0] += 1

        for node in range(n_nodes):
            net.attach(node, count)
        sent = [0]

        def pump():
            net.send_fanout_train(0, targets, "bench.train", payloads, sizes)
            sent[0] += 1
            if sent[0] < rounds:
                sim.schedule_fn(0.0, pump)

        sim.schedule_fn(0.0, pump)
        sim.run()
        return delivered[0], sim._queue._next_seq

    delivered, heap_entries = benchmark(pump_trains)
    assert delivered == rounds * train_len * len(targets)
    # Every heap entry takes one sequence number: the pump's own event
    # plus one per member, per train.
    assert heap_entries == rounds * (1 + len(targets))


def test_bench_counter_kernel(benchmark):
    def run():
        return run_counter(
            CounterConfig(system="gwc_optimistic", n_nodes=5, increments_per_node=5)
        )

    result = benchmark(run)
    assert result.extra["correct"]
