"""Micro-benchmarks of the simulation substrate itself.

These are honest pytest-benchmark timing runs (many rounds) of the
hottest kernels: event scheduling, process context switching, network
delivery (eager sharing), and the end-to-end event rate of a busy GWC
machine.  They exist so performance regressions in the substrate are
visible without re-running the full figure sweeps.
"""

from __future__ import annotations

from repro.core.machine import DSMMachine
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


def test_bench_counter_kernel(benchmark):
    def run():
        return run_counter(
            CounterConfig(system="gwc_optimistic", n_nodes=5, increments_per_node=5)
        )

    result = benchmark(run)
    assert result.extra["correct"]
