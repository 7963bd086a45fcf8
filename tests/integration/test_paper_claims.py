"""Direct tests of specific quantitative sentences in the paper."""

from __future__ import annotations

import pytest

from repro.consistency.base import make_system
from repro.core.machine import DSMMachine
from repro.core.section import Section
from repro.memory.interface import install_apply_spy
from repro.params import MachineParams


def build(n=3, params=None):
    machine = DSMMachine(n_nodes=n, params=params or MachineParams())
    machine.create_group("g", root=0)
    machine.declare_variable("g", "m", 0, mutex_lock="L")
    machine.declare_lock("g", "L", protects=("m",))
    return machine


class TestThreeOneWayMessages:
    def test_uncontended_lock_cycle_message_count(self):
        """"There is no network traffic except three one-way messages to
        request, grant, and release the lock."

        The paper counts the logical protocol steps; with the grant and
        the free propagated down the sharing tree, one acquire/release
        cycle on a three-member group produces: 1 request (to root),
        the grant multicast, 1 release (to root), and the free
        multicast.  No retries, forwards, acks, or invalidations —
        unlike the comparator protocols.
        """
        machine = build(n=3)
        system = make_system("gwc", machine)

        def worker(node):
            yield from system.acquire(node, "L")
            yield from system.release(node, "L")

        machine.spawn(worker(machine.nodes[2]), name="w")
        machine.run()
        stats = machine.network.stats
        # request + release toward the root:
        assert stats.by_kind["gwc.update"] == 2
        # grant + free multicast to the 3 members:
        assert stats.by_kind["gwc.apply"] == 6
        # and absolutely nothing else:
        assert set(stats.by_kind) == {"gwc.update", "gwc.apply"}

    def test_heavily_requested_lock_one_way_handoff(self):
        """"A processor always receives exclusive access within one or
        one half round-trip time of the lock being freed": under
        queueing, the handoff is release->root plus grant->next — two
        one-way legs, no extra traffic."""
        machine = build(n=3)
        system = make_system("gwc", machine)
        grant_times = {}

        def worker(node, delay, hold):
            yield delay
            yield from system.acquire(node, "L")
            grant_times[node.id] = node.sim.now
            yield hold
            release_time = node.sim.now
            yield from system.release(node, "L")
            grant_times[f"release_{node.id}"] = release_time

        machine.spawn(worker(machine.nodes[1], 0.0, 5e-6), name="w1")
        machine.spawn(worker(machine.nodes[2], 0.5e-6, 1e-6), name="w2")
        machine.run()
        handoff = grant_times[2] - grant_times["release_1"]
        one_way_legs = machine.network.delay(1, 0, 16) + machine.network.delay(
            0, 2, 16
        )
        assert handoff == pytest.approx(one_way_legs, rel=0.05)


class TestDisparityGrowsWithNetworkDelay:
    def test_gwc_advantage_grows_with_hop_latency(self):
        """"For very large systems, the disparity between group write
        consistency and the other models will be significantly larger,
        since network delays will be much longer than local update
        times."  Scaling the hop latency up must widen Figure 1's gap."""
        from repro.workloads.contention import ContentionConfig, run_contention

        gaps = []
        for hop_latency in (200e-9, 800e-9):
            params = MachineParams(hop_latency=hop_latency)
            gwc = run_contention(ContentionConfig(system="gwc", params=params))
            release = run_contention(
                ContentionConfig(system="release", params=params)
            )
            gaps.append(
                release.extra["completion_time"] - gwc.extra["completion_time"]
            )
        assert gaps[1] > gaps[0]

    def test_optimistic_hides_more_as_delays_grow(self):
        """"In huge networks, safe preposting of shared changes is
        usually the major source of benefit": the absolute time saved by
        optimism grows with the lock round trip."""
        from repro.workloads.pipeline import PipelineConfig, run_pipeline

        savings = []
        for hop_latency in (200e-9, 1000e-9):
            params = MachineParams(hop_latency=hop_latency)
            opt = run_pipeline(
                PipelineConfig(
                    system="gwc_optimistic", n_nodes=8, data_size=64, params=params
                )
            )
            reg = run_pipeline(
                PipelineConfig(system="gwc", n_nodes=8, data_size=64, params=params)
            )
            savings.append(reg.elapsed - opt.elapsed)
        assert savings[1] > savings[0]


class TestOverlappingGroupsUnordered:
    def test_cross_group_writes_have_no_mutual_order(self):
        """"For many coding applications, complete ordering is not
        needed" — Sesame deliberately does NOT order writes across
        overlapping groups.  A member of both groups can observe the
        two groups' writes in an order that differs from another
        member's, which is why cross-group sections need multi-group
        mutual exclusion."""
        machine = DSMMachine(n_nodes=8, topology="ring")
        # Observers 1 and 3 belong to both groups; the roots (0 and 4)
        # sit at opposite distances from the two observers.
        machine.create_group("ga", members=(0, 1, 3), root=0)
        machine.create_group("gb", members=(1, 3, 4), root=4)
        machine.declare_variable("ga", "a", 0)
        machine.declare_variable("gb", "b", 0)
        order_seen = {1: [], 3: []}
        for nid in (1, 3):
            node = machine.nodes[nid]
            original = node.store.write

            def spy(name, value, nid=nid, original=original):
                if name in ("a", "b") and value == 1:
                    order_seen[nid].append(name)
                original(name, value)

            install_apply_spy(node.iface, node.store, "write", spy)

        def writer_a(node):
            node.iface.share_write("a", 1)
            yield 0

        def writer_b(node):
            node.iface.share_write("b", 1)
            yield 0

        # "a" is written at ga's root; "b" at gb's root: observer 1 is
        # adjacent to root 0 and far from root 4, observer 3 the
        # opposite, so the arrival orders cross.
        machine.spawn(writer_a(machine.nodes[0]), name="wa")
        machine.spawn(writer_b(machine.nodes[4]), name="wb")
        machine.run()
        assert order_seen[1] == ["a", "b"]
        assert order_seen[3] == ["b", "a"]
        # Each group individually still delivered everywhere.
        assert machine.nodes[1].store.read("a") == 1
        assert machine.nodes[3].store.read("b") == 1
