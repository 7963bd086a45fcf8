"""Cohort delivery is invisible above the network.

``Network.send_fanout`` delivers a multicast as one heap event per
distinct arrival time and ``apply_cohort`` commits it to every recipient
of that cohort in one loop.  Nothing a protocol, a workload or an
observer can see may depend on that:

* **differential** — the same seeded workload run on the cohort path
  and on the per-message fallback (a recording ``Tracer`` already
  forces ``send`` per recipient, no knob involved) must agree on the
  state hash, the makespan, and every per-node apply / filter / write /
  signal count; the quick ``failover`` and ``sharded_root`` rows, whole
  runs through takeover and handoff refreshes, must be equal too;
* **probe visibility** — observers that hook an instance through
  ``install_apply_spy`` (``OrderProbe`` on ``_process``, a test spy on
  ``store.write``) must still see every single apply;
* **interrupt atomicity** — a lock interrupt armed on one member fires
  inside the cohort's event, at that member's turn.
"""

from __future__ import annotations

import pytest

from repro.consistency.order_probe import OrderProbe
from repro.core.machine import DSMMachine
from repro.memory.interface import ApplyPacket, install_apply_spy
from repro.memory.varspace import grant_value
from repro.sim.trace import Tracer
from repro.workloads.counter import CounterConfig, run_counter
from repro.workloads.pipeline import PipelineConfig, run_pipeline
from repro.workloads.rootshard import RootShardConfig, run_rootshard
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue


def run_captured(monkeypatch, runner, config, per_message):
    """Run a workload driver; returns (result, the machine it built)."""
    built = []
    original = DSMMachine.__init__

    def init(self, *args, **kwargs):
        if per_message:
            kwargs["tracer"] = Tracer()
        original(self, *args, **kwargs)
        built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(DSMMachine, "__init__", init)
        result = runner(config)
    (machine,) = built
    return result, machine


def observables(result, machine):
    stats = machine.network.stats
    return {
        "state_hash": result.extra["state_hash"],
        "elapsed": result.elapsed,
        "applied_count": [n.iface.applied_count for n in machine.nodes],
        "filter_dropped": [n.iface.filter.dropped for n in machine.nodes],
        "write_counts": [n.store.write_counts for n in machine.nodes],
        "signal_fires": [
            {
                name: slot[2].fire_count
                for name, slot in n.store._slots.items()
                if slot[2] is not None
            }
            for n in machine.nodes
        ],
        "net": (
            stats.messages,
            stats.bytes,
            dict(stats.by_kind),
            dict(stats.inbound),
            dict(stats.outbound),
        ),
    }


DIFFERENTIAL = [
    pytest.param(
        run_task_queue, TaskQueueConfig(system="gwc", n_nodes=33), id="task_queue-gwc-33"
    ),
    pytest.param(
        run_pipeline,
        PipelineConfig(system="gwc_optimistic", n_nodes=8),
        id="pipeline-gwc_optimistic-8",
    ),
    pytest.param(
        run_counter,
        CounterConfig(system="gwc_optimistic", n_nodes=16, think_time=5e-6),
        id="counter-gwc_optimistic-16",
    ),
    pytest.param(
        run_rootshard,
        RootShardConfig(
            system="gwc_optimistic",
            n_nodes=32,
            roots=4,
            fanout=8,
            rebalance=True,
            n_locks=4,
            n_lockers=16,
        ),
        id="rootshard-k4-fanout8",
    ),
]


class TestDifferential:
    @pytest.mark.parametrize("runner, config", DIFFERENTIAL)
    def test_cohort_path_equals_per_message_path(self, monkeypatch, runner, config):
        result_a, machine_a = run_captured(monkeypatch, runner, config, True)
        result_b, machine_b = run_captured(monkeypatch, runner, config, False)
        # The comparison is real: one side never planned a cohort, the
        # other did.
        assert not machine_a.network._fanout_plans
        assert machine_b.network._fanout_plans
        assert observables(result_a, machine_a) == observables(result_b, machine_b)
        assert sum(n.iface.applied_count for n in machine_b.nodes) > 0

    def test_quick_rows_equal_on_cohort_path_and_traced_fallback(self, monkeypatch):
        """Whole runs through takeover and handoff refreshes: the failover
        run has a fault injector attached, so it takes the per-message
        path either way; ``sharded_root`` takes the cohort path untraced.
        Both must report the very same rows traced."""
        from repro.experiments.registry import BY_NAME

        experiments = [BY_NAME["failover"], BY_NAME["sharded_root"]]
        untraced = [exp.run(**exp.quick) for exp in experiments]
        # Every Simulator built without a tracer now gets an enabled one.
        monkeypatch.setattr("repro.sim.kernel.NullTracer", Tracer)
        traced = [exp.run(**exp.quick) for exp in experiments]
        assert traced == untraced


def writer(node, var, values, gap=0.3e-6):
    for value in values:
        node.iface.share_write(var, value)
        yield gap


def make_machine(n=9):
    machine = DSMMachine(n_nodes=n, topology="mesh_torus")
    machine.create_group("g", root=0)
    machine.declare_variable("g", "x", 0)
    machine.declare_variable("g", "y", 0)
    return machine


class TestProbeVisibility:
    def test_order_probe_sees_every_apply(self):
        machine = make_machine()
        probe = OrderProbe(machine, "g")
        machine.spawn(writer(machine.nodes[1], "x", range(1, 8)), name="w1")
        machine.spawn(writer(machine.nodes[5], "y", range(1, 6)), name="w5")
        machine.run()
        assert machine.network._fanout_plans
        sequenced = machine.nodes[0].iface.root_engines["g"].sequenced
        assert sequenced == 12
        for node_id, applied in probe.applied.items():
            assert [seq for seq, _, _ in applied] == list(range(sequenced)), node_id
        probe.verify()

    def test_probed_and_unprobed_members_of_one_cohort_agree(self):
        """Only some members are observed: they leave the inline path,
        their cohort siblings stay on it, nobody's state differs."""
        machine = make_machine()
        seen = {1: [], 4: []}
        for node_id, log in seen.items():
            iface = machine.nodes[node_id].iface
            original = iface._process

            def spy(packet, log=log, original=original):
                log.append(packet.seq)
                original(packet)

            install_apply_spy(iface, iface, "_process", spy)
        machine.spawn(writer(machine.nodes[2], "x", range(1, 8)), name="w")
        machine.run()
        assert seen[1] == seen[4] == list(range(7))
        assert {n.iface.applied_count for n in machine.nodes} == {7}
        assert {n.store.read("x") for n in machine.nodes} == {7}

    def test_store_write_spy_sees_every_apply(self):
        machine = make_machine()
        observed = {n.id: [] for n in machine.nodes}
        for node in machine.nodes:
            original = node.store.write

            def spy(name, value, log=observed[node.id], original=original):
                log.append((name, value))
                original(name, value)

            install_apply_spy(node.iface, node.store, "write", spy)
        machine.spawn(writer(machine.nodes[3], "x", ["a", "b", "c", "d"]), name="w")
        machine.run()
        assert machine.network._fanout_plans
        expected = [("x", v) for v in "abcd"]
        for node in machine.nodes:
            if node.id == 3:
                # The writer sees its own local write, then the root's echo.
                assert sorted(observed[3]) == sorted(expected * 2)
            else:
                assert observed[node.id] == expected, node.id


class TestInterruptInsideCohort:
    """Figure 5's interrupt is atomic with the apply — also for a member
    in the middle of a cohort."""

    def lock_packet(self, seq, holder):
        return ApplyPacket(
            group="g",
            seq=seq,
            var="L",
            value=grant_value(holder),
            origin=holder,
            is_mutex_data=False,
            is_lock=True,
        )

    def test_armed_member_fires_at_its_turn_and_later_members_still_apply(self):
        machine = make_machine()
        machine.declare_lock("g", "L")
        net = machine.network
        near = [n for n in range(1, 9) if net.topology.hops(0, n) == 1]
        before, armed, after = near[0], near[1], near[2:]
        assert after
        ifaces = {n: machine.nodes[n].iface for n in range(9)}
        fired = []

        def on_interrupt(value):
            # Insharing is already suspended; the members ahead of this
            # one in target order have applied, the ones behind have not.
            fired.append(
                (
                    machine.sim.now,
                    value,
                    ifaces[armed].insharing_suspended,
                    {n: ifaces[n].applied_count for n in near},
                )
            )

        ifaces[armed].arm_lock_interrupt("L", on_interrupt)
        targets = tuple(range(9))
        net.send_fanout(0, targets, "gwc.apply", self.lock_packet(0, armed), 16)
        # root (0 hops), near and far: three cohorts, three heap entries.
        assert net._queue._live == 3
        machine.run()
        near_arrival = net.delay(0, armed, 16)
        assert fired == [
            (
                near_arrival,
                grant_value(armed),
                True,
                {before: 1, armed: 1, **{n: 0 for n in after}},
            )
        ]
        assert {ifaces[n].applied_count for n in range(9)} == {1}
        assert {machine.nodes[n].store.read("L") for n in range(9)} == {
            grant_value(armed)
        }
        # The armed member stays suspended: the next cohort queues there
        # (the gate miss is taken for that recipient only) and applies
        # everywhere else.
        net.send_fanout(0, targets, "gwc.apply", self.lock_packet(1, before), 16)
        machine.run()
        assert ifaces[armed].pending_suspended == 1
        assert ifaces[armed].applied_count == 1
        assert {ifaces[n].applied_count for n in range(9) if n != armed} == {2}
        ifaces[armed].resume_insharing()
        assert ifaces[armed].applied_count == 2


class TestRelayForwardsBeforeItsOwnGate:
    def test_suspended_relay_still_feeds_its_subtree(self):
        """Hierarchical multicast forwards at delivery, before the
        relay's own ordering checks: a relay that is suspended (or
        behind) queues the packet for itself and passes it on."""
        machine = DSMMachine(n_nodes=16, topology="mesh_torus")
        machine.create_group("g", root=0, fanout=2)
        machine.declare_variable("g", "x", 0)
        tree = machine.groups["g"].tree
        relay = next(n for n in tree.children_of(0) if tree.children_of(n))
        subtree = tree.children_of(relay)
        machine.nodes[relay].iface.suspend_insharing()
        machine.spawn(writer(machine.nodes[0], "x", [7]), name="w")
        machine.run()
        assert machine.network._fanout_plans
        assert machine.nodes[relay].iface.pending_suspended == 1
        assert machine.nodes[relay].store.read("x") == 0
        assert [machine.nodes[n].store.read("x") for n in subtree] == [7] * len(subtree)
        assert {n.store.read("x") for n in machine.nodes if n.id != relay} == {7}
