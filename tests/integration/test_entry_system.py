"""Integration tests for the entry-consistency comparator's specifics:
data-with-grant, invalidation round trips, owner handoff, local release,
and demand-fetch behaviour."""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import struct

import pytest

from repro.consistency.base import make_system
from repro.consistency.entry import EXCLUSIVE, NON_EXCLUSIVE, EntrySystem
from repro.core.machine import DSMMachine
from repro.errors import ExperimentError, LockStateError
from repro.faults.plan import FaultPlan, duplicate
from repro.net.message import Message
from repro.params import PAPER_PARAMS
from repro.sim.event import Event
from repro.workloads.base import finish
from repro.workloads.pipeline import PipelineConfig, _build_pipeline, run_pipeline


def build(n=4, topology="mesh_torus", params=PAPER_PARAMS, **system_kwargs):
    machine = DSMMachine(n_nodes=n, topology=topology, params=params)
    machine.create_group("g", root=0)
    machine.declare_variable("g", "guarded", 0, mutex_lock="L")
    machine.declare_variable("g", "plain", 0)
    machine.declare_lock("g", "L", protects=("guarded",), data_bytes=64)
    system = make_system("entry", machine, **system_kwargs)
    assert isinstance(system, EntrySystem)
    return machine, system


class TestDataWithGrant:
    def test_grant_ships_current_guarded_values(self):
        machine, system = build()
        seen = []

        def writer(node):
            yield from system.acquire(node, "L")
            system.section_write(node, "guarded", 42)
            yield from system.release(node, "L")

        def reader(node):
            yield 5e-6  # after the writer
            yield from system.acquire(node, "L")
            seen.append(node.store.read("guarded"))
            yield from system.release(node, "L")

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.spawn(reader(machine.nodes[3]), name="r")
        machine.run()
        assert seen == [42]
        assert system.data_grants >= 2

    def test_non_acquirers_keep_stale_copies(self):
        """Entry consistency does not push: a node that never takes the
        lock never sees the update."""
        machine, system = build()

        def writer(node):
            yield from system.acquire(node, "L")
            system.section_write(node, "guarded", 42)
            yield from system.release(node, "L")

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.run()
        assert machine.nodes[2].store.read("guarded") == 0


class TestOwnershipAndRelease:
    def test_release_is_local_and_reacquisition_free(self):
        machine, system = build()
        grants_before = []

        def worker(node):
            yield from system.acquire(node, "L")
            yield from system.release(node, "L")
            grants_before.append(system.data_grants)
            # Re-acquire: owner with sole copy pays no messages.
            yield from system.acquire(node, "L")
            yield from system.release(node, "L")

        # Node 0 is the initial owner.
        machine.spawn(worker(machine.nodes[0]), name="w")
        machine.run()
        assert system.data_grants == grants_before[0]

    def test_ownership_transfers_to_last_exclusive_holder(self):
        machine, system = build()

        def worker(node):
            yield from system.acquire(node, "L")
            yield from system.release(node, "L")

        machine.spawn(worker(machine.nodes[2]), name="w")
        machine.run()
        assert system._lock_state("L").owner == 2

    def test_queueing_under_contention(self):
        machine, system = build()
        order = []

        def worker(node, delay):
            yield delay
            yield from system.acquire(node, "L")
            order.append(node.id)
            yield 2e-6
            yield from system.release(node, "L")

        for node, delay in ((1, 0.0), (2, 0.1e-6), (3, 0.2e-6)):
            machine.spawn(worker(machine.nodes[node], delay), name=f"w{node}")
        machine.run()
        assert sorted(order) == [1, 2, 3]
        assert len(order) == 3


class TestInvalidation:
    def test_exclusive_grant_invalidates_nonexclusive_holders(self):
        machine, system = build()
        system.seed_copyset("L", (1, 2, 3))

        def worker(node):
            yield from system.acquire(node, "L", mode=EXCLUSIVE)
            yield from system.release(node, "L")

        machine.spawn(worker(machine.nodes[3]), name="w")
        machine.run()
        # Nodes 1 and 2 were invalidated (3 keeps its copy as requester;
        # 0 is the owner).
        assert system.invalidations == 2
        assert system._lock_state("L").copyset == {3}

    def test_nonexclusive_acquire_joins_copyset(self):
        machine, system = build()

        def reader(node):
            yield from system.acquire(node, "L", mode=NON_EXCLUSIVE)
            yield from system.release(node, "L")

        machine.spawn(reader(machine.nodes[2]), name="r")
        machine.run()
        assert 2 in system._lock_state("L").copyset

    def test_cached_nonexclusive_reacquire_is_free(self):
        machine, system = build()
        counts = []

        def reader(node):
            yield from system.acquire(node, "L", mode=NON_EXCLUSIVE)
            yield from system.release(node, "L")
            counts.append(system.data_grants)
            yield from system.acquire(node, "L", mode=NON_EXCLUSIVE)
            yield from system.release(node, "L")
            counts.append(system.data_grants)

        machine.spawn(reader(machine.nodes[2]), name="r")
        machine.run()
        assert counts[0] == counts[1]


class TestDemandFetch:
    def test_remote_read_round_trips(self):
        machine, system = build()
        got = []

        def writer(node):
            yield from system.write(node, "plain", 7)

        def reader(node):
            yield 1e-6
            value = yield from system.read(node, "plain")
            got.append((node.sim.now, value))

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.spawn(reader(machine.nodes[3]), name="r")
        machine.run()
        assert got[0][1] == 7
        assert got[0][0] > 1e-6  # paid a round trip
        assert system.fetches == 1

    def test_local_read_is_free(self):
        machine, system = build()
        got = []

        def worker(node):
            yield from system.write(node, "plain", 5)
            value = yield from system.read(node, "plain")
            got.append(value)

        machine.spawn(worker(machine.nodes[2]), name="w")
        machine.run()
        assert got == [5]
        assert system.fetches == 0

    def test_fetch_service_serializes_at_home(self):
        """Concurrent fetches to one home queue behind each other — the
        hot-spot that breaks demand-fetch scaling."""
        machine, system = build()
        arrival_times = []

        def writer(node):
            yield from system.write(node, "plain", 1)

        def reader(node):
            yield 1e-6
            yield from system.read(node, "plain")
            arrival_times.append(node.sim.now)

        machine.spawn(writer(machine.nodes[0]), name="w")
        for nid in (1, 2, 3):
            machine.spawn(reader(machine.nodes[nid]), name=f"r{nid}")
        machine.run()
        arrival_times.sort()
        gaps = [b - a for a, b in zip(arrival_times, arrival_times[1:])]
        assert all(gap >= system.fetch_service_time * 0.9 for gap in gaps)

    def test_wait_value_polls_until_satisfied(self):
        machine, system = build()
        got = []

        def writer(node):
            yield 5e-6
            yield from system.write(node, "plain", 3)

        def waiter(node):
            value = yield from system.wait_value(node, "plain", lambda v: v == 3)
            got.append(value)

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.spawn(waiter(machine.nodes[3]), name="r")
        machine.run()
        assert got == [3]
        assert system.fetches > 1  # polled more than once


    def test_fetch_service_time_is_read_at_every_fetch(self):
        """The per-(home, var) cost cache holds only the declaration's
        constants; the service time stays a live attribute."""
        machine, system = build()
        stamps = []

        def reader(node):
            for service in (system.fetch_service_time, 50e-6):
                system.fetch_service_time = service
                start = node.sim.now
                yield from system.read(node, "plain")
                stamps.append(node.sim.now - start)

        machine.spawn(reader(machine.nodes[3]), name="r")
        machine.run()
        assert stamps[1] - stamps[0] == pytest.approx(50e-6 - 10e-6, abs=1e-12)

    def test_serving_a_fetch_costs_one_handleless_heap_entry(self):
        """After the ``ec.fetch_req`` delivery the heap holds exactly the
        reply's entry, at ``free_at``, and no cancellable handle."""
        machine, system = build()

        def reader(node):
            yield from system.read(node, "plain")

        machine.spawn(reader(machine.nodes[3]), name="r")
        heap = machine.sim._queue._heap
        machine.sim.step()  # the reader sends its request
        assert [entry[3].kind for entry in heap] == ["ec.fetch_req"]
        machine.sim.step()  # the home serves it
        (entry,) = heap
        size = machine.params.packet_bytes + 8
        service = machine.params.memory_time(size) + system.fetch_service_time
        assert entry[0] == machine.sim.now + service == system._home_free_at[0]
        assert not isinstance(entry[2], Event)
        machine.run()
        assert machine.nodes[3].store.read("plain") == 0
        assert system._fetch_waits == {}

    def test_negative_fetch_service_time_rejected(self):
        machine = DSMMachine(n_nodes=2)
        with pytest.raises(ExperimentError, match="fetch_service_time"):
            make_system("entry", machine, fetch_service_time=-1e-6)

    def test_duplicated_fetch_reply_is_a_typed_error(self):
        config = PipelineConfig(
            system="entry",
            n_nodes=4,
            data_size=16,
            fault_plan=FaultPlan([duplicate(0.0, kinds=("ec.fetch_reply",))]),
        )
        with pytest.raises(LockStateError, match="fetch reply .* had no waiter"):
            run_pipeline(config)

    def test_undeclared_variable_has_no_home(self):
        machine, system = build()
        with pytest.raises(LockStateError, match="no group declares"):
            system._home("nowhere")
        # A declared one is found once, then remembered until written.
        assert system._home("plain") == 0
        machine.groups.clear()
        assert system._home("plain") == 0


EC_KINDS = (
    "ec.acquire_req",
    "ec.grant",
    "ec.invalidate",
    "ec.inval_ack",
    "ec.fetch_req",
    "ec.fetch_reply",
)


@pytest.mark.parametrize(
    "interface_service_time", [0.0, 1e-6], ids=["resolver", "dispatcher"]
)
class TestKindDispatch:
    """One ``kind -> handler`` table serves both delivery paths: the
    network's resolved per-kind callable (immediate dispatch) and the
    machine's serialized dispatcher (``interface_service_time > 0``)."""

    def build(self, interface_service_time):
        params = dataclasses.replace(
            PAPER_PARAMS, interface_service_time=interface_service_time
        )
        return build(params=params)

    def test_every_kind_reaches_its_table_entry(self, interface_service_time):
        machine, system = self.build(interface_service_time)
        assert system._handlers == {
            "ec.acquire_req": system._on_acquire_req,
            "ec.grant": system._on_grant,
            "ec.invalidate": system._on_invalidate,
            "ec.inval_ack": system._on_inval_ack,
            "ec.fetch_req": system._serve_fetch,
            "ec.fetch_reply": system._on_fetch_reply,
        }
        seen = []
        for kind in EC_KINDS:
            system._handlers[kind] = (
                lambda node_id, msg, kind=kind: seen.append((kind, node_id, msg.kind))
            )
        for dst, kind in enumerate(EC_KINDS):
            machine.network.send(Message(0, dst % 4, kind, None))
        machine.run()
        assert sorted(seen) == sorted(
            (kind, dst % 4, kind) for dst, kind in enumerate(EC_KINDS)
        )

    def test_unknown_kind_raises_at_delivery(self, interface_service_time):
        machine, system = self.build(interface_service_time)
        machine.network.send(Message(0, 1, "ec.bogus", None))  # not at send
        with pytest.raises(LockStateError, match="unknown entry-consistency.*ec.bogus"):
            machine.run()

    def test_protocol_runs_to_the_same_answer(self, interface_service_time):
        machine, system = self.build(interface_service_time)
        system.seed_copyset("L", (1, 2))
        got = []

        def worker(node):
            yield from system.acquire(node, "L")
            system.section_write(node, "guarded", node.store.read("guarded") + 1)
            yield from system.release(node, "L")
            yield from system.write(node, "plain", node.id)

        def waiter(node):
            got.append((yield from system.wait_value(node, "plain", lambda v: v == 3)))

        machine.spawn(worker(machine.nodes[3]), name="w")
        machine.spawn(waiter(machine.nodes[0]), name="r")
        machine.run()
        machine.sim.check_quiescent()
        assert got == [3]
        assert system.fetches >= 1
        assert system.invalidations == 2
        assert machine.nodes[3].store.read("guarded") == 1


def contended_sessions(owner_oracle, n=8):
    """Every node contends for ``L`` over three rounds — two in three
    sessions exclusive (read, compute, increment the guarded counter),
    the third non-exclusive — and demand-fetches ``plain``, whose home
    migrates once.  Judged as a two-session group mutual exclusion
    (Gokhale & Mittal; PAPERS.md): exclusive sessions never overlap
    anything, non-exclusive ones may overlap each other, and whoever
    enters sees every exclusive session that completed before it.  A
    non-exclusive session here is a single step, the shape
    ``_poll_guarded`` gives it.

    Returns ``(machine, system, run)``; ``run()`` drives the machine to
    quiescence and returns the session log for the caller to inspect.
    """
    machine, system = build(n=n, topology="ring", owner_oracle=owner_oracle)
    log = {"writer": None, "commits": 0, "reads": 0}

    def enter(node):
        assert log["writer"] is None, f"{node.id} overlaps writer {log['writer']}"
        assert node.store.read("guarded") == log["commits"], f"stale at {node.id}"

    def worker(node):
        yield node.id * 0.3e-6
        for round_no in range(3):
            if (node.id + round_no) % 3 == 0:
                yield from system.acquire(node, "L", mode=NON_EXCLUSIVE)
                enter(node)
                log["reads"] += 1
                yield from system.release(node, "L")
            else:
                yield from system.acquire(node, "L", mode=EXCLUSIVE)
                enter(node)
                log["writer"] = node.id
                value = node.store.read("guarded")
                yield 0.5e-6
                system.section_write(node, "guarded", value + 1)
                log["writer"] = None
                log["commits"] += 1
                yield from system.release(node, "L")
            if node.id == 5 and round_no == 1:
                yield from system.write(node, "plain", 5)
            else:
                yield from system.read(node, "plain")

    for node in machine.nodes:
        machine.spawn(worker(node), name=f"w{node.id}")

    def run():
        machine.run(max_events=200_000)
        machine.sim.check_quiescent()
        return log

    return machine, system, run


@pytest.mark.parametrize("owner_oracle", [True, False], ids=["oracle", "guessing"])
def test_sessions_are_group_mutually_exclusive(owner_oracle):
    machine, system, run = contended_sessions(owner_oracle)
    log = run()
    assert log == {"writer": None, "commits": 16, "reads": 8}
    owner = system._lock_state("L").owner
    assert machine.nodes[owner].store.read("guarded") == 16
    assert system._home("plain") == 5


def popped_schedule_sha256(monkeypatch, sim, run):
    """sha256 over the ``(time, seq)`` of every entry ``Simulator.run``
    pops off ``sim``'s heap while ``run()`` executes."""
    digest = hashlib.sha256()
    heap = sim._queue._heap
    real_pop = heapq.heappop

    def recording_pop(target):
        entry = real_pop(target)
        if target is heap:
            digest.update(struct.pack("<dq", entry[0], entry[1]))
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(heapq, "heappop", recording_pop)
        run()
    return digest.hexdigest()


class TestPinnedSchedule:
    """The heap schedule itself is pinned, not just the results: each
    constant is the digest of the popped ``(time, seq)`` stream computed
    by this very code on commit 4b0e200 (the parent of the fetch-path
    rewrite; ``tools/bench_pairs.export_revision`` gives that tree, run
    this file's helpers with ``PYTHONPATH=<tree>/src``).  A change that
    moves, adds or drops one heap entry moves the digest."""

    PIPELINE = "26e815929fb4e929bd510bafc2f6db25ec5d78b2ff96812b99d343efcb1f3551"
    CONTENDED_GUESSING = (
        "43930d4aac96427af71638d416cffb6b6dbdf891cbf7a408ae7dc6a308ba6bea"
    )

    def test_entry_pipeline_schedule(self, monkeypatch):
        machine, system = _build_pipeline(
            PipelineConfig(system="entry", n_nodes=8, data_size=32)
        )
        digest = popped_schedule_sha256(
            monkeypatch, machine.sim, lambda: finish(machine, system, max_events=50_000)
        )
        assert system.fetches > 0
        assert digest == self.PIPELINE

    def test_contended_lock_schedule_without_owner_oracle(self, monkeypatch):
        machine, system, run = contended_sessions(owner_oracle=False)
        digest = popped_schedule_sha256(monkeypatch, machine.sim, run)
        assert machine.metrics.total_counter("ec.forwards") > 0
        assert system.invalidations > 0 and system.fetches > 0
        assert digest == self.CONTENDED_GUESSING
