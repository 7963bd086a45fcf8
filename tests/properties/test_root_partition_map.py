"""Property-based tests: the root partition map is a deterministic,
exactly-once, churn-stable assignment, and relay trees are bounded-degree
spanning trees.

These are the sharded-root analogue of the topology metric properties:
the partition map is the ownership "metric" every root consults, so its
invariants (same seed -> same assignment, every unit owned exactly once,
member churn moves nothing) are load-bearing for serial/sharded parity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_, TopologyError
from repro.memory.varspace import RootPartitionMap
from repro.net.spanning_tree import build_relay_tree
from repro.net.topology import make_topology

names = st.text(
    alphabet="abcdefghij_0123456789", min_size=1, max_size=12
)
partition_counts = st.integers(min_value=1, max_value=9)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _register_all(
    pmap: RootPartitionMap,
    variables: list[str],
    locks: dict[str, tuple[str, ...]],
) -> None:
    for lock, protected in locks.items():
        pmap.register(lock)
        for var in protected:
            pmap.register(var, mutex_lock=lock)
    for var in variables:
        pmap.register(var)


class TestPartitionMapProperties:
    @settings(max_examples=80)
    @given(names, partition_counts, seeds, st.lists(names, max_size=12))
    def test_deterministic_under_seed(self, group, n, seed, units):
        """Two maps built from the same (group, n, seed) agree everywhere;
        the assignment is a pure function of those inputs."""
        a = RootPartitionMap(group, n, seed=seed)
        b = RootPartitionMap(group, n, seed=seed)
        for unit in units:
            assert a.partition_of_unit(unit) == b.partition_of_unit(unit)
            assert a.hash_partition(unit) == b.hash_partition(unit)

    @settings(max_examples=80)
    @given(
        names,
        partition_counts,
        seeds,
        st.lists(names, unique=True, max_size=18),
        st.data(),
    )
    def test_exactly_once_coverage(self, group, n, seed, pool, data):
        """Every registered name lands on exactly one in-range partition,
        and a lock's whole unit (the lock plus every variable it
        protects) lands on the same partition."""
        # Carve the unique name pool into disjoint locks / protected
        # vars / standalone vars, as declare_lock would enforce.
        n_locks = data.draw(
            st.integers(min_value=0, max_value=min(4, len(pool)))
        )
        lock_names, rest = pool[:n_locks], pool[n_locks:]
        locks: dict[str, tuple[str, ...]] = {}
        for lock in lock_names:
            take = data.draw(
                st.integers(min_value=0, max_value=min(3, len(rest)))
            )
            locks[lock] = tuple(rest[:take])
            rest = rest[take:]
        variables = rest
        pmap = RootPartitionMap(group, n, seed=seed)
        _register_all(pmap, variables, locks)
        assignment = pmap.assignment()
        for name, part in assignment.items():
            assert 0 <= part < n
            # Single owner: asking twice gives the same answer.
            assert pmap.partition_of(name) == part
        for lock, protected in locks.items():
            home = pmap.partition_of(lock)
            for var in protected:
                assert pmap.partition_of(var) == home

    @settings(max_examples=60)
    @given(
        names,
        partition_counts,
        seeds,
        st.lists(names, unique=True, min_size=1, max_size=10),
        st.lists(names, unique=True, max_size=6),
    )
    def test_stable_under_registration_churn(
        self, group, n, seed, first, later
    ):
        """Registering more names (new members declaring new variables)
        never moves an already-assigned unit: the hash looks only at
        (seed, group, unit), never at the current population."""
        pmap = RootPartitionMap(group, n, seed=seed)
        _register_all(pmap, first, {})
        before = {name: pmap.partition_of(name) for name in first}
        _register_all(pmap, later, {})
        for name in first:
            assert pmap.partition_of(name) == before[name]

    @settings(max_examples=60)
    @given(names, st.integers(min_value=2, max_value=8), seeds, names)
    def test_override_moves_exactly_one_unit(self, group, n, seed, unit):
        """An online re-partitioning override moves its unit and nothing
        else, and pointing the unit back home clears the override."""
        pmap = RootPartitionMap(group, n, seed=seed)
        others = [f"{unit}__sib{i}" for i in range(4)]
        _register_all(pmap, [unit, *others], {})
        before = pmap.assignment()
        home = pmap.hash_partition(unit)
        target = (home + 1) % n
        pmap.set_override(unit, target)
        assert pmap.partition_of(unit) == target
        for other in others:
            assert pmap.partition_of(other) == before[other]
        pmap.set_override(unit, home)
        assert pmap.overrides == {}
        assert pmap.assignment() == before

    def test_rejects_bad_shapes(self):
        with pytest.raises(MemoryError_):
            RootPartitionMap("g", 0)
        pmap = RootPartitionMap("g", 2)
        with pytest.raises(MemoryError_):
            pmap.set_override("u", 2)
        with pytest.raises(MemoryError_):
            pmap.set_override("u", -1)


def _assert_family_invariant(machine, family) -> None:
    """Every declared name lives in exactly one part, that part is the
    family's ``home`` for it, and every member routes the name there."""
    declared = [
        (name, part)
        for part in family.parts
        for name in (*part.variables, *part.locks)
    ]
    names_seen = [name for name, _part in declared]
    assert len(names_seen) == len(set(names_seen))
    for name, part in declared:
        assert family.home(name) is part
        for member in part.members:
            assert machine.nodes[member].iface.group_of(name) is part


class TestGroupFamilyProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        seeds,
        st.lists(
            st.dictionaries(
                st.sampled_from(["L0", "L1", "L2", "v0", "v1", "v2"]),
                st.integers(min_value=0, max_value=3),
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_moves_keep_one_home_per_name(self, k, seed, move_sets):
        """Random ``migrate_units`` move sets, then every unit moved back
        to its hash partition: after each set the family invariant holds
        (moves back clear the overrides)."""
        from repro.core.machine import DSMMachine
        from repro.memory.repartition import migrate_units

        machine = DSMMachine(n_nodes=4, reliable=True)
        machine.create_group("g", roots=tuple(range(k)), partition_seed=seed)
        for i in range(3):
            machine.declare_variable("g", f"m{i}", 0, mutex_lock=f"L{i}")
            machine.declare_lock("g", f"L{i}", protects=(f"m{i}",))
            machine.declare_variable("g", f"v{i}", 0)
        family = machine.family("g")
        _assert_family_invariant(machine, family)  # fills the route caches
        pmap = family.pmap
        for moves in move_sets:
            migrate_units(
                machine, "g", {unit: t % k for unit, t in moves.items()}
            )
            _assert_family_invariant(machine, family)
        migrate_units(
            machine, "g", {unit: pmap.hash_partition(unit) for unit in pmap.units()}
        )
        _assert_family_invariant(machine, family)
        assert pmap.overrides == {}

    def test_a_group_built_on_its_own_is_a_family_of_one(self):
        from repro.memory.sharing_group import SharingGroup
        from repro.net.network import Network
        from repro.params import MachineParams
        from repro.sim.kernel import Simulator

        sim = Simulator()
        network = Network(sim, make_topology("ring", 4), MachineParams())
        group = SharingGroup("g", network, (0, 1, 2, 3), root=0)
        assert group.family.name == "g"
        assert group.family.parts == (group,)
        assert group.family.home("anything") is group


topologies = st.sampled_from(["mesh_torus", "ring", "star", "fully_connected"])


class TestRelayTreeProperties:
    @settings(max_examples=60)
    @given(
        topologies,
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_relay_tree_spans_with_bounded_fanout(
        self, kind, n, fanout, data
    ):
        """The relay tree reaches every member exactly once and no node
        forwards to more than ``fanout`` children."""
        topo = make_topology(kind, n)
        root = data.draw(st.integers(min_value=0, max_value=n - 1))
        members = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                unique=True,
                max_size=n,
            )
        )
        tree = build_relay_tree(topo, root, tuple(members), fanout)
        expected = set(members) | {root}
        seen = set()
        for node in expected:
            # Walking parents from any member terminates at the root —
            # the tree is connected and acyclic.
            hops = 0
            cur = node
            while cur != root:
                cur = tree.parent[cur]
                hops += 1
                assert hops <= len(expected)
            seen.add(node)
        assert seen == expected
        for node, kids in tree.children.items():
            assert len(kids) <= fanout
            for kid in kids:
                assert tree.parent[kid] == node

    @settings(max_examples=40)
    @given(
        topologies,
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_relay_tree_deterministic(self, kind, n, fanout, data):
        topo = make_topology(kind, n)
        root = data.draw(st.integers(min_value=0, max_value=n - 1))
        members = tuple(range(n))
        a = build_relay_tree(topo, root, members, fanout)
        b = build_relay_tree(topo, root, members, fanout)
        assert a.parent == b.parent
        assert a.children == b.children

    def test_relay_tree_rejects_bad_fanout(self):
        topo = make_topology("ring", 4)
        with pytest.raises(TopologyError):
            build_relay_tree(topo, 0, (1, 2, 3), 0)
