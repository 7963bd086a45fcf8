"""Unit tests for spanning trees and the sequenced multicast."""

from __future__ import annotations

import heapq

import pytest

from repro.errors import TopologyError
from repro.net.multicast import MulticastTree
from repro.net.network import Network
from repro.net.spanning_tree import SpanningTree, build_bfs_tree
from repro.net.topology import FullyConnected, MeshTorus, Ring, Star
from repro.params import MachineParams
from repro.sim.kernel import Simulator


class TestBuildTree:
    def test_tree_spans_all_members(self):
        tree = build_bfs_tree(MeshTorus(9), root=0, members=tuple(range(9)))
        assert tree.members == tuple(range(9))
        assert tree.parent[0] == 0

    def test_tree_distance_equals_metric_distance(self):
        """The key timing property: the tree never lengthens the path
        from the root to any member."""
        topo = MeshTorus(16)
        tree = build_bfs_tree(topo, root=3, members=tuple(range(16)))
        for member in range(16):
            assert tree.depth_hops[member] == topo.hops(3, member)

    def test_subset_membership(self):
        tree = build_bfs_tree(Ring(10), root=2, members=(2, 4, 8))
        assert tree.members == (2, 4, 8)
        assert 5 not in tree.parent

    def test_children_inverse_of_parent(self):
        tree = build_bfs_tree(MeshTorus(12), root=0, members=tuple(range(12)))
        for node, kids in tree.children.items():
            for kid in kids:
                assert tree.parent[kid] == node

    def test_path_to_root_terminates(self):
        tree = build_bfs_tree(Star(6), root=0, members=tuple(range(6)))
        for member in range(6):
            path = tree.path_to_root(member)
            assert path[0] == member
            assert path[-1] == 0

    def test_validate_passes_on_built_trees(self):
        topo = MeshTorus(9)
        tree = build_bfs_tree(topo, root=4, members=tuple(range(9)))
        tree.validate(topo)

    def test_member_out_of_range_rejected(self):
        with pytest.raises(TopologyError):
            build_bfs_tree(Ring(4), root=0, members=(0, 9))

    def test_deterministic_construction(self):
        a = build_bfs_tree(MeshTorus(16), root=0, members=tuple(range(16)))
        b = build_bfs_tree(MeshTorus(16), root=0, members=tuple(range(16)))
        assert a.parent == b.parent

    def test_path_to_root_unknown_member(self):
        tree = build_bfs_tree(Ring(4), root=0, members=(0, 1))
        with pytest.raises(TopologyError):
            tree.path_to_root(3)


def dijkstra_tree(topology, root, members) -> SpanningTree:
    """The reference ``build_bfs_tree`` replaced: Dijkstra over the
    complete graph on ``members`` with hop-count edge weights, ties to
    fewer tree edges, then lower node ids."""
    ordered = sorted({root, *members})
    dist = {root: 0}
    edges = {root: 0}
    parent = {root: root}
    done = set()
    frontier = [(0, 0, root)]
    while frontier:
        d, e, node = heapq.heappop(frontier)
        if node in done:
            continue
        done.add(node)
        for other in ordered:
            if other in done:
                continue
            cand = d + topology.hops(node, other)
            best = dist.get(other)
            if (
                best is None
                or cand < best
                or (cand == best and e + 1 < edges[other])
            ):
                dist[other] = cand
                edges[other] = e + 1
                parent[other] = node
                heapq.heappush(frontier, (cand, e + 1, other))
    children = {node: [] for node in ordered}
    for node in ordered:
        if node != root:
            children[parent[node]].append(node)
    return SpanningTree(
        root=root,
        parent=parent,
        children={node: tuple(kids) for node, kids in children.items()},
        depth_hops=dist,
    )


class TestStarEqualsDijkstra:
    """The direct construction is the shortest-path tree, field for
    field and in the same dict order, on every topology class."""

    @pytest.mark.parametrize("topology_cls", [MeshTorus, Ring, Star, FullyConnected])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33])
    def test_every_field_matches_the_reference(self, topology_cls, n):
        topology = topology_cls(n)
        subsets = {
            tuple(range(n)),
            tuple(range(0, n, 2)),
            tuple(range(n - 1, -1, -3)),
            (n // 2,),
        }
        for members in subsets:
            for root in {0, n // 2, n - 1, members[0]}:
                built = build_bfs_tree(topology, root, members)
                reference = dijkstra_tree(topology, root, members)
                assert built.root == reference.root
                for name in ("parent", "children", "depth_hops"):
                    assert list(getattr(built, name).items()) == list(
                        getattr(reference, name).items()
                    ), (name, root, members)
                built.validate(topology)

    def test_root_outside_the_topology_rejected(self):
        with pytest.raises(TopologyError, match="member 9 not in"):
            build_bfs_tree(Ring(4), root=9, members=(0, 1))


class TestMulticast:
    def make(self, n=6, root=0):
        sim = Simulator()
        network = Network(sim, Ring(n), MachineParams())
        return sim, network, MulticastTree(network, root, tuple(range(n)))

    def test_reaches_every_member(self):
        sim, network, tree = self.make()
        got = {}
        for node in range(6):
            network.attach(node, lambda m, node=node: got.setdefault(node, m.payload))
        tree.multicast("gwc.apply", "payload", size_bytes=16)
        sim.run()
        assert set(got) == set(range(6))
        assert all(v == "payload" for v in got.values())

    def test_exclude_root(self):
        sim, network, tree = self.make()
        got = set()
        for node in range(6):
            network.attach(node, lambda m, node=node: got.add(node))
        tree.multicast("gwc.apply", None, size_bytes=16, include_root=False)
        sim.run()
        assert got == {1, 2, 3, 4, 5}

    def test_nearer_members_receive_earlier(self):
        sim, network, tree = self.make()
        times = {}
        for node in range(6):
            network.attach(node, lambda m, node=node: times.setdefault(node, sim.now))
        tree.multicast("gwc.apply", None, size_bytes=16)
        sim.run()
        assert times[1] < times[3]  # 1 hop vs 3 hops on the ring

    def test_sequence_numbers_monotonic(self):
        sim, network, tree = self.make()
        seqs = [tree.next_sequence() for _ in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
