"""Spanning trees for group multicast.

The Sesame hardware implements "a reliable tree-based multicast protocol"
per sharing group: one root sequences, routes, and retransmits all
sharing messages.  :func:`build_bfs_tree` constructs the logical
distribution tree for a group: a shortest-path tree over the group
members rooted at the group root, where edge weights are physical hop
counts from the topology.

Because a direct root-to-member edge is always available at exactly the
metric distance, the tree preserves the key timing property the
simulation depends on: the tree-path distance from the root to every
member equals the topology's shortest-path distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.net.topology import Topology


@dataclass(slots=True)
class SpanningTree:
    """A rooted distribution tree over a set of member nodes.

    Attributes:
        root: The group root (sequencer / lock manager).
        parent: Map member -> parent member (root maps to itself).
        children: Map member -> tuple of child members.
        depth_hops: Map member -> physical hops from the root along the
            tree path.
    """

    root: int
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]] = field(default_factory=dict)
    depth_hops: dict[int, int] = field(default_factory=dict)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.parent))

    def path_to_root(self, member: int) -> list[int]:
        """Members on the tree path from ``member`` up to the root."""
        if member not in self.parent:
            raise TopologyError(f"node {member} is not in the tree")
        path = [member]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
            if len(path) > len(self.parent) + 1:
                raise TopologyError("cycle detected in spanning tree")
        return path

    def validate(self, topology: Topology) -> None:
        """Check tree invariants; raises :class:`TopologyError` if broken."""
        if self.parent.get(self.root) != self.root:
            raise TopologyError("root must be its own parent")
        for member in self.parent:
            self.path_to_root(member)  # raises on cycles / disconnection
        for member, depth in self.depth_hops.items():
            metric = topology.hops(self.root, member)
            if depth < metric:
                raise TopologyError(
                    f"tree distance {depth} to node {member} beats the "
                    f"metric shortest path {metric}"
                )


def build_bfs_tree(
    topology: Topology,
    root: int,
    members: tuple[int, ...] | list[int],
) -> SpanningTree:
    """Build the group distribution tree rooted at ``root``.

    The shortest-path tree over the complete graph on ``members`` with
    hop-count edge weights, ties broken in favour of fewer tree edges,
    is a star: hop counts obey the triangle inequality, so no two-edge
    path beats the direct root-to-member edge and an equal one has more
    edges.  Every member therefore hangs off the root at its metric
    distance (``tests/unit/test_spanning_tree.py`` keeps the Dijkstra
    this replaces as the reference).
    """
    member_set = set(members)
    member_set.add(root)
    ordered = sorted(member_set)
    for node in ordered:
        if not 0 <= node < topology.n_nodes:
            raise TopologyError(f"member {node} not in {topology!r}")

    parent = {root: root}
    depth_hops = {root: 0}
    children: dict[int, tuple[int, ...]] = {node: () for node in ordered}
    leaves = tuple(node for node in ordered if node != root)
    for node in leaves:
        parent[node] = root
        depth_hops[node] = topology.hops(root, node)
    children[root] = leaves
    return SpanningTree(
        root=root, parent=parent, children=children, depth_hops=depth_hops
    )


def build_relay_tree(
    topology: Topology,
    root: int,
    members: "tuple[int, ...] | list[int]",
    fanout: int,
) -> SpanningTree:
    """Build a bounded-degree relay tree for hierarchical multicast.

    Unlike :func:`build_bfs_tree` (where the root fans out directly to
    every member), no node forwards to more than ``fanout`` children:
    non-root members are ordered by (metric hops from the root, node id)
    and fill a ``fanout``-ary tree level by level, so the members
    nearest the root become the relay sub-roots.  Tree-path distances
    may exceed the metric shortest path — that is the deliberate
    trade: bounded per-node send work in exchange for extra hops.
    """
    if fanout < 1:
        raise TopologyError(f"relay fanout must be >= 1, got {fanout}")
    member_set = set(members)
    member_set.add(root)
    ordered = sorted(member_set)
    for node in ordered:
        if not 0 <= node < topology.n_nodes:
            raise TopologyError(f"member {node} not in {topology!r}")

    nonroot = sorted(
        (node for node in ordered if node != root),
        key=lambda node: (topology.hops(root, node), node),
    )
    parent: dict[int, int] = {root: root}
    children: dict[int, list[int]] = {node: [] for node in ordered}
    depth: dict[int, int] = {root: 0}
    # Assignment order doubles as relay order: the first members
    # attached (nearest the root) are the first to receive children.
    slots: list[int] = [root]
    cursor = 0
    for node in nonroot:
        while len(children[slots[cursor]]) >= fanout:
            cursor += 1
        relay = slots[cursor]
        parent[node] = relay
        children[relay].append(node)
        depth[node] = depth[relay] + topology.hops(relay, node)
        slots.append(node)

    return SpanningTree(
        root=root,
        parent=parent,
        children={node: tuple(kids) for node, kids in children.items()},
        depth_hops=depth,
    )
