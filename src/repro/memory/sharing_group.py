"""Sharing groups: the unit of eagersharing and write ordering.

A sharing group is a set of member nodes, one of which is the **group
root**.  The root is simultaneously (Section 4 of the paper):

1. the *sequencing arbiter* for all shared writes in the group,
2. the *lock manager* for every lock variable in the group, and
3. the gatekeeper that *discards* speculative mutex-data writes from
   nodes that do not hold the corresponding lock.

"Compiler tools can aggregate related variables and locks into the same
sharing group" — here the aggregation is explicit: variables and locks
are declared on the group.
Every group is a :class:`GroupFamily` of K >= 1 root partitions; the
paper's single-root group is a family of one.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import GroupMembershipError, MemoryError_
from repro.memory.varspace import FREE_VALUE, LockDecl, RootPartitionMap, VarDecl
from repro.net.multicast import MulticastTree
from repro.net.network import Network


class SharingGroup:
    """Declarations and membership for one eagersharing group."""

    def __init__(
        self,
        name: str,
        network: Network,
        members: tuple[int, ...],
        root: int,
        fanout: int | None = None,
    ) -> None:
        if root not in members:
            raise GroupMembershipError(
                f"group {name!r}: root {root} must be a member of {members}"
            )
        if len(set(members)) != len(members):
            raise GroupMembershipError(f"group {name!r}: duplicate members")
        self.name = name
        self.members = tuple(sorted(members))
        self.root = root
        #: Relay fanout for hierarchical multicast (None = direct fanout).
        self.fanout = fanout
        self.tree = MulticastTree(network, root, self.members, fanout=fanout)
        self.variables: dict[str, VarDecl] = {}
        self.locks: dict[str, LockDecl] = {}
        #: The family this group is a part of; a group built on its own
        #: is the one part of a family of one.
        self.family = GroupFamily(name, (self,), RootPartitionMap(name, 1))

    def __repr__(self) -> str:
        return (
            f"SharingGroup({self.name!r}, root={self.root}, "
            f"members={len(self.members)}, vars={len(self.variables)}, "
            f"locks={len(self.locks)})"
        )

    def has_member(self, node: int) -> bool:
        return node in set(self.members)

    def retarget_root(self, new_root: int, start_seq: int = 0) -> None:
        """Re-root the group on a failover successor.

        The group object is shared by reference across every member's
        interface, so updating ``root`` and rebuilding the spanning
        tree re-routes all future origin->root traffic at once.  The
        new tree's sequence counter starts at ``start_seq`` (the
        reconstruction quorum's ``max + 1``), not zero.
        """
        if not self.has_member(new_root):
            raise GroupMembershipError(
                f"group {self.name!r}: failover root {new_root} is not a "
                f"member of {self.members}"
            )
        self.root = new_root
        self.tree = MulticastTree(
            self.tree.network,
            new_root,
            self.members,
            start_seq=start_seq,
            fanout=self.fanout,
        )

    def declare_variable(self, decl: VarDecl) -> VarDecl:
        """Register a shared variable on this group."""
        if decl.group != self.name:
            raise MemoryError_(
                f"variable {decl.name!r} declared for group {decl.group!r}, "
                f"not {self.name!r}"
            )
        if decl.name in self.variables or decl.name in self.locks:
            raise MemoryError_(f"name {decl.name!r} already declared in group")
        self.variables[decl.name] = decl
        return decl

    def declare_lock(self, decl: LockDecl) -> LockDecl:
        """Register a lock variable; its protected variables must exist."""
        if decl.group != self.name:
            raise MemoryError_(
                f"lock {decl.name!r} declared for group {decl.group!r}, "
                f"not {self.name!r}"
            )
        if decl.name in self.locks or decl.name in self.variables:
            raise MemoryError_(f"name {decl.name!r} already declared in group")
        for var in decl.protects:
            existing = self.variables.get(var)
            if existing is None:
                raise MemoryError_(
                    f"lock {decl.name!r} protects undeclared variable {var!r}"
                )
            if existing.mutex_lock != decl.name:
                raise MemoryError_(
                    f"variable {var!r} must be declared with "
                    f"mutex_lock={decl.name!r} to be protected by it"
                )
        self.locks[decl.name] = decl
        return decl

    def is_lock(self, name: str) -> bool:
        return name in self.locks

    def var_decl(self, name: str) -> VarDecl:
        try:
            return self.variables[name]
        except KeyError:
            raise MemoryError_(
                f"group {self.name!r} has no variable {name!r}"
            ) from None

    def lock_decl(self, name: str) -> LockDecl:
        try:
            return self.locks[name]
        except KeyError:
            raise MemoryError_(f"group {self.name!r} has no lock {name!r}") from None

    def wire_bytes(self, name: str, packet_bytes: int) -> int:
        """Wire size of one update packet for variable or lock ``name``.

        Lock values are a single word and ride in the bare packet; data
        variables add their declared payload size.
        """
        if name in self.locks:
            return packet_bytes
        return packet_bytes + self.var_decl(name).size_bytes

    def initial_image(self) -> dict[str, object]:
        """Initial (name -> value) image for a member's local store."""
        image: dict[str, object] = {
            decl.name: decl.initial for decl in self.variables.values()
        }
        for lock in self.locks.values():
            image[lock.name] = FREE_VALUE
        return image


class GroupFamily:
    """One sharing group as K >= 1 root partitions ("parts").

    Part 0 keeps the family's name, part k is ``{name}@r{k}``; all
    parts share the members, each has its own root, sequencer and epoch.
    The partition map decides which part declares every name, and
    ``parts[k]`` is partition ``k``.
    """

    def __init__(
        self,
        name: str,
        parts: tuple[SharingGroup, ...],
        pmap: RootPartitionMap,
    ) -> None:
        self.name = name
        self.parts = parts
        self.pmap = pmap
        for part in parts:
            part.family = self

    @classmethod
    def build(
        cls,
        name: str,
        network: Network,
        members: tuple[int, ...],
        roots: tuple[int, ...],
        fanout: int | None = None,
        seed: int = 0,
    ) -> GroupFamily:
        """Parts rooted at ``roots`` in order, over a seeded partition map."""
        parts = tuple(
            SharingGroup(
                name if k == 0 else f"{name}@r{k}", network, members, root, fanout
            )
            for k, root in enumerate(roots)
        )
        return cls(name, parts, RootPartitionMap(name, len(parts), seed=seed))

    def home(self, name: str) -> SharingGroup:
        """The part that owns variable or lock ``name`` now."""
        return self.parts[self.pmap.partition_of(name)]

    def declared(self, unit: str) -> tuple[str, ...]:
        """The names of ``unit`` its home part declares, sorted."""
        part = self.parts[self.pmap.partition_of_unit(unit)]
        unit_of = self.pmap.unit_of
        return tuple(
            sorted(n for n in (*part.variables, *part.locks) if unit_of(n) == unit)
        )

    def move(self, unit: str, target: int) -> tuple[str, ...]:
        """Re-home ``unit`` on part ``target``: flip the map's override
        and move every declaration of the unit; returns the moved names."""
        names = self.declared(unit)
        source = self.parts[self.pmap.partition_of_unit(unit)]
        self.pmap.set_override(unit, target)
        dest = self.parts[target]
        for name in names:
            if name in source.locks:
                dest.locks[name] = replace(source.locks.pop(name), group=dest.name)
            else:
                dest.variables[name] = replace(
                    source.variables.pop(name), group=dest.name
                )
        return names
