"""A total-store-order oracle for group write consistency.

GWC's core guarantee: "All eagerly shared writes ... will be performed
in the same order on all sharing processors."  :class:`OrderProbe`
wraps every member interface's apply step and records the sequence of
``(seq, var, value)`` tuples each node actually applied, then verifies:

1. **prefix property** — every member's applied sequence is a prefix of
   the root's sequenced history (members may lag, never diverge);
2. **gaplessness** — each member applied consecutive sequence numbers
   (dropped echoes and suppressed applies still consume their number);
3. **agreement** — any two members agree on every sequence number both
   applied.

The probe observes the interface from outside (it replaces
``_process`` on each member through
:func:`~repro.memory.interface.install_apply_spy`), so the protocol
under test is unmodified.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConsistencyError
from repro.memory.interface import install_apply_spy


class OrderProbe:
    """Records and verifies per-member apply orders for one group."""

    def __init__(self, machine: "DSMMachine", group: str) -> None:  # noqa: F821
        self.machine = machine
        self.group = group
        #: node -> list of (seq, var, value) in apply order.
        self.applied: dict[int, list[tuple[int, str, Any]]] = {}
        grp = machine.groups[group]
        for node_id in grp.members:
            self.applied[node_id] = []
            iface = machine.nodes[node_id].iface
            original = iface._process

            def spy(packet, node_id=node_id, original=original):
                if packet.group == self.group:
                    self.applied[node_id].append(
                        (packet.seq, packet.var, packet.value)
                    )
                original(packet)

            install_apply_spy(iface, iface, "_process", spy)

    def verify(self) -> None:
        """Raise :class:`ConsistencyError` on any total-order violation."""
        for node_id, seq in self.applied.items():
            numbers = [s for s, _, _ in seq]
            if numbers != sorted(numbers):
                raise ConsistencyError(
                    f"node {node_id} applied out of order: {numbers}"
                )
            for i, n in enumerate(numbers):
                if n != i:
                    raise ConsistencyError(
                        f"node {node_id} has a gap: applied seq {n} at "
                        f"position {i}"
                    )
        # Agreement on every common prefix.
        members = sorted(self.applied)
        for a in members:
            for b in members:
                if b <= a:
                    continue
                common = min(len(self.applied[a]), len(self.applied[b]))
                if self.applied[a][:common] != self.applied[b][:common]:
                    raise ConsistencyError(
                        f"nodes {a} and {b} disagree on the apply order"
                    )

    def max_lag(self) -> int:
        """How many applies the slowest member trails the fastest by."""
        lengths = [len(seq) for seq in self.applied.values()]
        return max(lengths) - min(lengths) if lengths else 0
