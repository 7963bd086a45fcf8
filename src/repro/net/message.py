"""Messages carried by the simulated network.

Higher layers (the DSM memory substrate, lock protocols) subclass or
instantiate :class:`Message` with a ``kind`` tag; the network only needs
source, destination, and size to compute delays and statistics.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.params import DEFAULT_PACKET_BYTES

_message_ids = itertools.count(1)
_next_message_id = _message_ids.__next__
_NAN = float("nan")


class Message:
    """One network message.

    A hand-written ``__slots__`` class rather than a dataclass: one
    instance is allocated per send on the hottest protocol path, and the
    plain ``__init__`` costs roughly half of the generated one.

    Attributes:
        src: Sending node id.
        dst: Receiving node id.
        kind: Protocol tag, e.g. ``"update"``, ``"lock_request"``.
        payload: Arbitrary protocol data (not interpreted by the network).
        size_bytes: Wire size used for serialization delay.
        msg_id: Unique id assigned at construction (for tracing).
        sent_at: Stamped by the network when the message enters a channel.
    """

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "msg_id", "sent_at")

    def __init__(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Any = None,
        size_bytes: int = DEFAULT_PACKET_BYTES,
        msg_id: int | None = None,
        sent_at: float = _NAN,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.msg_id = _next_message_id() if msg_id is None else msg_id
        self.sent_at = sent_at

    def __repr__(self) -> str:
        return (
            f"Message(src={self.src}, dst={self.dst}, kind={self.kind!r}, "
            f"payload={self.payload!r}, size_bytes={self.size_bytes}, "
            f"msg_id={self.msg_id}, sent_at={self.sent_at})"
        )

    def __str__(self) -> str:
        return (
            f"Message#{self.msg_id}({self.kind} {self.src}->{self.dst}, "
            f"{self.size_bytes}B)"
        )


def fire_cohort(cohort: tuple) -> None:
    """Deliver one multicast payload to a cohort from a single heap event.

    ``cohort`` is ``(receivers, payload, src, kind, size_bytes,
    sent_at)`` with ``receivers`` the ``(dst, handler)`` pairs, in
    target order, of the recipients whose FIFO-clamped arrivals
    coincide.  Each handler gets its own :class:`Message`, exactly as
    if the network had scheduled one delivery per recipient.  Scheduled
    by :meth:`Network.send_fanout` for recipients that advertise no
    batch entry point of their own.
    """
    receivers, payload, src, kind, size_bytes, sent_at = cohort
    for dst, handler in receivers:
        msg = Message(src, dst, kind, payload, size_bytes)
        msg.sent_at = sent_at
        handler(msg)
