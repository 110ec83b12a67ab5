"""Network message descriptor.

A :class:`Message` is what the communication backends hand to links: a
size, endpoints, and an opaque payload (usually a SubCommTask).  Links
and transports never inspect the payload — the network stack below the
scheduler is priority-oblivious, exactly as in the paper (§2.2: "the
underlying communication stack ... is inherently based on FIFO queues").

When the fabric's delivery guard is enabled, each message also carries
a small integrity header: ``(epoch, seq)`` — the destination's
incarnation number at send time, and the globally unique ``uid`` doing
double duty as the sequence number — plus a CRC32 checksum over the
header fields.  The header is stamped lazily (by
:meth:`stamp_integrity`) so the fault-free fast path pays nothing.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Any, Optional

__all__ = ["Message"]

_message_ids = itertools.count()


class Message:
    """One unit of data handed to the network for transmission.

    Hand-rolled with ``__slots__`` rather than a dataclass: two of
    these are allocated per scheduled partition, which puts their
    construction on the sweep-wide hot path.
    """

    __slots__ = (
        "src",
        "dst",
        "size",
        "payload",
        "kind",
        "uid",
        "enqueued_at",
        "epoch",
        "checksum",
        "duplicate",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        size: float,
        payload: Any = None,
        kind: str = "data",
        uid: Optional[int] = None,
        enqueued_at: Optional[float] = None,
        epoch: Optional[int] = None,
        duplicate: bool = False,
    ) -> None:
        if not size >= 0:  # also rejects NaN
            raise ValueError(f"message size must be >= 0, got {size!r}")
        self.src = src
        self.dst = dst
        self.size = size
        self.payload = payload
        self.kind = kind
        self.uid = next(_message_ids) if uid is None else uid
        self.enqueued_at = enqueued_at
        #: Destination incarnation at send time (None = no guard).
        self.epoch = epoch
        #: CRC32 over the header; None until :meth:`stamp_integrity`.
        self.checksum = None
        #: True for a network-injected duplicate copy (accounting only;
        #: a real receiver cannot tell — the dedup window is what drops
        #: these).
        self.duplicate = duplicate

    @property
    def seq(self) -> int:
        """Sequence number of the delivery protocol (the uid: globally
        unique, so a retransmitted copy keeps its original seq)."""
        return self.uid

    def expected_checksum(self) -> int:
        """The CRC32 a receiver recomputes from the header fields."""
        header = f"{self.kind}:{self.src}>{self.dst}#{self.uid}@{self.epoch}:{self.size:.0f}"
        return zlib.crc32(header.encode("ascii"))

    def stamp_integrity(self, epoch: int) -> None:
        """Stamp the ``(epoch, seq)`` header and checksum (guard path)."""
        self.epoch = epoch
        self.checksum = self.expected_checksum()

    def corrupt(self) -> None:
        """Damage the message in flight: the stored checksum no longer
        matches what the receiver recomputes.  Idempotent — corrupting
        an already-corrupt message must not restore it."""
        if self.checksum is not None:
            self.checksum = self.expected_checksum() ^ 0x1

    def checksum_ok(self) -> bool:
        """Receiver-side verification (True when unstamped: no guard)."""
        return self.checksum is None or self.checksum == self.expected_checksum()

    def clone_for_retransmit(self) -> "Message":
        """A fresh, intact copy with the same ``(epoch, seq)`` identity
        (NACK-triggered retransmit; dedup sees the same seq)."""
        copy = Message(
            self.src,
            self.dst,
            self.size,
            payload=self.payload,
            kind=self.kind,
            uid=self.uid,
            epoch=self.epoch,
        )
        copy.checksum = copy.expected_checksum()
        return copy

    def __repr__(self) -> str:
        return (
            f"<Message #{self.uid} {self.kind} {self.src}->{self.dst} "
            f"{self.size:.0f}B>"
        )
