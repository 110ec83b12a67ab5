"""A unidirectional FIFO link.

The link is the FIFO queue the whole paper is about: once a message is
handed to it, the message serialises at line rate behind everything
already queued, and *nothing can jump ahead* — priority has to be
enforced above the link, by the scheduler, before enqueueing.

Implementation notes: because service is strict FIFO at a fixed rate, a
link does not need a simulated server process; it keeps a ``busy_until``
horizon and computes each message's completion time at enqueue.  A
healthy link (no fault windows) does that arithmetic and the byte,
message and busy-time accounting inline; only a degraded link calls
into the fault-window helpers.  ``Transport.wire_time`` is always
called, because :class:`~repro.net.transport.FaultyTransport` draws
its loss and delay fates there.

Completion is reported by calling back, and each frame's completion
is its own kernel entry: :meth:`~repro.sim.Environment.defer_at` at
the frame's ``end``, armed at enqueue, so every completion keeps the
same-instant tie-break position of its own enqueue.  One entry serving
many frames was measured to shift simulated iteration times by whole
transfer slots, because its sequence number is the head frame's, not
each frame's.  The entry is armed for ``end`` itself, never for
``now`` plus a delay: ``now + (end - now)`` can round one ulp below
``end``.  Frames with bit-equal ends (which needs a zero wire time)
complete in enqueue order, the order of their sequence numbers.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.sim import Environment, Trace
from repro.net.message import Message
from repro.net.transport import Transport

__all__ = ["Link"]

_NO_WINDOWS: Tuple[Tuple[float, float, float], ...] = ()


class Link:
    """One direction of a NIC: FIFO service at ``bandwidth`` bytes/s."""

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth: float,
        transport: Transport,
        trace: Optional[Trace] = None,
    ) -> None:
        if not bandwidth > 0:  # also rejects NaN
            raise ValueError(f"bandwidth must be > 0, got {bandwidth!r}")
        self.env = env
        self.name = name
        self.bandwidth = bandwidth
        self.transport = transport
        self.trace = trace
        self._busy_until = env.now
        #: Degradation windows imposed by a fault plan: sorted, disjoint
        #: (start, end, rate_factor) triples; empty = healthy.
        self._fault_windows: Tuple[Tuple[float, float, float], ...] = _NO_WINDOWS
        #: Optional :class:`~repro.net.transport.LinkIntegrityInjector`
        #: drawing corrupt/dup/reorder fates for messages on this link.
        self.integrity = None
        #: Totals for utilisation accounting.
        self.bytes_sent = 0.0
        self.messages_sent = 0
        self.busy_time = 0.0

    @property
    def busy_until(self) -> float:
        """Earliest time a newly enqueued message could start serialising."""
        return self._busy_until

    @property
    def queue_delay(self) -> float:
        """Seconds a message enqueued *now* would wait before starting."""
        return max(0.0, self._busy_until - self.env.now)

    def set_fault_windows(
        self, windows: Sequence[Tuple[float, float, float]]
    ) -> None:
        """Impose degradation windows from a fault plan.

        ``windows`` are ``(start, end, rate_factor)`` triples, sorted
        and disjoint (see :func:`repro.faults.plan.merge_windows`);
        factor 0 stalls the link for the window.  Passing an empty
        sequence restores the healthy link.
        """
        self._fault_windows = tuple(windows)

    def _integrity_delay(self, message: Message, now: float) -> float:
        """Roll the integrity injector (corrupt flips the checksum in
        place, dup is queued for the fabric) and return any reorder
        delay — extra switch-buffer time added to *delivery* without
        occupying the link."""
        outcome = self.integrity.roll(message, now)
        if outcome.dup:
            self.integrity.dup_pending.add(message.uid)
        return outcome.reorder_delay

    def _degraded(self, start: float, service: float) -> Tuple[float, float]:
        """``(serialise_end, busy)`` for ``service`` seconds of
        full-rate work starting at ``start`` under the degradation
        windows.

        Busy time is the serialisation interval minus any blackout
        (factor-0) stall inside it: a blacked-out link holds the
        message but moves no bytes, so counting the stall as busy
        would overstate utilisation.
        """
        from repro.faults.plan import blackout_time, degraded_finish

        windows = self._fault_windows
        end = degraded_finish(start, service, windows)
        return end, end - start - blackout_time(start, end, windows)

    def transmit(
        self, message: Message, callback: Callable[[Message], None]
    ) -> None:
        """Enqueue ``message`` and call ``callback(message)`` when its
        last byte has left this link."""
        env = self.env
        now = env._now
        message.enqueued_at = now
        busy_until = self._busy_until
        start = now if now > busy_until else busy_until
        service = self.transport.wire_time(message.size, self.bandwidth)
        if self._fault_windows:
            end, busy = self._degraded(start, service)
        else:
            end = start + service
            busy = end - start
        self._busy_until = end
        self.bytes_sent += message.size
        self.messages_sent += 1
        self.busy_time += busy
        extra = 0.0
        if self.integrity is not None:
            extra = self._integrity_delay(message, now)
        if self.trace is not None:
            self.trace.span(
                "link",
                self.name,
                start,
                end,
                message=self.trace.intern(message.uid),
                size=message.size,
                kind=message.kind,
            )
        if extra > 0.0:
            # A reorder fate may legitimately complete after later
            # messages.
            env.defer(callback, message, end - now + extra)
        else:
            env.defer_at(callback, message, end)

    def transmit_cut_through(
        self,
        message: Message,
        available_at: float,
        callback: Callable[[Message], None],
    ) -> None:
        """Enqueue a message whose bytes *streamed in* while an upstream
        link serialised them (virtual cut-through).

        ``available_at`` is when the last byte arrived from upstream.
        If this link is idle it finishes almost immediately after that
        (it was receiving and forwarding concurrently); if it is
        backlogged, the message still occupies a full service slot:
        ``end = max(available_at, busy_until + service)``, when
        ``callback(message)`` is called, as on :meth:`transmit`.
        """
        env = self.env
        now = env._now
        message.enqueued_at = now
        service = self.transport.wire_time(message.size, self.bandwidth)
        # The service slot opens when the link frees, or just early
        # enough to end at the upstream arrival — whichever is later.
        start = available_at - service
        if self._busy_until > start:
            start = self._busy_until
        if self._fault_windows:
            serialise_end, busy = self._degraded(start, service)
        else:
            serialise_end = start + service
            busy = serialise_end - start
        end = available_at if available_at > serialise_end else serialise_end
        self._busy_until = end
        # Busy time is the serialisation interval only: when ``end`` is
        # pinned by ``available_at`` (a backlogged link waiting on slow
        # upstream bytes), the tail [serialise_end, end] is idle wait,
        # not transmission.
        self.bytes_sent += message.size
        self.messages_sent += 1
        self.busy_time += busy
        extra = 0.0
        if self.integrity is not None:
            extra = self._integrity_delay(message, now)
        if self.trace is not None:
            self.trace.span(
                "link",
                self.name,
                start,
                end,
                message=self.trace.intern(message.uid),
                size=message.size,
                kind=message.kind,
            )
        if extra > 0.0:
            env.defer(callback, message, max(0.0, end - now) + extra)
        else:
            # A past ``end`` (available_at already elapsed on an idle
            # link) completes now: every earlier frame already has.
            env.defer_at(callback, message, end if end > now else now)

    def reset_counters(self) -> None:
        """Zero the byte/message/busy counters (e.g. after warm-up)."""
        self.bytes_sent = 0.0
        self.messages_sent = 0
        self.busy_time = 0.0

    def snapshot(self) -> dict:
        """Point-in-time counters for per-iteration metric sampling."""
        return {
            "bytes_sent": self.bytes_sent,
            "messages_sent": self.messages_sent,
            "busy_time": self.busy_time,
            "queue_delay": self.queue_delay,
        }

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.bandwidth:.3g}B/s {self.transport.name}>"
