"""Transport models: TCP vs RDMA.

The paper's only transport-level distinction that matters to scheduling
is the *per-message overhead* θ — "there is certain overhead for sending
a tensor regardless of the size of the tensor" (§2.3), measured at about
300 µs on their testbed — and the fraction of line rate the stack can
actually sustain.  RDMA has a leaner stack, hence lower θ and higher
efficiency (§6.2: "the overhead due to small partition is lower with
RDMA than with TCP").

A :class:`Transport` turns (size, link bandwidth) into a wire time.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.units import US

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import TransportFault
    from repro.net.message import Message

__all__ = [
    "Transport",
    "TCPTransport",
    "RDMATransport",
    "LocalTransport",
    "FaultyTransport",
    "IntegrityStats",
    "LinkIntegrityInjector",
    "DeliveryGuard",
]

#: Receiver-side dedup window: how many recently accepted sequence
#: numbers each destination remembers.  Past the window a replayed seq
#: is accepted again — eviction is counted so the chaos oracle can tell
#: when the window was too small for the traffic.
DEFAULT_DEDUP_WINDOW = 1024

#: NACK-triggered retransmits per message before the guard gives up
#: (mirrors the PR 1 retry budget's default depth).
DEFAULT_MAX_RETRANSMITS = 5


@dataclass(frozen=True)
class Transport:
    """Cost model for moving one message over one link hop.

    Attributes:
        name: human-readable label ("tcp", "rdma", ...).
        overhead: fixed per-message time per *hop* in seconds (the θ of
            §4.1 is the end-to-end sum over hops).
        efficiency: fraction of the physical line rate the stack
            sustains (TCP pays CPU/serialisation costs RDMA does not).
    """

    name: str
    overhead: float
    efficiency: float

    def __post_init__(self) -> None:
        if self.overhead < 0:
            raise ValueError(f"overhead must be >= 0, got {self.overhead!r}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(
                f"efficiency must be in (0, 1], got {self.efficiency!r}"
            )

    def wire_time(self, size: float, bandwidth: float) -> float:
        """Seconds to serialise ``size`` bytes over one hop.

        ``bandwidth`` is the physical link speed in bytes/second.
        """
        # ``not x >= 0`` / ``not x > 0`` also reject NaN.
        if not size >= 0:
            raise ValueError(f"size must be >= 0, got {size!r}")
        if not bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth!r}")
        return size / (bandwidth * self.efficiency) + self.overhead


class FaultyTransport(Transport):
    """A transport whose messages are probabilistically lost or delayed.

    Loss is modelled the way a reliable stack experiences it: a lost
    copy costs one extra serialisation plus the retransmission timeout,
    repeated for each consecutive loss (capped at ``fault.max_losses``).
    Delay adds a fixed extra latency to the affected message.  Draws
    come from the injected seeded RNG, so the perturbation sequence is a
    pure function of (seed, message order) — fully deterministic.
    """

    def __init__(
        self, inner: Transport, fault: "TransportFault", rng: random.Random
    ) -> None:
        super().__init__(
            name=f"faulty-{inner.name}",
            overhead=inner.overhead,
            efficiency=inner.efficiency,
        )
        # The dataclass base is frozen; side-channel attributes go
        # through object.__setattr__ like the generated __init__ does.
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "fault", fault)
        object.__setattr__(self, "rng", rng)
        object.__setattr__(self, "messages_lost", 0)
        object.__setattr__(self, "messages_delayed", 0)

    def wire_time(self, size: float, bandwidth: float) -> float:
        base = self.inner.wire_time(size, bandwidth)
        extra = 0.0
        losses = 0
        while (
            losses < self.fault.max_losses
            and self.fault.loss_probability > 0
            and self.rng.random() < self.fault.loss_probability
        ):
            losses += 1
            extra += base + self.fault.retransmit_penalty
        if losses:
            object.__setattr__(self, "messages_lost", self.messages_lost + losses)
        if (
            self.fault.delay_probability > 0
            and self.rng.random() < self.fault.delay_probability
        ):
            object.__setattr__(self, "messages_delayed", self.messages_delayed + 1)
            extra += self.fault.delay
        return base + extra


@dataclass
class IntegrityStats:
    """Shared data-plane integrity counters (one instance per run).

    The accounting identities the chaos matrix asserts:

    * ``corrupt_injected == corrupt_detected + corrupt_lost`` — every
      corrupted copy is either caught by the receiver's checksum or
      died on the wire / at a dead endpoint first;
    * ``retransmits == corrupt_detected - retransmit_exhausted`` —
      every detection NACKs a fresh copy until the budget runs out;
    * ``dup_injected == dup_absorbed + dup_lost`` — every injected
      duplicate either reached the receiver (where the dedup window
      decides) or was dropped by liveness;
    * ``stale_dropped`` counts epoch-fenced messages exactly once.
    """

    corrupt_injected: int = 0
    corrupt_detected: int = 0
    corrupt_lost: int = 0
    retransmits: int = 0
    retransmit_exhausted: int = 0
    dup_injected: int = 0
    dup_absorbed: int = 0
    dup_lost: int = 0
    dedup_dropped: int = 0
    reorder_injected: int = 0
    stale_dropped: int = 0
    window_evictions: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "corrupt_injected": self.corrupt_injected,
            "corrupt_detected": self.corrupt_detected,
            "corrupt_lost": self.corrupt_lost,
            "retransmits": self.retransmits,
            "retransmit_exhausted": self.retransmit_exhausted,
            "dup_injected": self.dup_injected,
            "dup_absorbed": self.dup_absorbed,
            "dup_lost": self.dup_lost,
            "dedup_dropped": self.dedup_dropped,
            "reorder_injected": self.reorder_injected,
            "stale_dropped": self.stale_dropped,
            "window_evictions": self.window_evictions,
        }

    def accounted(self) -> bool:
        """True when every injected fault is accounted for (see class
        docstring for the identities)."""
        return (
            self.corrupt_injected == self.corrupt_detected + self.corrupt_lost
            and self.retransmits
            == self.corrupt_detected - self.retransmit_exhausted
            and self.dup_injected == self.dup_absorbed + self.dup_lost
        )


@dataclass
class _InjectorOutcome:
    """What one link drew for one message."""

    corrupt: bool = False
    dup: bool = False
    reorder_delay: float = 0.0


class LinkIntegrityInjector:
    """Seeded per-link draws for corrupt / dup / reorder windows.

    One injector is attached per faulted link; draws happen in FIFO
    transmission order from the plan's RNG, so the perturbation
    sequence is a pure function of (seed, message order) — exactly the
    determinism contract of :class:`FaultyTransport`.

    ``reorder_extra`` is how long a reordered message lingers in the
    switch past its service completion (enough to fall behind younger
    messages on an active link).
    """

    def __init__(
        self,
        rng: random.Random,
        stats: IntegrityStats,
        corrupt: Tuple[Tuple[float, float, float], ...] = (),
        dup: Tuple[Tuple[float, float, float], ...] = (),
        reorder: Tuple[Tuple[float, float, float], ...] = (),
        reorder_extra: float = 500 * US,
        dup_pending: Optional[set] = None,
    ) -> None:
        self.rng = rng
        self.stats = stats
        self.corrupt_windows = tuple(corrupt)
        self.dup_windows = tuple(dup)
        self.reorder_windows = tuple(reorder)
        self.reorder_extra = reorder_extra
        #: Message uids a dup was drawn for; the fabric pops these at
        #: the cut-through hop and injects the extra copy (shared with
        #: the fabric via :meth:`Fabric.enable_integrity`).
        self.dup_pending = dup_pending if dup_pending is not None else set()

    @staticmethod
    def _rate_at(
        windows: Tuple[Tuple[float, float, float], ...], now: float
    ) -> float:
        for start, end, rate in windows:
            if start <= now < end:
                return rate
        return 0.0

    def roll(self, message: "Message", now: float) -> _InjectorOutcome:
        """Draw this message's fate on this link at time ``now``.

        Accounting counts *wire copies*, not draws: corrupting an
        already-corrupt copy is not a second injection, and a copy
        that is itself a duplicate (or already has a duplicate queued)
        never spawns another — one damaged/extra copy per count, so
        ``injected == detected/absorbed + lost`` can hold exactly.
        """
        outcome = _InjectorOutcome()
        rate = self._rate_at(self.corrupt_windows, now)
        if rate > 0.0 and self.rng.random() < rate:
            outcome.corrupt = True
            if message.checksum is not None and message.checksum_ok():
                self.stats.corrupt_injected += 1
            message.corrupt()
        rate = self._rate_at(self.dup_windows, now)
        if rate > 0.0 and self.rng.random() < rate:
            if not message.duplicate and message.uid not in self.dup_pending:
                outcome.dup = True
                self.stats.dup_injected += 1
        rate = self._rate_at(self.reorder_windows, now)
        if rate > 0.0 and self.rng.random() < rate:
            outcome.reorder_delay = self.reorder_extra
            self.stats.reorder_injected += 1
        return outcome


class DeliveryGuard:
    """Receiver-side delivery protocol: checksum, dedup, epoch fence.

    The guard sits at the fabric's delivery point and decides, for each
    arriving message, one of three verdicts:

    * ``"stale"`` — the message's epoch predates its destination's
      current incarnation (stamped before a crash-restart): dropped
      and counted, never surfaced to the application;
    * ``"corrupt"`` — the checksum does not match: dropped, counted,
      and the fabric NACK-retransmits a fresh copy (same seq);
    * ``"dup"`` — the seq is already in the destination's dedup
      window: an injected duplicate or a retransmit ghost, absorbed;
    * ``"ok"`` — accepted; the seq enters the dedup window (evicting
      the oldest entry past ``window`` size).
    """

    def __init__(
        self,
        window: int = DEFAULT_DEDUP_WINDOW,
        max_retransmits: int = DEFAULT_MAX_RETRANSMITS,
        stats: Optional[IntegrityStats] = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"dedup window must be >= 1, got {window!r}")
        if max_retransmits < 0:
            raise ValueError(
                f"max_retransmits must be >= 0, got {max_retransmits!r}"
            )
        self.window = window
        self.max_retransmits = max_retransmits
        self.stats = stats or IntegrityStats()
        #: Per-destination dedup window: seq -> None, insertion-ordered.
        self._seen: Dict[str, OrderedDict] = {}
        #: Per-node incarnation numbers (bumped on restart).
        self._incarnations: Dict[str, int] = {}
        #: Outstanding NACK retransmit counts per seq.
        self._retransmit_attempts: Dict[int, int] = {}

    def incarnation(self, node: str) -> int:
        return self._incarnations.get(node, 0)

    def bump_incarnation(self, node: str) -> int:
        """A node restarted: messages stamped for its previous life are
        fenced off from now on."""
        self._incarnations[node] = self._incarnations.get(node, 0) + 1
        return self._incarnations[node]

    def stamp(self, message: "Message") -> None:
        """Sender-side: stamp the (epoch, seq) header and checksum."""
        message.stamp_integrity(self.incarnation(message.dst))

    def should_retransmit(self, message: "Message") -> bool:
        """NACK bookkeeping: one more retransmit for this seq, unless
        the budget is exhausted."""
        attempts = self._retransmit_attempts.get(message.uid, 0)
        if attempts >= self.max_retransmits:
            self.stats.retransmit_exhausted += 1
            return False
        self._retransmit_attempts[message.uid] = attempts + 1
        self.stats.retransmits += 1
        return True

    def record_loss(self, message: "Message") -> None:
        """A guarded message died on the wire (liveness drop): keep the
        injected-fault accounting honest."""
        if message.duplicate:
            self.stats.dup_lost += 1
        if message.checksum is not None and not message.checksum_ok():
            self.stats.corrupt_lost += 1

    def admit(self, message: "Message") -> str:
        """Classify an arriving message (see class docstring)."""
        if (
            message.epoch is not None
            and message.epoch < self.incarnation(message.dst)
        ):
            self.stats.stale_dropped += 1
            # Injected faults riding a fenced message die with it.
            if not message.checksum_ok():
                self.stats.corrupt_lost += 1
            if message.duplicate:
                self.stats.dup_lost += 1
            return "stale"
        if not message.checksum_ok():
            self.stats.corrupt_detected += 1
            if message.duplicate:
                # The injected duplicate's life ends here: the NACK
                # retransmit is a fresh (non-duplicate) copy, so close
                # its accounting now.
                self.stats.dup_absorbed += 1
            return "corrupt"
        if message.duplicate:
            self.stats.dup_absorbed += 1
        seen = self._seen.get(message.dst)
        if seen is None:
            seen = self._seen[message.dst] = OrderedDict()
        if message.uid in seen:
            self.stats.dedup_dropped += 1
            return "dup"
        seen[message.uid] = None
        if len(seen) > self.window:
            seen.popitem(last=False)
            self.stats.window_evictions += 1
        self._retransmit_attempts.pop(message.uid, None)
        return "ok"


def TCPTransport(overhead: float = 150 * US, efficiency: float = 0.70) -> Transport:
    """Kernel TCP stack.

    The default per-hop overhead is half of the paper's ~300 µs
    end-to-end figure because the PS path in this model is two hops
    (sender uplink, receiver downlink).
    """
    return Transport("tcp", overhead, efficiency)


def RDMATransport(overhead: float = 40 * US, efficiency: float = 0.95) -> Transport:
    """Kernel-bypass RDMA: low per-message cost, near line rate."""
    return Transport("rdma", overhead, efficiency)


def LocalTransport(overhead: float = 5 * US, efficiency: float = 1.0) -> Transport:
    """Intra-machine transfers (PCIe / shared memory)."""
    return Transport("local", overhead, efficiency)
