"""The cluster fabric: named nodes, duplex NICs, two-hop transfers.

A transfer from A to B is store-and-forward through two FIFO queues —
A's uplink and B's downlink.  Contention therefore appears exactly where
it does on a real PS deployment: a server's downlink is shared by every
worker pushing to it, and a worker's downlink is shared by every server
it pulls from.  Local (same-node) transfers route through a loopback
link with the local transport model.

:meth:`Fabric.send` is the one entry point.  It reports only the
delivery, by calling back, which is all the layers above need: the
Core hears that a transfer finished through one signal.  Each hop is
a link frame whose completion is its own kernel entry, and each calls
a bound method of the transfer's :class:`_Sink`: the uplink calls
``after_uplink``, which cuts the message through to the destination
downlink; the last hop calls ``arrive``, the delivery point.  No
closure is built per message.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.sim import Environment, Trace
from repro.net.link import Link
from repro.net.message import Message
from repro.net.nic import DuplexNIC
from repro.net.transport import (
    DeliveryGuard,
    LocalTransport,
    Transport,
)
from repro.units import GB

__all__ = ["Fabric"]


class _Sink:
    """The one-shot delivery target of :meth:`Fabric.send`.

    Every copy of a message (retransmits and injected duplicates too)
    carries the same sink, and so the same destination ``downlink``
    (set by :meth:`Fabric._launch_remote`; None for a loopback
    transfer).  The first copy to arrive wins: :meth:`arrive` defers
    ``on_delivered(message)`` into its own kernel entry and marks the
    sink ``triggered``, so later copies are absorbed.
    """

    __slots__ = ("fabric", "on_delivered", "downlink", "triggered")

    def __init__(
        self, fabric: "Fabric", on_delivered: Callable[[Message], None]
    ) -> None:
        self.fabric = fabric
        self.on_delivered = on_delivered
        self.downlink: Optional[Link] = None
        self.triggered = False

    def after_uplink(self, message: Message) -> None:
        """A copy left the source uplink: cut it through the switch to
        the destination downlink."""
        fabric = self.fabric
        is_up = fabric._is_up
        if is_up is not None and not (is_up(message.src) and is_up(message.dst)):
            # The sender died mid-serialisation or the receiver is
            # already gone: the bytes never make it off the wire.
            fabric._drop(message, "wire")
            return
        # The switch cuts the message through: bytes streamed into the
        # destination while the uplink serialised them, so an idle
        # downlink delivers just one hop latency later.  The checksum
        # is captured here — a duplicate is forged from the frame as
        # the switch received it, before the original's own downlink
        # hop can corrupt it.
        checksum_at_switch = message.checksum
        self.downlink.transmit_cut_through(
            message,
            available_at=fabric.env._now + fabric.hop_latency,
            callback=self.arrive,
        )
        if fabric.dup_pending and message.uid in fabric.dup_pending:
            fabric._duplicate(
                message, self, local=False, checksum=checksum_at_switch
            )

    def arrive(self, message: Message) -> None:
        """A copy left its last link: the delivery point.  Liveness,
        then the guard's verdict, then the first copy wins."""
        fabric = self.fabric
        is_up = fabric._is_up
        if is_up is not None and not is_up(message.dst):
            fabric._drop(message, "dst")
            return
        guard = fabric.guard
        if guard is not None:
            verdict = guard.admit(message)
            if verdict != "ok":
                trace = fabric.trace
                label = f"{message.kind}:{message.src}->{message.dst}"
                if trace is not None:
                    trace.point(f"integrity.{verdict}", label)
                if verdict == "corrupt" and guard.should_retransmit(message):
                    if trace is not None:
                        trace.point("integrity.retransmit", label)
                    fabric._launch(message.clone_for_retransmit(), self)
                return
        if not self.triggered:
            self.triggered = True
            fabric.env.defer(self.on_delivered, message)


#: Default aggregate intra-node bandwidth (PCIe-class, no NVLink,
#: matching the paper's testbed machines).
DEFAULT_LOCAL_BANDWIDTH = 10 * GB


class Fabric:
    """A set of nodes joined by a non-blocking switch.

    The switch itself is never the bottleneck (as on the paper's
    100 Gbps testbed); only NIC up/down links queue.
    """

    def __init__(
        self,
        env: Environment,
        nodes: Iterable[str],
        bandwidth: float,
        transport: Transport,
        trace: Optional[Trace] = None,
        local_bandwidth: float = DEFAULT_LOCAL_BANDWIDTH,
        local_transport: Optional[Transport] = None,
        hop_latency: float = 10e-6,
    ) -> None:
        self.env = env
        self.transport = transport
        #: Switch + propagation latency added at the cut-through hop.
        self.hop_latency = hop_latency
        self.trace = trace
        #: Optional node-liveness oracle (``node -> bool``, True = up).
        self._is_up = None
        #: Messages dropped because an endpoint was down.
        self.dropped = 0
        #: Optional delivery guard (checksum/dedup/epoch protocol);
        #: None keeps the fault-free path at a single attribute check.
        self.guard: Optional[DeliveryGuard] = None
        #: Uids the per-link injectors drew a duplicate for (shared
        #: with every :class:`LinkIntegrityInjector` on this fabric).
        self.dup_pending: set = set()
        self.nics: Dict[str, DuplexNIC] = {}
        self._loopbacks: Dict[str, Link] = {}
        #: Alias -> canonical node.  Multi-tenant placement maps each
        #: job's private worker/server names onto shared machines, so
        #: co-located jobs contend on one NIC without having to agree
        #: on node names (the old PS-only ``shared_fabric`` restriction).
        self._canonical: Dict[str, str] = {}
        self._nodes_cache: Optional[List[str]] = None
        self._local_transport = local_transport or LocalTransport()
        self._local_bandwidth = local_bandwidth
        for node in nodes:
            self.add_node(node, bandwidth)

    @property
    def nodes(self) -> List[str]:
        """All node names, in insertion order.

        The list is cached (invalidated by :meth:`add_node`) — callers
        poll this in per-event loops, so it must not allocate each time.
        Treat it as read-only.
        """
        if self._nodes_cache is None:
            self._nodes_cache = list(self.nics)
        return self._nodes_cache

    def add_node(self, node: str, bandwidth: float) -> DuplexNIC:
        """Attach a node with its own NIC; returns the NIC."""
        if node in self.nics:
            raise ValueError(f"node {node!r} already exists")
        self._nodes_cache = None
        nic = DuplexNIC(self.env, node, bandwidth, self.transport, self.trace)
        self.nics[node] = nic
        self._loopbacks[node] = Link(
            self.env,
            f"{node}.loop",
            self._local_bandwidth,
            self._local_transport,
            self.trace,
        )
        return nic

    def add_alias(self, alias: str, node: str) -> None:
        """Map ``alias`` onto an existing node's NIC and loopback.

        Transfers addressed to (or from) the alias ride the canonical
        node's links, and two aliases of one machine count as *local* to
        each other — this is how several jobs placed on the same machine
        share its NIC.  Aliases never appear in :attr:`nodes`.
        """
        canonical = self.canonical(node)
        if canonical not in self.nics:
            raise KeyError(f"unknown node {node!r}")
        if alias in self.nics or alias in self._canonical:
            raise ValueError(f"node or alias {alias!r} already exists")
        self._canonical[alias] = canonical

    def canonical(self, node: str) -> str:
        """The machine a name resolves to (identity for real nodes)."""
        return self._canonical.get(node, node)

    def has_node(self, node: str) -> bool:
        """True when ``node`` is a known node or alias."""
        return node in self.nics or node in self._canonical

    def nic(self, node: str) -> DuplexNIC:
        """The NIC of ``node``; raises ``KeyError`` for unknown nodes."""
        return self.nics[self.canonical(node)]

    def loopback(self, node: str) -> Link:
        """The intra-node loopback link of ``node``."""
        return self._loopbacks[self.canonical(node)]

    def set_liveness(self, is_up) -> None:
        """Install a node-liveness oracle (``node -> bool``, True = up).

        While a node is down, messages touching it are silently dropped
        (a ``drop`` trace point is recorded): a transfer submitted from
        a dead source never enters the network, a message crossing the
        wire when its sender dies is cut off, and one arriving at a
        dead destination is discarded.  A dropped transfer never calls
        back — retry/abort machinery above decides what happens next.
        """
        self._is_up = is_up

    def enable_integrity(
        self,
        window: Optional[int] = None,
        max_retransmits: Optional[int] = None,
    ) -> DeliveryGuard:
        """Turn on the delivery protocol (idempotent).

        Every subsequent transfer is stamped with an ``(epoch, seq)``
        header and a checksum; arriving messages pass the guard's
        stale/corrupt/dup classification, and corrupt deliveries are
        NACK-retransmitted.  Returns the guard (for counters and
        incarnation bumps).
        """
        if self.guard is None:
            kwargs = {}
            if window is not None:
                kwargs["window"] = window
            if max_retransmits is not None:
                kwargs["max_retransmits"] = max_retransmits
            self.guard = DeliveryGuard(**kwargs)
        return self.guard

    def bump_incarnation(self, node: str) -> None:
        """A node restarted: fence off messages from its previous life
        (no-op when the delivery protocol is not enabled)."""
        if self.guard is not None:
            self.guard.bump_incarnation(node)

    def _drop(self, message: Message, where: str) -> None:
        self.dropped += 1
        if self.guard is not None:
            self.guard.record_loss(message)
            if message.uid in self.dup_pending:
                # The frame died before the switch could forge its
                # queued duplicate: the extra copy dies with it.
                self.dup_pending.discard(message.uid)
                self.guard.stats.dup_lost += 1
        if self.trace is not None:
            self.trace.point(
                "drop", f"{message.kind}:{message.src}->{message.dst}@{where}"
            )

    def send(
        self, message: Message, on_delivered: Callable[[Message], None]
    ) -> None:
        """Move ``message`` from its src to its dst and call
        ``on_delivered(message)`` when it arrives.

        Remote transfers take two FIFO hops (src uplink, then dst
        downlink, entered in uplink-completion order); local transfers
        take one loopback hop.  The call runs in its own kernel entry at
        the delivery instant.  A dropped message never calls
        ``on_delivered``.
        """
        nics = self.nics
        canonical = self._canonical
        if message.src not in nics and message.src not in canonical:
            raise KeyError(f"unknown source node {message.src!r}")
        if message.dst not in nics and message.dst not in canonical:
            raise KeyError(f"unknown destination node {message.dst!r}")
        if self.guard is not None and message.checksum is None:
            self.guard.stamp(message)
        self._launch(message, _Sink(self, on_delivered))

    def _launch(self, message: Message, delivered: _Sink) -> None:
        """Put one copy of ``message`` on the wire toward ``delivered``
        (also the NACK-retransmit re-entry point)."""
        is_up = self._is_up
        if is_up is not None and not is_up(message.src):
            self._drop(message, "src")
            return
        canonical = self._canonical
        src = message.src
        dst = message.dst
        if canonical:
            src = canonical.get(src, src)
            dst = canonical.get(dst, dst)
        if src == dst:
            # Same machine (possibly two tenants' aliases of it): the
            # transfer never touches the NIC, only the loopback.
            checksum_at_switch = message.checksum
            self._loopbacks[src].transmit(message, callback=delivered.arrive)
            if self.dup_pending and message.uid in self.dup_pending:
                self._duplicate(
                    message, delivered, local=True, checksum=checksum_at_switch
                )
            return
        self._launch_remote(message, delivered, src, dst)

    def _launch_remote(
        self, message: Message, delivered: _Sink, src: str, dst: str
    ) -> None:
        """Route one remote copy: src uplink, then dst downlink.

        ``src``/``dst`` are canonical machine names.  Subclasses with a
        multi-level topology (racks, spine) override this to insert the
        extra hops.
        """
        delivered.downlink = self.nics[dst].downlink
        self.nics[src].uplink.transmit(message, callback=delivered.after_uplink)

    def _duplicate(
        self,
        message: Message,
        delivered: _Sink,
        local: bool,
        checksum: Optional[int] = None,
    ) -> None:
        """Inject the extra copy a link's injector drew for this uid
        (the caller has checked that ``dup_pending`` holds it).

        The duplicate consumes real delivery bandwidth — it re-enters
        the destination's downlink (or loopback) behind the original —
        and then faces the guard's dedup window like any arrival.
        ``checksum`` is the original's checksum as it entered the
        switch; the copy's own delivery hop rolls its own corruption.
        """
        self.dup_pending.discard(message.uid)
        copy = Message(
            message.src,
            message.dst,
            message.size,
            payload=message.payload,
            kind=message.kind,
            uid=message.uid,
            epoch=message.epoch,
            duplicate=True,
        )
        copy.checksum = checksum if checksum is not None else message.checksum
        if (
            self.guard is not None
            and copy.checksum is not None
            and not copy.checksum_ok()
        ):
            # The switch duplicated an already-damaged frame: a second
            # corrupted copy is now on the wire.
            self.guard.stats.corrupt_injected += 1
        if local:
            self._loopbacks[self.canonical(message.src)].transmit(
                copy, callback=delivered.arrive
            )
        else:
            self.nics[self.canonical(message.dst)].downlink.transmit_cut_through(
                copy,
                available_at=self.env.now + self.hop_latency,
                callback=delivered.arrive,
            )

    def links(self) -> List[Link]:
        """Every link of the fabric: NIC up- and downlinks, loopbacks."""
        links = []
        for nic in self.nics.values():
            links.append(nic.uplink)
            links.append(nic.downlink)
        links.extend(self._loopbacks.values())
        return links

    def reset_counters(self) -> None:
        """Zero all link counters (e.g. after warm-up)."""
        for link in self.links():
            link.reset_counters()

    def __repr__(self) -> str:
        return f"<Fabric nodes={len(self.nics)} transport={self.transport.name}>"
