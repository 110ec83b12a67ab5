"""Duplex NIC: an uplink and a downlink that operate independently.

Full-duplex independence is what tensor partitioning exploits in the PS
architecture (§2.2): with partitioning, the pull of partition *k* can
occupy the downlink while the push of partition *k+1* occupies the
uplink; without it, half the bandwidth sits idle.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import Environment, Trace
from repro.net.link import Link
from repro.net.transport import Transport

__all__ = ["DuplexNIC"]


class DuplexNIC:
    """A node's network interface: independent up and down FIFO links."""

    def __init__(
        self,
        env: Environment,
        node: str,
        bandwidth: float,
        transport: Transport,
        trace: Optional[Trace] = None,
    ) -> None:
        self.node = node
        self.uplink = Link(env, f"{node}.up", bandwidth, transport, trace)
        self.downlink = Link(env, f"{node}.down", bandwidth, transport, trace)

    @property
    def bandwidth(self) -> float:
        """Per-direction line rate in bytes/second."""
        return self.uplink.bandwidth

    def snapshot(self) -> dict:
        """Per-direction counters for per-iteration metric sampling."""
        return {"up": self.uplink.snapshot(), "down": self.downlink.snapshot()}

    def __repr__(self) -> str:
        return f"<DuplexNIC {self.node} {self.bandwidth:.3g}B/s>"
