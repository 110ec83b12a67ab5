"""Hierarchical cluster topologies: machines → racks → spine.

The flat :class:`~repro.net.fabric.Fabric` models the paper's testbed —
a handful of machines behind one non-blocking switch.  Real multi-tenant
clusters are not flat: machines sit in racks behind a top-of-rack
switch, and the rack's uplink to the spine is *oversubscribed* (its
capacity is a fraction of the sum of the member NICs).  Cross-rack
transfers therefore contend on two extra FIFO links, which is exactly
the placement sensitivity the cluster scheduler exploits: a job
consolidated into one rack never touches an uplink, a job scattered
across racks fights every other scattered tenant for it.

:class:`HierarchicalFabric` keeps the flat fabric's semantics for
same-machine (loopback) and same-rack (NIC up → NIC down) transfers and
adds the rack-uplink → rack-downlink hops for cross-rack ones, all
cut-through like the flat path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.net.fabric import DEFAULT_LOCAL_BANDWIDTH, Fabric
from repro.net.link import Link
from repro.net.message import Message
from repro.net.transport import Transport
from repro.sim import Environment, Trace

__all__ = ["TopologySpec", "HierarchicalFabric"]


@dataclass(frozen=True)
class TopologySpec:
    """Shape of a racked cluster.

    ``oversubscription`` is the classic ToR ratio: a rack of 8 machines
    with 100 Gbps NICs at 4:1 shares a 200 Gbps uplink.  1.0 models a
    full-bisection fabric (the uplink equals the sum of member NICs).
    """

    racks: int
    machines_per_rack: int
    oversubscription: float = 4.0

    def __post_init__(self) -> None:
        if self.racks < 1:
            raise ConfigError(f"racks must be >= 1, got {self.racks}")
        if self.machines_per_rack < 1:
            raise ConfigError(
                f"machines_per_rack must be >= 1, got {self.machines_per_rack}"
            )
        if self.oversubscription < 1.0:
            raise ConfigError(
                "oversubscription must be >= 1 (1.0 = full bisection), "
                f"got {self.oversubscription}"
            )

    @property
    def machines(self) -> int:
        """Total machine count."""
        return self.racks * self.machines_per_rack

    def machine_names(self) -> Tuple[str, ...]:
        """Canonical machine names, rack-major: r0m0, r0m1, ..."""
        return tuple(
            f"r{rack}m{index}"
            for rack in range(self.racks)
            for index in range(self.machines_per_rack)
        )

    def rack_of_index(self, machine: int) -> int:
        """Rack of the ``machine``-th name in :meth:`machine_names`."""
        if not 0 <= machine < self.machines:
            raise ConfigError(f"machine index {machine} out of range")
        return machine // self.machines_per_rack

    def uplink_bandwidth(self, nic_bandwidth: float) -> float:
        """Per-direction rack uplink capacity in bytes/second."""
        return self.machines_per_rack * nic_bandwidth / self.oversubscription


class HierarchicalFabric(Fabric):
    """A racked fabric: NICs queue per machine, uplinks queue per rack.

    Same-rack transfers behave exactly like the flat fabric (the ToR
    switch is non-blocking for local traffic).  Cross-rack transfers
    take four FIFO hops — src NIC up, src rack up, dst rack down, dst
    NIC down — each cut-through, so an idle path costs only the extra
    hop latencies while a loaded uplink queues every scattered tenant.
    """

    def __init__(
        self,
        env: Environment,
        topology: TopologySpec,
        bandwidth: float,
        transport: Transport,
        trace: Optional[Trace] = None,
        local_bandwidth: float = DEFAULT_LOCAL_BANDWIDTH,
        local_transport: Optional[Transport] = None,
        hop_latency: float = 10e-6,
    ) -> None:
        self.topology = topology
        super().__init__(
            env,
            topology.machine_names(),
            bandwidth,
            transport,
            trace=trace,
            local_bandwidth=local_bandwidth,
            local_transport=local_transport,
            hop_latency=hop_latency,
        )
        self._rack_of: Dict[str, int] = {
            name: topology.rack_of_index(index)
            for index, name in enumerate(topology.machine_names())
        }
        uplink = topology.uplink_bandwidth(bandwidth)
        self.rack_uplinks: Dict[int, Link] = {}
        self.rack_downlinks: Dict[int, Link] = {}
        for rack in range(topology.racks):
            self.rack_uplinks[rack] = Link(
                env, f"rack{rack}.up", uplink, transport, trace
            )
            self.rack_downlinks[rack] = Link(
                env, f"rack{rack}.down", uplink, transport, trace
            )

    def rack_of(self, node: str) -> int:
        """The rack hosting ``node`` (aliases resolve to their machine)."""
        return self._rack_of[self.canonical(node)]

    def _launch_remote(
        self, message: Message, delivered, src: str, dst: str
    ) -> None:
        src_rack = self._rack_of[src]
        dst_rack = self._rack_of[dst]
        if src_rack == dst_rack:
            return super()._launch_remote(message, delivered, src, dst)

        uplink = self.nics[src].uplink
        rack_up = self.rack_uplinks[src_rack]
        rack_down = self.rack_downlinks[dst_rack]
        downlink = self.nics[dst].downlink

        def _after_nic_up(msg: Message) -> None:
            is_up = self._is_up
            if is_up is not None and not (is_up(msg.src) and is_up(msg.dst)):
                self._drop(msg, "wire")
                return
            # Forge any injected duplicate from the frame as the ToR
            # switch received it, matching the flat fabric's semantics.
            checksum_at_switch = msg.checksum
            rack_up.transmit_cut_through(
                msg,
                available_at=self.env._now + self.hop_latency,
                callback=_after_rack_up,
            )
            if self.dup_pending and msg.uid in self.dup_pending:
                self._duplicate(
                    msg, delivered, local=False, checksum=checksum_at_switch
                )

        def _after_rack_up(msg: Message) -> None:
            is_up = self._is_up
            if is_up is not None and not is_up(msg.dst):
                self._drop(msg, "spine")
                return
            rack_down.transmit_cut_through(
                msg,
                available_at=self.env._now + self.hop_latency,
                callback=_after_rack_down,
            )

        def _after_rack_down(msg: Message) -> None:
            is_up = self._is_up
            if is_up is not None and not is_up(msg.dst):
                self._drop(msg, "rack")
                return
            downlink.transmit_cut_through(
                msg,
                available_at=self.env._now + self.hop_latency,
                callback=delivered.arrive,
            )

        uplink.transmit(message, callback=_after_nic_up)

    def links(self) -> List[Link]:
        """NIC, loopback and rack links."""
        links = super().links()
        links.extend(self.rack_uplinks.values())
        links.extend(self.rack_downlinks.values())
        return links

    def __repr__(self) -> str:
        return (
            f"<HierarchicalFabric racks={self.topology.racks} "
            f"machines={self.topology.machines} "
            f"oversub={self.topology.oversubscription:g}:1 "
            f"transport={self.transport.name}>"
        )
