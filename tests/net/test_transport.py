"""Unit tests for transport cost models."""

import random

import pytest

from repro.faults import TransportFault
from repro.net import (
    FaultyTransport,
    LocalTransport,
    RDMATransport,
    TCPTransport,
    Transport,
)
from repro.units import MB, gbps, to_gbps


def test_wire_time_is_size_over_effective_bandwidth_plus_overhead():
    transport = Transport("t", overhead=0.001, efficiency=0.5)
    # 100 bytes over 100 B/s at 50% efficiency -> 2s + 1ms overhead.
    assert transport.wire_time(100, 100) == pytest.approx(2.001)


def test_zero_size_message_still_pays_overhead():
    transport = Transport("t", overhead=0.0003, efficiency=1.0)
    assert transport.wire_time(0, gbps(10)) == pytest.approx(0.0003)


def test_tcp_has_more_overhead_than_rdma():
    tcp, rdma = TCPTransport(), RDMATransport()
    assert tcp.overhead > rdma.overhead
    assert tcp.efficiency < rdma.efficiency


def test_rdma_faster_than_tcp_for_same_message():
    tcp, rdma = TCPTransport(), RDMATransport()
    bandwidth = gbps(100)
    assert rdma.wire_time(4 * MB, bandwidth) < tcp.wire_time(4 * MB, bandwidth)


def test_local_transport_is_cheapest():
    local = LocalTransport()
    assert local.overhead < RDMATransport().overhead


def test_invalid_overhead_rejected():
    with pytest.raises(ValueError):
        Transport("t", overhead=-1.0, efficiency=1.0)


@pytest.mark.parametrize("efficiency", [0.0, -0.5, 1.5])
def test_invalid_efficiency_rejected(efficiency):
    with pytest.raises(ValueError):
        Transport("t", overhead=0.0, efficiency=efficiency)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        TCPTransport().wire_time(-1, gbps(1))
    with pytest.raises(ValueError):
        TCPTransport().wire_time(float("nan"), gbps(1))


def test_nonpositive_bandwidth_rejected():
    with pytest.raises(ValueError):
        TCPTransport().wire_time(1, 0)
    with pytest.raises(ValueError):
        TCPTransport().wire_time(1, float("nan"))


def test_gbps_round_trip():
    assert to_gbps(gbps(25)) == pytest.approx(25.0)


def test_gbps_rejects_nonpositive():
    with pytest.raises(ValueError):
        gbps(0)


# -- FaultyTransport --------------------------------------------------------


class _AlwaysBelow(random.Random):
    """An RNG whose draws always land under any positive probability."""

    def random(self):
        return 0.0


class _AlwaysAbove(random.Random):
    def random(self):
        return 0.999999


def test_faulty_transport_is_transparent_when_draws_miss():
    inner = RDMATransport()
    faulty = FaultyTransport(
        inner, TransportFault(loss_probability=0.5), _AlwaysAbove()
    )
    assert faulty.wire_time(4 * MB, gbps(100)) == inner.wire_time(4 * MB, gbps(100))
    assert faulty.messages_lost == 0


def test_faulty_transport_loss_is_capped_at_max_losses():
    inner = Transport("t", overhead=0.001, efficiency=1.0)
    fault = TransportFault(
        loss_probability=0.99, retransmit_penalty=0.01, max_losses=3
    )
    faulty = FaultyTransport(inner, fault, _AlwaysBelow())
    base = inner.wire_time(100, 100.0)
    # Every draw "loses": exactly max_losses retransmissions, then done.
    assert faulty.wire_time(100, 100.0) == pytest.approx(base + 3 * (base + 0.01))
    assert faulty.messages_lost == 3


def test_faulty_transport_delay_adds_fixed_latency():
    inner = RDMATransport()
    fault = TransportFault(delay_probability=0.5, delay=0.002)
    faulty = FaultyTransport(inner, fault, _AlwaysBelow())
    base = inner.wire_time(MB, gbps(10))
    assert faulty.wire_time(MB, gbps(10)) == pytest.approx(base + 0.002)
    assert faulty.messages_delayed == 1


def test_faulty_transport_zero_byte_message_still_pays_overhead_and_faults():
    inner = Transport("t", overhead=0.0003, efficiency=1.0)
    fault = TransportFault(loss_probability=0.9, retransmit_penalty=0.0, max_losses=1)
    faulty = FaultyTransport(inner, fault, _AlwaysBelow())
    # A zero-byte push still serialises its overhead — twice, when lost.
    assert faulty.wire_time(0, gbps(10)) == pytest.approx(0.0006)


def test_faulty_transport_is_deterministic_per_seed():
    inner = RDMATransport()
    fault = TransportFault(loss_probability=0.3, delay_probability=0.2, delay=0.001)

    def times(seed):
        faulty = FaultyTransport(inner, fault, random.Random(seed))
        return [faulty.wire_time(MB, gbps(100)) for _ in range(200)]

    assert times(7) == times(7)
    assert times(7) != times(8)


def test_faulty_transport_preserves_validation():
    faulty = FaultyTransport(
        RDMATransport(), TransportFault(loss_probability=0.1), random.Random(0)
    )
    with pytest.raises(ValueError):
        faulty.wire_time(-1, gbps(1))
    with pytest.raises(ValueError):
        faulty.wire_time(1, 0)
