"""Duplex NIC error paths: saturation, loopback, faults, zero bytes."""

import random

import pytest

from repro.faults import TransportFault
from repro.net import DuplexNIC, Fabric, FaultyTransport, Message, Transport
from repro.sim import Environment

BANDWIDTH = 100.0  # bytes/second: sizes below read as seconds directly
IDEAL = Transport("ideal", overhead=0.0, efficiency=1.0)


def make_fabric(env, nodes=("a", "b")):
    return Fabric(env, nodes, BANDWIDTH, IDEAL, hop_latency=0.0)


def collect(env, into):
    """A completion callback recording ``(time, message)`` in ``into``."""
    return lambda message: into.append((env.now, message))


def test_duplex_directions_are_independent():
    """Saturating the uplink must not delay the downlink, and vice
    versa: full duplex is what tensor partitioning exploits (§2.2)."""
    env = Environment()
    nic = DuplexNIC(env, "a", BANDWIDTH, IDEAL)
    done = []
    for _ in range(3):
        nic.uplink.transmit(Message("a", "b", 100.0), callback=collect(env, done))
        nic.downlink.transmit(Message("b", "a", 100.0), callback=collect(env, done))
    env.run()
    # Three 1s messages per direction, concurrently: 3s total, not 6s.
    assert env.now == pytest.approx(3.0)
    assert nic.uplink.busy_time == pytest.approx(3.0)
    assert nic.downlink.busy_time == pytest.approx(3.0)
    assert len(done) == 6


def test_simultaneous_duplex_saturation_through_fabric():
    """Counter-flowing transfers a→b and b→a share no queue."""
    env = Environment()
    fabric = make_fabric(env)
    delivered = []
    for _ in range(4):
        fabric.send(Message("a", "b", 100.0), collect(env, delivered))
        fabric.send(Message("b", "a", 100.0), collect(env, delivered))
    env.run()
    assert len(delivered) == 8
    # Four 1s messages per direction; cut-through makes the second hop
    # (the receiver's idle downlink) essentially free.
    assert env.now == pytest.approx(4.0, rel=1e-6)
    assert fabric.nic("a").uplink.busy_time == pytest.approx(4.0)
    assert fabric.nic("a").downlink.busy_time == pytest.approx(4.0)


def test_zero_byte_message_traverses_fabric():
    env = Environment()
    fabric = make_fabric(env)
    delivered = []
    fabric.send(Message("a", "b", 0.0), collect(env, delivered))
    env.run()
    assert len(delivered) == 1
    assert delivered[0][0] == pytest.approx(0.0)  # zero size, zero overhead
    assert fabric.nic("a").uplink.messages_sent == 1
    assert fabric.nic("a").uplink.bytes_sent == 0.0


def test_negative_size_message_rejected():
    with pytest.raises(ValueError):
        Message("a", "b", -1.0)


def test_loopback_blackout_stalls_local_transfer():
    """A blackout window on the loopback delays a local transfer until
    the window closes, then service resumes at full rate."""
    env = Environment()
    fabric = make_fabric(env)
    loop = fabric.loopback("a")
    loop.set_fault_windows(((0.0, 0.5, 0.0),))  # dark until t=0.5
    size = fabric._local_bandwidth * 0.1  # 0.1s of loopback service
    delivered = []
    fabric.send(Message("a", "a", size), collect(env, delivered))
    env.run()
    overhead = fabric._local_transport.overhead
    assert delivered[0][0] == pytest.approx(0.5 + 0.1 + overhead)


def test_loopback_under_lossy_transport():
    """Wrapping the loopback's transport with FaultyTransport charges
    retransmissions to local transfers too."""
    env = Environment()
    fabric = make_fabric(env)
    loop = fabric.loopback("a")

    class AlwaysLose(random.Random):
        def random(self):
            return 0.0

    fault = TransportFault(loss_probability=0.5, retransmit_penalty=0.0, max_losses=1)
    loop.transport = FaultyTransport(loop.transport, fault, AlwaysLose())
    size = fabric._local_bandwidth * 0.1
    delivered = []
    fabric.send(Message("a", "a", size), collect(env, delivered))
    env.run()
    overhead = fabric._local_transport.overhead
    # One guaranteed loss: the message serialises twice.
    assert delivered[0][0] == pytest.approx(2 * (0.1 + overhead))
    assert loop.transport.messages_lost == 1


def test_uplink_blackout_backs_up_fifo_order():
    """Messages queued behind a blackout drain in FIFO order after it."""
    env = Environment()
    fabric = make_fabric(env)
    fabric.nic("a").uplink.set_fault_windows(((0.0, 2.0, 0.0),))
    delivered = []
    for tag in range(3):
        fabric.send(Message("a", "b", 100.0, payload=tag), collect(env, delivered))
    env.run()
    tags = [message.payload for _t, message in delivered]
    assert tags == [0, 1, 2]
    times = [t for t, _message in delivered]
    # 2s dark, then three 1s services back to back.
    assert times == pytest.approx([3.0, 4.0, 5.0])
