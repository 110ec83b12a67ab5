"""Unit tests for the two-hop fabric model."""

import pytest

from repro.net import Fabric, Message, Transport
from repro.sim import Environment


def make_fabric(env, nodes=("w0", "w1", "s0"), bandwidth=100.0, overhead=0.0):
    return Fabric(env, nodes, bandwidth, Transport("t", overhead, 1.0))


def delivered_at(env, fabric, messages):
    """Send ``messages``, run ``env``; return the last delivery time."""
    times = []
    for message in messages:
        fabric.send(message, lambda _msg: times.append(env.now))
    env.run()
    assert len(times) == len(messages)
    return times[-1]


def run_transfer(env, fabric, message):
    return delivered_at(env, fabric, [message])


def test_remote_transfer_cuts_through():
    env = Environment()
    fabric = make_fabric(env, bandwidth=100.0)
    elapsed = run_transfer(env, fabric, Message("w0", "s0", 100.0))
    # Cut-through: the idle downlink received bytes while the uplink
    # serialised them; delivery is one hop latency after uplink exit.
    assert elapsed == pytest.approx(1.0, abs=1e-3)


def test_transfers_between_disjoint_pairs_run_in_parallel():
    env = Environment()
    fabric = make_fabric(env, nodes=("a", "b", "c", "d"), bandwidth=100.0)
    messages = [Message("a", "b", 100.0), Message("c", "d", 100.0)]

    assert delivered_at(env, fabric, messages) == pytest.approx(1.0, abs=1e-3)


def test_shared_destination_downlink_serializes():
    """Two workers pushing to one server contend on its downlink."""
    env = Environment()
    fabric = make_fabric(env, bandwidth=100.0)
    messages = [Message("w0", "s0", 100.0), Message("w1", "s0", 100.0)]

    # Uplinks run in parallel (1s); the server downlink must still
    # serialize a full service slot for the second message.
    assert delivered_at(env, fabric, messages) == pytest.approx(2.0, abs=1e-3)


def test_pipelined_partitions_reach_line_rate():
    """Many small partitions through two hops: steady-state throughput
    equals the bottleneck line rate (hop 2 of chunk k overlaps hop 1 of
    chunk k+1)."""
    env = Environment()
    fabric = make_fabric(env, bandwidth=100.0)
    chunks = [Message("w0", "s0", 100.0) for _ in range(10)]

    # 10 chunks x 1s on the bottleneck; cut-through hides the fill.
    assert delivered_at(env, fabric, chunks) == pytest.approx(10.0, abs=1e-3)


def test_duplex_directions_are_independent():
    env = Environment()
    fabric = make_fabric(env, bandwidth=100.0)
    push = Message("w0", "s0", 100.0)
    pull = Message("s0", "w0", 100.0)

    assert delivered_at(env, fabric, [push, pull]) == pytest.approx(1.0, abs=1e-3)


def test_local_transfer_uses_loopback():
    env = Environment()
    fabric = Fabric(
        env,
        ["w0"],
        bandwidth=100.0,
        transport=Transport("t", 0.0, 1.0),
        local_bandwidth=1000.0,
        local_transport=Transport("local", 0.0, 1.0),
    )
    elapsed = run_transfer(env, fabric, Message("w0", "w0", 1000.0))
    assert elapsed == pytest.approx(1.0)
    assert fabric.nic("w0").uplink.messages_sent == 0


def test_unknown_nodes_rejected():
    env = Environment()
    fabric = make_fabric(env)
    with pytest.raises(KeyError):
        fabric.send(Message("w0", "nope", 1.0), lambda _msg: None)
    with pytest.raises(KeyError):
        fabric.send(Message("nope", "w0", 1.0), lambda _msg: None)


def test_duplicate_node_rejected():
    env = Environment()
    fabric = make_fabric(env)
    with pytest.raises(ValueError):
        fabric.add_node("w0", 100.0)


def test_nodes_listed_in_insertion_order():
    env = Environment()
    fabric = make_fabric(env, nodes=("x", "y", "z"))
    assert fabric.nodes == ["x", "y", "z"]


def test_reset_counters_clears_all_nics():
    env = Environment()
    fabric = make_fabric(env)
    run_transfer(env, fabric, Message("w0", "s0", 100.0))
    fabric.reset_counters()
    assert fabric.nic("w0").uplink.bytes_sent == 0.0
    assert fabric.nic("s0").downlink.bytes_sent == 0.0
