"""Unit tests for racked topologies and the hierarchical fabric."""

import pytest

from repro.errors import ConfigError
from repro.net import Fabric, HierarchicalFabric, Message, Transport, TopologySpec
from repro.sim import Environment


def make_hier(env, racks=2, per_rack=2, oversub=2.0, bandwidth=100.0):
    topology = TopologySpec(
        racks=racks, machines_per_rack=per_rack, oversubscription=oversub
    )
    return HierarchicalFabric(
        env, topology, bandwidth, Transport("t", 0.0, 1.0)
    )


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


# -- TopologySpec ----------------------------------------------------------


def test_topology_shape_and_names():
    topology = TopologySpec(racks=2, machines_per_rack=3)
    assert topology.machines == 6
    assert topology.machine_names() == (
        "r0m0", "r0m1", "r0m2", "r1m0", "r1m1", "r1m2",
    )
    assert [topology.rack_of_index(m) for m in range(6)] == [0, 0, 0, 1, 1, 1]


def test_topology_validation():
    with pytest.raises(ConfigError):
        TopologySpec(racks=0, machines_per_rack=2)
    with pytest.raises(ConfigError):
        TopologySpec(racks=1, machines_per_rack=0)
    with pytest.raises(ConfigError):
        TopologySpec(racks=1, machines_per_rack=2, oversubscription=0.5)
    with pytest.raises(ConfigError):
        TopologySpec(racks=1, machines_per_rack=2).rack_of_index(2)


def test_uplink_bandwidth_is_oversubscribed_nic_sum():
    topology = TopologySpec(racks=2, machines_per_rack=8, oversubscription=4.0)
    assert topology.uplink_bandwidth(100.0) == pytest.approx(200.0)
    full = TopologySpec(racks=2, machines_per_rack=8, oversubscription=1.0)
    assert full.uplink_bandwidth(100.0) == pytest.approx(800.0)


# -- HierarchicalFabric routing --------------------------------------------


def test_same_rack_matches_flat_fabric():
    env_flat = Environment()
    flat = Fabric(
        env_flat, ("r0m0", "r0m1"), 100.0, Transport("t", 0.0, 1.0)
    )
    flat_time = run_transfer(env_flat, flat, Message("r0m0", "r0m1", 100.0))

    env_hier = Environment()
    hier = make_hier(env_hier)
    hier_time = run_transfer(env_hier, hier, Message("r0m0", "r0m1", 100.0))
    assert hier_time == pytest.approx(flat_time)
    # The rack links never saw the transfer.
    assert all(link.bytes_sent == 0 for link in hier.rack_uplinks.values())


def test_cross_rack_takes_rack_links_and_costs_more():
    env = Environment()
    hier = make_hier(env)
    same = run_transfer(env, hier, Message("r0m0", "r0m1", 100.0))

    env2 = Environment()
    hier2 = make_hier(env2)
    cross = run_transfer(env2, hier2, Message("r0m0", "r1m0", 100.0))
    assert cross > same
    assert hier2.rack_uplinks[0].bytes_sent == 100.0
    assert hier2.rack_downlinks[1].bytes_sent == 100.0
    assert hier2.rack_uplinks[1].bytes_sent == 0
    assert hier2.rack_downlinks[0].bytes_sent == 0


def test_oversubscribed_uplink_serializes_scattered_tenants():
    """Two cross-rack flows from one rack queue on the shared uplink."""
    env = Environment()
    hier = make_hier(env, per_rack=2, oversub=2.0, bandwidth=100.0)
    flows = [Message("r0m0", "r1m0", 100.0), Message("r0m1", "r1m1", 100.0)]

    # Each NIC serialises its flow in 1 s; the 100 B/s shared uplink
    # (2 NICs / 2:1 oversub) then carries 200 B total: 2 s dominate.
    assert delivered_at(env, hier, flows) == pytest.approx(2.0, rel=0.05)
    assert hier.rack_uplinks[0].bytes_sent == 200.0


def test_alias_routes_through_host_machine():
    env = Environment()
    hier = make_hier(env)
    hier.add_alias("jobA.w0", "r0m0")
    hier.add_alias("jobA.w1", "r1m0")
    assert hier.rack_of("jobA.w1") == 1
    elapsed = run_transfer(env, hier, Message("jobA.w0", "jobA.w1", 100.0))
    assert elapsed > 0
    # Alias traffic is accounted to the host machine's NIC.
    assert hier.nics["r0m0"].uplink.bytes_sent == 100.0
    assert hier.rack_uplinks[0].bytes_sent == 100.0


def test_alias_same_machine_uses_loopback():
    env = Environment()
    hier = make_hier(env)
    hier.add_alias("jobA.w0", "r0m0")
    hier.add_alias("jobB.w0", "r0m0")
    run_transfer(env, hier, Message("jobA.w0", "jobB.w0", 100.0))
    assert hier.nics["r0m0"].uplink.bytes_sent == 0
    assert hier.loopback("r0m0").bytes_sent == 100.0


def test_alias_validation():
    env = Environment()
    hier = make_hier(env)
    hier.add_alias("a", "r0m0")
    with pytest.raises(KeyError):
        hier.add_alias("b", "no-such-machine")
    with pytest.raises(ValueError):
        hier.add_alias("a", "r0m1")  # alias taken
    with pytest.raises(ValueError):
        hier.add_alias("r0m1", "r0m0")  # shadows a machine
    # Aliases do not pollute the machine list.
    assert set(hier.nodes) == set(hier.topology.machine_names())
    assert hier.has_node("a") and hier.has_node("r0m0")
    assert not hier.has_node("b")


def test_reset_counters_clears_rack_links():
    env = Environment()
    hier = make_hier(env)
    run_transfer(env, hier, Message("r0m0", "r1m0", 100.0))
    assert hier.rack_uplinks[0].bytes_sent > 0
    hier.reset_counters()
    assert all(link.bytes_sent == 0 for link in hier.rack_uplinks.values())
    assert all(link.bytes_sent == 0 for link in hier.rack_downlinks.values())
