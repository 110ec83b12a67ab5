"""Unit tests for ClusterSpec/SchedulerSpec."""

import math

import pytest

from repro.comm import PSBackend, RingAllReduceBackend
from repro.errors import ConfigError
from repro.models import vgg16
from repro.sim import Environment
from repro.training import ClusterSpec, SchedulerSpec
from repro.units import KB, MB, gbps


def test_defaults_and_derived():
    spec = ClusterSpec(machines=4)
    assert spec.num_gpus == 32
    assert spec.servers == 4
    assert spec.bandwidth == pytest.approx(gbps(100))
    assert spec.label == "mxnet-ps-rdma-32gpu"


def test_scaled_to():
    spec = ClusterSpec(machines=4, num_servers=2)
    bigger = spec.scaled_to(8)
    assert bigger.machines == 8
    assert bigger.servers == 8  # num_servers resets to machine count


def test_validation():
    with pytest.raises(ConfigError):
        ClusterSpec(machines=0)
    with pytest.raises(ConfigError):
        ClusterSpec(machines=1, gpus_per_machine=0)
    with pytest.raises(ConfigError):
        ClusterSpec(machines=1, bandwidth_gbps=0)
    with pytest.raises(ConfigError):
        ClusterSpec(machines=1, arch="gossip")
    with pytest.raises(ConfigError):
        ClusterSpec(machines=1, framework="caffe")
    with pytest.raises(ConfigError):
        ClusterSpec(machines=1, transport="infiniband")
    # NaN jitter would clamp every op to 5% of its duration, and inf
    # would end in a raw SimulationError mid-run.
    for jitter in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            ClusterSpec(machines=1, compute_jitter=jitter)


def test_pytorch_requires_allreduce():
    """§5: the PyTorch plugin exists only for all-reduce."""
    with pytest.raises(ConfigError):
        ClusterSpec(machines=1, framework="pytorch", arch="ps")
    ClusterSpec(machines=1, framework="pytorch", arch="allreduce")


def test_build_ps():
    env = Environment()
    spec = ClusterSpec(machines=2, arch="ps")
    built = spec.build(env, layer_bytes=vgg16().layer_bytes())
    assert isinstance(built.backend, PSBackend)
    assert built.workers == ("w0", "w1")
    assert built.fabric is not None
    assert set(built.fabric.nodes) == {"w0", "w1", "s0", "s1"}


def test_build_allreduce():
    env = Environment()
    spec = ClusterSpec(machines=2, arch="allreduce")
    built = spec.build(env, layer_bytes=vgg16().layer_bytes())
    assert isinstance(built.backend, RingAllReduceBackend)
    assert built.backend.ring_size == 16
    assert built.fabric is None


def test_rdma_allreduce_faster_sync_than_tcp():
    env = Environment()
    rdma = ClusterSpec(machines=2, arch="allreduce", transport="rdma").build(
        env, layer_bytes=(1,)
    )
    tcp = ClusterSpec(machines=2, arch="allreduce", transport="tcp").build(
        env, layer_bytes=(1,)
    )
    assert rdma.backend.sync_overhead() < tcp.backend.sync_overhead()


def test_scheduler_spec_defaults():
    fifo = SchedulerSpec(kind="fifo")
    assert fifo.resolved_partition("allreduce") is None
    assert fifo.resolved_partition("ps") == 4 * MB
    assert math.isinf(fifo.resolved_credit())
    assert not fifo.scheduled

    p3 = SchedulerSpec(kind="p3")
    assert p3.resolved_partition("ps") == 160 * KB
    assert p3.resolved_credit() == 3 * 160 * KB
    assert p3.scheduled

    bs = SchedulerSpec(kind="bytescheduler", partition_bytes=2 * MB, credit_bytes=8 * MB)
    assert bs.resolved_partition("ps") == 2 * MB
    assert bs.resolved_credit() == 8 * MB


def test_fifo_baseline_partition_is_slice_granular():
    """The vanilla PS baseline moves MXNet-style per-server slices."""
    fifo = SchedulerSpec(kind="fifo")
    unit = fifo.resolved_partition("ps", largest_tensor_bytes=411e6, servers=8)
    assert unit == pytest.approx(411e6 / 8)
    # ...but never below the 4 MB big-array bound.
    small = fifo.resolved_partition("ps", largest_tensor_bytes=8e6, servers=8)
    assert small == 4 * MB


def test_scheduler_spec_validation():
    with pytest.raises(ConfigError):
        SchedulerSpec(kind="tictac")
    with pytest.raises(ConfigError):
        SchedulerSpec(partition_bytes=0)
    with pytest.raises(ConfigError):
        SchedulerSpec(credit_bytes=-1)


def test_with_knobs():
    spec = SchedulerSpec(kind="bytescheduler").with_knobs(1 * MB, 4 * MB)
    assert spec.partition_bytes == 1 * MB
    assert spec.credit_bytes == 4 * MB


# -- shared fabrics and placement ------------------------------------------


def _ps_fabric(env, machines=2):
    built = ClusterSpec(machines=machines, arch="ps").build(
        env, layer_bytes=(1000,)
    )
    return built.fabric


def test_shared_fabric_rejected_for_allreduce():
    """The documented PS-only constraint is now enforced, not implied:
    the all-reduce backend would silently ignore the fabric."""
    env = Environment()
    fabric = _ps_fabric(env)
    with pytest.raises(ConfigError, match="PS architecture"):
        ClusterSpec(machines=2, arch="allreduce").build(
            env, layer_bytes=(1000,), shared_fabric=fabric
        )


def test_placement_requires_shared_fabric():
    env = Environment()
    with pytest.raises(ConfigError, match="shared_fabric"):
        ClusterSpec(machines=2, arch="ps").build(
            env, layer_bytes=(1000,), placement=("w0", "w1")
        )


def test_placement_aliases_tenants_onto_machines():
    from repro.net import HierarchicalFabric, TopologySpec, Transport

    env = Environment()
    topology = TopologySpec(racks=2, machines_per_rack=2)
    fabric = HierarchicalFabric(env, topology, gbps(100), Transport("t", 0.0, 1.0))
    built = ClusterSpec(machines=2, arch="ps").build(
        env,
        layer_bytes=(1000,),
        shared_fabric=fabric,
        placement=("r0m0", "r0m1"),
        tenant="jobA.",
    )
    assert built.workers == ("jobA.w0", "jobA.w1")
    assert fabric.canonical("jobA.w0") == "r0m0"
    assert fabric.canonical("jobA.s1") == "r0m1"  # servers round-robin
    # A second tenant lands on the same machines without name clashes.
    second = ClusterSpec(machines=2, arch="ps").build(
        env,
        layer_bytes=(1000,),
        shared_fabric=fabric,
        placement=("r0m1", "r1m0"),
        tenant="jobB.",
    )
    assert second.workers == ("jobB.w0", "jobB.w1")
    assert fabric.canonical("jobB.w0") == "r0m1"


def test_placement_validation_errors():
    from repro.net import HierarchicalFabric, TopologySpec, Transport

    env = Environment()
    topology = TopologySpec(racks=1, machines_per_rack=2)
    fabric = HierarchicalFabric(env, topology, gbps(100), Transport("t", 0.0, 1.0))
    spec = ClusterSpec(machines=2, arch="ps")
    with pytest.raises(ConfigError, match="placement names"):
        spec.build(env, layer_bytes=(1000,), shared_fabric=fabric,
                   placement=("r0m0",))
    with pytest.raises(ConfigError):
        spec.build(env, layer_bytes=(1000,), shared_fabric=fabric,
                   placement=("r0m0", "no-such-machine"))
    # Re-using a tenant prefix collides on alias names.
    spec.build(env, layer_bytes=(1000,), shared_fabric=fabric,
               placement=("r0m0", "r0m1"), tenant="dup.")
    with pytest.raises(ConfigError):
        spec.build(env, layer_bytes=(1000,), shared_fabric=fabric,
                   placement=("r0m0", "r0m1"), tenant="dup.")
