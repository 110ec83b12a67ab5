"""Tests for the scheduler-kind table: every baseline is a Core
configuration, built from its row of ``SCHEDULER_KINDS``."""

import math

import pytest

from repro.cli import build_parser
from repro.comm import DecoupledAllReduceBackend
from repro.core import (
    PRIORITY_FIFO,
    PRIORITY_LAYER,
    SCHEDULER_KINDS,
    DeARCore,
    FusionCore,
)
from repro.errors import ConfigError
from repro.net import Transport
from repro.sim import Environment
from repro.training import ClusterSpec, SchedulerSpec
from repro.units import KB, MB

ARCHS = ("ps", "allreduce")


def backend(env):
    return DecoupledAllReduceBackend(
        env, 2, 1, 1e9, Transport("t", 0.0, 1.0), base_sync=0.0, per_rank_sync=0.0
    )


def build(kind, backend, workers=("m0", "m1"), largest=None, servers=0, **knobs):
    """The kind's Cores, with partition and credit resolved the way a
    training job resolves them."""
    spec = SchedulerSpec(kind=kind, **knobs)
    arch = "allreduce" if backend.is_collective else "ps"
    return spec.definition.make_cores(
        spec,
        backend.env,
        backend,
        workers,
        partition=spec.resolved_partition(arch, largest, servers),
        credit=spec.resolved_credit(),
    )


def master(kind, env, **knobs):
    cores = build(kind, backend(env), **knobs)
    assert len({id(core) for core in cores.values()}) == 1
    return cores["m0"]


def built_cluster(arch, env):
    cluster = ClusterSpec(machines=2, gpus_per_machine=1, arch=arch)
    return cluster.build(env, layer_bytes=(1 * MB, 2 * MB))


def test_fifo_scheduler_configuration():
    env = Environment()
    core = master("fifo", env)
    assert core.priority_mode == PRIORITY_FIFO
    assert math.isinf(core.credit_capacity)
    assert core.partition_bytes is None  # vanilla all-reduce: whole tensors
    # On PS, MXNet slices big arrays per server, at least 4 MB.
    built = built_cluster("ps", env)
    cores = build("fifo", built.backend, built.workers, largest=411e6, servers=8)
    assert cores["w0"].partition_bytes == 411e6 / 8
    assert cores["w0"] is not cores["w1"]  # one Core per PS worker
    small = build("fifo", built.backend, built.workers, largest=1 * MB, servers=2)
    assert small["w0"].partition_bytes == 4 * MB


def test_p3_scheduler_is_stop_and_wait():
    env = Environment()
    core = master("p3", env)
    assert core.priority_mode == PRIORITY_LAYER
    assert core.partition_bytes == 160 * KB
    # Stop-and-wait at the scheduler; ps-lite's sender keeps about
    # three partitions in flight below it.
    assert core.credit_capacity == 3 * 160 * KB


def test_bytescheduler_factory_sets_knobs():
    env = Environment()
    core = master(
        "bytescheduler", env, partition_bytes=2 * MB, credit_bytes=8 * MB,
        notify_delay=1e-4,
    )
    assert core.priority_mode == PRIORITY_LAYER
    assert core.partition_bytes == 2 * MB
    assert core.credit_capacity == 8 * MB
    assert core.notify_delay == 1e-4
    default = master("bytescheduler", Environment())
    assert default.partition_bytes == 4 * MB
    assert default.credit_capacity == 16 * MB


def test_factories_produce_working_schedulers():
    for kind in SCHEDULER_KINDS:
        env = Environment()
        core = master(kind, env)
        task = core.create_task(0, 0, 3 * MB)
        task.notify_ready()
        env.run()
        assert task.is_finished, kind


@pytest.mark.parametrize("kind", sorted(SCHEDULER_KINDS))
def test_every_kind_builds_on_the_archs_it_supports(kind):
    row = SCHEDULER_KINDS[kind]
    assert row.name == kind
    for arch in ARCHS:
        env = Environment()
        built = built_cluster(arch, env)
        if arch == "ps" and row.collective_only:
            with pytest.raises(ConfigError, match="requires the all-reduce arch"):
                build(kind, built.backend, built.workers)
            continue
        cores = build(kind, built.backend, built.workers)
        assert set(cores) == set(built.workers)
        assert all(core.backend is built.backend for core in cores.values())


def test_cli_scheduler_choices_are_the_table_keys():
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    (action,) = [a for a in run._actions if a.dest == "scheduler"]
    assert action.choices == list(SCHEDULER_KINDS)
    assert action.default in SCHEDULER_KINDS


def test_collective_only_kinds_build_their_own_cores():
    env = Environment()
    assert isinstance(master("fusion", env, fusion_bytes=8 * MB), FusionCore)
    assert isinstance(master("dear", Environment()), DeARCore)
