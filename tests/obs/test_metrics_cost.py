"""Deterministic cost guard for metrics-on instrument updates.

Wall-clock ratios are too noisy to gate on, so this counts Python
``call`` events (``sys.setprofile``) over ``job.run`` with and without a
:class:`~repro.obs.MetricsRegistry` and divides the difference by the
partitions the cores started.  Each update on the per-partition path
(queue depth on ready and on start, credit occupancy on start and on
sent, one latency observation per push and per pull) should cost one
call; the bound leaves a little room above that.
"""

import sys

import pytest

from repro.obs import MetricsRegistry
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob, resolve_model
from repro.units import MB

#: Extra Python calls allowed per started partition with metrics on.
MAX_EXTRA_CALLS_PER_PARTITION = 8

SETUPS = {
    "resnet50x2-bytescheduler": ("resnet50", 2, "bytescheduler"),
    "vgg16x4-bytescheduler": ("vgg16", 4, "bytescheduler"),
    "vgg16x4-p3": ("vgg16", 4, "p3"),
}


def _counted_run(model, machines, kind, metrics):
    job = TrainingJob(
        resolve_model(model),
        ClusterSpec(
            machines=machines,
            gpus_per_machine=1,
            transport="tcp",
            framework="mxnet",
            compute_jitter=0.02,
            seed=0,
        ),
        SchedulerSpec(kind=kind, partition_bytes=1 * MB, credit_bytes=4 * MB),
        metrics=MetricsRegistry() if metrics else None,
    )
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        job.run(measure=2, warmup=2)
    finally:
        sys.setprofile(None)
    cores = {id(core): core for core in job.cores.values()}.values()
    return calls, sum(core.subtasks_started for core in cores)


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_metrics_cost_per_partition(setup):
    model, machines, kind = SETUPS[setup]
    calls_off, started_off = _counted_run(model, machines, kind, metrics=False)
    calls_on, started_on = _counted_run(model, machines, kind, metrics=True)
    assert started_on == started_off > 0
    extra = (calls_on - calls_off) / started_on
    assert extra <= MAX_EXTRA_CALLS_PER_PARTITION, (
        f"{setup}: metrics add {extra:.2f} calls per started partition"
    )
