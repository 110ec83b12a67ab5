"""A finished job is freed by reference counting, not by the cyclic GC.

The object graph of a run must be acyclic: once the last reference to a
finished :class:`TrainingJob` drops, nothing of it may be left for the
cyclic collector.  Each case runs a small job with the collector off,
builds its run report, drops both, and then requires that a collection
finds no garbage object whose type is defined in ``repro``.
"""

import gc
from collections import Counter

import pytest

from repro.obs import MetricsRegistry, build_run_report
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob, resolve_model


def _run_and_drop(arch, framework, scheduler, with_metrics):
    job = TrainingJob(
        resolve_model("resnet50"),
        ClusterSpec(machines=2, transport="tcp", arch=arch, framework=framework, seed=0),
        SchedulerSpec(kind=scheduler),
        metrics=MetricsRegistry() if with_metrics else None,
    )
    result = job.run(measure=1, warmup=1)
    build_run_report(job, result)


def _type_name(obj):
    kind = type(obj)
    return f"{kind.__module__}.{kind.__qualname__}"


#: (arch, framework, scheduler, with_metrics): both adapters, both engine
#: styles, PS, all-reduce and DeAR, with and without a metrics registry.
CASES = [
    ("ps", "mxnet", "bytescheduler", False),
    ("ps", "mxnet", "fifo", False),  # the vanilla adapter
    ("allreduce", "pytorch", "dear", False),
    ("allreduce", "pytorch", "bytescheduler", False),
    ("allreduce", "tensorflow", "fifo", False),
    ("ps", "mxnet", "bytescheduler", True),
]


@pytest.mark.parametrize("arch, framework, scheduler, with_metrics", CASES)
def test_finished_job_leaves_no_cyclic_garbage(arch, framework, scheduler, with_metrics):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _run_and_drop(arch, framework, scheduler, with_metrics)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = Counter(_type_name(obj) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    ours = {name: count for name, count in garbage.items() if name.startswith("repro.")}
    assert not ours, (
        f"cyclic garbage from repro types: {ours}; "
        f"all garbage by type: {dict(garbage.most_common(20))}"
    )
