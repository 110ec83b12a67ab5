"""A run holds only the iterations in flight, not the iterations run.

Finished ops, their comm tasks and countdowns, and the adapters' per-
iteration tables must become unreachable while the run goes on, so a
long run's memory and GC work stay flat.  Each case runs the same job
for 2 and for 6 measured iterations, untraced, and requires that the
finished job keeps the same number of live objects of ``repro`` types
either way — through :meth:`TrainingJob.run` and through
:meth:`TrainingJob.advance`.
"""

import gc
import re
from collections import Counter

import pytest

from repro.core import CommTask
from repro.faults import FaultPlan
from repro.frameworks import EngineOp
from repro.obs import MetricsRegistry
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob, resolve_model
from tests.training.test_no_cyclic_garbage import CASES


def _live_repro_objects():
    gc.collect()
    return Counter(
        type(obj).__qualname__
        for obj in gc.get_objects()
        if str(type(obj).__module__).startswith("repro.")
    )


def _held_by_finished_job(arch, framework, scheduler, with_metrics, measure, drive):
    """Objects of ``repro`` types a finished job keeps alive, by type."""
    before = _live_repro_objects()
    job = TrainingJob(
        resolve_model("resnet50"),
        ClusterSpec(machines=2, transport="tcp", arch=arch, framework=framework, seed=0),
        SchedulerSpec(kind=scheduler),
        metrics=MetricsRegistry() if with_metrics else None,
    )
    if drive == "run":
        job.run(measure=measure, warmup=1)
    else:
        assert job.advance(1 + measure) == 1 + measure
        job.drain()
    return _live_repro_objects() - before


@pytest.mark.parametrize("drive", ["run", "advance"])
@pytest.mark.parametrize("arch, framework, scheduler, with_metrics", CASES)
def test_live_state_does_not_grow_with_run_length(
    arch, framework, scheduler, with_metrics, drive
):
    short = _held_by_finished_job(arch, framework, scheduler, with_metrics, 2, drive)
    long = _held_by_finished_job(arch, framework, scheduler, with_metrics, 6, drive)
    assert sum(long.values()) == sum(short.values()), (
        f"4 more iterations left {sum(long.values()) - sum(short.values())} more "
        f"live repro objects; growth by type: {dict((long - short).most_common(10))}"
    )


# -- adapter tables under elastic leave and rejoin ---------------------------

_ITERATION = re.compile(r"^[a-z_]+(\d+)\.\d+")


def _iterations_in_tables(adapter):
    """The iteration of every op and comm task the adapter's own
    attributes reach through dicts, lists and tuples."""
    found = set()
    stack = [
        value for name, value in vars(adapter).items() if name not in ("engine", "core")
    ]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, set)):
            stack.extend(value)
        elif isinstance(value, CommTask):
            found.add(value.iteration)
        elif isinstance(value, EngineOp):
            found.add(int(_ITERATION.match(value.name).group(1)))
    return found


@pytest.mark.parametrize(
    "framework, scheduler",
    [
        ("mxnet", "bytescheduler"),  # held comm ops gate the next forward
        ("tensorflow", "bytescheduler"),  # barrier + per-layer forward proxies
        ("mxnet", "fifo"),  # the vanilla adapter's comm-op gates
        ("tensorflow", "fifo"),  # the vanilla adapter's barrier
    ],
)
def test_leave_and_rejoin_leaves_no_stale_adapter_tables(framework, scheduler):
    job = TrainingJob(
        resolve_model("resnet50"),
        ClusterSpec(machines=4, transport="tcp", arch="ps", framework=framework, seed=0),
        SchedulerSpec(kind=scheduler),
        fault_plan=FaultPlan.parse("leave:w1@0.15;join:w1@0.45"),
    )
    job.run(measure=8, warmup=2)
    assert job.membership.stats()["joins"] == 1
    last = job._built_iterations - 1
    assert job.workers == ("w0", "w1", "w2", "w3")
    for worker, adapter in job.adapters.items():
        assert _iterations_in_tables(adapter) == {last}, worker
