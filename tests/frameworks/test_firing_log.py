"""Firing-log pins: the order and time of every kernel entry of a job.

Each case runs a small seeded job (jitter 0.02, 2 + 2 iterations) on a
kernel whose ``run``/``step`` log each entry before running it: the
callback's ``__qualname__`` and ``repr`` of the clock, with an entry
that runs a :class:`~repro.sim.Completion`'s listeners logged as
``"completion"``.  A sha256 over the log, its length and ``env._eid``
are pinned.

The values were recorded on the kernel that still had events: every op
and CommTask completion was an event entry, issued whether or not
anything listened.  An event entry with callbacks was logged as
``"completion"``; one without was left out of the log and counted
(``removed``).  Completions now issue an entry only for listeners, so
the log must equal that recording exactly, and the run must issue the
pinned ``_eid`` less the removed entries.  That holds only if dropping
a no-listener entry moved no other entry: nothing gained a listener
between the event's trigger and its firing.  The pins must not be
re-recorded to make a change pass.
"""

import hashlib
import math
from heapq import heappop

import pytest

from repro.sim import Completion, Environment
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob, resolve_model
from repro.units import MB


def _name(fn) -> str:
    return "completion" if fn is Completion.fire else fn.__qualname__


def _logging_kernel(monkeypatch, log):
    """Patch ``Environment.run``/``step`` to log each entry they fire."""

    def run(self, until=None):
        horizon = math.inf if until is None else float(until)
        queue, lane = self._queue, self._lane
        while True:
            if lane and not (queue and queue[0][0] <= self._now):
                fn, arg = lane.popleft()
            elif queue and queue[0][0] <= horizon:
                self._now, _eid, fn, arg = heappop(queue)
            else:
                break
            log.append((_name(fn), repr(self._now)))
            fn(arg)
        if until is not None:
            self._now = horizon

    def step(self):
        queue, lane = self._queue, self._lane
        if lane and not (queue and queue[0][0] <= self._now):
            fn, arg = lane.popleft()
        else:
            self._now, _eid, fn, arg = heappop(queue)
        log.append((_name(fn), repr(self._now)))
        fn(arg)

    monkeypatch.setattr(Environment, "run", run)
    monkeypatch.setattr(Environment, "step", step)


def _job(arch, framework, kind):
    if kind in ("dear", "fifo"):
        spec = SchedulerSpec(kind=kind)
    else:
        spec = SchedulerSpec(kind=kind, partition_bytes=1 * MB, credit_bytes=4 * MB)
    return TrainingJob(
        resolve_model("resnet50"),
        ClusterSpec(
            machines=2,
            gpus_per_machine=1,
            arch=arch,
            framework=framework,
            transport="tcp",
            compute_jitter=0.02,
            seed=0,
        ),
        spec,
    )


CASES = {
    # Imperative engine, DeAR's phase-decoupled dispatch.
    "dear-pytorch": ("allreduce", "pytorch", "dear"),
    # Declarative engine, Dependency Proxies held on ``task.finished``.
    "ps-mxnet-bytescheduler": ("ps", "mxnet", "bytescheduler"),
    # Declarative with a barrier; COMM ops wait on ``task.finished``.
    "ps-tensorflow-fifo": ("ps", "tensorflow", "fifo"),
    # Imperative, async COMM ops and per-layer forward proxies.
    "allreduce-pytorch-bytescheduler": ("allreduce", "pytorch", "bytescheduler"),
}

#: ``case -> (log sha256, log length, removed entries, env._eid)``,
#: recorded on the kernel with events.
PINNED = {
    "dear-pytorch": (
        "2d48058de99694730cb11241b10bffc1198253a4edf7a5867ff564debf693320",
        1361, 753, 2114,
    ),
    "ps-mxnet-bytescheduler": (
        "8e6c4f8314730dc319602f5fe3271040c82827a5b376a828d2481569bdbefe59",
        11839, 36, 11875,
    ),
    "ps-tensorflow-fifo": (
        "7c6b141c522396b8938577b9a1d6ba3825b2ef67376832041227769f1486d47a",
        3936, 2, 3938,
    ),
    "allreduce-pytorch-bytescheduler": (
        "ee4e5122e1c65d957093edaae2dfc7825c92b9b683f49ef3470080fa466e6276",
        1973, 741, 2714,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_firing_log_is_the_event_kernels_less_unheard_entries(case, monkeypatch):
    log = []
    _logging_kernel(monkeypatch, log)
    job = _job(*CASES[case])
    job.run(measure=2, warmup=2)
    digest, length, removed, eid = PINNED[case]
    assert len(log) == length
    assert hashlib.sha256(repr(log).encode()).hexdigest() == digest
    assert job.env._eid == eid - removed
