"""Value pins for the metrics registry and the run report.

``tests/comm/test_ps_trajectory.py`` pins what a metrics-on run
*simulates*; this file pins what it *records*.  Each case runs a small
seeded job (jitter 0.02 unless the case says otherwise, 2 + 2
iterations) with a :class:`~repro.obs.MetricsRegistry` and pins the
sha256 of ``registry.to_json()`` and of the
:class:`~repro.obs.RunReport` JSON.
Every instrument value, every per-iteration row and every report field
is covered: a change to how an instrument is fed (when a time-weighted
value changes, which transfers a histogram observes) moves a digest
even when the simulated trajectory is untouched.

The values were recorded before the instrument hot path was reworked
and must not be re-recorded to make a change pass.
"""

import hashlib

import pytest

from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, build_run_report
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob, resolve_model
from repro.units import MB

MEASURE, WARMUP = 2, 2

_BYTESCHEDULER = SchedulerSpec(
    kind="bytescheduler", partition_bytes=1 * MB, credit_bytes=4 * MB
)

#: ``case -> (model, ClusterSpec overrides, SchedulerSpec, TrainingJob kwargs)``.
CASES = {
    "ps-bytescheduler-tcp": ("resnet50", {}, _BYTESCHEDULER, {}),
    "ps-p3": (
        "resnet50",
        {},
        SchedulerSpec(kind="p3", partition_bytes=1 * MB, credit_bytes=1 * MB),
        {},
    ),
    # Timeouts, retries, the recovery counters and histogram, and one
    # replay pull (a worker starting a chunk the fleet already
    # completed is answered straight from the server's shard).  Replays
    # are rare: this exact setup (4 machines over RDMA, no jitter,
    # 0.5 MB partitions) replays one chunk, so keep it as it is.
    "ps-retry-loss-crash": (
        "resnet50",
        {
            "machines": 4,
            "transport": "rdma",
            "compute_jitter": 0.0,
            "retry_timeout": 0.004,
            "max_retries": 3,
        },
        SchedulerSpec(
            kind="bytescheduler", partition_bytes=0.5 * MB, credit_bytes=2 * MB
        ),
        {"fault_plan": FaultPlan.parse("loss:0.05;seed:7;crash:s0@0.05+0.02")},
    ),
    "allreduce-bytescheduler": (
        "resnet50",
        {"arch": "allreduce", "framework": "pytorch"},
        _BYTESCHEDULER,
        {},
    ),
    "dear": (
        "resnet50",
        {"arch": "allreduce", "framework": "pytorch"},
        SchedulerSpec(kind="dear"),
        {},
    ),
}

#: ``case -> (sha256 of registry.to_json(), sha256 of RunReport JSON)``.
PINNED = {
    "allreduce-bytescheduler": (
        "dbd0db8e6e19385a7ebb318fee21a14e780cfcc303c5f25215529427ff10dc5e",
        "f5cf9b565f142920492215a8359fd621c20b53a3cb67ee62221a42c090b0f382",
    ),
    "dear": (
        "fe00773a51f76b1dded06f641f494caf1551c6d313fe27cb324e5019597e5cb3",
        "661197b81111696ba933b52c322262a34eb545ba9a4dea1b3306b70fadc76562",
    ),
    "ps-bytescheduler-tcp": (
        "2053974ad62955b4508ed8a9f5099e13cada4a921235cc43813eee6f6ce49c94",
        "5b2664c9a2ebd92b8ab357d01e2e54731bb9a90461d3a3363072660e21c774ca",
    ),
    "ps-p3": (
        "614509d776d80e5d30384eb440eb8916a33afabb73541b8fb1c12ef33a792d87",
        "69895fac7dbeaff45cb3198115bb17ba3fe417dd85da3abf87e330d1ff4ef87b",
    ),
    "ps-retry-loss-crash": (
        "ffaa88d7ddf27175eefee6287ceb545644856f3f01e8daa3787b673fda2c27a6",
        "5128b837563041348d9dbab4345f5c038d9526eb956cca225948ff32270a22de",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(case):
    model, cluster, scheduler, job_kwargs = CASES[case]
    cluster_kwargs = {
        "machines": 2,
        "gpus_per_machine": 1,
        "transport": "tcp",
        "framework": "mxnet",
        "compute_jitter": 0.02,
        "seed": 0,
    }
    cluster_kwargs.update(cluster)
    registry = MetricsRegistry()
    job = TrainingJob(
        resolve_model(model),
        ClusterSpec(**cluster_kwargs),
        scheduler,
        metrics=registry,
        **job_kwargs,
    )
    result = job.run(measure=MEASURE, warmup=WARMUP)
    report = build_run_report(job, result)
    return job, registry, report


@pytest.mark.parametrize("case", sorted(CASES))
def test_metrics_and_report_pinned(case):
    _job, registry, report = run_case(case)
    assert (_sha(registry.to_json()), _sha(report.to_json())) == PINNED[case]
