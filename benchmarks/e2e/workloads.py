"""The four end-to-end workloads, built on the public ``repro`` API.

Each workload is one closed-loop simulated training run: construct a
:class:`~repro.training.TrainingJob`, run it to completion, and return
what the benchmark needs to check and count.  Jobs are built directly,
never through ``ResultCache``, so every run really simulates.

The knob values are copies of ``repro.experiments.knobs.TUNED_KNOBS``
for each setup.  They are repeated here so the benchmark does not import
``repro.experiments``, whose import cost is not part of these workloads.

Only stdlib is imported at module level.  ``repro`` is imported inside
the construct functions, so timing a workload's first construct in a
fresh interpreter times exactly the imports it uses (``setup_s``).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

MB = 1 << 20

#: Simulated horizon of the drift workload (seconds); ``--smoke`` uses
#: the short one.
DRIFT_HORIZON = 6.0
SMOKE_DRIFT_HORIZON = 1.0

#: Relative std-dev of per-op compute time.  This is what ``--seed``
#: acts through: with zero jitter every seed gives the same trajectory.
COMPUTE_JITTER = 0.02

#: ``(phase name, start, end)`` in ``time.perf_counter`` seconds.
Phase = Tuple[str, float, float]


@dataclass
class RunOutcome:
    """What one simulated run produced."""

    #: The finished job; the caller drops it before the next run so it
    #: does not sit in the heap the next run's GC has to walk.
    job: Any
    fingerprint: str
    sim_samples_per_s: float
    #: Per-layer work counts; equal on every run of one seed.
    counts: Dict[str, float]
    #: Leading iterations to skip when averaging per-iteration numbers.
    warmup: int


#: A workload: ``construct(seed, smoke, trace, oracle)`` builds the job
#: and returns ``finish(phases)``, which runs it, appends its timed
#: phases, and returns the outcome.
Construct = Callable[..., Callable[[List[Phase]], RunOutcome]]


def fingerprint(markers, digest, speed: float) -> str:
    """sha256 over worker-0 markers, the backend's sync digest, and the
    speed (as a repr, so every bit counts)."""
    material = repr((tuple(markers), tuple(digest), repr(speed)))
    return hashlib.sha256(material.encode()).hexdigest()


def timed(phases: List[Phase], name: str, fn, *args, **kwargs):
    """Call ``fn`` and record its wall-clock span as phase ``name``."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        phases.append((name, start, time.perf_counter()))


def _counts(job, report) -> Dict[str, float]:
    """Per-layer work counts read from the finished job and its report."""
    links = list(report.links.values())
    now = job.env.now
    stats = report.scheduler_stats
    counts: Dict[str, float] = {
        "net.frames": float(sum(link["messages_sent"] for link in links)),
        "net.bytes": float(sum(link["bytes_sent"] for link in links)),
        "net.link_busy_max": (
            max(link["busy_time"] for link in links) / now if links and now else 0.0
        ),
        "comm.chunks": float(len(job.backend.sync_digest())),
        "comm.retries": float(report.robustness["retries"]),
        "comm.timeouts": float(report.robustness["timeouts"]),
        "core.subtasks": float(stats["subtasks_started"]),
        "core.tasks": float(stats["tasks_enqueued"]),
        "core.preemptions": float(stats["preemption_opportunities"]),
        "tuning.reconfigures": float(report.tuning.get("reconfigures", 0)),
        "tuning.change_points": float(report.tuning.get("change_points", 0)),
        "tuning.segments": float(report.tuning.get("profiled_segments", 0)),
    }
    # A private counter: if the kernel renames it the metric goes
    # missing from the output instead of the benchmark crashing.
    events = getattr(job.env, "_eid", None)
    if events is not None:
        counts["sim.events"] = float(events)
    return counts


def _cluster(machines: int, arch: str, framework: str, seed: int):
    from repro.training import ClusterSpec

    return ClusterSpec(
        machines=machines,
        transport="tcp",
        arch=arch,
        framework=framework,
        compute_jitter=COMPUTE_JITTER,
        seed=seed,
    )


# -- training-only workloads ----------------------------------------------------


def _training(
    model: str,
    machines: int,
    arch: str,
    framework: str,
    scheduler: Dict[str, Any],
    with_metrics: bool = False,
) -> Construct:
    def construct(seed: int, smoke: bool = False, trace: bool = False, oracle=None):
        from repro.obs import MetricsRegistry, build_run_report
        from repro.training import SchedulerSpec, TrainingJob, resolve_model

        job = TrainingJob(
            resolve_model(model),
            _cluster(machines, arch, framework, seed),
            SchedulerSpec(**scheduler),
            enable_trace=trace,
            metrics=MetricsRegistry() if with_metrics else None,
            oracle=oracle,
        )

        def finish(phases: List[Phase]) -> RunOutcome:
            result = timed(phases, "run", job.run, measure=4, warmup=2)
            report = timed(phases, "report", build_run_report, job, result)
            return RunOutcome(
                job=job,
                fingerprint=fingerprint(
                    job.markers[job.workers[0]], job.backend.sync_digest(), result.speed
                ),
                sim_samples_per_s=result.speed,
                counts=_counts(job, report),
                warmup=2,
            )

        return finish

    return construct


# -- drift-tracking adaptive tuner ------------------------------------------------


def _drift_adaptive(seed: int, smoke: bool = False, trace: bool = False, oracle=None):
    """The adaptive policy of ``repro.experiments.drift`` on its diurnal
    scenario: the tuner's control loop, then ``advance`` to the horizon,
    which steps the kernel one event at a time."""
    from repro.faults import FaultPlan
    from repro.obs import build_run_report
    from repro.training import SchedulerSpec, TrainingJob, TrainingResult, resolve_model
    from repro.tuning import AdaptiveTuner, PageHinkley, SearchSpace

    horizon = SMOKE_DRIFT_HORIZON if smoke else DRIFT_HORIZON
    plan = FaultPlan.parse(
        f"drift:diurnal:s0.both@0-{horizon:g}~{4 * horizon / 3:g}x0.15;seed:{seed}"
    )
    job = TrainingJob(
        resolve_model("resnet50"),
        _cluster(8, "ps", "mxnet", seed),
        SchedulerSpec(kind="bytescheduler", partition_bytes=0.5 * MB, credit_bytes=2 * MB),
        enable_trace=trace,
        fault_plan=plan,
        oracle=oracle,
    )
    tuner = AdaptiveTuner(
        job,
        space=SearchSpace(0.25 * MB, 8 * MB, 1 * MB, 32 * MB),
        seed=seed,
        segment_iterations=2,
        restart_penalty=0.0,
        probe_period=3,
        detector=PageHinkley(delta=0.01, threshold=0.06),
        neighbor_step=0.2,
    )

    def run_out() -> None:
        while job.env.now < horizon:
            job.advance(3)
        job.drain()

    def finish(phases: List[Phase]) -> RunOutcome:
        tuned = timed(
            phases, "tune", tuner.run, segments=56, final_iterations=3, until=horizon
        )
        timed(phases, "run", run_out)
        markers = job.markers[job.workers[0]]
        result = TrainingResult(
            markers=dict(job.markers),
            warmup=1,
            measured=len(markers) - 1,
            samples_per_iteration=job.samples_per_iteration,
            sample_unit=job.model.sample_unit,
        )
        return RunOutcome(
            job=job,
            fingerprint=fingerprint(
                markers, job.backend.sync_digest(), tuned.final_speed
            ),
            sim_samples_per_s=job.samples_per_iteration * len(markers) / job.env.now,
            counts=_counts(job, timed(phases, "report", build_run_report, job, result)),
            warmup=1,
        )

    return finish


#: Run order and the reason for each workload live in BENCHMARK.json.
WORKLOADS: Dict[str, Construct] = {
    "ps-vgg16-tcp8": _training(
        "vgg16", 8, "ps", "mxnet",
        {"kind": "bytescheduler", "partition_bytes": 2 * MB, "credit_bytes": 32 * MB},
    ),
    "dear-resnet50-tcp8": _training("resnet50", 8, "allreduce", "pytorch", {"kind": "dear"}),
    "ps-transformer-tcp16-obs": _training(
        "transformer", 16, "ps", "mxnet",
        {"kind": "bytescheduler", "partition_bytes": 2 * MB, "credit_bytes": 16 * MB},
        with_metrics=True,
    ),
    "drift-adaptive-resnet50-tcp8": _drift_adaptive,
}
