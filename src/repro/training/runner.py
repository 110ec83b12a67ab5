"""Convenience entry points used by examples, tests, and benchmarks."""

from __future__ import annotations

from typing import Optional, Union

from repro.models import ModelSpec, get_model
from repro.training.cluster import ClusterSpec, SchedulerSpec
from repro.training.job import TrainingJob
from repro.training.metrics import TrainingResult

__all__ = ["run_experiment", "linear_scaling_speed", "resolve_model"]


def resolve_model(model: Union[str, ModelSpec]) -> ModelSpec:
    """Accept either a zoo name or an explicit spec."""
    if isinstance(model, ModelSpec):
        return model
    return get_model(model)


def run_experiment(
    model: Union[str, ModelSpec],
    cluster: ClusterSpec,
    scheduler: Optional[SchedulerSpec] = None,
    measure: int = 10,
    warmup: int = 2,
    enable_trace: bool = False,
    fault_plan=None,
    metrics=None,
    report: bool = False,
    cache=None,
) -> TrainingResult:
    """Run one simulated training configuration and return its speed.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) imposes link
    degradation, stragglers, and message loss on the run.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) wires
    scheduler/backend/link instruments into the run and samples them
    each iteration.  With ``report=True`` (implied by ``metrics``), the
    returned result carries a machine-readable
    :class:`~repro.obs.RunReport` in ``result.report``.

    ``cache`` memoises the run on disk (see
    :mod:`repro.experiments.parallel`): a :class:`ResultCache`, a cache
    directory path, ``None`` to use the session cache when one is
    active (the default), or ``False`` to force a fresh simulation.
    Only plain measurement runs are cacheable — requesting traces,
    metrics, faults, or a report always simulates.
    """
    plain = (
        fault_plan is None
        and metrics is None
        and not enable_trace
        and not report
    )
    if plain and cache is not False:
        from repro.experiments.parallel import (
            ResultCache,
            TrialSpec,
            active_cache,
            execute_trial,
            result_from_payload,
        )

        if cache is None:
            cache = active_cache()
        elif not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        if cache is not None:
            trial = TrialSpec(
                model=model,
                cluster=cluster,
                scheduler=scheduler or SchedulerSpec(),
                measure=measure,
                warmup=warmup,
            )
            return result_from_payload(execute_trial(trial, cache=cache))
    spec = resolve_model(model)
    scheduler = scheduler or SchedulerSpec()
    job = TrainingJob(
        spec,
        cluster,
        scheduler,
        enable_trace=enable_trace,
        fault_plan=fault_plan,
        metrics=metrics,
    )
    result = job.run(measure=measure, warmup=warmup)
    if report or metrics is not None:
        from repro.obs.report import build_run_report

        result.report = build_run_report(job, result)
    return result


def linear_scaling_speed(
    model: Union[str, ModelSpec],
    cluster: ClusterSpec,
    measure: int = 6,
    warmup: int = 2,
) -> float:
    """The paper's "linear scaling" reference (§6.1).

    "Calculated by the training speed on 1 machine (with a vanilla ML
    framework) multiplied by the number of machines."  A vanilla
    framework on one machine aggregates gradients over the intra-node
    interconnect (MXNet device kvstore / local NCCL), so the reference
    is the single-machine all-reduce run — the framework still matters
    (a global barrier slows the local run too, which is why the paper's
    per-framework linear lines differ).
    """
    from dataclasses import replace

    # Valid for TensorFlow too: its plugin is PS-only, but the local run keeps its barrier.
    single = replace(cluster, machines=1, num_servers=None, arch="allreduce")
    result = run_experiment(
        model,
        single,
        SchedulerSpec(kind="fifo"),
        measure=measure,
        warmup=warmup,
    )
    return result.speed * cluster.machines
