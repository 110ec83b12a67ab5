"""The ``reproduce`` targets and the reproduction report.

:data:`TARGETS` has one row per experiment in DESIGN.md's index (name,
report title, ``run(fast) -> str``) and is the only list of targets and
of their fast and full arguments.  ``python -m repro reproduce <name>``
prints one row's body and ``reproduce all`` runs every row in table
order; either can also write the rows it ran as a markdown report (the
machine-generated companion to EXPERIMENTS.md) and as a JSON section
index (status, wall time and body per section).
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO

from repro import experiments as exp

__all__ = [
    "Target", "TARGETS", "run_targets", "format_report", "generate_report", "write_json_report",
]


@dataclass(frozen=True)
class Target:
    """One ``reproduce`` target and its report section."""

    name: str
    title: str
    #: fast -> the section body, exactly as ``reproduce <name>`` prints it.
    run: Callable[[bool], str]


def _result(
    module: str, fast_kwargs: Dict[str, Any], full_kwargs: Dict[str, Any]
) -> Callable[[bool], str]:
    """``module.format_result(module.run(**kwargs))``, with the fast or
    the full keyword arguments."""

    def run(fast: bool) -> str:
        experiment = getattr(exp, module)
        return experiment.format_result(experiment.run(**(fast_kwargs if fast else full_kwargs)))

    return run


def _speed_grid(model: str) -> Callable[[bool], str]:
    def run(fast: bool) -> str:
        machines = (1, 2) if fast else (1, 2, 4, 8)
        grid = exp.figure10_12.run_model(model, machines_list=machines, measure=3)
        return exp.figure10_12.format_model_grid(grid)

    return run


def _p3(fast: bool) -> str:
    extra, machines = exp.extra, 2 if fast else 4
    return (
        extra.format_p3(extra.run_p3_comparison(machines=machines))
        + "\n\n"
        + extra.format_extra_models(extra.run_extra_models(machines=machines))
    )


def _ablations(fast: bool) -> str:
    ablations, machines = exp.ablations, 2 if fast else 4
    runs = [
        runner(machines=machines)
        for runner in (
            ablations.credit_ablation,
            ablations.partition_ablation,
            ablations.barrier_ablation,
            ablations.sharding_ablation,
        )
    ]
    # Fusion vs partitioning needs the sync-dominated 64-rank ring.
    runs.append(ablations.fusion_ablation(machines=8, measure=2))
    return "\n\n".join(ablations.format_ablation(result) for result in runs)


def _extensions(fast: bool) -> str:
    extensions, machines = exp.extensions, 2 if fast else 4
    return "\n".join(
        [
            extensions.format_per_layer(extensions.per_layer_partitions(machines=machines)),
            extensions.format_online(extensions.online_tuning_trajectory(machines=machines)),
            extensions.format_async(extensions.async_vs_sync(machines=machines)),
        ]
    )


def _integrity(fast: bool) -> str:
    faults, measure = exp.faults, 2 if fast else 3
    return (
        faults.format_integrity(faults.run_integrity(machines=2, measure=measure))
        + "\n\n"
        + faults.format_dear_integrity(faults.run_dear_integrity(machines=2, measure=measure))
    )


TARGETS: Dict[str, Target] = {
    row.name: row
    for row in (
        # name, title, run: _result(module, fast kwargs, full kwargs) or a runner
        Target("figure2", "Figure 2 — contrived example", _result("figure2", {}, {})),
        Target("figure4", "Figure 4 — FIFO knob sweeps", _result(
            "figure4",
            dict(machines=2, measure=2, sizes_kb=(100, 250, 700)),
            dict(machines=2, measure=2, sizes_kb=(100, 160, 250, 400, 550, 700)),
        )),
        Target("figure9", "Figure 9 — BO search trace",
               _result("figure9", dict(machines=2), dict(machines=4))),
        Target("figure10", "Figure 10 — VGG16 speed grid", _speed_grid("vgg16")),
        Target("figure11", "Figure 11 — ResNet50 speed grid", _speed_grid("resnet50")),
        Target("figure12", "Figure 12 — Transformer speed grid", _speed_grid("transformer")),
        Target("figure13", "Figure 13 — bandwidth sweep", _result(
            "figure13",
            dict(models=("vgg16",), machines=2, measure=2),
            dict(models=("vgg16", "resnet50", "transformer"), machines=4, measure=2),
        )),
        Target("figure14", "Figure 14 — search costs", _result(
            "figure14", dict(machines=2, seeds=(0,)), dict(machines=2, seeds=(0, 1, 2)))),
        Target("table1", "Table 1 — best knobs", _result(
            "table1", dict(machines=2, trials=6), dict(machines=4, trials=10))),
        Target("p3", "§6.2 — P3 and extra models", _p3),
        Target("bounds", "§4.1 — bounds check",
               _result("bounds_check", dict(machines=2), dict(machines=4))),
        Target("ablations", "Ablations", _ablations),
        Target("extensions", "§7 extensions", _extensions),
        Target("coscheduling", "§7 co-scheduling",
               _result("coscheduling", dict(machines=2), dict(machines=4))),
        Target("faults", "Goodput under faults",
               _result("faults", dict(machines=2, measure=2), dict(machines=2, measure=3))),
        Target("recovery", "Crash recovery", _result(
            "recovery",
            dict(machines=2, measure=3, crash_times=(0.4,), restart_delays=(0.1,),
                 checkpoint_intervals=(0.05, 0.2)),
            dict(machines=2),
        )),
        Target("integrity", "Transfer integrity", _integrity),
        Target("dear", "DeAR — decoupled all-reduce",
               _result("dear", dict(machines=2, measure=2), dict(machines=4, measure=3))),
        Target("cluster", "Cluster — multi-job scheduling", _result(
            "cluster", dict(jobs=80, seeds=(0,)), dict(jobs=200, seeds=(0, 1, 2)))),
        Target("elastic", "Elastic membership",
               _result("elastic", dict(fast=True), dict(fast=False))),
        Target("drift", "Drift robustness", _result("drift", dict(fast=True), dict(fast=False))),
    )
}


def run_targets(
    names: Iterable[str], fast: bool = True, stream: Optional[TextIO] = None
) -> List[Dict[str, Any]]:
    """Run the named targets in the order given and return one section
    record (title, status, wall seconds, body) per target; ``stream``
    receives a progress line as each section completes."""
    records: List[Dict[str, Any]] = []
    for name in names:
        target = TARGETS[name]
        started = time.time()
        body = target.run(fast)
        elapsed = time.time() - started
        records.append(
            {"title": target.title, "seconds": elapsed, "status": "ok", "body": body}
        )
        if stream is not None:
            stream.write(f"[report] {target.title} ({elapsed:.1f}s)\n")
            stream.flush()
    return records


def format_report(records: List[Dict[str, Any]], fast: bool = True) -> str:
    """The markdown report of section records from :func:`run_targets`."""
    out = io.StringIO()
    out.write("# ByteScheduler reproduction report\n\n")
    out.write(
        "Generated by `repro.experiments.report`"
        f"{' (fast mode)' if fast else ''}.  See EXPERIMENTS.md for the "
        "paper-vs-measured commentary.\n"
    )
    for record in records:
        out.write(f"\n## {record['title']}\n\n```\n{record['body']}\n```\n")
    return out.getvalue()


def generate_report(
    fast: bool = True,
    stream: Optional[TextIO] = None,
    names: Optional[Iterable[str]] = None,
    json_out: Optional[str] = None,
) -> str:
    """Run the named targets (every row of :data:`TARGETS` by default)
    and return the markdown report; ``json_out`` also writes the
    machine-readable section index (see :func:`write_json_report`)."""
    records = run_targets(TARGETS if names is None else names, fast, stream)
    if json_out:
        write_json_report(records, json_out, fast=fast)
    return format_report(records, fast)


def write_json_report(
    records: List[Dict[str, Any]], path: str, fast: bool = True
) -> None:
    """Write section records (from :func:`run_targets`) as JSON."""
    with open(path, "w") as handle:
        json.dump(
            {
                "generator": "repro.experiments.report",
                "fast": fast,
                "sections": records,
                "total_seconds": sum(record["seconds"] for record in records),
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
