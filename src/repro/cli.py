"""Command-line interface.

Six entry points, runnable as ``python -m repro ...``:

* ``run``       — simulate one training configuration (optionally
                  against the vanilla baseline); ``--trace-out`` /
                  ``--metrics-out`` / ``--report-out`` export the run's
                  Chrome trace, per-iteration metrics, and JSON report.
* ``tune``      — auto-tune (partition, credit) for a configuration.
* ``reproduce`` — regenerate one of the paper's tables or figures, or
                  ``all`` of them (``--out``/``--json-out`` for the
                  markdown report and machine-readable section index;
                  ``--workers``/``--cache-dir`` parallelise and memoise
                  the underlying trials).
* ``bench``     — run the perf microbenchmarks, write ``BENCH_*.json``,
                  optionally gate against a committed baseline.
* ``trace``     — summarize an exported trace-event JSON file.
* ``models``    — list the model zoo.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro._version import __version__
from repro.core.kinds import SCHEDULER_KINDS
from repro.errors import ConfigError, FaultPlanError, SchedulerError, TuningError
from repro.experiments.report import TARGETS, format_report, run_targets, write_json_report
from repro.units import MB

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ByteScheduler (SOSP 2019) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="simulate one training configuration")
    _add_cluster_args(run)
    run.add_argument("--scheduler", default="bytescheduler",
                     choices=list(SCHEDULER_KINDS))
    run.add_argument("--partition-mb", type=float, default=None)
    run.add_argument("--credit-mb", type=float, default=None)
    run.add_argument("--dear-fusion-mb", type=float, default=None,
                     help="DeAR only: batch adjacent reduce-scatters up "
                          "to this many MB (omit for pure knob-free DeAR)")
    run.add_argument("--measure", type=int, default=6)
    run.add_argument("--compare", action="store_true",
                     help="also run the FIFO baseline and report the speedup")
    run.add_argument("--timeline", action="store_true",
                     help="print the per-iteration breakdown and gantt")
    run.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="inject faults, e.g. "
             "'straggler:w0@0.0-0.5x3;slowlink:w1.up@0.1-0.3x0.25;"
             "crash:s0@0.4+0.2;corrupt:s0.down@0-0.5%%0.02;"
             "dup:w1.up@0-0.5%%0.02;reorder:s1.down@0-0.5%%0.02;"
             "leave:w1@0.3;join:w1@0.8;"
             "loss:0.02;seed:7'",
    )
    run.add_argument(
        "--min-workers", type=int, default=None, metavar="N",
        help="elastic membership floor: with join/leave clauses, the "
             "job parks at an iteration boundary instead of training "
             "below N workers (default 1)",
    )
    run.add_argument(
        "--integrity", action="store_true",
        help="enable the delivery protocol (checksums, dedup window, "
             "epoch fencing) and the chaos invariant oracle even "
             "without integrity fault clauses",
    )
    run.add_argument(
        "--checkpoint-interval-ms", type=float, default=None, metavar="MS",
        help="server shard snapshot cadence for crash recovery "
             "(0 disables checkpointing; default 100 ms)",
    )
    run.add_argument("--retry-timeout-ms", type=float, default=None,
                     help="per-transfer timeout before retransmission (ms)")
    run.add_argument("--retry-backoff", type=float, default=2.0,
                     help="timeout multiplier per retry attempt")
    run.add_argument("--max-retries", type=int, default=3,
                     help="retransmissions per transfer before giving up")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write a Chrome/Perfetto trace-event JSON "
                          "(open in chrome://tracing or ui.perfetto.dev)")
    run.add_argument("--span-log", default=None, metavar="PATH",
                     help="write the flat JSONL span log")
    run.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write per-iteration metrics + instrument dump JSON")
    run.add_argument("--report-out", default=None, metavar="PATH",
                     help="write the machine-readable run report JSON")

    tune = commands.add_parser("tune", help="auto-tune partition and credit sizes")
    _add_cluster_args(tune)
    tune.add_argument("--method", default="bo",
                      choices=["bo", "grid", "random", "sgd"])
    tune.add_argument("--trials", type=int, default=12)
    tune.add_argument("--seed", type=int, default=0)

    reproduce = commands.add_parser(
        "reproduce", help="regenerate one of the paper's tables/figures"
    )
    reproduce.add_argument("target", choices=[*TARGETS, "all"])
    reproduce.add_argument("--fast", action="store_true",
                           help="smaller scales / fewer iterations")
    reproduce.add_argument("--out", default=None,
                           help="also write the markdown report of the "
                                "target(s) run to a file")
    reproduce.add_argument("--json-out", default=None, metavar="PATH",
                           help="write the machine-readable section "
                                "index of the target(s) run as JSON")
    reproduce.add_argument("--workers", type=int, default=None, metavar="N",
                           help="fan independent trials out over N "
                                "processes (results are bit-identical "
                                "to the serial run)")
    reproduce.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="memoise trial results on disk "
                                "($REPRO_CACHE_DIR or "
                                "~/.cache/repro/trials with no value); "
                                "repeated sweep points become free")
    reproduce.add_argument("--cache", action="store_true",
                           help="shorthand for --cache-dir at its "
                                "default location")
    reproduce.add_argument("--shard", default=None, metavar="I/N",
                           help="run shard I of N hosts sharing "
                                "--cache-dir: this process computes the "
                                "trials at positions congruent to I mod "
                                "N and pulls the rest from the cache")
    reproduce.add_argument("--steal", action="store_true",
                           help="with --shard: after finishing this "
                                "shard's slice, take over unfinished "
                                "trials from other shards (dead hosts' "
                                "expired claims included) instead of "
                                "idling")

    bench = commands.add_parser(
        "bench", help="run perf microbenchmarks and write BENCH_*.json"
    )
    bench.add_argument("--out", default="BENCH_micro.json", metavar="PATH",
                       help="where to write the results "
                            "(default: BENCH_micro.json)")
    bench.add_argument("--only", action="append", default=None,
                       metavar="NAME",
                       help="run just the named benchmark(s); repeatable")
    bench.add_argument("--repeats", type=int, default=3,
                       help="runs per benchmark; best is kept")
    bench.add_argument("--sweep", action="store_true",
                       help="also time a mini figure sweep end-to-end "
                            "(serial vs cached)")
    bench.add_argument("--check", default=None, metavar="BASELINE",
                       help="compare against a baseline BENCH_*.json; "
                            "exit 1 on regression")
    bench.add_argument("--threshold", type=float, default=0.25,
                       help="allowed fractional drop vs baseline "
                            "(default 0.25)")
    bench.add_argument("--update-baseline", nargs="?", metavar="PATH",
                       const="benchmarks/perf/BASELINE.json",
                       default=None,
                       help="ratchet the committed baseline: rewrite "
                            "entries this run improves by more than 5%% "
                            "(and add new benchmarks); leaves slower or "
                            "merely-noisy results alone")

    trace = commands.add_parser(
        "trace", help="summarize an exported trace-event JSON file"
    )
    trace.add_argument("path", help="file written by `repro run --trace-out`")
    trace.add_argument("--top", type=int, default=5,
                       help="how many longest events to list")

    commands.add_parser("models", help="list the model zoo")
    return parser


def _add_cluster_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", default="vgg16")
    sub.add_argument("--machines", type=int, default=4)
    sub.add_argument("--gpus-per-machine", type=int, default=8)
    sub.add_argument("--bandwidth", type=float, default=100.0,
                     help="link speed in Gbps")
    sub.add_argument("--transport", default="rdma", choices=["tcp", "rdma"])
    sub.add_argument("--arch", default="ps", choices=["ps", "allreduce"])
    sub.add_argument("--framework", default="mxnet",
                     choices=["mxnet", "tensorflow", "pytorch"])


def _cluster_from(args: argparse.Namespace):
    from repro.training import ClusterSpec

    retry_ms = getattr(args, "retry_timeout_ms", None)
    return ClusterSpec(
        machines=args.machines,
        gpus_per_machine=args.gpus_per_machine,
        bandwidth_gbps=args.bandwidth,
        transport=args.transport,
        arch=args.arch,
        framework=args.framework,
        retry_timeout=retry_ms / 1e3 if retry_ms is not None else None,
        retry_backoff=getattr(args, "retry_backoff", 2.0),
        max_retries=getattr(args, "max_retries", 3),
    )


def _output_error(args: argparse.Namespace, flags: List[str]) -> int:
    """Check the output paths among ``flags`` before any work runs:
    print ``invalid --<flag>: ...`` and return 2 for the first one that
    cannot be written as a file, else return 0.  Creates nothing."""
    for flag in flags:
        path = getattr(args, flag.replace("-", "_"))
        if path and (Path(path).is_dir() or not os.access(Path(path).parent, os.W_OK)):
            print(
                f"invalid --{flag}: cannot write {path!r} (a directory, or in "
                "a directory that is missing or not writable)",
                file=sys.stderr,
            )
            return 2
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import tuned_knobs
    from repro.training import SchedulerSpec, TrainingJob, run_experiment
    from repro.training.runner import resolve_model

    if _output_error(args, ["trace-out", "span-log", "metrics-out", "report-out"]):
        return 2
    cluster = _cluster_from(args)
    if SCHEDULER_KINDS[args.scheduler].tunable and args.partition_mb is None:
        partition, credit = tuned_knobs(
            args.model, cluster.arch, cluster.transport, machines=cluster.machines
        )
    else:
        partition = args.partition_mb * MB if args.partition_mb else None
        credit = args.credit_mb * MB if args.credit_mb else None
    dear_fusion_mb = getattr(args, "dear_fusion_mb", None)
    spec = SchedulerSpec(
        kind=args.scheduler,
        partition_bytes=partition,
        credit_bytes=credit,
        dear_fusion_bytes=(
            dear_fusion_mb * MB if dear_fusion_mb is not None else None
        ),
    )

    fault_plan = None
    recovery_spec = None
    membership_spec = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except FaultPlanError as error:
            print(f"invalid --fault-plan: {error}", file=sys.stderr)
            return 2
        print(f"fault plan: {fault_plan.describe()}")
        checkpoint_ms = getattr(args, "checkpoint_interval_ms", None)
        if checkpoint_ms is not None:
            from repro.recovery import RecoverySpec

            recovery_spec = RecoverySpec(checkpoint_interval=checkpoint_ms / 1e3)
        min_workers = getattr(args, "min_workers", None)
        if min_workers is not None:
            from repro.recovery import MembershipSpec

            membership_spec = MembershipSpec(min_workers=min_workers)

    wants_trace = bool(args.timeline or args.trace_out or args.span_log)
    metrics = None
    if args.metrics_out or args.report_out:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    oracle = None
    wants_integrity = bool(
        getattr(args, "integrity", False)
        or (fault_plan is not None and fault_plan.integrity)
    )
    if wants_integrity:
        from repro.invariants import ChaosOracle

        oracle = ChaosOracle()
    job = TrainingJob(
        resolve_model(args.model),
        cluster,
        spec,
        enable_trace=wants_trace,
        fault_plan=fault_plan,
        metrics=metrics,
        recovery_spec=recovery_spec,
        membership_spec=membership_spec,
        oracle=oracle,
        integrity=bool(getattr(args, "integrity", False)),
    )
    result = job.run(measure=args.measure)
    print(result.summary())
    if fault_plan is not None:
        timeouts = getattr(job.backend, "timeouts", 0)
        retries = getattr(job.backend, "retries", 0)
        print(f"robustness: {timeouts} transfer timeouts, {retries} retries")
    guard = job.fabric.guard if job.fabric is not None else None
    istats = (
        guard.stats
        if guard is not None
        else getattr(job.backend, "integrity_stats", None)
    )
    if istats is not None:
        print(
            f"integrity: {istats.corrupt_injected} corrupt "
            f"({istats.corrupt_detected} detected, "
            f"{istats.retransmits} retransmits), "
            f"{istats.dup_injected} duplicated "
            f"({istats.dup_absorbed} absorbed), "
            f"{istats.reorder_injected} reordered, "
            f"{istats.stale_dropped} stale-epoch drops; "
            f"accounting {'balanced' if istats.accounted() else 'UNBALANCED'}"
        )
    if oracle is not None:
        print(
            f"invariants: {len(oracle.invariants)} checked, "
            f"{oracle.violations} violations"
        )
    if job.recovery is not None:
        stats = job.recovery.stats()
        print(
            f"recovery: {stats['crashes']:.0f} crashes, "
            f"{stats['recoveries']:.0f} recovered in "
            f"{stats['recovery_time_total'] * 1e3:.1f} ms total, "
            f"{stats['replayed_subtasks']:.0f} partitions replayed, "
            f"{stats['lost_work_bytes'] / 1e6:.1f} MB lost, "
            f"{stats['resync_bytes'] / 1e6:.1f} MB re-synced"
        )
    if job.membership is not None:
        stats = job.membership.stats()
        print(
            f"membership: epoch {stats['epoch']}, "
            f"{stats['joins']:.0f} joins, {stats['leaves']:.0f} leaves, "
            f"{stats['members_now']} members now "
            f"(floor {stats['min_workers']}), "
            f"quiesce {stats['quiesce_time_total'] * 1e3:.1f} ms, "
            f"sync {stats['sync_bytes'] / 1e6:.1f} MB, "
            f"parked {stats['parked_time'] * 1e3:.1f} ms"
        )
    if args.trace_out:
        from repro.obs import job_chrome_trace, write_chrome_trace

        write_chrome_trace(job_chrome_trace(job), args.trace_out)
        print(f"trace written to {args.trace_out} (chrome://tracing)")
    if args.span_log:
        from repro.obs import write_span_log

        write_span_log(job.trace, args.span_log)
        print(f"span log written to {args.span_log}")
    if args.metrics_out:
        metrics.write(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.report_out:
        from repro.obs import build_run_report

        build_run_report(job, result).write(args.report_out)
        print(f"run report written to {args.report_out}")
    if args.timeline:
        from repro.analysis import analyze_worker, ascii_gantt, format_breakdown

        print()
        print(format_breakdown(analyze_worker(job)))
        print(ascii_gantt(job))
    if args.compare:
        baseline = run_experiment(
            args.model, cluster, SchedulerSpec(kind="fifo"),
            measure=args.measure, fault_plan=fault_plan,
        )
        print(baseline.summary())
        print(f"speedup over baseline: +{result.speedup_over(baseline) * 100:.0f}%")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tuning import AutoTuner, simulated_objective

    cluster = _cluster_from(args)
    tuner = AutoTuner(
        simulated_objective(args.model, cluster, measure=2, warmup=1),
        method=args.method,
        seed=args.seed,
    )
    result = tuner.run(max_trials=args.trials)
    partition, credit = result.best_point
    print(
        f"best knobs after {result.num_trials} trials: "
        f"partition {partition / MB:.2f} MB, credit {credit / MB:.2f} MB "
        f"-> {result.best_speed:,.0f} samples/s"
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import parallel

    if args.workers is not None and args.workers < 1:
        print(f"invalid --workers: {args.workers} (need at least 1)", file=sys.stderr)
        return 2
    if _output_error(args, ["out", "json-out"]):
        return 2
    cache_dir = args.cache_dir
    if cache_dir is None and getattr(args, "cache", False):
        cache_dir = parallel.default_cache_dir()
    shard = None
    if getattr(args, "shard", None):
        from repro.experiments.stealing import ShardSpec

        try:
            shard = ShardSpec.parse(args.shard)
        except ConfigError as error:
            print(f"invalid --shard: {error}", file=sys.stderr)
            return 2
        if cache_dir is None:
            print(
                "--shard needs --cache-dir (or --cache): the shared "
                "cache is how shards exchange results",
                file=sys.stderr,
            )
            return 2
    elif getattr(args, "steal", False):
        print("--steal only makes sense with --shard", file=sys.stderr)
        return 2
    if cache_dir is not None:
        # Fail before any trial runs, not in the first cache write.
        try:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as error:
            print(f"invalid --cache-dir: {error}", file=sys.stderr)
            return 2
    with parallel.session(
        workers=args.workers,
        cache_dir=cache_dir,
        shard=shard,
        steal=getattr(args, "steal", False),
    ):
        every = args.target == "all"
        records = run_targets(
            TARGETS if every else [args.target], args.fast, stream=sys.stderr if every else None
        )
    report = format_report(records, args.fast)
    print(report if every else records[0]["body"])
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
    if args.json_out:
        write_json_report(records, args.json_out, fast=args.fast)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        MICROBENCHMARKS,
        bench_sweep,
        compare,
        format_results,
        load_bench,
        run_suite,
        update_baseline,
        write_bench,
    )

    benchmarks = dict(MICROBENCHMARKS)
    if args.sweep:
        benchmarks["sweep"] = bench_sweep
    if args.only:
        unknown = [name for name in args.only if name not in benchmarks]
        if unknown:
            print(
                f"unknown benchmark(s): {', '.join(unknown)} "
                f"(available: {', '.join(sorted(benchmarks))})",
                file=sys.stderr,
            )
            return 2
    payload = run_suite(benchmarks, repeats=args.repeats, only=args.only)
    print(format_results(payload))
    write_bench(payload, args.out)
    print(f"results written to {args.out}")
    if args.check:
        try:
            baseline = load_bench(args.check)
        except (OSError, ValueError) as error:
            print(f"cannot read baseline {args.check!r}: {error}",
                  file=sys.stderr)
            return 1
        failures = compare(payload, baseline, threshold=args.threshold)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.check} "
              f"(threshold {args.threshold * 100:.0f}%)")
    if args.update_baseline:
        updated = update_baseline(payload, args.update_baseline)
        if updated:
            print(f"baseline {args.update_baseline} ratcheted: "
                  f"{', '.join(updated)}")
        else:
            print(f"baseline {args.update_baseline} unchanged "
                  f"(no >5% improvements)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_trace_file, summarize_trace

    if args.top < 0:
        print(f"invalid --top: {args.top} (need at least 0)", file=sys.stderr)
        return 2
    try:
        events = load_trace_file(args.path)
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.path!r}: {error}", file=sys.stderr)
        return 1
    print(summarize_trace(events, top=args.top))
    return 0


def _cmd_models(_args: argparse.Namespace) -> int:
    from repro.models import MODEL_BUILDERS

    for name, builder in sorted(MODEL_BUILDERS.items()):
        model = builder()
        print(
            f"{name:12} {model.num_layers:>3} layers  "
            f"{model.total_bytes / 1e6:8.1f} MB  "
            f"compute {model.compute_time * 1e3:6.1f} ms  "
            f"batch {model.batch_size} {model.sample_unit}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "tune": _cmd_tune,
        "reproduce": _cmd_reproduce,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "models": _cmd_models,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, SchedulerError, TuningError) as error:
        if args.command not in ("run", "tune"):
            raise
        # A knob or cluster shape the simulator rejects: a usage error.
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
