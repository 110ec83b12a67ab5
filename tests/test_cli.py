"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_models_lists_zoo(capsys):
    code, out = run_cli(capsys, "models")
    assert code == 0
    for name in ("vgg16", "resnet50", "transformer", "alexnet", "vgg19"):
        assert name in out


def test_run_prints_summary(capsys):
    code, out = run_cli(
        capsys,
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "2", "--measure", "2",
    )
    assert code == 0
    assert "images/s" in out


def test_run_compare_reports_speedup(capsys):
    code, out = run_cli(
        capsys,
        "run", "--model", "vgg16", "--machines", "2",
        "--gpus-per-machine", "2", "--measure", "2",
        "--scheduler", "bytescheduler",
        "--partition-mb", "2", "--credit-mb", "8", "--compare",
    )
    assert code == 0
    assert "speedup over baseline" in out


def test_run_timeline(capsys):
    code, out = run_cli(
        capsys,
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2", "--timeline",
        "--scheduler", "fifo",
    )
    assert code == 0
    assert "stall" in out
    assert "GPU" in out


def test_tune_reports_best_knobs(capsys):
    code, out = run_cli(
        capsys,
        "tune", "--model", "vgg16", "--machines", "2",
        "--gpus-per-machine", "2", "--trials", "4",
    )
    assert code == 0
    assert "best knobs" in out


def test_reproduce_figure2(capsys):
    code, out = run_cli(capsys, "reproduce", "figure2")
    assert code == 0
    assert "44.4%" in out


def test_reproduce_fast_figure10(capsys):
    code, out = run_cli(capsys, "reproduce", "figure10", "--fast")
    assert code == 0
    assert "bytescheduler" in out


def test_unknown_target_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reproduce", "figure99"])


def test_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--version"])
    assert excinfo.value.code == 0


def test_run_with_fault_plan_prints_plan_and_robustness(capsys):
    code, out = run_cli(
        capsys,
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2",
        "--fault-plan", "straggler:w0@0.0-infx1.5;loss:0.05;seed:3",
        "--retry-timeout-ms", "20",
    )
    assert code == 0
    assert "fault plan: straggler w0 x1.5" in out
    assert "loss p=0.05" in out
    assert "transfer timeouts" in out and "retries" in out


def test_run_faulted_compare_faults_both_schedulers(capsys):
    code, out = run_cli(
        capsys,
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2",
        "--partition-mb", "8", "--credit-mb", "32",
        "--fault-plan", "slowlink:w0.up@0.0-infx0.5", "--compare",
    )
    assert code == 0
    assert "speedup over baseline" in out


def test_run_rejects_malformed_fault_plan(capsys):
    code = main([
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2",
        "--fault-plan", "crash:s0@0.2;warp:w0@0-1x2",
    ])
    captured = capsys.readouterr()
    assert code == 2
    # The typed error names the offending clause and its position, and
    # the CLI turns it into a clean message instead of a traceback.
    assert "invalid --fault-plan" in captured.err
    assert "clause 2" in captured.err and "warp" in captured.err


@pytest.mark.parametrize(
    "plan, message",
    [
        ("straggler:w0@0-1xinf", "clause 1"),
        ("seed:3;straggler:w0@0-1xnan", "clause 2"),
        ("slowlink:w0.up@0-1x0.5;slowlink:w0.up@0.5-2x0.5", "overlapping fault windows"),
    ],
)
def test_run_rejects_invalid_fault_plans_before_running(capsys, plan, message):
    code = main([
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2", "--fault-plan", plan,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid --fault-plan" in captured.err and message in captured.err
    assert "images/s" not in captured.out


@pytest.mark.parametrize(
    "knob, value",
    [("--partition-mb", "nan"), ("--partition-mb", "-1"), ("--credit-mb", "nan")],
)
def test_run_rejects_bad_scheduler_knobs(capsys, knob, value):
    knobs = {"--partition-mb": "8", "--credit-mb": "32", knob: value}
    code = main([
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2",
        *[part for pair in knobs.items() for part in pair],
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid configuration" in captured.err and "must be > 0" in captured.err


@pytest.mark.parametrize(
    "flags, field",
    [
        (("--bandwidth", "nan"), "bandwidth_gbps"),
        (("--bandwidth", "inf"), "bandwidth_gbps"),
        (("--retry-timeout-ms", "nan"), "retry_timeout"),
        (("--retry-timeout-ms", "20", "--retry-backoff", "nan"), "retry_backoff"),
    ],
)
def test_run_rejects_non_finite_network_knobs(capsys, flags, field):
    code = main([
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2", *flags,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid configuration" in captured.err and field in captured.err


def test_tune_rejects_bad_cluster(capsys):
    code = main(["tune", "--model", "resnet50", "--machines", "0", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid configuration" in captured.err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_tune_rejects_non_positive_trials(capsys, trials):
    code = main(["tune", "--model", "resnet50", "--machines", "2", "--trials", trials])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid configuration" in captured.err and "max_trials" in captured.err


def test_run_integrity_plan_prints_counters(capsys):
    code, out = run_cli(
        capsys,
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2",
        "--fault-plan", "seed:7;corrupt:s0.down@0-0.5%0.05;"
        "dup:w1.up@0-0.5%0.05;reorder:s1.down@0-0.5%0.05",
    )
    assert code == 0
    assert "integrity:" in out
    assert "accounting balanced" in out
    assert "invariants:" in out and "0 violations" in out


def test_run_integrity_flag_enables_protocol_without_faults(capsys):
    code, out = run_cli(
        capsys,
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2", "--integrity",
    )
    assert code == 0
    assert "integrity: 0 corrupt" in out
    assert "invariants:" in out and "0 violations" in out


def test_run_fault_plan_is_deterministic(capsys):
    argv = [
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2",
        "--fault-plan", "loss:0.05;seed:7", "--retry-timeout-ms", "20",
    ]
    _code, out_a = run_cli(capsys, *argv)
    _code, out_b = run_cli(capsys, *argv)
    assert out_a == out_b


def test_reproduce_faults_fast(capsys):
    code, out = run_cli(capsys, "reproduce", "faults", "--fast")
    assert code == 0
    assert "Goodput under faults" in out
    assert "blackout" in out and "straggler" in out


def test_run_writes_observability_artifacts(capsys, tmp_path):
    import json

    trace_path = tmp_path / "run.json"
    span_path = tmp_path / "spans.jsonl"
    metrics_path = tmp_path / "metrics.json"
    report_path = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2",
        "--trace-out", str(trace_path),
        "--span-log", str(span_path),
        "--metrics-out", str(metrics_path),
        "--report-out", str(report_path),
    )
    assert code == 0
    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    assert events
    for event in events:
        assert "pid" in event and "tid" in event and "name" in event
        if event["ph"] == "X":
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
    assert all(json.loads(line) for line in span_path.read_text().splitlines())
    metrics = json.loads(metrics_path.read_text())
    assert metrics["iterations"]
    assert "credit_occupancy" in metrics["iterations"][0]
    report = json.loads(report_path.read_text())
    assert report["model"] == "resnet50"
    assert report["speed"] > 0
    assert f"trace written to {trace_path}" in out


def test_trace_subcommand_summarises(capsys, tmp_path):
    trace_path = tmp_path / "run.json"
    code, _out = run_cli(
        capsys,
        "run", "--model", "resnet50", "--machines", "2",
        "--gpus-per-machine", "1", "--measure", "2",
        "--trace-out", str(trace_path),
    )
    assert code == 0
    code, out = run_cli(capsys, "trace", str(trace_path), "--top", "3")
    assert code == 0
    assert "spans" in out
    assert "link" in out
    assert "longest 3 events" in out


def test_trace_subcommand_rejects_missing_file(capsys):
    code = main(["trace", "/nonexistent/trace.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot read trace" in captured.err


@pytest.mark.parametrize(
    "document",
    [
        "null",
        "3",
        '{"events": []}',
        '{"traceEvents": {"ph": "X"}}',
        '{"traceEvents": [1, 2]}',
        '[{"ph": "X", "dur": 1.0}]',
        '[{"ph": "X", "ts": "0", "dur": 1.0}]',
        '[{"ph": "X", "ts": 0, "dur": null}]',
        '[{"ph": "X", "ts": 0, "dur": 1, "cat": 7}]',
        '[{"ph": "M", "name": "thread_name", "pid": 1, "args": {"name": "t"}}]',
        '[{"ph": "M", "name": "process_name", "tid": 0, "args": {"name": "p"}}]',
        '[{"ph": "M", "name": "thread_name", "pid": 1, "tid": 0, "args": {}}]',
        '[{"ph": "M", "name": "thread_name", "pid": [1], "tid": 0, "args": {"name": "t"}}]',
        '[{"ph": "M", "name": "thread_name", "pid": 1, "tid": 0, "args": ["name"]}]',
    ],
)
def test_trace_subcommand_rejects_malformed_events(capsys, tmp_path, document):
    path = tmp_path / "bad.json"
    path.write_text(document)
    code = main(["trace", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot read trace" in captured.err
    assert captured.out == ""


def test_trace_subcommand_rejects_negative_top(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text('[{"ph": "X", "ts": 0, "dur": 1, "name": "a", "cat": "link"}]')
    code = main(["trace", str(path), "--top", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid --top" in captured.err
    assert main(["trace", str(path), "--top", "0"]) == 0


def test_bench_writes_results(tmp_path, capsys):
    out = tmp_path / "BENCH_micro.json"
    code, stdout = run_cli(
        capsys, "bench", "--repeats", "1",
        "--only", "event_throughput", "--out", str(out),
    )
    assert code == 0
    assert "event_throughput" in stdout
    assert out.exists()


def test_bench_regression_gate(tmp_path, capsys):
    import json

    out = tmp_path / "BENCH_micro.json"
    code, _ = run_cli(
        capsys, "bench", "--repeats", "1",
        "--only", "event_throughput", "--out", str(out),
    )
    assert code == 0
    # Same host, same benchmark: comfortably within the 25% gate.
    code, stdout = run_cli(
        capsys, "bench", "--repeats", "1",
        "--only", "event_throughput", "--out", str(out),
        "--check", str(out),
    )
    assert code == 0
    assert "no regression" in stdout
    # An inflated baseline trips the gate.
    payload = json.loads(out.read_text())
    payload["results"]["event_throughput"]["value"] *= 100
    inflated = tmp_path / "inflated.json"
    inflated.write_text(json.dumps(payload))
    code, _ = run_cli(
        capsys, "bench", "--repeats", "1",
        "--only", "event_throughput", "--out", str(out),
        "--check", str(inflated),
    )
    assert code == 1


def test_bench_unknown_name_rejected(capsys):
    code = main(["bench", "--only", "nonesuch"])
    capsys.readouterr()
    assert code == 2


def test_reproduce_with_cache_dir(tmp_path, capsys):
    code, cold = run_cli(
        capsys, "reproduce", "figure2",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    code, warm = run_cli(
        capsys, "reproduce", "figure2",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert warm == cold


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_reproduce_rejects_workers_below_one(capsys, workers):
    code = main(["reproduce", "figure2", "--workers", workers])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid --workers" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("below", [None, "sub"])
def test_reproduce_rejects_cache_dir_on_a_file(capsys, tmp_path, monkeypatch, below):
    import dataclasses

    from repro.experiments.report import TARGETS

    def no_trial(fast):
        raise AssertionError("a trial ran before the cache path was checked")

    monkeypatch.setitem(TARGETS, "figure2", dataclasses.replace(TARGETS["figure2"], run=no_trial))
    path = tmp_path / "not-a-dir"
    path.write_text("")
    cache_dir = path if below is None else path / below
    code = main(["reproduce", "figure2", "--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid --cache-dir" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, flag",
    [
        ("run", "--trace-out"),
        ("run", "--span-log"),
        ("run", "--metrics-out"),
        ("run", "--report-out"),
        ("reproduce", "--out"),
        ("reproduce", "--json-out"),
    ],
)
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_output_paths_are_checked_before_any_work(
    capsys, tmp_path, monkeypatch, command, flag, where
):
    import dataclasses

    from repro.experiments.report import TARGETS
    from repro.training import TrainingJob

    def no_work(*_args, **_kwargs):
        raise AssertionError("work ran before the output path was checked")

    monkeypatch.setattr(TrainingJob, "run", no_work)
    monkeypatch.setitem(TARGETS, "figure2", dataclasses.replace(TARGETS["figure2"], run=no_work))
    path = tmp_path / "absent" / "out.json" if where == "missing-dir" else tmp_path
    argv = (
        ["run", "--model", "resnet50", "--machines", "2", "--measure", "1"]
        if command == "run"
        else ["reproduce", "figure2", "--fast"]
    )
    code = main([*argv, flag, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"invalid {flag}: ")
    assert captured.out == ""
    assert not (tmp_path / "absent").exists()
