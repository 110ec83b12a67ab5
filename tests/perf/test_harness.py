"""Perf harness: suite runner, BENCH file round-trip, regression gate."""

import pytest

from repro.perf import (
    BENCH_SCHEMA,
    MICROBENCHMARKS,
    bench_event_throughput,
    bench_scheduler_queue,
    compare,
    format_results,
    load_bench,
    run_suite,
    write_bench,
)


def fake_suite(values):
    return {
        "schema": BENCH_SCHEMA,
        "name": "micro",
        "python": "3.11.0",
        "results": {
            name: {"value": value, "unit": "ops/s", "wall_s": 0.1}
            for name, value in values.items()
        },
    }


def test_run_suite_keeps_best_of_n():
    calls = {"n": 0}

    def noisy():
        calls["n"] += 1
        return {"value": float(calls["n"]), "unit": "ops/s", "wall_s": 0.0}

    payload = run_suite({"noisy": noisy}, repeats=4)
    assert calls["n"] == 4
    result = payload["results"]["noisy"]
    assert result["value"] == 4.0  # best kept
    assert result["repeats"] == 4
    assert payload["schema"] == BENCH_SCHEMA


def test_run_suite_only_filter():
    ran = []

    def make(name):
        def bench():
            ran.append(name)
            return {"value": 1.0, "unit": "x", "wall_s": 0.0}

        return bench

    payload = run_suite(
        {"a": make("a"), "b": make("b")}, repeats=1, only=["b"]
    )
    assert ran == ["b"]
    assert list(payload["results"]) == ["b"]


def test_write_load_roundtrip(tmp_path):
    payload = fake_suite({"event_throughput": 1000.0})
    path = tmp_path / "BENCH_micro.json"
    write_bench(payload, path)
    assert load_bench(path) == payload


def test_load_rejects_wrong_schema(tmp_path):
    payload = fake_suite({"x": 1.0})
    payload["schema"] = BENCH_SCHEMA + 1
    path = tmp_path / "bad.json"
    write_bench(payload, path)
    with pytest.raises(ValueError):
        load_bench(path)


def test_compare_passes_within_threshold():
    baseline = fake_suite({"a": 100.0, "b": 50.0})
    current = fake_suite({"a": 80.0, "b": 60.0})  # -20% and +20%
    assert compare(current, baseline, threshold=0.25) == []


def test_compare_flags_regression_and_missing():
    baseline = fake_suite({"a": 100.0, "gone": 10.0})
    current = fake_suite({"a": 50.0, "new": 1.0})
    failures = compare(current, baseline, threshold=0.25)
    text = "\n".join(failures)
    assert "a:" in text and "50%" in text
    assert "gone: missing" in text
    assert "new: not in baseline" in text


def test_format_results_lists_each_benchmark():
    text = format_results(fake_suite({"a": 1234.5, "b": 2.0}))
    assert "a" in text and "1234.5" in text and "ops/s" in text


def test_microbenchmarks_registry_names():
    assert set(MICROBENCHMARKS) == {
        "event_throughput", "link_burst",
        "scheduler_queue", "end_to_end", "dear", "drift", "cluster",
        "claim_protocol",
    }


def test_event_throughput_bench_runs():
    result = bench_event_throughput(processes=10, steps=20)
    assert result["unit"] == "events/s"
    assert result["value"] > 0
    assert result["params"] == {"processes": 10, "steps": 20}


def test_scheduler_queue_bench_runs():
    result = bench_scheduler_queue(tasks=10, partitions=4)
    assert result["unit"] == "subtasks/s"
    assert result["value"] > 0


def test_cluster_bench_runs():
    from repro.perf import bench_cluster

    result = bench_cluster(jobs=20)
    assert result["unit"] == "jobs/s"
    assert result["value"] > 0
    assert result["params"]["jobs"] == 20
    assert 0.0 < result["params"]["fairness"] <= 1.0


def test_drift_bench_runs():
    from repro.perf import bench_drift

    result = bench_drift(segments=4)
    assert result["unit"] == "segments/s"
    assert result["value"] > 0
    assert result["params"]["profiled"] >= 4


def test_committed_baseline_is_loadable():
    """The CI gate depends on this file staying valid."""
    from pathlib import Path

    baseline_path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "perf" / "BASELINE.json"
    )
    baseline = load_bench(baseline_path)
    assert set(MICROBENCHMARKS) <= set(baseline["results"])
    for result in baseline["results"].values():
        assert result["value"] > 0


def test_link_burst_bench_runs():
    from repro.perf import bench_link_burst

    result = bench_link_burst(messages=50, rounds=2)
    assert result["unit"] == "frames/s"
    assert result["value"] > 0


def test_claim_protocol_bench_runs():
    from repro.perf import bench_claim_protocol

    result = bench_claim_protocol(cycles=10)
    assert result["unit"] == "cycles/s"
    assert result["value"] > 0


def test_update_baseline_ratchets_only_real_gains(tmp_path):
    from repro.perf import update_baseline

    path = tmp_path / "BASELINE.json"
    # First write pins every benchmark outright.
    first = fake_suite({"a": 100.0, "b": 200.0})
    assert sorted(update_baseline(first, path)) == ["a", "b"]
    # Noise-level wiggle (< 5%) leaves the file untouched.
    before = path.read_text()
    assert update_baseline(fake_suite({"a": 104.0, "b": 195.0}), path) == []
    assert path.read_text() == before
    # A real improvement ratchets only its own entry; a new benchmark
    # is pinned at first sight.
    changed = update_baseline(
        fake_suite({"a": 120.0, "b": 195.0, "c": 7.0}), path
    )
    assert sorted(changed) == ["a", "c"]
    updated = load_bench(path)
    assert updated["results"]["a"]["value"] == 120.0
    assert updated["results"]["b"]["value"] == 200.0  # never lowered
    assert updated["results"]["c"]["value"] == 7.0
