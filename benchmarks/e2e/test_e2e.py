"""Checks on the end-to-end benchmark itself (slow: it simulates).

Run with ``pytest benchmarks/e2e -m slow``.  One ``--smoke`` invocation
of ``run.py`` (one measured run per workload, 1 s drift horizon) backs
the output checks.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

import compare  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--seed", "0", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(out.read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_named_metric_is_emitted_with_its_unit(smoke):
    stdout, payload = smoke
    assert list(payload["workloads"]) == list(workloads.WORKLOADS)
    for name, result in payload["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["traced_fingerprint"] == result["fingerprint"], name
        for section, wanted in (("e2e", "end_to_end"), ("per_layer", "per_layer")):
            for metric in SPEC[wanted]:
                emitted = result[section][metric["name"]]
                assert emitted["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(emitted["value"], float), (name, metric["name"])
                printed = [
                    text for text in stdout.splitlines()
                    if text.split()[:1] == [metric["name"]]
                ]
                assert printed and printed[0].split()[-1] == metric["unit"]
        for metric in SPEC["end_to_end"]:
            assert result["e2e"][metric["name"]]["value"] > 0, (name, metric["name"])


def test_attribution_shares_sum_to_one(smoke):
    _, payload = smoke
    for name, result in payload["workloads"].items():
        shares = [
            data["value"]
            for metric, data in result["per_layer"].items()
            if metric.endswith(".self_share")
        ]
        assert len(shares) == len(worker.LAYERS) + 1
        assert sum(shares) == pytest.approx(1.0, abs=0.01), name


def test_single_workload_prints_the_contract_line():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", "dear-resnet50-tcp8",
             "--seed", "1", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in SPEC[section]]


def test_forced_fingerprint_mismatch_fails_the_run(monkeypatch):
    calls = iter(range(1_000_000))
    monkeypatch.setattr(workloads, "fingerprint", lambda *args: f"run-{next(calls)}")
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = worker.main(
            ["--workload", "dear-resnet50-tcp8", "--seed", "0", "--smoke", "--trace", "1"]
        )
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["diagnostics"]["failed_frac"]["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ps-vgg16-tcp8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # 10/10 wins, gap far above the parent's IQR.
        ([10.0 + 0.1 * i for i in range(10)], [9.0 + 0.1 * i for i in range(10)],
         "lower", "improved"),
        ([100.0 + i for i in range(10)], [120.0 + i for i in range(10)],
         "higher", "improved"),
        # 8/10 wins is not enough for a gain, and the loss is in bounds.
        ([10.0 + 0.01 * i for i in range(10)],
         [9.99 + 0.01 * i for i in range(8)] + [10.5, 10.6],
         "lower", "unchanged"),
        # Worse by 20% with a tight parent: beyond the 10% bound.
        ([10.0 + 0.01 * i for i in range(10)], [12.0 + 0.01 * i for i in range(10)],
         "lower", "regressed"),
        # Parent spread (about 40%) wider than the bound.
        ([8.0, 12.0, 9.0, 11.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0],
         [10.5, 12.5, 9.5, 11.5, 10.5, 8.5, 12.5, 9.5, 11.5, 10.5],
         "lower", "unresolved"),
        # Wide parent spread, but every change run beats every parent run.
        ([8.0, 12.0, 9.0, 11.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0],
         [7.9, 7.5, 7.0, 7.8, 7.7, 7.6, 7.9, 7.1, 7.2, 7.3],
         "lower", "unchanged"),
        # One pair: no spread to judge either a gain or a regression by.
        ([10.0], [20.0], "lower", "unresolved"),
        ([10.0], [5.0], "lower", "unchanged"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, bound=0.10)[0] == expected


def test_compare_reads_result_files(tmp_path):
    def write(path, values):
        workloads_out = {
            name: {"e2e": {m["name"]: {"value": values, "unit": m["unit"]}
                           for m in SPEC["end_to_end"]}}
            for name in workloads.WORKLOADS
        }
        path.write_text(json.dumps({"workloads": workloads_out}))
        return path

    parents = [write(tmp_path / f"p{i}.json", 10.0 + 0.01 * i) for i in range(10)]
    changes = [write(tmp_path / f"c{i}.json", 10.0 + 0.01 * i) for i in range(10)]
    rows = compare.compare(parents, changes, SPEC)
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert {row["verdict"] for row in rows} == {"unchanged"}
