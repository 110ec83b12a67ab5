"""The e2e work-count ratchet (``benchmarks/check_counts.py``)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "benchmarks" / "check_counts.py"


def _smoke(counts, python="3.11.7", seed=0):
    return {
        "smoke": True,
        "seed": seed,
        "python": python,
        "workloads": {
            workload: {
                "per_layer": {
                    name: {"value": value, "unit": "count"} for name, value in values.items()
                }
            }
            for workload, values in counts.items()
        },
    }


def _check(tmp_path, smoke):
    baseline = {
        "trajectory": [
            {"python": "3.11", "counts": {"w": {"sim.events": 5.0, "net.calls": 9.0}}},
            {"python": "3.11", "counts": {"w": {"sim.events": 4.0, "net.calls": 7.0}}},
        ]
    }
    (tmp_path / "base.json").write_text(json.dumps(baseline))
    (tmp_path / "smoke.json").write_text(json.dumps(smoke))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "smoke.json"),
         "--baseline", str(tmp_path / "base.json")],
        capture_output=True, text=True,
    )
    return done.returncode, done.stdout + done.stderr


def test_counts_at_the_last_entry_pass(tmp_path):
    code, out = _check(tmp_path, _smoke({"w": {"sim.events": 4.0, "net.calls": 7.0}}))
    assert code == 0
    assert "2 counts checked against base.json: 0 above the baseline" in out


def test_a_fallen_count_passes_and_is_reported(tmp_path):
    code, out = _check(tmp_path, _smoke({"w": {"sim.events": 3.0, "net.calls": 7.0}}))
    assert code == 0
    assert "lower w sim.events: 3 < baseline 4" in out


@pytest.mark.parametrize(
    "counts, line",
    [
        ({"sim.events": 4.0, "net.calls": 8.0}, "FAIL w net.calls: 8 > baseline 7"),
        ({"sim.events": 4.0}, "FAIL w net.calls: missing from the smoke result"),
    ],
)
def test_a_risen_or_missing_count_fails_and_is_named(tmp_path, counts, line):
    code, out = _check(tmp_path, _smoke({"w": counts}))
    assert code == 1
    assert line in out


@pytest.mark.parametrize("smoke", [{"python": "3.12.1"}, {"seed": 3}])
def test_a_result_from_another_setup_is_refused(tmp_path, smoke):
    code, out = _check(
        tmp_path, _smoke({"w": {"sim.events": 4.0, "net.calls": 7.0}}, **smoke)
    )
    assert code == 2
    assert out.startswith("check_counts: ")
