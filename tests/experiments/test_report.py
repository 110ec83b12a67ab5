"""Tests for the ``reproduce`` target table and the reproduction report."""

import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.report import TARGETS, Target, generate_report


def test_sections_cover_every_artefact():
    titles = " ".join(target.title for target in TARGETS.values())
    for token in (
        "Figure 2", "Figure 4", "Figure 9", "Figure 10", "Figure 11",
        "Figure 12", "Figure 13", "Figure 14", "Table 1", "P3", "bounds",
        "Ablations", "extensions", "co-scheduling",
    ):
        assert token in titles, token


def test_generate_report_filtered_section():
    stream = io.StringIO()
    text = generate_report(fast=True, stream=stream, names=["figure2"])
    assert "# ByteScheduler reproduction report" in text
    assert "44.4%" in text
    assert "Figure 14" not in text
    assert "[report] Figure 2" in stream.getvalue()


def test_generate_report_table1_section():
    text = generate_report(fast=True, names=["table1"])
    assert "Table 1: best partition/credit sizes" in text


def test_generate_report_writes_json_index(tmp_path):
    path = tmp_path / "report.json"
    generate_report(fast=True, names=["figure2"], json_out=str(path))
    data = json.loads(path.read_text())
    assert data["generator"] == "repro.experiments.report"
    assert data["fast"] is True
    assert len(data["sections"]) == 1
    section = data["sections"][0]
    assert section["title"].startswith("Figure 2")
    assert section["status"] == "ok"
    assert "44.4%" in section["body"]
    assert data["total_seconds"] >= 0.0


def test_cli_reproduce_choices_are_the_table_keys():
    reproduce = build_parser()._subparsers._group_actions[0].choices["reproduce"]
    (target,) = [action for action in reproduce._actions if action.dest == "target"]
    assert target.choices == [*TARGETS, "all"]


@pytest.fixture
def stub_targets(monkeypatch):
    """Every row's ``run`` replaced by a stub that logs its call."""
    calls = []

    def stub(name):
        def run(fast):
            calls.append((name, fast))
            return f"body of {name}"

        return run

    for name, row in list(TARGETS.items()):
        monkeypatch.setitem(TARGETS, name, Target(row.name, row.title, stub(name)))
    return calls


def test_reproduce_all_runs_every_row_in_table_order(stub_targets, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["reproduce", "all", "--fast", "--json-out", str(path)]) == 0
    assert stub_targets == [(name, True) for name in TARGETS]
    data = json.loads(path.read_text())
    assert [section["title"] for section in data["sections"]] == [
        row.title for row in TARGETS.values()
    ]
    assert {section["status"] for section in data["sections"]} == {"ok"}
    out = capsys.readouterr().out
    assert out.startswith("# ByteScheduler reproduction report")
    assert all(f"## {row.title}" in out for row in TARGETS.values())


def test_reproduce_one_target_runs_only_its_row(stub_targets, tmp_path, capsys):
    report = tmp_path / "report.md"
    assert main(["reproduce", "dear", "--out", str(report)]) == 0
    assert stub_targets == [("dear", False)]
    assert capsys.readouterr().out == "body of dear\n"
    text = report.read_text()
    assert "## DeAR" in text and "body of dear" in text


def test_reproduce_figure2_json_out_writes_a_one_section_index(tmp_path, capsys):
    path = tmp_path / "figure2.json"
    assert main(["reproduce", "figure2", "--json-out", str(path)]) == 0
    out = capsys.readouterr().out
    data = json.loads(path.read_text())
    assert [section["title"] for section in data["sections"]] == [TARGETS["figure2"].title]
    assert data["sections"][0]["status"] == "ok"
    # stdout stays the bare body; the index carries the same body.
    assert out == data["sections"][0]["body"] + "\n"
    assert "44.4%" in out


def test_every_target_is_indexed_in_design_section_4():
    design = (Path(__file__).resolve().parents[2] / "DESIGN.md").read_text()
    match = re.search(r"^## 4\..*?(?=^## 5\.)", design, re.MULTILINE | re.DOTALL)
    assert match is not None
    for name in TARGETS:
        assert f"`{name}`" in match.group(0), name
