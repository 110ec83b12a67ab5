"""Integrity clauses in the fault-plan grammar, and the typed parse
error the grammar guarantees (the spec round-trip of every clause
family is one property in ``test_plan.py``)."""

import math

import pytest

from repro.errors import ConfigError, FaultPlanError
from repro.faults import FaultPlan, IntegrityFault


def test_parse_integrity_clauses():
    plan = FaultPlan.parse(
        "corrupt:s0.down@0-0.5%0.02;dup:w1.up@0.1-0.3%0.05;"
        "reorder:s1.loop@0-inf%0.01;seed:9"
    )
    assert plan.integrity == (
        IntegrityFault("corrupt", "s0", "down", 0.0, 0.5, 0.02),
        IntegrityFault("dup", "w1", "up", 0.1, 0.3, 0.05),
        IntegrityFault("reorder", "s1", "loop", 0.0, math.inf, 0.01),
    )
    assert plan.seed == 9
    assert not plan.empty


def test_integrity_windows_filter_by_kind_node_direction():
    plan = FaultPlan.parse(
        "corrupt:s0.down@0-0.5%0.02;corrupt:s0.up@0.6-0.7%0.1;"
        "dup:s0.both@0-1%0.05"
    )
    assert plan.integrity_windows("s0", "down", "corrupt") == ((0.0, 0.5, 0.02),)
    assert plan.integrity_windows("s0", "up", "corrupt") == ((0.6, 0.7, 0.1),)
    # 'both' covers either direction.
    assert plan.integrity_windows("s0", "up", "dup") == ((0.0, 1.0, 0.05),)
    assert plan.integrity_windows("s0", "down", "dup") == ((0.0, 1.0, 0.05),)
    assert plan.integrity_windows("w9", "up", "corrupt") == ()


def test_integrity_fault_validation():
    with pytest.raises(ConfigError):
        IntegrityFault("smudge", "s0", "down", 0.0, 1.0, 0.1)
    with pytest.raises(ConfigError):
        IntegrityFault("corrupt", "s0", "sideways", 0.0, 1.0, 0.1)
    with pytest.raises(ConfigError):
        IntegrityFault("corrupt", "s0", "down", 0.0, 1.0, 1.0)  # rate < 1
    with pytest.raises(ConfigError):
        IntegrityFault("corrupt", "s0", "down", 1.0, 0.5, 0.1)  # end < start


@pytest.mark.parametrize(
    "spec",
    [
        "corrupt:s0@0-1%0.1",          # missing .direction
        "corrupt:s0.down@0-1",         # missing %<rate>
        "dup:s0.down@0,1%0.1",         # comma instead of dash
        "reorder:s0.down@0-1%2",       # rate out of range
    ],
)
def test_parse_rejects_malformed_integrity_clauses(spec):
    with pytest.raises(ConfigError):
        FaultPlan.parse(spec)


def test_parse_error_names_clause_and_position():
    with pytest.raises(FaultPlanError) as excinfo:
        FaultPlan.parse("crash:s0@0.2;warp:w0@0-1x2;seed:3")
    error = excinfo.value
    assert error.position == 2
    assert error.clause == "warp:w0@0-1x2"
    assert "clause 2" in str(error) and "warp" in str(error)
    # Still a ConfigError, so pre-existing handlers keep working.
    assert isinstance(error, ConfigError)


def test_describe_mentions_integrity_faults():
    plan = FaultPlan.parse("corrupt:s0.down@0-0.5%0.02;seed:3")
    text = plan.describe()
    assert "corrupt s0.down" in text and "p=0.02" in text and "seed 3" in text
