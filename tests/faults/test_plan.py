"""Unit tests for the declarative fault plan and its CLI grammar."""

import math

import pytest

from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    LinkFault,
    StragglerFault,
    TransportFault,
    degraded_finish,
    merge_windows,
)


# -- grammar ---------------------------------------------------------------


def test_parse_full_grammar():
    plan = FaultPlan.parse(
        "straggler:w0@0.0-0.5x3;slowlink:w1.up@0.1-0.3x0.25;"
        "blackout:s0.down@0.2-0.25;loss:0.02@0.001;delay:0.1@0.002;seed:7"
    )
    assert plan.stragglers == (StragglerFault("w0", 0.0, 0.5, 3.0),)
    assert plan.link_faults == (
        LinkFault("w1", "up", 0.1, 0.3, 0.25),
        LinkFault("s0", "down", 0.2, 0.25, 0.0),
    )
    assert plan.transport.loss_probability == 0.02
    assert plan.transport.retransmit_penalty == 0.001
    assert plan.transport.delay_probability == 0.1
    assert plan.transport.delay == 0.002
    assert plan.seed == 7
    assert not plan.empty


def test_parse_open_ended_window():
    plan = FaultPlan.parse("straggler:w0@0.0-infx1.5")
    assert plan.stragglers[0].end == math.inf
    plan = FaultPlan.parse("slowlink:w0.up@0.1-x0.5")  # blank end = inf
    assert plan.link_faults[0].end == math.inf


def test_parse_empty_and_whitespace_clauses():
    assert FaultPlan.parse("").empty
    assert FaultPlan.parse(" ; ; ").empty


@pytest.mark.parametrize(
    "spec",
    [
        "nonsense",
        "warp:w0@0-1x2",
        "straggler:w0",
        "straggler:w0@0-1",          # missing x<slowdown>
        "slowlink:w0@0-1x0.5",       # missing .direction
        "blackout:w0.up@0.2-",       # infinite blackout
        "delay:0.1",                 # missing duration
        "straggler:@0-1x2",          # empty target
        "delay:0.5@nan",             # non-finite delay
        "delay:0.5@inf",
        "loss:0.1@nan",              # non-finite retransmit penalty
    ],
)
def test_parse_rejects_malformed_clauses(spec):
    with pytest.raises(ConfigError):
        FaultPlan.parse(spec)


def test_describe_round_trips_the_story():
    plan = FaultPlan.parse("straggler:w0@0-1x2;loss:0.05;seed:3")
    text = plan.describe()
    assert "straggler w0" in text and "loss p=0.05" in text and "seed 3" in text
    assert FaultPlan().describe() == "healthy (no faults)"


def test_with_seed_changes_only_the_seed():
    plan = FaultPlan.parse("loss:0.05;seed:1")
    reseeded = plan.with_seed(9)
    assert reseeded.seed == 9
    assert reseeded.transport == plan.transport
    assert reseeded.link_faults == plan.link_faults


# -- validation ------------------------------------------------------------


def test_link_fault_validation():
    with pytest.raises(ConfigError):
        LinkFault("w0", "sideways", 0.0, 1.0, 0.5)
    with pytest.raises(ConfigError):
        LinkFault("w0", "up", 0.0, 1.0, 1.5)
    with pytest.raises(ConfigError):
        LinkFault("w0", "up", 1.0, 0.5, 0.5)  # end before start
    with pytest.raises(ConfigError):
        LinkFault("w0", "up", 0.0, math.inf, 0.0)  # endless blackout


def test_straggler_validation():
    with pytest.raises(ConfigError):
        StragglerFault("w0", 0.0, 1.0, 0.5)  # speedup, not slowdown
    with pytest.raises(ConfigError):
        StragglerFault("w0", 2.0, 1.0, 2.0)


def test_transport_fault_validation():
    with pytest.raises(ConfigError):
        TransportFault(loss_probability=1.0)  # certain loss disallowed
    with pytest.raises(ConfigError):
        TransportFault(delay_probability=-0.1)
    with pytest.raises(ConfigError):
        TransportFault(retransmit_penalty=-1.0)
    with pytest.raises(ConfigError):
        TransportFault(max_losses=0)
    assert not TransportFault().active
    assert TransportFault(loss_probability=0.1).active
    assert TransportFault(delay_probability=0.1, delay=0.01).active


# -- window arithmetic -----------------------------------------------------


def test_merge_windows_sorts_and_rejects_overlap():
    merged = merge_windows([(0.5, 0.6, 0.1), (0.0, 0.2, 0.5)])
    assert merged == ((0.0, 0.2, 0.5), (0.5, 0.6, 0.1))
    with pytest.raises(ConfigError):
        merge_windows([(0.0, 0.3, 0.5), (0.2, 0.4, 0.1)])


def test_link_windows_filters_by_node_and_direction():
    plan = FaultPlan.parse(
        "slowlink:w0.up@0.0-0.1x0.5;blackout:w0.down@0.0-0.1;"
        "slowlink:w1.both@0.2-0.3x0.25"
    )
    assert plan.link_windows("w0", "up") == ((0.0, 0.1, 0.5),)
    assert plan.link_windows("w0", "down") == ((0.0, 0.1, 0.0),)
    assert plan.link_windows("w1", "up") == ((0.2, 0.3, 0.25),)
    assert plan.link_windows("w1", "down") == ((0.2, 0.3, 0.25),)
    assert plan.link_windows("w9", "up") == ()


def test_degraded_finish_healthy_path():
    assert degraded_finish(1.0, 2.0, ()) == pytest.approx(3.0)
    # Window entirely in the past: no effect.
    assert degraded_finish(1.0, 2.0, ((0.0, 0.5, 0.0),)) == pytest.approx(3.0)
    # Work finishes before the window opens.
    assert degraded_finish(0.0, 1.0, ((2.0, 3.0, 0.0),)) == pytest.approx(1.0)


def test_degraded_finish_half_rate_window():
    # 1s of work starting at 0; [0, 2) runs at half rate -> done at 2.
    assert degraded_finish(0.0, 1.0, ((0.0, 2.0, 0.5),)) == pytest.approx(2.0)
    # Window ends mid-work: 0.5s served in [0,1) at half rate, rest after.
    assert degraded_finish(0.0, 1.0, ((0.0, 1.0, 0.5),)) == pytest.approx(1.5)


def test_degraded_finish_blackout_stalls():
    assert degraded_finish(0.0, 1.0, ((0.0, 5.0, 0.0),)) == pytest.approx(6.0)
    # Start mid-blackout.
    assert degraded_finish(2.0, 1.0, ((0.0, 5.0, 0.0),)) == pytest.approx(6.0)


def test_degraded_finish_chains_multiple_windows():
    windows = ((0.0, 1.0, 0.5), (2.0, 3.0, 0.0))
    # 2s of work: 0.5 done in [0,1), 1.0 done in [1,2), stall to 3, rest.
    assert degraded_finish(0.0, 2.0, windows) == pytest.approx(3.5)


def test_degraded_finish_zero_work():
    assert degraded_finish(1.0, 0.0, ((0.0, 5.0, 0.5),)) == pytest.approx(1.0)


# -- elastic scale events ---------------------------------------------------


def test_scale_clauses_round_trip_through_the_grammar():
    plan = FaultPlan.parse("leave:w1@0.2;join:w1@0.5;join:w4@0.1;seed:7")
    assert FaultPlan.parse(plan.to_spec()) == plan
    kinds = [(e.kind, e.node, e.time) for e in plan.scale_timeline]
    assert kinds == [
        ("join", "w4", 0.1),
        ("leave", "w1", 0.2),
        ("join", "w1", 0.5),
    ]


def test_scale_events_per_node_and_initially_absent():
    plan = FaultPlan.parse("join:w4@0.1;leave:w1@0.2;join:w1@0.5")
    assert [e.kind for e in plan.scale_events_for("w1")] == ["leave", "join"]
    # A node whose first event is a join starts the run absent.
    assert plan.initially_absent == ("w4",)


def test_scale_events_must_alternate_per_node():
    with pytest.raises(ConfigError, match="alternate"):
        FaultPlan.parse("leave:w1@0.1;leave:w1@0.3")
    with pytest.raises(ConfigError, match="alternate"):
        FaultPlan.parse("join:w2@0.1;join:w2@0.3")


def test_scale_event_rejects_bad_time_and_kind():
    from repro.faults import ScaleEvent

    with pytest.raises(ConfigError):
        ScaleEvent(kind="join", node="w1", time=-0.5)
    with pytest.raises(ConfigError):
        ScaleEvent(kind="shrink", node="w1", time=0.5)


def test_crash_and_scale_on_same_node_rejected():
    with pytest.raises(ConfigError):
        FaultPlan.parse("crash:w1@0.1+0.1;leave:w1@0.4")
