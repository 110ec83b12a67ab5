"""Unit tests for the declarative fault plan and its CLI grammar."""

import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, FaultPlanError
from repro.faults import (
    CrashFault,
    DriftFault,
    FaultPlan,
    IntegrityFault,
    LinkFault,
    ScaleEvent,
    StragglerFault,
    TransportFault,
    degraded_finish,
    merge_windows,
)
from repro.faults.plan import _FAMILIES


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


# -- one table of clause families -------------------------------------------

#: Every clause family in one plan.  ``describe()`` recorded before the
#: families became one table; it must not move.
EVERY_FAMILY = (
    "straggler:w0@0-0.5x3;slowlink:w1.up@0.1-0.3x0.25;blackout:w1.down@0.4-0.5;"
    "crash:s0@0.4+0.2;corrupt:s0.down@0-0.5%0.02;dup:w1.up@0-0.5%0.02;"
    "reorder:s1.down@0-0.5%0.02;join:w3@0.3;leave:w2@0.6;"
    "drift:diurnal:w0.up@0-2~1x0.5;drift:ramp:w1.down@0-1x1-0.4;"
    "drift:walk:w0@0-1~0.1x0.2-4;drift:background:s0.up@0-1~0.1x0.3;"
    "loss:0.02@0.001;delay:0.1@0.002;seed:7"
)
EVERY_FAMILY_DESCRIBED = (
    "straggler w0 x3 [0, 0.5); link w1.up x0.25 [0.1, 0.3); "
    "link w1.down blackout [0.4, 0.5); crash s0 @0.4 (restart +0.2); "
    "corrupt s0.down p=0.02 [0, 0.5); dup w1.up p=0.02 [0, 0.5); "
    "reorder s1.down p=0.02 [0, 0.5); join w3 @0.3; leave w2 @0.6; "
    "drift diurnal w0.up [0, 2); drift ramp w1.down [0, 1); drift walk w0 [0, 1); "
    "drift background s0.up [0, 1); loss p=0.02; delay p=0.1 +0.002s (seed 7)"
)


def test_describe_of_every_family_is_pinned():
    plan = FaultPlan.parse(EVERY_FAMILY)
    assert plan.describe() == EVERY_FAMILY_DESCRIBED
    assert plan.to_spec() == EVERY_FAMILY


def _floats(low, high, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **kwargs)


# Non-round finite floats, from below 1e-4 to at or above 1e6.
_times = st.one_of(_floats(0.0, 10.0), _floats(1e-9, 1e-4), _floats(1e6, 1e12))
_lengths = st.one_of(_floats(1e-3, 10.0), _floats(1e-9, 1e-4), _floats(1e6, 1e9))
_fractions = st.one_of(_floats(1e-4, 1.0), _floats(1e-9, 1e-4))  # (0, 1]
_open_fractions = _floats(1e-9, 1.0, exclude_max=True)  # (0, 1)
_multipliers = st.one_of(_floats(1.0, 10.0), _floats(1e6, 1e12))  # [1, inf)
_directions = st.sampled_from(["up", "down", "loop", "both"])


@st.composite
def _window(draw, open_end=True):
    start = draw(_times)
    end = math.inf if open_end and draw(st.booleans()) else start + draw(_lengths)
    assume(start < end)
    return start, end


@st.composite
def _straggler(draw):
    return StragglerFault(
        draw(st.sampled_from(["w0", "w1"])), *draw(_window()), draw(_multipliers)
    )


@st.composite
def _link(draw):
    factor = draw(st.one_of(st.just(0.0), _fractions))  # 0 is a blackout
    return LinkFault(
        draw(st.sampled_from(["w0", "w1", "s0", "s1"])),
        draw(_directions),
        *draw(_window(open_end=factor > 0)),
        factor,
    )


_crash = st.builds(
    CrashFault,
    node=st.sampled_from(["s0", "s1", "m0"]),
    time=_times,
    restart_delay=st.one_of(st.none(), _lengths),
)


@st.composite
def _integrity(draw):
    return IntegrityFault(
        draw(st.sampled_from(["corrupt", "dup", "reorder"])),
        draw(st.sampled_from(["w0", "w1", "s0", "s1"])),
        draw(_directions),
        *draw(_window()),
        draw(_open_fractions),
    )


_scale = st.builds(
    ScaleEvent,
    kind=st.sampled_from(["join", "leave"]),
    node=st.sampled_from(["w2", "w3", "w4"]),
    time=_times,
)


@st.composite
def _drift(draw):
    kind = draw(st.sampled_from(["diurnal", "ramp", "walk", "background"]))
    direction = draw(st.sampled_from(["up", "down", "loop", "both", ""]))
    if kind != "walk" and not direction:
        direction = "both"
    start = draw(_times)
    period = 0.0 if kind == "ramp" else draw(_lengths)
    cycles = draw(st.integers(1, 8))
    end = start + (draw(_lengths) if kind == "ramp" else period * cycles)
    assume(start < end < math.inf)
    level, level2 = {
        "diurnal": (draw(_fractions), 0.0),
        "ramp": (draw(_fractions), draw(_fractions)),
        "walk": (draw(_floats(1e-9, 10.0)), draw(_multipliers)),
        "background": (draw(st.one_of(_floats(1e-9, 10.0), _floats(1e6, 1e9))), 0.0),
    }[kind]
    try:
        return DriftFault(
            kind, draw(st.sampled_from(["w0", "s0"])), direction, start, end,
            period=period, level=level, level2=level2,
        )
    except ConfigError:  # e.g. more sampled steps than the cap
        assume(False)


@st.composite
def _transport(draw):
    loss = draw(st.one_of(st.just(0.0), _open_fractions))
    delay = draw(st.one_of(st.just(0.0), _open_fractions))
    return TransportFault(
        loss_probability=loss,
        retransmit_penalty=draw(_times) if loss else 500e-6,
        delay_probability=delay,
        delay=draw(_times) if delay else 0.0,
    )


#: One strategy per FaultPlan field a clause family lands in.
FAMILY_DRAWS = {
    "stragglers": st.lists(_straggler(), max_size=2).map(tuple),
    # One static link fault per node: windows on one link must not overlap.
    "link_faults": st.lists(_link(), max_size=3, unique_by=lambda f: f.node).map(tuple),
    "crashes": st.lists(_crash, max_size=2, unique_by=lambda c: c.node).map(tuple),
    "integrity": st.lists(_integrity(), max_size=3).map(tuple),
    "scale_events": st.lists(_scale, max_size=2, unique_by=lambda e: e.node).map(tuple),
    "drift": st.lists(_drift(), max_size=2).map(tuple),
    "transport": _transport(),
    "seed": st.integers(0, 2**31),
}


def test_round_trip_property_draws_every_family():
    assert set(FAMILY_DRAWS) == {family.field for family in _FAMILIES}


@settings(max_examples=200, deadline=None)
@given(fields=st.fixed_dictionaries(FAMILY_DRAWS))
def test_every_family_round_trips_with_non_round_floats(fields):
    """``parse(plan.to_spec()) == plan`` for any grammar-expressible
    plan, with every number written in its shortest exact text."""
    plan = FaultPlan(**fields)
    spec = plan.to_spec()
    assert FaultPlan.parse(spec) == plan
    assert FaultPlan.parse(spec).to_spec() == spec


@pytest.mark.parametrize(
    "spec",
    [
        "straggler:w0@0.1234567-1x2",  # used to round to 6 digits
        "slowlink:w0.up@0-1x0.1234567",
        "loss:0.0123456789",
        "crash:w0@1000000",  # used to emit 1e+06, read as '1e'
        "crash:w0@1e+16+1e-07",
        "straggler:w0@0.00001-1x2",  # used to emit 1e-05-1, read as '1e'
        "drift:ramp:w0.up@0.00001-1x1-0.5",
    ],
)
def test_to_spec_output_parses_back_exactly(spec):
    plan = FaultPlan.parse(spec)
    assert FaultPlan.parse(plan.to_spec()) == plan


@pytest.mark.parametrize("slowdown", ["inf", "nan"])
def test_non_finite_straggler_slowdown_rejected(slowdown):
    with pytest.raises(FaultPlanError) as excinfo:
        FaultPlan.parse(f"seed:1;straggler:w0@0-1x{slowdown}")
    assert excinfo.value.position == 2
    with pytest.raises(ConfigError, match="finite"):
        StragglerFault("w0", 0.0, 1.0, float(slowdown))


@pytest.mark.parametrize(
    "spec",
    [
        "slowlink:w0.up@0-1x0.5;slowlink:w0.up@0.5-2x0.5",
        "slowlink:w0.both@0-1x0.5;blackout:w0.down@0.5-2",
        "blackout:w0.loop@0-1;slowlink:w0.both@0.9-2x0.5",
    ],
)
def test_overlapping_static_link_windows_rejected_at_parse(spec):
    with pytest.raises(FaultPlanError, match="overlapping fault windows"):
        FaultPlan.parse(spec)


def test_adjacent_link_windows_and_overlapping_drift_allowed():
    plan = FaultPlan.parse(
        "slowlink:w0.up@0-1x0.5;slowlink:w0.both@1-2x0.5;blackout:w0.down@0-1;"
        "drift:ramp:w0.up@0-2x1-0.5;drift:diurnal:w0.both@0-2~1x0.5"
    )
    assert len(plan.link_faults) == 3 and len(plan.drift) == 2


# -- hostile inputs ----------------------------------------------------------

#: Valid specs the fuzz below starts from: one clause per family (the
#: pinned every-family plan, split) and the whole plan.
_FUZZ_SEEDS = tuple(EVERY_FAMILY.split(";")) + (EVERY_FAMILY,)
_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:e[-+]?\d+)?")
#: Numbers at the edges of float: subnormal, overflowing, non-finite.
_HOSTILE_NUMBERS = (
    "0", "-0", "1e-9", "81e-320", "5e-324", "1e308", "1e400", "inf", "nan", "9" * 40,
)
_GRAMMAR_CHARS = "0123456789.-+e~x@%:;wsm ubdnlopftrhgi"


@st.composite
def _mutated_spec(draw):
    """A valid spec with a few edits: a number swapped for a hostile
    one, or a character replaced, inserted or deleted."""
    spec = draw(st.sampled_from(_FUZZ_SEEDS))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["number", "replace", "insert", "delete"]))
        if edit == "number":
            numbers = list(_NUMBER.finditer(spec))
            if not numbers:
                continue
            match = draw(st.sampled_from(numbers))
            value = draw(st.sampled_from(_HOSTILE_NUMBERS))
            spec = spec[: match.start()] + value + spec[match.end():]
            continue
        at = draw(st.integers(0, max(0, len(spec) - 1)))
        char = draw(st.sampled_from(_GRAMMAR_CHARS))
        if edit == "replace":
            spec = spec[:at] + char + spec[at + 1:]
        elif edit == "insert":
            spec = spec[:at] + char + spec[at:]
        else:
            spec = spec[:at] + spec[at + 1:]
    return spec


@settings(max_examples=400, deadline=None)
@given(spec=_mutated_spec())
def test_mutated_specs_parse_exactly_or_fail_typed(spec):
    """Any edit of a valid spec either fails with a typed
    configuration error or parses to a plan that round-trips exactly:
    no other exception escapes ``parse``."""
    try:
        plan = FaultPlan.parse(spec)
    except ConfigError:  # FaultPlanError included
        return
    assert FaultPlan.parse(plan.to_spec()) == plan


def test_subnormal_drift_period_is_a_clause_error():
    """``span / period`` overflows to inf for a subnormal period: the
    step-cap check must still name the clause."""
    with pytest.raises(FaultPlanError, match="inf steps") as excinfo:
        FaultPlan.parse("drift:diurnal:s0.both@0-6~81e-320x0.15;seed:3")
    assert excinfo.value.position == 1
