"""Drift clauses: grammar, sampling determinism, and injector landing.

The ``drift:`` clause family describes continuous time-varying
processes (diurnal bandwidth curves, ramps, random-walk stragglers,
background tenant traffic) that the sampler discretises into the same
piecewise-constant windows the injector already applies.  These tests
pin the grammar (parse + to_spec round-trip, typed errors), the
sampler's purity and bounds, and composition with static link faults —
including the factor-0 invariant that keeps busy-time accounting
identical on both transmit paths.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, FaultPlanError
from repro.faults import FaultPlan, compose_windows, sample_drift_windows
from repro.faults.plan import (
    DEFAULT_WALK_CAP,
    DRIFT_RESOLUTION,
    MAX_DRIFT_STEPS,
    DriftFault,
)
from repro.net import Link, Message, Transport
from repro.sim import Environment
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob
from repro.training.runner import resolve_model


def make_job(arch="ps", fault_plan=None, **cluster_kwargs):
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=1, arch=arch, **cluster_kwargs
    )
    return TrainingJob(
        resolve_model("resnet50"),
        cluster,
        SchedulerSpec(kind="bytescheduler", partition_bytes=8e6, credit_bytes=32e6),
        fault_plan=fault_plan,
    )


# -- grammar ---------------------------------------------------------------


def test_diurnal_clause_parses():
    plan = FaultPlan.parse("drift:diurnal:s0.both@0-24~32x0.15")
    assert plan.drift == (
        DriftFault("diurnal", "s0", "both", 0.0, 24.0, 32.0, 0.15),
    )


def test_ramp_clause_parses():
    plan = FaultPlan.parse("drift:ramp:w1.up@2-10x0.9-0.3")
    assert plan.drift == (
        DriftFault("ramp", "w1", "up", 2.0, 10.0, 0.0, 0.9, 0.3),
    )


def test_compute_walk_clause_parses():
    # A bare worker target is a compute-multiplier walk.
    plan = FaultPlan.parse("drift:walk:w3@3-24~7x0.6-4")
    assert plan.drift == (
        DriftFault("walk", "w3", "", 3.0, 24.0, 7.0, 0.6, 4.0),
    )


def test_link_walk_clause_parses():
    # A <node>.<dir> target walks the link's bandwidth instead.
    plan = FaultPlan.parse("drift:walk:s0.up@0-12~3x0.5-8")
    assert plan.drift == (
        DriftFault("walk", "s0", "up", 0.0, 12.0, 3.0, 0.5, 8.0),
    )


def test_walk_cap_defaults_when_omitted():
    plan = FaultPlan.parse("drift:walk:w0@0-10~2x0.4")
    assert plan.drift[0].level2 == DEFAULT_WALK_CAP


def test_background_clause_parses():
    plan = FaultPlan.parse("drift:background:s0.both@3-24~7x2.5")
    assert plan.drift == (
        DriftFault("background", "s0", "both", 3.0, 24.0, 7.0, 2.5),
    )


def test_drift_composes_with_other_clause_kinds():
    plan = FaultPlan.parse(
        "slowlink:s0.up@0-1x0.5;drift:diurnal:s0.both@0-24~8x0.3;"
        "straggler:w0@0-1x2;seed:7"
    )
    assert len(plan.drift) == 1
    assert len(plan.link_faults) == 1
    assert plan.seed == 7


@pytest.mark.parametrize(
    "clause",
    [
        "drift:sinusoid:s0.up@0-10~5x0.5",  # unknown drift kind
        "drift:diurnal:s0.sideways@0-10~5x0.5",  # bad direction
        "drift:diurnal:s0.up@0-10x0.5",  # diurnal needs ~<period>
        "drift:diurnal:s0.up@0-10~5x0.5-0.7",  # single x<floor> only
        "drift:diurnal:s0.up@0-10~5x0",  # floor out of (0, 1]
        "drift:diurnal:s0.up@0-10~5x1.5",
        "drift:ramp:s0.up@0-10~5x0.9-0.3",  # ramp takes no period
        "drift:ramp:s0.up@0-10x0.9",  # ramp needs x<from>-<to>
        "drift:ramp:s0.up@0-10x0.9-1.5",  # factors in (0, 1]
        "drift:walk:w0@0-10~2x0",  # sigma must be > 0
        "drift:walk:w0@0-10~2x0.5-0.5",  # cap must be >= 1
        "drift:walk:w0@0-10x0.5",  # walk needs ~<tick>
        "drift:background:s0.up@0-10~2x0",  # load must be > 0
        "drift:background:s0.up@0-10~2x2-3",  # single x<load> only
        "drift:diurnal:s0.up@5-2~5x0.5",  # start must precede end
        "drift:diurnal:s0.up@0-inf~5x0.5",  # window must be finite
        "drift:diurnal:s0.up@0-10~0x0.5",  # period must be > 0
        "drift:walk:s0.up@0-10000~0.001x0.5",  # step-count cap
        "drift:diurnal:s0.up",  # no window at all
        "drift:diurnal:s0.upx0.5",
    ],
)
def test_malformed_drift_clauses_raise_typed_errors(clause):
    with pytest.raises(FaultPlanError) as excinfo:
        FaultPlan.parse(clause)
    # The typed error names the clause and its 1-based position.
    assert excinfo.value.clause == clause
    assert excinfo.value.position == 1
    assert isinstance(excinfo.value, ConfigError)


def test_error_position_counts_clauses():
    with pytest.raises(FaultPlanError) as excinfo:
        FaultPlan.parse("seed:3;slowlink:s0.up@0-1x0.5;drift:nope:s0.up@0-1x1")
    assert excinfo.value.position == 3


def test_drift_clauses_round_trip_through_the_grammar():
    spec = (
        "drift:diurnal:s0.both@0-24~32x0.15;"
        "drift:ramp:w1.up@2-10x0.9-0.3;"
        "drift:walk:w3@3-24~7x0.6-4;"
        "drift:walk:s0.up@0-12~3x0.5-8;"
        "drift:background:s0.both@3-24~7x2.5;"
        "seed:11"
    )
    plan = FaultPlan.parse(spec)
    assert FaultPlan.parse(plan.to_spec()) == plan
    assert plan.to_spec() == spec


def test_whole_cycle_window_is_not_given_an_extra_step():
    # 18.1 - 11.7 is 6.400000000000002 in binary floats: 64 cycles of
    # 0.1 must still sample exactly the 4096-step cap, not 4097.
    fault = DriftFault("diurnal", "w0", "up", 11.7, 18.1, period=0.1, level=0.1)
    assert fault.steps == MAX_DRIFT_STEPS
    plan = FaultPlan(drift=(fault,), seed=0)
    assert FaultPlan.parse(plan.to_spec()) == plan


# Short decimals, as people write them; the every-family property in
# ``test_plan.py`` draws non-round values.
tenths = st.integers(min_value=0, max_value=400).map(lambda n: n / 10)
small = st.integers(min_value=1, max_value=10).map(lambda n: n / 10)


@given(
    kind=st.sampled_from(["diurnal", "ramp", "walk", "background"]),
    node=st.sampled_from(["w0", "w1", "s0"]),
    direction=st.sampled_from(["up", "down", "loop", "both", ""]),
    start_n=st.integers(min_value=0, max_value=400),
    span_n=st.integers(min_value=1, max_value=200),
    period_n=st.integers(min_value=1, max_value=100),
    level=small,
    level2=st.integers(min_value=10, max_value=80).map(lambda n: n / 10),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=150, deadline=None)
def test_any_valid_drift_plan_round_trips(
    kind, node, direction, start_n, span_n, period_n, level, level2, seed
):
    if kind == "walk" and not direction:
        pass  # compute walk: bare worker target
    elif not direction:
        direction = "both"
    if kind == "diurnal":
        # Keep under the step cap: 64 stairs per cycle.
        assume(span_n / period_n * DRIFT_RESOLUTION <= MAX_DRIFT_STEPS)
    fault = DriftFault(
        kind,
        node,
        direction,
        start_n / 10,
        (start_n + span_n) / 10,
        period=0.0 if kind == "ramp" else period_n / 10,
        level=level,
        level2={"ramp": level, "walk": level2}.get(kind, 0.0),
    )
    plan = FaultPlan(drift=(fault,), seed=seed)
    assert FaultPlan.parse(plan.to_spec()) == plan


# -- sampling --------------------------------------------------------------


def test_sampling_is_a_pure_function_of_fault_and_seed():
    fault = DriftFault("walk", "w0", "", 0.0, 20.0, 1.0, 0.6, 4.0)
    assert sample_drift_windows(fault, 3) == sample_drift_windows(fault, 3)
    assert sample_drift_windows(fault, 3) != sample_drift_windows(fault, 4)


def test_clauses_in_one_plan_walk_independently():
    # The per-clause CRC salt decorrelates two otherwise-identical
    # clauses on different targets.
    a = DriftFault("walk", "w0", "", 0.0, 20.0, 1.0, 0.6, 4.0)
    b = DriftFault("walk", "w1", "", 0.0, 20.0, 1.0, 0.6, 4.0)
    assert sample_drift_windows(a, 0) != sample_drift_windows(b, 0)


def test_diurnal_samples_bounded_by_floor_and_one():
    fault = DriftFault("diurnal", "s0", "both", 0.0, 24.0, 8.0, 0.3)
    windows = sample_drift_windows(fault, 0)
    factors = [factor for _, _, factor in windows]
    assert all(0.3 <= factor <= 1.0 for factor in factors)
    assert min(factors) < 0.35  # the curve actually reaches the floor


def test_diurnal_resolution_tracks_cycle_count():
    one_cycle = DriftFault("diurnal", "s0", "up", 0.0, 8.0, 8.0, 0.5)
    three_cycles = DriftFault("diurnal", "s0", "up", 0.0, 24.0, 8.0, 0.5)
    assert one_cycle.steps == DRIFT_RESOLUTION
    assert three_cycles.steps == 3 * DRIFT_RESOLUTION
    assert three_cycles.steps <= MAX_DRIFT_STEPS


def test_ramp_moves_linearly_between_endpoints():
    fault = DriftFault("ramp", "s0", "up", 0.0, 10.0, 0.0, 0.9, 0.3)
    windows = sample_drift_windows(fault, 0)
    factors = [factor for _, _, factor in windows]
    assert factors == sorted(factors, reverse=True)
    assert factors[0] == pytest.approx(0.9, abs=0.05)
    assert factors[-1] == pytest.approx(0.3, abs=0.05)


def test_compute_walk_multipliers_stay_in_one_to_cap():
    fault = DriftFault("walk", "w0", "", 0.0, 100.0, 1.0, 0.8, 4.0)
    for _, _, multiplier in sample_drift_windows(fault, 5):
        assert 1.0 <= multiplier <= 4.0


def test_link_walk_is_the_reciprocal_walk():
    compute = DriftFault("walk", "s0", "", 0.0, 50.0, 1.0, 0.8, 4.0)
    # Same node text; the clause differs, so re-derive by bounds only.
    link = DriftFault("walk", "s0", "up", 0.0, 50.0, 1.0, 0.8, 4.0)
    for _, _, factor in sample_drift_windows(link, 5):
        assert 0.25 <= factor <= 1.0
    assert compute != link


def test_background_share_is_a_proper_fraction():
    fault = DriftFault("background", "s0", "both", 0.0, 100.0, 2.0, 2.5)
    for _, _, factor in sample_drift_windows(fault, 9):
        assert 0.0 < factor <= 1.0


def test_sampled_windows_are_sorted_disjoint_and_cover_the_span():
    fault = DriftFault("diurnal", "s0", "both", 2.0, 26.0, 8.0, 0.4)
    windows = sample_drift_windows(fault, 0)
    assert windows[0][0] == pytest.approx(2.0)
    assert windows[-1][1] == pytest.approx(26.0)
    for (_, end, _), (start, _, _) in zip(windows, windows[1:]):
        assert start == pytest.approx(end)  # coalesced, gap-free


# -- composition with static faults (S2) -----------------------------------


def test_compose_multiplies_on_overlap_and_preserves_blackouts():
    drift = ((0.0, 4.0, 0.5),)
    static = ((1.0, 2.0, 0.5), (3.0, 5.0, 0.0))
    composed = compose_windows(static, drift)
    assert composed == (
        (0.0, 1.0, 0.5),
        (1.0, 2.0, 0.25),
        (2.0, 3.0, 0.5),
        (3.0, 5.0, 0.0),  # 0 x f = 0: the blackout survives the drift
    )


def test_drift_composes_with_slowlink_on_the_fabric_link():
    job = make_job(
        fault_plan=FaultPlan.parse(
            "slowlink:s0.up@0-1x0.5;drift:ramp:s0.up@0-1x0.8-0.4"
        )
    )
    windows = job.fabric.nic("s0").uplink._fault_windows
    assert len(windows) == DRIFT_RESOLUTION
    for _, _, factor in windows:
        assert factor < 0.5  # every step carries both factors
    assert job.fabric.nic("s0").downlink._fault_windows == ()


def test_compute_walk_lands_on_the_workers_engine():
    job = make_job(
        fault_plan=FaultPlan.parse("drift:walk:w1@0-10~1x0.9-4;seed:3")
    )
    assert job.engines["w0"].compute_scale is None
    scale = job.engines["w1"].compute_scale
    assert scale is not None
    plan = FaultPlan.parse("drift:walk:w1@0-10~1x0.9-4;seed:3")
    for start, end, multiplier in plan.drift_walk_windows("w1"):
        mid = (start + end) / 2
        assert scale(mid, 1.0) == pytest.approx(multiplier)
    assert scale(10.5, 1.0) == pytest.approx(1.0)  # after the window


def test_walk_chains_on_top_of_a_static_straggler():
    spec = "straggler:w0@0-10x2;drift:walk:w0@0-10~1x0.9-4;seed:3"
    job = make_job(fault_plan=FaultPlan.parse(spec))
    plan = FaultPlan.parse(spec)
    start, end, multiplier = plan.drift_walk_windows("w0")[0]
    mid = (start + end) / 2
    assert job.engines["w0"].compute_scale(mid, 1.0) == pytest.approx(
        2.0 * multiplier
    )


def test_link_drift_lands_on_the_allreduce_pipe():
    job = make_job(
        arch="allreduce",
        fault_plan=FaultPlan.parse("drift:diurnal:m0.both@0-10~5x0.5"),
    )
    assert len(job.backend._fault_windows) > 1
    job = make_job(
        arch="allreduce",
        fault_plan=FaultPlan.parse("drift:walk:m0@0-10~1x0.5-4"),
    )
    # A compute walk never degrades the collective pipe.
    assert job.backend._fault_windows == ()
    assert job.engines["m0"].compute_scale is not None


def test_unknown_drift_targets_rejected():
    with pytest.raises(ConfigError, match="unknown worker"):
        make_job(fault_plan=FaultPlan.parse("drift:walk:w9@0-1~1x0.5"))
    with pytest.raises(ConfigError, match="unknown node"):
        make_job(fault_plan=FaultPlan.parse("drift:diurnal:nope.up@0-1~1x0.5"))
    with pytest.raises(ConfigError, match="unknown node"):
        make_job(
            arch="allreduce",
            fault_plan=FaultPlan.parse("drift:diurnal:s0.up@0-1~1x0.5"),
        )


def test_blackout_under_drift_busy_time_agrees_between_paths():
    # The factor-0 invariant, end to end: a static blackout composed
    # with a drift curve must charge identical busy time on the plain
    # and cut-through transmit paths — stalls are idle on both, and the
    # drift factors stretch serialisation identically.
    plan = FaultPlan.parse(
        "blackout:n0.up@0.5-1.5;drift:diurnal:n0.up@0-30~10x0.4"
    )
    windows = plan.drift_link_windows("n0", "up")
    windows = compose_windows(plan.link_windows("n0", "up"), windows)
    assert any(factor == 0.0 for _, _, factor in windows)

    bandwidth = 100.0
    sizes = [80.0, 120.0, 60.0, 200.0]
    env_plain, env_cut = Environment(), Environment()
    plain = Link(env_plain, "n0.up", bandwidth, Transport("t", 0.0, 1.0))
    cut = Link(env_cut, "n0.up", bandwidth, Transport("t", 0.0, 1.0))
    plain.set_fault_windows(windows)
    cut.set_fault_windows(windows)
    for size in sizes:
        plain.transmit(Message("a", "b", size), callback=lambda _msg: None)
        cut.transmit_cut_through(
            Message("a", "b", size), available_at=0.0, callback=lambda _msg: None
        )
    assert plain.busy_time == pytest.approx(cut.busy_time)
    assert plain.busy_until == pytest.approx(cut.busy_until)
    # Busy time excludes the blackout stall but includes drift stretch.
    healthy = sum(size / bandwidth for size in sizes)
    assert plain.busy_time >= healthy - 1e-9
    assert plain.busy_time <= plain.busy_until - env_plain.now + 1e-9
