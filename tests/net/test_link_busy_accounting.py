"""Property tests: link busy-time accounting under cut-through + faults.

``busy_time`` feeds the busy-fraction metric in link snapshots and run
reports, so it must mean "seconds spent serialising bytes".  The
pre-fix ``transmit_cut_through`` charged ``end - start`` even when
``end`` was pinned by ``available_at`` (a link waiting on slow upstream
bytes), counting idle wait as busy and overstating utilisation — on a
healthy link, busy_time exceeded the sum of service times.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Link, Message, Transport
from repro.sim import Environment

BANDWIDTH = 100.0


def ignore(_message):
    """Completion callback: these tests read only the link's counters."""


def make_link(env, windows=()):
    link = Link(env, "n0.up", BANDWIDTH, Transport("t", 0.0, 1.0))
    if windows:
        link.set_fault_windows(windows)
    return link


sizes = st.lists(
    st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=12
)
offsets = st.lists(
    st.floats(min_value=0.0, max_value=200.0), min_size=12, max_size=12
)


def fault_windows(bounds, factors):
    """Sorted, disjoint (start, end, factor) triples from raw draws."""
    points = sorted(bounds)
    windows = []
    for index in range(0, len(points) - 1, 2):
        start, end = points[index], points[index + 1]
        if end > start:
            windows.append((start, end, factors[index // 2]))
    return tuple(windows)


window_bounds = st.lists(
    st.floats(min_value=0.0, max_value=300.0),
    min_size=4,
    max_size=8,
    unique=True,
)
window_factors = st.lists(
    st.floats(min_value=0.1, max_value=1.0), min_size=4, max_size=4
)


@given(sizes=sizes, offsets=offsets)
@settings(max_examples=100, deadline=None)
def test_healthy_busy_time_is_sum_of_service_times(sizes, offsets):
    # Cut-through never changes how long serialisation takes on a
    # healthy link — only *when* the slot is placed.  The pre-fix
    # accounting failed this whenever available_at pinned the end.
    env = Environment()
    link = make_link(env)
    for size, offset in zip(sizes, offsets):
        link.transmit_cut_through(
            Message("a", "b", size), available_at=offset, callback=ignore
        )
    expected = sum(size / BANDWIDTH for size in sizes)
    assert link.busy_time == pytest.approx(expected)


@given(
    sizes=sizes,
    offsets=offsets,
    bounds=window_bounds,
    factors=window_factors,
    plain=st.lists(st.booleans(), min_size=12, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_busy_time_never_exceeds_wall_coverage(
    sizes, offsets, bounds, factors, plain
):
    # Serialisation slots are disjoint (FIFO), so total busy time is
    # bounded by the wall-clock span the link was occupied — with or
    # without degradation windows, mixing plain and cut-through sends.
    env = Environment()
    link = make_link(env, windows=fault_windows(bounds, factors))
    for size, offset, use_plain in zip(sizes, offsets, plain):
        message = Message("a", "b", size)
        if use_plain:
            link.transmit(message, callback=ignore)
        else:
            link.transmit_cut_through(message, available_at=offset, callback=ignore)
    wall = link.busy_until - env.now
    assert link.busy_time <= wall + 1e-9
    # Degradation can only stretch serialisation, never shrink it.
    minimum = sum(size / BANDWIDTH for size in sizes)
    assert link.busy_time >= minimum - 1e-9


@given(sizes=sizes, offsets=offsets)
@settings(max_examples=50, deadline=None)
def test_cut_through_completion_never_precedes_available_at(sizes, offsets):
    env = Environment()
    link = make_link(env)
    horizon = env.now
    for size, offset in zip(sizes, offsets):
        link.transmit_cut_through(
            Message("a", "b", size), available_at=offset, callback=ignore
        )
        assert link.busy_until >= offset
        assert link.busy_until >= horizon  # FIFO horizon is monotonic
        horizon = link.busy_until


def test_backlogged_link_does_not_charge_idle_tail():
    # Deterministic pin of the fixed behaviour: one message in service
    # until t=1, then a cut-through message whose bytes only finish
    # arriving at t=10.  The link serialises for 2 × 1 s total; the 8 s
    # gap waiting on upstream is idle, not busy (pre-fix charged 10 s).
    env = Environment()
    link = make_link(env)
    link.transmit(Message("a", "b", 100.0), callback=ignore)
    link.transmit_cut_through(
        Message("a", "b", 100.0), available_at=10.0, callback=ignore
    )
    assert link.busy_until == pytest.approx(10.0)
    assert link.busy_time == pytest.approx(2.0)


def test_blackout_window_not_charged_as_busy():
    # Regression pin for the factor-0 inconsistency: a blacked-out link
    # holds the message but moves no bytes.  100 B at 100 B/s starting
    # at t=0 with a [0.5, 1.5] blackout serialises 0.5 s, stalls 1 s,
    # then finishes the last 0.5 s — wall span 2 s, busy 1 s.  The
    # pre-fix transmit() charged the full 2 s while cut-through's
    # accounting disagreed on the same wire history.
    env = Environment()
    link = make_link(env, windows=((0.5, 1.5, 0.0),))
    link.transmit(Message("a", "b", 100.0), callback=ignore)
    assert link.busy_until == pytest.approx(2.0)
    assert link.busy_time == pytest.approx(1.0)


@given(sizes=sizes, bounds=window_bounds)
@settings(max_examples=60, deadline=None)
def test_blackout_busy_time_agrees_between_paths(sizes, bounds):
    # Under factor-0 windows both transmit paths must charge the exact
    # same busy time for the same message sequence: the serialisation
    # slots are identical, and stalls are idle on both.
    windows = fault_windows(bounds, [0.0, 0.0, 0.0, 0.0])
    env_plain = Environment()
    env_cut = Environment()
    plain = make_link(env_plain, windows=windows)
    cut = make_link(env_cut, windows=windows)
    for size in sizes:
        plain.transmit(Message("a", "b", size), callback=ignore)
        cut.transmit_cut_through(
            Message("a", "b", size), available_at=0.0, callback=ignore
        )
    assert plain.busy_time == pytest.approx(cut.busy_time)
    # With factor 0 every non-stalled second moves full-rate bytes, so
    # busy time is exactly the healthy service time.
    assert plain.busy_time == pytest.approx(
        sum(size / BANDWIDTH for size in sizes)
    )
