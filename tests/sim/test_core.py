"""Unit tests for the discrete-event kernel (Environment/Event/Timeout)."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=12.5)
    assert env.now == 12.5


def test_timeout_advances_clock():
    env = Environment()
    seen = []
    env.timeout(3.0).callbacks.append(lambda _evt: seen.append(env.now))
    env.run()
    assert seen == [3.0]
    assert env.now == 3.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_nan_timeout_rejected():
    # A NaN at the heap head would end run() at once and drop every
    # later event.
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(math.nan)


def test_infinite_delay_parks_forever():
    env = Environment()
    fired = []
    env.timeout(math.inf).callbacks.append(lambda _evt: fired.append("inf"))
    env.timeout(1.0).callbacks.append(lambda _evt: fired.append("finite"))
    env.run(until=10.0)
    assert fired == ["finite"]
    assert env.now == 10.0


def test_timeout_carries_value():
    env = Environment()
    got = []
    env.timeout(1.0, value="payload").callbacks.append(lambda evt: got.append(evt.value))
    env.run()
    assert got == ["payload"]


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    delays = [1.0, 2.0, 0.5]

    def step(_event):
        times.append(env.now)
        if delays:
            env.timeout(delays.pop(0)).callbacks.append(step)

    env.timeout(delays.pop(0)).callbacks.append(step)
    env.run()
    assert times == [1.0, 3.0, 3.5]


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    for tag in ("a", "b", "c"):
        env.timeout(1.0).callbacks.append(lambda _evt, tag=tag: order.append(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    gate.callbacks.append(lambda evt: log.append((env.now, evt.value)))
    env.defer(gate.succeed, "open", 5.0)
    env.run()
    assert log == [(5.0, "open")]


def test_succeed_inline_runs_callbacks_in_the_current_entry():
    env = Environment()
    gate = env.event()
    log = []
    gate.callbacks.append(lambda event: log.append(("callback", env.now, event.value)))

    def opener(_arg):
        eid = env._eid
        gate.succeed_inline("open")
        # The callbacks ran before succeed_inline returned, and it
        # consumed no sequence number.
        log.append(("opener", env._eid - eid))

    env.defer(opener, None, 5.0)
    env.run()
    assert log == [("callback", 5.0, "open"), ("opener", 0)]
    assert gate.processed and gate.value == "open"
    with pytest.raises(SimulationError):
        gate.succeed_inline("again")


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(evt):
        evt.defused = True  # handled here, so run() must not raise it
        caught.append(str(evt.value))

    gate.callbacks.append(waiter)
    gate.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_surfaces():
    env = Environment()
    gate = env.event()
    gate.fail(RuntimeError("nobody catches this"))
    with pytest.raises(RuntimeError, match="nobody catches this"):
        env.run()


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_run_until_stops_clock():
    env = Environment()

    env.timeout(100.0)
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_run_until_nan_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.run(until=math.nan)
    assert env.now == 0.0


def test_step_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_event_ok_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().ok


def test_defer_runs_callback_in_order():
    env = Environment()
    log = []

    env.defer(log.append, "deferred")
    env.timeout(0.0).callbacks.append(lambda _evt: log.append("event"))
    env.defer(log.append, "deferred-after")
    env.run()
    assert log == ["deferred", "event", "deferred-after"]


def test_defer_with_delay_and_priority():
    env = Environment()
    log = []

    env.defer(lambda _: log.append(("late", env.now)), delay=2.0)
    env.defer(lambda _: log.append(("early", env.now)), delay=1.0)
    env.run()
    assert log == [("early", 1.0), ("late", 2.0)]


def test_defer_nan_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.defer(lambda _: None, delay=math.nan)


def test_defer_at_stores_the_time_verbatim():
    # ``now + (end - now)`` rounds one ulp below ``end`` here; an
    # absolute-time entry must still fire with ``now == end`` exactly.
    env = Environment()
    now, end = 0.13, 1.26
    assert now + (end - now) < end
    env.run(until=now)
    seen = []
    env.defer_at(lambda _arg: seen.append(env.now), None, end)
    env.run()
    assert seen == [end]


def test_defer_at_takes_one_sequence_number_in_order():
    env = Environment()
    log = []
    env.defer(log.append, "a", 1.0)
    env.defer_at(log.append, "b", 1.0)
    env.timeout(1.0).callbacks.append(lambda _evt: log.append("c"))
    eid = env._eid
    env.run()
    assert log == ["a", "b", "c"]
    assert eid == 3


@pytest.mark.parametrize("when", [math.nan, 0.5])
def test_defer_at_rejects_nan_and_past_times(when):
    env = Environment(initial_time=1.0)
    with pytest.raises(SimulationError):
        env.defer_at(lambda _arg: None, None, when)
    assert not env._pending()
