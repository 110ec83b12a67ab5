"""Unit tests for the discrete-event kernel (Environment/Completion)."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Completion, Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=12.5)
    assert env.now == 12.5


def test_defer_advances_clock():
    env = Environment()
    seen = []
    env.defer(lambda _arg: seen.append(env.now), None, 3.0)
    env.run()
    assert seen == [3.0]
    assert env.now == 3.0


def test_negative_defer_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.defer(lambda _arg: None, None, -1.0)


def test_infinite_delay_parks_forever():
    env = Environment()
    fired = []
    env.defer(fired.append, "inf", math.inf)
    env.defer(fired.append, "finite", 1.0)
    env.run(until=10.0)
    assert fired == ["finite"]
    assert env.now == 10.0


def test_sequential_defers_accumulate():
    env = Environment()
    times = []

    delays = [1.0, 2.0, 0.5]

    def step(_arg):
        times.append(env.now)
        if delays:
            env.defer(step, None, delays.pop(0))

    env.defer(step, None, delays.pop(0))
    env.run()
    assert times == [1.0, 3.0, 3.5]


def test_same_time_entries_fire_fifo():
    env = Environment()
    order = []

    for tag in ("a", "b", "c"):
        env.defer(order.append, tag, 1.0)
    env.run()
    assert order == ["a", "b", "c"]


def test_deferred_raise_surfaces_from_run():
    # How a failure nobody claims reaches the caller (e.g. an aborted
    # PS transfer): the entry raises, and run() propagates it.
    env = Environment()

    def boom(exc):
        raise exc

    env.defer(boom, RuntimeError("nobody catches this"))
    with pytest.raises(RuntimeError, match="nobody catches this"):
        env.run()


# -- Completion -------------------------------------------------------------------


def test_complete_without_listener_issues_no_entry():
    env = Environment()
    done = Completion()
    done.complete(env)
    assert done.done
    assert env._eid == 0 and not env._pending()


def test_listeners_run_in_one_entry_issued_at_completion():
    env = Environment()
    done = Completion()
    log = []
    done.then(lambda completion: log.append(("first", env.now, completion.done)))
    done.then(lambda _completion: log.append(("second", env.now)))

    def completer(_arg):
        env.defer(log.append, "before")
        done.complete(env)
        env.defer(log.append, "after")
        # Added while the completion's entry is pending: runs in it.
        done.then(lambda _completion: log.append(("late", env.now)))

    env.defer(completer, None, 2.0)
    env.run()
    assert log == [
        "before",
        ("first", 2.0, True),
        ("second", 2.0),
        ("late", 2.0),
        "after",
    ]
    assert env._eid == 4


def test_listener_added_after_completion_runs_at_once():
    env = Environment()
    heard = Completion()
    heard.then(lambda _completion: None)
    heard.complete(env)
    env.run()
    unheard = Completion()
    unheard.complete(env)
    log = []
    for completion in (heard, unheard):
        completion.then(log.append)
        assert log[-1] is completion
    assert env._eid == 1 and not env._pending()


def test_fire_runs_listeners_in_the_current_entry():
    env = Environment()
    gate = Completion()
    log = []
    gate.then(lambda _completion: log.append(("listener", env.now)))

    def opener(_arg):
        eid = env._eid
        gate.fire("delivered")
        # The listeners ran before fire returned, and it consumed no
        # sequence number.
        log.append(("opener", env._eid - eid))

    env.defer(opener, None, 5.0)
    env.run()
    assert log == [("listener", 5.0), ("opener", 0)]
    assert gate.done


def test_defer_at_fire_completes_at_the_exact_time():
    env = Environment()
    env.run(until=0.13)
    gate = Completion()
    seen = []
    gate.then(lambda _completion: seen.append(env.now))
    env.defer_at(Completion.fire, gate, 1.26)
    env.run()
    assert seen == [1.26] and gate.done


def test_completion_cannot_complete_twice():
    env = Environment()
    done = Completion()
    done.complete(env)
    with pytest.raises(SimulationError):
        done.complete(env)


def test_run_until_stops_clock():
    env = Environment()

    env.defer(lambda _arg: None, None, 100.0)
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


def test_peek_reports_next_entry_time():
    env = Environment()
    env.defer(lambda _arg: None, None, 7.0)
    assert env.peek() == 7.0


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_defer_runs_callback_in_order():
    env = Environment()
    log = []

    done = Completion()
    done.then(lambda _completion: log.append("completion"))
    env.defer(log.append, "deferred")
    done.complete(env)
    env.defer(log.append, "deferred-after")
    env.run()
    assert log == ["deferred", "completion", "deferred-after"]


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
    env.defer(log.append, "c", 1.0)
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
