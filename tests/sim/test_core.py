"""Unit tests for the discrete-event kernel (Environment/Event/Process)."""

import math

import pytest

from repro.errors import Interrupt, SimulationError
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=12.5)
    assert env.now == 12.5


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        return env.now

    process = env.process(proc(env))
    env.run()
    assert process.value == 3.0
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

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    process = env.process(proc(env))
    env.run()
    assert process.value == "payload"


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for delay in (1.0, 2.0, 0.5):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0, 3.0, 3.5]


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env):
        value = yield gate
        log.append((env.now, value))

    def opener(env):
        yield env.timeout(5.0)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
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

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
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


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 42

    process = env.process(proc(env))
    env.run()
    assert process.ok
    assert process.value == 42


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise KeyError("inner")

    def outer(env):
        try:
            yield env.process(failing(env))
        except KeyError:
            return "handled"

    process = env.process(outer(env))
    env.run()
    assert process.value == "handled"


def test_process_unhandled_exception_surfaces():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise KeyError("unhandled")

    env.process(failing(env))
    with pytest.raises(KeyError):
        env.run()


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 17

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_yield_foreign_event_is_error():
    env_a = Environment()
    env_b = Environment()

    def bad(env):
        yield env_b.event().succeed()

    env_a.process(bad(env_a))
    env_b.run()
    with pytest.raises(SimulationError, match="another environment"):
        env_a.run()


def test_process_waits_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return "child-done"

    def parent(env):
        value = yield env.process(child(env))
        return (env.now, value)

    process = env.process(parent(env))
    env.run()
    assert process.value == (2.0, "child-done")


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    gate = env.event()
    gate.succeed("early")

    def late(env):
        yield env.timeout(1.0)
        value = yield gate
        return (env.now, value)

    process = env.process(late(env))
    env.run()
    assert process.value == (1.0, "early")


def test_run_until_stops_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(100.0)

    env.process(proc(env))
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


def test_interrupt_raises_in_process():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def attacker(env, victim_proc):
        yield env.timeout(3.0)
        victim_proc.interrupt("stop it")

    victim_proc = env.process(victim(env))
    env.process(attacker(env, victim_proc))
    env.run()
    assert log == [(3.0, "stop it")]


def test_interrupt_preempts_same_instant_normal_event():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            log.append("interrupt")

    process = env.process(victim(env))
    env.run(until=1.0)
    # Scheduled first, but normal priority: the interrupt, scheduled
    # later for the same instant, must still fire before it.
    env.defer(lambda _: log.append("normal"))
    process.interrupt()
    env.run()
    assert log == ["interrupt", "normal"]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_active_process_visible_during_resume():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1.0)

    process = env.process(proc(env))
    env.run()
    assert seen == [process]
    assert env.active_process is None


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_event_ok_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().ok


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)


def test_interrupt_ignores_stale_target_firing():
    """A target abandoned by an interrupt must not resume the process.

    Regression test: interrupt used to leave the abandoned event's
    callback armed (the removal targeted a never-set ``_target``), so
    when the old event eventually fired it re-entered the generator at
    the wrong yield.
    """
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(10.0)
            log.append("long-completed")
        except Interrupt:
            log.append(("interrupted", env.now))
        # If the stale timeout(10) resumes us, these two short waits
        # would be skipped past and the log order would break.
        yield env.timeout(1.0)
        log.append(("step", env.now))
        yield env.timeout(20.0)
        log.append(("done", env.now))

    process = env.process(victim(env))

    def interrupter(env):
        yield env.timeout(2.0)
        process.interrupt("stop")

    env.process(interrupter(env))
    env.run()
    assert log == [("interrupted", 2.0), ("step", 3.0), ("done", 23.0)]
    assert process.ok


def test_interrupt_stale_success_is_ignored_without_misresume():
    """The abandoned target firing with a value is silently dropped."""
    env = Environment()

    def victim(env):
        stale = env.timeout(5.0, value="stale")
        try:
            yield stale
        except Interrupt:
            pass
        got = yield env.timeout(10.0, value="fresh")
        return (env.now, got, stale.value)

    process = env.process(victim(env))

    def interrupter(env):
        yield env.timeout(1.0)
        process.interrupt()

    env.process(interrupter(env))
    env.run()
    assert process.value == (11.0, "fresh", "stale")


def test_double_interrupt_retargets_to_latest():
    env = Environment()
    causes = []

    def victim(env):
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                causes.append(interrupt.cause)
        yield env.timeout(1.0)
        return env.now

    process = env.process(victim(env))

    def interrupter(env):
        yield env.timeout(1.0)
        process.interrupt("first")
        yield env.timeout(1.0)
        process.interrupt("second")

    env.process(interrupter(env))
    env.run()
    assert causes == ["first", "second"]
    assert process.value == 3.0


def test_defer_runs_callback_in_order():
    env = Environment()
    log = []

    env.defer(log.append, "deferred")

    def proc(env):
        log.append("process")
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert log == ["deferred", "process"]


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
