"""Unit tests for the FIFO link model."""

import pytest

from repro.net import Link, Message, Transport
from repro.sim import Environment, Trace


def make_link(env, bandwidth=100.0, overhead=0.0, trace=None):
    return Link(env, "n0.up", bandwidth, Transport("t", overhead, 1.0), trace)


def test_single_message_takes_size_over_bandwidth():
    env = Environment()
    link = make_link(env, bandwidth=100.0)
    done = link.transmit(Message("a", "b", 250.0))

    def waiter(env):
        yield done
        return env.now

    process = env.process(waiter(env))
    env.run()
    assert process.value == pytest.approx(2.5)


def test_messages_serialize_fifo():
    env = Environment()
    link = make_link(env, bandwidth=100.0)
    finish_times = []

    def sender(env):
        first = link.transmit(Message("a", "b", 100.0))
        second = link.transmit(Message("a", "b", 100.0))
        yield first
        finish_times.append(env.now)
        yield second
        finish_times.append(env.now)

    env.process(sender(env))
    env.run()
    assert finish_times == [pytest.approx(1.0), pytest.approx(2.0)]


def test_no_preemption_small_message_waits_behind_large():
    """The FIFO property the paper exploits: a tiny message enqueued
    after a huge one cannot finish before it."""
    env = Environment()
    link = make_link(env, bandwidth=100.0)
    order = []

    def sender(env):
        big = link.transmit(Message("a", "b", 1000.0, kind="big"))
        small = link.transmit(Message("a", "b", 1.0, kind="small"))
        big.callbacks.append(lambda evt: order.append("big"))
        small.callbacks.append(lambda evt: order.append("small"))
        yield env.all_of([big, small])

    env.process(sender(env))
    env.run()
    assert order == ["big", "small"]


def test_overhead_applies_per_message():
    env = Environment()
    link = make_link(env, bandwidth=100.0, overhead=0.5)
    events = [link.transmit(Message("a", "b", 100.0)) for _ in range(3)]

    def waiter(env):
        yield env.all_of(events)
        return env.now

    process = env.process(waiter(env))
    env.run()
    # Each message: 1s wire + 0.5s overhead, serialized.
    assert process.value == pytest.approx(4.5)


def test_idle_gap_then_transmit_starts_immediately():
    env = Environment()
    link = make_link(env, bandwidth=100.0)

    def sender(env):
        yield env.timeout(10.0)
        done = link.transmit(Message("a", "b", 100.0))
        yield done
        return env.now

    process = env.process(sender(env))
    env.run()
    assert process.value == pytest.approx(11.0)


def test_queue_delay_reflects_backlog():
    env = Environment()
    link = make_link(env, bandwidth=100.0)
    link.transmit(Message("a", "b", 500.0))
    assert link.queue_delay == pytest.approx(5.0)


def test_counters_accumulate():
    env = Environment()
    link = make_link(env, bandwidth=100.0, overhead=0.1)
    link.transmit(Message("a", "b", 100.0))
    link.transmit(Message("a", "b", 300.0))
    env.run()
    assert link.bytes_sent == 400.0
    assert link.messages_sent == 2
    assert link.busy_time == pytest.approx(4.2)


def test_reset_counters():
    env = Environment()
    link = make_link(env)
    link.transmit(Message("a", "b", 100.0))
    env.run()
    link.reset_counters()
    assert (link.bytes_sent, link.messages_sent, link.busy_time) == (0.0, 0, 0.0)


def test_trace_records_link_spans():
    env = Environment()
    trace = Trace(env)
    link = make_link(env, bandwidth=100.0, trace=trace)
    link.transmit(Message("a", "b", 200.0))
    env.run()
    (span,) = list(trace.by_category("link"))
    assert span.name == "n0.up"
    assert span.duration == pytest.approx(2.0)


def test_invalid_bandwidth_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        make_link(env, bandwidth=0.0)
    with pytest.raises(ValueError):
        make_link(env, bandwidth=float("nan"))


def test_message_negative_size_rejected():
    with pytest.raises(ValueError):
        Message("a", "b", -5.0)
    with pytest.raises(ValueError):
        Message("a", "b", float("nan"))


def test_message_records_enqueue_time():
    env = Environment()
    link = make_link(env)
    message = Message("a", "b", 10.0)

    def sender(env):
        yield env.timeout(3.0)
        link.transmit(message)

    env.process(sender(env))
    env.run()
    assert message.enqueued_at == 3.0
