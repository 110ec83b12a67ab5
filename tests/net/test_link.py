"""Unit tests for the FIFO link model."""

import pytest

from repro.net import Link, Message, Transport
from repro.sim import Environment, Trace


def make_link(env, bandwidth=100.0, overhead=0.0, trace=None):
    return Link(env, "n0.up", bandwidth, Transport("t", overhead, 1.0), trace)


def fired_at(env, link, messages):
    """Transmit ``messages``, run ``env``; return the time each
    completed, in order of completion."""
    times = []
    for message in messages:
        link.transmit(message, callback=lambda _msg: times.append(env.now))
    env.run()
    return times


def ignore(_message):
    """Completion callback for a frame whose completion is not checked."""


def test_single_message_takes_size_over_bandwidth():
    env = Environment()
    link = make_link(env, bandwidth=100.0)
    assert fired_at(env, link, [Message("a", "b", 250.0)]) == [pytest.approx(2.5)]


def test_messages_serialize_fifo():
    env = Environment()
    link = make_link(env, bandwidth=100.0)
    finished = []
    for name in ("first", "second"):
        link.transmit(
            Message("a", "b", 100.0),
            callback=lambda _msg, name=name: finished.append((name, env.now)),
        )
    env.run()
    assert finished == [("first", pytest.approx(1.0)), ("second", pytest.approx(2.0))]


def test_no_preemption_small_message_waits_behind_large():
    """The FIFO property the paper exploits: a tiny message enqueued
    after a huge one cannot finish before it."""
    env = Environment()
    link = make_link(env, bandwidth=100.0)
    order = []

    link.transmit(
        Message("a", "b", 1000.0, kind="big"), callback=lambda _msg: order.append("big")
    )
    link.transmit(
        Message("a", "b", 1.0, kind="small"), callback=lambda _msg: order.append("small")
    )
    env.run()
    assert order == ["big", "small"]


def test_overhead_applies_per_message():
    env = Environment()
    link = make_link(env, bandwidth=100.0, overhead=0.5)
    messages = [Message("a", "b", 100.0) for _ in range(3)]
    # Each message: 1s wire + 0.5s overhead, serialized.
    assert fired_at(env, link, messages)[-1] == pytest.approx(4.5)


def test_idle_gap_then_transmit_starts_immediately():
    env = Environment()
    link = make_link(env, bandwidth=100.0)
    env.run(until=10.0)
    assert fired_at(env, link, [Message("a", "b", 100.0)]) == [pytest.approx(11.0)]


def test_queue_delay_reflects_backlog():
    env = Environment()
    link = make_link(env, bandwidth=100.0)
    link.transmit(Message("a", "b", 500.0), callback=ignore)
    assert link.queue_delay == pytest.approx(5.0)


def test_counters_accumulate():
    env = Environment()
    link = make_link(env, bandwidth=100.0, overhead=0.1)
    link.transmit(Message("a", "b", 100.0), callback=ignore)
    link.transmit(Message("a", "b", 300.0), callback=ignore)
    env.run()
    assert link.bytes_sent == 400.0
    assert link.messages_sent == 2
    assert link.busy_time == pytest.approx(4.2)


def test_reset_counters():
    env = Environment()
    link = make_link(env)
    link.transmit(Message("a", "b", 100.0), callback=ignore)
    env.run()
    link.reset_counters()
    assert (link.bytes_sent, link.messages_sent, link.busy_time) == (0.0, 0, 0.0)


def test_trace_records_link_spans():
    env = Environment()
    trace = Trace(env)
    link = make_link(env, bandwidth=100.0, trace=trace)
    link.transmit(Message("a", "b", 200.0), callback=ignore)
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
    env.defer(lambda msg: link.transmit(msg, callback=ignore), message, 3.0)
    env.run()
    assert message.enqueued_at == 3.0
