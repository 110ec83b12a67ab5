"""Batched link completions: the callback path vs the classic Event path.

``transmit(..., callback=...)`` rides the link's completion FIFO and a
bare deferred wake-up instead of allocating a Timeout event per
message.  The contract: callbacks fire at exactly the same simulated
times, in exactly the same order, as the events the classic API would
have returned — batching is an allocation optimisation, not a semantic
change.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Link, Message, Transport
from repro.sim import Environment, Trace

BANDWIDTH = 100.0


def make_link(env):
    return Link(env, "n0.up", BANDWIDTH, Transport("t", 0.0, 1.0))


sizes = st.lists(
    st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=15
)
offsets = st.lists(
    st.floats(min_value=0.0, max_value=200.0), min_size=15, max_size=15
)


@given(sizes=sizes, offsets=offsets, cut=st.lists(st.booleans(), min_size=15, max_size=15))
@settings(max_examples=60, deadline=None)
def test_callback_path_matches_event_path(sizes, offsets, cut):
    def run(use_callback):
        env = Environment()
        link = make_link(env)
        completions = []
        for i, (size, offset, use_cut) in enumerate(zip(sizes, offsets, cut)):
            message = Message("a", "b", size)
            if use_callback:
                record = lambda msg, i=i: completions.append((env.now, i))
                if use_cut:
                    link.transmit_cut_through(
                        message, available_at=offset, callback=record
                    )
                else:
                    link.transmit(message, callback=record)
            else:
                if use_cut:
                    evt = link.transmit_cut_through(message, available_at=offset)
                else:
                    evt = link.transmit(message)
                evt.callbacks.append(
                    lambda e, i=i: completions.append((env.now, i))
                )
        env.run()
        return completions, link.busy_time, link.bytes_sent

    assert run(True) == run(False)


def test_equal_end_completions_coalesce_in_fifo_order():
    # Two zero-size messages complete at the same instant; the first
    # wake-up drains both, in enqueue order.
    env = Environment()
    link = make_link(env)
    order = []
    link.transmit(Message("a", "b", 0.0), callback=lambda m: order.append("first"))
    link.transmit(Message("a", "b", 0.0), callback=lambda m: order.append("second"))
    env.run()
    assert order == ["first", "second"]
    assert not link._fifo


def test_callback_may_enqueue_more_traffic():
    # A completion callback that transmits again must not corrupt the
    # FIFO: the new frame lands behind the drain cursor.
    env = Environment()
    link = make_link(env)
    hops = []

    def relay(message):
        hops.append(env.now)
        if len(hops) < 3:
            link.transmit(message, callback=relay)

    link.transmit(Message("a", "b", 100.0), callback=relay)
    env.run()
    assert hops == pytest.approx([1.0, 2.0, 3.0])
    assert link.messages_sent == 3


def test_past_available_at_fires_without_time_travel():
    # Cut-through with an already-elapsed arrival clamps to now: the
    # callback fires this instant, never in the simulated past.
    env = Environment()
    link = make_link(env)
    env.timeout(5.0).callbacks.append(
        lambda _evt: link.transmit_cut_through(
            Message("a", "b", 1.0),
            available_at=0.0,
            callback=lambda m: fired.append(env.now),
        )
    )
    fired = []
    env.run()
    assert len(fired) == 1
    assert fired[0] >= 5.0


@given(
    bandwidth=st.floats(min_value=0.37, max_value=3.7e3),
    frames=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0),  # issue time
            st.floats(min_value=0.0, max_value=1e4),  # size
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0)),
        ),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=200, deadline=None)
def test_every_frame_completes_exactly_at_its_end(bandwidth, frames):
    # Non-round rates, sizes and issue times: ``now + (end - now)`` is
    # often one ulp off ``end``.  Each frame must still complete with
    # the clock exactly at the ``end`` the link computed (its trace
    # span's end), and none may be left queued.  A ``None`` third field
    # sends with transmit(); a number is the cut-through arrival's
    # offset from the issue time.
    env = Environment()
    trace = Trace(env)
    link = Link(env, "n0.up", bandwidth, Transport("t", 1.3e-5, 0.93), trace)
    completed = {}

    def issue(index):
        _at, size, arrival = frames[index]
        message = Message("a", "b", size, uid=index)
        record = lambda msg: completed.setdefault(trace.intern(msg.uid), env.now)
        if arrival is None:
            link.transmit(message, callback=record)
        else:
            link.transmit_cut_through(message, env.now + arrival, callback=record)

    for index, (at, _size, _arrival) in enumerate(frames):
        env.defer(issue, index, at)
    env.run()
    ends = {dict(span.meta)["message"]: span.end for span in trace.spans}
    assert completed == ends
    assert link.head_end is None
