"""Link completions.

``transmit(..., callback=...)`` completes each frame in its own bare
deferred kernel entry.  The link used to offer a second path, one
timeout event per message when no callback was given, and the
contract was that callbacks fire at exactly the same simulated times,
in exactly the same order and with the same number of kernel entries
as those events.  :data:`PINNED` holds that contract: it was recorded
on the event path over fixed seeded draws, and must not be re-recorded
to make a change pass.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Link, Message, Transport
from repro.sim import Environment, Trace

BANDWIDTH = 100.0


def make_link(env):
    return Link(env, "n0.up", BANDWIDTH, Transport("t", 0.0, 1.0))


def _draw(seed):
    """Frames as ``(size, available_at, cut_through)``.  Round offsets
    and zero-size frames come up often, so completions tie."""
    rng = random.Random(seed)
    return [
        (
            rng.choice((rng.uniform(1.0, 1e4), float(rng.randint(1, 4) * 100), 0.0)),
            rng.choice((rng.uniform(0.0, 200.0), float(rng.randint(0, 4) * 5))),
            rng.random() < 0.5,
        )
        for _ in range(rng.randint(1, 15))
    ]


def _replay(frames):
    env = Environment()
    link = make_link(env)
    completions = []
    for i, (size, offset, use_cut) in enumerate(frames):
        message = Message("a", "b", size)
        record = lambda msg, i=i: completions.append((env.now, i))
        if use_cut:
            link.transmit_cut_through(message, available_at=offset, callback=record)
        else:
            link.transmit(message, callback=record)
    env.run()
    material = (completions, link.busy_time, link.bytes_sent)
    return hashlib.sha256(repr(material).encode()).hexdigest()[:16], env._eid


#: ``seed -> (sha256 prefix of (completion log, busy_time, bytes_sent),
#: env._eid)``, recorded with callbacks on the per-message events.
PINNED = {
    0: ("9753d5b7d80ad6dc", 14),
    1: ("24b0a4c7983fa075", 3),
    2: ("9ef2d2f9e2a30ef6", 14),
    3: ("8844099ab50aba1a", 4),
    4: ("8a2e70239fdbe7ec", 4),
    5: ("79475fa55a475098", 10),
    6: ("2eeea4dcbca0dd71", 13),
    7: ("19c459f0cad013d7", 6),
    8: ("0390addd996804ad", 4),
    9: ("1c913f3bf58ab9ca", 8),
    10: ("3d6bb726b255f77e", 10),
    11: ("e9ac40a2d7aa8735", 8),
    12: ("b404fb353cc184e1", 8),
    13: ("3f94ee5f7c294853", 5),
    14: ("e92faf8bd3b42e28", 2),
    15: ("96216742574beb42", 4),
    16: ("df9ebc0be188e58d", 6),
    17: ("d620cab8d85a1df7", 9),
    18: ("705763b2834cfec3", 3),
    19: ("057dbf95d97bcffc", 11),
    20: ("87bc030b22d78de4", 15),
    21: ("2d4cfb5bbcfb85dc", 3),
    22: ("e87ed745d985935c", 15),
    23: ("20973031e1990aa6", 15),
    24: ("9adcf9ec73d06cb2", 12),
    25: ("d4760ed90fec5991", 7),
    26: ("40592d39570dfa77", 12),
    27: ("0d313f6bc90e921f", 11),
    28: ("f0ac7945ef9b8bd4", 2),
    29: ("b60171db1556f9cc", 9),
    30: ("7bd385234b9a5e06", 9),
    31: ("ed5343103bd96eee", 1),
    32: ("298a3e1c128790c7", 2),
    33: ("edaa97351cddf8dd", 10),
    34: ("482b723df22ad095", 9),
    35: ("f5d10de9263c383e", 9),
    36: ("71b2d726680bee4e", 6),
    37: ("355e310923ef8b01", 11),
    38: ("58e1de97fa1eb8d6", 11),
    39: ("00cd97960af17c58", 4),
    40: ("80490525317ac129", 8),
    41: ("d434910914c71900", 7),
    42: ("eb5dce916073551f", 11),
    43: ("43873a013a795ab4", 1),
    44: ("d00b6c32ffacc2a7", 7),
    45: ("7393f91e463d4227", 5),
    46: ("363afd96d6cc8a21", 15),
    47: ("66796e0b243e72b6", 6),
    48: ("ae12a941a966ece3", 9),
    49: ("ce709bd1566ac764", 2),
    50: ("e3ef0b6c1d9af3ea", 8),
    51: ("6b8fa9229b90bd6f", 4),
    52: ("ac773ef921209e93", 5),
    53: ("799a45941ab89f2f", 10),
    54: ("f7a78fd929d64007", 15),
    55: ("d4dd5044a4df19e4", 2),
    56: ("2835d5ab8a05cdf0", 14),
    57: ("deb8f957c58433b0", 1),
    58: ("0abc8f5f8e65cfaa", 10),
    59: ("8bc0eb4044eb02b6", 4),
    60: ("b0522f3cbd000f1b", 5),
    61: ("a9d9bbf72cc507ee", 8),
    62: ("b4d224341e3652a9", 15),
    63: ("9dce4107c3333c91", 8),
}


def test_callback_completions_replay_the_pinned_event_log():
    replayed = {seed: _replay(_draw(seed)) for seed in PINNED}
    assert replayed == PINNED


def test_equal_end_completions_coalesce_in_fifo_order():
    # Two zero-size messages complete at the same instant, each in its
    # own kernel entry, in enqueue order.
    env = Environment()
    link = make_link(env)
    order = []
    link.transmit(
        Message("a", "b", 0.0), callback=lambda m: order.append(("first", env.now))
    )
    link.transmit(
        Message("a", "b", 0.0), callback=lambda m: order.append(("second", env.now))
    )
    env.run()
    assert order == [("first", 0.0), ("second", 0.0)]


def test_callback_may_enqueue_more_traffic():
    # A completion callback that transmits again: the new frame
    # queues behind the one that just left.
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
    env.defer(
        lambda _arg: link.transmit_cut_through(
            Message("a", "b", 1.0),
            available_at=0.0,
            callback=lambda m: fired.append(env.now),
        ),
        None,
        5.0,
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
    assert len(ends) == len(frames)
    assert completed == ends
