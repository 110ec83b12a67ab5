"""Unit tests for the end-to-end delivery protocol.

Checksum + (epoch, seq) stamping, the receiver-side dedup window,
epoch fencing, NACK retransmits, and the injected-fault accounting
identities — all at the raw fabric level, with hand-built injectors.
"""

import math
import random

import pytest

from repro.net import Fabric, LinkIntegrityInjector, Message, Transport
from repro.sim import Environment

ALWAYS = ((0.0, math.inf, 0.999),)


def make_fabric(env, nodes=("w0", "w1", "s0"), bandwidth=100.0):
    return Fabric(env, nodes, bandwidth, Transport("t", 0.0, 1.0))


def inject(fabric, link, **windows):
    """Attach a deterministic injector to one link."""
    guard = fabric.enable_integrity()
    link.integrity = LinkIntegrityInjector(
        random.Random(1),
        guard.stats,
        dup_pending=fabric.dup_pending,
        **windows,
    )
    return guard


def drain(env):
    env.run()


def send(fabric, message):
    """Send ``message``; returns the list its delivery is appended to."""
    delivered = []
    fabric.send(message, delivered.append)
    return delivered


# -- stamping and the happy path -------------------------------------------


def test_guard_stamps_epoch_and_checksum():
    env = Environment()
    fabric = make_fabric(env)
    fabric.enable_integrity()
    message = Message("w0", "s0", 50.0)
    assert message.checksum is None
    delivered = send(fabric, message)
    assert message.epoch == 0
    assert message.checksum == message.expected_checksum()
    drain(env)
    assert delivered


def test_no_guard_means_no_stamping():
    env = Environment()
    fabric = make_fabric(env)
    message = Message("w0", "s0", 50.0)
    send(fabric, message)
    assert message.checksum is None and message.epoch is None
    assert message.checksum_ok()  # unstamped always verifies


# -- corruption: detection, retransmit, exhaustion -------------------------


def test_corrupt_final_chunk_of_partitioned_tensor_is_retransmitted():
    """Four partitions of one tensor; only the last transit window is
    corrupted.  The final chunk must be detected, NACKed, and the clean
    retransmit delivered — the tensor still completes whole."""
    env = Environment()
    fabric = make_fabric(env)
    # Four 100 B chunks at 100 B/s: the fourth serialises in [3, 4).
    guard = inject(
        fabric, fabric.nics["s0"].downlink, corrupt=((2.5, 3.5, 0.999),)
    )
    deliveries = [
        send(fabric, Message("w0", "s0", 100.0, kind=f"chunk{i}"))
        for i in range(4)
    ]
    drain(env)
    assert all(deliveries)
    stats = guard.stats
    assert stats.corrupt_injected == 1
    assert stats.corrupt_detected == 1
    assert stats.retransmits == 1
    assert stats.accounted()


def test_retransmit_budget_exhausts_on_permanently_corrupting_link():
    env = Environment()
    fabric = make_fabric(env)
    guard = inject(fabric, fabric.nics["s0"].downlink, corrupt=ALWAYS)
    delivered = send(fabric, Message("w0", "s0", 10.0))
    drain(env)
    assert not delivered
    stats = guard.stats
    # Initial copy + 5 retransmits, each corrupted and detected.
    assert stats.corrupt_detected == 6
    assert stats.retransmits == 5
    assert stats.retransmit_exhausted == 1
    assert stats.accounted()


def test_double_corruption_counts_one_injection():
    """Corrupting an already-damaged copy (both hops roll corrupt) is
    one injected fault and one detection, not two."""
    from repro.net import DeliveryGuard

    guard = DeliveryGuard()
    message = Message("w0", "s0", 10.0)
    guard.stamp(message)
    uplink = LinkIntegrityInjector(
        random.Random(1), guard.stats, corrupt=ALWAYS
    )
    downlink = LinkIntegrityInjector(
        random.Random(2), guard.stats, corrupt=ALWAYS
    )
    assert uplink.roll(message, 0.0).corrupt
    assert downlink.roll(message, 0.0).corrupt
    assert guard.stats.corrupt_injected == 1  # one damaged copy, not two
    assert guard.admit(message) == "corrupt"
    assert guard.stats.corrupt_detected == 1


# -- duplication and the dedup window --------------------------------------


def test_injected_duplicate_is_absorbed():
    env = Environment()
    fabric = make_fabric(env)
    guard = inject(fabric, fabric.nics["w0"].uplink, dup=((0.0, 0.5, 0.999),))
    delivered = send(fabric, Message("w0", "s0", 10.0))
    drain(env)
    assert len(delivered) == 1
    stats = guard.stats
    assert stats.dup_injected == 1
    assert stats.dup_absorbed == 1
    assert stats.dedup_dropped == 1
    assert stats.accounted()


def test_corrupt_duplicate_keeps_both_identities():
    """A duplicate forged from a frame damaged on the uplink: two
    corrupted copies on the wire, one extra copy — both ledgers close."""
    env = Environment()
    fabric = make_fabric(env)
    guard = inject(
        fabric,
        fabric.nics["w0"].uplink,
        corrupt=((0.0, 0.05, 0.999),),
        dup=((0.0, 0.05, 0.999),),
    )
    delivered = send(fabric, Message("w0", "s0", 10.0))
    drain(env)
    assert len(delivered) == 1
    stats = guard.stats
    assert stats.corrupt_injected == 2  # original + forged copy
    assert stats.corrupt_detected == 2
    assert stats.dup_injected == 1
    assert stats.dup_absorbed == 1
    assert stats.accounted()


def test_dedup_window_eviction_readmits_old_seq():
    env = Environment()
    fabric = make_fabric(env)
    guard = fabric.enable_integrity(window=2)
    first = Message("w0", "s0", 10.0)
    send(fabric, first)
    for _ in range(2):
        send(fabric, Message("w0", "s0", 10.0))
    drain(env)
    assert guard.stats.window_evictions == 1  # first seq pushed out
    # A replay of the evicted seq is accepted again — the window was
    # too small for this traffic, and the eviction counter says so.
    replay = Message("w0", "s0", 10.0, uid=first.uid)
    delivered = send(fabric, replay)
    drain(env)
    assert delivered
    assert guard.stats.dedup_dropped == 0


def test_dup_pending_dies_with_wire_dropped_frame():
    """A frame that dies mid-wire takes its queued duplicate with it."""
    env = Environment()
    fabric = make_fabric(env)
    guard = inject(fabric, fabric.nics["w0"].uplink, dup=ALWAYS)
    fabric.set_liveness(lambda node: not (node == "s0" and env.now >= 0.05))
    delivered = send(fabric, Message("w0", "s0", 10.0))
    drain(env)
    assert not delivered
    stats = guard.stats
    assert stats.dup_injected == 1
    assert stats.dup_lost == 1
    assert stats.accounted()


# -- epoch fencing ---------------------------------------------------------


def test_stale_epoch_drop_counted_exactly_once():
    env = Environment()
    fabric = make_fabric(env)
    guard = fabric.enable_integrity()
    message = Message("w0", "s0", 10.0)
    delivered = send(fabric, message)  # stamped with s0's epoch 0
    fabric.bump_incarnation("s0")  # s0 restarts while the bytes fly
    drain(env)
    assert not delivered
    assert guard.stats.stale_dropped == 1
    # A fresh send stamps the new epoch and goes through.
    delivered = send(fabric, Message("w0", "s0", 10.0))
    drain(env)
    assert delivered
    assert guard.stats.stale_dropped == 1


def test_bump_incarnation_without_guard_is_noop():
    env = Environment()
    fabric = make_fabric(env)
    fabric.bump_incarnation("s0")  # must not raise
    assert fabric.guard is None


# -- reordering ------------------------------------------------------------


def test_reorder_delays_delivery_without_extending_link_busy():
    env = Environment()
    fabric = make_fabric(env)
    guard = inject(
        fabric,
        fabric.nics["s0"].downlink,
        reorder=((0.0, 1.5, 0.999),),
    )
    downlink = fabric.nics["s0"].downlink
    delivered_at = []
    fabric.send(Message("w0", "s0", 100.0), lambda _msg: delivered_at.append(env.now))
    env.run()
    assert guard.stats.reorder_injected == 1
    # Delivery slips by the injector's lingering delay...
    assert delivered_at == [pytest.approx(1.0 + 500e-6, abs=1e-4)]
    # ...but the link freed on schedule: the switch held the message,
    # not the wire.
    assert downlink.busy_until == pytest.approx(1.0, abs=1e-4)
