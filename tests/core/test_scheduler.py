"""Unit tests for Algorithm 1 (priority queue + credit-based preemption)."""

import math

import pytest

from repro.comm.base import CommBackend
from repro.core import ByteSchedulerCore, PRIORITY_FIFO
from repro.errors import SchedulerError
from repro.sim import Environment


class ManualBackend(CommBackend):
    """Records chunk starts; completes them only when the test says so."""

    is_collective = True

    def __init__(self, env):
        self.env = env
        self.started = []  # (time, chunk)
        self.pending = []  # (on_sent, on_done, token), oldest first

    @property
    def workers(self):
        return ("m0",)

    def start_chunk(self, chunk, on_sent, on_done, token):
        self.started.append((self.env.now, chunk))
        self.pending.append((on_sent, on_done, token))

    def complete(self, index=0):
        """Deliver the index-th oldest still-pending chunk: both
        milestones, in one kernel entry."""
        self.env.defer(_fire, self.pending.pop(index))

    def start_order(self):
        return [(chunk.layer, chunk.chunk_index) for _t, chunk in self.started]


def _fire(milestones):
    on_sent, on_done, token = milestones
    on_sent(token)
    on_done(token)


class TimedBackend(CommBackend):
    """Chunks complete after a fixed service time, FIFO-free (parallel)."""

    is_collective = True

    def __init__(self, env, service=1.0):
        self.env = env
        self.service = service
        self.started = []

    @property
    def workers(self):
        return ("m0",)

    def start_chunk(self, chunk, on_sent, on_done, token):
        self.started.append((self.env.now, chunk))
        self.env.defer(_fire, (on_sent, on_done, token), self.service)


def make_core(env, backend=None, **kwargs):
    backend = backend or ManualBackend(env)
    return ByteSchedulerCore(env, backend, **kwargs), backend


def test_layer_priority_orders_starts():
    env = Environment()
    core, backend = make_core(env, credit_bytes=100.0)
    low = core.create_task(0, 5, 100.0)   # low priority (big layer index)
    high = core.create_task(0, 1, 100.0)  # high priority
    low.notify_ready()
    high.notify_ready()
    env.run()
    # Credit admits one at a time; the high-priority task must go first.
    assert backend.start_order() == [(1, 0)]
    backend.complete()
    env.run()
    assert backend.start_order() == [(1, 0), (5, 0)]


def test_fifo_mode_uses_readiness_order():
    env = Environment()
    core, backend = make_core(env, priority_mode=PRIORITY_FIFO, credit_bytes=100.0)
    # Enqueued in layer order 0..2 (as a prebuilt graph would), but made
    # ready in backward order 2..0 — FIFO must follow readiness.
    tasks = [core.create_task(0, layer, 100.0) for layer in range(3)]
    for task in reversed(tasks):
        task.notify_ready()
    env.run()
    assert backend.start_order() == [(2, 0)]
    backend.complete()
    env.run()
    backend.complete()
    env.run()
    assert backend.start_order() == [(2, 0), (1, 0), (0, 0)]


def test_credit_limits_inflight_bytes():
    env = Environment()
    core, backend = make_core(env, partition_bytes=100.0, credit_bytes=250.0)
    task = core.create_task(0, 0, 1000.0)  # 10 chunks of 100B
    task.notify_ready()
    env.run()
    assert len(backend.started) == 2  # 250 credit admits two 100B chunks
    assert core.credit == pytest.approx(50.0)
    backend.complete()
    env.run()
    assert len(backend.started) == 3


def test_credit_returns_enable_progress_to_completion():
    env = Environment()
    backend = TimedBackend(Environment(), 1.0)
    env = backend.env = Environment()
    core = ByteSchedulerCore(
        env, backend, partition_bytes=100.0, credit_bytes=100.0
    )
    task = core.create_task(0, 0, 500.0)
    task.notify_ready()
    env.run()
    assert task.is_finished
    # Stop-and-wait: starts at t=0,1,2,3,4.
    starts = [t for t, _c in backend.started]
    assert starts == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])


def test_head_of_line_blocking_preserves_priority():
    """A big high-priority chunk at the head must NOT be bypassed by a
    smaller low-priority chunk that would fit the remaining credit."""
    env = Environment()
    core, backend = make_core(env, credit_bytes=150.0)
    filler = core.create_task(0, 2, 100.0)
    filler.notify_ready()
    env.run()  # 100B in flight, 50 credit left
    big_high = core.create_task(0, 0, 120.0)
    small_low = core.create_task(0, 9, 40.0)
    big_high.notify_ready()
    small_low.notify_ready()
    env.run()
    assert backend.start_order() == [(2, 0)]  # nothing else started
    backend.complete()
    env.run()
    # Credit 150 again: the 120B high-priority head starts, leaving 30 —
    # still not enough for the 40B low-priority chunk (blocked again).
    assert backend.start_order() == [(2, 0), (0, 0)]
    backend.complete()
    env.run()
    assert backend.start_order() == [(2, 0), (0, 0), (9, 0)]


def test_oversized_subtask_escapes_when_idle():
    env = Environment()
    core, backend = make_core(env, credit_bytes=50.0)
    task = core.create_task(0, 0, 200.0)  # bigger than total credit
    task.notify_ready()
    env.run()
    assert len(backend.started) == 1  # escape clause: started while idle
    backend.complete()
    env.run()
    assert task.is_finished
    assert core.credit == pytest.approx(50.0)  # uncharged, unreturned


def test_preemption_at_partition_granularity():
    """While a low-priority tensor's chunks stream, a high-priority
    arrival jumps ahead of the *remaining* chunks (the Figure 2 win)."""
    env = Environment()
    core, backend = make_core(env, partition_bytes=100.0, credit_bytes=100.0)
    low = core.create_task(0, 7, 400.0)  # 4 chunks
    low.notify_ready()
    env.run()
    backend.complete()  # chunk (7,0) done -> (7,1) starts
    env.run()
    high = core.create_task(0, 1, 200.0)  # 2 chunks arrive mid-stream
    high.notify_ready()
    env.run()
    backend.complete()  # (7,1) done -> high jumps queue
    env.run()
    backend.complete()
    env.run()
    backend.complete()
    env.run()
    backend.complete()
    env.run()
    backend.complete()
    env.run()
    assert backend.start_order() == [
        (7, 0), (7, 1), (1, 0), (1, 1), (7, 2), (7, 3),
    ]
    assert core.preemption_opportunities >= 1


def test_notify_delay_defers_credit_return():
    env = Environment()
    backend = TimedBackend(Environment(), 1.0)
    env = backend.env = Environment()
    core = ByteSchedulerCore(
        env,
        backend,
        partition_bytes=100.0,
        credit_bytes=100.0,
        notify_delay=0.5,
    )
    task = core.create_task(0, 0, 300.0)
    task.notify_ready()
    env.run()
    starts = [t for t, _c in backend.started]
    # Each cycle: 1.0s service + 0.5s notification before the next start.
    assert starts == pytest.approx([0.0, 1.5, 3.0])


def test_reconfigure_partition_applies_to_new_tasks():
    env = Environment()
    core, backend = make_core(env, partition_bytes=100.0)
    first = core.create_task(0, 0, 400.0)
    core.reconfigure(partition_bytes=200.0)
    second = core.create_task(1, 0, 400.0)
    assert len(first.subtasks) == 4
    assert len(second.subtasks) == 2


def test_reconfigure_credit_preserves_lent_amount():
    env = Environment()
    core, backend = make_core(env, partition_bytes=100.0, credit_bytes=100.0)
    task = core.create_task(0, 0, 300.0)
    task.notify_ready()
    env.run()  # one chunk in flight, credit 0
    core.reconfigure(credit_bytes=250.0)
    env.run()
    # New capacity 250 minus the 100 lent -> 150 available -> one more starts.
    assert len(backend.started) == 2
    assert core.credit == pytest.approx(50.0)


def test_shutdown_stops_scheduling():
    env = Environment()
    core, backend = make_core(env, credit_bytes=100.0)
    task = core.create_task(0, 0, 100.0)
    core.shutdown()
    with pytest.raises(SchedulerError):
        core.create_task(0, 1, 100.0)
    task.notify_ready()
    env.run()
    assert backend.started == []


def test_invalid_configs_rejected():
    env = Environment()
    backend = ManualBackend(env)
    with pytest.raises(SchedulerError):
        ByteSchedulerCore(env, backend, priority_mode="weird")
    with pytest.raises(SchedulerError):
        ByteSchedulerCore(env, backend, credit_bytes=0.0)
    with pytest.raises(SchedulerError):
        ByteSchedulerCore(env, backend, partition_bytes=-1.0)
    with pytest.raises(SchedulerError):
        ByteSchedulerCore(env, backend, notify_delay=-0.1)
    nan = float("nan")
    with pytest.raises(SchedulerError):
        ByteSchedulerCore(env, backend, credit_bytes=nan)
    with pytest.raises(SchedulerError):
        ByteSchedulerCore(env, backend, partition_bytes=nan)
    with pytest.raises(SchedulerError):
        ByteSchedulerCore(env, backend, partition_overrides={0: nan})
    core = ByteSchedulerCore(env, backend, partition_bytes=math.inf)
    for knobs in ({"partition_bytes": nan}, {"credit_bytes": nan}):
        with pytest.raises(SchedulerError):
            core.reconfigure(**knobs)
    assert core.partition_bytes == math.inf
    assert core.credit_capacity == math.inf


def test_stats_counters():
    env = Environment()
    backend = TimedBackend(Environment(), 0.1)
    env = backend.env = Environment()
    core = ByteSchedulerCore(env, backend, partition_bytes=100.0)
    task = core.create_task(0, 0, 500.0)
    task.notify_ready()
    env.run()
    assert core.subtasks_started == 5
    assert core.bytes_started == pytest.approx(500.0)
    assert core.tasks_enqueued == 1
    assert core.inflight == 0
    assert core.queued == 0


def test_enqueue_foreign_task_rejected():
    env = Environment()
    core_a, _ = make_core(env)
    core_b, _ = make_core(env)
    from repro.core import CommTask

    task = CommTask(core_a, 0, 0, 100.0)
    with pytest.raises(SchedulerError):
        core_b.enqueue(task)


def test_partition_override_larger_than_credit_does_not_hang():
    """A per-layer partition unit bigger than the whole credit window
    must start via the liveness escape, not wait forever."""
    env = Environment()
    core, backend = make_core(
        env, credit_bytes=50.0, partition_overrides={3: 200.0}
    )
    task = core.create_task(0, 3, 200.0)
    task.notify_ready()
    env.run()
    assert len(backend.started) == 1  # escaped, uncharged
    assert core.credit == pytest.approx(50.0)
    backend.complete()
    env.run()
    assert task.is_finished


def test_float_drift_head_at_capacity_does_not_deadlock():
    """Regression: mixed partition sizes drift the credit a few ULPs
    below capacity (1.3 - 0.3 - 0.15 + 0.3 + 0.15 != 1.3).  A head
    sized exactly at capacity then fails ``credit >= size`` while the
    old escape (``size > capacity``) also fails — the core sat on a
    non-empty queue with nothing in flight, forever."""
    env = Environment()
    core, backend = make_core(
        env,
        credit_bytes=1.3,
        partition_overrides={0: 0.3, 1: 0.15},
    )
    # Charge 0.3 and 0.15 concurrently, then return them in order.
    mixed_a = core.create_task(0, 0, 0.3)
    mixed_b = core.create_task(0, 1, 0.15)
    mixed_a.notify_ready()
    mixed_b.notify_ready()
    env.run()
    assert len(backend.started) == 2
    backend.complete(0)
    backend.complete(0)
    env.run()
    # The snap guard must leave the ledger exact, not 1.2999999999....
    assert core.credit == 1.3
    whole = core.create_task(1, 2, 1.3)
    whole.notify_ready()
    env.run()
    assert len(backend.started) == 3  # would be 2 (deadlock) before the fix
    backend.complete()
    env.run()
    assert whole.is_finished
    assert core.credit == 1.3


# -- crash recovery: drain / requeue / blocked nodes -------------------------


class TargetedBackend(ManualBackend):
    """ManualBackend whose chunks target a server chosen by layer parity."""

    def chunk_targets(self, chunk):
        return "s0" if chunk.layer % 2 == 0 else "s1"


def test_drain_refunds_credit_and_cancels_only_the_dead_nodes_flights():
    env = Environment()
    core, backend = make_core(
        env, backend=TargetedBackend(env), credit_bytes=200.0
    )
    to_s0 = core.create_task(0, 0, 80.0)
    to_s1 = core.create_task(0, 1, 60.0)
    to_s0.notify_ready()
    to_s1.notify_ready()
    env.run()
    assert len(backend.started) == 2
    assert core.credit == pytest.approx(60.0)

    drained = core.drain("s0")
    assert [sub.parent.layer for sub in drained] == [0]
    from repro.core.commtask import TaskState

    assert drained[0].state is TaskState.CANCELLED
    # The 80-byte flight's credit came back; s1's 60 stays lent.
    assert core.credit == pytest.approx(140.0)
    assert core.drained_subtasks == 1
    assert core.credit_refunded == pytest.approx(80.0)
    core.check_credit_invariant()


def test_requeue_restores_original_priority():
    env = Environment()
    core, backend = make_core(
        env, backend=TargetedBackend(env), credit_bytes=80.0
    )
    urgent = core.create_task(0, 0, 80.0)  # layer 0 -> s0, highest priority
    urgent.notify_ready()
    env.run()
    drained = core.drain("s0")
    # A later, lower-priority task arrives while s0's work is parked.
    laggard = core.create_task(0, 2, 80.0)
    laggard.notify_ready()
    core.requeue(drained)
    env.run()
    # The requeued layer-0 partition outranks the fresh layer-2 one.
    assert backend.start_order() == [(0, 0), (0, 0)]
    backend.complete(1)  # the replayed copy finishes, freeing credit
    env.run()
    assert backend.start_order() == [(0, 0), (0, 0), (2, 0)]
    core.check_credit_invariant()


def test_requeue_rejects_uncancelled_subtasks():
    env = Environment()
    core, backend = make_core(env, credit_bytes=100.0)
    task = core.create_task(0, 0, 50.0)
    with pytest.raises(SchedulerError, match="expected cancelled"):
        core.requeue(task.subtasks)


def test_cancelled_flights_ignore_late_completions():
    """A transfer that 'completes' after its flight was cancelled (the
    network delivered a copy the scheduler gave up on) must not finish
    the subtask or double-refund credit."""
    env = Environment()
    core, backend = make_core(
        env, backend=TargetedBackend(env), credit_bytes=100.0
    )
    task = core.create_task(0, 0, 70.0)
    task.notify_ready()
    env.run()
    drained = core.drain("s0")
    assert core.credit == pytest.approx(100.0)
    backend.complete()  # the stale milestones fire anyway
    env.run()
    assert not task.is_finished
    assert core.credit == pytest.approx(100.0)  # no double refund
    core.check_credit_invariant()
    core.requeue(drained)
    env.run()
    backend.complete(0)  # the replayed copy
    env.run()
    assert task.is_finished


def test_block_node_parks_queue_heads_until_unblock():
    env = Environment()
    core, backend = make_core(
        env, backend=TargetedBackend(env), credit_bytes=500.0
    )
    core.block_node("s0")
    blocked = core.create_task(0, 0, 50.0)   # targets s0
    flowing = core.create_task(0, 1, 50.0)   # targets s1
    blocked.notify_ready()
    flowing.notify_ready()
    env.run()
    # s0's partition parked without blocking s1's behind it.
    assert backend.start_order() == [(1, 0)]
    assert core.parked == 1
    core.unblock_node("s0")
    env.run()
    assert backend.start_order() == [(1, 0), (0, 0)]
    assert core.parked == 0
    core.check_credit_invariant()


def test_reconfigure_while_over_lent_clamps_and_recovers():
    """Shrinking the credit window below what is already in flight must
    clamp available credit to zero (never negative) and resume normal
    admission once enough refunds arrive — with mixed partition sizes
    in flight (the case that used to push the ledger negative)."""
    env = Environment()
    core, backend = make_core(
        env,
        credit_bytes=200.0,
        partition_overrides={0: 80.0, 1: 80.0},
    )
    small = core.create_task(0, 0, 80.0)
    mixed = core.create_task(0, 1, 120.0)  # even split: 60 + 60
    small.notify_ready()
    mixed.notify_ready()
    env.run()
    assert len(backend.started) == 3  # 80 + 60 + 60 = 200 lent
    core.reconfigure(credit_bytes=50.0)
    assert core.credit == 0.0  # clamped, not -150
    late = core.create_task(0, 2, 40.0)
    late.notify_ready()
    env.run()
    assert len(backend.started) == 3  # over-lent: nothing new admitted
    backend.complete(0)  # refund 80 -> lent 120, still over
    env.run()
    assert core.credit == 0.0
    assert len(backend.started) == 3
    backend.complete(0)  # refund 60 -> lent 60, still over
    env.run()
    assert core.credit == 0.0
    assert len(backend.started) == 3
    backend.complete(0)  # refund 60 -> lent 0 -> credit 50
    env.run()
    assert len(backend.started) == 4  # the 40-byte partition admitted
    core.check_credit_invariant()
    backend.complete(0)
    env.run()
    assert late.is_finished
    assert core.credit == pytest.approx(50.0)
