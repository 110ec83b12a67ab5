"""Property-based tests: Algorithm 1 invariants under random workloads."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.base import CommBackend
from repro.core import ByteSchedulerCore, CommTask, TaskState
from repro.sim import Environment


class AuditingBackend(CommBackend):
    """Completes chunks after a service time; audits window invariants."""

    is_collective = True

    def __init__(self, env, credit_capacity, service=0.01):
        self.env = env
        self.service = service
        self.credit_capacity = credit_capacity
        self.inflight_bytes = 0.0
        self.max_inflight_bytes = 0.0
        self.max_single = 0.0
        self.starts = []  # (time, layer, chunk_index, size)

    @property
    def workers(self):
        return ("m0",)

    def start_chunk(self, chunk, on_sent, on_done, token):
        self.inflight_bytes += chunk.size
        self.max_inflight_bytes = max(self.max_inflight_bytes, self.inflight_bytes)
        self.max_single = max(self.max_single, chunk.size)
        self.starts.append((self.env.now, chunk.layer, chunk.chunk_index, chunk.size))
        op = (chunk, on_sent, on_done, token)
        self.env.defer(self._complete, op, self.service)

    def _complete(self, op):
        """The chunk's completion entry: release its bytes, then both
        milestones."""
        chunk, on_sent, on_done, token = op
        self.inflight_bytes -= chunk.size
        on_sent(token)
        on_done(token)


task_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),       # layer / priority
        st.floats(min_value=1.0, max_value=5_000.0), # size
        st.floats(min_value=0.0, max_value=0.05),    # ready delay
    ),
    min_size=1,
    max_size=12,
)


@given(
    tasks=task_strategy,
    partition=st.floats(min_value=50.0, max_value=2_000.0),
    credit=st.floats(min_value=100.0, max_value=5_000.0),
)
@settings(max_examples=60, deadline=None)
def test_all_tasks_finish_and_window_is_respected(tasks, partition, credit):
    env = Environment()
    backend = AuditingBackend(env, credit_capacity=credit)
    core = ByteSchedulerCore(
        env, backend, partition_bytes=partition, credit_bytes=credit
    )

    created = []
    for index, (layer, size, delay) in enumerate(tasks):
        task = core.create_task(index, layer, size)
        created.append(task)

        def make_ready(task=task):
            return lambda _arg: task.notify_ready()

        env.defer(make_ready(), None, delay)
    env.run()

    # 1. Liveness: everything completes.
    assert all(task.is_finished for task in created)
    assert all(
        sub.state is TaskState.FINISHED for task in created for sub in task.subtasks
    )
    # 2. The credit window is never exceeded except by one uncharged
    #    oversized chunk (the escape clause admits a chunk larger than
    #    the whole window when the sender is idle, without charging it).
    allowed = credit + backend.max_single
    assert backend.max_inflight_bytes <= allowed + 1e-6
    # 3. Conservation: started bytes equal the sum of task sizes.
    started = sum(size for _t, _l, _c, size in backend.starts)
    assert math.isclose(started, sum(size for _l, size, _d in tasks), rel_tol=1e-9)
    # 4. Every subtask starts exactly once.
    assert len(backend.starts) == sum(len(task.subtasks) for task in created)


@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e7), min_size=1, max_size=8),
    unit=st.floats(min_value=1e3, max_value=1e7),
)
@settings(max_examples=80, deadline=None)
def test_partition_conserves_bytes_and_respects_unit(sizes, unit):
    env = Environment()
    backend = AuditingBackend(env, credit_capacity=math.inf)
    core = ByteSchedulerCore(env, backend, partition_bytes=unit)
    for index, size in enumerate(sizes):
        task = core.create_task(index, 0, size)
        assert math.isclose(
            sum(sub.size for sub in task.subtasks), size, rel_tol=1e-9
        )
        assert all(sub.size <= unit * (1 + 1e-9) for sub in task.subtasks)
        assert len(task.subtasks) == math.ceil(size / unit) or size <= unit


@given(tasks=task_strategy)
@settings(max_examples=40, deadline=None)
def test_priority_order_when_everything_ready_together(tasks):
    """If all tasks are ready at t=0 and chunks drain one at a time, the
    start order must be sorted by (priority, readiness sequence)."""
    env = Environment()
    backend = AuditingBackend(env, credit_capacity=1.0, service=0.001)
    # Credit of one byte: the escape clause serialises chunks strictly.
    core = ByteSchedulerCore(env, backend, partition_bytes=None, credit_bytes=1.0)
    for index, (layer, size, _delay) in enumerate(tasks):
        core.create_task(index, layer, size).notify_ready()
    env.run()
    layers_started = [layer for _t, layer, _c, _s in backend.starts]
    assert layers_started == sorted(layers_started)


@given(
    tasks=task_strategy,
    partition=st.floats(min_value=50.0, max_value=2_000.0),
)
@settings(max_examples=30, deadline=None)
def test_determinism_of_schedule(tasks, partition):
    """Two identical runs produce identical start traces."""

    def run():
        env = Environment()
        backend = AuditingBackend(env, credit_capacity=2_000.0)
        core = ByteSchedulerCore(
            env, backend, partition_bytes=partition, credit_bytes=2_000.0
        )
        for index, (layer, size, delay) in enumerate(tasks):
            task = core.create_task(index, layer, size)
            env.defer(CommTask.notify_ready, task, delay)
        env.run()
        return backend.starts

    assert run() == run()


# -- fault-plan invariants --------------------------------------------------


def _build_windows(parts):
    """(gap, duration, rate) triples → sorted disjoint fault windows."""
    windows, clock = [], 0.0
    for gap, duration, rate in parts:
        start = clock + gap
        end = start + duration
        windows.append((start, end, rate))
        clock = end
    return tuple(windows)


window_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.04),    # gap before the window
        st.floats(min_value=0.001, max_value=0.05),  # window duration
        st.floats(min_value=0.0, max_value=1.0),     # rate factor (0=blackout)
    ),
    max_size=4,
).map(_build_windows)


class FaultedAuditingBackend(AuditingBackend):
    """AuditingBackend whose service rate degrades inside fault windows
    and which audits the credit ledger at every scheduling event."""

    def __init__(self, env, credit_capacity, windows, service=0.01):
        super().__init__(env, credit_capacity, service)
        self.windows = windows
        self.core = None
        self.ledger_violations = []

    def audit(self):
        core = self.core
        if core is None:
            return
        if not -1e-9 <= core.credit <= core.credit_capacity + 1e-9:
            self.ledger_violations.append((self.env.now, core.credit))

    def start_chunk(self, chunk, on_sent, on_done, token):
        from repro.faults import degraded_finish

        self.audit()
        self.inflight_bytes += chunk.size
        self.max_inflight_bytes = max(self.max_inflight_bytes, self.inflight_bytes)
        self.max_single = max(self.max_single, chunk.size)
        self.starts.append((self.env.now, chunk.layer, chunk.chunk_index, chunk.size))
        end = degraded_finish(self.env.now, self.service, self.windows)
        op = (chunk, on_sent, on_done, token)
        self.env.defer(self._complete, op, end - self.env.now)

    def _complete(self, op):
        chunk, on_sent, on_done, token = op
        self.inflight_bytes -= chunk.size
        self.audit()
        on_sent(token)
        on_done(token)


@given(
    tasks=task_strategy,
    partition=st.floats(min_value=50.0, max_value=2_000.0),
    credit=st.floats(min_value=100.0, max_value=5_000.0),
    windows=window_strategy,
)
@settings(max_examples=60, deadline=None)
def test_fault_windows_preserve_ledger_and_liveness(tasks, partition, credit, windows):
    """Under any disjoint set of degradation/blackout windows: the credit
    ledger never goes negative, never exceeds capacity, and every
    SubCommTask still finishes."""
    env = Environment()
    backend = FaultedAuditingBackend(env, credit_capacity=credit, windows=windows)
    core = ByteSchedulerCore(
        env, backend, partition_bytes=partition, credit_bytes=credit
    )
    backend.core = core

    created = []
    for index, (layer, size, delay) in enumerate(tasks):
        task = core.create_task(index, layer, size)
        created.append(task)
        env.defer(CommTask.notify_ready, task, delay)
    env.run()

    assert backend.ledger_violations == []
    assert all(task.is_finished for task in created)
    assert all(
        sub.state is TaskState.FINISHED for task in created for sub in task.subtasks
    )
    # With everything drained the full window must be back, exactly.
    assert core.inflight == 0
    assert core.credit == credit
    # Faults slow transfers but never admit extra in-flight bytes.
    assert backend.max_inflight_bytes <= credit + backend.max_single + 1e-6


@given(
    tasks=task_strategy,
    windows=window_strategy,
)
@settings(max_examples=30, deadline=None)
def test_faulted_schedule_is_deterministic(tasks, windows):
    """The same fault windows applied twice yield identical start traces."""

    def run():
        env = Environment()
        backend = FaultedAuditingBackend(env, credit_capacity=1_500.0, windows=windows)
        core = ByteSchedulerCore(
            env, backend, partition_bytes=300.0, credit_bytes=1_500.0
        )
        backend.core = core
        for index, (layer, size, delay) in enumerate(tasks):
            task = core.create_task(index, layer, size)
            env.defer(CommTask.notify_ready, task, delay)
        env.run()
        return backend.starts

    assert run() == run()
