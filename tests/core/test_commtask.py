"""Unit tests for the CommTask/SubCommTask abstraction."""

import math

import pytest

from repro.comm import RingAllReduceBackend
from repro.core import ByteSchedulerCore, CommTask, TaskState
from repro.errors import SchedulerError
from repro.net import Transport
from repro.sim import Environment


def make_core(env, partition=None, credit=math.inf):
    backend = RingAllReduceBackend(
        env, 2, 1, 100.0, Transport("t", 0.0, 1.0), base_sync=0.0, per_rank_sync=0.0
    )
    return ByteSchedulerCore(env, backend, partition_bytes=partition, credit_bytes=credit)


def test_partition_splits_evenly():
    env = Environment()
    core = make_core(env)
    task = CommTask(core, 0, 3, 1000.0)
    subtasks = task.partition(300.0)
    assert len(subtasks) == 4
    assert all(sub.size == pytest.approx(250.0) for sub in subtasks)
    assert sum(sub.size for sub in subtasks) == pytest.approx(1000.0)


def test_partition_none_keeps_whole():
    env = Environment()
    core = make_core(env)
    task = CommTask(core, 0, 0, 1000.0)
    assert len(task.partition(None)) == 1


def test_partition_unit_larger_than_tensor():
    env = Environment()
    core = make_core(env)
    task = CommTask(core, 0, 0, 100.0)
    assert len(task.partition(1000.0)) == 1


def test_partition_twice_rejected():
    env = Environment()
    core = make_core(env)
    task = CommTask(core, 0, 0, 100.0)
    task.partition(50.0)
    with pytest.raises(SchedulerError):
        task.partition(50.0)


def test_partition_invalid_unit_rejected():
    env = Environment()
    core = make_core(env)
    with pytest.raises(SchedulerError):
        CommTask(core, 0, 0, 100.0).partition(0.0)


def test_zero_size_task_rejected():
    env = Environment()
    core = make_core(env)
    with pytest.raises(SchedulerError):
        CommTask(core, 0, 0, 0.0)
    with pytest.raises(SchedulerError):
        CommTask(core, 0, 0, float("nan"))


def test_notify_ready_before_partition_rejected():
    env = Environment()
    core = make_core(env)
    task = CommTask(core, 0, 0, 100.0)
    with pytest.raises(SchedulerError):
        task.notify_ready()


def test_notify_ready_twice_rejected():
    env = Environment()
    core = make_core(env)
    task = CommTask(core, 0, 0, 100.0)
    task.partition(None)
    task.notify_ready()
    with pytest.raises(SchedulerError):
        task.notify_ready()


def test_chunkspec_reflects_task_identity():
    env = Environment()
    core = make_core(env)
    task = CommTask(core, 5, 2, 400.0)
    subtasks = task.partition(100.0)
    chunk = subtasks[2].chunk
    assert (chunk.iteration, chunk.layer, chunk.chunk_index) == (5, 2, 2)
    assert chunk.num_chunks == 4


def test_each_partition_hands_the_backend_its_one_spec():
    # Built once; a drained and requeued partition starts again with
    # the same spec.
    env = Environment()
    core = make_core(env, partition=100.0, credit=250.0)
    started = []
    start_chunk = core.backend.start_chunk

    def spy(chunk, *rest):
        started.append(chunk)
        return start_chunk(chunk, *rest)

    core.backend.start_chunk = spy
    task = core.create_task(0, 0, 400.0)
    specs = [sub.chunk for sub in task.subtasks]
    task.notify_ready()
    env.run(until=0.5)
    core.requeue(core.drain())
    env.run()
    assert task.is_finished
    assert len(started) > len(specs)
    assert all(any(chunk is spec for spec in specs) for chunk in started)


def test_task_finished_after_all_subtasks():
    env = Environment()
    core = make_core(env)
    task = core.create_task(0, 0, 400.0)
    task.notify_ready()
    env.run()
    assert task.is_finished
    assert all(sub.state is TaskState.FINISHED for sub in task.subtasks)


def test_start_unready_subtask_rejected():
    env = Environment()
    core = make_core(env)
    task = CommTask(core, 0, 0, 100.0)
    (subtask,) = task.partition(None)
    with pytest.raises(SchedulerError):
        subtask.start(core._on_sent, core._finish, None)


def test_default_name_includes_worker():
    env = Environment()
    core = make_core(env)
    task = CommTask(core, 1, 2, 100.0, worker="w3")
    assert task.name == "iter1.layer2@w3"
