"""Additional PS-backend tests: async mode details and cleanup."""

import pytest

from repro.comm import ChunkSpec, PSBackend
from repro.net import Fabric, Transport
from repro.sim import Environment
from tests.comm.milestones import Milestones


def make_async_ps(env, workers=("w0", "w1", "w2")):
    fabric = Fabric(
        env,
        list(workers) + ["s0"],
        bandwidth=100.0,
        transport=Transport("t", 0.0, 1.0),
        local_bandwidth=1e12,
        local_transport=Transport("local", 0.0, 1.0),
    )
    return PSBackend(
        env,
        fabric,
        workers,
        ("s0",),
        layer_bytes=(100,),
        synchronous=False,
        update_rate=1e12,
    ), fabric


def chunk(worker, index=0, num=1):
    return ChunkSpec(0, 0, index, num, 100.0, worker)


def start_all(env, backend, workers=("w0", "w1", "w2")):
    milestones = Milestones(env)
    for worker in workers:
        milestones.start(backend.start_chunk, chunk(worker), worker)
    return milestones


def all_done(milestones, workers=("w0", "w1", "w2")):
    return all(len(milestones.times("done", worker)) == 1 for worker in workers)


def test_async_update_runs_once_per_chunk():
    env = Environment()
    backend, fabric = make_async_ps(env)
    milestones = start_all(env, backend)
    env.run()
    assert all_done(milestones)
    # One update despite three pushes: later arrivals reuse it.
    update_pipe = backend.update_pipes["s0"]
    assert update_pipe.messages_sent == 1


def test_async_each_worker_gets_its_own_pull():
    env = Environment()
    backend, fabric = make_async_ps(env)
    milestones = start_all(env, backend)
    env.run()
    assert all_done(milestones)
    for worker in ("w0", "w1", "w2"):
        assert fabric.nic(worker).downlink.bytes_sent == pytest.approx(100.0)


def test_async_state_cleaned_after_all_workers_finish():
    env = Environment()
    backend, _fabric = make_async_ps(env)
    milestones = start_all(env, backend)
    env.run()
    assert all_done(milestones)
    assert backend._pending == {}


def test_sent_fires_before_done():
    env = Environment()
    backend, _fabric = make_async_ps(env, workers=("w0",))
    milestones = start_all(env, backend, workers=("w0",))
    env.run()
    assert [kind for kind, _token, _now in milestones.calls] == ["sent", "done"]
    (sent,) = milestones.times("sent", "w0")
    (done,) = milestones.times("done", "w0")
    assert sent <= done
