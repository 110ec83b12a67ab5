"""Additional PS-backend tests: async mode details and cleanup."""

import pytest

from repro.comm import ChunkSpec, PSBackend
from repro.net import Fabric, Transport
from repro.sim import Environment


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


def test_async_update_runs_once_per_chunk():
    env = Environment()
    backend, fabric = make_async_ps(env)
    handles = [backend.start_chunk(chunk(worker)) for worker in ("w0", "w1", "w2")]
    env.run()
    assert all(handle.done.processed for handle in handles)
    # One update despite three pushes: later arrivals reuse it.
    update_pipe = backend.update_pipes["s0"]
    assert update_pipe.messages_sent == 1


def test_async_each_worker_gets_its_own_pull():
    env = Environment()
    backend, fabric = make_async_ps(env)
    handles = [backend.start_chunk(chunk(worker)) for worker in ("w0", "w1", "w2")]
    env.run()
    assert all(handle.done.processed for handle in handles)
    for worker in ("w0", "w1", "w2"):
        assert fabric.nic(worker).downlink.bytes_sent == pytest.approx(100.0)


def test_async_state_cleaned_after_all_workers_finish():
    env = Environment()
    backend, _fabric = make_async_ps(env)
    handles = [backend.start_chunk(chunk(worker)) for worker in ("w0", "w1", "w2")]
    env.run()
    assert all(handle.done.processed for handle in handles)
    assert backend._pending == {}


def test_sent_event_fires_before_done():
    env = Environment()
    backend, _fabric = make_async_ps(env, workers=("w0",))
    handle = backend.start_chunk(chunk("w0"))
    times = {}
    handle.sent.callbacks.append(lambda _e: times.setdefault("sent", env.now))
    handle.done.callbacks.append(lambda _e: times.setdefault("done", env.now))
    env.run()
    assert times["sent"] <= times["done"]
