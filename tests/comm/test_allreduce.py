"""Unit tests for the ring all-reduce backend."""

import pytest

from repro.comm import ChunkSpec, RingAllReduceBackend
from repro.errors import ConfigError
from repro.net import RDMATransport, Transport
from repro.sim import Environment
from tests.comm.milestones import Milestones


def make_backend(env, machines=4, gpus=1, bandwidth=100.0, base_sync=0.0, per_rank=0.0):
    return RingAllReduceBackend(
        env,
        machines,
        gpus,
        bandwidth,
        Transport("t", 0.0, 1.0),
        local_bandwidth=1000.0,
        base_sync=base_sync,
        per_rank_sync=per_rank,
    )


def collective(size=100.0, layer=0, index=0, num=1, iteration=0):
    return ChunkSpec(iteration, layer, index, num, size, worker=None)


def test_collective_time_matches_ring_formula():
    env = Environment()
    backend = make_backend(env, machines=4, gpus=1, bandwidth=100.0)
    # 2*(4-1)/4 * 100/100 = 1.5s
    assert backend.collective_time(100.0) == pytest.approx(1.5)


def test_sync_overhead_grows_with_ring_size():
    env = Environment()
    small = make_backend(env, machines=2, per_rank=0.001)
    large = make_backend(env, machines=16, per_rank=0.001)
    assert large.sync_overhead() > small.sync_overhead()
    assert large.sync_overhead() == pytest.approx(0.016)


def test_single_machine_uses_local_bandwidth():
    env = Environment()
    backend = make_backend(env, machines=1, gpus=4, bandwidth=100.0)
    # 2*(4-1)/4 * 100/1000 = 0.15s over PCIe.
    assert backend.collective_time(100.0) == pytest.approx(0.15)


def test_single_rank_costs_only_base_sync():
    env = Environment()
    backend = make_backend(env, machines=1, gpus=1, base_sync=0.25)
    assert backend.collective_time(100.0) == pytest.approx(0.25)


def test_collectives_serialize_fifo():
    env = Environment()
    backend = make_backend(env, machines=4, bandwidth=100.0)
    milestones = Milestones(env)
    milestones.start(backend.start_chunk, collective(size=100.0, layer=5), "first")
    milestones.start(
        backend.start_chunk, collective(size=100.0, layer=0, iteration=1), "second"
    )
    env.run()
    assert milestones.times("done", "first") == [pytest.approx(1.5)]
    assert milestones.times("done", "second") == [pytest.approx(3.0)]


def test_per_worker_chunk_rejected():
    env = Environment()
    backend = make_backend(env)
    with pytest.raises(ConfigError):
        Milestones(env).start(
            backend.start_chunk, ChunkSpec(0, 0, 0, 1, 1.0, worker="m0")
        )


def test_counters_accumulate():
    env = Environment()
    backend = make_backend(env)
    milestones = Milestones(env)
    milestones.start(backend.start_chunk, collective(size=10.0))
    milestones.start(backend.start_chunk, collective(size=30.0, layer=1))
    env.run()
    assert backend.collectives_run == 2
    assert backend.bytes_reduced == 40.0


def test_worker_names_and_ring_size():
    env = Environment()
    backend = make_backend(env, machines=3, gpus=8)
    assert backend.workers == ("m0", "m1", "m2")
    assert backend.ring_size == 24


def test_invalid_shapes_rejected():
    env = Environment()
    with pytest.raises(ConfigError):
        make_backend(env, machines=0)
    with pytest.raises(ConfigError):
        make_backend(env, gpus=0)
    with pytest.raises(ConfigError):
        make_backend(env).collective_time(0.0)


def test_transport_efficiency_slows_collectives():
    env = Environment()
    fast = RingAllReduceBackend(
        env, 4, 1, 100.0, Transport("t", 0.0, 1.0), base_sync=0.0, per_rank_sync=0.0
    )
    slow = RingAllReduceBackend(
        env, 4, 1, 100.0, Transport("t", 0.0, 0.5), base_sync=0.0, per_rank_sync=0.0
    )
    assert slow.collective_time(100.0) == pytest.approx(2 * fast.collective_time(100.0))


def test_bytes_per_iteration_uses_ring_factor():
    env = Environment()
    backend = make_backend(env, machines=4, gpus=1)
    assert backend.bytes_per_iteration(1000.0) == pytest.approx(1500.0)


def test_rdma_defaults_sane():
    env = Environment()
    backend = RingAllReduceBackend(env, 2, 8, 100.0, RDMATransport())
    assert backend.sync_overhead() > 0
    assert backend.collective_time(1e6) > 0


def test_each_milestone_fires_exactly_once():
    """A collective completes in one kernel entry: the completion
    ledger first, then ``sent``, then ``done``, each once.  A replay
    (the key already reduced) runs only the handshake and leaves the
    ledger alone."""
    env = Environment()
    backend = make_backend(env, machines=4, bandwidth=100.0, base_sync=0.25)
    chunk = collective(size=100.0)
    log = []
    backend.on_complete = lambda key: log.append(("ledger", key, env.now))
    sent = lambda token: log.append(("sent", token, env.now))
    done = lambda token: log.append(("done", token, env.now))
    backend.start_chunk(chunk, sent, done, "first")
    env.run()
    finished = env.now
    backend.start_chunk(chunk, sent, done, "replay")
    env.run()
    assert log == [
        ("ledger", chunk.key, finished),
        ("sent", "first", finished),
        ("done", "first", finished),
        ("sent", "replay", pytest.approx(finished + 0.25)),
        ("done", "replay", pytest.approx(finished + 0.25)),
    ]
    assert backend.collectives_run == 1


def test_collective_completes_at_the_pipe_boundary_exactly():
    # A collective queued behind another ends at ``end``, where
    # ``now + (end - now) != end`` for some start clocks: its completion
    # must be armed for ``end`` itself, not for ``end - now`` from now.
    for step in range(1, 200):
        now = step * 0.01
        env = Environment()
        env.run(until=now)
        backend = make_backend(env)
        milestones = Milestones(env)
        milestones.start(backend.start_chunk, collective(size=100.0, index=0, num=2))
        token = milestones.start(
            backend.start_chunk, collective(size=37.0 + step, index=1, num=2)
        )
        end = backend._busy_until
        if now + (end - now) != end:
            break
    else:
        raise AssertionError("no start clock rounds the relative delay")
    env.run()
    assert milestones.times("sent", token) == [end]
    assert milestones.times("done", token) == [end]
