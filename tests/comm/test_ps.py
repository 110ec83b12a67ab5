"""Unit tests for the parameter-server backend."""

import pytest

from repro.comm import ChunkSpec, LayerRoundRobin, PSBackend
from repro.errors import ConfigError
from repro.net import Fabric, Transport
from repro.sim import Environment
from tests.comm.milestones import Milestones


def make_ps(
    env,
    workers=("w0", "w1"),
    servers=("s0",),
    bandwidth=100.0,
    overhead=0.0,
    synchronous=True,
    update_rate=1e12,
):
    fabric = Fabric(
        env,
        list(workers) + list(servers),
        bandwidth,
        Transport("t", overhead, 1.0),
        local_bandwidth=1e12,
        local_transport=Transport("local", 0.0, 1.0),
    )
    backend = PSBackend(
        env,
        fabric,
        workers,
        servers,
        sharding=LayerRoundRobin(),
        layer_bytes=(100, 100, 100, 100),
        synchronous=synchronous,
        update_rate=update_rate,
    )
    return backend, fabric


def chunk(iteration=0, layer=0, index=0, num=1, size=100.0, worker="w0"):
    return ChunkSpec(iteration, layer, index, num, size, worker)


def run_until_done(env, milestones, tokens):
    """Run ``env``; return the time the last of ``tokens`` was done
    (each exactly once)."""
    env.run()
    times = [milestones.times("done", token) for token in tokens]
    assert all(len(each) == 1 for each in times)
    return max(each[0] for each in times)


def test_sync_chunk_completes_after_all_pushes_and_pull():
    env = Environment()
    backend, _fabric = make_ps(env, bandwidth=100.0)
    milestones = Milestones(env)
    tokens = [
        milestones.start(backend.start_chunk, chunk(worker="w0")),
        milestones.start(backend.start_chunk, chunk(worker="w1")),
    ]
    elapsed = run_until_done(env, milestones, tokens)
    # Pushes: uplinks parallel (1s); the server downlink cut-throughs
    # the first and serializes the second -> aggregated at t=2.  Pulls:
    # server uplink serializes 2x1s; each cut-throughs to its worker ->
    # last delivery at 2+2=4.
    assert elapsed == pytest.approx(4.0, abs=1e-2)


def test_sync_waits_for_slowest_worker():
    env = Environment()
    backend, _fabric = make_ps(env, bandwidth=100.0)
    milestones = Milestones(env)
    milestones.start(backend.start_chunk, chunk(worker="w0"), "w0")
    env.defer(
        lambda _arg: milestones.start(backend.start_chunk, chunk(worker="w1"), "w1"),
        None,
        10.0,
    )
    env.run()
    # w0's pull can only happen after w1's push arrives at t=11.
    (w0_done,) = milestones.times("done", "w0")
    assert w0_done >= 11.0
    assert len(milestones.times("done", "w1")) == 1


def test_async_worker_not_blocked_by_peer():
    env = Environment()
    backend, _fabric = make_ps(env, bandwidth=100.0, synchronous=False)
    milestones = Milestones(env)
    token = milestones.start(backend.start_chunk, chunk(worker="w0"))
    elapsed = run_until_done(env, milestones, [token])
    # Push (1s, cut-through) + pull (1s); w1 never pushed.
    assert elapsed == pytest.approx(2.0, abs=1e-2)


def test_chunks_route_to_their_layer_server():
    env = Environment()
    backend, fabric = make_ps(env, servers=("s0", "s1"))
    assert backend.server_for(chunk(layer=0)) == "s0"
    assert backend.server_for(chunk(layer=1)) == "s1"
    assert backend.server_for(chunk(layer=2)) == "s0"


def test_update_pipe_adds_latency():
    env = Environment()
    backend, _fabric = make_ps(
        env, workers=("w0",), bandwidth=100.0, update_rate=100.0
    )
    milestones = Milestones(env)
    token = milestones.start(backend.start_chunk, chunk(worker="w0", size=100.0))
    elapsed = run_until_done(env, milestones, [token])
    # 1s push + 1s update (100B at 100B/s, +10us overhead) + 1s pull.
    assert elapsed == pytest.approx(3.0, rel=1e-2)


def test_duplicate_start_same_worker_rejected():
    env = Environment()
    backend, _fabric = make_ps(env)
    milestones = Milestones(env)
    milestones.start(backend.start_chunk, chunk(worker="w0"))
    with pytest.raises(ConfigError):
        milestones.start(backend.start_chunk, chunk(worker="w0"))


def test_unknown_worker_rejected():
    env = Environment()
    backend, _fabric = make_ps(env)
    with pytest.raises(ConfigError):
        Milestones(env).start(backend.start_chunk, chunk(worker="w9"))


def test_state_cleaned_up_after_completion():
    env = Environment()
    backend, _fabric = make_ps(env)
    milestones = Milestones(env)
    tokens = [
        milestones.start(backend.start_chunk, chunk(worker="w0")),
        milestones.start(backend.start_chunk, chunk(worker="w1")),
    ]
    run_until_done(env, milestones, tokens)
    assert backend._pending == {}


def test_needs_workers_and_servers():
    env = Environment()
    fabric = Fabric(env, ["w0", "s0"], 100.0, Transport("t", 0.0, 1.0))
    with pytest.raises(ConfigError):
        PSBackend(env, fabric, (), ("s0",))
    with pytest.raises(ConfigError):
        PSBackend(env, fabric, ("w0",), ())


def test_chunkspec_validation():
    with pytest.raises(ValueError):
        ChunkSpec(0, 0, 0, 1, 0.0, "w0")  # zero size
    with pytest.raises(ValueError):
        ChunkSpec(0, 0, 3, 2, 1.0, "w0")  # index out of range
    with pytest.raises(ValueError):
        ChunkSpec(0, 0, 0, 1, float("nan"), "w0")


def test_chunkspec_is_a_value():
    chunk = ChunkSpec(1, 2, 0, 2, 5.0, "w0")
    assert chunk.key == (1, 2, 0)
    assert chunk == ChunkSpec(1, 2, 0, 2, 5.0, worker="w0")
    assert chunk != ChunkSpec(1, 2, 0, 2, 5.0, worker="w1")
    assert len({chunk, ChunkSpec(1, 2, 0, 2, 5.0, "w0")}) == 1
    assert repr(chunk) == (
        "ChunkSpec(iteration=1, layer=2, chunk_index=0, num_chunks=2, "
        "size=5.0, worker='w0')"
    )


def test_duplex_pipelining_two_chunks_faster_than_double():
    """With two chunks, the pull of chunk 0 overlaps the push of
    chunk 1 — the §2.2 duplex-utilisation argument."""
    env = Environment()
    backend, _fabric = make_ps(env, workers=("w0",), bandwidth=100.0)
    one_chunk_env = Environment()
    one_backend, _f = make_ps(one_chunk_env, workers=("w0",), bandwidth=100.0)

    one = Milestones(one_chunk_env)
    single = one.start(one_backend.start_chunk, chunk(size=200.0, worker="w0"))
    t_single = run_until_done(one_chunk_env, one, [single])

    two = Milestones(env)
    halves = [
        two.start(backend.start_chunk, chunk(index=0, num=2, size=100.0, worker="w0")),
        two.start(backend.start_chunk, chunk(index=1, num=2, size=100.0, worker="w0")),
    ]
    t_halves = run_until_done(env, two, halves)
    assert t_halves < t_single


@pytest.mark.parametrize("ack_delay", [0.0, 0.5])
def test_each_milestone_fires_exactly_once(ack_delay):
    """Every start hears ``sent`` once and ``done`` once: on the
    aggregation path, and on the replay path (a worker re-starting a
    chunk the fleet already finished is answered from the shard)."""
    env = Environment()
    backend, _fabric = make_ps(env, bandwidth=100.0)
    backend.ack_delay = ack_delay
    milestones = Milestones(env)
    first = [
        milestones.start(backend.start_chunk, chunk(worker=worker), worker)
        for worker in ("w0", "w1")
    ]
    env.run()
    assert chunk().key in backend.completed_keys
    replay = milestones.start(backend.start_chunk, chunk(worker="w0"), "replay")
    env.run()
    for token in first + [replay]:
        assert len(milestones.times("sent", token)) == 1
        assert len(milestones.times("done", token)) == 1
    assert len(milestones.calls) == 6
    # The replay's push takes 1 s and its pull from the shard 1 s more;
    # its credit returns ``ack_delay`` after the push lands.
    (replay_sent,) = milestones.times("sent", replay)
    (replay_done,) = milestones.times("done", replay)
    (first_done,) = milestones.times("done", "w1")
    assert replay_sent - first_done == pytest.approx(1.0 + ack_delay, abs=1e-2)
    assert replay_done - first_done == pytest.approx(2.0, abs=1e-2)
