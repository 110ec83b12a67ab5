"""Unit tests for the parameter-server backend."""

import pytest

from repro.comm import ChunkSpec, LayerRoundRobin, PSBackend
from repro.errors import ConfigError
from repro.net import Fabric, Transport
from repro.sim import Environment


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


def run_until_done(env, events):
    """Run ``env``; return the time the last of ``events`` fired."""
    times = []
    for event in events:
        event.callbacks.append(lambda _evt: times.append(env.now))
    env.run()
    assert len(times) == len(events)
    return times[-1]


def test_sync_chunk_completes_after_all_pushes_and_pull():
    env = Environment()
    backend, _fabric = make_ps(env, bandwidth=100.0)
    done_0 = backend.start_chunk(chunk(worker="w0")).done
    done_1 = backend.start_chunk(chunk(worker="w1")).done
    elapsed = run_until_done(env, [done_0, done_1])
    # Pushes: uplinks parallel (1s); the server downlink cut-throughs
    # the first and serializes the second -> aggregated at t=2.  Pulls:
    # server uplink serializes 2x1s; each cut-throughs to its worker ->
    # last delivery at 2+2=4.
    assert elapsed == pytest.approx(4.0, abs=1e-2)


def test_sync_waits_for_slowest_worker():
    env = Environment()
    backend, _fabric = make_ps(env, bandwidth=100.0)
    done_0 = backend.start_chunk(chunk(worker="w0")).done
    times = {}
    done_0.callbacks.append(lambda evt: times.setdefault("w0", env.now))

    def late_starter(_arg):
        done_1 = backend.start_chunk(chunk(worker="w1")).done
        done_1.callbacks.append(lambda evt: times.setdefault("w1", env.now))

    env.defer(late_starter, None, 10.0)
    env.run()
    # w0's pull can only happen after w1's push arrives at t=11.
    assert times["w0"] >= 11.0
    assert "w1" in times


def test_async_worker_not_blocked_by_peer():
    env = Environment()
    backend, _fabric = make_ps(env, bandwidth=100.0, synchronous=False)
    done_0 = backend.start_chunk(chunk(worker="w0")).done
    elapsed = run_until_done(env, [done_0])
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
    done = backend.start_chunk(chunk(worker="w0", size=100.0)).done
    elapsed = run_until_done(env, [done])
    # 1s push + 1s update (100B at 100B/s, +10us overhead) + 1s pull.
    assert elapsed == pytest.approx(3.0, rel=1e-2)


def test_duplicate_start_same_worker_rejected():
    env = Environment()
    backend, _fabric = make_ps(env)
    backend.start_chunk(chunk(worker="w0"))
    with pytest.raises(ConfigError):
        backend.start_chunk(chunk(worker="w0"))


def test_unknown_worker_rejected():
    env = Environment()
    backend, _fabric = make_ps(env)
    with pytest.raises(ConfigError):
        backend.start_chunk(chunk(worker="w9"))


def test_state_cleaned_up_after_completion():
    env = Environment()
    backend, _fabric = make_ps(env)
    events = [
        backend.start_chunk(chunk(worker="w0")).done,
        backend.start_chunk(chunk(worker="w1")).done,
    ]
    run_until_done(env, events)
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

    single = one_backend.start_chunk(chunk(size=200.0, worker="w0")).done
    t_single = run_until_done(one_chunk_env, [single])

    halves = [
        backend.start_chunk(chunk(index=0, num=2, size=100.0, worker="w0")).done,
        backend.start_chunk(chunk(index=1, num=2, size=100.0, worker="w0")).done,
    ]
    t_halves = run_until_done(env, halves)
    assert t_halves < t_single
