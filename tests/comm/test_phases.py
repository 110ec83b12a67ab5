"""Unit + property tests for the decoupled all-reduce phase primitives.

The hypothesis properties pin DeAR's correctness argument: over random
tensor sizes and ring shapes, running reduce-scatter + all-gather moves
the same total bytes, costs the same total pipe time, and lands the
same completed keys (the reduced values) as one monolithic all-reduce.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import ChunkSpec, DecoupledAllReduceBackend, RingAllReduceBackend
from repro.errors import ConfigError
from repro.net import Transport
from repro.sim import Environment
from tests.comm.milestones import Milestones


def make_backend(env, machines=4, gpus=1, bandwidth=100.0, base_sync=0.0,
                 per_rank=0.0, efficiency=1.0):
    return DecoupledAllReduceBackend(
        env,
        machines,
        gpus,
        bandwidth,
        Transport("t", 0.0, efficiency),
        local_bandwidth=1000.0,
        base_sync=base_sync,
        per_rank_sync=per_rank,
    )


def collective(size=100.0, layer=0, iteration=0):
    return ChunkSpec(iteration, layer, 0, 1, size, worker=None)


def reduce_scatter(backend, chunk, token=None):
    milestones = Milestones(backend.env)
    milestones.start(backend.start_reduce_scatter, chunk, token)
    return milestones


def all_gather(backend, chunk, token=None):
    milestones = Milestones(backend.env)
    milestones.start(backend.start_all_gather, chunk, token)
    return milestones


# -- deterministic unit tests -----------------------------------------------


def test_phase_times_split_the_handshake():
    env = Environment()
    backend = make_backend(env, machines=4, bandwidth=100.0, base_sync=0.2)
    # Each phase: (4-1)/4 * 100/100 wire + half the 0.2s handshake.
    assert backend.reduce_scatter_time(100.0) == pytest.approx(0.75 + 0.1)
    assert backend.all_gather_time(100.0) == pytest.approx(0.75 + 0.1)


def test_phases_sum_to_monolithic_collective():
    env = Environment()
    backend = make_backend(env, machines=4, bandwidth=100.0, base_sync=0.2)
    total = backend.reduce_scatter_time(100.0) + backend.all_gather_time(100.0)
    assert total == pytest.approx(backend.collective_time(100.0), rel=1e-12)


def test_phases_share_the_fifo_pipe():
    env = Environment()
    backend = make_backend(env, machines=4, bandwidth=100.0)
    rs = reduce_scatter(backend, collective(size=100.0), "rs")
    env.run()
    ag = all_gather(backend, collective(size=100.0), "ag")
    env.run()
    assert rs.times("done", "rs") == [pytest.approx(0.75)]
    assert ag.times("done", "ag") == [pytest.approx(1.5)]


def test_all_gather_before_reduce_scatter_rejected():
    env = Environment()
    backend = make_backend(env)
    with pytest.raises(ConfigError):
        all_gather(backend, collective())


def test_per_worker_phase_rejected():
    env = Environment()
    backend = make_backend(env)
    with pytest.raises(ConfigError):
        reduce_scatter(backend, ChunkSpec(0, 0, 0, 1, 1.0, worker="m0"))
    with pytest.raises(ConfigError):
        all_gather(backend, ChunkSpec(0, 0, 0, 1, 1.0, worker="m0"))


def test_completion_ledger_updates_only_at_all_gather():
    env = Environment()
    backend = make_backend(env)
    chunk = collective(size=10.0)
    reduce_scatter(backend, chunk)
    env.run()
    assert chunk.key in backend.rs_completed_keys
    assert chunk.key not in backend.completed_keys
    all_gather(backend, chunk)
    env.run()
    assert chunk.key in backend.completed_keys


def test_replayed_phases_short_circuit():
    env = Environment()
    backend = make_backend(env, base_sync=0.4)
    chunk = collective(size=10.0)
    reduce_scatter(backend, chunk)
    env.run()
    # Re-driving the reduce-scatter (recovered-master replay) costs only
    # half a handshake and does not recount the collective.
    runs_before = backend.reduce_scatters_run
    start = env.now
    replay = reduce_scatter(backend, chunk, "replay")
    env.run()
    assert backend.reduce_scatters_run == runs_before
    assert replay.times("done", "replay") == [pytest.approx(start + 0.2)]
    all_gather(backend, chunk)
    env.run()
    runs_before = backend.all_gathers_run
    all_gather(backend, chunk)
    env.run()
    assert backend.all_gathers_run == runs_before


def test_phase_trace_spans_distinguish_the_phases():
    from repro.sim import Trace

    env = Environment()
    trace = Trace(env, enabled=True)
    backend = DecoupledAllReduceBackend(
        env, 2, 1, 100.0, Transport("t", 0.0, 1.0), trace=trace
    )
    chunk = collective(size=10.0)
    reduce_scatter(backend, chunk)
    env.run()
    all_gather(backend, chunk)
    env.run()
    categories = [span.category for span in trace.spans]
    assert "reduce_scatter" in categories
    assert "all_gather" in categories
    assert "allreduce" not in categories


def test_monolithic_path_untouched():
    env = Environment()
    backend = make_backend(env, machines=4, bandwidth=100.0)
    milestones = Milestones(env)
    milestones.start(backend.start_chunk, collective(size=100.0), "t")
    env.run()
    assert milestones.times("done", "t") == [pytest.approx(1.5)]
    assert backend.collectives_run == 1
    assert backend.reduce_scatters_run == 0


def test_bytes_reduced_counted_once_per_tensor():
    env = Environment()
    backend = make_backend(env)
    chunk = collective(size=40.0)
    reduce_scatter(backend, chunk)
    env.run()
    all_gather(backend, chunk)
    env.run()
    assert backend.bytes_reduced == 40.0
    assert backend.collectives_run == 2  # two pipe ops...
    assert backend.reduce_scatters_run == 1
    assert backend.all_gathers_run == 1


# -- hypothesis properties ---------------------------------------------------

ring_strategy = st.tuples(
    st.integers(min_value=1, max_value=8),   # machines
    st.integers(min_value=1, max_value=4),   # gpus per machine
)
sizes_strategy = st.lists(
    st.floats(min_value=1.0, max_value=1e9), min_size=1, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(ring=ring_strategy, sizes=sizes_strategy,
       base_sync=st.floats(min_value=0.0, max_value=0.01),
       efficiency=st.floats(min_value=0.3, max_value=1.0))
def test_phase_times_always_sum_to_collective_time(
    ring, sizes, base_sync, efficiency
):
    machines, gpus = ring
    env = Environment()
    backend = make_backend(
        env, machines=machines, gpus=gpus, base_sync=base_sync,
        efficiency=efficiency,
    )
    for size in sizes:
        split = backend.reduce_scatter_time(size) + backend.all_gather_time(size)
        assert split == pytest.approx(backend.collective_time(size), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(ring=ring_strategy, sizes=sizes_strategy)
def test_decoupled_run_matches_monolithic_run(ring, sizes):
    """Same tensors through both paths: same total bytes, same finish
    time, same completed keys (the reduced values)."""
    machines, gpus = ring

    mono_env = Environment()
    mono = make_backend(mono_env, machines=machines, gpus=gpus, base_sync=0.001)
    for layer, size in enumerate(sizes):
        Milestones(mono_env).start(
            mono.start_chunk, collective(size=size, layer=layer)
        )
    mono_env.run()

    split_env = Environment()
    split = make_backend(split_env, machines=machines, gpus=gpus, base_sync=0.001)
    chunks = [collective(size=size, layer=layer) for layer, size in enumerate(sizes)]
    for chunk in chunks:
        reduce_scatter(split, chunk)
    split_env.run()
    for chunk in chunks:
        all_gather(split, chunk)
    split_env.run()

    assert split.bytes_reduced == pytest.approx(mono.bytes_reduced)
    assert split.completed_keys == mono.completed_keys
    assert split.sync_digest() == mono.sync_digest()
    # Both pipes are FIFO and each tensor costs the same total time, so
    # the last completion lands at the same instant.
    assert split_env.now == pytest.approx(mono_env.now, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(ring=ring_strategy, sizes=sizes_strategy)
def test_interleaved_phases_preserve_total_pipe_time(ring, sizes):
    """Any interleaving of the two phase chains costs the same total
    pipe occupancy — decoupling changes ordering freedom, not work."""
    machines, gpus = ring
    env = Environment()
    backend = make_backend(env, machines=machines, gpus=gpus, base_sync=0.001)
    chunks = [collective(size=size, layer=layer) for layer, size in enumerate(sizes)]
    # Interleave: RS each tensor, then immediately AG the previous one.
    previous = None
    for chunk in chunks:
        reduce_scatter(backend, chunk)
        env.run()
        if previous is not None:
            all_gather(backend, previous)
        previous = chunk
    all_gather(backend, previous)
    env.run()
    expected = sum(backend.collective_time(size) for size in sizes)
    assert env.now == pytest.approx(expected, rel=1e-9)
    assert backend.completed_keys == {chunk.key for chunk in chunks}


def test_each_milestone_fires_exactly_once():
    """Each phase op completes in one kernel entry: its ledger first,
    then ``sent``, then ``done``, each once; a replayed phase runs half
    the handshake and leaves the ledgers alone."""
    env = Environment()
    backend = make_backend(env, machines=4, bandwidth=100.0, base_sync=0.4)
    chunk = collective(size=100.0)
    log = []

    def sent(token):
        ledgers = (
            chunk.key in backend.rs_completed_keys,
            chunk.key in backend.completed_keys,
        )
        log.append(("sent", token, env.now, ledgers))

    def done(token):
        log.append(("done", token, env.now))

    for start, token in (
        (backend.start_reduce_scatter, "rs"),
        (backend.start_reduce_scatter, "rs-replay"),
        (backend.start_all_gather, "ag"),
        (backend.start_all_gather, "ag-replay"),
    ):
        started = env.now
        start(chunk, sent, done, token)
        env.run()
        assert env.now > started
        assert log[-2:] == [
            ("sent", token, env.now, (True, token.startswith("ag"))),
            ("done", token, env.now),
        ]
    assert len(log) == 8
    assert backend.reduce_scatters_run == 1
    assert backend.all_gathers_run == 1


@pytest.mark.parametrize("phase", ["reduce_scatter", "all_gather"])
def test_phase_completes_at_the_pipe_boundary_exactly(phase):
    # A phase queued behind another ends at ``end``, where
    # ``now + (end - now) != end`` for some start clocks: its completion
    # must be armed for ``end`` itself, not for ``end - now`` from now.
    for step in range(1, 200):
        env = Environment()
        backend = make_backend(env)
        chunk = collective(37.0 + step, layer=1)
        if phase == "all_gather":
            reduce_scatter(backend, chunk)
            env.run()
        env.run(until=env.now + step * 0.01)
        now = env.now
        reduce_scatter(backend, collective(size=1000.0, layer=0))
        milestones = Milestones(env)
        milestones.start(getattr(backend, f"start_{phase}"), chunk)
        end = backend._busy_until
        if now + (end - now) != end:
            break
    else:
        raise AssertionError("no start clock rounds the relative delay")
    env.run()
    assert milestones.times("done", chunk) == [end]
