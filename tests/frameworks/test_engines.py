"""Unit tests for declarative and imperative engine semantics."""

import pytest

from repro.errors import ConfigError
from repro.frameworks import (
    EngineOp,
    MXNetEngine,
    OpKind,
    PyTorchEngine,
    TensorFlowEngine,
    make_engine,
)
from repro.sim import Environment


def compute(name, duration, deps=()):
    return EngineOp(name, OpKind.COMPUTE, deps=deps, duration=duration)


def test_declarative_runs_on_dependencies():
    env = Environment()
    engine = MXNetEngine(env)
    a = engine.post(compute("a", 1.0))
    b = engine.post(compute("b", 2.0, deps=[a]))
    env.run()
    assert a.finished_at == pytest.approx(1.0)
    assert b.finished_at == pytest.approx(3.0)


def test_declarative_gpu_serializes_independent_compute():
    env = Environment()
    engine = MXNetEngine(env)
    a = engine.post(compute("a", 1.0))
    b = engine.post(compute("b", 1.0))  # no dep, but one GPU
    env.run()
    assert sorted([a.finished_at, b.finished_at]) == [
        pytest.approx(1.0),
        pytest.approx(2.0),
    ]


def test_declarative_comm_does_not_hold_gpu():
    env = Environment()
    engine = MXNetEngine(env)
    slow_comm = engine.post(
        EngineOp("comm", OpKind.COMM, launch=lambda: env.timeout(10.0))
    )
    quick = engine.post(compute("q", 1.0))
    env.run()
    assert quick.finished_at == pytest.approx(1.0)
    assert slow_comm.finished_at == pytest.approx(10.0)


def test_declarative_async_comm_completes_at_launch():
    env = Environment()
    engine = TensorFlowEngine(env)
    background = env.event()
    op = engine.post(
        EngineOp("async", OpKind.COMM, launch=lambda: background, async_launch=True)
    )
    env.run()
    assert op.done.triggered
    assert not background.triggered


def test_declarative_proxy_blocks_until_release():
    env = Environment()
    engine = MXNetEngine(env)
    release = env.event()
    fired = []
    proxy = engine.post(
        EngineOp(
            "proxy",
            OpKind.PROXY,
            on_start=lambda: fired.append(env.now),
            release=release,
        )
    )
    downstream = engine.post(compute("down", 1.0, deps=[proxy]))

    def releaser(env):
        yield env.timeout(5.0)
        release.succeed()

    env.process(releaser(env))
    env.run()
    assert fired == [0.0]  # notify_ready fires immediately at start
    assert downstream.finished_at == pytest.approx(6.0)


def test_declarative_barrier_waits_all_deps():
    env = Environment()
    engine = TensorFlowEngine(env)
    a = engine.post(compute("a", 1.0))
    b = engine.post(compute("b", 3.0, deps=[a]))
    barrier = engine.post(EngineOp("barrier", OpKind.BARRIER, deps=[a, b]))
    env.run()
    assert barrier.finished_at == pytest.approx(4.0)


def test_imperative_strict_program_order():
    env = Environment()
    engine = PyTorchEngine(env)
    a = engine.post(compute("a", 1.0))
    b = engine.post(compute("b", 2.0))  # no declared dep; order suffices
    env.run()
    assert a.finished_at == pytest.approx(1.0)
    assert b.finished_at == pytest.approx(3.0)


def test_imperative_comm_launch_does_not_block_driver():
    env = Environment()
    engine = PyTorchEngine(env)
    comm = engine.post(EngineOp("comm", OpKind.COMM, launch=lambda: env.timeout(10.0)))
    after = engine.post(compute("after", 1.0))
    env.run()
    assert after.finished_at == pytest.approx(1.0)
    assert comm.finished_at == pytest.approx(10.0)


def test_imperative_barrier_blocks_driver_on_comm_completion():
    env = Environment()
    engine = PyTorchEngine(env)
    comm = engine.post(EngineOp("comm", OpKind.COMM, launch=lambda: env.timeout(5.0)))
    barrier = engine.post(EngineOp("barrier", OpKind.BARRIER, deps=[comm]))
    next_iter = engine.post(compute("next", 1.0))
    env.run()
    assert barrier.finished_at == pytest.approx(5.0)
    assert next_iter.finished_at == pytest.approx(6.0)


def test_imperative_proxy_hook_blocks_driver():
    env = Environment()
    engine = PyTorchEngine(env)
    release = env.event()
    proxy = engine.post(EngineOp("hook", OpKind.PROXY, release=release))
    after = engine.post(compute("after", 1.0))

    def releaser(env):
        yield env.timeout(3.0)
        release.succeed()

    env.process(releaser(env))
    env.run()
    assert proxy.finished_at == pytest.approx(3.0)
    assert after.finished_at == pytest.approx(4.0)


def test_barrier_flags():
    env = Environment()
    assert MXNetEngine(env).has_barrier is False
    assert TensorFlowEngine(env).has_barrier is True
    assert PyTorchEngine(env).has_barrier is True


def test_make_engine_by_name():
    env = Environment()
    assert make_engine("mxnet", env).style == "declarative"
    assert make_engine("pytorch", env).style == "imperative"
    with pytest.raises(ConfigError):
        make_engine("caffe", env)


def test_post_twice_rejected():
    env = Environment()
    engine = MXNetEngine(env)
    op = compute("a", 1.0)
    engine.post(op)
    with pytest.raises(ConfigError):
        engine.post(op)


def test_comm_requires_launch():
    with pytest.raises(ConfigError):
        EngineOp("bad", OpKind.COMM)


def test_dep_on_unposted_op_rejected():
    env = Environment()
    engine = MXNetEngine(env)
    ghost = compute("ghost", 1.0)
    op = compute("a", 1.0, deps=[ghost])
    engine.post(op)
    with pytest.raises(ConfigError):
        env.run()


def test_negative_duration_rejected():
    # NaN compares false with everything: a ``duration < 0`` check
    # alone would let it through, and the op would finish in zero time.
    for duration in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError):
            compute("bad", duration)
