"""Edge-case tests for engine op semantics."""

import pytest

from repro.frameworks import EngineOp, MXNetEngine, OpKind, PyTorchEngine
from repro.sim import Completion, Environment


def test_comm_launch_returning_none_completes_immediately():
    env = Environment()
    engine = MXNetEngine(env)
    calls = []
    op = engine.post(
        EngineOp("comm", OpKind.COMM, launch=lambda: calls.append(1) or None)
    )
    env.run()
    assert op.done
    assert calls == [1]


def test_imperative_comm_launch_none_does_not_block():
    env = Environment()
    engine = PyTorchEngine(env)
    engine.post(EngineOp("comm", OpKind.COMM, launch=lambda: None))
    after = engine.post(EngineOp("after", OpKind.COMPUTE, duration=1.0))
    env.run()
    assert after.finished_at == pytest.approx(1.0)


def test_proxy_with_already_fired_release_continues():
    env = Environment()
    engine = MXNetEngine(env)
    release = Completion()
    release.complete(env)
    proxy = engine.post(EngineOp("proxy", OpKind.PROXY, release=release))
    env.run()
    assert proxy.done


def test_zero_duration_compute_op():
    env = Environment()
    engine = MXNetEngine(env)
    op = engine.post(EngineOp("instant", OpKind.COMPUTE, duration=0.0))
    env.run()
    assert op.finished_at == 0.0


def test_barrier_with_no_deps_completes_immediately():
    env = Environment()
    engine = MXNetEngine(env)
    barrier = engine.post(EngineOp("barrier", OpKind.BARRIER))
    env.run()
    assert barrier.done


def test_record_ops_retains_history():
    env = Environment()
    engine = MXNetEngine(env)
    engine.record_ops = True
    a = engine.post(EngineOp("a", OpKind.COMPUTE, duration=0.1))
    b = engine.post(EngineOp("b", OpKind.COMPUTE, duration=0.1, deps=[a]))
    env.run()
    assert engine.ops == [a, b]


def test_record_ops_off_by_default():
    env = Environment()
    engine = MXNetEngine(env)
    engine.post(EngineOp("a", OpKind.COMPUTE, duration=0.1))
    env.run()
    assert engine.ops == []


def test_op_seq_is_posting_order():
    env = Environment()
    engine = MXNetEngine(env)
    ops = [engine.post(EngineOp(f"op{i}", OpKind.COMPUTE, duration=0.1)) for i in range(4)]
    assert [op.seq for op in ops] == [0, 1, 2, 3]


def test_deps_accept_bare_completions():
    env = Environment()
    engine = MXNetEngine(env)
    gate = Completion()
    op = engine.post(EngineOp("gated", OpKind.COMPUTE, duration=0.5, deps=[gate]))
    env.defer(gate.complete, env, 2.0)
    env.run()
    assert op.finished_at == pytest.approx(2.5)
