"""Unit tests for the framework adapters (Dependency Proxy wiring)."""


import pytest

from repro.comm.base import CommBackend
from repro.core import (
    ByteSchedulerAdapter,
    ByteSchedulerCore,
    CommTask,
    ReadyCountdown,
    VanillaAdapter,
    make_adapter,
)
from repro.errors import SchedulerError
from repro.frameworks import EngineOp, MXNetEngine, OpKind, PyTorchEngine, TensorFlowEngine
from repro.sim import Environment


class SlowBackend(CommBackend):
    """Chunks take a fixed time; records start order."""

    is_collective = True

    def __init__(self, env, service=1.0):
        self.env = env
        self.service = service
        self.starts = []

    @property
    def workers(self):
        return ("m0",)

    def start_chunk(self, chunk, on_sent, on_done, token):
        self.starts.append((self.env.now, chunk.layer))
        self.env.defer(_fire, (on_sent, on_done, token), self.service)


def _fire(milestones):
    """A chunk's completion entry: both milestones, sent first."""
    on_sent, on_done, token = milestones
    on_sent(token)
    on_done(token)


def setup(engine_cls, scheduled, env=None, service=1.0, **core_kwargs):
    env = env or Environment()
    backend = SlowBackend(env, service=service)
    core = ByteSchedulerCore(env, backend, **core_kwargs)
    engine = engine_cls(env)
    adapter = make_adapter(scheduled, engine, core)
    return env, backend, core, engine, adapter


def make_task(core, iteration, layer, size=100.0):
    task = core.create_task(iteration, layer, size)
    return task, ReadyCountdown(task, 1)


def bp_stub(engine, duration=1.0, name="bp"):
    return engine.post(EngineOp(name, OpKind.COMPUTE, duration=duration))


def test_adapter_factory():
    env, _b, core, engine, _a = setup(MXNetEngine, scheduled=True)
    assert isinstance(make_adapter(True, engine, core), ByteSchedulerAdapter)
    assert isinstance(make_adapter(False, engine, core), VanillaAdapter)


def test_vanilla_comm_waits_for_bp_then_completes_at_finish():
    env, backend, core, engine, adapter = setup(MXNetEngine, scheduled=False)
    bp = bp_stub(engine, duration=2.0)
    task, countdown = make_task(core, 0, 0)
    comm = adapter.post_comm(0, 0, bp, task, countdown)
    env.run()
    assert backend.starts == [(2.0, 0)]  # launched right after bp
    assert comm.finished_at == pytest.approx(3.0)  # bp + 1s transfer


def test_vanilla_forward_gate_is_comm_op_without_barrier():
    env, backend, core, engine, adapter = setup(MXNetEngine, scheduled=False)
    bp = bp_stub(engine)
    task, countdown = make_task(core, 0, 0)
    comm = adapter.post_comm(0, 0, bp, task, countdown)
    assert adapter.forward_gate(1, 0) is comm
    assert adapter.forward_gate(0, 0) is None


def test_vanilla_barrier_engine_gates_on_barrier():
    env, backend, core, engine, adapter = setup(TensorFlowEngine, scheduled=False)
    bp = bp_stub(engine)
    task, countdown = make_task(core, 0, 0)
    adapter.post_comm(0, 0, bp, task, countdown)
    barrier = adapter.finish_iteration(0)
    assert barrier is not None
    assert adapter.forward_gate(1, 0) is barrier
    env.run()
    assert barrier.finished_at == pytest.approx(2.0)  # waits the transfer


def test_bytescheduler_ready_proxy_fires_notify_ready():
    env, backend, core, engine, adapter = setup(MXNetEngine, scheduled=True)
    bp = bp_stub(engine, duration=1.5)
    task, countdown = make_task(core, 0, 0)
    adapter.post_comm(0, 0, bp, task, countdown)
    env.run()
    assert backend.starts == [(1.5, 0)]  # scheduled only after bp


def test_bytescheduler_held_comm_gates_forward_until_finish():
    env, backend, core, engine, adapter = setup(MXNetEngine, scheduled=True)
    bp = bp_stub(engine, duration=1.0)
    task, countdown = make_task(core, 0, 0)
    held = adapter.post_comm(0, 0, bp, task, countdown)
    gate = adapter.forward_gate(1, 0)
    assert gate is held
    fp_next = engine.post(EngineOp("fp1", OpKind.COMPUTE, deps=[gate], duration=0.5))
    env.run()
    # bp 1.0 + transfer 1.0, then forward 0.5.
    assert fp_next.finished_at == pytest.approx(2.5)


def test_barrier_crossing_lets_barrier_pass_early():
    """The §3.4 design: with ByteScheduler, the global barrier passes as
    soon as BP is done, while the transfer keeps running out of engine."""
    env, backend, core, engine, adapter = setup(TensorFlowEngine, scheduled=True, service=10.0)
    bp = bp_stub(engine, duration=1.0)
    task, countdown = make_task(core, 0, 0)
    adapter.post_comm(0, 0, bp, task, countdown)
    barrier = adapter.finish_iteration(0)
    gate = adapter.forward_gate(1, 0)
    fp_next = engine.post(EngineOp("fp1", OpKind.COMPUTE, deps=[gate], duration=0.5))
    env.run()
    assert barrier.finished_at == pytest.approx(1.0)  # crossed!
    # ...but the layer's forward proxy still enforced the dependency.
    assert fp_next.finished_at == pytest.approx(11.5)


def test_vanilla_barrier_engine_blocks_without_crossing():
    """Contrast case: the vanilla adapter's barrier waits for the slow
    transfer, so the next forward cannot start early."""
    env, backend, core, engine, adapter = setup(TensorFlowEngine, scheduled=False, service=10.0)
    bp = bp_stub(engine, duration=1.0)
    task, countdown = make_task(core, 0, 0)
    adapter.post_comm(0, 0, bp, task, countdown)
    barrier = adapter.finish_iteration(0)
    env.run()
    assert barrier.finished_at == pytest.approx(11.0)


def test_imperative_hooks_block_driver():
    env, backend, core, engine, adapter = setup(PyTorchEngine, scheduled=True, service=5.0)
    bp = bp_stub(engine, duration=1.0)
    task, countdown = make_task(core, 0, 0)
    adapter.post_comm(0, 0, bp, task, countdown)
    barrier = adapter.finish_iteration(0)
    gate = adapter.forward_gate(1, 0)
    fp_next = engine.post(EngineOp("fp1", OpKind.COMPUTE, deps=[gate], duration=0.5))
    env.run()
    assert barrier.finished_at == pytest.approx(1.0)
    assert fp_next.finished_at == pytest.approx(6.5)


def test_collective_countdown_requires_all_parties():
    env = Environment()
    backend = SlowBackend(env)
    core = ByteSchedulerCore(env, backend)
    task = core.create_task(0, 0, 100.0)
    countdown = ReadyCountdown(task, parties=3)
    countdown.arrive()
    countdown.arrive()
    env.run()
    assert backend.starts == []  # not everyone ready
    countdown.arrive()
    env.run()
    assert len(backend.starts) == 1


def test_countdown_over_arrival_rejected():
    env = Environment()
    backend = SlowBackend(env)
    core = ByteSchedulerCore(env, backend)
    task = core.create_task(0, 0, 100.0)
    countdown = ReadyCountdown(task, parties=1)
    countdown.arrive()
    with pytest.raises(SchedulerError):
        countdown.arrive()


def test_countdown_validation():
    env = Environment()
    backend = SlowBackend(env)
    core = ByteSchedulerCore(env, backend)
    task = CommTask(core, 0, 0, 100.0)
    with pytest.raises(SchedulerError):
        ReadyCountdown(task, parties=0)
