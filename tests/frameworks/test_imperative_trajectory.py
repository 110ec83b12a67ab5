"""Trajectory pins and an order oracle for the imperative (PyTorch-style) engine.

The fingerprints below were recorded from the Store-backed driver the
engine used to run on.  They cover the same material as the end-to-end
benchmark's fingerprint (worker-0 markers, the backend's sync digest and
``repr`` of the speed), so any change to the engine's same-instant
ordering shows up here.  They must not be re-recorded to make a change
pass.

The property test replays random programs on the engine and on
:class:`StoreDrivenEngine`, a copy of that Store-backed driver kept only
as the oracle, and requires identical per-op timings and an identical
global order of observable firings.
"""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frameworks import EngineOp, OpKind, PyTorchEngine
from repro.frameworks.engine import Engine
from repro.sim import Environment, Store
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob, resolve_model


def _fingerprint(model: str, machines: int, scheduler: str) -> str:
    job = TrainingJob(
        resolve_model(model),
        ClusterSpec(
            machines=machines,
            transport="tcp",
            arch="allreduce",
            framework="pytorch",
            compute_jitter=0.02,
            seed=0,
        ),
        SchedulerSpec(kind=scheduler),
    )
    result = job.run(measure=2, warmup=2)
    material = repr(
        (
            tuple(job.markers[job.workers[0]]),
            tuple(job.backend.sync_digest()),
            repr(result.speed),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()


@pytest.mark.parametrize(
    "model, machines, scheduler, expected",
    [
        ("resnet50", 4, "dear",
         "bbae2dd046f960020076c77ca113f24dfe78e72c318d47996ba51be65b517f49"),
        ("resnet50", 4, "bytescheduler",
         "4d5ff9382744a95084492483b1d1219b53ac4042fa5379ae2588a368f88fdc56"),
        ("vgg16", 2, "fifo",
         "76926cc18f29a2300a61af09b20c1ae531e8a78d14d3073cab27aaee23669aa0"),
    ],
)
def test_pytorch_trajectory_pinned(model, machines, scheduler, expected):
    assert _fingerprint(model, machines, scheduler) == expected


class StoreDrivenEngine(Engine):
    """The imperative driver as it was on a :class:`~repro.sim.Store`."""

    def __init__(self, env: Environment) -> None:
        super().__init__(env, "store-driven")
        self._program = Store(env)
        env.process(self._run())

    def _accept(self, op: EngineOp) -> None:
        self._program.put(op)

    def _run(self):
        while True:
            op = yield self._program.get()
            if self.halted:
                continue
            op.started_at = self.env.now
            if op.kind is OpKind.COMM:
                completion = op.launch()
                if op.async_launch or completion is None:
                    op.finished_at = self.env.now
                    op.done.succeed(op)
                else:
                    completion.callbacks.append(lambda _evt, op=op: self._finish(op))
                continue
            if op.kind is OpKind.BARRIER:
                deps = op.dep_events()
                if deps:
                    yield self.env.all_of(deps)
            else:
                yield from self._run_op_body(op)
            self._finish(op)

    def _finish(self, op: EngineOp) -> None:
        op.finished_at = self.env.now
        op.done.succeed(op)


# -- random programs ------------------------------------------------------------

#: A coarse time grid, so posts, releases and completions often coincide.
_times = st.sampled_from([0.0, 0.5, 1.0])
#: ``None`` posts the op before the run starts; a time posts it from an
#: outside process at that instant.
_post_at = st.one_of(st.none(), _times)

_compute = st.tuples(st.just("compute"), _times)
_comm = st.tuples(st.just("comm"), st.one_of(st.none(), _times), st.booleans())
_proxy = st.tuples(st.just("proxy"), _times)
_barrier = st.tuples(st.just("barrier"), st.lists(st.integers(0, 10), max_size=3))

_programs = st.lists(
    st.tuples(_post_at, st.one_of(_compute, _comm, _proxy, _barrier)),
    min_size=1,
    max_size=10,
)


def _replay(engine_cls, program, halt_at):
    """Run ``program`` on a fresh ``engine_cls``; return per-op timings
    and the global log of observable firings."""
    env = Environment()
    engine = engine_cls(env)
    log = []
    ops = []

    def note(what):
        return lambda _arg=None: log.append((what, env.now))

    # Stable sort: ops posted at one instant go in program order, so a
    # barrier's dependencies are always posted before it.
    program = sorted(program, key=lambda entry: -1.0 if entry[0] is None else entry[0])
    for index, (post_at, spec) in enumerate(program):
        name = f"op{index}"
        kind = spec[0]
        if kind == "compute":
            op = EngineOp(name, OpKind.COMPUTE, duration=spec[1])
        elif kind == "comm":
            delay, async_launch = spec[1], spec[2]

            def launch(name=name, delay=delay):
                log.append((f"{name}.launch", env.now))
                return None if delay is None else env.timeout(delay)

            op = EngineOp(name, OpKind.COMM, launch=launch, async_launch=async_launch)
        elif kind == "proxy":
            release = env.event()
            op = EngineOp(
                name, OpKind.PROXY, on_start=note(f"{name}.start"), release=release
            )

            def releaser(release=release, at=spec[1], name=name):
                yield env.timeout(at)
                log.append((f"{name}.release", env.now))
                release.succeed()

            env.process(releaser())
        else:
            deps = sorted({ops[i] for i in spec[1] if i < len(ops)}, key=lambda o: o.name)
            op = EngineOp(name, OpKind.BARRIER, deps=deps)
        ops.append(op)

        def post(op=op):
            engine.post(op)
            op.done.callbacks.append(note(f"{op.name}.done"))

        if post_at is None:
            post()
        else:

            def poster(at=post_at, post=post, name=name):
                yield env.timeout(at)
                log.append((f"{name}.post", env.now))
                post()

            env.process(poster())

    if halt_at is not None:

        def halter():
            yield env.timeout(halt_at)
            log.append(("halt", env.now))
            engine.halt()

        env.process(halter())
    env.run()
    return [(op.name, op.started_at, op.finished_at) for op in ops], log


@settings(max_examples=300, deadline=None)
@given(program=_programs, halt_at=st.one_of(st.none(), _times))
# A post that wakes the parked driver at the instant an in-flight COMM
# completes: the driver must start the posted op before that COMM's
# ``done`` fires, as it did on the Store.
@example(program=[(None, ("comm", 0.5, False)), (0.5, ("proxy", 1.0))], halt_at=None)
def test_same_order_as_store_driven_engine(program, halt_at):
    assert _replay(PyTorchEngine, program, halt_at) == _replay(
        StoreDrivenEngine, program, halt_at
    )


# -- halt --------------------------------------------------------------------------


def _compute(name, duration):
    return EngineOp(name, OpKind.COMPUTE, duration=duration)


def test_halt_abandons_pending_and_later_ops():
    env = Environment()
    engine = PyTorchEngine(env)
    running = engine.post(_compute("running", 1.0))
    pending = engine.post(_compute("pending", 1.0))
    env.run(until=0.5)
    engine.halt()
    late = engine.post(_compute("late", 1.0))
    env.run()  # must return: nothing the driver waits on is scheduled
    assert env.now == pytest.approx(1.0)
    assert running.finished_at == pytest.approx(1.0)
    assert running.done.processed
    for op in (pending, late):
        assert op.started_at is None
        assert not op.done.triggered
    assert engine._driver.is_alive


def test_halted_idle_driver_drains_without_running():
    env = Environment()
    engine = PyTorchEngine(env)
    env.run()  # the driver parks waiting for work
    engine.halt()
    ops = [engine.post(_compute(f"op{i}", 1.0)) for i in range(3)]
    env.run()
    assert env.now == 0.0
    assert all(op.started_at is None and not op.done.triggered for op in ops)
    assert engine._driver.is_alive
    assert not env._pending()
