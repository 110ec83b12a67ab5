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
global order of observable firings.  The kernel no longer has events,
generator processes, a wait-for-all condition or a Store, so the oracle
runs on test-local copies of the four (:class:`_Event`,
:class:`_Process`, :func:`_all_of`, :class:`_Fifo`) that schedule
their entries at the points the kernel's did.  An op, a release and a
launch's completion are :class:`~repro.sim.Completion`\\ s; the oracle
waits on one through an event that its listener succeeds
(:func:`_as_event`).
"""

import gc
import hashlib
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frameworks import EngineOp, OpKind, PyTorchEngine
from repro.frameworks.engine import Engine
from repro.sim import Completion, Environment
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


class _Event:
    """The kernel's one-shot event, as the oracle's driver used it:
    :meth:`succeed` schedules one entry, which runs the callbacks
    added until it fires; a callback added later is the caller's to
    run."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.callbacks = []
        self.triggered = False
        self.value = None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    def succeed(self, value=None) -> "_Event":
        self.triggered = True
        self.value = value
        self.env.defer(_Event._process, self)
        return self

    def succeed_inline(self, value=None) -> None:
        self.triggered = True
        self.value = value
        self._process()

    def _process(self, _arg=None) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)


def _timeout(env: Environment, delay: float) -> _Event:
    """An event that fires ``delay`` from now: one entry, issued now."""
    event = _Event(env)
    event.triggered = True
    env.defer(_Event._process, event, delay)
    return event


def _as_event(env: Environment, completion: Completion) -> _Event:
    """An event processed in the entry that runs ``completion``'s
    listeners, or already processed if they have run."""
    event = _Event(env)
    completion.then(lambda _completion: event.succeed_inline())
    return event


class _Process(_Event):
    """A generator resumed each time the event it yields fires, and an
    event that succeeds with its return value.  Kicked off by one
    deferred entry."""

    def __init__(self, env: Environment, generator) -> None:
        super().__init__(env)
        self._generator = generator
        env.defer(self._resume)

    def _resume(self, event=None) -> None:
        while True:
            try:
                event = self._generator.send(None if event is None else event.value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            if event.callbacks is not None:
                event.callbacks.append(self._resume)
                return


def _all_of(env: Environment, events) -> _Event:
    """An event that succeeds once every one of ``events`` has."""
    done = _Event(env)
    left = len(events)

    def check(_event) -> None:
        nonlocal left
        left -= 1
        if not left:
            done.succeed()

    for event in events:
        if event.callbacks is None:
            check(event)
        else:
            event.callbacks.append(check)
    return done


class _Fifo:
    """An unbounded FIFO of items, scheduled as the kernel's Store was: a
    put schedules an entry that nothing listens to, and a get is an
    event that succeeds with the oldest item once there is one."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items = deque()
        self._getters = deque()

    def put(self, item) -> None:
        _Event(self.env).succeed()
        self._items.append(item)
        self._serve()

    def get(self) -> _Event:
        get = _Event(self.env)
        self._getters.append(get)
        self._serve()
        return get

    def _serve(self) -> None:
        while self._items and self._getters:
            self._getters.popleft().succeed(self._items.popleft())


class StoreDrivenEngine(Engine):
    """The imperative driver as it was on the kernel's Store.

    It completes an op with :meth:`~repro.sim.Completion.complete`,
    which issues the entry the op's completion event did as long as
    the op has a listener: every op of these programs has one from
    its post on.
    """

    def __init__(self, env: Environment) -> None:
        super().__init__(env, "store-driven")
        self._program = _Fifo(env)
        _Process(env, self._run())

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
                    self._finish(op)
                else:
                    completion.then(lambda _completion, op=op: self._finish(op))
                continue
            if op.kind is OpKind.BARRIER:
                deps = [_as_event(self.env, dep) for dep in op.deps]
                if deps:
                    yield _all_of(self.env, deps)
            else:
                yield from self._run_op_body(op)
            self._finish(op)

    def _finish(self, op: EngineOp) -> None:
        op.finished_at = self.env.now
        op.complete(self.env)

    def _run_op_body(self, op: EngineOp):
        """The op body both engines once shared (the declarative engine
        keeps its own copy)."""
        if op.kind is OpKind.COMPUTE:
            duration = op.duration
            if self.compute_scale is not None:
                duration = self.compute_scale(self.env.now, duration)
            if duration > 0:
                yield _timeout(self.env, duration)
        elif op.kind is OpKind.COMM:
            completion = op.launch()
            if not op.async_launch and completion is not None:
                yield _as_event(self.env, completion)
        elif op.kind is OpKind.PROXY:
            if op.on_start is not None:
                op.on_start()
            if op.release is not None:
                yield _as_event(self.env, op.release)
        elif op.kind is OpKind.BARRIER:
            pass  # deps were awaited by the engine already
        return None


# -- random programs ------------------------------------------------------------

#: A coarse time grid, so posts, releases and completions often coincide.
_times = st.sampled_from([0.0, 0.5, 1.0])
#: ``None`` posts the op before the run starts; a time posts it from a
#: deferred entry at that instant.
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
                if delay is None:
                    return None
                completion = Completion()
                env.defer(Completion.fire, completion, delay)
                return completion

            op = EngineOp(name, OpKind.COMM, launch=launch, async_launch=async_launch)
        elif kind == "proxy":
            release = Completion()
            op = EngineOp(
                name, OpKind.PROXY, on_start=note(f"{name}.start"), release=release
            )

            def releaser(release, name=name):
                log.append((f"{name}.release", env.now))
                release.complete(env)

            env.defer(releaser, release, spec[1])
        else:
            deps = sorted({ops[i] for i in spec[1] if i < len(ops)}, key=lambda o: o.name)
            op = EngineOp(name, OpKind.BARRIER, deps=deps)
        ops.append(op)

        def post(op=op):
            engine.post(op)
            op.then(note(f"{op.name}.done"))

        if post_at is None:
            post()
        else:

            def poster(name, post=post):
                log.append((f"{name}.post", env.now))
                post()

            env.defer(poster, name, post_at)

    if halt_at is not None:

        def halter(_arg):
            log.append(("halt", env.now))
            engine.halt()

        env.defer(halter, None, halt_at)
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


def _queued(op):
    """True while a FIFO (a deque) still holds ``op``."""
    return any(isinstance(ref, deque) for ref in gc.get_referrers(op))


def test_halt_abandons_pending_and_later_ops():
    env = Environment()
    engine = PyTorchEngine(env)
    running = engine.post(_compute("running", 1.0))
    pending = engine.post(_compute("pending", 1.0))
    env.run(until=0.5)
    engine.halt()
    late = engine.post(_compute("late", 1.0))
    assert _queued(late)
    env.run()  # must return: nothing the driver waits on is scheduled
    assert env.now == pytest.approx(1.0)
    assert running.finished_at == pytest.approx(1.0)
    assert running.done
    for op in (pending, late):
        assert op.started_at is None
        assert not op.done
        assert not _queued(op)  # the halted driver drained it
    assert not env._pending()


def test_halted_idle_driver_drains_without_running():
    env = Environment()
    engine = PyTorchEngine(env)
    env.run()  # the driver goes idle waiting for work
    engine.halt()
    ops = [engine.post(_compute(f"op{i}", 1.0)) for i in range(3)]
    env.run()
    assert env.now == 0.0
    assert all(op.started_at is None and not op.done for op in ops)
    assert not any(_queued(op) for op in ops)
    assert not env._pending()
