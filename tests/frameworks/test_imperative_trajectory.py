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
global order of observable firings.  The kernel no longer has
generator processes, a wait-for-all condition or a Store, so the oracle
runs on test-local copies of the three (:class:`_Process`,
:func:`_all_of`, :class:`_Fifo`) that schedule their events at the
points the kernel's did.  The failure tests hold the engine
to the same oracle when a release, a completion or a barrier
dependency fails: the same exception from ``env.run()``, raised by the
same kernel entry.
"""

import gc
import hashlib
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frameworks import EngineOp, OpKind, PyTorchEngine
from repro.frameworks.engine import Engine
from repro.sim import Environment, Event
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


class _Process(Event):
    """A generator resumed each time the event it yields fires, and an
    event that succeeds with its return value or fails with what
    escaped it.  Kicked off by one deferred entry."""

    def __init__(self, env: Environment, generator) -> None:
        super().__init__(env)
        self._generator = generator
        env.defer(self._resume)

    def _resume(self, event=None) -> None:
        while True:
            try:
                if event is None or event._ok:
                    event = self._generator.send(None if event is None else event._value)
                else:
                    event.defused = True
                    event = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if event.callbacks is not None:
                event.callbacks.append(self._resume)
                return


def _all_of(env: Environment, events) -> Event:
    """An event that succeeds once every one of ``events`` has, or
    fails with the first failure among them."""
    done = env.event()
    left = len(events)

    def check(event: Event) -> None:
        nonlocal left
        if not event._ok:
            event.defused = True
            if not done.triggered:
                done.fail(event._value)
            return
        left -= 1
        if not left and not done.triggered:
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
        self.env.event().succeed()
        self._items.append(item)
        self._serve()

    def get(self) -> Event:
        get = self.env.event()
        self._getters.append(get)
        self._serve()
        return get

    def _serve(self) -> None:
        while self._items and self._getters:
            self._getters.popleft().succeed(self._items.popleft())


class StoreDrivenEngine(Engine):
    """The imperative driver as it was on the kernel's Store."""

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
                    op.finished_at = self.env.now
                    op.done.succeed(op)
                else:
                    completion.callbacks.append(lambda _evt, op=op: self._finish(op))
                continue
            if op.kind is OpKind.BARRIER:
                deps = op.dep_events()
                if deps:
                    yield _all_of(self.env, deps)
            else:
                yield from self._run_op_body(op)
            self._finish(op)

    def _finish(self, op: EngineOp) -> None:
        op.finished_at = self.env.now
        op.done.succeed(op)

    def _run_op_body(self, op: EngineOp):
        """The op body both engines once shared (the declarative engine
        keeps its own copy)."""
        if op.kind is OpKind.COMPUTE:
            duration = op.duration
            if self.compute_scale is not None:
                duration = self.compute_scale(self.env.now, duration)
            if duration > 0:
                yield self.env.timeout(duration)
        elif op.kind is OpKind.COMM:
            completion = op.launch()
            if not op.async_launch and completion is not None:
                yield completion
        elif op.kind is OpKind.PROXY:
            if op.on_start is not None:
                op.on_start()
            if op.release is not None and not op.release.processed:
                yield op.release
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
                return None if delay is None else env.timeout(delay)

            op = EngineOp(name, OpKind.COMM, launch=launch, async_launch=async_launch)
        elif kind == "proxy":
            release = env.event()
            op = EngineOp(
                name, OpKind.PROXY, on_start=note(f"{name}.start"), release=release
            )

            def releaser(release, name=name):
                log.append((f"{name}.release", env.now))
                release.succeed()

            env.defer(releaser, release, spec[1])
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
    assert running.done.processed
    for op in (pending, late):
        assert op.started_at is None
        assert not op.done.triggered
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
    assert all(op.started_at is None and not op.done.triggered for op in ops)
    assert not any(_queued(op) for op in ops)
    assert not env._pending()


# -- failures ----------------------------------------------------------------------


class _Boom(Exception):
    pass


def _failing_run(engine_cls, kind):
    """Block ``kind`` on an event that fails at t=1, with compute ops
    before and after it; return what both drivers must agree on."""
    env = Environment()
    engine = engine_cls(env)
    trouble = env.event()
    boom = _Boom(kind)
    log = []
    if kind == "proxy":
        blocked = EngineOp("blocked", OpKind.PROXY, release=trouble)
    elif kind == "comm":
        blocked = EngineOp("blocked", OpKind.COMM, launch=lambda: trouble)
    else:
        blocked = EngineOp("blocked", OpKind.BARRIER, deps=[trouble])
    ops = [_compute("before", 0.5), blocked, _compute("after", 1.0)]
    for op in ops:
        engine.post(op)
        op.done.callbacks.append(lambda _evt, name=op.name: log.append((name, env.now)))

    def failer(step):
        if step is None:
            trouble.fail(boom)
        else:
            log.append((f"failer{step}", env.now))
        # Same-instant entries queued behind the failure, to pin down
        # which kernel entry raises it.
        step = 0 if step is None else step + 1
        if step < 3:
            env.defer(failer, step)

    env.defer(failer, None, 1.0)
    with pytest.raises(_Boom) as raised:
        env.run()
    assert raised.value is boom
    raised = (env.now, list(log))
    env.run()  # the rest of the run, after the caller handled the failure
    return raised, env.now, [(op.name, op.started_at, op.finished_at) for op in ops], log


@pytest.mark.parametrize("kind", ["proxy", "comm", "barrier"])
def test_failure_surfaces_like_store_driven_engine(kind):
    outcome = _failing_run(PyTorchEngine, kind)
    assert outcome == _failing_run(StoreDrivenEngine, kind)
    (raised_at, _logged), _end, timings, _log = outcome
    assert raised_at == 1.0
    if kind != "comm":
        # The failed wait stops the driver: the op it blocked never
        # finishes and nothing behind it starts.
        assert timings[1:] == [("blocked", 0.5, None), ("after", None, None)]
