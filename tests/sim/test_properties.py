"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_deferred_entries_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []
    for index, delay in enumerate(delays):
        env.defer(lambda i: fired.append((env.now, i)), index, delay)
    env.run()
    times = [time for time, _index in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=20))
@settings(max_examples=40, deadline=None)
def test_equal_time_entries_fire_in_schedule_order(delays):
    env = Environment()
    fired = []
    for index, delay in enumerate(delays):
        env.defer(fired.append, index, delay)
    env.run()
    # Stable: among equal delays, earlier-scheduled fires first.
    by_key = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert fired == by_key


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=15),
    seed_order=st.randoms(use_true_random=False),
)
@settings(max_examples=30, deadline=None)
def test_simulation_is_deterministic(delays, seed_order):
    def run():
        env = Environment()
        log = []

        def second(tag):
            log.append((env.now, tag))

        def first(entry):
            delay, tag = entry
            log.append((env.now, tag))
            env.defer(second, tag, delay / 2)

        for index, delay in enumerate(delays):
            env.defer(first, (delay, index), delay)
        env.run()
        return log

    assert run() == run()


# -- faulted-run determinism regression -------------------------------------


def _faulted_trace(seed):
    """One traced faulted run; returns (spans, points, speed)."""
    from repro.faults import FaultPlan
    from repro.training import ClusterSpec, SchedulerSpec, TrainingJob
    from repro.training.runner import resolve_model

    plan = FaultPlan.parse(
        "straggler:w0@0.0-infx1.4;slowlink:w1.up@0.0-0.02x0.5;loss:0.05"
    ).with_seed(seed)
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=1, retry_timeout=0.02
    )
    spec = SchedulerSpec(kind="bytescheduler", partition_bytes=8e6, credit_bytes=32e6)
    job = TrainingJob(
        resolve_model("resnet50"), cluster, spec,
        enable_trace=True, fault_plan=plan,
    )
    result = job.run(measure=2, warmup=1)
    return job.trace.spans, job.trace.points, result.speed


def test_faulted_run_is_deterministic_for_equal_seeds():
    """The same fault plan + seed twice → byte-identical trace."""
    spans_a, points_a, speed_a = _faulted_trace(seed=7)
    spans_b, points_b, speed_b = _faulted_trace(seed=7)
    assert speed_a == speed_b
    assert points_a == points_b
    assert spans_a == spans_b
    # Byte-identical, not merely approximately equal.
    assert repr(spans_a) == repr(spans_b)


def test_faulted_runs_diverge_across_seeds():
    """Different seeds draw different loss patterns → different traces."""
    spans_a, _points_a, speed_a = _faulted_trace(seed=7)
    spans_b, _points_b, speed_b = _faulted_trace(seed=8)
    assert (spans_a, speed_a) != (spans_b, speed_b)
