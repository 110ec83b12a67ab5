"""Tests for the §7 extensions: online re-tuning and per-layer partitions."""

import math

import pytest

from repro.errors import SchedulerError, TuningError
from repro.models import custom_model
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob
from repro.tuning import AdaptiveTuner, OnlineTuner, SearchSpace
from repro.units import MB


def make_job(arch="allreduce", kind="bytescheduler", partition=2 * MB, credit=4 * MB):
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=2, arch=arch, transport="rdma",
        framework="mxnet", bandwidth_gbps=25,
    )
    model = custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB],
        fp_times=[0.002] * 3,
        bp_times=[0.004] * 3,
        batch_size=16,
    )
    spec = SchedulerSpec(kind=kind, partition_bytes=partition, credit_bytes=credit)
    return TrainingJob(model, cluster, spec)


SPACE = SearchSpace(1 * MB, 64 * MB, 2 * MB, 256 * MB)


def test_online_tuner_improves_bad_initial_knobs():
    job = make_job(partition=1 * MB, credit=1 * MB)  # badly under-tuned
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2, seed=0)
    result = tuner.run(segments=6, final_iterations=3)
    first_speed = result.segments[0][1]
    assert result.final_speed >= first_speed * 0.95
    assert result.best_speed >= max(s for _p, s in result.segments) - 1e-9
    assert result.num_segments == 6


def test_online_tuner_allreduce_retunes_without_restart_cost():
    job = make_job(arch="allreduce")
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2)
    result = tuner.run(segments=4)
    assert result.restart_overhead == 0.0


def test_online_tuner_ps_charges_restarts():
    job = make_job(arch="ps")
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2, restart_penalty=5.0)
    result = tuner.run(segments=4)
    # BO explores: at least one partition change across 4 segments.
    assert result.restart_overhead >= 5.0


def test_online_tuner_rejects_fifo_jobs():
    job = make_job(kind="fifo", partition=4 * MB, credit=16 * MB)
    with pytest.raises(TuningError):
        OnlineTuner(job, space=SPACE)


def test_online_tuner_rejects_dear_jobs():
    """DeAR has no partition/credit knobs — tuning it is a caller bug."""
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=2, arch="allreduce", transport="rdma",
        framework="pytorch", bandwidth_gbps=25,
    )
    model = custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB],
        fp_times=[0.002] * 3,
        bp_times=[0.004] * 3,
        batch_size=16,
    )
    job = TrainingJob(model, cluster, SchedulerSpec(kind="dear"))
    with pytest.raises(TuningError, match="no partition/credit knobs"):
        OnlineTuner(job, space=SPACE)


def test_online_tuner_validation():
    job = make_job()
    with pytest.raises(TuningError):
        OnlineTuner(job, space=SPACE, segment_iterations=0)
    tuner = OnlineTuner(job, space=SPACE)
    with pytest.raises(TuningError):
        tuner.run(segments=0)


@pytest.mark.parametrize("tuner_cls", [OnlineTuner, AdaptiveTuner])
@pytest.mark.parametrize("penalty", [-1.0, math.nan])
def test_live_tuners_reject_bad_restart_penalty(tuner_cls, penalty):
    with pytest.raises(TuningError, match="restart_penalty"):
        tuner_cls(make_job(arch="ps"), space=SPACE, restart_penalty=penalty)


def test_job_reconfigure_applies_to_later_iterations():
    job = make_job(partition=2 * MB)
    job.extend(2)
    job.drain()
    job.reconfigure(partition_bytes=8 * MB, credit_bytes=32 * MB)
    job.extend(2)
    job.drain()
    core = job.master_core
    assert core.partition_bytes == 8 * MB
    assert core.credit_capacity == 32 * MB


def test_segment_speed_validation():
    job = make_job()
    job.extend(3)
    job.drain()
    assert job.segment_speed(1, 3) > 0
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        job.segment_speed(0, 3)  # needs a previous marker
    with pytest.raises(ConfigError):
        job.segment_speed(2, 9)  # beyond what was built


def test_per_layer_partition_overrides():
    """§7: different partition sizes for different layers."""
    cluster = ClusterSpec(machines=2, gpus_per_machine=2, bandwidth_gbps=25)
    model = custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB],
        fp_times=[0.002] * 3,
        bp_times=[0.004] * 3,
        batch_size=16,
    )
    spec = SchedulerSpec(
        kind="bytescheduler",
        partition_bytes=4 * MB,
        credit_bytes=16 * MB,
        partition_overrides=((1, 12 * MB),),
    )
    job = TrainingJob(model, cluster, spec)
    job.extend(1)
    job.drain()
    assert job.master_core.partition_overrides == {1: 12 * MB}


def test_partition_override_chunk_counts():
    from repro.comm.base import CommBackend
    from repro.core import ByteSchedulerCore
    from repro.sim import Environment

    class NullBackend(CommBackend):
        is_collective = True
        workers = ("m0",)

        def start_chunk(self, chunk, on_sent, on_done, token):  # pragma: no cover
            raise AssertionError  # partitioning alone starts nothing

    env = Environment()
    core = ByteSchedulerCore(
        env,
        NullBackend(),
        partition_bytes=4 * MB,
        partition_overrides={1: 12 * MB},
    )
    default_task = core.create_task(0, 0, 24 * MB)
    override_task = core.create_task(0, 1, 24 * MB)
    assert len(default_task.subtasks) == 6
    assert len(override_task.subtasks) == 2


def test_partition_override_validation():
    from repro.comm.base import CommBackend
    from repro.core import ByteSchedulerCore
    from repro.sim import Environment

    class NullBackend(CommBackend):
        is_collective = True
        workers = ("m0",)

        def start_chunk(self, chunk, on_sent, on_done, token):  # pragma: no cover
            raise AssertionError

    env = Environment()
    with pytest.raises(SchedulerError):
        ByteSchedulerCore(
            env, NullBackend(), partition_overrides={0: -1.0}
        )


# -- restart accounting (PS) ------------------------------------------------


class _FixedSearcher:
    """Stub searcher that always suggests one point."""

    def __init__(self, point):
        self._point = point
        self.history = []

    def suggest(self):
        return self._point

    def observe(self, point, speed):
        self.history.append((point, speed))

    def best(self):
        return max(self.history, key=lambda entry: entry[1])


def test_first_differing_suggestion_charges_restart():
    # Regression: last_partition must seed from the job's *current*
    # partition, so the very first suggestion that changes it is
    # charged too — not just changes between suggestions.
    job = make_job(arch="ps", partition=2 * MB, credit=8 * MB)
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2,
                        restart_penalty=7.0)
    tuner.searcher = _FixedSearcher((8 * MB, 32 * MB))
    result = tuner.run(segments=3, final_iterations=2)
    # One partition change (2 MB -> 8 MB on the first segment), then
    # the stub holds the point steady: exactly one penalty.
    assert result.restart_overhead == pytest.approx(7.0)


class _ScriptedSearcher(_FixedSearcher):
    """Stub searcher that suggests ``points`` in turn and names
    ``best_point`` the best, whatever it measured."""

    def __init__(self, points, best_point):
        super().__init__(None)
        self._points = list(points)
        self._best_point = best_point

    def suggest(self):
        return self._points.pop(0)

    def best(self):
        return self._best_point, 0.0


def test_final_switch_to_best_charges_restart():
    # Regression: the finish moves back to the best point, and on PS
    # that partition change is a checkpoint-restart like any other.
    job = make_job(arch="ps", partition=2 * MB, credit=8 * MB)
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2,
                        restart_penalty=7.0)
    tuner.searcher = _ScriptedSearcher(
        [(8 * MB, 8 * MB), (2 * MB, 8 * MB), (2 * MB, 8 * MB)],
        best_point=(8 * MB, 8 * MB),
    )
    result = tuner.run(segments=3, final_iterations=2)
    # 2 -> 8 MB, 8 -> 2 MB, then the final 2 -> 8 MB: three restarts.
    assert result.restart_overhead == pytest.approx(21.0)
    assert job.master_core.partition_bytes == 8 * MB


def test_unchanged_suggestion_is_free():
    job = make_job(arch="ps", partition=8 * MB, credit=32 * MB)
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2,
                        restart_penalty=7.0)
    tuner.searcher = _FixedSearcher((8 * MB, 32 * MB))
    result = tuner.run(segments=3, final_iterations=2)
    assert result.restart_overhead == 0.0


# -- membership change-point resets -----------------------------------------


def _elastic_job(plan_spec="leave:w1@0.05;join:w1@0.15", seed=0):
    from repro.faults import FaultPlan
    from repro.recovery import MembershipSpec

    cluster = ClusterSpec(
        machines=4, gpus_per_machine=1, arch="ps", seed=seed
    )
    model = custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB],
        fp_times=[0.002] * 3,
        bp_times=[0.004] * 3,
        batch_size=16,
    )
    spec = SchedulerSpec(
        kind="bytescheduler", partition_bytes=8 * MB, credit_bytes=32 * MB
    )
    return TrainingJob(
        model,
        cluster,
        spec,
        fault_plan=FaultPlan.parse(f"{plan_spec};seed:{seed}"),
        membership_spec=MembershipSpec(min_workers=1),
    )


def test_epoch_change_resets_searcher_and_retunes():
    job = _elastic_job()
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2, seed=0)
    result = tuner.run(segments=6, final_iterations=2)
    # Both scale events matured while tuning ran.
    assert job.membership.epoch == 2
    assert result.change_point_resets >= 1
    # The run still converges to a usable configuration.
    assert result.final_speed > 0
    assert result.segments
    # Post-reset history only: resets discarded the stale profiles.
    assert result.num_segments < 6 + 1


def test_static_job_never_resets():
    job = make_job(arch="allreduce")
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2)
    result = tuner.run(segments=4)
    assert result.change_point_resets == 0
