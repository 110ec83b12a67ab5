"""The drift-tracking adaptive tuner: detector, lattice moves, e2e."""

import math

import pytest

from repro.errors import TuningError
from repro.faults import FaultPlan
from repro.models import custom_model
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob
from repro.tuning import AdaptiveTuner, PageHinkley, SearchSpace
from repro.units import MB


def make_job(
    arch="allreduce",
    kind="bytescheduler",
    partition=2 * MB,
    credit=4 * MB,
    fault_plan=None,
    enable_trace=False,
):
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
    return TrainingJob(
        model, cluster, spec, fault_plan=fault_plan, enable_trace=enable_trace
    )


SPACE = SearchSpace(1 * MB, 64 * MB, 2 * MB, 256 * MB)


# -- Page-Hinkley ----------------------------------------------------------


def test_page_hinkley_quiet_on_stationary_noise():
    detector = PageHinkley(delta=0.02, threshold=0.25)
    for index in range(50):
        noise = 1.0 + (0.01 if index % 2 else -0.01)
        assert not detector.update(100.0 * noise)


def test_page_hinkley_fires_on_a_drop_and_names_the_side():
    detector = PageHinkley(delta=0.02, threshold=0.1)
    for _ in range(5):
        assert not detector.update(100.0)
    fired = False
    for _ in range(20):
        if detector.update(60.0):
            fired = True
            break
    assert fired
    assert detector.side == "drop"


def test_page_hinkley_fires_on_a_rise_and_names_the_side():
    detector = PageHinkley(delta=0.02, threshold=0.1)
    for _ in range(5):
        detector.update(100.0)
    fired = False
    for _ in range(20):
        if detector.update(160.0):
            fired = True
            break
    assert fired
    assert detector.side == "rise"


def test_page_hinkley_reset_forgets_history():
    detector = PageHinkley(delta=0.02, threshold=0.1)
    for _ in range(5):
        detector.update(100.0)
    detector.reset()
    assert detector.side is None
    # Post-reset, the new level is just the new baseline.
    for _ in range(5):
        assert not detector.update(60.0)


def test_page_hinkley_validation():
    with pytest.raises(TuningError):
        PageHinkley(delta=-0.1)
    with pytest.raises(TuningError):
        PageHinkley(threshold=0.0)


@pytest.mark.parametrize("knobs", [{"delta": math.nan}, {"threshold": math.nan}])
def test_page_hinkley_rejects_nan_knobs(knobs):
    with pytest.raises(TuningError):
        PageHinkley(**knobs)


# -- construction and validation -------------------------------------------


def test_adaptive_tuner_validation():
    job = make_job()
    with pytest.raises(TuningError):
        AdaptiveTuner(job, space=SPACE, segment_iterations=0)
    with pytest.raises(TuningError):
        AdaptiveTuner(job, space=SPACE, probe_period=0)
    with pytest.raises(TuningError):
        AdaptiveTuner(job, space=SPACE, neighbor_step=0.0)
    with pytest.raises(TuningError):
        AdaptiveTuner(job, space=SPACE, neighbor_step=0.6)
    tuner = AdaptiveTuner(job, space=SPACE)
    with pytest.raises(TuningError):
        tuner.run(segments=0)


def test_adaptive_tuner_rejects_fifo_jobs():
    job = make_job(kind="fifo", partition=4 * MB, credit=16 * MB)
    with pytest.raises(TuningError):
        AdaptiveTuner(job, space=SPACE)


def test_adaptive_tuner_rejects_dear_jobs():
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
        AdaptiveTuner(job, space=SPACE)


# -- lattice helpers --------------------------------------------------------


def test_step_toward_clamps_to_one_lattice_hop():
    tuner = AdaptiveTuner(make_job(), space=SPACE, neighbor_step=0.25)
    assert tuner._step_toward((0.7, -0.6)) == (0.25, -0.25)
    assert tuner._step_toward((0.1, -0.05)) == (0.1, -0.05)


def test_sweep_pairs_cover_each_axis_with_a_two_hop_extension():
    tuner = AdaptiveTuner(make_job(), space=SPACE, neighbor_step=0.25)
    center = SPACE.from_unit((0.5, 0.5))
    pairs = tuner._sweep_pairs(center)
    assert len(pairs) == 4
    for near, far in pairs:
        assert near != center
        assert far is not None and far != near
        # The far point continues past the near one on the same axis.
        nu, nv = tuner._unit_delta(center, near)
        fu, fv = tuner._unit_delta(center, far)
        assert fu == pytest.approx(2 * nu, abs=1e-6)
        assert fv == pytest.approx(2 * nv, abs=1e-6)


def test_sweep_pairs_drop_far_points_swallowed_by_the_box_edge():
    tuner = AdaptiveTuner(make_job(), space=SPACE, neighbor_step=0.4)
    corner = SPACE.from_unit((0.0, 0.0))
    pairs = tuner._sweep_pairs(corner)
    # Only the two inward directions survive at a corner.
    assert len(pairs) == 2


# -- the control loop -------------------------------------------------------


def test_adaptive_run_records_segments_and_stats():
    job = make_job()
    tuner = AdaptiveTuner(job, space=SPACE, segment_iterations=2, seed=0)
    result = tuner.run(segments=6, final_iterations=3)
    assert result.num_segments >= 6
    assert result.final_speed > 0.0
    assert result.best_point == SPACE.clip(result.best_point)
    # The stats ledger lands on the job for the run report.
    stats = job.tuning_stats
    assert stats["tuner"] == "adaptive"
    assert stats["reconfigures"] == result.reconfigures
    assert stats["change_points"] == result.change_points
    assert stats["timeline"]
    entry = stats["timeline"][0]
    assert entry["end"] > entry["start"]
    assert entry["speed"] > 0.0


def test_adaptive_stationary_run_stays_quiet():
    job = make_job()
    tuner = AdaptiveTuner(job, space=SPACE, segment_iterations=2, seed=0)
    result = tuner.run(segments=10, final_iterations=3)
    # No drift, no alarms: the detector must not cry wolf.
    assert result.change_points == 0


def test_adaptive_detects_a_step_change():
    # A mid-run bandwidth collapse on the collective pipe must trip
    # Page-Hinkley while the tuner exploits through it.
    job = make_job(
        fault_plan=FaultPlan.parse("slowlink:m0.both@0.35-1000x0.3"),
        enable_trace=True,
    )
    tuner = AdaptiveTuner(
        job,
        space=SPACE,
        segment_iterations=2,
        seed=0,
        detector=PageHinkley(delta=0.01, threshold=0.06),
    )
    result = tuner.run(segments=16, final_iterations=3)
    assert result.change_points >= 1
    assert result.probes >= 1
    names = [
        name for _t, cat, name in job.trace.points
        if cat == "tuning.change_point"
    ]
    assert "page-hinkley" in names


def test_adaptive_until_stops_the_loop_by_simulated_time():
    job = make_job()
    tuner = AdaptiveTuner(job, space=SPACE, segment_iterations=2, seed=0)
    result = tuner.run(segments=500, final_iterations=2, until=0.25)
    # Far fewer than 500 segments fit in a quarter second.
    assert result.num_segments < 100
    assert job.env.now >= 0.25


def test_adaptive_emits_reconfigure_trace_points():
    job = make_job(partition=1 * MB, credit=2 * MB, enable_trace=True)
    tuner = AdaptiveTuner(job, space=SPACE, segment_iterations=2, seed=0)
    result = tuner.run(segments=8, final_iterations=2)
    if result.reconfigures:
        cats = [cat for _t, cat, _name in job.trace.points]
        assert cats.count("tuning.reconfigure") == result.reconfigures


def test_adaptive_allreduce_pays_no_restart_cost():
    job = make_job(arch="allreduce")
    tuner = AdaptiveTuner(job, space=SPACE, segment_iterations=2)
    result = tuner.run(segments=6)
    assert result.restart_overhead == 0.0


def test_adaptive_run_report_carries_the_tuning_section():
    from repro.obs import build_run_report

    job = make_job()
    tuner = AdaptiveTuner(job, space=SPACE, segment_iterations=2, seed=0)
    tuner.run(segments=4, final_iterations=2)
    result = job.run(measure=2, warmup=1)
    report = build_run_report(job, result)
    assert report.tuning["tuner"] == "adaptive"
    assert report.tuning["best_partition_bytes"] > 0
