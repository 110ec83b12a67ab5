"""Trajectory pins for the live tuners (``OnlineTuner``, ``AdaptiveTuner``).

Each case drives a tuner on a small job and pins a sha256 over:

* the profiled-segment timeline ``(t_start, t_end, point, speed)``,
  every float as its ``repr``;
* the ordered ``tuning.*`` trace points, with their times;
* the reconfigure count and the change points;
* ``repr(final_speed)``;
* ``backend.sync_digest()``.

``restart_overhead`` is pinned on its own, so a change to restart
accounting alone shows up as exactly that.  A case whose run raises
``TuningError`` pins the message, the trace points, the clock and the
digest at the moment it raised.

The values were recorded before the two tuners shared one segment
runner.  Since then only ``restart_overhead`` has moved, in the cases
marked below: the online tuner now charges the PS restart for its final
switch to the best point, as the adaptive tuner always did.  The
fingerprints must not be re-recorded to make a change pass.
"""

import hashlib

import pytest

from repro.errors import TuningError
from repro.faults import FaultPlan
from repro.models import custom_model
from repro.recovery import MembershipSpec
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob
from repro.tuning import AdaptiveTuner, OnlineTuner, PageHinkley, SearchSpace
from repro.units import MB

SPACE = SearchSpace(1 * MB, 64 * MB, 2 * MB, 256 * MB)

#: Page-Hinkley settings sensitive enough to fire on these short runs.
SENSITIVE = dict(delta=0.01, threshold=0.06)

#: Leave then rejoin one worker while tuning runs.
ELASTIC_PLAN = "leave:w1@0.05;join:w1@0.15;seed:0"


def _job(arch="allreduce", partition=2 * MB, credit=4 * MB, plan=None, elastic=None):
    """A three-layer model on 2x2 RDMA, or on 4x1 PS when ``elastic``
    names the membership floor."""
    if elastic is None:
        cluster = ClusterSpec(
            machines=2, gpus_per_machine=2, arch=arch, transport="rdma",
            framework="mxnet", bandwidth_gbps=25,
        )
        membership = None
    else:
        cluster = ClusterSpec(machines=4, gpus_per_machine=1, arch="ps", seed=0)
        membership = MembershipSpec(min_workers=elastic)
    model = custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB],
        fp_times=[0.002] * 3,
        bp_times=[0.004] * 3,
        batch_size=16,
    )
    return TrainingJob(
        model,
        cluster,
        SchedulerSpec(kind="bytescheduler", partition_bytes=partition, credit_bytes=credit),
        enable_trace=True,
        fault_plan=FaultPlan.parse(plan) if plan else None,
        membership_spec=membership,
    )


def _points(job):
    return tuple(
        (repr(time), category, name)
        for time, category, name in job.trace.points
        if category.startswith("tuning.")
    )


def _digest(job, result):
    stats = job.tuning_stats
    material = repr(
        (
            tuple(
                (repr(start), repr(end), repr(point[0]), repr(point[1]), repr(speed))
                for start, end, point, speed in result.timeline
            ),
            _points(job),
            stats["reconfigures"],
            stats["change_points"],
            repr(result.final_speed),
            tuple(job.backend.sync_digest()),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()


def _failure_digest(job, error):
    material = repr(
        (str(error), _points(job), repr(job.env.now), tuple(job.backend.sync_digest()))
    )
    return hashlib.sha256(material.encode()).hexdigest()


# -- OnlineTuner -------------------------------------------------------------


def _online_ps_bo():
    # Fixed membership: segments extend + drain.
    job = _job(arch="ps")
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2, restart_penalty=5.0)
    return job, tuner.run(segments=3, final_iterations=2)


def _online_allreduce_grid():
    job = _job()
    tuner = OnlineTuner(job, space=SPACE, method="grid", segment_iterations=2)
    return job, tuner.run(segments=4, final_iterations=2)


def _online_elastic():
    # Two membership epochs: searcher reset, anchors, settle burn-in.
    job = _job(partition=8 * MB, credit=32 * MB, plan=ELASTIC_PLAN, elastic=1)
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2)
    return job, tuner.run(segments=6, final_iterations=2)


def _online_parked():
    # The leave drops the job below its floor with no join to come.
    job = _job(partition=8 * MB, credit=32 * MB, plan="leave:w1@0.05;seed:0", elastic=4)
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2)
    return job, tuner.run


# -- AdaptiveTuner -----------------------------------------------------------


def _adaptive_diurnal():
    # A drop alarm, its neighbourhood sweep, and a sweep move.
    job = _job(plan="drift:diurnal:m0.both@0-1~1.3x0.15;seed:0")
    tuner = AdaptiveTuner(
        job, space=SPACE, segment_iterations=2, detector=PageHinkley(**SENSITIVE)
    )
    return job, tuner.run(segments=24, final_iterations=2)


def _adaptive_step():
    job = _job(plan="slowlink:m0.both@0.35-1000x0.3")
    tuner = AdaptiveTuner(
        job, space=SPACE, segment_iterations=2, detector=PageHinkley(**SENSITIVE)
    )
    return job, tuner.run(segments=16, final_iterations=3)


def _adaptive_rise():
    # The link recovers mid-run: a rise alarm, which resets but does
    # not sweep.
    job = _job(plan="slowlink:m0.both@0-0.3x0.3")
    tuner = AdaptiveTuner(
        job, space=SPACE, segment_iterations=2, detector=PageHinkley(**SENSITIVE)
    )
    return job, tuner.run(segments=14, final_iterations=2)


def _adaptive_probe_move():
    # Stationary: a periodic probe wins, is confirmed by a bracket, and
    # queues the momentum follow-probe.
    job = _job()
    tuner = AdaptiveTuner(job, space=SPACE, segment_iterations=2)
    return job, tuner.run(segments=8, final_iterations=2)


def _adaptive_until():
    job = _job()
    tuner = AdaptiveTuner(job, space=SPACE, segment_iterations=2)
    return job, tuner.run(segments=500, final_iterations=2, until=0.25)


def _adaptive_elastic():
    job = _job(partition=8 * MB, credit=32 * MB, plan=ELASTIC_PLAN, elastic=1)
    tuner = AdaptiveTuner(job, space=SPACE, segment_iterations=2)
    return job, tuner.run(segments=5, final_iterations=2)


CASES = {
    "online-ps-bo": _online_ps_bo,
    "online-allreduce-grid": _online_allreduce_grid,
    "online-elastic": _online_elastic,
    "adaptive-diurnal": _adaptive_diurnal,
    "adaptive-step": _adaptive_step,
    "adaptive-rise": _adaptive_rise,
    "adaptive-probe-move": _adaptive_probe_move,
    "adaptive-until": _adaptive_until,
    "adaptive-elastic": _adaptive_elastic,
}

#: case -> (fingerprint, restart_overhead)
PINS = {
    "online-ps-bo": (
        "f7b81f855b79405259d7a8bb3970eaa9fecac8ff6f6a6123dcd92f2559ea96c2",
        # Moved from 15.0: the best point (the first one tried) differs
        # from the last one tried, and the final switch back is charged.
        20.0,
    ),
    "online-allreduce-grid": (
        "173040a42ac93bf0fe9b0b3c8003253f16334a626df1a8240e6ecad1e9a5718b",
        0.0,
    ),
    "online-elastic": (
        "eef68b6e53e293b6a6f66e1d047eb47c4cf49226666055881e635c2fc843609e",
        15.0,
    ),
    "adaptive-diurnal": (
        "8a8cd98e898812ce50ee67023683768a2f144949ce36fc8dbc95cc32a9ca90a7",
        0.0,
    ),
    "adaptive-step": (
        "ecaf85037efed14f39a92003ae166bce4c760dd8965aae9e9affdcc05ba3c57e",
        0.0,
    ),
    "adaptive-rise": (
        "1d24eb0921c5ab9f8d03d57aa5eb0d1f918c7370194d51116e0b9d17ce7398cf",
        0.0,
    ),
    "adaptive-probe-move": (
        "e83416490f384771dc73c57e111bb942c65a93a84bbe73fb82285ec389281f2f",
        0.0,
    ),
    "adaptive-until": (
        "00c4094a479ea90bc280c4b3690ccda3636063208fca16c98b8962615165290a",
        0.0,
    ),
    "adaptive-elastic": (
        "291a02bd6e122fbe0336471a51b13363e01b078be4f929df18fbc434be0f1ac4",
        40.0,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_tuner_trajectory_pinned(case):
    job, result = CASES[case]()
    fingerprint, restart_overhead = PINS[case]
    assert _digest(job, result) == fingerprint
    assert result.restart_overhead == restart_overhead


def test_parked_online_tuner_raises_pinned():
    job, run = _online_parked()
    with pytest.raises(TuningError, match="parked immediately") as raised:
        run(segments=6, final_iterations=2)
    assert _failure_digest(job, raised.value) == (
        "6b268979c4ab3ad0f05950299ad77d235bb2fe44ff4722c8933978b4f1f60af6"
    )
