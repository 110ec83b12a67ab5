"""Integration tests: full training runs across the setup matrix.

These use a small synthetic model so every combination of framework,
architecture, transport, and scheduler runs in milliseconds.
"""

import pytest

from repro.errors import ConfigError
from repro.models import custom_model
from repro.training import (
    ClusterSpec,
    SchedulerSpec,
    TrainingJob,
    linear_scaling_speed,
    resolve_model,
    run_experiment,
)
from repro.units import MB


def comm_bound_model():
    """A model whose synchronisation volume dwarfs its compute."""
    return custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB, 12 * MB],
        fp_times=[0.002] * 4,
        bp_times=[0.004] * 4,
        batch_size=16,
        name="synthetic-comm-bound",
    )


SETUPS = [
    ("mxnet", "ps", "tcp"),
    ("mxnet", "ps", "rdma"),
    ("tensorflow", "ps", "tcp"),
    ("mxnet", "allreduce", "rdma"),
    ("pytorch", "allreduce", "tcp"),
]


@pytest.mark.parametrize("framework,arch,transport", SETUPS)
@pytest.mark.parametrize("kind", ["fifo", "bytescheduler"])
def test_every_setup_completes(framework, arch, transport, kind):
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=2, transport=transport, arch=arch,
        framework=framework, bandwidth_gbps=10,
    )
    scheduler = SchedulerSpec(
        kind=kind, partition_bytes=2 * MB, credit_bytes=8 * MB
    ) if kind == "bytescheduler" else SchedulerSpec(kind="fifo")
    result = run_experiment(comm_bound_model(), cluster, scheduler, measure=3, warmup=1)
    assert result.speed > 0
    assert len(result.iteration_times()) == 3


@pytest.mark.parametrize("framework,arch,transport", SETUPS)
def test_bytescheduler_never_slower_on_comm_bound_model(framework, arch, transport):
    """The paper's headline claim: acceleration in ALL setups."""
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=2, transport=transport, arch=arch,
        framework=framework, bandwidth_gbps=10,
    )
    base = run_experiment(comm_bound_model(), cluster, SchedulerSpec(kind="fifo"), measure=4)
    # Architecture-appropriate knobs (Table 1: all-reduce wants an order
    # of magnitude larger partitions than PS).
    if arch == "ps":
        knobs = SchedulerSpec(kind="bytescheduler", partition_bytes=2 * MB, credit_bytes=16 * MB)
    else:
        knobs = SchedulerSpec(kind="bytescheduler", partition_bytes=12 * MB, credit_bytes=24 * MB)
    tuned = run_experiment(comm_bound_model(), cluster, knobs, measure=4)
    assert tuned.speed >= base.speed * 0.98


def test_determinism():
    cluster = ClusterSpec(machines=2, bandwidth_gbps=25)
    spec = SchedulerSpec(kind="bytescheduler", partition_bytes=1 * MB, credit_bytes=4 * MB)
    first = run_experiment(comm_bound_model(), cluster, spec, measure=3)
    second = run_experiment(comm_bound_model(), cluster, spec, measure=3)
    assert first.speed == second.speed


def test_markers_monotone_per_worker():
    cluster = ClusterSpec(machines=2, gpus_per_machine=1, bandwidth_gbps=10)
    job = TrainingJob(comm_bound_model(), cluster, SchedulerSpec(kind="fifo"))
    result = job.run(measure=3, warmup=1)
    for times in result.markers.values():
        assert times == sorted(times)
        assert len(times) == 4


def test_workers_are_symmetric():
    cluster = ClusterSpec(machines=3, gpus_per_machine=1, bandwidth_gbps=10)
    job = TrainingJob(comm_bound_model(), cluster, SchedulerSpec(kind="fifo"))
    result = job.run(measure=3, warmup=1)
    finals = [times[-1] for times in result.markers.values()]
    assert max(finals) - min(finals) < 0.05 * max(finals)


def test_ps_uses_one_core_per_worker_allreduce_one_master():
    ps_job = TrainingJob(
        comm_bound_model(), ClusterSpec(machines=3), SchedulerSpec(kind="fifo")
    )
    assert len(set(map(id, ps_job.cores.values()))) == 3
    ar_job = TrainingJob(
        comm_bound_model(),
        ClusterSpec(machines=3, arch="allreduce"),
        SchedulerSpec(kind="fifo"),
    )
    assert len(set(map(id, ar_job.cores.values()))) == 1


def test_samples_per_iteration_counts_all_gpus():
    job = TrainingJob(
        comm_bound_model(),
        ClusterSpec(machines=2, gpus_per_machine=4),
        SchedulerSpec(kind="fifo"),
    )
    assert job.samples_per_iteration == 16 * 8


def test_run_validation():
    job = TrainingJob(comm_bound_model(), ClusterSpec(machines=1), SchedulerSpec())
    with pytest.raises(ConfigError):
        job.run(measure=0)
    with pytest.raises(ConfigError):
        job.run(measure=1, warmup=0)


def test_linear_scaling_is_single_machine_times_count():
    cluster = ClusterSpec(machines=4, bandwidth_gbps=10)
    single = run_experiment(
        comm_bound_model(),
        ClusterSpec(machines=1, bandwidth_gbps=10, arch="allreduce"),
        SchedulerSpec(kind="fifo"),
        measure=6,
    )
    assert linear_scaling_speed(comm_bound_model(), cluster) == pytest.approx(
        4 * single.speed
    )


def test_barrier_crossing_beats_vanilla_barrier():
    """TensorFlow-style engine: ByteScheduler must gain *more* than on
    MXNet because it additionally removes the global barrier."""
    model = comm_bound_model()
    tf_cluster = ClusterSpec(
        machines=2, gpus_per_machine=2, arch="ps", framework="tensorflow",
        transport="tcp", bandwidth_gbps=10,
    )
    base = run_experiment(model, tf_cluster, SchedulerSpec(kind="fifo"), measure=4)
    crossed = run_experiment(
        model,
        tf_cluster,
        SchedulerSpec(kind="bytescheduler", partition_bytes=2 * MB, credit_bytes=16 * MB),
        measure=4,
    )
    assert crossed.speed > base.speed * 1.05


def test_priority_beats_fifo_under_equal_knobs():
    """Isolate the ordering benefit: same partition/credit, only the
    priority mode differs (fifo vs layer)."""
    model = comm_bound_model()
    cluster = ClusterSpec(machines=2, gpus_per_machine=2, bandwidth_gbps=10)
    fifo = run_experiment(
        model,
        cluster,
        SchedulerSpec(kind="fifo", partition_bytes=2 * MB, credit_bytes=16 * MB),
        measure=4,
    )
    priority = run_experiment(
        model,
        cluster,
        SchedulerSpec(kind="bytescheduler", partition_bytes=2 * MB, credit_bytes=16 * MB),
        measure=4,
    )
    assert priority.speed >= fifo.speed


def test_trace_collects_link_spans():
    cluster = ClusterSpec(machines=2, gpus_per_machine=1, bandwidth_gbps=10)
    result = run_experiment(
        comm_bound_model(), cluster, SchedulerSpec(kind="fifo"),
        measure=2, warmup=1, enable_trace=True,
    )
    assert result.speed > 0


def _log_link_completions(job):
    """Wrap every link's callbacks: ``(link, uid) -> clock`` at completion."""
    completed = {}
    links = job.fabric.links() + list(job.backend.update_pipes.values())
    for link in links:

        def logged(name, inner, link=link):
            def transmit(message, *args, callback, **kwargs):
                def record(msg):
                    completed[link.name, job.trace.intern(msg.uid)] = job.env.now
                    callback(msg)

                inner(message, *args, callback=record, **kwargs)

            setattr(link, name, transmit)

        logged("transmit", link.transmit)
        logged("transmit_cut_through", link.transmit_cut_through)
    return completed


def test_link_wakeup_lands_exactly_on_a_drifting_end():
    # Here each worker's layer-0 push ends at t = 0.8074932065608466 on
    # its uplink, and ``now + (end - now)`` rounds one ulp below that.
    # A wake-up armed that way found the frame not yet due, and the run
    # deadlocked after one iteration.
    job = TrainingJob(
        resolve_model("transformer"),
        ClusterSpec(
            machines=4, bandwidth_gbps=3.0, transport="tcp", arch="ps", framework="mxnet"
        ),
        SchedulerSpec(kind="fifo"),
        enable_trace=True,
    )
    completed = _log_link_completions(job)
    result = job.run(measure=3, warmup=1)
    assert all(len(times) == 4 for times in job.markers.values())
    assert result.speed == pytest.approx(7538.902332041783, rel=1e-12)
    # Every frame completed, with the clock exactly at its span's end.
    ends = {
        (span.name, dict(span.meta)["message"]): span.end
        for span in job.trace.spans
        if span.category == "link"
    }
    assert completed == ends


def test_deadlock_error_names_the_stuck_ps_chunks():
    job = TrainingJob(
        resolve_model("resnet50"),
        ClusterSpec(machines=2, transport="tcp", arch="ps", framework="mxnet", seed=0),
        SchedulerSpec(kind="bytescheduler"),
    )
    job.extend(3)
    job.env.run(until=0.05)
    job.engines["w1"].halt()  # w1 stops pushing; w0's chunks wait on it
    with pytest.raises(ConfigError) as raised:
        job.drain()
    message = str(raised.value)
    pending = sorted(job.backend._pending)
    assert len(pending) == 16
    assert "worker w0 completed 1/3 iterations" in message
    assert f"{len(pending)} PS chunks pending, first 3: " in message
    for key in pending[:3]:
        server = job.backend.server_for(job.backend._pending[key].spec)
        assert f"{key} on {server} (push: w1; pull: w0, w1)" in message
    assert str(pending[3]) not in message


def test_deadlock_error_names_no_chunks_when_none_is_pending():
    job = TrainingJob(
        comm_bound_model(),
        ClusterSpec(machines=2, transport="tcp", arch="ps", framework="mxnet"),
        SchedulerSpec(kind="fifo"),
    )
    assert job._deadlocked("stopped").args[0].endswith(
        f"deadlocked at t={job.env.now!r}"
    )


@pytest.mark.parametrize(
    "drive",
    [
        lambda job: job.run(measure=2.5),
        lambda job: job.run(measure=float("nan")),
        lambda job: job.run(measure=True),
        lambda job: job.run(measure="2"),
        lambda job: job.run(measure=2, warmup=float("nan")),
        lambda job: job.run(measure=2, warmup=True),
        lambda job: job.extend(2.5),
        lambda job: job.extend(True),
        lambda job: job.advance(2.0),
        lambda job: job.advance(float("nan")),
        lambda job: job.advance(False),
    ],
)
def test_iteration_counts_must_be_integers(drive):
    job = TrainingJob(comm_bound_model(), ClusterSpec(machines=1), SchedulerSpec())
    with pytest.raises(ConfigError, match="must be an integer >= 1"):
        drive(job)
    assert job._built_iterations == 0
