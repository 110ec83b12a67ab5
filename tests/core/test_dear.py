"""Tests for DeAR: decoupled reduce-scatter / all-gather scheduling."""

import pytest

from repro.comm import DecoupledAllReduceBackend, RingAllReduceBackend
from repro.core import SCHEDULER_KINDS, DeARCore
from repro.errors import ConfigError, SchedulerError
from repro.net import Transport
from repro.sim import Environment
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob, run_experiment
from repro.models import uniform_model
from repro.units import MB


def make_backend(env, machines=4, base_sync=0.002):
    return DecoupledAllReduceBackend(
        env,
        machines,
        1,
        bandwidth=1e9,
        transport=Transport("t", 0.0, 1.0),
        base_sync=base_sync,
        per_rank_sync=0.0,
    )


def ready_task(core, iteration, layer, size):
    task = core.create_task(iteration, layer, size)
    task.notify_ready()
    return task


def test_dear_runs_both_phases_per_tensor():
    env = Environment()
    backend = make_backend(env)
    core = DeARCore(env, backend)
    tasks = [ready_task(core, 0, layer, 1 * MB) for layer in (2, 1, 0)]
    env.run()
    assert all(task.is_finished for task in tasks)
    assert core.reduce_scatters_launched == 3
    assert core.all_gathers_launched == 3
    assert backend.reduce_scatters_run == 3
    assert backend.all_gathers_run == 3
    assert core.queued == 0 and core.inflight == 0


def test_reduce_scatters_preempt_deferred_all_gathers():
    """Tensors arriving in backward order (high layer first): every
    reduce-scatter dispatches before any all-gather."""
    env = Environment()
    backend = make_backend(env)
    core = DeARCore(env, backend)
    for layer in (3, 2, 1, 0):
        ready_task(core, 0, layer, 1 * MB)
    env.run()
    # With a single FIFO pipe and all four tensors ready at t=0, the
    # pipe runs RS,RS,RS,RS then AG,AG,AG,AG — so at the moment the
    # last reduce-scatter completes, all four all-gathers are deferred.
    assert core.max_deferred_all_gathers == 4
    assert core.reduce_scatters_launched == 4
    assert core.all_gathers_launched == 4


def test_all_gathers_drain_lowest_layer_first():
    env = Environment()
    backend = make_backend(env)
    core = DeARCore(env, backend)
    for layer in (3, 2, 1, 0):
        ready_task(core, 0, layer, 1 * MB)
    finished_layers = []
    original = backend._record_complete

    def spy(chunk):
        finished_layers.append(chunk.layer)
        original(chunk)

    backend._record_complete = spy
    env.run()
    assert finished_layers == [0, 1, 2, 3]


def test_dear_fusion_batches_adjacent_tensors():
    env = Environment()
    backend = make_backend(env)
    core = DeARCore(env, backend, fusion_bytes=10 * MB)
    tasks = [ready_task(core, 0, layer, 1 * MB) for layer in (4, 3, 2, 1, 0)]
    env.run()
    assert all(task.is_finished for task in tasks)
    assert core.reduce_scatters_launched == 1  # 5 MB fused into one op
    assert core.tensors_scheduled == 5
    assert backend.reduce_scatters_run == 1
    assert backend.all_gathers_run == 1


def test_dear_fusion_splits_at_buffer_size():
    env = Environment()
    backend = make_backend(env)
    core = DeARCore(env, backend, fusion_bytes=4 * MB)
    tasks = [ready_task(core, 0, layer, 3 * MB) for layer in range(3)]
    env.run()
    assert core.reduce_scatters_launched == 3  # first always fits, alone
    assert all(task.is_finished for task in tasks)


def test_dear_amortises_sync_vs_monolithic_fifo():
    """Sync-dominated ring: DeAR's phase pipelining finishes the same
    work no later than per-tensor monolithic FIFO."""
    env_dear = Environment()
    backend_dear = make_backend(env_dear, base_sync=0.005)
    core = DeARCore(env_dear, backend_dear)
    for layer in range(10):
        ready_task(core, 0, layer, 1 * MB)
    env_dear.run()
    dear_time = env_dear.now

    env_plain = Environment()
    backend_plain = make_backend(env_plain, base_sync=0.005)
    from repro.core import ByteSchedulerCore, PRIORITY_FIFO

    plain = ByteSchedulerCore(env_plain, backend_plain, priority_mode=PRIORITY_FIFO)
    tasks = [plain.create_task(0, layer, 1 * MB) for layer in range(10)]
    for task in tasks:
        task.notify_ready()
    env_plain.run()
    # Identical total pipe work (RS+AG == one collective), so the bare-
    # core drain times agree; DeAR's win appears once a training loop
    # overlaps the AG half with forward compute (see the job test).
    assert dear_time == pytest.approx(env_plain.now, rel=1e-9)


def test_dear_requires_collective_backend():
    from repro.net import Fabric
    from repro.comm import PSBackend

    env = Environment()
    fabric = Fabric(env, ["w0", "s0"], 1e9, Transport("t", 0.0, 1.0))
    ps = PSBackend(env, fabric, ("w0",), ("s0",), layer_bytes=(1,))
    with pytest.raises(SchedulerError):
        DeARCore(env, ps)


def test_dear_requires_phase_backend():
    env = Environment()
    monolithic = RingAllReduceBackend(
        env, 2, 1, 1e9, Transport("t", 0.0, 1.0)
    )
    with pytest.raises(SchedulerError):
        DeARCore(env, monolithic)


def test_dear_validation():
    env = Environment()
    backend = make_backend(env)
    with pytest.raises(SchedulerError):
        DeARCore(env, backend, fusion_bytes=0)
    with pytest.raises(SchedulerError):
        DeARCore(env, backend, inflight_ops=0)


def test_dear_scheduler_factory():
    env = Environment()
    backend = make_backend(env)
    spec = SchedulerSpec(kind="dear", dear_fusion_bytes=8 * MB)
    cores = SCHEDULER_KINDS["dear"].make_cores(
        spec, env, backend, backend.workers,
        partition=spec.resolved_partition("allreduce"),
        credit=spec.resolved_credit(),
    )
    core = cores[backend.workers[0]]
    assert isinstance(core, DeARCore)
    assert all(other is core for other in cores.values())  # one master
    assert core.fusion_bytes == 8 * MB
    assert core.partition_bytes is None  # never splits — no knob


def test_dear_end_to_end_in_training_job():
    model = uniform_model(num_layers=8, layer_bytes=1 * MB, fp_time=0.001, bp_time=0.002)
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=2, arch="allreduce", bandwidth_gbps=10
    )
    result = run_experiment(model, cluster, SchedulerSpec(kind="dear"), measure=3)
    assert result.speed > 0


def test_dear_rejected_on_ps():
    model = uniform_model()
    cluster = ClusterSpec(machines=2, arch="ps")
    with pytest.raises(ConfigError):
        run_experiment(model, cluster, SchedulerSpec(kind="dear"), measure=2)


def test_dear_beats_vanilla_on_tcp_theta_regime():
    """The acceptance bar: on the paper's TCP all-reduce setup (sync
    cost 1.2 ms per collective) DeAR beats whole-tensor FIFO with no
    tuning at all."""
    cluster = ClusterSpec(
        machines=4, gpus_per_machine=8, arch="allreduce", transport="tcp",
        framework="pytorch", bandwidth_gbps=25,
    )
    plain = run_experiment("vgg16", cluster, SchedulerSpec(kind="fifo"), measure=3)
    dear = run_experiment("vgg16", cluster, SchedulerSpec(kind="dear"), measure=3)
    assert dear.speed > plain.speed


def test_dear_overlaps_all_gather_with_next_forward():
    """The mechanism itself: some all-gather of iteration i completes
    after iteration i+1's forward pass has already begun."""
    model = uniform_model(
        num_layers=6, layer_bytes=4 * MB, fp_time=0.002, bp_time=0.003
    )
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=2, arch="allreduce", transport="tcp",
        bandwidth_gbps=10, framework="pytorch",
    )
    job = TrainingJob(model, cluster, SchedulerSpec(kind="dear"), enable_trace=True)
    job.run(measure=3)
    spans = job.trace.spans
    ag_spans = [s for s in spans if s.category == "all_gather"]
    assert ag_spans, "all-gather phases must be traced"
    forward_starts = {}
    for engine in job.engines.values():
        for op in engine.ops:
            if op.started_at is None:
                continue
            head = op.name.split(".")[0]
            # Forward compute ops are named f{iteration}.{layer}@{worker}
            # (fp_proxy ops also start with "f" but are not digits).
            if op.name.startswith("f") and head[1:].isdigit():
                iteration = int(head[1:])
                forward_starts.setdefault(iteration, op.started_at)
                forward_starts[iteration] = min(
                    forward_starts[iteration], op.started_at
                )
    overlapped = False
    for span in ag_spans:
        iteration = int(span.name.split(".")[0].removeprefix("iter"))
        nxt = forward_starts.get(iteration + 1)
        if nxt is not None and span.end > nxt:
            overlapped = True
            break
    assert overlapped, "no all-gather crossed the iteration boundary"


def test_dear_deterministic_across_repeats():
    """Bit-identical spans and speeds across repeated seeded runs."""

    def one_run():
        model = uniform_model(
            num_layers=5, layer_bytes=2 * MB, fp_time=0.001, bp_time=0.002
        )
        cluster = ClusterSpec(
            machines=2, gpus_per_machine=2, arch="allreduce",
            transport="tcp", bandwidth_gbps=10, framework="pytorch",
        )
        job = TrainingJob(model, cluster, SchedulerSpec(kind="dear"), enable_trace=True)
        result = job.run(measure=3)
        spans = tuple(
            (s.category, s.name, s.start, s.end) for s in job.trace.spans
        )
        return result.speed, spans, job.backend.sync_digest()

    first = one_run()
    second = one_run()
    assert first == second
