"""Kernel and scheduler microbenchmarks.

Each benchmark is a plain function returning a result dict with a
throughput-style ``value`` (higher is better) so the harness can
compare runs.  They exercise the three layers the figure sweeps spend
their time in:

* ``event_throughput`` — the discrete-event kernel alone: callback
  chains re-arming deferred entries, no network, no scheduler.
* ``link_burst`` — back-to-back frames through one FIFO ``Link``, each
  completing in its own kernel entry (the per-hop cost every fabric
  transfer pays).
* ``scheduler_queue`` — ByteSchedulerCore enqueue → schedule → credit
  return against a loopback backend, no training job around it.
* ``end_to_end`` — one complete ``run_experiment`` (the unit every
  figure point costs).
* ``dear`` — one complete DeAR run on the all-reduce arch (the
  phase-decoupled dispatch path: reduce-scatter heap + deferred
  all-gather drain).
* ``claim_protocol`` — the multi-host work-stealing claim board:
  claim/heartbeat/release cycles plus stale-steal checks on a local
  scratch directory (filesystem ops, no simulation).
* ``drift`` — one adaptive-tuner control loop on a drifting job: the
  Page-Hinkley updates, probe/exploit segment dispatch, and knob
  reconfigures the drift experiment pays per control segment.

Keep the workloads deterministic: the *work done per run* must not
drift between commits or the regression gate compares different jobs.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.sim import Environment
from repro.comm.base import ChunkSpec, CommBackend, complete_chunk

__all__ = [
    "bench_event_throughput",
    "bench_link_burst",
    "bench_scheduler_queue",
    "bench_end_to_end",
    "bench_dear",
    "bench_drift",
    "bench_claim_protocol",
    "bench_sweep",
    "MICROBENCHMARKS",
]


def bench_event_throughput(
    processes: int = 100, steps: int = 1000
) -> Dict[str, Any]:
    """Entries/second through the bare kernel.

    ``processes`` callback chains each run ``steps`` staggered
    :meth:`~repro.sim.Environment.defer` entries, one after another:
    each entry's callback defers the next — the heap + callback path
    every simulated action rides on.  (The parameter keeps the name it
    had when each chain was a generator process, so results stay
    comparable with the baseline.)
    """
    env = Environment()
    total_events = processes * steps

    def chain(index: int) -> None:
        delay = 0.001 + index * 1e-6
        left = steps

        def step(_arg: Any) -> None:
            nonlocal left
            left -= 1
            if left:
                env.defer(step, None, delay)

        env.defer(step, None, delay)

    for index in range(processes):
        chain(index)
    started = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - started
    return {
        "name": "event_throughput",
        "unit": "events/s",
        "value": total_events / elapsed,
        "wall_s": elapsed,
        "params": {"processes": processes, "steps": steps},
    }


def bench_link_burst(
    messages: int = 2000, rounds: int = 10
) -> Dict[str, Any]:
    """Frames/second through one FIFO link.

    Each round fires a burst of back-to-back frames at an idle link —
    the path every fabric hop rides — and runs the kernel until the
    burst drains.  Measures enqueue + the per-frame completion entry.
    """
    from repro.net.link import Link
    from repro.net.message import Message
    from repro.net.transport import RDMATransport

    env = Environment()
    link = Link(env, "bench.up", 1.25e9, RDMATransport())
    total = messages * rounds
    completed = [0]

    def _done(_message: Message) -> None:
        completed[0] += 1

    started = time.perf_counter()
    for _ in range(rounds):
        for index in range(messages):
            link.transmit(
                Message("w0", "s0", 64 * 1024, kind="push", uid=index),
                callback=_done,
            )
        env.run()
    elapsed = time.perf_counter() - started
    if completed[0] != total:
        raise RuntimeError(
            f"link burst incomplete: {completed[0]}/{total} frames"
        )
    return {
        "name": "link_burst",
        "unit": "frames/s",
        "value": total / elapsed,
        "wall_s": elapsed,
        "params": {"messages": messages, "rounds": rounds},
    }


def bench_claim_protocol(cycles: int = 300) -> Dict[str, Any]:
    """Claim/steal/release cycles/second on the work-stealing board.

    Exercises the primitives a sharded sweep leans on: the ``O_EXCL``
    claim, the duplicate-claim rejection, the stale check, and the
    release — all against a throwaway local directory, so the number
    tracks protocol overhead rather than simulation cost.
    """
    import shutil
    import tempfile as _tempfile
    from pathlib import Path

    from repro.experiments.stealing import ClaimBoard

    root = Path(_tempfile.mkdtemp(prefix="repro-claims-"))
    try:
        board = ClaimBoard(root)
        started = time.perf_counter()
        for index in range(cycles):
            key = f"{index:064x}"
            if not board.try_claim(key, "bench-a"):
                raise RuntimeError(f"fresh claim {index} refused")
            if board.try_claim(key, "bench-b"):
                raise RuntimeError(f"duplicate claim {index} accepted")
            board.refresh(key)
            if board.stale(key, ttl=3600.0):
                raise RuntimeError(f"fresh claim {index} reported stale")
            board.release(key)
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "name": "claim_protocol",
        "unit": "cycles/s",
        "value": cycles / elapsed,
        "wall_s": elapsed,
        "params": {"cycles": cycles},
    }


class _LoopbackBackend(CommBackend):
    """Minimal backend: every chunk 'sends' after one simulated tick.

    Isolates the scheduler's queue/credit machinery from the network
    model so the benchmark measures enqueue/dequeue cost.
    """

    is_collective = False

    def __init__(self, env: Environment, latency: float = 1e-5) -> None:
        self.env = env
        self.latency = latency

    @property
    def workers(self):
        return ("w0",)

    def chunk_targets(self, chunk: ChunkSpec) -> Optional[str]:
        return None

    def start_chunk(self, chunk: ChunkSpec, on_sent, on_done, token) -> None:
        op = (None, chunk, on_sent, on_done, token)
        self.env.defer(complete_chunk, op, self.latency)


def bench_scheduler_queue(
    tasks: int = 300, partitions: int = 32
) -> Dict[str, Any]:
    """Subtask enqueue→start→finish cycles/second through the Core."""
    from repro.core.scheduler import ByteSchedulerCore

    env = Environment()
    backend = _LoopbackBackend(env)
    core = ByteSchedulerCore(
        env,
        backend,
        partition_bytes=1.0,
        credit_bytes=4.0,
        name="bench",
    )
    total = tasks * partitions
    for index in range(tasks):
        # Reverse layer order mimics backward propagation: every
        # arrival lands at the queue head and exercises the heap.
        task = core.create_task(0, tasks - index, float(partitions))
        task.notify_ready()
    started = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - started
    if core.subtasks_started != total:
        raise RuntimeError(
            f"scheduler bench incomplete: {core.subtasks_started}/{total}"
        )
    return {
        "name": "scheduler_queue",
        "unit": "subtasks/s",
        "value": total / elapsed,
        "wall_s": elapsed,
        "params": {"tasks": tasks, "partitions": partitions},
    }


def bench_end_to_end(
    model: str = "resnet50", machines: int = 2, measure: int = 3
) -> Dict[str, Any]:
    """Wall-clock of one figure-point unit: a full simulated run."""
    from repro.training import ClusterSpec, SchedulerSpec, run_experiment
    from repro.units import MB

    cluster = ClusterSpec(
        machines=machines,
        gpus_per_machine=8,
        bandwidth_gbps=100.0,
        transport="rdma",
        arch="ps",
        framework="mxnet",
    )
    spec = SchedulerSpec(
        kind="bytescheduler", partition_bytes=0.5 * MB, credit_bytes=2 * MB
    )
    started = time.perf_counter()
    result = run_experiment(model, cluster, spec, measure=measure)
    elapsed = time.perf_counter() - started
    return {
        "name": "end_to_end",
        "unit": "runs/s",
        "value": 1.0 / elapsed,
        "wall_s": elapsed,
        "params": {
            "model": model,
            "machines": machines,
            "measure": measure,
            "speed": result.speed,
        },
    }


def bench_dear(
    model: str = "resnet50", machines: int = 2, measure: int = 3
) -> Dict[str, Any]:
    """Wall-clock of one DeAR run: the two-phase dispatch hot path."""
    from repro.training import ClusterSpec, SchedulerSpec, run_experiment

    cluster = ClusterSpec(
        machines=machines,
        gpus_per_machine=8,
        bandwidth_gbps=100.0,
        transport="tcp",
        arch="allreduce",
        framework="pytorch",
    )
    spec = SchedulerSpec(kind="dear")
    started = time.perf_counter()
    result = run_experiment(model, cluster, spec, measure=measure)
    elapsed = time.perf_counter() - started
    return {
        "name": "dear",
        "unit": "runs/s",
        "value": 1.0 / elapsed,
        "wall_s": elapsed,
        "params": {
            "model": model,
            "machines": machines,
            "measure": measure,
            "speed": result.speed,
        },
    }


def bench_drift(segments: int = 16) -> Dict[str, Any]:
    """Wall-clock of one adaptive control loop under a diurnal drift."""
    from repro.faults import FaultPlan
    from repro.models import custom_model
    from repro.training import ClusterSpec, SchedulerSpec, TrainingJob
    from repro.tuning import AdaptiveTuner, PageHinkley, SearchSpace
    from repro.units import MB

    cluster = ClusterSpec(
        machines=2, gpus_per_machine=2, arch="ps", transport="tcp",
        bandwidth_gbps=25, seed=0,
    )
    model = custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB],
        fp_times=[0.002] * 3,
        bp_times=[0.004] * 3,
        batch_size=16,
    )
    job = TrainingJob(
        model,
        cluster,
        SchedulerSpec(
            kind="bytescheduler", partition_bytes=2 * MB, credit_bytes=4 * MB
        ),
        fault_plan=FaultPlan.parse("drift:diurnal:s0.both@0-4~5.3x0.3;seed:0"),
    )
    tuner = AdaptiveTuner(
        job,
        space=SearchSpace(1 * MB, 8 * MB, 2 * MB, 32 * MB),
        seed=0,
        segment_iterations=2,
        restart_penalty=0.0,
        detector=PageHinkley(delta=0.01, threshold=0.06),
    )
    started = time.perf_counter()
    result = tuner.run(segments=segments, final_iterations=2)
    elapsed = time.perf_counter() - started
    return {
        "name": "drift",
        "unit": "segments/s",
        "value": result.num_segments / elapsed,
        "wall_s": elapsed,
        "params": {
            "segments": segments,
            "profiled": result.num_segments,
            "change_points": result.change_points,
        },
    }


def bench_cluster(jobs: int = 120, seed: int = 0) -> Dict[str, Any]:
    """Wall-clock of one fluid cluster-simulator run (trace synthesis +
    admission + rate recomputation on every event)."""
    from repro.cluster import ClusterSimulator, synthesize_trace

    trace = synthesize_trace(jobs=jobs, seed=seed, mean_interarrival=10.0)
    started = time.perf_counter()
    result = ClusterSimulator(
        placement="consolidation", arbitration="arbitrated", placement_seed=seed
    ).run(trace)
    elapsed = time.perf_counter() - started
    return {
        "name": "cluster",
        "unit": "jobs/s",
        "value": jobs / elapsed,
        "wall_s": elapsed,
        "params": {
            "jobs": jobs,
            "seed": seed,
            "mean_jct": result.mean_jct,
            "fairness": result.fairness,
        },
    }


def bench_sweep(
    workers: Optional[int] = None, cache_dir: Optional[str] = None
) -> Dict[str, Any]:
    """Wall-clock of a small figure-10-style sweep (two scales, two
    setups, all three lines per subplot).

    With ``workers``/``cache_dir`` the sweep routes through
    :mod:`repro.experiments.parallel`; the serial path is what the
    pre-parallel harness paid per figure.
    """
    from repro.experiments import figure10_12

    started = time.perf_counter()
    grid = figure10_12.run_model(
        "vgg16",
        machines_list=(1, 2),
        setups=(("mxnet", "ps", "rdma"), ("mxnet", "allreduce", "rdma")),
        measure=2,
        include_p3=False,
        workers=workers,
        cache_dir=cache_dir,
    )
    elapsed = time.perf_counter() - started
    points = sum(len(subplot.gpus) for subplot in grid.setups)
    return {
        "name": "sweep",
        "unit": "points/s",
        "value": points / elapsed,
        "wall_s": elapsed,
        "params": {"points": points, "workers": workers, "cached": bool(cache_dir)},
    }


#: name -> zero-argument callable, in reporting order.
MICROBENCHMARKS = {
    "event_throughput": bench_event_throughput,
    "link_burst": bench_link_burst,
    "scheduler_queue": bench_scheduler_queue,
    "end_to_end": bench_end_to_end,
    "dear": bench_dear,
    "drift": bench_drift,
    "cluster": bench_cluster,
    "claim_protocol": bench_claim_protocol,
}
