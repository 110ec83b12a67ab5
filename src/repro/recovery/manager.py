"""Crash recovery orchestration.

:class:`RecoveryManager` is the control plane that turns a detected
crash into a consistent cluster again.  It owns the ground-truth
:class:`~repro.recovery.liveness.NodeLiveness` oracle, a heartbeat
:class:`~repro.recovery.detector.FailureDetector`, and the recovery
choreography for every crash kind the fault plan can express:

* **PS server crash (with restart)** — at detection: hold the dead
  server's traffic on every Core (:meth:`ByteSchedulerCore.block_node`),
  split its pending chunks into *lost* (no pull delivered — the state
  existed only in the dead server's memory) and *durable* (some worker
  already holds the updated parameters), drop the lost state, cancel
  the matching in-flight partitions with their credit refunded
  (:meth:`drain`), and re-enqueue them at their original priority
  (:meth:`requeue`).  At restart: the server bulk-fetches the bytes it
  completed since its last checkpoint from a surviving worker, then
  re-issues the outstanding pulls for durable chunks and the Cores
  unblock.
* **PS server crash (permanent)** — the shard remaps onto the
  survivors (:meth:`PSBackend.mark_server_dead`) and *everything*
  pending on the dead server restarts from scratch against its new
  home.
* **PS worker crash (with restart)** — the worker's Core pauses and
  its in-flight partitions are cancelled (they died with the process);
  surviving workers' aggregation barriers excuse it
  (:meth:`mark_worker_inactive`) so the fleet keeps training.  On
  restart the Core resumes and the cancelled partitions are requeued;
  chunks the fleet finished meanwhile are answered straight from the
  server shard (the replay path), re-synchronising the worker.
* **PS worker crash (permanent)** — as above, but the engine halts
  for good and the job excludes the worker from completion accounting:
  the run degrades gracefully instead of deadlocking.
* **All-reduce machine crash (with restart)** — the ring stalls for
  the down window (a ring moves at the speed of its slowest member)
  and the machine's compute stalls with it; training resumes where it
  left off.
* **All-reduce machine crash (permanent)** — the ring reforms over the
  survivors (:meth:`mark_rank_dead`) and the dead machine is excused
  from every gradient countdown.

Everything the manager does is deterministic: detection lag is a fixed
multiple of the probe interval, recovery actions iterate sorted chunk
keys, and all bookkeeping lands in the trace (``crash`` / ``restart``
points, ``recovery`` and ``recovery.resync`` spans) and in
:meth:`stats` for the run report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import ConfigError, TransferAbortedError
from repro.net import Message
from repro.faults.plan import CrashFault, FaultPlan, merge_windows
from repro.recovery.detector import (
    DEFAULT_MISS_THRESHOLD,
    DEFAULT_PROBE_INTERVAL,
    FailureDetector,
)
from repro.recovery.liveness import NodeLiveness

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.training.job import TrainingJob

__all__ = ["RecoverySpec", "RecoveryManager"]

#: Default checkpoint cadence, ~one snapshot per default iteration.
DEFAULT_CHECKPOINT_INTERVAL = 0.1


@dataclass(frozen=True)
class RecoverySpec:
    """Tunable knobs of the recovery control plane."""

    probe_interval: float = DEFAULT_PROBE_INTERVAL
    miss_threshold: int = DEFAULT_MISS_THRESHOLD
    #: Seconds between server shard snapshots; a restarting server only
    #: re-syncs bytes completed after its last snapshot.  0 disables
    #: checkpointing (the full completed shard re-syncs).
    checkpoint_interval: float = DEFAULT_CHECKPOINT_INTERVAL

    def __post_init__(self) -> None:
        if self.probe_interval <= 0:
            raise ConfigError(
                f"probe_interval must be > 0, got {self.probe_interval!r}"
            )
        if self.miss_threshold < 1:
            raise ConfigError(
                f"miss_threshold must be >= 1, got {self.miss_threshold!r}"
            )
        if self.checkpoint_interval < 0:
            raise ConfigError(
                "checkpoint_interval must be >= 0, got "
                f"{self.checkpoint_interval!r}"
            )


class RecoveryManager:
    """Failure detection + state re-sync + scheduler drain/requeue."""

    def __init__(
        self,
        job: "TrainingJob",
        plan: FaultPlan,
        spec: Optional[RecoverySpec] = None,
    ) -> None:
        self.job = job
        self.plan = plan
        self.spec = spec or RecoverySpec()
        self.env = job.env
        self.trace = job.trace
        self.liveness = NodeLiveness(self.env)
        self.detector = FailureDetector(
            self.env,
            self.liveness,
            probe_interval=self.spec.probe_interval,
            miss_threshold=self.spec.miss_threshold,
            trace=self.trace,
        )
        #: Nodes with a crash scheduled (aborts touching them are ours).
        self._crash_nodes: Set[str] = set()
        #: Per-node drained subtasks awaiting the node's restart.
        self._held: Dict[str, List[List]] = {}
        self._crash_time: Dict[str, float] = {}
        self._stats: Dict[str, float] = {
            "crashes": 0,
            "detected": 0,
            "recoveries": 0,
            "permanent_failures": 0,
            "recovery_time_total": 0.0,
            "lost_work_bytes": 0.0,
            "resync_bytes": 0.0,
            "replayed_subtasks": 0,
            "claimed_aborts": 0,
            "checkpoints": 0,
        }
        self._replayed_iterations: Set[int] = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wire every planned crash into the built job (called once by
        :func:`repro.faults.apply_fault_plan`)."""
        job = self.job
        for crash in self.plan.crashes:
            self._validate(crash)
            self.liveness.add_window(crash.node, crash.time, crash.restart_time)
            self._crash_nodes.add(crash.node)
            self._crash_time[crash.node] = crash.time
            self._announce(crash)
        if job.fabric is not None:
            job.fabric.set_liveness(self.liveness.is_up)
        if hasattr(job.backend, "on_abort"):
            job.backend.on_abort = self._claim_abort
        for crash in self.plan.crashes:
            if job.backend.is_collective:
                self._install_machine(crash)
            elif crash.node in job.backend.servers:
                self._install_server(crash)
            else:
                self._install_worker(crash)

    def _validate(self, crash: CrashFault) -> None:
        job = self.job
        if job.backend.is_collective:
            if crash.node not in job.backend.workers:
                raise ConfigError(
                    f"fault plan crashes unknown machine {crash.node!r}; "
                    f"all-reduce machines are {list(job.backend.workers)}"
                )
            if not crash.restarts and len(job.backend.workers) < 2:
                raise ConfigError(
                    "a permanent machine crash needs >= 2 machines"
                )
            return
        if crash.node in job.backend.servers:
            if not crash.restarts and len(job.backend.servers) < 2:
                raise ConfigError(
                    "a permanent server crash needs >= 2 servers to remap to"
                )
        elif crash.node in job.workers:
            if not crash.restarts and len(job.workers) < 2:
                raise ConfigError(
                    "a permanent worker crash needs >= 2 workers to survive"
                )
        else:
            raise ConfigError(
                f"fault plan crashes unknown node {crash.node!r}; "
                f"nodes are {sorted(job.workers) + sorted(job.backend.servers)}"
            )

    def _announce(self, crash: CrashFault) -> None:
        """Ground-truth trace points at the actual crash/restart times
        (detection lags them; both matter when reading a timeline)."""

        def crashed(_arg, node=crash.node) -> None:
            self._stats["crashes"] += 1
            self.trace.point("crash", node)
            self._metric_inc("recovery.crashes")

        self.env.defer(crashed, None, crash.time)
        if crash.restarts:

            def restarted(_arg, node=crash.node) -> None:
                self.trace.point("restart", node)

            self.env.defer(restarted, None, crash.restart_time)

    # -- PS server lifecycle ------------------------------------------------

    def _install_server(self, crash: CrashFault) -> None:
        interval = self.spec.checkpoint_interval
        if crash.restarts and interval > 0:
            # One snapshot event stands in for the periodic cadence:
            # only the last checkpoint before the crash changes what a
            # restarting server has to re-sync, and a single event
            # keeps the heap finite.
            snap = math.floor(crash.time / interval) * interval
            if snap >= crash.time:
                snap -= interval
            if snap > 0:

                def snapshot(_arg, server=crash.node) -> None:
                    self.job.backend.checkpoint(server)
                    self._stats["checkpoints"] += 1

                self.env.defer(snapshot, None, snap)
        on_recovery = self._server_restarted if crash.restarts else None
        self.detector.watch(crash.node, self._server_died, on_recovery)

    def _server_died(self, server: str, now: float) -> None:
        self._stats["detected"] += 1
        job = self.job
        backend = job.backend
        backend.mark_node_down(server)
        permanent = self.liveness.is_permanent(server)
        lost, durable = backend.pending_on_server(server)
        if permanent:
            self._stats["permanent_failures"] += 1
        else:
            for core in job._unique_cores():
                core.block_node(server)
        self._stats["lost_work_bytes"] += backend.forget_chunks(lost)
        drained: List[List] = []
        for core in job._unique_cores():
            # Drain by the *pre-remap* target: flights carrying chunks
            # whose state was forgotten, plus orphans — pushes dropped
            # on the wire before any server-side state formed, which
            # the pending ledger cannot see but which would otherwise
            # hang in flight forever.
            subtasks = core.drain(server, keys=lost, orphans=backend.orphaned)
            drained.append(subtasks)
            self._record_replays(subtasks)
        if permanent:
            # Remap only after the drain matched flights against the
            # dead server, then restart the lost work on survivors.
            # Durable chunks are *not* re-aggregated: workers that
            # already pulled them will never re-push, so the barrier
            # could never re-form — they migrate instead.
            backend.mark_server_dead(server)
            for core, subtasks in zip(job._unique_cores(), drained):
                if subtasks:
                    core.requeue(subtasks)
            self._adopt_durable(durable)
        else:
            self._held[server] = drained

    def _adopt_durable(self, durable: List) -> None:
        """Migrate durable chunks off a permanently dead server.

        Their update already ran and at least one worker holds the
        result, so each chunk's new home re-syncs the payload from a
        surviving worker and re-issues the outstanding pulls.  A new
        home that is itself down right now is skipped: its own restart
        path re-issues these pulls (``reissue_pulls`` scans by the
        post-remap mapping).
        """
        job = self.job
        backend = job.backend
        homes = backend.durable_homes(durable)
        sources = backend.active_workers
        for home in sorted(homes):
            size = homes[home]
            self._stats["resync_bytes"] += size
            if not self.liveness.is_up(home):
                continue
            if size > 0 and sources and job.fabric is not None:
                started = self.env.now
                resync = Message(sources[0], home, size, kind="resync")

                def synced(_msg, home=home, started=started, size=size):
                    self.trace.span(
                        "recovery.resync", home, started, self.env.now, size=size
                    )
                    backend.reissue_pulls(home)

                job.fabric.send(resync, synced)
            else:
                backend.reissue_pulls(home)

    def _server_restarted(self, server: str, now: float) -> None:
        job = self.job
        backend = job.backend
        backend.mark_node_up(server)
        if job.fabric is not None:
            # New incarnation: the delivery guard (when enabled) fences
            # off messages stamped before the crash.
            job.fabric.bump_incarnation(server)
        size = backend.resync_bytes(server)
        self._stats["resync_bytes"] += size
        sources = backend.active_workers
        if size > 0 and sources and job.fabric is not None:
            # Bulk state fetch from a surviving worker's parameter copy.
            started = now
            resync = Message(sources[0], server, size, kind="resync")

            def synced(_msg) -> None:
                self.trace.span(
                    "recovery.resync", server, started, self.env.now, size=size
                )
                self._server_resynced(server)

            job.fabric.send(resync, synced)
        else:
            self._server_resynced(server)

    def _server_resynced(self, server: str) -> None:
        job = self.job
        job.backend.reissue_pulls(server)
        held = self._held.pop(server, [])
        for core, subtasks in zip(job._unique_cores(), held):
            if subtasks:
                core.requeue(subtasks)
        for core in job._unique_cores():
            core.unblock_node(server)
        self._finish_recovery(server)

    # -- PS worker lifecycle ------------------------------------------------

    def _install_worker(self, crash: CrashFault) -> None:
        if crash.restarts:
            # The worker's process is gone for the window: its compute
            # stalls until the restart (ops in progress effectively
            # re-run from the restart point).
            self._stall_compute(
                self.job.engines[crash.node], crash.time, crash.restart_time
            )
        on_recovery = self._worker_restarted if crash.restarts else None
        self.detector.watch(crash.node, self._worker_died, on_recovery)

    def _worker_died(self, worker: str, now: float) -> None:
        self._stats["detected"] += 1
        job = self.job
        backend = job.backend
        backend.mark_node_down(worker)
        # Survivors' aggregation barriers must not wait for a ghost.
        backend.mark_worker_inactive(worker)
        core = job.cores[worker]
        core.pause()
        drained = core.drain()  # whatever it had in the air died with it
        self._record_replays(drained)
        if self.liveness.is_permanent(worker):
            self._stats["permanent_failures"] += 1
            job.mark_worker_dead(worker)
        else:
            self._held[worker] = [drained]

    def _worker_restarted(self, worker: str, now: float) -> None:
        job = self.job
        backend = job.backend
        backend.mark_node_up(worker)
        if job.fabric is not None:
            job.fabric.bump_incarnation(worker)
        backend.mark_worker_active(worker)
        core = job.cores[worker]
        held = self._held.pop(worker, [[]])
        for subtasks in held:
            if subtasks:
                core.requeue(subtasks)
        core.resume()
        self._finish_recovery(worker)

    # -- all-reduce machine lifecycle ---------------------------------------

    def _install_machine(self, crash: CrashFault) -> None:
        backend = self.job.backend
        if crash.restarts:
            # The ring moves at the speed of its slowest member: one
            # down machine stalls every collective for the window, and
            # its own compute stalls with it.
            stall = (crash.time, crash.restart_time, 0.0)
            backend.set_fault_windows(
                merge_windows(tuple(backend._fault_windows) + (stall,))
            )
            self._stall_compute(
                self.job.engines[crash.node], crash.time, crash.restart_time
            )
        on_recovery = self._machine_restarted if crash.restarts else None
        self.detector.watch(crash.node, self._machine_died, on_recovery)

    def _machine_died(self, machine: str, now: float) -> None:
        self._stats["detected"] += 1
        if self.liveness.is_permanent(machine):
            self._stats["permanent_failures"] += 1
            self.job.backend.mark_rank_dead(machine)
            self.job.mark_worker_dead(machine)

    def _machine_restarted(self, machine: str, now: float) -> None:
        self._finish_recovery(machine)

    # -- shared plumbing ----------------------------------------------------

    @staticmethod
    def _stall_compute(engine, start: float, end: float) -> None:
        """Compose a dead window into the engine's compute-scale hook
        (stacking on top of any straggler windows already installed)."""
        inner = engine.compute_scale

        def scale(now: float, duration: float) -> float:
            if inner is not None:
                duration = inner(now, duration)
            if start <= now < end:
                duration += end - now
            return duration

        engine.compute_scale = scale

    def _claim_abort(self, message: Message, error: TransferAbortedError) -> bool:
        """Backend abort hook: retries that died against a crashed node
        are expected — recovery redoes the work, so the error must not
        take the whole simulation down."""
        if message.src in self._crash_nodes or message.dst in self._crash_nodes:
            self._stats["claimed_aborts"] += 1
            self.trace.point(
                "abort.claimed", f"{message.kind}:{message.src}->{message.dst}"
            )
            return True
        return False

    def _record_replays(self, subtasks: List) -> None:
        self._stats["replayed_subtasks"] += len(subtasks)
        for subtask in subtasks:
            self._replayed_iterations.add(subtask.parent.iteration)

    def _finish_recovery(self, node: str) -> None:
        crashed_at = self._crash_time[node]
        elapsed = self.env.now - crashed_at
        self._stats["recoveries"] += 1
        self._stats["recovery_time_total"] += elapsed
        self.trace.span("recovery", node, crashed_at, self.env.now)
        metrics = self.job.metrics
        if metrics is not None:
            metrics.histogram("recovery.time").observe(elapsed)
            metrics.counter("recovery.recoveries").inc()

    def _metric_inc(self, name: str) -> None:
        metrics = self.job.metrics
        if metrics is not None:
            metrics.counter(name).inc()

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Everything the run report records about crash recovery."""
        out = dict(self._stats)
        out["replayed_iterations"] = len(self._replayed_iterations)
        out["detection_lag"] = self.detector.detection_lag()
        out["probes_sent"] = self.detector.probes_sent
        out["checkpoint_interval"] = self.spec.checkpoint_interval
        return out

    def __repr__(self) -> str:
        return (
            f"<RecoveryManager crashes={len(self._crash_nodes)} "
            f"recovered={self._stats['recoveries']:.0f}>"
        )
