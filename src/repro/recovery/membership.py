"""Elastic membership: planned joins and leaves, mid-run.

Crash recovery (:mod:`repro.recovery.manager`) reacts to failures; this
module handles the *planned* counterpart — a fault plan's
``join:<node>@<t>`` / ``leave:<node>@<t>`` clauses scale the worker set
while the job trains.  :class:`MembershipManager` owns the choreography,
and every event runs the same deterministic sequence:

1. **Quiesce** — scale events apply only at iteration boundaries (the
   job calls :meth:`on_boundary` between iterations), so an event
   scheduled mid-iteration waits for the boundary; the wait is recorded
   as the event's quiesce time.
2. **Epoch bump** — each applied event increments the cluster-wide
   membership epoch.  On the PS fabric the leaving/joining node's
   incarnation is bumped too, so the delivery guard (when enabled)
   fences stale in-flight frames from the previous epoch exactly like a
   crash restart does.
3. **Reform** — all-reduce: the ring shrinks
   (:meth:`~repro.comm.allreduce.RingAllReduceBackend.deregister_rank`,
   the ``mark_rank_dead``-style reform) or grows live
   (:meth:`~repro.comm.allreduce.RingAllReduceBackend.register_rank`,
   which occupies the collective pipe for the joiner's state sync).
   PS: the worker is removed from / re-admitted to aggregation
   barriers, and a joiner bulk-fetches the current parameters from a
   server before its first forward op runs (the job gates on the sync).
4. **Credit conservation** — a leaving PS worker's in-flight partitions
   are drained with their credit refunded and *held*; if the node later
   rejoins they are requeued, and chunks the fleet finished meanwhile
   are answered from the server shard (the crash-recovery replay path).

Dropping below the spec's ``min_workers`` floor *parks* the job — no
further iterations are built — instead of deadlocking; if a later join
is scheduled the manager idles the clock forward to it and resumes.
Each epoch is also the change-point signal
:class:`~repro.tuning.OnlineTuner` uses to re-tune knobs for the new
cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.net import Message
from repro.faults.plan import FaultPlan, ScaleEvent
from repro.recovery.detector import (
    DEFAULT_MISS_THRESHOLD,
    DEFAULT_PROBE_INTERVAL,
    FailureDetector,
)
from repro.recovery.liveness import NodeLiveness
from repro.sim import Completion

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.training.job import TrainingJob

__all__ = ["MembershipSpec", "MembershipManager"]


@dataclass(frozen=True)
class MembershipSpec:
    """Tunable knobs of the elastic-membership control plane."""

    #: Active-member floor: an iteration is never built with fewer
    #: members — the job parks instead (graceful degradation).
    min_workers: int = 1
    #: Install an open-ended heartbeat watch on every joined node
    #: (retired automatically when the job drains).
    monitor_joined: bool = False
    probe_interval: float = DEFAULT_PROBE_INTERVAL
    miss_threshold: int = DEFAULT_MISS_THRESHOLD

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ConfigError(
                f"min_workers must be >= 1, got {self.min_workers!r}"
            )
        if self.probe_interval <= 0:
            raise ConfigError(
                f"probe_interval must be > 0, got {self.probe_interval!r}"
            )
        if self.miss_threshold < 1:
            raise ConfigError(
                f"miss_threshold must be >= 1, got {self.miss_threshold!r}"
            )


class MembershipManager:
    """Planned scale events → epoch fencing + reform + credit refund."""

    def __init__(
        self,
        job: "TrainingJob",
        plan: FaultPlan,
        spec: Optional[MembershipSpec] = None,
    ) -> None:
        self.job = job
        self.plan = plan
        self.spec = spec or MembershipSpec()
        self.env = job.env
        self.trace = job.trace
        #: Cluster-wide membership epoch: bumped once per applied event.
        self.epoch = 0
        #: Events not applied yet, in canonical (time, node) order.
        self._pending: List[ScaleEvent] = list(plan.scale_timeline)
        #: Per-node drained subtasks awaiting the node's rejoin.
        self._held: Dict[str, List[List]] = {}
        self._watch_cancels: Dict[str, Callable[[], None]] = {}
        self._detector: Optional[FailureDetector] = None
        #: Per-event audit records (scheduled vs applied time, quiesce
        #: wait, sync bytes, member count after) for the run report.
        self._history: List[Dict] = []
        #: (time, active member count) after every change.
        self._member_counts: List[Tuple[float, int]] = []
        self._stats: Dict[str, float] = {
            "joins": 0,
            "leaves": 0,
            "park_events": 0,
            "parked_time": 0.0,
            "quiesce_time_total": 0.0,
            "sync_bytes": 0.0,
            "credit_refunded_bytes": 0.0,
            "monitor_deaths": 0,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Validate the plan against the built job and deactivate the
        initially-absent workers (called once by
        :func:`repro.faults.apply_fault_plan`)."""
        job = self.job
        known = set(job.workers)
        for event in self._pending:
            if event.node not in known:
                raise ConfigError(
                    f"fault plan scales unknown worker {event.node!r}; "
                    f"workers are {sorted(known)}"
                )
        absent = self.plan.initially_absent
        present = len(job.workers) - len(absent)
        if present < self.spec.min_workers:
            raise ConfigError(
                f"initial membership of {present} is below the "
                f"min_workers floor of {self.spec.min_workers}"
            )
        for node in absent:
            self._deactivate_initial(node)
        if self.spec.monitor_joined:
            self._detector = FailureDetector(
                self.env,
                NodeLiveness(self.env),
                probe_interval=self.spec.probe_interval,
                miss_threshold=self.spec.miss_threshold,
                trace=self.trace,
            )
        self._record_members()

    def _deactivate_initial(self, node: str) -> None:
        """A node whose first event is ``join`` starts outside the
        cluster: it joins the substrate but no barrier, ring slot, or
        iteration includes it until the join applies."""
        job = self.job
        if job.backend.is_collective:
            job.backend.deregister_rank(node)
        else:
            job.backend.mark_worker_inactive(node)
            job.cores[node].pause()
        job.deactivate_worker(node)
        self.trace.point("membership.absent", node)

    # -- boundary protocol ---------------------------------------------------

    @property
    def active_members(self) -> Tuple[str, ...]:
        """Workers currently in the cluster (neither dead nor left)."""
        job = self.job
        return tuple(
            w
            for w in job.workers
            if w not in job._dead_workers and w not in job._inactive_workers
        )

    def on_boundary(self) -> bool:
        """Apply every matured scale event; True when the next
        iteration may be built.

        Called by the job between iterations.  When membership drops
        below the ``min_workers`` floor the job parks: with future
        events still pending the clock idles forward to the next one
        (a later join can un-park the run); with none left this
        returns False and the job stops building iterations.
        """
        while True:
            self._apply_matured()
            if len(self.active_members) >= self.spec.min_workers:
                return True
            if not self._pending:
                self._stats["park_events"] += 1
                self.trace.point(
                    "membership.parked",
                    f"{len(self.active_members)}<{self.spec.min_workers}",
                )
                return False
            next_time = self._pending[0].time
            if next_time > self.env.now:
                self._stats["park_events"] += 1
                started = self.env.now
                self.env.run(until=next_time)
                self._stats["parked_time"] += self.env.now - started
                self.trace.span(
                    "membership.parked", "cluster", started, self.env.now
                )

    def _apply_matured(self) -> None:
        while self._pending and self._pending[0].time <= self.env.now:
            event = self._pending.pop(0)
            if event.kind == "leave":
                self._leave(event)
            else:
                self._join(event)

    # -- leave choreography --------------------------------------------------

    def _leave(self, event: ScaleEvent) -> None:
        job = self.job
        node = event.node
        if node in job._dead_workers or node in job._inactive_workers:
            raise ConfigError(
                f"leave event for {node!r} but it is not an active member"
            )
        self.epoch += 1
        if job.backend.is_collective:
            # Ring shrink: the same reform a permanent crash triggers,
            # minus the death — the node may rejoin later.
            job.backend.deregister_rank(node)
        else:
            core = job.cores[node]
            drained = core.drain()
            self._stats["credit_refunded_bytes"] += sum(
                subtask.size for subtask in drained
            )
            self._held[node] = [drained]
            core.pause()
            job.backend.mark_worker_inactive(node)
            if job.fabric is not None:
                # New epoch: frames addressed to/from the leaver under
                # the old membership are fenced by the delivery guard.
                job.fabric.bump_incarnation(node)
        job.deactivate_worker(node)
        self._cancel_watch(node)
        self._stats["leaves"] += 1
        quiesce = self.env.now - event.time
        self._stats["quiesce_time_total"] += quiesce
        self.trace.point("membership.leave", node)
        self.trace.span("membership.quiesce", node, event.time, self.env.now)
        self._finish_event(event, quiesce, sync_bytes=0.0)

    # -- join choreography ---------------------------------------------------

    def _join(self, event: ScaleEvent) -> None:
        job = self.job
        node = event.node
        if node in job._dead_workers:
            raise ConfigError(
                f"join event for {node!r} but it died permanently"
            )
        if node not in job._inactive_workers:
            raise ConfigError(
                f"join event for {node!r} but it is already a member"
            )
        self.epoch += 1
        sync_bytes = float(job.model.total_bytes)
        started = self.env.now
        if job.backend.is_collective:
            # Live ring grow: the joiner's state sync occupies the
            # collective pipe, and its first forward gates on it.
            gate = job.backend.register_rank(node, sync_bytes=sync_bytes)
        else:
            if job.fabric is not None:
                job.fabric.bump_incarnation(node)
            job.backend.mark_worker_active(node)
            core = job.cores[node]
            held = self._held.pop(node, [])
            for subtasks in held:
                if subtasks:
                    # Work drained at the leave replays; chunks the
                    # fleet finished meanwhile are answered straight
                    # from the server shard (the replay path).
                    core.requeue(subtasks)
            core.resume()
            gate = None
            if job.fabric is not None:
                sync = Message(
                    job.backend.servers[0], node, sync_bytes, kind="sync"
                )
                gate = Completion()
                gate.then(
                    lambda _gate, n=node, s=started, b=sync_bytes: (
                        self.trace.span(
                            "membership.sync", n, s, self.env.now, size=b
                        )
                    )
                )
                # The delivery's own kernel entry runs the gate's
                # listeners, so no second entry is issued.
                job.fabric.send(sync, gate.fire)
        job.activate_worker(node, gate)
        if self._detector is not None:
            self._watch_cancels[node] = self._detector.watch(
                node, self._joined_died, open_ended=True
            )
        self._stats["joins"] += 1
        self._stats["sync_bytes"] += sync_bytes
        quiesce = self.env.now - event.time
        self._stats["quiesce_time_total"] += quiesce
        self.trace.point("membership.join", node)
        self._finish_event(event, quiesce, sync_bytes=sync_bytes)

    def _joined_died(self, node: str, now: float) -> None:
        """Heartbeats from a monitored joined node stopped: treat it as
        a permanent departure (there is no planned restart to wait
        for)."""
        self._stats["monitor_deaths"] += 1
        self.job.mark_worker_dead(node)

    # -- shared plumbing -----------------------------------------------------

    def _finish_event(
        self, event: ScaleEvent, quiesce: float, sync_bytes: float
    ) -> None:
        self._record_members()
        self._history.append(
            {
                "kind": event.kind,
                "node": event.node,
                "scheduled": event.time,
                "applied": self.env.now,
                "epoch": self.epoch,
                "members": len(self.active_members),
                "quiesce": quiesce,
                "sync_bytes": sync_bytes,
            }
        )

    def _record_members(self) -> None:
        self._member_counts.append((self.env.now, len(self.active_members)))

    def _cancel_watch(self, node: str) -> None:
        cancel = self._watch_cancels.pop(node, None)
        if cancel is not None:
            cancel()

    def retire_watches(self) -> None:
        """Cancel every open-ended heartbeat watch so the event heap
        drains (called by the job before a full drain)."""
        for node in sorted(self._watch_cancels):
            self._cancel_watch(node)

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict:
        """Everything the run report records about elastic membership."""
        out: Dict = dict(self._stats)
        out["epoch"] = self.epoch
        out["min_workers"] = self.spec.min_workers
        out["pending_events"] = len(self._pending)
        out["members_now"] = len(self.active_members)
        out["history"] = [dict(record) for record in self._history]
        out["member_counts"] = [
            [when, count] for when, count in self._member_counts
        ]
        return out

    def __repr__(self) -> str:
        return (
            f"<MembershipManager epoch={self.epoch} "
            f"members={len(self.active_members)} "
            f"pending={len(self._pending)}>"
        )
