"""ByteScheduler Core: Algorithm 1, credit-based preemptive scheduling.

One Core instance runs per worker in the PS architecture ("all Cores
schedule the order independently") and exactly one — the master — for
all-reduce ("only the master Core determines the order of sending
tensors", §5).

The algorithm is the paper's, event-driven instead of a polling thread:

* a priority queue of ready SubCommTasks, ordered by layer priority
  (layers near the input first) and FIFO within a priority;
* a byte-denominated *credit*: starting a partition consumes its size,
  finishing returns it — a sliding window of in-flight bytes
  (§4.2, "credit-based preemption");
* the scheduling step runs whenever a partition becomes ready or credit
  returns, starting queue-head partitions while credit suffices.

Two deliberate, documented deviations from the pseudo-code:

* the credit test is ``credit >= size`` rather than ``>`` (float
  equality is meaningful here because partitions are equal-sized);
* if the queue head does not fit the *available* credit and nothing is
  in flight, it is started anyway (uncharged) — with nothing in flight
  no credit will ever return, so waiting would deadlock the worker.
  This covers a tensor bigger than the whole window (the paper avoids
  that by tuning credit ≥ partition size), a per-layer
  ``partition_overrides`` unit bigger than the window, and the
  float-drift case where mixed partition sizes leave the credit a few
  ULPs short of capacity forever.  As a second guard, the lent-bytes
  ledger is snapped to zero whenever the last charged partition
  returns, so drift cannot accumulate across iterations.

Crash-fault support: the Core keeps an explicit per-partition *flight*
ledger, so a partition bound for a node that died can be cancelled with
its credit refunded exactly once (:meth:`drain`) and re-enqueued at its
original priority (:meth:`requeue`), while stale completion callbacks
from the pre-crash attempt are ignored.  :meth:`block_node` parks
queued partitions that depend on a down node instead of launching
doomed transfers, without stalling unrelated traffic behind them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import SchedulerError
from repro.sim import Environment
from repro.comm.base import CommBackend
from repro.core.commtask import CommTask, SubCommTask, TaskState

__all__ = ["ByteSchedulerCore", "PRIORITY_LAYER", "PRIORITY_FIFO"]


class _Flight:
    """Credit-ledger entry for one started partition.

    ``charged`` records whether the start consumed credit; ``sent``
    whether that credit has been returned; ``cancelled`` turns any
    late callbacks from the underlying transfer into no-ops (the
    requeued copy of the subtask owns completion from then on).
    """

    __slots__ = ("subtask", "charged", "sent", "cancelled")

    def __init__(self, subtask: SubCommTask, charged: bool) -> None:
        self.subtask = subtask
        self.charged = charged
        self.sent = False
        self.cancelled = False


@dataclass
class _CoreInstruments:
    """Registry-backed instruments for one Core (held only when metrics
    are enabled; the disabled path checks a single attribute)."""

    credit_used: "object"
    queue_depth: "object"
    preemptions: "object"
    escapes: "object"

#: Priority modes: by layer index (the paper's scheduler) or by arrival
#: order (vanilla framework behaviour).
PRIORITY_LAYER = "layer"
PRIORITY_FIFO = "fifo"


class ByteSchedulerCore:
    """The generic tensor scheduler (Algorithm 1)."""

    def __init__(
        self,
        env: Environment,
        backend: CommBackend,
        partition_bytes: Optional[float] = None,
        credit_bytes: float = math.inf,
        priority_mode: str = PRIORITY_LAYER,
        notify_delay: float = 0.0,
        name: str = "core",
        partition_overrides: Optional[Dict[int, float]] = None,
    ) -> None:
        if priority_mode not in (PRIORITY_LAYER, PRIORITY_FIFO):
            raise SchedulerError(f"unknown priority mode {priority_mode!r}")
        # ``not x > 0`` also rejects NaN; inf stays legal.
        if not credit_bytes > 0:
            raise SchedulerError(f"credit must be > 0, got {credit_bytes!r}")
        if partition_bytes is not None and not partition_bytes > 0:
            raise SchedulerError(
                f"partition size must be > 0, got {partition_bytes!r}"
            )
        if notify_delay < 0:
            raise SchedulerError(f"notify_delay must be >= 0, got {notify_delay!r}")
        self.env = env
        self.backend = backend
        self.partition_bytes = partition_bytes
        #: §7 extension: per-layer partition sizes override the global
        #: unit ("we may use different partition and credit sizes for
        #: different layers in the DNN").
        self.partition_overrides = dict(partition_overrides or {})
        if not all(value > 0 for value in self.partition_overrides.values()):
            raise SchedulerError("partition overrides must be > 0")
        self.credit_capacity = float(credit_bytes)
        self.priority_mode = priority_mode
        self.notify_delay = notify_delay
        self.name = name
        self._queue: List[Tuple[float, int, SubCommTask]] = []
        self._seq = 0
        self._ready_seq = 0
        self._wakeup_pending = False
        self._inflight = 0
        self._shutdown = False
        self._paused = False
        # Credit ledger: bytes lent to charged, not-yet-sent flights.
        self._lent = 0.0
        self._unsent_charged = 0
        self._flights: Dict[SubCommTask, _Flight] = {}
        # Nodes known to be down; partitions depending on them are
        # parked instead of launched.
        self._blocked_nodes: Set[str] = set()
        self._parked: Dict[str, List[Tuple[float, int, SubCommTask]]] = {}
        # Statistics.
        self.bytes_started = 0.0
        self.subtasks_started = 0
        self.tasks_enqueued = 0
        self.preemption_opportunities = 0
        #: Liveness-escape starts (queue head launched uncharged).
        self.escape_starts = 0
        #: Crash-recovery counters.
        self.drained_subtasks = 0
        self.requeued_subtasks = 0
        self.credit_refunded = 0.0
        #: Optional metrics instruments (see :meth:`attach_metrics`).
        self._obs: Optional[_CoreInstruments] = None

    @property
    def credit(self) -> float:
        """Bytes of window currently available.

        Derived from the flight ledger, and clamped at zero: shrinking
        ``credit_bytes`` below the amount lent to in-flight partitions
        leaves the window exhausted (not negative) until those
        partitions return their credit, after which scheduling resumes
        under the new capacity.
        """
        if math.isinf(self.credit_capacity):
            return math.inf
        return max(0.0, self.credit_capacity - self._lent)

    # -- the paper's Core interface ---------------------------------------

    def init(self) -> None:
        """Trivial init (kept for interface parity with the paper)."""
        self._shutdown = False

    def attach_metrics(self, registry) -> None:
        """Wire scheduler-internal signals into a
        :class:`~repro.obs.MetricsRegistry`: credit occupancy and queue
        depth as time-weighted values, preemption opportunities and
        escape starts as counters.  Idempotent per registry name."""
        prefix = f"core.{self.name}"
        self._obs = _CoreInstruments(
            credit_used=registry.time_weighted(f"{prefix}.credit_used"),
            queue_depth=registry.time_weighted(f"{prefix}.queue_depth"),
            preemptions=registry.counter(f"{prefix}.preemption_opportunities"),
            escapes=registry.counter(f"{prefix}.escape_starts"),
        )

    def _credit_used(self) -> float:
        """Bytes of credit currently lent out, ``capacity - credit`` (0
        for an infinite window, where occupancy is not a meaningful
        fraction).  Spelled out rather than read through :attr:`credit`,
        and inlined at the two per-partition sites (start, sent), so a
        credit-occupancy update stays one call."""
        capacity = self.credit_capacity
        if capacity == math.inf:
            return 0.0
        return capacity - max(0.0, capacity - self._lent)

    def shutdown(self) -> None:
        """Stop scheduling; queued subtasks are abandoned."""
        self._shutdown = True
        self._queue.clear()
        self._parked.clear()

    def create_task(
        self,
        iteration: int,
        layer: int,
        size: float,
        worker: Optional[str] = None,
        name: Optional[str] = None,
        splittable: bool = True,
    ) -> CommTask:
        """Convenience used by plugins: build a CommTask and enqueue it.

        ``splittable=False`` keeps the tensor whole regardless of the
        configured partition size (e.g. row-sparse embeddings under the
        vanilla framework).
        """
        task = CommTask(self, iteration, layer, size, worker=worker, name=name)
        self.enqueue(task, splittable=splittable)
        return task

    def enqueue(self, task: CommTask, splittable: bool = True) -> None:
        """Core.enqueue(CommTask): assign priority and partition (§3.2)."""
        if self._shutdown:
            raise SchedulerError(f"core {self.name} is shut down")
        if task.core is not self:
            raise SchedulerError("task belongs to a different core")
        if self.priority_mode == PRIORITY_LAYER:
            task.priority = float(task.layer)
        else:
            # FIFO: priority is the order tensors become *ready* (the
            # order backward propagation produces them), stamped in
            # _on_subtask_ready.  Tasks may be wrapped long before.
            task.priority = None
        self.tasks_enqueued += 1
        if not splittable:
            unit = None
        else:
            unit = self.partition_overrides.get(task.layer, self.partition_bytes)
        task.partition(unit)

    def reconfigure(
        self,
        partition_bytes: Optional[float] = None,
        credit_bytes: Optional[float] = None,
    ) -> None:
        """Adjust the two knobs between iterations (auto-tuning, §4.3).

        Credit adjustments preserve the amount currently lent out to
        in-flight partitions.  Shrinking the window below that amount
        is legal: the available credit clamps at zero (never negative)
        and recovers as the in-flight partitions finish.
        """
        if partition_bytes is not None:
            if not partition_bytes > 0:
                raise SchedulerError(
                    f"partition size must be > 0, got {partition_bytes!r}"
                )
            self.partition_bytes = partition_bytes
        if credit_bytes is not None:
            if not credit_bytes > 0:
                raise SchedulerError(f"credit must be > 0, got {credit_bytes!r}")
            self.credit_capacity = float(credit_bytes)
            if self._obs is not None:
                self._obs.credit_used.set(self._credit_used(), self.env._now)
            self._kick()

    # -- event-driven Algorithm 1 -----------------------------------------

    def _on_subtask_ready(self, subtask: SubCommTask) -> None:
        """procedure READY: enqueue by priority, then try to schedule."""
        if self._shutdown:
            return
        if subtask.parent.priority is None:
            subtask.parent.priority = float(self._ready_seq)
            self._ready_seq += 1
        self._seq += 1
        heapq.heappush(self._queue, (subtask.priority, self._seq, subtask))
        if self._inflight > 0:
            # A higher-priority arrival while transmissions are in
            # flight is where preemption (at partition granularity)
            # can pay off; count them for the experiments.
            self.preemption_opportunities += 1
            if self._obs is not None:
                self._obs.preemptions.inc()
        if self._obs is not None:
            self._obs.queue_depth.set(len(self._queue), self.env._now)
        self._kick()

    def _kick(self) -> None:
        """Wake the scheduling loop after the current instant settles.

        Algorithm 1's SCHEDULE procedure runs on its own thread, so
        tensors that become ready at the same moment are all in the
        queue before any start decision — the zero-delay wakeup
        reproduces that (and coalesces bursts of ready partitions into
        one scheduling pass).
        """
        if self._wakeup_pending or self._shutdown:
            return
        self._wakeup_pending = True
        # defer() takes the same slot in the event order a zero-delay
        # timeout would, without allocating one.
        self.env.defer(self._wakeup)

    def _wakeup(self, _evt) -> None:
        self._wakeup_pending = False
        if not self._shutdown:
            self._schedule()

    def _schedule(self) -> None:
        """procedure SCHEDULE: start queue heads while credit allows."""
        while self._queue and not self._paused:
            _priority, _seq, subtask = self._queue[0]
            if subtask.state is not TaskState.READY:
                # Lazy-deletion tombstone: the subtask was cancelled (or
                # otherwise moved on) while queued; drop it now instead
                # of having the canceller scan the heap.
                heapq.heappop(self._queue)
                if self._obs is not None:
                    self._obs.queue_depth.set(len(self._queue), self.env._now)
                continue
            if self._blocked_nodes:
                target = self.backend.chunk_targets(subtask.chunk)
                if target is not None and target in self._blocked_nodes:
                    # The head depends on a node known to be down: park
                    # it (released by unblock_node) rather than either
                    # launching a doomed transfer or stalling unrelated
                    # traffic behind it.
                    entry = heapq.heappop(self._queue)
                    self._parked.setdefault(target, []).append(entry)
                    if self._obs is not None:
                        self._obs.queue_depth.set(len(self._queue), self.env._now)
                    continue
            # ``credit`` spelled out: unclamped, it decides the same for
            # a size > 0, an infinite capacity included.
            fits = self.credit_capacity - self._lent >= subtask.size
            # Liveness escape: with nothing in flight, no credit will
            # ever return, so a head that does not fit *now* never will
            # — start it uncharged (oversized tensors, oversized
            # per-layer partition overrides, or float drift).
            escape = self._inflight == 0 and not fits
            if not fits and not escape:
                return  # head-of-line blocking is intentional (priority!)
            heapq.heappop(self._queue)
            if fits:
                self._lent += subtask.size
                self._unsent_charged += 1
            else:
                self.escape_starts += 1
            obs = self._obs
            if obs is not None:
                now = self.env._now
                capacity = self.credit_capacity
                obs.queue_depth.set(len(self._queue), now)
                obs.credit_used.set(
                    0.0
                    if capacity == math.inf
                    else capacity - max(0.0, capacity - self._lent),
                    now,
                )
                if not fits:
                    obs.escapes.inc()
            self._start(subtask, charged=fits)

    def _start(self, subtask: SubCommTask, charged: bool) -> None:
        flight = _Flight(subtask, charged)
        self._flights[subtask] = flight
        self._inflight += 1
        self.bytes_started += subtask.size
        self.subtasks_started += 1
        if self.notify_delay > 0:
            subtask.start(self._sent_late, self._finish_late, flight)
        else:
            subtask.start(self._on_sent, self._finish, flight)

    def _sent_late(self, flight: _Flight) -> None:
        """The framework/stack reports ``sent`` ``notify_delay`` late."""
        self.env.defer(self._on_sent, flight, self.notify_delay)

    def _finish_late(self, flight: _Flight) -> None:
        """The framework/stack reports ``done`` ``notify_delay`` late."""
        self.env.defer(self._finish, flight, self.notify_delay)

    @staticmethod
    def _unheard(_token) -> None:
        """A milestone this core does not listen to."""

    def _on_sent(self, flight: _Flight) -> None:
        """The sender buffer is free again: return credit (§4.2)."""
        if flight.cancelled or flight.sent:
            return
        flight.sent = True
        self._inflight -= 1
        if flight.charged:
            self._lent -= flight.subtask.size
            self._unsent_charged -= 1
            if self._unsent_charged == 0:
                # All lent credit is back; snap away any float drift
                # from mixed partition sizes so `credit == capacity`
                # stays exact.
                self._lent = 0.0
        obs = self._obs
        if obs is not None:
            capacity = self.credit_capacity
            obs.credit_used.set(
                0.0
                if capacity == math.inf
                else capacity - max(0.0, capacity - self._lent),
                self.env._now,
            )
        self._kick()

    def _finish(self, flight: _Flight) -> None:
        """procedure FINISH: the chunk's synchronised data arrived."""
        if flight.cancelled:
            return  # stale pre-crash attempt; the requeued copy owns completion
        self._flights.pop(flight.subtask, None)
        flight.subtask.parent._on_subtask_finished(flight.subtask)

    # -- crash recovery -----------------------------------------------------

    def pause(self) -> None:
        """Stop launching partitions (the local worker is down)."""
        self._paused = True

    def resume(self) -> None:
        """Resume launching after :meth:`pause`."""
        self._paused = False
        self._kick()

    def block_node(self, node: str) -> None:
        """Park (rather than launch) partitions that depend on ``node``."""
        self._blocked_nodes.add(node)

    def unblock_node(self, node: str) -> None:
        """Release partitions parked while ``node`` was down."""
        self._blocked_nodes.discard(node)
        released = self._parked.pop(node, [])
        for entry in released:
            heapq.heappush(self._queue, entry)
        if self._obs is not None:
            self._obs.queue_depth.set(len(self._queue), self.env._now)
        if released:
            self._kick()

    def drain(
        self,
        node: Optional[str] = None,
        keys: Optional[Iterable[Tuple[int, int, int]]] = None,
        orphans=None,
    ) -> List[SubCommTask]:
        """Cancel in-flight partitions that depend on dead ``node``.

        Each cancelled partition's credit is refunded exactly once (the
        flight ledger ignores any late callbacks from the underlying
        transfer) and the subtask moves to ``CANCELLED`` — hand the
        returned list to :meth:`requeue` to re-enqueue survivors at
        their original priority.  ``keys`` restricts the drain to
        specific ``(iteration, layer, chunk)`` keys (partitions whose
        server-side state was lost), leaving durable ones in flight.
        ``orphans`` widens a keyed drain: a predicate over chunk keys
        matching flights whose push died on the wire before any
        server-side state formed — invisible to the backend's pending
        ledger, yet hung forever if left in flight.  ``node=None``
        drains every flight (this core's own worker died: whatever it
        had in the air died with it).
        """
        key_set = None if keys is None else set(keys)
        drained: List[SubCommTask] = []
        for subtask, flight in list(self._flights.items()):
            if flight.cancelled:
                continue
            chunk = subtask.chunk
            if node is not None and self.backend.chunk_targets(chunk) != node:
                continue
            if key_set is not None and chunk.key not in key_set:
                if orphans is None or not orphans(chunk.key):
                    continue
            self._cancel(flight)
            drained.append(subtask)
        self.drained_subtasks += len(drained)
        if self._obs is not None:
            self._obs.credit_used.set(self._credit_used(), self.env._now)
        self.check_credit_invariant()
        self._kick()
        return drained

    def requeue(self, subtasks: Sequence[SubCommTask]) -> None:
        """Re-enqueue drained partitions at their original priority."""
        for subtask in subtasks:
            if subtask.state is not TaskState.CANCELLED:
                raise SchedulerError(
                    f"{subtask!r} requeued in state {subtask.state.value}, "
                    "expected cancelled"
                )
            subtask.state = TaskState.READY
            self._seq += 1
            heapq.heappush(self._queue, (subtask.priority, self._seq, subtask))
            self.requeued_subtasks += 1
        if self._obs is not None:
            self._obs.queue_depth.set(len(self._queue), self.env._now)
        self.check_credit_invariant()
        self._kick()

    def _cancel(self, flight: _Flight) -> None:
        flight.cancelled = True
        self._flights.pop(flight.subtask, None)
        if not flight.sent:
            self._inflight -= 1
            if flight.charged:
                self._lent -= flight.subtask.size
                self._unsent_charged -= 1
                self.credit_refunded += flight.subtask.size
                if self._unsent_charged == 0:
                    self._lent = 0.0
        flight.subtask.state = TaskState.CANCELLED

    def check_credit_invariant(self) -> None:
        """Assert credit conservation: lent bytes equal the sum over
        charged, unsent, live flights — no leak, no double refund."""
        expected = sum(
            flight.subtask.size
            for flight in self._flights.values()
            if flight.charged and not flight.sent
        )
        if not math.isclose(self._lent, expected, rel_tol=1e-9, abs_tol=1e-6):
            raise SchedulerError(
                f"core {self.name} credit ledger out of balance: "
                f"lent={self._lent!r}, in-flight charges={expected!r}"
            )

    # -- introspection ------------------------------------------------------

    @property
    def queued(self) -> int:
        """Ready partitions waiting for credit."""
        return len(self._queue)

    @property
    def inflight(self) -> int:
        """Partitions handed to the network, not yet finished."""
        return self._inflight

    @property
    def parked(self) -> int:
        """Ready partitions parked behind blocked (down) nodes."""
        return sum(len(entries) for entries in self._parked.values())

    def __repr__(self) -> str:
        return (
            f"<ByteSchedulerCore {self.name} mode={self.priority_mode} "
            f"partition={self.partition_bytes} credit={self.credit_capacity} "
            f"queued={self.queued} inflight={self.inflight}>"
        )
