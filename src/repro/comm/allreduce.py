"""Ring all-reduce backend (NCCL/Horovod-style).

A collective over ``R`` ranks moves ``2(R-1)/R`` of the tensor size
through the bottleneck link and pays a per-operation synchronisation
cost that *grows with the ring size* — the reason the paper's tuned
partition sizes for NCCL are an order of magnitude larger than for PS
(Table 1: 56–88 MB vs 3–6 MB).

Collectives execute on a single FIFO pipe: NCCL serialises collectives
on a stream, and every rank must run them in the same order — which is
why the paper has only the *master* Core pick the order (§5).  The
backend therefore refuses per-worker scheduling (``is_collective``).

A ring all-reduce is algebraically two half-collectives — a
reduce-scatter followed by an all-gather, each moving ``(R-1)/R`` of
the tensor and paying half the synchronisation handshake.  This module
exposes that decomposition (:meth:`RingAllReduceBackend.
reduce_scatter_time` / :meth:`~RingAllReduceBackend.all_gather_time`,
and the shared :meth:`~RingAllReduceBackend._execute_pipe_op` fault
machinery) so :class:`repro.comm.phases.DecoupledAllReduceBackend` can
schedule the two phases independently (DeAR, arXiv 2302.12445) while
the monolithic :meth:`~RingAllReduceBackend.start_chunk` path stays
bit-identical for every existing scheduler.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError
from repro.net.transport import IntegrityStats, Transport
from repro.sim import Completion, Environment, Trace
from repro.comm.base import ChunkSpec, CommBackend, Milestone, RetryPolicy, complete_chunk
from repro.units import GB, MS, US

__all__ = ["RingAllReduceBackend"]

#: Aggregate intra-node bandwidth (PCIe class, no NVLink per the paper).
DEFAULT_LOCAL_BANDWIDTH = 10 * GB


class RingAllReduceBackend(CommBackend):
    """Hierarchical ring all-reduce over machines × GPUs."""

    is_collective = True

    def __init__(
        self,
        env: Environment,
        machines: int,
        gpus_per_machine: int,
        bandwidth: float,
        transport: Transport,
        local_bandwidth: float = DEFAULT_LOCAL_BANDWIDTH,
        base_sync: float = 0.4 * MS,
        per_rank_sync: float = 25 * US,
        trace: Optional[Trace] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if machines < 1:
            raise ConfigError(f"machines must be >= 1, got {machines}")
        if gpus_per_machine < 1:
            raise ConfigError(f"gpus_per_machine must be >= 1, got {gpus_per_machine}")
        self.env = env
        self.machines = machines
        self.gpus_per_machine = gpus_per_machine
        self.bandwidth = bandwidth
        self.transport = transport
        self.local_bandwidth = local_bandwidth
        self.base_sync = base_sync
        self.per_rank_sync = per_rank_sync
        self.trace = trace
        self._workers = tuple(f"m{index}" for index in range(machines))
        self._busy_until = env.now
        self.collectives_run = 0
        self.bytes_reduced = 0.0
        self.retry = retry
        #: Machines that crashed permanently: the ring reforms over the
        #: survivors (fewer ranks — less wire traffic, less sync).
        self._dead_machines: Tuple[str, ...] = ()
        #: Machines elastically outside the ring (left, or not joined
        #: yet): excluded like dead ones, but they can re-register.
        self._absent_machines: Set[str] = set()
        #: Fault-plan hooks (set by repro.faults.inject): degradation
        #: windows stall/slow the ring, loss fails whole collectives.
        self._fault_windows: Tuple[Tuple[float, float, float], ...] = ()
        self._loss_probability = 0.0
        self._fault_rng: Optional[random.Random] = None
        #: Integrity faults (corrupt/dup/reorder clauses) drawn per
        #: collective; see :meth:`set_integrity`.
        self._integrity_faults: Tuple = ()
        self._integrity_rng: Optional[random.Random] = None
        self.integrity_stats: Optional[IntegrityStats] = None
        #: Collectives fully reduced — the final parameter state.
        self.completed_keys: Set[Tuple[int, int, int]] = set()
        #: Per-(iteration, layer) reduced bytes (chaos-oracle ledger).
        self.layer_bytes_completed: Dict[Tuple[int, int], float] = {}
        #: Invariant hook: each key exactly once, at completion.
        self.on_complete: Optional[Callable[[Tuple[int, int, int]], None]] = None
        #: Robustness counters (read by the faults experiment).
        self.timeouts = 0
        self.retries = 0
        #: Optional metrics instruments (see :meth:`attach_metrics`).
        self._obs = None

    def attach_metrics(self, registry) -> None:
        """Wire per-collective latency and retry/timeout counters into a
        :class:`~repro.obs.MetricsRegistry`."""
        self._obs = {
            "latency": registry.histogram("allreduce.collective_latency"),
            "timeouts": registry.counter("allreduce.timeouts"),
            "retries": registry.counter("allreduce.retries"),
        }

    @property
    def workers(self) -> Tuple[str, ...]:
        return self._workers

    @property
    def live_machines(self) -> int:
        """Machines currently participating in the ring."""
        return (
            self.machines
            - len(self._dead_machines)
            - len(self._absent_machines)
        )

    @property
    def ring_size(self) -> int:
        """Number of ranks in the (flat) ring (survivors only)."""
        return self.live_machines * self.gpus_per_machine

    def mark_rank_dead(self, machine: str) -> None:
        """Permanently remove ``machine``: the ring reforms over the
        survivors from the next collective onward."""
        if machine not in self._workers:
            raise ConfigError(f"unknown machine {machine!r}")
        if machine in self._dead_machines:
            return
        self._dead_machines = self._dead_machines + (machine,)
        self._absent_machines.discard(machine)
        if self.live_machines < 1:
            raise ConfigError("every all-reduce machine is dead")
        if self.trace is not None:
            self.trace.point("ring_reform", f"{machine} removed")

    def deregister_rank(self, machine: str) -> None:
        """Elastically remove ``machine``: the ring reforms over the
        remaining members from the next collective onward, exactly like
        a permanent-crash shrink — but the machine may re-register."""
        if machine not in self._workers:
            raise ConfigError(f"unknown machine {machine!r}")
        if machine in self._dead_machines:
            raise ConfigError(f"machine {machine!r} died permanently")
        if machine in self._absent_machines:
            raise ConfigError(f"machine {machine!r} already left the ring")
        self._absent_machines.add(machine)
        if self.live_machines < 1:
            raise ConfigError("every all-reduce machine left the ring")
        if self.trace is not None:
            self.trace.point("ring_reform", f"{machine} left")

    def register_rank(self, machine: str, sync_bytes: float = 0.0):
        """Live ring grow: re-admit ``machine`` and sync its state.

        The joiner fetches the current parameters (``sync_bytes``) from
        an existing member before it can participate; the transfer
        occupies the collective pipe — all-reduce serialises on one
        stream, and a bulk state broadcast is a collective too.  Returns
        the sync's :class:`~repro.sim.Completion`, fired at the sync's
        end (the joiner's first forward op gates on it).
        """
        if machine not in self._workers:
            raise ConfigError(f"unknown machine {machine!r}")
        if machine in self._dead_machines:
            raise ConfigError(f"machine {machine!r} died permanently")
        if machine not in self._absent_machines:
            raise ConfigError(f"machine {machine!r} is already in the ring")
        if sync_bytes < 0:
            raise ConfigError(f"sync_bytes must be >= 0, got {sync_bytes!r}")
        self._absent_machines.discard(machine)
        work = 0.5 * self.base_sync
        if sync_bytes > 0:
            # One pass of the parameters over the bottleneck link (a
            # point-to-point broadcast from one existing member).
            effective = self.bandwidth * self.transport.efficiency
            work += sync_bytes / effective
        start = max(self.env.now, self._busy_until)
        end = self._finish_time(start, work)
        self._busy_until = end
        if self.trace is not None:
            self.trace.point("ring_reform", f"{machine} joined")
            self.trace.span(
                "membership.sync", machine, start, end, size=sync_bytes
            )
        gate = Completion()
        self.env.defer_at(Completion.fire, gate, end)
        return gate

    def sync_overhead(self) -> float:
        """Per-collective synchronisation cost (the all-reduce θ)."""
        return self.base_sync + self.per_rank_sync * self.ring_size

    def collective_time(self, size: float) -> float:
        """Wall time for one ring all-reduce of ``size`` bytes.

        Inter-machine traffic crosses each NIC once per direction; with
        a single machine the ring is entirely intra-node (PCIe).
        """
        if size <= 0:
            raise ConfigError(f"collective size must be > 0, got {size!r}")
        ranks = self.ring_size
        if ranks == 1:
            return self.base_sync  # nothing to reduce
        if self.live_machines > 1:
            effective = self.bandwidth * self.transport.efficiency
            wire = 2 * (ranks - 1) / ranks * size / effective
        else:
            wire = 2 * (ranks - 1) / ranks * size / self.local_bandwidth
        return wire + self.sync_overhead()

    def _phase_time(self, size: float) -> float:
        """Wall time of one half-collective (reduce-scatter or
        all-gather) of ``size`` bytes: ``(R-1)/R`` of the tensor over
        the bottleneck link plus half the synchronisation handshake.
        The two phases sum to :meth:`collective_time` (up to float
        rounding), so decoupling them never changes the total cost of a
        tensor — only *when* each half occupies the pipe."""
        if size <= 0:
            raise ConfigError(f"collective size must be > 0, got {size!r}")
        ranks = self.ring_size
        if ranks == 1:
            return 0.5 * self.base_sync  # nothing to move
        if self.live_machines > 1:
            effective = self.bandwidth * self.transport.efficiency
            wire = (ranks - 1) / ranks * size / effective
        else:
            wire = (ranks - 1) / ranks * size / self.local_bandwidth
        return wire + 0.5 * self.sync_overhead()

    def reduce_scatter_time(self, size: float) -> float:
        """Wall time of the reduce-scatter phase alone."""
        return self._phase_time(size)

    def all_gather_time(self, size: float) -> float:
        """Wall time of the all-gather phase alone."""
        return self._phase_time(size)

    def set_fault_windows(
        self, windows: Sequence[Tuple[float, float, float]]
    ) -> None:
        """Impose ring degradation windows from a fault plan.

        A degraded window scales the whole ring's progress (the ring
        moves at the speed of its slowest hop); factor 0 stalls it.
        """
        self._fault_windows = tuple(windows)

    def set_loss(self, probability: float, rng: random.Random) -> None:
        """Make collectives fail with ``probability`` (seeded draws).

        A failed collective is detected after the retry policy's
        timeout and re-executed; without a retry policy, losses are
        surfaced as one extra full execution (NCCL-style internal
        retransmission).
        """
        if not 0.0 <= probability < 1.0:
            raise ConfigError(
                f"loss probability must be in [0, 1), got {probability!r}"
            )
        self._loss_probability = probability
        self._fault_rng = rng

    def _finish_time(self, start: float, work: float) -> float:
        """Completion time of ``work`` seconds of ring time from
        ``start``, under the fault plan's degradation windows."""
        if not self._fault_windows:
            return start + work
        from repro.faults.plan import degraded_finish

        return degraded_finish(start, work, self._fault_windows)

    def set_integrity(
        self,
        faults: Sequence,
        rng: random.Random,
        stats: Optional[IntegrityStats] = None,
    ) -> None:
        """Install integrity faults on the collective pipe.

        There is no per-message wire here, so the clauses map onto what
        NCCL-style stacks actually exhibit: a *corrupt* draw is a
        checksum-failed collective — one full execution wasted, then
        internally retransmitted; a *dup* draw is a redundant copy the
        library absorbs (counted, no ring time); a *reorder* draw adds
        switch-buffer delay to the synchronisation phase.
        """
        self._integrity_faults = tuple(faults)
        self._integrity_rng = rng
        self.integrity_stats = stats if stats is not None else IntegrityStats()

    #: Extra sync delay of one reordered collective (switch re-buffer).
    REORDER_SYNC_EXTRA = 500 * US

    def _integrity_outcomes(self, now: float) -> Tuple[bool, bool, bool]:
        """Seeded (corrupt, dup, reorder) draws for one collective."""
        corrupt = dup = reorder = False
        for fault in self._integrity_faults:
            if not (fault.start <= now < fault.end):
                continue
            if self._integrity_rng.random() >= fault.rate:
                continue
            if fault.kind == "corrupt":
                corrupt = True
            elif fault.kind == "dup":
                dup = True
            else:
                reorder = True
        return corrupt, dup, reorder

    def _record_complete(self, chunk: ChunkSpec) -> None:
        if chunk.key in self.completed_keys:
            return
        self.completed_keys.add(chunk.key)
        bucket = (chunk.iteration, chunk.layer)
        self.layer_bytes_completed[bucket] = (
            self.layer_bytes_completed.get(bucket, 0.0) + chunk.size
        )
        if self.on_complete is not None:
            self.on_complete(chunk.key)

    def sync_digest(self) -> Tuple[Tuple[int, int, int], ...]:
        """Order-insensitive digest of the fully reduced chunk set."""
        return tuple(sorted(self.completed_keys))

    def _failed_attempts(self) -> int:
        """Seeded draw: consecutive failures before this collective
        succeeds (bounded by the retry budget)."""
        if self._fault_rng is None or self._loss_probability <= 0:
            return 0
        budget = self.retry.max_retries if self.retry is not None else 1
        failures = 0
        while failures < budget and self._fault_rng.random() < self._loss_probability:
            failures += 1
        return failures

    def _execute_pipe_op(
        self,
        chunk: ChunkSpec,
        duration: float,
        span_category: str,
        fault_label: str,
    ) -> float:
        """Occupy the single FIFO pipe for one collective operation.

        The shared execution path for a monolithic all-reduce and for
        each decoupled phase: queue behind ``_busy_until``, apply the
        seeded integrity draws (corrupt wastes the op's ring time and
        retransmits; dup is absorbed; reorder inflates the sync), waste
        the seeded loss attempts, stretch through the fault plan's
        degradation windows, then advance the pipe cursor and return
        the time the op completes, for the caller to arm its completion
        at with :meth:`~repro.sim.Environment.defer_at`.
        ``span_category`` names the trace span ("allreduce",
        "reduce_scatter", "all_gather"); ``fault_label`` labels the
        fault spans/points.
        """
        start = max(self.env.now, self._busy_until)
        cursor = start
        if self._integrity_faults:
            corrupt, dup, reorder = self._integrity_outcomes(start)
            stats = self.integrity_stats
            if corrupt:
                # Checksum failure: the whole collective's ring time is
                # wasted, then the stack retransmits internally.
                stats.corrupt_injected += 1
                stats.corrupt_detected += 1
                stats.retransmits += 1
                failed_end = self._finish_time(cursor, duration)
                if self.trace is not None:
                    self.trace.span(
                        "integrity.corrupt",
                        fault_label,
                        cursor,
                        failed_end,
                        size=chunk.size,
                    )
                    self.trace.point("integrity.retransmit", fault_label)
                cursor = failed_end
            if dup:
                # A redundant copy the library absorbs: counted, no
                # extra ring time.
                stats.dup_injected += 1
                stats.dup_absorbed += 1
                if self.trace is not None:
                    self.trace.point("integrity.dup", fault_label)
            if reorder:
                stats.reorder_injected += 1
                duration += self.REORDER_SYNC_EXTRA
        for attempt in range(self._failed_attempts()):
            # A failed collective occupies the ring until the stack
            # notices — after its own duration, or the retry deadline,
            # whichever is shorter — then is re-issued.
            wasted = duration
            if self.retry is not None:
                wasted = min(wasted, self.retry.attempt_timeout(attempt))
                self.retries += 1
            self.timeouts += 1
            if self._obs is not None:
                self._obs["timeouts"].inc()
                if self.retry is not None:
                    self._obs["retries"].inc()
            failed_end = self._finish_time(cursor, wasted)
            if self.trace is not None:
                self.trace.span(
                    "timeout",
                    fault_label,
                    cursor,
                    failed_end,
                    attempt=attempt,
                    size=chunk.size,
                )
                self.trace.point("retry", fault_label)
            cursor = failed_end
        end = self._finish_time(cursor, duration)
        self._busy_until = end
        if self._obs is not None:
            # Queue wait plus execution: hand-off to completed reduce.
            self._obs["latency"].observe(end - self.env.now)
        if self.trace is not None:
            self.trace.span(
                span_category,
                f"iter{chunk.iteration}.layer{chunk.layer}.{chunk.chunk_index}",
                start,
                end,
                size=chunk.size,
            )
        # A collective is "sent" when it completes: the credit window
        # bounds how many operations sit in NCCL's execution queue.
        return end

    def start_chunk(
        self, chunk: ChunkSpec, on_sent: Milestone, on_done: Milestone, token: Any
    ) -> None:
        if chunk.worker is not None:
            raise ConfigError(
                "all-reduce chunks are collective; start them without a worker"
            )
        if chunk.key in self.completed_keys:
            # A replayed collective (recovered master re-driving work
            # the ring already finished): every rank holds the reduced
            # tensor, so only the synchronisation handshake runs —
            # re-reducing would apply the sum twice.
            op = (None, chunk, on_sent, on_done, token)
            self.env.defer(complete_chunk, op, self.base_sync)
            return
        self.collectives_run += 1
        self.bytes_reduced += chunk.size
        end = self._execute_pipe_op(
            chunk,
            self.collective_time(chunk.size),
            "allreduce",
            f"allreduce:iter{chunk.iteration}.layer{chunk.layer}",
        )
        op = (self._record_complete, chunk, on_sent, on_done, token)
        self.env.defer_at(complete_chunk, op, end)

    def bytes_per_iteration(self, total_model_bytes: float) -> float:
        ranks = self.ring_size
        return 2 * (ranks - 1) / ranks * total_model_bytes

    def __repr__(self) -> str:
        return (
            f"<RingAllReduceBackend {self.machines}x{self.gpus_per_machine} "
            f"{self.transport.name}>"
        )
