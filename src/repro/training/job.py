"""The training job: model × cluster × framework × scheduler → speed.

:class:`TrainingJob` assembles one complete run.  Per worker it builds
the Figure-1 op graph for every iteration — the forward chain, the
backward chain, and the per-layer communication — and lets the chosen
adapter (vanilla or ByteScheduler) supply the glue: FIFO comm ops and
true barriers for the baseline; ready proxies, held/async comm ops,
barrier crossing, and forward proxies for ByteScheduler.

The job does *not* know how any of those differ — exactly the property
the paper claims for its design ("the same piece of scheduling code
would work across frameworks and communication methods", §3.1).
"""

from __future__ import annotations

import math
import numbers
import random
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError
from repro.frameworks import EngineOp, OpKind, make_engine
from repro.models import ModelSpec
from repro.sim import Environment, Trace
from repro.comm.base import CommBackend
from repro.core import (
    ByteSchedulerCore,
    CommTask,
    ReadyCountdown,
    make_adapter,
)
from repro.training.cluster import ClusterSpec, SchedulerSpec
from repro.training.metrics import TrainingResult

__all__ = ["TrainingJob"]


def _check_count(name: str, value, why: str = "") -> None:
    """Raise :class:`ConfigError` unless ``value`` is an iteration
    count: an integer >= 1 (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1{why}, got {value!r}")


class TrainingJob:
    """One simulated distributed training run."""

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterSpec,
        scheduler: SchedulerSpec,
        enable_trace: bool = False,
        env: Optional[Environment] = None,
        shared_fabric=None,
        placement=None,
        tenant: str = "",
        fault_plan=None,
        metrics=None,
        recovery_spec=None,
        membership_spec=None,
        oracle=None,
        integrity: bool = False,
    ) -> None:
        self.model = model
        self.cluster = cluster
        self.scheduler = scheduler
        self.fault_plan = fault_plan
        #: Optional :class:`repro.recovery.RecoverySpec` tuning the
        #: crash control plane; the injector reads it when the fault
        #: plan contains crash clauses.
        self.recovery_spec = recovery_spec
        #: The :class:`repro.recovery.RecoveryManager`, if the fault
        #: plan scheduled any crashes (set by apply_fault_plan).
        self.recovery = None
        #: Optional :class:`repro.recovery.MembershipSpec` tuning the
        #: elastic membership control plane; the injector reads it when
        #: the fault plan contains join/leave clauses.
        self.membership_spec = membership_spec
        #: The :class:`repro.recovery.MembershipManager`, if the fault
        #: plan scheduled any scale events (set by apply_fault_plan).
        self.membership = None
        #: Accounting dict from the online/adaptive tuner that drove
        #: this job, if any (set by repro.tuning.record_tuning_stats);
        #: surfaced in the RunReport's ``tuning`` section.
        self.tuning_stats = None
        #: Optional :class:`repro.obs.MetricsRegistry`; None keeps every
        #: instrumented hot path at a single attribute check.
        self.metrics = metrics
        #: Jobs sharing an environment (and fabric) co-schedule on the
        #: same simulated cluster — the §7 multi-tenant scenario.
        self.env = env or Environment()
        self.trace = Trace(self.env, enabled=enable_trace)
        built = cluster.build(
            self.env,
            layer_bytes=model.layer_bytes(),
            trace=self.trace if enable_trace else None,
            default_sharding="chunk",
            shared_fabric=shared_fabric,
            placement=placement,
            tenant=tenant,
        )
        self.backend: CommBackend = built.backend
        self.fabric = built.fabric
        self.workers: Tuple[str, ...] = built.workers
        self.engines = {
            worker: make_engine(cluster.framework, self.env, name=f"{cluster.framework}@{worker}")
            for worker in self.workers
        }
        if enable_trace:
            for engine in self.engines.values():
                engine.record_ops = True
        self.cores = self._make_cores()
        self.adapters = {
            worker: make_adapter(
                scheduler.scheduled,
                self.engines[worker],
                self._core_for(worker),
                worker=None if self.backend.is_collective else worker,
            )
            for worker in self.workers
        }
        for worker, adapter in self.adapters.items():
            # Countdown-party label: distinct per worker even in
            # collective mode (where ``adapter.worker`` is None), so a
            # crashed machine can be excused from gradient countdowns.
            adapter.party = worker
        self._markers: Dict[str, List[float]] = {worker: [] for worker in self.workers}
        self._built_iterations = 0
        self._jitter_rng = random.Random(cluster.seed)
        #: Workers that crashed permanently mid-run: excluded from
        #: barriers, countdowns, and completion accounting.
        self._dead_workers: Set[str] = set()
        #: Workers currently outside the cluster (left, or not joined
        #: yet): excluded from new iterations but able to return.
        self._inactive_workers: Set[str] = set()
        #: Per-worker join gates: a rejoining worker's first forward op
        #: waits for its state sync (popped by _build_iteration).
        self._member_gates: Dict[str, object] = {}
        #: Per-worker count of iterations the worker was included in
        #: (== _built_iterations while membership never changes).
        self._expected_iterations: Dict[str, int] = {
            worker: 0 for worker in self.workers
        }
        #: Per-iteration completion times and member counts — the
        #: membership-aware measurement ledger (iteration i is done
        #: when every worker included in it finished its backward).
        self._iteration_done: Dict[int, float] = {}
        self._iteration_members: Dict[int, int] = {}
        self._iteration_watches: List[Dict] = []
        #: The collective gradient countdowns that have not fired yet (a
        #: late permanent crash must excuse its worker from them; one
        #: that fired needs no excuse and is dropped).
        self._countdowns: List[ReadyCountdown] = []
        #: Outstanding per-iteration sampling gates (see _worker_done).
        self._pending_samples: List[Dict] = []
        #: Optional :class:`repro.invariants.ChaosOracle`; verified at
        #: the end of :meth:`drain`.
        self.oracle = oracle
        if integrity and self.fabric is not None:
            # Explicit opt-in to the delivery protocol even without
            # integrity fault clauses (idempotent with the injector's
            # own enable when the plan has them).
            self.fabric.enable_integrity()
        if fault_plan is not None:
            from repro.faults import apply_fault_plan

            apply_fault_plan(self, fault_plan)
        if oracle is not None:
            oracle.install(self)
        if metrics is not None:
            self._attach_metrics(metrics)

    def _unique_cores(self) -> List[ByteSchedulerCore]:
        """The distinct Core instances (PS has one per worker; the
        all-reduce master is shared)."""
        seen: Dict[int, ByteSchedulerCore] = {}
        for core in self.cores.values():
            seen.setdefault(id(core), core)
        return list(seen.values())

    def _attach_metrics(self, metrics) -> None:
        """Bind the registry's clock and wire instruments into the
        cores, the backend, and the per-iteration sampler state."""
        env = self.env
        metrics.bind_clock(lambda: env.now)
        for core in self._unique_cores():
            if hasattr(core, "attach_metrics"):
                core.attach_metrics(metrics)
        if hasattr(self.backend, "attach_metrics"):
            self.backend.attach_metrics(metrics)
        #: Window state for per-iteration deltas/means.
        self._obs_prev = {
            "time": self.env.now,
            "timeouts": 0,
            "retries": 0,
            "preemptions": 0,
            "escapes": 0,
            "link_busy": {},
            "core_marks": {
                id(core): {
                    "credit": core._obs.credit_used.mark(),
                    "queue": core._obs.queue_depth.mark(),
                }
                for core in self._unique_cores()
                if getattr(core, "_obs", None) is not None
            },
        }

    # -- assembly ---------------------------------------------------------

    def _make_cores(self) -> Dict[str, ByteSchedulerCore]:
        """The scheduler kind's Cores: one per worker for PS, a single
        master for all-reduce (§5)."""
        spec = self.scheduler
        return spec.definition.make_cores(
            spec,
            self.env,
            self.backend,
            self.workers,
            partition=spec.resolved_partition(
                self.cluster.arch,
                largest_tensor_bytes=self.model.largest_tensor_bytes,
                servers=self.cluster.servers,
            ),
            credit=spec.resolved_credit(),
        )

    def _core_for(self, worker: str) -> ByteSchedulerCore:
        return self.cores[worker]

    @property
    def master_core(self) -> ByteSchedulerCore:
        """The core that auto-tuning drives (worker 0's, per §5)."""
        return self.cores[self.workers[0]]

    @property
    def samples_per_iteration(self) -> float:
        """Global batch: per-GPU batch × all GPUs."""
        return float(self.model.batch_size * self.cluster.num_gpus)

    # -- program construction ----------------------------------------------

    def _jittered(self, duration: float) -> float:
        """Per-op compute duration with optional straggler jitter."""
        sigma = self.cluster.compute_jitter
        if sigma <= 0:
            return duration
        return duration * max(0.05, self._jitter_rng.gauss(1.0, sigma))

    def _included_workers(self) -> List[str]:
        """Workers participating in the next iteration (neither dead
        nor elastically inactive)."""
        return [
            worker
            for worker in self.workers
            if worker not in self._dead_workers
            and worker not in self._inactive_workers
        ]

    def _build_iteration(self, iteration: int) -> None:
        model = self.model
        included = self._included_workers()
        if not included:
            raise ConfigError(
                f"iteration {iteration} has no active workers to build for"
            )
        excused = sorted(self._dead_workers | self._inactive_workers)

        # Communication tasks: one per layer — shared across workers for
        # collectives, per worker for PS.
        tasks: Dict[Tuple[int, Optional[str]], CommTask] = {}
        countdowns: Dict[Tuple[int, Optional[str]], ReadyCountdown] = {}
        if self.backend.is_collective:
            for layer in model.layers:
                task = self.master_core.create_task(
                    iteration, layer.index, layer.param_bytes
                )
                tasks[(layer.index, None)] = task
                countdown = ReadyCountdown(task, len(self.workers))
                for absent in excused:
                    countdown.mark_absent(absent)
                countdowns[(layer.index, None)] = countdown
                self._countdowns.append(countdown)
        else:
            for worker in included:
                for layer in model.layers:
                    # The vanilla framework cannot slice row-sparse
                    # tensors; ByteScheduler partitions everything.
                    task = self._core_for(worker).create_task(
                        iteration,
                        layer.index,
                        layer.param_bytes,
                        worker=worker,
                        splittable=layer.splittable or self.scheduler.scheduled,
                    )
                    tasks[(layer.index, worker)] = task
                    countdowns[(layer.index, worker)] = ReadyCountdown(task, 1)

        # Per-iteration metric sampling fires once all *live* workers
        # complete the iteration (stragglers finish last; a worker that
        # later dies permanently is excused — see mark_worker_dead).
        pending = None
        if self.metrics is not None:
            pending = {
                "iteration": iteration,
                "waiting": set(included),
            }
            self._pending_samples.append(pending)

        # Per-iteration completion watch: iteration i is done when every
        # included worker finished its backward — the membership-aware
        # boundary :meth:`advance` quiesces at.
        watch = {"iteration": iteration, "waiting": set(included)}
        self._iteration_watches.append(watch)
        self._iteration_members[iteration] = len(included)
        if hasattr(self.backend, "set_iteration_members"):
            self.backend.set_iteration_members(iteration, included)

        for worker in included:
            engine = self.engines[worker]
            adapter = self.adapters[worker]
            task_key = (lambda i: (i, None)) if self.backend.is_collective else (
                lambda i, w=worker: (i, w)
            )
            self._expected_iterations[worker] += 1
            # A rejoining worker's first forward waits for its state
            # sync (the membership manager parks the gate here).
            member_gate = self._member_gates.pop(worker, None)

            # Forward chain (with per-layer gates from the previous
            # iteration's communication).
            fp_ops: List[EngineOp] = []
            for layer in model.layers:
                deps: List[EngineOp] = []
                gate = adapter.forward_gate(iteration, layer.index)
                if gate is not None:
                    deps.append(gate)
                if fp_ops:
                    deps.append(fp_ops[-1])
                elif member_gate is not None:
                    deps.append(member_gate)
                fp_ops.append(
                    engine.post(
                        EngineOp(
                            f"f{iteration}.{layer.index}@{worker}",
                            OpKind.COMPUTE,
                            deps=deps,
                            duration=self._jittered(layer.fp_time),
                        )
                    )
                )

            # Backward chain, communication posted layer by layer as the
            # gradients appear (output → input).
            prev: EngineOp = fp_ops[-1]
            first_bp: Optional[EngineOp] = None
            for layer in reversed(model.layers):
                bp = engine.post(
                    EngineOp(
                        f"b{iteration}.{layer.index}@{worker}",
                        OpKind.COMPUTE,
                        deps=[prev],
                        duration=self._jittered(layer.bp_time),
                    )
                )
                prev = bp
                first_bp = bp
                key = task_key(layer.index)
                adapter.post_comm(
                    iteration, layer.index, bp, tasks[key], countdowns[key]
                )
            adapter.finish_iteration(iteration)

            # Iteration marker: completion of the last backward op.
            first_bp.then(
                lambda _op, w=worker, wt=watch, p=pending: self._backward_done(
                    w, wt, p
                )
            )

    def _drop_fired_countdowns(self) -> None:
        """Forget the countdowns that fired (called where the clock may
        have moved: :meth:`advance`, :meth:`drain`).  By pending, not by
        iteration: a layer-0 countdown can fire after its iteration's
        marker."""
        self._countdowns = [c for c in self._countdowns if c.pending]

    def _backward_done(
        self, worker: str, watch: Dict, pending: Optional[Dict]
    ) -> None:
        """``worker`` finished its last backward op of an iteration:
        stamp its marker, then settle the iteration's watch and, when
        metrics are on, its pending sample."""
        self._markers[worker].append(self.env.now)
        self._iteration_worker_done(worker, watch)
        if pending is not None:
            self._worker_done(worker, pending)

    def _worker_done(self, worker: str, pending: Dict) -> None:
        pending["waiting"].discard(worker)
        if not pending["waiting"]:
            if pending in self._pending_samples:
                self._pending_samples.remove(pending)
            self._sample_iteration(pending["iteration"])

    def _iteration_worker_done(self, worker: str, watch: Dict) -> None:
        watch["waiting"].discard(worker)
        if not watch["waiting"] and watch in self._iteration_watches:
            self._iteration_watches.remove(watch)
            self._iteration_done[watch["iteration"]] = self.env.now

    def mark_worker_dead(self, worker: str) -> None:
        """Permanently remove ``worker`` from the job (crash recovery).

        Its engine halts (pending ops abandoned), every gradient
        countdown excuses it, and completion accounting — iteration
        sampling, :meth:`drain`'s deadlock check, the final
        :class:`TrainingResult` — stops expecting it.
        """
        if worker not in self.engines:
            raise ConfigError(f"unknown worker {worker!r}")
        if worker in self._dead_workers:
            return
        self._dead_workers.add(worker)
        self._inactive_workers.discard(worker)
        self._member_gates.pop(worker, None)
        self.engines[worker].halt()
        if self.backend.is_collective:
            for countdown in self._countdowns:
                countdown.mark_absent(worker)
        for watch in list(self._iteration_watches):
            watch["waiting"].discard(worker)
            if not watch["waiting"]:
                self._iteration_watches.remove(watch)
                self._iteration_done[watch["iteration"]] = self.env.now
        for pending in list(self._pending_samples):
            pending["waiting"].discard(worker)
            if not pending["waiting"]:
                self._pending_samples.remove(pending)
                self._sample_iteration(pending["iteration"])

    def deactivate_worker(self, worker: str) -> None:
        """Remove ``worker`` from future iterations (elastic leave).

        Unlike :meth:`mark_worker_dead` the worker keeps its engine and
        scheduler state: it may rejoin later via
        :meth:`activate_worker`.  Callers quiesce at an iteration
        boundary first (the membership manager's choreography), so no
        built iteration is still waiting on the leaver.
        """
        if worker not in self.engines:
            raise ConfigError(f"unknown worker {worker!r}")
        if worker in self._dead_workers:
            raise ConfigError(
                f"worker {worker!r} died permanently; it cannot leave"
            )
        self._inactive_workers.add(worker)
        self._member_gates.pop(worker, None)

    def activate_worker(self, worker: str, gate=None) -> None:
        """(Re-)admit ``worker`` to future iterations (elastic join).

        ``gate`` — an optional :class:`~repro.sim.Completion` for the
        worker's state sync — delays its first forward op until the
        parameters arrived.
        """
        if worker not in self.engines:
            raise ConfigError(f"unknown worker {worker!r}")
        if worker in self._dead_workers:
            raise ConfigError(
                f"worker {worker!r} died permanently; it cannot join"
            )
        self._inactive_workers.discard(worker)
        if gate is not None:
            self._member_gates[worker] = gate

    def _sample_iteration(self, iteration: int) -> None:
        """Append one per-iteration metrics row: credit occupancy, queue
        depth, preemption/escape activity, retry counts, link busy
        fractions — the signals §4.3's tuner and §6's utilisation
        figures are built from."""
        prev = self._obs_prev
        now = self.env.now
        elapsed = now - prev["time"]
        sample: Dict[str, float] = {
            "iteration": iteration,
            "end_time": now,
            "duration": elapsed,
        }

        occupancies: List[float] = []
        depths: List[float] = []
        preemptions = 0
        escapes = 0
        queued_now = 0
        inflight_now = 0
        for core in self._unique_cores():
            preemptions += core.preemption_opportunities
            escapes += core.escape_starts
            queued_now += core.queued
            inflight_now += core.inflight
            obs = getattr(core, "_obs", None)
            if obs is None:
                continue
            marks = prev["core_marks"][id(core)]
            used = obs.credit_used.mean_since(marks["credit"])
            capacity = core.credit_capacity
            if capacity > 0 and not math.isinf(capacity):
                occupancies.append(used / capacity)
            depths.append(obs.queue_depth.mean_since(marks["queue"]))
            marks["credit"] = obs.credit_used.mark()
            marks["queue"] = obs.queue_depth.mark()
        if occupancies:
            sample["credit_occupancy"] = sum(occupancies) / len(occupancies)
        if depths:
            sample["queue_depth"] = sum(depths) / len(depths)
        sample["queued_now"] = queued_now
        sample["inflight_now"] = inflight_now
        sample["preemption_opportunities"] = preemptions - prev["preemptions"]
        sample["escape_starts"] = escapes - prev["escapes"]
        prev["preemptions"] = preemptions
        prev["escapes"] = escapes

        timeouts = int(getattr(self.backend, "timeouts", 0))
        retries = int(getattr(self.backend, "retries", 0))
        sample["timeouts"] = timeouts - prev["timeouts"]
        sample["retries"] = retries - prev["retries"]
        sample["timeouts_total"] = timeouts
        sample["retries_total"] = retries
        prev["timeouts"] = timeouts
        prev["retries"] = retries

        if self.fabric is not None and elapsed > 0:
            fractions: List[float] = []
            delays: List[float] = []
            link_busy = prev["link_busy"]
            for nic in self.fabric.nics.values():
                for link in (nic.uplink, nic.downlink):
                    busy = link.busy_time
                    fractions.append(
                        (busy - link_busy.get(link.name, 0.0)) / elapsed
                    )
                    link_busy[link.name] = busy
                    delays.append(link.queue_delay)
            if fractions:
                sample["link_busy_mean"] = sum(fractions) / len(fractions)
                sample["link_busy_max"] = max(fractions)
                sample["link_queue_delay_max"] = max(delays)

        prev["time"] = now
        self.metrics.record_iteration(sample)

    # -- execution ----------------------------------------------------------

    def extend(self, iterations: int) -> None:
        """Append ``iterations`` more training iterations to the program
        (used by the online tuner to interleave training and tuning)."""
        _check_count("iterations", iterations)
        for _ in range(iterations):
            self._build_iteration(self._built_iterations)
            self._built_iterations += 1

    def advance(self, iterations: int) -> int:
        """Build and run up to ``iterations`` more iterations, one at a
        time, pausing at every iteration boundary for membership events.

        The boundary protocol behind elastic membership: each iteration
        is built only after the previous one completed *and* the
        membership manager applied every matured join/leave (quiesce →
        epoch bump → reform → credit requeue).  Trailing communication
        is left in flight across boundaries, so the cross-iteration
        pipelining the scheduler creates is preserved.  Returns how
        many iterations actually completed — fewer than asked when the
        job parks below the ``min_workers`` floor with no joins left.
        """
        _check_count("iterations", iterations)
        completed = 0
        for _ in range(iterations):
            if self.membership is not None and not self.membership.on_boundary():
                break
            self._drop_fired_countdowns()
            index = self._built_iterations
            self._build_iteration(index)
            self._built_iterations += 1
            while index not in self._iteration_done:
                if self.env.peek() == math.inf:
                    raise self._deadlocked(f"iteration {index} cannot complete")
                self.env.step()
            completed += 1
        return completed

    def drain(self) -> None:
        """Run the simulation until all built iterations complete.

        Workers that died permanently mid-run are excused — every
        member completing every iteration it was included in is the
        success criterion.
        """
        if self.membership is not None:
            self.membership.retire_watches()
        self.env.run()
        self._drop_fired_countdowns()
        for worker, times in self._markers.items():
            if worker in self._dead_workers:
                continue
            expected = self._expected_iterations[worker]
            if len(times) != expected:
                raise self._deadlocked(
                    f"worker {worker} completed {len(times)}/{expected} iterations"
                )
        if self.oracle is not None:
            self.oracle.verify(self)

    def _deadlocked(self, what: str) -> ConfigError:
        """The error for a run that stopped short: ``what`` failed, next
        to the clock; a PS backend also names the chunks still
        aggregating and whose pushes or pulls they lack.  (No link can
        strand a frame: each frame's completion is its own kernel
        entry.)"""
        describe = getattr(self.backend, "describe_pending", None)
        chunks = describe() if describe is not None else ""
        where = "; " + chunks if chunks else ""
        return ConfigError(
            f"{what} — the op graph deadlocked at t={self.env.now!r}{where}"
        )

    @property
    def markers(self) -> Dict[str, List[float]]:
        """Per-worker iteration completion times recorded so far."""
        return self._markers

    def segment_speed(self, start_iteration: int, end_iteration: int) -> float:
        """Samples/second over iterations [start, end) — online-tuning's
        profiling window (start must be >= 1 so a previous marker
        exists)."""
        if not 1 <= start_iteration < end_iteration <= self._built_iterations:
            raise ConfigError(
                f"invalid segment [{start_iteration}, {end_iteration})"
            )
        if self.membership is not None:
            # Membership-aware: worker 0 may not span the segment, so
            # use per-iteration completion times, and weight each
            # iteration's samples by how many members trained it.
            done = self._iteration_done
            for index in (start_iteration - 1, end_iteration - 1):
                if index not in done:
                    raise ConfigError(
                        f"iteration {index} has not completed yet — drive "
                        "an elastic job with advance()"
                    )
            elapsed = done[end_iteration - 1] - done[start_iteration - 1]
            per_member = self.model.batch_size * self.cluster.gpus_per_machine
            samples = sum(
                per_member * self._iteration_members[index]
                for index in range(start_iteration, end_iteration)
            )
            return samples / elapsed
        times = self._markers[self.workers[0]]
        elapsed = times[end_iteration - 1] - times[start_iteration - 1]
        return self.samples_per_iteration * (end_iteration - start_iteration) / elapsed

    def reconfigure(self, partition_bytes=None, credit_bytes=None) -> None:
        """Adjust the scheduler knobs on every Core (master broadcast,
        §5); applies to tasks created from the next iteration on."""
        seen = set()
        for core in self.cores.values():
            if id(core) in seen:
                continue
            seen.add(id(core))
            core.reconfigure(partition_bytes=partition_bytes, credit_bytes=credit_bytes)

    def run(self, measure: int = 10, warmup: int = 2) -> TrainingResult:
        """Simulate ``warmup + measure`` iterations and report speed."""
        _check_count("measure", measure)
        _check_count(
            "warmup",
            warmup,
            " (iteration 0 has no communication overlap and would bias "
            "the measurement)",
        )
        if self.membership is not None:
            return self._run_elastic(measure, warmup)
        self.extend(warmup + measure)
        self.drain()
        if self._dead_workers and len(self._dead_workers) == len(self.workers):
            raise ConfigError("every worker died; no survivors to measure")
        return TrainingResult(
            markers={
                worker: times
                for worker, times in self._markers.items()
                if worker not in self._dead_workers
            },
            warmup=warmup,
            measured=measure,
            samples_per_iteration=self.samples_per_iteration,
            sample_unit=self.model.sample_unit,
            label=f"{self.model.name} {self.cluster.label} {self.scheduler.kind}",
        )

    def _run_elastic(self, measure: int, warmup: int) -> TrainingResult:
        """Iteration-boundary execution for jobs with scale events.

        The per-worker marker ledger cannot describe an elastic run (a
        joiner has fewer markers than the fleet, by design), so the
        result is built from the cluster-level per-iteration completion
        times, with samples/iteration averaged over the measurement
        window's member counts.
        """
        completed = self.advance(warmup + measure)
        self.drain()
        measured = completed - warmup
        if measured < 1:
            raise ConfigError(
                f"job parked below min_workers after {completed} "
                f"iterations — nothing left to measure (warmup={warmup})"
            )
        times = [self._iteration_done[index] for index in range(completed)]
        window = [
            self._iteration_members[index]
            for index in range(warmup, completed)
        ]
        per_member = self.model.batch_size * self.cluster.gpus_per_machine
        return TrainingResult(
            markers={"cluster": times},
            warmup=warmup,
            measured=measured,
            samples_per_iteration=per_member * sum(window) / len(window),
            sample_unit=self.model.sample_unit,
            label=(
                f"{self.model.name} {self.cluster.label} "
                f"{self.scheduler.kind} elastic"
            ),
        )
