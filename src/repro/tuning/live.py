"""Live tuning: re-tune knobs on a running job (§4.3, §5, §7).

:class:`LiveTuner` is the control loop both live tuners share.  It owns
the mechanics of tuning a job while it trains: train a segment, move
the knobs (the master Core broadcasts them, and every PS partition
change is charged a checkpoint-restart), profile a window into the
``(t_start, t_end, point, speed)`` ledger, burn in after a disturbance,
and finish on the chosen point.  A policy subclass decides which point
to profile next and what to make of each speed:

* :class:`~repro.tuning.online.OnlineTuner` — a global searcher (BO by
  default) with a membership-epoch reset;
* :class:`~repro.tuning.adaptive.AdaptiveTuner` — a discounted local
  bandit with change-point detection.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import TuningError
from repro.training.job import TrainingJob
from repro.tuning.space import Point, SearchSpace

__all__ = ["LiveTuner", "record_tuning_stats"]

#: Checkpoint-restart cost for a PS partition change (§5 reports ~5-9 s;
#: scaled to the short simulated runs this harness drives).
DEFAULT_RESTART_PENALTY = 5.0

#: After a disturbance the tuner burns in, discarding segments until
#: consecutive speeds agree within this tolerance (or the cap is hit) —
#: profiles taken while a transient decays would invert the knob
#: ranking.
SETTLE_TOLERANCE = 0.02
MAX_SETTLE_SEGMENTS = 6

#: Iterations discarded after every knob move before profiling:
#: iterations already in flight when the knobs change still drain
#: under the old configuration, and a 2-3 iteration profile window
#: measured straight away inherits the previous point's backlog —
#: enough to invert the knob ranking.
PIPELINE_FLUSH_ITERATIONS = 2

#: One profiled window ``(speed, epoch_changed)``; speed None: the job parked.
Window = Tuple[Optional[float], bool]


def record_tuning_stats(
    job: TrainingJob,
    tuner: str,
    *,
    reconfigures: int,
    change_points: int,
    best_point: Point,
    restart_overhead: float,
    timeline: List[Tuple[float, float, Point, float]],
) -> Dict[str, Any]:
    """Attach a tuner's accounting to the job for RunReport/trace.

    ``timeline`` is the tuner's profiled-segment ledger
    ``(t_start, t_end, point, speed)`` in simulated time — the raw
    material for post-hoc regret accounting against an oracle.
    """
    stats: Dict[str, Any] = {
        "tuner": tuner,
        "reconfigures": reconfigures,
        "change_points": change_points,
        "best_partition_bytes": best_point[0],
        "best_credit_bytes": best_point[1],
        "restart_overhead": restart_overhead,
        "profiled_segments": len(timeline),
        "timeline": [
            dict(start=start, end=end, partition_bytes=point[0], credit_bytes=point[1], speed=speed)
            for start, end, point, speed in timeline
        ],
    }
    job.tuning_stats = stats
    return stats


class LiveTuner:
    """Segment runner for tuning one live job; subclasses are policies.

    A policy's ``run`` calls :meth:`_start`, drives its own choice of
    points through :meth:`_move`, :meth:`_window` and :meth:`_settle`,
    and ends with :meth:`_finish`.
    """

    #: Name recorded in the job's tuning stats.
    name = "live"

    #: Fixed-membership jobs end every segment with a drain barrier
    #: instead of advancing with communication left in flight.
    drain_segments = False

    #: The finish re-applies (and pays for) the chosen point even when
    #: the job is already running it.
    reapply_final = False

    def __init__(
        self,
        job: TrainingJob,
        space: Optional[SearchSpace],
        segment_iterations: int,
        restart_penalty: float,
    ) -> None:
        if segment_iterations < 1:
            raise TuningError("segment_iterations must be >= 1")
        if not restart_penalty >= 0:  # also rejects NaN
            raise TuningError(f"restart_penalty must be >= 0, got {restart_penalty!r}")
        kind = job.scheduler.definition
        if not kind.scheduled:
            raise TuningError(f"{self.name} tuning needs a priority scheduler")
        if not kind.tunable:
            raise TuningError(f"{kind.name} has no partition/credit knobs to tune")
        self.job = job
        self.space = space or SearchSpace()
        self.segment_iterations = segment_iterations
        self.restart_penalty = restart_penalty
        self._needs_restart = job.cluster.arch == "ps"
        self._reconfigures = 0

    def _current_point(self) -> Optional[Point]:
        """The knobs the job is running right now, if readable."""
        core = self.job.master_core
        partition = getattr(core, "partition_bytes", None)
        credit = getattr(core, "credit_capacity", None)
        if partition is None or credit is None:
            return None
        return (partition, credit)

    def _train_segment(self, iterations: int) -> bool:
        """Run ``iterations`` more; True when a membership epoch landed
        inside the segment.  Jobs advance boundary by boundary, unless a
        fixed-membership job's policy drains (:attr:`drain_segments`)."""
        job = self.job
        if job.membership is not None:
            before = job.membership.epoch
            job.advance(iterations)
            return job.membership.epoch != before
        if self.drain_segments:
            job.extend(iterations)
            job.drain()
        else:
            job.advance(iterations)
        return False

    def _flush(self) -> bool:
        """Train through the pipeline flush after a knob move."""
        return self._train_segment(PIPELINE_FLUSH_ITERATIONS)

    def _start(self, segments: int) -> bool:
        """Reset the run's accounting and train the warm-up segment
        under the job's initial knobs; True when it saw an epoch."""
        if segments < 1:
            raise TuningError("segments must be >= 1")
        self.timeline: List[Tuple[float, float, Point, float]] = []
        self.restart_overhead = 0.0
        # Seed from the job's *current* partition so the very first
        # differing point is charged the PS restart penalty too.
        self._last_partition = getattr(self.job.master_core, "partition_bytes", None)
        self._running: Optional[Point] = None
        return self._train_segment(self.segment_iterations + 1)

    def _move(self, point: Point) -> None:
        """Apply ``point``, charging the PS restart when the partition
        changes, and leave a breadcrumb in the job's trace."""
        partition, credit = point
        last = self._last_partition
        if self._needs_restart and last is not None and partition != last:
            self.restart_overhead += self.restart_penalty
        self._last_partition = partition
        self.job.reconfigure(partition_bytes=partition, credit_bytes=credit)
        self._reconfigures += 1
        self.job.trace.point("tuning.reconfigure", f"p={partition:g},c={credit:g}")
        self._running = point

    def _window(self, point: Point, iterations: int, log_straddler: bool = True) -> Window:
        """Profile ``iterations`` at the running knobs (``point``) and
        log the window in the ledger — unless a membership epoch landed
        inside it and ``log_straddler`` is False."""
        job = self.job
        start = job._built_iterations
        t0 = job.env.now
        epoch_changed = self._train_segment(iterations)
        if job._built_iterations <= start:
            return None, epoch_changed
        speed = job.segment_speed(start, job._built_iterations)
        if log_straddler or not epoch_changed:
            self.timeline.append((t0, job.env.now, point, speed))
        return speed, epoch_changed

    def _settle(self, profile: Callable[[], Window], cap: int) -> Window:
        """Burn in: repeat ``profile`` (at most ``cap`` times) until two
        consecutive speeds agree within :data:`SETTLE_TOLERANCE`; a
        parked or epoch-straddling window ends it.  Returns the last."""
        previous = None
        for _ in range(cap):
            speed, epoch_changed = window = profile()
            if speed is None or epoch_changed:
                break
            if previous is not None and abs(speed - previous) <= SETTLE_TOLERANCE * previous:
                break
            previous = speed
        return window

    def _finish(self, point: Point, final_iterations: int, change_points: int) -> float:
        """Move to ``point`` (see :attr:`reapply_final`), flush, measure
        the final steady speed, and record the run's tuning stats."""
        if self.reapply_final or point != self._running:
            self._move(point)
        self._flush()
        final_speed, _ = self._window(point, final_iterations)
        if final_speed is None:
            raise TuningError("job parked before the final measurement")
        record_tuning_stats(
            self.job,
            self.name,
            reconfigures=self._reconfigures,
            change_points=change_points,
            best_point=point,
            restart_overhead=self.restart_overhead,
            timeline=self.timeline,
        )
        return final_speed
