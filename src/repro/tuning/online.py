"""Online auto-tuning: re-tune knobs *while training runs* (§5, §7).

The paper's deployment tunes at the start of training; §7 proposes
"consistently searching for the best values using newly profiled
results".  :class:`OnlineTuner` is that policy on the shared live
control loop (:class:`~repro.tuning.live.LiveTuner`):

1. train a short *segment* of iterations under the current knobs;
2. measure the segment's speed (the "newly profiled result");
3. feed it to a searcher (BO by default) and apply its next suggestion
   via ``Core.reconfigure`` — broadcast by the master, effective from
   the next iteration's tensors;
4. repeat, then finish training on the best knobs found.

Deployment asymmetry (§5): all-reduce re-tunes live for free; PS
partition changes need a checkpoint-restart, charged per change so the
reported tuning overhead is honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import TuningError
from repro.training.job import TrainingJob
from repro.tuning.live import DEFAULT_RESTART_PENALTY, MAX_SETTLE_SEGMENTS, LiveTuner
from repro.tuning.searchers import Searcher, make_searcher
from repro.tuning.space import Point, SearchSpace

__all__ = ["OnlineTuner", "OnlineTuningResult"]


@dataclass
class OnlineTuningResult:
    """Outcome of an online tuning run."""

    best_point: Point
    best_speed: float
    final_speed: float
    segments: List[Tuple[Point, float]] = field(default_factory=list)
    restart_overhead: float = 0.0
    #: Searcher resets triggered by membership-epoch changes: stale
    #: profiles describe a cluster size that no longer exists.
    change_point_resets: int = 0
    #: Profiled-segment ledger ``(t_start, t_end, point, speed)`` in
    #: simulated time — regret accounting integrates against this.
    timeline: List[Tuple[float, float, Point, float]] = field(
        default_factory=list
    )

    @property
    def num_segments(self) -> int:
        return len(self.segments)


class OnlineTuner(LiveTuner):
    """Interleaves training segments with knob search on one job."""

    name = "online"
    drain_segments = True
    reapply_final = True

    def __init__(
        self,
        job: TrainingJob,
        space: Optional[SearchSpace] = None,
        method: str = "bo",
        seed: int = 0,
        segment_iterations: int = 3,
        restart_penalty: float = DEFAULT_RESTART_PENALTY,
    ) -> None:
        super().__init__(job, space, segment_iterations, restart_penalty)
        self._method = method
        self._seed = seed
        self.searcher: Searcher = make_searcher(method, self.space, seed=seed)

    def _reset(self, resets: int, initial_point: Optional[Point]) -> List[Point]:
        """Change-point reset: every profile the searcher holds was
        measured on a cluster size that no longer exists, and old
        profiles *rank* points wrongly at the new scale.  Discard them,
        but return the anchors to re-profile first — the knobs running
        right now, the pre-reset argmax and the initial knobs — so the
        fresh search starts from the best priors instead of from
        scratch."""
        self.job.trace.point("tuning.change_point", "membership-epoch")
        history = self.searcher.history
        best_prev = max(history, key=lambda sample: sample[1])[0] if history else None
        anchors: List[Point] = []
        for candidate in (self._current_point(), best_prev, initial_point):
            if candidate is None:
                continue
            clipped = self.space.clip(candidate)
            if clipped not in anchors:
                anchors.append(clipped)
        self.searcher = make_searcher(self._method, self.space, seed=self._seed + resets)
        return anchors

    def run(self, segments: int = 8, final_iterations: int = 4) -> OnlineTuningResult:
        """Tune over ``segments`` profiling windows, then finish on the
        best knobs and report the final steady speed."""
        epoch_changed = self._start(segments)
        initial_point = self._current_point()
        resets = 0
        last_sample: Optional[Tuple[Point, float]] = None
        pending_anchors: List[Point] = []
        for _ in range(segments):
            if epoch_changed:
                resets += 1
                anchors = self._reset(resets, initial_point)
                if anchors:
                    # Settle at the first anchor before profiling: the
                    # membership transients (state sync, pipeline
                    # refill) decay over several iterations and would
                    # credit whichever knobs run later.  A settle
                    # segment that straddles the next scale event is
                    # not logged.
                    anchor = anchors[0]
                    self._move(anchor)
                    pending_anchors = anchors
                    _, epoch_changed = self._settle(
                        lambda: self._window(anchor, self.segment_iterations, log_straddler=False),
                        MAX_SETTLE_SEGMENTS,
                    )
                    continue
            if pending_anchors:
                point = pending_anchors.pop(0)
            else:
                point = self.space.clip(self.searcher.suggest())
            self._move(point)
            # Flush before profiling so the window measures only the
            # new knobs, not the previous point's in-flight backlog.
            epoch_changed = self._flush()
            if epoch_changed:
                continue
            speed, epoch_changed = self._window(point, self.segment_iterations)
            if speed is None:
                break  # parked below min_workers: no profile to take
            last_sample = (point, speed)
            if not epoch_changed:  # a segment straddling a scale event is skipped
                self.searcher.observe(point, speed)

        if not self.searcher.history:
            if last_sample is None:
                raise TuningError("no tuning segment completed (job parked immediately)")
            # Every segment straddled a scale event; keep the freshest.
            self.searcher.observe(*last_sample)
        best_point, best_speed = self.searcher.best()
        final_speed = self._finish(best_point, final_iterations, resets)
        return OnlineTuningResult(
            best_point=best_point,
            best_speed=best_speed,
            final_speed=final_speed,
            segments=list(self.searcher.history),
            restart_overhead=self.restart_overhead,
            change_point_resets=resets,
            timeline=self.timeline,
        )
