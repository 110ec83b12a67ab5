"""Runtime auto-tuning of partition and credit sizes (§4.3, §5).

The :class:`AutoTuner` drives a searcher against a profiling objective —
in this reproduction, a short simulated training run per configuration.
It also accounts for the two deployment details §5 describes:

* only the master Core tunes (worker 0) and broadcasts the knobs — the
  objective here is global, so this is implicit;
* in the PS architecture, changing the partition size requires a
  checkpoint-restart of training (tensor-shape mismatch), costing a few
  seconds per trial; all-reduce retunes live.  The tuner charges that
  restart penalty so search-cost comparisons (Figure 14) reflect it.

Measurement noise: real profiling jitters, which is exactly why the
paper picked a noise-resilient searcher.  ``noise`` adds seeded
Gaussian jitter to each profiled speed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import TuningError
from repro.tuning.searchers import Searcher, make_searcher
from repro.tuning.space import Point, SearchSpace

__all__ = ["AutoTuner", "TuningResult", "simulated_objective"]

#: Measured objective: (partition_bytes, credit_bytes) -> samples/sec.
Objective = Callable[[float, float], float]


@dataclass
class TuningResult:
    """Outcome of one auto-tuning run."""

    best_point: Point
    best_speed: float
    trials: List[Tuple[Point, float]] = field(default_factory=list)
    restart_overhead: float = 0.0

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    def trials_to_reach(self, target_speed: float, rtol: float = 0.01) -> Optional[int]:
        """Trials needed until a result within ``rtol`` of ``target_speed``
        was profiled, or None if never reached."""
        for index, (_point, speed) in enumerate(self.trials, start=1):
            if speed >= target_speed * (1.0 - rtol):
                return index
        return None


class AutoTuner:
    """Searches the best (partition, credit) for a training setup."""

    def __init__(
        self,
        objective: Objective,
        space: Optional[SearchSpace] = None,
        method: str = "bo",
        seed: int = 0,
        noise: float = 0.0,
        restart_penalty: float = 0.0,
    ) -> None:
        if not noise >= 0 or not restart_penalty >= 0:  # also rejects NaN
            raise TuningError(
                f"noise and restart_penalty must be >= 0, got "
                f"noise={noise!r}, restart_penalty={restart_penalty!r}"
            )
        self.objective = objective
        self.space = space or SearchSpace()
        self.searcher: Searcher = make_searcher(method, self.space, seed=seed)
        self.noise = noise
        self.restart_penalty = restart_penalty
        self._rng = random.Random(seed ^ 0x5EED)
        self._last_partition: Optional[float] = None

    def profile(self, point: Point) -> float:
        """Measure one configuration (with optional jitter + restart)."""
        partition, credit = self.space.clip(point)
        speed = self.objective(partition, credit)
        if self.noise > 0:
            speed *= max(0.0, 1.0 + self._rng.gauss(0.0, self.noise))
        return speed

    def run(self, max_trials: int = 15) -> TuningResult:
        """Profile up to ``max_trials`` configurations; return the best."""
        if max_trials < 1:
            raise TuningError("max_trials must be >= 1")
        restart_overhead = 0.0
        for _ in range(max_trials):
            # Clip once, up front: the restart-penalty comparison, the
            # recorded trial, and the profiled configuration must all be
            # the same point.  Comparing *unclipped* suggestions charged
            # a spurious PS restart when two suggestions clipped to the
            # same boundary partition, and recorded trials/best_point
            # outside the search box while profile() ran the clipped
            # ones.
            point = self.space.clip(self.searcher.suggest())
            if (
                self.restart_penalty > 0
                and self._last_partition is not None
                and point[0] != self._last_partition
            ):
                restart_overhead += self.restart_penalty
            self._last_partition = point[0]
            speed = self.profile(point)
            self.searcher.observe(point, speed)
        best_point, best_speed = self.searcher.best()
        return TuningResult(
            best_point=best_point,
            best_speed=best_speed,
            trials=list(self.searcher.history),
            restart_overhead=restart_overhead,
        )


def simulated_objective(
    model,
    cluster,
    measure: int = 3,
    warmup: int = 1,
) -> Objective:
    """An objective that profiles a configuration with a short simulated
    training run — the reproduction's stand-in for the paper's online
    profiling."""
    from repro.training import SchedulerSpec, run_experiment

    def profile(partition_bytes: float, credit_bytes: float) -> float:
        spec = SchedulerSpec(
            kind="bytescheduler",
            partition_bytes=partition_bytes,
            credit_bytes=credit_bytes,
        )
        result = run_experiment(
            model, cluster, spec, measure=measure, warmup=warmup
        )
        return result.speed

    return profile
