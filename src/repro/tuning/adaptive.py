"""Drift-tracking adaptive tuning: a discounted local bandit with
online change-point detection.

:class:`~repro.tuning.online.OnlineTuner` re-tunes with BO on segment
speeds, which is the right tool when the environment is *stationary*:
every profile stays forever valid, so global exploration pays off.
Under drift (diurnal bandwidth curves, background tenants, slow-moving
stragglers) old profiles go stale and a global searcher keeps paying
exploration cost for a landscape that has already moved — AutoByte
(arXiv 2112.13509) argues the runtime needs a mechanism that *reacts*
instead of re-searching.  :class:`AdaptiveTuner` is that policy on the
shared live loop (:class:`~repro.tuning.live.LiveTuner`):

* **exploit by default** — train on the incumbent knobs, profiling each
  segment;
* **discounted statistics** — every observation decays older ones for
  the same point, so the tuner's beliefs track the moving optimum
  instead of averaging over epochs;
* **local probing** — every few segments one neighbour on the log-knob
  lattice is profiled; an incumbent is only unseated by a neighbour
  whose *discounted* mean beats it by a margin;
* **change-point detection** — a CUSUM-style Page-Hinkley test on the
  incumbent's relative speed residuals; when the environment shifts
  under the incumbent, the tuner resets its discounted model, burns in
  with the loop's settle, and re-sweeps the local neighbourhood
  instead of restarting a global search.

Membership-epoch changes (elastic jobs) are treated as externally
signalled change points, mirroring the online tuner's reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TuningError
from repro.training.job import TrainingJob
from repro.tuning.live import DEFAULT_RESTART_PENALTY, MAX_SETTLE_SEGMENTS, LiveTuner, Window
from repro.tuning.space import Point, SearchSpace

__all__ = ["AdaptiveTuner", "AdaptiveTuningResult", "PageHinkley"]

#: Discount applied to a point's accumulated evidence per new
#: observation of that point — beliefs with a half-life of ~1.4
#: observations, so the tracker forgets a drifted-away epoch quickly.
DISCOUNT = 0.6

#: Page-Hinkley slack: relative residuals within this band count as
#: noise, not drift.
PH_DELTA = 0.02

#: Page-Hinkley alarm threshold on the cumulated relative deviation.
PH_THRESHOLD = 0.25

#: One neighbour probe every this many control segments.
PROBE_PERIOD = 3

#: Log-lattice step between neighbouring knob points, in the search
#: space's unit coordinates (1/6 of the box ≈ 1.5 octaves by default).
NEIGHBOR_STEP = 1.0 / 6.0

#: A challenger must beat the incumbent's discounted mean by this
#: relative margin to take over — hysteresis against probe noise.
MOVE_MARGIN = 0.02

#: Cap (in simulated seconds) on how far the incumbent's local trend
#: is extrapolated when benchmarking a probe taken after it.
TREND_HORIZON = 2.0

#: Every rejected periodic probe doubles the effective probe period,
#: up to this multiplier; a move or a change-point alarm resets it.
#: When the landscape looks stationary the tuner stops paying probe
#: drag — between alarms the periodic probes are a safety net, not the
#: primary tracking mechanism.
MAX_PROBE_BACKOFF = 8

#: Relative slope on the incumbent's own samples above which the
#: environment counts as visibly drifting: backoff is bypassed and the
#: probe cadence drops to every other segment, because a moving
#: optimum is exactly when neighbour probes earn their keep.
DRIFT_SLOPE = 0.01

#: A probe-move bracket whose incumbent endpoints differ by more than
#: this relative jump witnessed a regime shift mid-bracket — the
#: interpolated baseline is then fiction, so the move is not confirmed
#: (the change-point machinery handles the shift instead).
BRACKET_JUMP = 0.25

#: An alarm arriving after at least this many detector updates since
#: the last change point is a *separate* event (discrete regime
#: boundaries are spaced out), so the one-sweep-per-descent latch
#: re-arms; denser alarms belong to one continuous slide.
REARM_UPDATES = 8


class PageHinkley:
    """Two-sided CUSUM-style Page-Hinkley test on relative residuals.

    Feed it one value per profiled segment; it maintains a running mean
    and two cumulated-deviation accumulators (drops and rises).  When
    either exceeds ``threshold`` the test reports a change point; the
    caller is expected to :meth:`reset` after reacting.
    """

    def __init__(self, delta: float = PH_DELTA, threshold: float = PH_THRESHOLD) -> None:
        if not delta >= 0 or not threshold > 0:  # also rejects NaN
            raise TuningError(
                f"PageHinkley needs delta >= 0, threshold > 0: {delta!r}, {threshold!r}"
            )
        self.delta = delta
        self.threshold = threshold
        self.reset()

    def reset(self) -> None:
        """Forget everything (call after reacting to an alarm)."""
        self._mean: Optional[float] = None
        self._count = 0
        self._drop = 0.0
        self._rise = 0.0
        #: Which accumulator fired the most recent alarm ("drop" or
        #: "rise"); None until the first alarm after a reset.
        self.side: Optional[str] = None

    def update(self, value: float) -> bool:
        """Observe one value; True when a change point fires."""
        if self._mean is None or self._mean <= 0:
            self._mean = value
            self._count = 1
            return False
        residual = (value - self._mean) / self._mean
        self._count += 1
        self._mean += (value - self._mean) / self._count
        self._drop = max(0.0, self._drop - residual - self.delta)
        self._rise = max(0.0, self._rise + residual - self.delta)
        if self._drop > self.threshold:
            self.side = "drop"
            return True
        if self._rise > self.threshold:
            self.side = "rise"
            return True
        return False


class _Arm:
    """Discounted mean of one lattice point's profiled speeds.

    ``mean`` is the tuner's belief (old epochs decay away); ``last`` is
    the freshest sample, which gates incumbent moves — under drift a
    same-regime recent pair beats a cross-regime average.  The two most
    recent (time, speed) samples also yield a local trend, so a probe
    taken a second later can be judged against where the incumbent's
    speed *would be now* — comparing against a stale benchmark under a
    fast descent vetoes every candidate, and under a recovery flatters
    them all.
    """

    __slots__ = ("mean", "weight", "last", "last_time", "prev", "prev_time")

    def __init__(self) -> None:
        self.mean = 0.0
        self.weight = 0.0
        self.last = 0.0
        self.last_time = 0.0
        self.prev = 0.0
        self.prev_time = 0.0

    def observe(self, speed: float, now: float) -> None:
        decayed = self.weight * DISCOUNT
        self.mean = (self.mean * decayed + speed) / (decayed + 1.0)
        self.weight = decayed + 1.0
        if self.last_time > 0.0:
            self.prev, self.prev_time = self.last, self.last_time
        self.last, self.last_time = speed, now

    def reference(self, now: float) -> float:
        """Drift-compensated benchmark: ``last`` extrapolated along the
        local trend, clamped to a sane band around the raw sample."""
        if self.prev_time <= 0.0 or self.last_time <= self.prev_time:
            return self.last
        slope = (self.last - self.prev) / (self.last_time - self.prev_time)
        horizon = min(max(now - self.last_time, 0.0), TREND_HORIZON)
        estimate = self.last + slope * horizon
        return min(max(estimate, 0.5 * self.last), 1.5 * self.last)


@dataclass
class AdaptiveTuningResult:
    """Outcome of an adaptive tuning run."""

    best_point: Point
    final_speed: float
    #: Change points: Page-Hinkley alarms plus membership epochs.
    change_points: int = 0
    reconfigures: int = 0
    probes: int = 0
    restart_overhead: float = 0.0
    segments: List[Tuple[Point, float]] = field(default_factory=list)
    #: Profiled-segment ledger ``(t_start, t_end, point, speed)``.
    timeline: List[Tuple[float, float, Point, float]] = field(
        default_factory=list
    )

    @property
    def num_segments(self) -> int:
        return len(self.segments)


class AdaptiveTuner(LiveTuner):
    """Tracks a moving knob optimum on one live job.

    Segments advance without a drain barrier — draining between short
    segments would insert a pipeline bubble into every control segment
    and depress every measurement by the refill cost — and the knobs
    are only moved (and flushed) when the profiled point changes."""

    name = "adaptive"

    def __init__(
        self,
        job: TrainingJob,
        space: Optional[SearchSpace] = None,
        seed: int = 0,
        segment_iterations: int = 3,
        restart_penalty: float = DEFAULT_RESTART_PENALTY,
        probe_period: int = PROBE_PERIOD,
        detector: Optional[PageHinkley] = None,
        neighbor_step: float = NEIGHBOR_STEP,
    ) -> None:
        if probe_period < 1:
            raise TuningError("probe_period must be >= 1")
        if not 0.0 < neighbor_step <= 0.5:
            raise TuningError("neighbor_step must be in (0, 0.5]")
        super().__init__(job, space, segment_iterations, restart_penalty)
        self.seed = seed
        self.probe_period = probe_period
        self.detector = detector or PageHinkley()
        self.neighbor_step = neighbor_step
        self._arms: Dict[Point, _Arm] = {}
        self._neighbor_cursor = 0

    # -- the knob lattice ---------------------------------------------------

    _OFFSET_DIRECTIONS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))

    def _neighbors(self, point: Point) -> List[Point]:
        """The 4-neighbourhood of ``point`` on the log-knob lattice."""
        step = self.neighbor_step
        neighbors: List[Point] = []
        for du, dv in self._OFFSET_DIRECTIONS:
            candidate = self._apply_delta(point, (du * step, dv * step))
            if candidate is not None and candidate not in neighbors:
                neighbors.append(candidate)
        return neighbors

    def _sweep_pairs(self, point: Point) -> List[Tuple[Point, Optional[Point]]]:
        """Alarm-sweep candidates, one ``(1-hop, 2-hop)`` pair per axis
        direction.  The speed landscape is not unimodal — under a
        bandwidth drop the old and the new optimum can sit two lattice
        steps apart with a valley between them, and a margin-gated
        single-hop climb would camp on the stale ridge forever.  The
        2-hop point is only worth profiling when its 1-hop sibling did
        not collapse (a shallow valley hides an optimum; a cliff does
        not), so the sweep visits it right after the sibling and the
        caller prunes on the sibling's sample."""
        step = self.neighbor_step
        pairs: List[Tuple[Point, Optional[Point]]] = []
        seen = {point}
        for du, dv in self._OFFSET_DIRECTIONS:
            near = self._apply_delta(point, (du * step, dv * step))
            if near is None or near in seen:
                continue
            seen.add(near)
            far = self._apply_delta(point, (2 * du * step, 2 * dv * step))
            if far in seen:
                far = None
            elif far is not None:
                seen.add(far)
            pairs.append((near, far))
        return pairs

    def _next_probe(self, incumbent: Point) -> Point:
        """Round-robin over the incumbent's neighbours."""
        neighbors = self._neighbors(incumbent)
        if not neighbors:
            return incumbent
        point = neighbors[self._neighbor_cursor % len(neighbors)]
        self._neighbor_cursor += 1
        return point

    def _unit_delta(self, a: Point, b: Point) -> Tuple[float, float]:
        """The lattice step from ``a`` to ``b`` in unit coordinates."""
        ua, va = self.space.to_unit(a)
        ub, vb = self.space.to_unit(b)
        return (ub - ua, vb - va)

    def _step_toward(self, delta: Tuple[float, float]) -> Tuple[float, float]:
        """``delta`` shrunk to at most one lattice step per axis — a
        momentum follow-probe extends a move by a single hop even when
        the move itself (e.g. out of a radius-2 sweep) jumped farther."""
        step = self.neighbor_step
        du, dv = delta
        return (min(max(du, -step), step), min(max(dv, -step), step))

    def _apply_delta(self, point: Point, delta: Tuple[float, float]) -> Optional[Point]:
        """``point`` shifted by ``delta`` in unit coordinates, clipped;
        None when the box edge swallows the step."""
        du, dv = delta
        u, v = self.space.to_unit(point)
        unit = (min(max(u + du, 0.0), 1.0), min(max(v + dv, 0.0), 1.0))
        candidate = self.space.from_unit(unit)
        return candidate if candidate != point else None

    # -- the control loop ---------------------------------------------------

    def run(
        self, segments: int = 12, final_iterations: int = 4, until: Optional[float] = None
    ) -> AdaptiveTuningResult:
        """Drive ``segments`` control rounds, then finish on the
        incumbent knobs and report the final steady speed.  With
        ``until`` set, the loop also stops once simulated time passes
        it — the natural budget for a tracker, whose job is to stay
        live for a wall of time, not for a count of segments."""
        self._start(segments)
        # Adopt whatever the job is running after warm-up as incumbent.
        incumbent = self._current_point()
        self._incumbent = self._running = self.space.clip(
            incumbent if incumbent is not None else self.space.from_unit((0.5, 0.5))
        )
        self._until = until
        self._history: List[Tuple[Point, float]] = []
        self._change_points = 0
        self._probes = 0
        self._probe_backoff = 1
        self._clear_sweep()
        # One long descent fires Page-Hinkley repeatedly; once a sweep
        # has run, re-sweeping the same neighbourhood on the next drop
        # alarm mostly re-confirms it at full probe cost.  The flag
        # clears on a probe-confirmed move, a rise alarm (the
        # environment changed direction, so the chart is stale), or a
        # sparse alarm (see REARM_UPDATES).
        self._drop_stayed = False
        self._updates_since_cp = 0
        for _ in range(segments):
            if self._out_of_time() or not self._control_segment():
                break
        if not self._history:
            raise TuningError("no tuning segment completed (job parked immediately)")
        # Finish on the tracked incumbent — under drift it is the only
        # point whose arm reflects the *current* environment.
        final_speed = self._finish(self._incumbent, final_iterations, self._change_points)
        return AdaptiveTuningResult(
            best_point=self._incumbent,
            final_speed=final_speed,
            change_points=self._change_points,
            reconfigures=self._reconfigures,
            probes=self._probes,
            restart_overhead=self.restart_overhead,
            segments=self._history,
            timeline=self.timeline,
        )

    def _out_of_time(self) -> bool:
        return self._until is not None and self.job.env.now >= self._until

    def _profile(self, point: Point, iterations: Optional[int] = None) -> Window:
        """Flush if the knobs moved, then profile one segment into its arm."""
        if point != self._running:
            self._move(point)
            if self._flush():
                return None, True
        speed, epoch_changed = self._window(point, iterations or self.segment_iterations)
        if speed is not None:
            self._history.append((point, speed))
            self._arms.setdefault(point, _Arm()).observe(speed, self.job.env.now)
        return speed, epoch_changed

    def _control_segment(self) -> bool:
        """Exploit the incumbent or probe a neighbour for one segment,
        and react to what it measured; False once the job parked."""
        incumbent = self._incumbent
        in_sweep = False
        period = 2 if self._incumbent_drifting() else self.probe_period * self._probe_backoff
        if self._resweep:
            point = self._resweep.pop(0)
            probe = in_sweep = True
        elif self._exploit_streak >= period - 1:
            point = self._next_probe(incumbent)
            probe = True
            self._exploit_streak = 0
        else:
            point = incumbent
            probe = False
            self._exploit_streak += 1
        # Probe excursions measure one iteration less than exploit
        # segments — the flush already absorbed the knob switch, and
        # every extra iteration at a losing neighbour is pure drag.
        # The incumbent itself always gets a full segment.
        iterations = self.segment_iterations
        if probe:
            self._probes += 1
            if point != incumbent:
                iterations = max(1, self.segment_iterations - 1)
        speed, epoch_changed = self._profile(point, iterations)
        if speed is None and not epoch_changed:
            return False  # parked below min_workers: nothing to profile
        if epoch_changed:
            self._on_change_point("membership-epoch")
        elif not probe:
            self._updates_since_cp += 1
            if self.detector.update(speed):
                # Asymmetric response: a drop can mean the optimum fled
                # across a valley — worth a paid sweep.  A rise lifts
                # the incumbent too; the retracing optimum is found by
                # ordinary probing, so only the stale model is
                # discarded.
                if self._updates_since_cp >= REARM_UPDATES:
                    self._drop_stayed = False
                if self.detector.side == "rise":
                    self._drop_stayed = False
                    self._on_change_point("page-hinkley", sweep=False)
                else:
                    self._on_change_point("page-hinkley", sweep=not self._drop_stayed)
        elif point != incumbent:
            return self._judge_probe(point, speed, in_sweep)
        return True

    def _judge_probe(self, point: Point, speed: float, in_sweep: bool) -> bool:
        """Strictly local, recency-gated comparison: the probe just
        taken against the incumbent's *latest* sample.  A global argmax
        over arms would let a stale arm — observed once before the
        environment moved and never decayed since — hijack the
        incumbent; and under a continuous descent even the incumbent's
        discounted mean lags high, vetoing genuinely better neighbours.
        False once the job parked."""
        incumbent = self._incumbent
        incumbent_arm = self._arms.get(incumbent)
        reference = 0.0 if incumbent_arm is None else incumbent_arm.reference(self.job.env.now)
        if incumbent_arm is None or speed > reference * (1.0 + MOVE_MARGIN):
            # Provisional win.  The reference behind it is an
            # extrapolation, and in a staircase environment a probe
            # straddling a stair beats any stale bar, so confirm by
            # bracketing: re-observe the incumbent and judge the probe
            # against the incumbent baseline interpolated to the
            # probe's moment.
            confirmed = incumbent_arm is None
            if not confirmed:
                pre_t, pre_s = incumbent_arm.last_time, incumbent_arm.last
                probe_t = self.job.env.now
                post_s, epoch_changed = self._profile(incumbent)
                if epoch_changed:
                    self._on_change_point("membership-epoch")
                    return True
                if post_s is None:
                    return False
                bar = _bracketed(pre_t, pre_s, self.job.env.now, post_s, probe_t)
                confirmed = bar > 0.0 and speed > bar * (1.0 + MOVE_MARGIN)
                if pre_s > 0.0 and abs(post_s - pre_s) > BRACKET_JUMP * pre_s:
                    # The environment stepped inside the bracket (see
                    # BRACKET_JUMP): any verdict from it would compare
                    # across regimes.
                    confirmed = False
            if confirmed:
                self._move_incumbent(point)
                self._drop_stayed = False
            return True
        if not in_sweep:
            self._probe_backoff = min(self._probe_backoff * 2, MAX_PROBE_BACKOFF)
        trending_down = incumbent_arm is not None and reference < incumbent_arm.last
        if (in_sweep or trending_down) and speed >= reference:
            # Shallow-gradient look-ahead: a probe that ties the
            # incumbent marks a flat direction — the two-hop point can
            # clear the margin even when the first hop cannot (the
            # landscape has a saddle between the old and the drifted
            # optimum).  Periodic probes only look ahead while the
            # incumbent is degrading, when the optimum is expected to
            # be several hops out.
            ahead = self._apply_delta(point, self._unit_delta(incumbent, point))
            if ahead is not None and ahead not in self._sweep_seen:
                self._sweep_seen.add(ahead)
                self._resweep.append(ahead)
        return True

    def _move_incumbent(self, point: Point) -> None:
        """Adopt ``point`` as incumbent and restart detection and the
        probe cadence.  Momentum hill-climb: the winning sample may
        carry knob-switch transient, so re-observe the new incumbent
        first (steadying the reference further moves are judged
        against), then chain-test one lattice hop onward in the winning
        direction.  A full neighbourhood sweep is reserved for
        change-point alarms."""
        delta = self._step_toward(self._unit_delta(self._incumbent, point))
        self._incumbent = point
        self.detector.reset()
        self._updates_since_cp = 0
        self._probe_backoff = 1
        self._resweep = [point]
        self._sweep_seen = {point}
        follow = self._apply_delta(point, delta)
        if follow is not None:
            self._resweep.append(follow)
            self._sweep_seen.add(follow)

    def _incumbent_drifting(self) -> bool:
        """True when the incumbent's own samples show a slope — the
        trend-aware gate that keeps probing eager under drift while
        backoff silences it on a stationary landscape."""
        arm = self._arms.get(self._incumbent)
        if arm is None or arm.last <= 0.0:
            return False
        reference = arm.reference(self.job.env.now)
        return abs(reference - arm.last) > DRIFT_SLOPE * arm.last

    def _on_change_point(self, label: str, sweep: bool = True) -> None:
        """Localized model reset, settling burn-in, bracketed sweep."""
        self._updates_since_cp = 0
        self._probe_backoff = 1
        self._change_points += 1
        self.job.trace.point("tuning.change_point", label)
        self._arms.clear()
        self.detector.reset()
        # Settle at the incumbent so the re-sweep profiles the new
        # environment, not the transient.  Membership events pay the
        # full burn-in (state sync + pipeline refill decay over several
        # iterations); a drift alarm settles at most two segments — a
        # continuously moving environment never stabilises, and every
        # segment spent waiting is a segment not tracking.
        cap = MAX_SETTLE_SEGMENTS if label == "membership-epoch" else 2
        speed, epoch_changed = self._settle(lambda: self._profile(self._incumbent), cap)
        if speed is not None and not epoch_changed and sweep:
            self._sweep(label)
        else:
            self._clear_sweep()

    def _clear_sweep(self) -> None:
        self._resweep = []
        self._sweep_seen = {self._incumbent}
        self._exploit_streak = 0

    def _sweep(self, label: str) -> None:
        """Bracketed neighbourhood sweep.  The environment keeps moving
        while the sweep runs, so a candidate profiled two seconds after
        the settle cannot be judged against the settle-time sample —
        under a descent that stale bar vetoes everything, under a
        recovery it flatters everything.  Instead: sweep every
        candidate, re-observe the incumbent to close the bracket, and
        judge each sample against the incumbent baseline *interpolated
        to the moment it was taken*."""
        incumbent = self._incumbent
        arm = self._arms.get(incumbent)
        pre_t, pre_s = (arm.last_time, arm.last) if arm else (0.0, 0.0)
        samples = self._chart(incumbent, pre_s)
        self._clear_sweep()
        if not samples or pre_s <= 0.0:
            return
        post_s, _ = self._profile(incumbent)
        if post_s is None:
            return
        post_t = self.job.env.now
        best, best_ratio = None, 1.0 + MOVE_MARGIN
        for candidate, t, speed in samples:
            bar = _bracketed(pre_t, pre_s, post_t, post_s, t)
            if bar > 0.0 and speed / bar > best_ratio:
                best, best_ratio = candidate, speed / bar
        # One paid sweep per descent: whatever the verdict, the
        # neighbourhood has been charted — momentum follow-probes and
        # trend-aware probing track any further slide, and the flag
        # re-arms when the environment turns (rise alarm).
        if label == "page-hinkley":
            self._drop_stayed = True
        if best is not None:
            self._move_incumbent(best)

    def _chart(self, incumbent: Point, pre_s: float) -> List[Tuple[Point, float, float]]:
        """Profile the sweep candidates around ``incumbent`` as
        ``(point, time, speed)`` samples, stopping early at the time
        budget, a parked job or a membership epoch."""
        samples: List[Tuple[Point, float, float]] = []
        probe_iterations = max(1, self.segment_iterations - 1)
        for near, far in self._sweep_pairs(incumbent):
            for candidate in (near, far):
                if candidate is None:
                    continue
                if self._out_of_time():
                    return samples
                self._probes += 1
                speed, epoch_changed = self._profile(candidate, probe_iterations)
                if speed is None or epoch_changed:
                    return samples
                samples.append((candidate, self.job.env.now, speed))
                if candidate is near and speed < pre_s * (1.0 - 2.0 * MOVE_MARGIN):
                    break  # cliff: the 2-hop continuation won't pay
        return samples


def _bracketed(pre_t: float, pre_s: float, post_t: float, post_s: float, t: float) -> float:
    """The incumbent's speed at ``t``, interpolated between the samples
    ``(pre_t, pre_s)`` and ``(post_t, post_s)`` that bracket it; the
    later sample alone when the earlier one is missing."""
    if post_t <= pre_t or pre_s <= 0.0:
        return post_s
    frac = (t - pre_t) / (post_t - pre_t)
    return pre_s + (post_s - pre_s) * frac
