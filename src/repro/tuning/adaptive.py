"""Drift-tracking adaptive tuning: a discounted local bandit with
online change-point detection.

:class:`~repro.tuning.online.OnlineTuner` re-tunes with BO on segment
speeds, which is the right tool when the environment is *stationary*:
every profile stays forever valid, so global exploration pays off.
Under drift (diurnal bandwidth curves, background tenants, slow-moving
stragglers) old profiles go stale and a global searcher keeps paying
exploration cost for a landscape that has already moved — AutoByte
(arXiv 2112.13509) argues the runtime needs a mechanism that *reacts*
instead of re-searching.  :class:`AdaptiveTuner` is that control loop:

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
  with PR 8's settling machinery, and re-sweeps the local
  neighbourhood instead of restarting a global search.

Membership-epoch changes (elastic jobs) are treated as externally
signalled change points, mirroring the online tuner's reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TuningError
from repro.training.job import TrainingJob
from repro.tuning.online import (
    DEFAULT_RESTART_PENALTY,
    MAX_SETTLE_SEGMENTS,
    PIPELINE_FLUSH_ITERATIONS,
    SETTLE_TOLERANCE,
    record_tuning_stats,
)
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

    def __init__(
        self, delta: float = PH_DELTA, threshold: float = PH_THRESHOLD
    ) -> None:
        if delta < 0 or threshold <= 0:
            raise TuningError("PageHinkley needs delta >= 0, threshold > 0")
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


class AdaptiveTuner:
    """Tracks a moving knob optimum on one live job."""

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
        if segment_iterations < 1:
            raise TuningError("segment_iterations must be >= 1")
        if probe_period < 1:
            raise TuningError("probe_period must be >= 1")
        if not 0.0 < neighbor_step <= 0.5:
            raise TuningError("neighbor_step must be in (0, 0.5]")
        if not job.scheduler.scheduled:
            raise TuningError("adaptive tuning needs a priority scheduler")
        if job.scheduler.kind == "dear":
            raise TuningError(
                "DeAR has no partition/credit knobs to tune — that is "
                "its selling point"
            )
        self.job = job
        self.space = space or SearchSpace()
        self.seed = seed
        self.segment_iterations = segment_iterations
        self.restart_penalty = restart_penalty
        self.probe_period = probe_period
        self.detector = detector or PageHinkley()
        self.neighbor_step = neighbor_step
        self._needs_restart = job.cluster.arch == "ps"
        self._arms: Dict[Point, _Arm] = {}
        self._neighbor_cursor = 0
        self._reconfigures = 0
        self._restart_overhead = 0.0
        self._last_partition: Optional[float] = None

    # -- small helpers mirrored from OnlineTuner ---------------------------

    def _current_point(self) -> Optional[Point]:
        core = self.job.master_core
        partition = getattr(core, "partition_bytes", None)
        credit = getattr(core, "credit_capacity", None)
        if partition is None or credit is None:
            return None
        return (partition, credit)

    def _train_segment(self, iterations: int) -> bool:
        """Run ``iterations`` via :meth:`TrainingJob.advance`, which —
        unlike an extend + drain barrier — leaves trailing communication
        in flight across segment boundaries.  Draining between short
        segments would insert a pipeline bubble into every control
        segment and depress every measurement by the refill cost."""
        job = self.job
        if job.membership is not None:
            before = job.membership.epoch
            job.advance(iterations)
            return job.membership.epoch != before
        job.advance(iterations)
        return False

    def _reconfigure(self, point: Point) -> None:
        partition, credit = point
        if (
            self._needs_restart
            and self._last_partition is not None
            and partition != self._last_partition
        ):
            self._restart_overhead += self.restart_penalty
        self._last_partition = partition
        self.job.reconfigure(partition_bytes=partition, credit_bytes=credit)
        self._reconfigures += 1
        self.job.trace.point(
            "tuning.reconfigure", f"p={partition:g},c={credit:g}"
        )

    def _arm(self, point: Point) -> _Arm:
        arm = self._arms.get(point)
        if arm is None:
            arm = self._arms[point] = _Arm()
        return arm

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

    def _sweep_pairs(
        self, point: Point
    ) -> List[Tuple[Point, Optional[Point]]]:
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
            if far is not None and far in seen:
                far = None
            if far is not None:
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
        return (
            min(max(du, -step), step),
            min(max(dv, -step), step),
        )

    def _apply_delta(
        self, point: Point, delta: Tuple[float, float]
    ) -> Optional[Point]:
        """``point`` shifted by ``delta`` in unit coordinates, clipped;
        None when the box edge swallows the step."""
        du, dv = delta
        u, v = self.space.to_unit(point)
        unit = (min(max(u + du, 0.0), 1.0), min(max(v + dv, 0.0), 1.0))
        candidate = self.space.from_unit(unit)
        return candidate if candidate != point else None

    # -- the control loop ---------------------------------------------------

    def run(
        self,
        segments: int = 12,
        final_iterations: int = 4,
        until: Optional[float] = None,
    ) -> AdaptiveTuningResult:
        """Drive ``segments`` control rounds, then finish on the
        incumbent knobs and report the final steady speed.  With
        ``until`` set, the loop also stops once simulated time passes
        it — the natural budget for a tracker, whose job is to stay
        live for a wall of time, not for a count of segments."""
        if segments < 1:
            raise TuningError("segments must be >= 1")
        job = self.job
        self._last_partition = getattr(
            job.master_core, "partition_bytes", None
        )

        # Warm-up, then adopt whatever the job is running as incumbent.
        self._train_segment(self.segment_iterations + 1)
        incumbent = self._current_point()
        incumbent = self.space.clip(
            incumbent if incumbent is not None else self.space.from_unit((0.5, 0.5))
        )
        running = incumbent
        timeline: List[Tuple[float, float, Point, float]] = []
        history: List[Tuple[Point, float]] = []
        change_points = 0
        probes = 0
        exploit_streak = 0
        probe_backoff = 1
        resweep: List[Point] = []
        sweep_seen = {incumbent}
        # One long descent fires Page-Hinkley repeatedly; once a sweep
        # has run, re-sweeping the same neighbourhood on the next drop
        # alarm mostly re-confirms it at full probe cost.  The flag
        # clears on a probe-confirmed move, a rise alarm (the
        # environment changed direction, so the chart is stale), or a
        # sparse alarm (see REARM_UPDATES).
        drop_stayed = False
        updates_since_cp = 0

        def profile(
            point: Point, iterations: Optional[int] = None
        ) -> Tuple[Optional[float], bool]:
            """Flush if the knobs moved, then profile one segment."""
            nonlocal running
            if point != running:
                self._reconfigure(point)
                running = point
                if self._train_segment(PIPELINE_FLUSH_ITERATIONS):
                    return None, True
            start = job._built_iterations
            t0 = job.env.now
            epoch_changed = self._train_segment(
                iterations or self.segment_iterations
            )
            if job._built_iterations <= start:
                return None, epoch_changed
            speed = job.segment_speed(start, job._built_iterations)
            timeline.append((t0, job.env.now, point, speed))
            history.append((point, speed))
            self._arm(point).observe(speed, job.env.now)
            return speed, epoch_changed

        def on_change_point(label: str, sweep: bool = True) -> None:
            """Localized model reset, settling burn-in, bracketed sweep."""
            nonlocal change_points, resweep, sweep_seen, exploit_streak
            nonlocal probe_backoff, incumbent, probes, drop_stayed
            nonlocal updates_since_cp
            updates_since_cp = 0
            probe_backoff = 1
            change_points += 1
            job.trace.point("tuning.change_point", label)
            self._arms.clear()
            self.detector.reset()
            # Settle at the incumbent: discard segments until two
            # consecutive speeds agree within tolerance (PR 8's
            # burn-in), so the re-sweep profiles the new environment,
            # not the transient.  Membership events pay the full
            # burn-in (state sync + pipeline refill decay over several
            # iterations); a drift alarm settles at most two segments —
            # a continuously moving environment never stabilises, and
            # every segment spent waiting is a segment not tracking.
            cap = (
                MAX_SETTLE_SEGMENTS if label == "membership-epoch" else 2
            )
            previous = None
            for _ in range(cap):
                speed, epoch_changed = profile(incumbent)
                if speed is None or epoch_changed:
                    resweep = []
                    sweep_seen = {incumbent}
                    exploit_streak = 0
                    return
                if (
                    previous is not None
                    and abs(speed - previous) <= SETTLE_TOLERANCE * previous
                ):
                    break
                previous = speed
            if not sweep:
                resweep = []
                sweep_seen = {incumbent}
                exploit_streak = 0
                return
            # Bracketed neighbourhood sweep.  The environment keeps
            # moving while the sweep runs, so a candidate profiled two
            # seconds after the settle cannot be judged against the
            # settle-time sample — under a descent that stale bar
            # vetoes everything, under a recovery it flatters
            # everything.  Instead: sweep every candidate, re-observe
            # the incumbent to close the bracket, and judge each
            # sample against the incumbent baseline *interpolated to
            # the moment it was taken*.
            arm = self._arms.get(incumbent)
            pre_t, pre_s = (arm.last_time, arm.last) if arm else (0.0, 0.0)
            samples: List[Tuple[Point, float, float]] = []
            probe_iterations = max(1, self.segment_iterations - 1)
            aborted = False
            for near, far in self._sweep_pairs(incumbent):
                for candidate in (near, far):
                    if candidate is None:
                        continue
                    if until is not None and job.env.now >= until:
                        aborted = True
                        break
                    probes += 1
                    speed, epoch_changed = profile(
                        candidate, probe_iterations
                    )
                    if speed is None or epoch_changed:
                        aborted = True
                        break
                    samples.append((candidate, job.env.now, speed))
                    if candidate is near and speed < pre_s * (
                        1.0 - 2.0 * MOVE_MARGIN
                    ):
                        break  # cliff: the 2-hop continuation won't pay
                if aborted:
                    break
            resweep = []
            sweep_seen = {incumbent}
            exploit_streak = 0
            if not samples or pre_s <= 0.0:
                return
            post_s, _ = profile(incumbent)
            if post_s is None:
                return
            post_t = job.env.now

            def baseline(t: float) -> float:
                if post_t <= pre_t:
                    return post_s
                frac = (t - pre_t) / (post_t - pre_t)
                return pre_s + (post_s - pre_s) * frac

            best, best_ratio = None, 1.0 + MOVE_MARGIN
            for candidate, t, speed in samples:
                bar = baseline(t)
                if bar > 0.0 and speed / bar > best_ratio:
                    best, best_ratio = candidate, speed / bar
            # One paid sweep per descent: whatever the verdict, the
            # neighbourhood has been charted — momentum follow-probes
            # and trend-aware probing track any further slide, and the
            # flag re-arms when the environment turns (rise alarm).
            if label == "page-hinkley":
                drop_stayed = True
            if best is not None:
                delta = self._step_toward(self._unit_delta(incumbent, best))
                incumbent = best
                self.detector.reset()
                # Momentum: re-observe the winner, then chain-test the
                # next point in its direction (same as a probe move).
                resweep = [incumbent]
                sweep_seen = {incumbent}
                follow = self._apply_delta(incumbent, delta)
                if follow is not None:
                    resweep.append(follow)
                    sweep_seen.add(follow)

        def incumbent_drifting() -> bool:
            """True when the incumbent's own samples show a slope —
            the trend-aware gate that keeps probing eager under drift
            while backoff silences it on a stationary landscape."""
            arm = self._arms.get(incumbent)
            if arm is None or arm.last <= 0.0:
                return False
            reference = arm.reference(job.env.now)
            return abs(reference - arm.last) > DRIFT_SLOPE * arm.last

        for _ in range(segments):
            if until is not None and job.env.now >= until:
                break
            in_sweep = False
            period = (
                2
                if incumbent_drifting()
                else self.probe_period * probe_backoff
            )
            if resweep:
                point = resweep.pop(0)
                role = "probe"
                in_sweep = True
            elif exploit_streak >= period - 1:
                point = self._next_probe(incumbent)
                role = "probe"
                exploit_streak = 0
            else:
                point = incumbent
                role = "exploit"
                exploit_streak += 1
            if role == "probe":
                probes += 1
            # Probe excursions measure one iteration less than exploit
            # segments — the flush already absorbed the knob switch,
            # and every extra iteration at a losing neighbour is pure
            # drag.  The incumbent itself always gets a full segment.
            iterations = self.segment_iterations
            if role == "probe" and point != incumbent:
                iterations = max(1, self.segment_iterations - 1)
            speed, epoch_changed = profile(point, iterations)
            if speed is None and not epoch_changed:
                break  # parked below min_workers: nothing to profile
            if epoch_changed:
                on_change_point("membership-epoch")
                continue
            if role == "exploit":
                updates_since_cp += 1
                if self.detector.update(speed):
                    # Asymmetric response: a drop can mean the optimum
                    # fled across a valley — worth a paid sweep.  A
                    # rise lifts the incumbent too; the retracing
                    # optimum is found by ordinary probing, so only
                    # the stale model is discarded.
                    if updates_since_cp >= REARM_UPDATES:
                        drop_stayed = False
                    if self.detector.side == "rise":
                        drop_stayed = False
                        on_change_point("page-hinkley", sweep=False)
                    else:
                        on_change_point(
                            "page-hinkley", sweep=not drop_stayed
                        )
                    continue
            elif point != incumbent:
                # Strictly local, recency-gated comparison: the probe
                # just taken against the incumbent's *latest* sample.
                # A global argmax over arms would let a stale arm —
                # observed once before the environment moved and never
                # decayed since — hijack the incumbent; and under a
                # continuous descent even the incumbent's discounted
                # mean lags high, vetoing genuinely better neighbours.
                incumbent_arm = self._arms.get(incumbent)
                reference = (
                    incumbent_arm.reference(job.env.now)
                    if incumbent_arm is not None
                    else 0.0
                )
                if incumbent_arm is None or speed > reference * (
                    1.0 + MOVE_MARGIN
                ):
                    # Provisional win.  The reference behind it is an
                    # extrapolation, and in a staircase environment a
                    # probe straddling a stair beats any stale bar, so
                    # confirm by bracketing: re-observe the incumbent
                    # and judge the probe against the incumbent
                    # baseline interpolated to the probe's moment.
                    confirmed = incumbent_arm is None
                    if not confirmed:
                        pre_t = incumbent_arm.last_time
                        pre_s = incumbent_arm.last
                        probe_t = job.env.now
                        post_s, epoch_changed = profile(incumbent)
                        if epoch_changed:
                            on_change_point("membership-epoch")
                            continue
                        if post_s is None:
                            break
                        post_t = job.env.now
                        if post_t > pre_t and pre_s > 0.0:
                            frac = (probe_t - pre_t) / (post_t - pre_t)
                            bar = pre_s + (post_s - pre_s) * frac
                        else:
                            bar = post_s
                        confirmed = bar > 0.0 and speed > bar * (
                            1.0 + MOVE_MARGIN
                        )
                        if (
                            pre_s > 0.0
                            and abs(post_s - pre_s) > BRACKET_JUMP * pre_s
                        ):
                            # The environment stepped inside the
                            # bracket (see BRACKET_JUMP): any verdict
                            # from it would compare across regimes.
                            confirmed = False
                    if confirmed:
                        delta = self._step_toward(
                            self._unit_delta(incumbent, point)
                        )
                        incumbent = point
                        self.detector.reset()
                        updates_since_cp = 0
                        probe_backoff = 1
                        drop_stayed = False
                        # Momentum hill-climb: the winning probe's
                        # sample may carry knob-switch transient, so
                        # re-observe the new incumbent first
                        # (steadying the reference further moves are
                        # judged against), then chain-test one lattice
                        # hop onward in the winning direction.  A full
                        # neighbourhood sweep is reserved for change-
                        # point alarms.
                        resweep = [incumbent]
                        sweep_seen = {incumbent}
                        follow = self._apply_delta(incumbent, delta)
                        if follow is not None:
                            resweep.append(follow)
                            sweep_seen.add(follow)
                else:
                    if not in_sweep:
                        probe_backoff = min(
                            probe_backoff * 2, MAX_PROBE_BACKOFF
                        )
                    trending_down = (
                        incumbent_arm is not None
                        and reference < incumbent_arm.last
                    )
                    if (in_sweep or trending_down) and speed >= reference:
                        # Shallow-gradient look-ahead: a probe that
                        # ties the incumbent marks a flat direction —
                        # the two-hop point can clear the margin even
                        # when the first hop cannot (the landscape has
                        # a saddle between the old and the drifted
                        # optimum).  Periodic probes only look ahead
                        # while the incumbent is degrading, when the
                        # optimum is expected to be several hops out.
                        ahead = self._apply_delta(
                            point, self._unit_delta(incumbent, point)
                        )
                        if ahead is not None and ahead not in sweep_seen:
                            sweep_seen.add(ahead)
                            resweep.append(ahead)

        if not history:
            raise TuningError(
                "no tuning segment completed (job parked immediately)"
            )
        # Finish on the tracked incumbent — under drift it is the only
        # point whose arm reflects the *current* environment.
        if incumbent != running:
            self._reconfigure(incumbent)
            running = incumbent
        self._train_segment(PIPELINE_FLUSH_ITERATIONS)
        start = job._built_iterations
        t0 = job.env.now
        self._train_segment(final_iterations)
        if job._built_iterations <= start:
            raise TuningError("job parked before the final measurement")
        final_speed = job.segment_speed(start, job._built_iterations)
        timeline.append((t0, job.env.now, incumbent, final_speed))
        record_tuning_stats(
            job,
            "adaptive",
            reconfigures=self._reconfigures,
            change_points=change_points,
            best_point=incumbent,
            restart_overhead=self._restart_overhead,
            timeline=timeline,
        )
        return AdaptiveTuningResult(
            best_point=incumbent,
            final_speed=final_speed,
            change_points=change_points,
            reconfigures=self._reconfigures,
            probes=probes,
            restart_overhead=self._restart_overhead,
            segments=history,
            timeline=timeline,
        )
