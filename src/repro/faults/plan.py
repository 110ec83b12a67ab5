"""Declarative fault plans.

A :class:`FaultPlan` is a seeded, fully declarative schedule of faults
to impose on one simulated training run:

* :class:`LinkFault` — a window during which one direction of one
  node's NIC (or its loopback) runs at a fraction of line rate
  (``rate_factor`` 0 is a blackout: the link stalls until the window
  closes);
* :class:`StragglerFault` — a window during which one worker's compute
  ops run ``slowdown`` times slower;
* :class:`TransportFault` — probabilistic per-message loss (modelled as
  retransmissions at the transport layer) and extra delivery delay,
  drawn from the plan's seeded RNG.

Everything is simulated-time and seeded — no wall clock, no global
randomness — so a faulted run is exactly as deterministic as a healthy
one.  The same plan applied twice yields byte-identical traces; two
plans differing only in ``seed`` diverge.

Plans can be built programmatically or parsed from the compact CLI
grammar accepted by ``--fault-plan``::

    straggler:w0@0.0-0.5x3;slowlink:w1.up@0.1-0.3x0.25;loss:0.02;seed:7

Clauses are semicolon-separated:

* ``straggler:<worker>@<start>-<end>x<slowdown>``
* ``slowlink:<node>.<up|down|loop>@<start>-<end>x<factor>``
* ``blackout:<node>.<up|down|loop>@<start>-<end>``
* ``loss:<probability>`` (optionally ``loss:<p>@<penalty_seconds>``)
* ``delay:<probability>@<seconds>``
* ``crash:<node>@<t>[+<restart_delay>]``
* ``corrupt:<node>.<up|down|loop>@<start>-<end>%<rate>``
* ``dup:<node>.<up|down|loop>@<start>-<end>%<rate>``
* ``reorder:<node>.<up|down|loop>@<start>-<end>%<rate>``
* ``join:<node>@<t>`` / ``leave:<node>@<t>`` (planned scale events)
* ``drift:diurnal:<node>.<dir>@<start>-<end>~<period>x<floor>``
* ``drift:ramp:<node>.<dir>@<start>-<end>x<from>-<to>``
* ``drift:walk:<worker|node.dir>@<start>-<end>~<tick>x<sigma>-<cap>``
* ``drift:background:<node>.<dir>@<start>-<end>~<tick>x<load>``
* ``seed:<int>``

Drift clauses describe *continuous* time-varying processes (a sinusoidal
bandwidth curve, a linear ramp, a seeded random-walk straggler, a
background tenant's traffic) that the sampler discretises into the same
piecewise-constant windows the injector already applies — so the
blackout/busy-time accounting and the chaos oracle keep closing
unchanged.  All randomness comes from ``seed:`` (plus a per-clause salt),
so two runs of the same plan drift identically.

Each clause family (its keywords, the :class:`FaultPlan` field it lands
in, and how it reads, writes and describes one clause) is one row of
``_FAMILIES``; ``parse``, ``to_spec``, ``describe`` and ``empty`` loop
over that table.  Malformed clauses raise
:class:`~repro.errors.FaultPlanError` naming the clause and its
position, and :meth:`FaultPlan.to_spec` writes every number in its
shortest exact text, so ``parse(plan.to_spec()) == plan`` for any
grammar-expressible plan.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, FaultPlanError

__all__ = [
    "CrashFault",
    "DriftFault",
    "IntegrityFault",
    "LinkFault",
    "ScaleEvent",
    "StragglerFault",
    "TransportFault",
    "FaultPlan",
    "compose_windows",
    "degraded_finish",
    "merge_windows",
    "sample_drift_windows",
]

_DIRECTIONS = ("up", "down", "loop", "both")
_INTEGRITY_KINDS = ("corrupt", "dup", "reorder")
_SCALE_KINDS = ("join", "leave")
_DRIFT_KINDS = ("diurnal", "ramp", "walk", "background")

#: Default clip on the random-walk straggler multiplier when the clause
#: omits the ``-<cap>`` suffix.
DEFAULT_WALK_CAP = 8.0

#: Piecewise-constant steps per diurnal cycle (and per ramp window)
#: when discretising the continuous curve.  Sized so one stair moves
#: the rate factor by ~1% at the curve's steepest point — a control
#: loop profiling sub-second segments should see a drift, not a
#: staircase of step changes.
DRIFT_RESOLUTION = 64

#: Hard cap on steps sampled from one drift clause — bounds the window
#: lists the links scan on every transmit.
MAX_DRIFT_STEPS = 4096

#: Decorrelates the per-clause drift RNG stream from the transport and
#: integrity streams (xxhash prime; see inject._INTEGRITY_SEED_SALT).
_DRIFT_SEED_SALT = 2246822519


@dataclass(frozen=True)
class LinkFault:
    """One degradation window on one direction of one node's links."""

    node: str
    direction: str  # 'up', 'down', 'loop', or 'both'
    start: float
    end: float
    rate_factor: float  # 1.0 = healthy, 0.0 = blackout

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ConfigError(
                f"link fault direction must be one of {_DIRECTIONS}, "
                f"got {self.direction!r}"
            )
        if not 0.0 <= self.rate_factor <= 1.0:
            raise ConfigError(
                f"rate_factor must be in [0, 1], got {self.rate_factor!r}"
            )
        if not 0.0 <= self.start < self.end:
            raise ConfigError(
                f"invalid fault window [{self.start!r}, {self.end!r})"
            )
        if self.rate_factor == 0.0 and math.isinf(self.end):
            raise ConfigError("a blackout window must have a finite end")


@dataclass(frozen=True)
class StragglerFault:
    """One slowdown window on one worker's compute."""

    worker: str
    start: float
    end: float
    slowdown: float  # compute durations are multiplied by this

    def __post_init__(self) -> None:
        if not 1.0 <= self.slowdown < math.inf:  # also rejects NaN
            raise ConfigError(
                f"straggler slowdown must be finite and >= 1, got {self.slowdown!r}"
            )
        if not 0.0 <= self.start < self.end:
            raise ConfigError(
                f"invalid straggler window [{self.start!r}, {self.end!r})"
            )


@dataclass(frozen=True)
class CrashFault:
    """One node's process dies at ``time`` and optionally restarts.

    The node may be a PS worker (``w0``), a PS server (``s0``), or an
    all-reduce machine (``m0``).  ``restart_delay`` of ``None`` means
    the process never comes back: the cluster must degrade to the
    survivors.  With a restart, the process is running again at
    ``time + restart_delay`` but its in-memory state is gone — recovery
    (checkpoint + re-sync) happens on top of the restart.
    """

    node: str
    time: float
    restart_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"crash time must be >= 0, got {self.time!r}")
        if not math.isfinite(self.time):
            raise ConfigError("crash time must be finite")
        if self.restart_delay is not None and (
            self.restart_delay <= 0 or not math.isfinite(self.restart_delay)
        ):
            raise ConfigError(
                f"restart delay must be a finite value > 0, "
                f"got {self.restart_delay!r}"
            )

    @property
    def restarts(self) -> bool:
        """True when the process comes back after the crash."""
        return self.restart_delay is not None

    @property
    def restart_time(self) -> float:
        """Absolute restart time (``inf`` for a permanent crash)."""
        if self.restart_delay is None:
            return math.inf
        return self.time + self.restart_delay


@dataclass(frozen=True)
class IntegrityFault:
    """Probabilistic data-plane damage on one direction of one node's
    links during a window.

    ``kind`` is one of ``corrupt`` (the message's checksum no longer
    matches its contents — the receiver NACKs and the sender
    retransmits), ``dup`` (the network delivers an extra copy — the
    receiver's dedup window absorbs it), or ``reorder`` (the message is
    held back in the switch and delivered late, behind younger
    traffic).  ``rate`` is the per-message probability, drawn from the
    plan's seeded RNG at transmission time.
    """

    kind: str
    node: str
    direction: str  # 'up', 'down', 'loop', or 'both'
    start: float
    end: float
    rate: float

    def __post_init__(self) -> None:
        if self.kind not in _INTEGRITY_KINDS:
            raise ConfigError(
                f"integrity fault kind must be one of {_INTEGRITY_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.direction not in _DIRECTIONS:
            raise ConfigError(
                f"integrity fault direction must be one of {_DIRECTIONS}, "
                f"got {self.direction!r}"
            )
        if not 0.0 < self.rate < 1.0:
            raise ConfigError(
                f"integrity fault rate must be in (0, 1), got {self.rate!r}"
            )
        if not 0.0 <= self.start < self.end:
            raise ConfigError(
                f"invalid integrity window [{self.start!r}, {self.end!r})"
            )


@dataclass(frozen=True)
class ScaleEvent:
    """One planned elastic-membership change: ``node`` joins or leaves
    the worker set at (the iteration boundary after) ``time``.

    Unlike a crash, a scale event is *planned*: the membership manager
    quiesces at an iteration boundary, bumps the membership epoch (so
    the delivery guard fences stale in-flight frames), and reforms the
    communication topology over the new member set.  A node whose first
    event is a ``join`` starts the run absent and only begins training
    when its join matures.
    """

    kind: str  # 'join' or 'leave'
    node: str
    time: float

    def __post_init__(self) -> None:
        if self.kind not in _SCALE_KINDS:
            raise ConfigError(
                f"scale event kind must be one of {_SCALE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.time < 0 or not math.isfinite(self.time):
            raise ConfigError(
                f"scale event time must be finite and >= 0, got {self.time!r}"
            )


@dataclass(frozen=True)
class DriftFault:
    """One continuous time-varying process, sampled from the plan seed.

    ``kind`` selects the process; the two ``level`` fields are
    kind-specific:

    * ``diurnal`` — the link's rate factor follows one minus a raised
      cosine: 1.0 at each cycle boundary, dipping to ``level`` (the
      floor) mid-cycle, with cycle length ``period``;
    * ``ramp`` — the rate factor moves linearly from ``level`` at
      ``start`` to ``level2`` at ``end`` (no ``period``);
    * ``walk`` — a seeded geometric random walk, one ``exp(N(0,
      level))`` step per ``period`` seconds, clipped to ``[1, level2]``.
      With a bare ``node`` (empty ``direction``) the walk is a worker's
      compute multiplier; with a ``node.direction`` target it degrades
      the link instead, whose rate factor becomes the walk's
      reciprocal (in ``[1/level2, 1]``);
    * ``background`` — a co-scheduled tenant's traffic contends for the
      link: every ``period`` seconds a demand of ``level × U(0.5, 1.5)``
      (relative to our own) is drawn and the rate factor becomes our
      arbitrated share under the cluster layer's ``link_shares`` model.
    """

    kind: str
    node: str
    direction: str  # 'up', 'down', 'loop', 'both'; '' for walk
    start: float
    end: float
    period: float = 0.0
    level: float = 0.0
    level2: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _DRIFT_KINDS:
            raise ConfigError(
                f"drift kind must be one of {_DRIFT_KINDS}, got {self.kind!r}"
            )
        if self.kind == "walk":
            if self.direction and self.direction not in _DIRECTIONS:
                raise ConfigError(
                    "walk drift targets a bare worker (compute) or "
                    f"<node>.<{'|'.join(_DIRECTIONS)}> (link), "
                    f"got direction {self.direction!r}"
                )
        elif self.direction not in _DIRECTIONS:
            raise ConfigError(
                f"drift direction must be one of {_DIRECTIONS}, "
                f"got {self.direction!r}"
            )
        if not 0.0 <= self.start < self.end or not math.isfinite(self.end):
            raise ConfigError(
                f"drift window must be finite: [{self.start!r}, {self.end!r})"
            )
        if self.kind == "ramp":
            if self.period:
                raise ConfigError("ramp drift takes no ~<period>")
            for value in (self.level, self.level2):
                if not 0.0 < value <= 1.0:
                    raise ConfigError(
                        f"ramp factors must be in (0, 1], got {value!r}"
                    )
            return
        if not 0.0 < self.period < math.inf:
            raise ConfigError(
                f"{self.kind} drift needs a finite ~<period> > 0, "
                f"got {self.period!r}"
            )
        if self.kind == "diurnal":
            if not 0.0 < self.level <= 1.0:
                raise ConfigError(
                    f"diurnal floor must be in (0, 1], got {self.level!r}"
                )
            if self.level2:
                raise ConfigError("diurnal takes a single x<floor>")
        elif self.kind == "walk":
            if not 0.0 < self.level < math.inf:
                raise ConfigError(
                    f"walk sigma must be > 0, got {self.level!r}"
                )
            if not 1.0 <= self.level2 < math.inf:
                raise ConfigError(
                    f"walk cap must be >= 1, got {self.level2!r}"
                )
        else:  # background
            if not 0.0 < self.level < math.inf:
                raise ConfigError(
                    f"background load must be > 0, got {self.level!r}"
                )
            if self.level2:
                raise ConfigError("background takes a single x<load>")
        try:
            steps = self.steps
        except OverflowError:  # span / period is inf: a subnormal period
            steps = math.inf
        if steps > MAX_DRIFT_STEPS:
            raise ConfigError(
                f"drift clause would sample {steps} steps "
                f"(cap {MAX_DRIFT_STEPS}); widen ~<period> or shrink "
                "the window"
            )

    @property
    def steps(self) -> int:
        """Piecewise-constant steps the sampler will produce.

        The cycle count is rounded to 9 decimals before the ceiling, so
        a window that spans a whole number of periods in the clause's
        decimal notation (``@11.7-18.1~0.1`` is 64 cycles) is not given
        an extra step by binary float noise in ``end - start``.
        """
        span = self.end - self.start
        if self.kind == "ramp":
            return DRIFT_RESOLUTION
        if self.kind == "diurnal":
            return max(1, math.ceil(round(span / self.period * DRIFT_RESOLUTION, 9)))
        return max(1, math.ceil(round(span / self.period, 9)))


@dataclass(frozen=True)
class TransportFault:
    """Probabilistic per-message loss and delay at the transport layer.

    A "lost" message is retransmitted by the stack below the scheduler:
    each lost copy costs one extra serialisation of the message plus
    ``retransmit_penalty`` seconds (the retransmission timeout).  Losses
    are independent per copy and capped at ``max_losses`` consecutive
    drops so a wire time is always finite.
    """

    loss_probability: float = 0.0
    retransmit_penalty: float = 500e-6
    delay_probability: float = 0.0
    delay: float = 0.0
    max_losses: int = 5

    def __post_init__(self) -> None:
        for name in ("loss_probability", "delay_probability"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value!r}")
        for name in ("retransmit_penalty", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if self.max_losses < 1:
            raise ConfigError("max_losses must be >= 1")

    @property
    def active(self) -> bool:
        """True if this fault can actually perturb a message."""
        return self.loss_probability > 0 or self.delay_probability > 0


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule for one run."""

    link_faults: Tuple[LinkFault, ...] = ()
    stragglers: Tuple[StragglerFault, ...] = ()
    transport: TransportFault = field(default_factory=TransportFault)
    crashes: Tuple[CrashFault, ...] = ()
    integrity: Tuple[IntegrityFault, ...] = ()
    scale_events: Tuple[ScaleEvent, ...] = ()
    drift: Tuple[DriftFault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        seen = set()
        for crash in self.crashes:
            if crash.node in seen:
                raise ConfigError(
                    f"node {crash.node!r} crashes more than once; one "
                    "crash per node per plan"
                )
            seen.add(crash.node)
        # Static windows on one link must not overlap (``both`` counts
        # against up, down and loop); drift windows compose instead.
        for node in sorted({fault.node for fault in self.link_faults}):
            for direction in ("up", "down", "loop"):
                try:
                    self.link_windows(node, direction)
                except ConfigError as exc:
                    raise ConfigError(f"link {node}.{direction}: {exc}") from None
        # Canonical application order (time, then node) — keeps
        # ``parse(plan.to_spec()) == plan`` regardless of construction
        # order and makes the membership choreography deterministic.
        object.__setattr__(self, "scale_events", self.scale_timeline)
        self._validate_scale_events(seen)

    def _validate_scale_events(self, crash_nodes) -> None:
        """A node's scale events must form a coherent lifecycle.

        Per node: event times are distinct, and kinds alternate in time
        order (present nodes can only leave, absent nodes can only
        join).  A node whose *first* event is a join starts the run
        absent.  Crash clauses and scale events on the same node are
        rejected — the two lifecycles would race for the node's state.
        """
        by_node: dict = {}
        for event in self.scale_events:
            if event.node in crash_nodes:
                raise ConfigError(
                    f"node {event.node!r} has both a crash and a scale "
                    "event; use distinct nodes (a planned leave/join and "
                    "a crash lifecycle cannot share one process)"
                )
            by_node.setdefault(event.node, []).append(event)
        for node, events in by_node.items():
            ordered = sorted(events, key=lambda e: e.time)
            for a, b in zip(ordered, ordered[1:]):
                if a.time == b.time:
                    raise ConfigError(
                        f"node {node!r} has two scale events at t={a.time:g}"
                    )
                if a.kind == b.kind:
                    raise ConfigError(
                        f"node {node!r} cannot {b.kind} twice in a row "
                        f"(at t={a.time:g} and t={b.time:g}); join and "
                        "leave must alternate"
                    )

    @property
    def empty(self) -> bool:
        """True when the plan imposes no faults at all."""
        return not any(
            family.show(getattr(self, family.field)) for family in _FAMILIES
        )

    def scale_events_for(self, node: str) -> Tuple[ScaleEvent, ...]:
        """``node``'s scale events in time order."""
        return tuple(
            sorted(
                (event for event in self.scale_events if event.node == node),
                key=lambda e: e.time,
            )
        )

    @property
    def scale_timeline(self) -> Tuple[ScaleEvent, ...]:
        """All scale events in application order (time, then node)."""
        return tuple(
            sorted(self.scale_events, key=lambda e: (e.time, e.node))
        )

    @property
    def initially_absent(self) -> Tuple[str, ...]:
        """Nodes that start the run outside the member set (their first
        scale event is a join), sorted."""
        absent = []
        for node in sorted({event.node for event in self.scale_events}):
            if self.scale_events_for(node)[0].kind == "join":
                absent.append(node)
        return tuple(absent)

    def crash_for(self, node: str) -> Optional[CrashFault]:
        """The crash scheduled for ``node``, if any."""
        for crash in self.crashes:
            if crash.node == node:
                return crash
        return None

    def link_windows(self, node: str, direction: str) -> Tuple[Tuple[float, float, float], ...]:
        """Merged ``(start, end, factor)`` windows for one link."""
        windows = [
            (fault.start, fault.end, fault.rate_factor)
            for fault in self.link_faults
            if fault.node == node and fault.direction in (direction, "both")
        ]
        return merge_windows(windows)

    def straggler_windows(self, worker: str) -> Tuple[Tuple[float, float, float], ...]:
        """``(start, end, slowdown)`` windows for one worker's compute."""
        return tuple(
            sorted(
                (fault.start, fault.end, fault.slowdown)
                for fault in self.stragglers
                if fault.worker == worker
            )
        )

    def integrity_windows(
        self, node: str, direction: str, kind: str
    ) -> Tuple[Tuple[float, float, float], ...]:
        """Sorted ``(start, end, rate)`` windows of one integrity fault
        kind on one link (overlaps are allowed — draws compose)."""
        return tuple(
            sorted(
                (fault.start, fault.end, fault.rate)
                for fault in self.integrity
                if fault.kind == kind
                and fault.node == node
                and fault.direction in (direction, "both")
            )
        )

    def drift_link_windows(
        self, node: str, direction: str
    ) -> Tuple[Tuple[float, float, float], ...]:
        """Composed piecewise-constant rate-factor profile from every
        link-drift clause touching one link, sampled from the plan seed.

        Overlapping drift clauses multiply (two contending processes
        both take their bite), unlike the static ``link_windows`` which
        reject overlap.
        """
        profile: Tuple[Tuple[float, float, float], ...] = ()
        for fault in self.drift:
            if fault.kind == "walk" and not fault.direction:
                continue
            if fault.node == node and fault.direction in (direction, "both"):
                profile = compose_windows(
                    profile, sample_drift_windows(fault, self.seed)
                )
        return profile

    def drift_walk_windows(
        self, worker: str
    ) -> Tuple[Tuple[float, float, float], ...]:
        """Composed compute-multiplier profile (>= 1 inside windows)
        from every compute ``walk`` drift clause on one worker."""
        profile: Tuple[Tuple[float, float, float], ...] = ()
        for fault in self.drift:
            if (
                fault.kind == "walk"
                and not fault.direction
                and fault.node == worker
            ):
                profile = compose_windows(
                    profile, sample_drift_windows(fault, self.seed)
                )
        return profile

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same schedule drawn from a different RNG stream."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        """Human-readable one-line summary (CLI output)."""
        parts = [
            part
            for family in _FAMILIES
            for part in family.show(getattr(self, family.field))
        ]
        if not parts:
            return "healthy (no faults)"
        return "; ".join(parts) + f" (seed {self.seed})"

    # -- CLI grammar -------------------------------------------------------

    def to_spec(self) -> str:
        """The canonical ``--fault-plan`` grammar string for this plan.

        Inverse of :meth:`parse` for every grammar-expressible plan:
        ``FaultPlan.parse(plan.to_spec()) == plan``, every number in its
        shortest exact text.  (A non-default ``max_losses``, which the
        grammar cannot express, is not emitted; a zero-probability
        ``loss``/``delay`` clause is, when its seconds differ from the
        default, so that they survive the trip.)
        """
        return ";".join(
            clause
            for family in _FAMILIES
            for clause in family.write(getattr(self, family.field), _text)
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the compact ``--fault-plan`` grammar (see module doc).

        Malformed clauses raise :class:`~repro.errors.FaultPlanError`
        naming the offending clause and its 1-based position.
        """
        healthy = cls()
        values = {family.field: getattr(healthy, family.field) for family in _FAMILIES}
        position = 0
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            position += 1
            try:
                kind, sep, body = clause.partition(":")
                if not sep:
                    raise ConfigError(
                        "expected <kind>:<body> (e.g. crash:s0@0.2)"
                    )
                kind = kind.strip().lower()
                family = _FAMILY_OF.get(kind)
                if family is None:
                    raise ConfigError(f"unknown fault kind {kind!r}")
                values[family.field] = family.read(
                    kind, body.strip(), values[family.field]
                )
            except (ConfigError, ValueError) as exc:
                raise FaultPlanError(
                    f"fault plan clause {position} ({clause!r}): {exc}",
                    clause=clause,
                    position=position,
                ) from exc
        try:
            return cls(**values)
        except ConfigError as exc:
            raise FaultPlanError(f"fault plan {spec!r}: {exc}") from exc


# -- clause families -------------------------------------------------------
#
# Every number is written by ``_text`` (``%g`` for ``describe`` and the
# drift RNG key) and read by ``_num``; ``_cut`` splits a clause body at a
# separator without taking an exponent's sign for ``-`` or ``+``.


def _text(value: float) -> str:
    """The shortest text that reads back as exactly ``value``: ``repr``
    without a trailing ``.0`` (``3``, ``0.1234567``, ``1e-05``, ``inf``).
    Adding 0.0 folds ``-0.0``, which would read as a separator, into 0."""
    text = repr(float(value) + 0.0)
    return text[:-2] if text.endswith(".0") else text


#: Reads one number of the grammar (``inf`` and exponents included).
_num = float


def _cut(text: str, sep: str, expected: Optional[str] = None):
    """``(head, tail)`` of ``text`` split at its first ``sep`` (a ``-``
    or ``+`` right after ``<digit>e`` signs an exponent).  A missing
    ``sep`` gives ``(text, None)``, or raises with ``expected``."""
    index = text.find(sep)
    while sep in "+-" and index > 1 and text[index - 1] in "eE" and (
        text[index - 2] in "0123456789."
    ):
        index = text.find(sep, index + 1)
    if index >= 0:
        return text[:index], text[index + 1:]
    if expected:
        raise ConfigError(f"expected {expected}")
    return text, None


def _window(text: str) -> Tuple[float, float]:
    """``<start>-<end>`` → (start, end); a blank end is ``inf``."""
    start, end = _cut(text, "-", "<start>-<end>")
    return _num(start), (_num(end) if end.strip() else math.inf)


def _span(fault, num) -> str:
    return f"{num(fault.start)}-{num(fault.end)}"


def _when(fault) -> str:
    return f"[{fault.start:g}, {fault.end:g})"


def _split_at(body: str) -> Tuple[str, str]:
    target, sep, window = body.partition("@")
    if not sep or not target:
        raise ConfigError("expected <target>@<start>-<end>...")
    return target, window


def _split_link(target: str) -> Tuple[str, str]:
    node, _, direction = target.rpartition(".")
    if not node:
        raise ConfigError("link target must be <node>.<up|down|loop>")
    return node, direction


def _target(fault) -> str:
    return f"{fault.node}.{fault.direction}" if fault.direction else fault.node


def _read_straggler(kind: str, body: str) -> StragglerFault:
    worker, window = _split_at(body)
    span, slowdown = _cut(window, "x", "...x<factor>")
    return StragglerFault(worker, *_window(span), _num(slowdown))


def _read_link(kind: str, body: str) -> LinkFault:
    target, window = _split_at(body)
    node, direction = _split_link(target)
    if kind == "blackout":
        return LinkFault(node, direction, *_window(window), 0.0)
    span, factor = _cut(window, "x", "...x<factor>")
    return LinkFault(node, direction, *_window(span), _num(factor))


def _write_link(fault: LinkFault, num) -> str:
    if fault.rate_factor == 0.0:
        return f"blackout:{_target(fault)}@{_span(fault, num)}"
    return f"slowlink:{_target(fault)}@{_span(fault, num)}x{num(fault.rate_factor)}"


def _read_crash(kind: str, body: str) -> CrashFault:
    node, window = _split_at(body)
    time, delay = _cut(window, "+")
    if not time:
        raise ConfigError("expected crash:<node>@<t>[+<restart_delay>]")
    return CrashFault(node, _num(time), None if delay is None else _num(delay))


def _read_integrity(kind: str, body: str) -> IntegrityFault:
    target, window = _split_at(body)
    span, rate = _cut(window, "%", f"{kind}:<node>.<dir>@<start>-<end>%<rate>")
    return IntegrityFault(kind, *_split_link(target), *_window(span), _num(rate))


def _read_scale(kind: str, body: str) -> ScaleEvent:
    node, time = _split_at(body)
    if not time:
        raise ConfigError(f"expected {kind}:<node>@<t>")
    return ScaleEvent(kind, node, _num(time))


def _read_drift(kind: str, body: str) -> DriftFault:
    """``<kind>:<target>@<start>-<end>[~<period>]x<level>[-<level2>]``."""
    dkind, sep, rest = body.partition(":")
    dkind = dkind.strip().lower()
    if not sep or dkind not in _DRIFT_KINDS:
        raise ConfigError(
            f"expected drift:<{'|'.join(_DRIFT_KINDS)}>:<target>@..., "
            f"got drift:{body!r}"
        )
    target, window = _split_at(rest)
    if dkind == "walk":
        # A walk target is a bare worker (compute multiplier) or a
        # <node>.<direction> link (bandwidth walk).
        node, dot, direction = target.rpartition(".")
        if not dot or direction not in _DIRECTIONS:
            node, direction = target, ""
    else:
        node, direction = _split_link(target)
    span_part, levels = _cut(window, "x")
    if not levels:
        raise ConfigError("expected ...x<level>")
    span, period = _cut(span_part, "~")
    level, level2 = _cut(levels, "-")
    if dkind == "ramp" and level2 is None:
        raise ConfigError("ramp drift needs x<from>-<to>")
    if dkind == "walk" and level2 is None:
        level2 = DEFAULT_WALK_CAP
    elif dkind not in ("ramp", "walk") and level2 is not None:
        raise ConfigError(f"{dkind} drift takes a single x<level>")
    return DriftFault(
        dkind, node, direction, *_window(span),
        period=0.0 if period is None else _num(period),
        level=_num(level),
        level2=0.0 if level2 is None else _num(level2),
    )


def _write_drift(fault: DriftFault, num) -> str:
    clause = f"drift:{fault.kind}:{_target(fault)}@{_span(fault, num)}"
    if fault.kind != "ramp":
        clause += f"~{num(fault.period)}"
    clause += f"x{num(fault.level)}"
    if fault.kind in ("ramp", "walk"):
        clause += f"-{num(fault.level2)}"
    return clause


def _read_loss(kind: str, body: str, transport: TransportFault) -> TransportFault:
    probability, penalty = _cut(body, "@")
    return replace(
        transport,
        loss_probability=_num(probability),
        retransmit_penalty=_num(penalty) if penalty else transport.retransmit_penalty,
    )


def _read_delay(kind: str, body: str, transport: TransportFault) -> TransportFault:
    probability, seconds = _cut(body, "@")
    if not seconds:
        raise ConfigError("delay needs a duration, e.g. delay:0.1@0.002")
    return replace(transport, delay_probability=_num(probability), delay=_num(seconds))


@dataclass(frozen=True)
class _Family:
    """One clause family: its keywords, the :class:`FaultPlan` field its
    clauses land in, and its grammar both ways."""

    field: str
    kinds: Tuple[str, ...]
    #: (kind, body, field value) -> the field value with the clause added.
    read: Callable[[str, str, object], object]
    #: (field value, number formatter) -> canonical clauses.
    write: Callable[[object, Callable[[float], str]], List[str]]
    #: field value -> :meth:`FaultPlan.describe` parts.
    show: Callable[[object], List[str]]


def _each(field: str, kinds, read, write, show) -> _Family:
    """A family whose field is a tuple of one fault per clause."""
    return _Family(
        field,
        tuple(kinds),
        lambda kind, body, faults: faults + (read(kind, body),),
        lambda faults, num: [write(fault, num) for fault in faults],
        lambda faults: [show(fault) for fault in faults],
    )


#: Every clause family, in ``to_spec``/``describe`` order: the only
#: place that knows the set.  A new family is one row.
_FAMILIES: Tuple[_Family, ...] = (
    _each(
        "stragglers", ("straggler",), _read_straggler,
        lambda f, num: f"straggler:{f.worker}@{_span(f, num)}x{num(f.slowdown)}",
        lambda f: f"straggler {f.worker} x{f.slowdown:g} {_when(f)}",
    ),
    _each(
        "link_faults", ("slowlink", "blackout"), _read_link, _write_link,
        lambda f: f"link {_target(f)} "
        + ("blackout" if f.rate_factor == 0 else f"x{f.rate_factor:g}")
        + f" {_when(f)}",
    ),
    _each(
        "crashes", ("crash",), _read_crash,
        lambda c, num: f"crash:{c.node}@{num(c.time)}"
        + (f"+{num(c.restart_delay)}" if c.restarts else ""),
        lambda c: f"crash {c.node} @{c.time:g} "
        + (f"(restart +{c.restart_delay:g})" if c.restarts else "(permanent)"),
    ),
    _each(
        "integrity", _INTEGRITY_KINDS, _read_integrity,
        lambda f, num: f"{f.kind}:{_target(f)}@{_span(f, num)}%{num(f.rate)}",
        lambda f: f"{f.kind} {_target(f)} p={f.rate:g} {_when(f)}",
    ),
    _each(
        "scale_events", _SCALE_KINDS, _read_scale,
        lambda e, num: f"{e.kind}:{e.node}@{num(e.time)}",
        lambda e: f"{e.kind} {e.node} @{e.time:g}",
    ),
    _each(
        "drift", ("drift",), _read_drift, _write_drift,
        lambda f: f"drift {f.kind} {_target(f)} {_when(f)}",
    ),
    _Family(
        "transport", ("loss",), _read_loss,
        lambda t, num: [f"loss:{num(t.loss_probability)}@{num(t.retransmit_penalty)}"]
        if t.loss_probability or t.retransmit_penalty != TransportFault.retransmit_penalty
        else [],
        lambda t: [f"loss p={t.loss_probability:g}"] if t.loss_probability else [],
    ),
    _Family(
        "transport", ("delay",), _read_delay,
        lambda t, num: [f"delay:{num(t.delay_probability)}@{num(t.delay)}"]
        if t.delay_probability or t.delay else [],
        lambda t: [f"delay p={t.delay_probability:g} +{t.delay:g}s"]
        if t.delay_probability else [],
    ),
    _Family(
        "seed", ("seed",), lambda kind, body, seed: int(body),
        lambda seed, num: [f"seed:{seed:d}"], lambda seed: [],
    ),
)

_FAMILY_OF = {kind: family for family in _FAMILIES for kind in family.kinds}


# -- degraded-rate arithmetic ---------------------------------------------


def merge_windows(
    windows: Sequence[Tuple[float, float, float]],
) -> Tuple[Tuple[float, float, float], ...]:
    """Sort windows and check they do not overlap.

    Overlapping degradation windows on the same link would make the
    effective rate ambiguous; the plan rejects them up front.
    """
    ordered = tuple(sorted(windows))
    for (_s0, e0, _f0), (s1, _e1, _f1) in zip(ordered, ordered[1:]):
        if s1 < e0:
            raise ConfigError(
                f"overlapping fault windows on the same link: "
                f"{e0!r} > {s1!r}"
            )
    return ordered


def degraded_finish(
    start: float,
    work: float,
    windows: Sequence[Tuple[float, float, float]],
) -> float:
    """When ``work`` seconds of full-rate service finish, starting at
    ``start``, given ``(win_start, win_end, rate_factor)`` windows.

    Outside every window the link runs at full rate; inside, at
    ``rate_factor`` of it (0 = total stall).  Windows must be sorted and
    disjoint (use :func:`merge_windows`).
    """
    clock = start
    remaining = work
    for win_start, win_end, rate in windows:
        if win_end <= clock:
            continue
        if remaining <= 0:
            break
        if win_start > clock:
            healthy = win_start - clock
            if remaining <= healthy:
                return clock + remaining
            remaining -= healthy
            clock = win_start
        span = win_end - clock
        if rate <= 0.0:
            clock = win_end  # blackout: time passes, no progress
        else:
            capacity = span * rate
            if remaining <= capacity:
                return clock + remaining / rate
            remaining -= capacity
            clock = win_end
    return clock + remaining


def _drift_rng(fault: DriftFault, seed: int) -> random.Random:
    """Per-clause seeded RNG stream for drift sampling.

    Keyed on the plan seed and a CRC of the clause text with ``%g``
    numbers, as drift sampling has always keyed it (never Python
    ``hash``, which varies with PYTHONHASHSEED), so two clauses
    in one plan walk independently and the same plan + seed replays the
    same drift trajectory bit for bit.
    """
    key = zlib.crc32(_write_drift(fault, "{:g}".format).encode("ascii"))
    return random.Random((seed * _DRIFT_SEED_SALT + key) % 2**61)


def sample_drift_windows(
    fault: DriftFault, seed: int
) -> Tuple[Tuple[float, float, float], ...]:
    """Discretise one drift clause into ``(start, end, factor)`` windows.

    Link kinds yield rate factors in (0, 1]; a compute ``walk`` yields
    multipliers in [1, cap] while a link ``walk`` yields the walk's
    reciprocal (a rate factor in [1/cap, 1]).  The result is sorted,
    disjoint, and a pure function of ``(fault, seed)``; adjacent
    equal-factor steps are coalesced so the link fast path scans as few
    windows as possible.
    """
    span = fault.end - fault.start
    steps = fault.steps
    width = span / steps
    edges = [fault.start + index * width for index in range(steps)]
    edges.append(fault.end)
    out: List[Tuple[float, float, float]] = []

    def emit(index: int, factor: float) -> None:
        lo, hi = edges[index], edges[index + 1]
        if out and out[-1][2] == factor and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi, factor)
        else:
            out.append((lo, hi, factor))

    if fault.kind == "diurnal":
        for index in range(steps):
            mid = fault.start + (index + 0.5) * width
            phase = 2.0 * math.pi * (mid - fault.start) / fault.period
            depth = (1.0 - math.cos(phase)) / 2.0
            emit(index, 1.0 - (1.0 - fault.level) * depth)
    elif fault.kind == "ramp":
        for index in range(steps):
            mid = fault.start + (index + 0.5) * width
            frac = (mid - fault.start) / span
            emit(index, fault.level + (fault.level2 - fault.level) * frac)
    elif fault.kind == "walk":
        rng = _drift_rng(fault, seed)
        value = 1.0
        for index in range(steps):
            value *= math.exp(rng.gauss(0.0, fault.level))
            value = min(max(value, 1.0), fault.level2)
            emit(index, 1.0 / value if fault.direction else value)
    else:  # background
        from repro.cluster.arbiter import link_shares

        rng = _drift_rng(fault, seed)
        for index in range(steps):
            demand = fault.level * (0.5 + rng.random())
            share = link_shares([1.0, demand], 1.0, arbitrated=True)[0]
            emit(index, min(1.0, share))
    return tuple(out)


def compose_windows(
    a: Sequence[Tuple[float, float, float]],
    b: Sequence[Tuple[float, float, float]],
) -> Tuple[Tuple[float, float, float], ...]:
    """Overlay two factor profiles, multiplying where they overlap.

    Each input is a sorted, disjoint ``(start, end, factor)`` sequence
    with factor 1 implied outside its windows; the result is again
    sorted and disjoint, with factor-1 stretches dropped and adjacent
    equal-factor windows coalesced.  ``0 × f = 0``, so a static blackout
    stays a blackout whatever the drift curve does — which is what keeps
    the busy-time accounting identical on both transmit paths.
    """
    a = tuple(a)
    b = tuple(b)
    if not a:
        return b
    if not b:
        return a
    edges: List[float] = sorted(
        {t for lo, hi, _ in a for t in (lo, hi)}
        | {t for lo, hi, _ in b for t in (lo, hi)}
    )
    out: List[Tuple[float, float, float]] = []
    ia = ib = 0
    for lo, hi in zip(edges, edges[1:]):
        while ia < len(a) and a[ia][1] <= lo:
            ia += 1
        while ib < len(b) and b[ib][1] <= lo:
            ib += 1
        factor = 1.0
        if ia < len(a) and a[ia][0] <= lo:
            factor *= a[ia][2]
        if ib < len(b) and b[ib][0] <= lo:
            factor *= b[ib][2]
        if factor == 1.0:
            continue
        if out and out[-1][1] == lo and out[-1][2] == factor:
            out[-1] = (out[-1][0], hi, factor)
        else:
            out.append((lo, hi, factor))
    return tuple(out)


def blackout_time(
    start: float,
    end: float,
    windows: Sequence[Tuple[float, float, float]],
) -> float:
    """Seconds of total stall (``rate_factor`` 0) inside ``[start, end]``.

    Degraded-but-moving windows do not count: a link serialising at a
    fraction of line rate is still *busy*.  A blackout window is not —
    no bytes move — so utilisation accounting subtracts it from the
    serialisation interval (the same on both the store-and-forward and
    cut-through transmit paths).
    """
    stalled = 0.0
    for win_start, win_end, rate in windows:
        if rate > 0.0:
            continue
        if win_start >= end:
            break
        lo = win_start if win_start > start else start
        hi = win_end if win_end < end else end
        if hi > lo:
            stalled += hi - lo
    return stalled
