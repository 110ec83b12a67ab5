"""A lightweight metrics registry for scheduler-internal signals.

The paper's analysis (Figure 2's gantt, §4.3's profiled samples/sec,
§6's utilisation claims) needs more than a final speed number: it needs
*time series* of what the scheduler and the network were doing.  This
module provides the four instrument kinds those signals reduce to:

* :class:`Counter` — monotonically increasing totals (retries, escape
  starts);
* :class:`Gauge` — last-write-wins point samples (queue depth now);
* :class:`Histogram` — value distributions over log-spaced buckets
  (per-transfer latency);
* :class:`TimeWeighted` — a value integrated over *simulated* time, so
  "mean credit occupancy over iteration 7" is exact rather than a
  sampling artifact.

Instruments are created through a :class:`MetricsRegistry`, which also
collects per-iteration sample rows appended by the training runner and
serialises everything to a plain JSON-compatible dict.  Components hold
``None`` instead of a registry when metrics are off, so the disabled
hot path stays at a single attribute check.  With metrics on, every
update is one Python call that allocates nothing: time-weighted
updates take the simulated time from their caller instead of calling
a clock, and histograms bucket with C :func:`bisect.bisect_left`.

Every update rejects NaN with :class:`~repro.errors.ConfigError` — a
NaN would silently poison a total, a mean or a bucket.  ±inf is a
legal value.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeWeighted",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
]

#: Log-spaced latency buckets (seconds): 10 µs .. ~168 s, doubling.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = tuple(
    10e-6 * 2**exponent for exponent in range(24)
)


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:  # also rejects NaN
            raise ConfigError(f"counter {self.name} cannot add {amount!r}")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A last-write-wins point-in-time value."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        if value != value:
            raise ConfigError(f"gauge {self.name} cannot be set to NaN")
        self.value = float(value)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """A distribution over fixed, sorted bucket upper bounds.

    ``observe`` is O(log buckets); the bucket list is cumulative-free
    (each slot counts values ≤ its bound and > the previous bound, with
    one overflow slot at the end).  NaN has no bucket, so neither a
    bound nor an observation may be NaN.
    """

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS) -> None:
        # ``not b > a`` also holds when either bound is NaN; a lone
        # bound has no pair, so it is checked on its own.
        if (
            not bounds
            or math.isnan(bounds[0])
            or any(not b > a for a, b in zip(bounds, bounds[1:]))
        ):
            raise ConfigError(f"histogram {name} needs strictly increasing bounds")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(bound) for bound in bounds)
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if value != value:
            raise ConfigError(f"histogram {self.name} cannot observe NaN")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # The first bound >= value; past the last bound, the overflow slot.
        self.buckets[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (upper bound of the bucket that
        crosses it); 0 for an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, hits in enumerate(self.buckets):
            running += hits
            if running >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class TimeWeighted:
    """A value integrated over simulated time.

    ``set`` accumulates ``value × dt`` since the previous change, so
    :meth:`mean` over any window is exact regardless of how bursty the
    updates were — the right semantics for credit occupancy and queue
    depth, which change thousands of times per iteration.

    Updates are on the hot path, so ``set`` takes ``now`` from its
    caller (the kernel clock it already holds); reads run once per
    iteration or report and use the registry clock.
    """

    kind = "time_weighted"

    def __init__(self, name: str, clock: Callable[[], float]) -> None:
        self.name = name
        self._clock = clock
        self.value = 0.0
        self._integral = 0.0
        self._since = clock()
        self._start = self._since
        self.peak = 0.0

    def set(self, value: float, now: float) -> None:
        """Change the value at simulated time ``now``."""
        if value != value:
            raise ConfigError(f"time-weighted {self.name} cannot be set to NaN")
        self._integral += self.value * (now - self._since)
        self._since = now
        self.value = float(value)
        if value > self.peak:
            self.peak = float(value)

    @property
    def integral(self) -> float:
        """∫ value dt from creation to now."""
        return self._integral + self.value * (self._clock() - self._since)

    def mark(self) -> Tuple[float, float]:
        """Snapshot ``(integral, now)`` for windowed means."""
        return self.integral, self._clock()

    def mean_since(self, mark: Tuple[float, float]) -> float:
        """Time-weighted mean between ``mark`` (from :meth:`mark`) and now."""
        integral, then = mark
        now = self._clock()
        if now <= then:
            return self.value
        return (self.integral - integral) / (now - then)

    def mean(self) -> float:
        """Time-weighted mean from creation to now."""
        now = self._clock()
        if now <= self._start:
            return self.value
        return self.integral / (now - self._start)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "value": self.value,
            "mean": self.mean(),
            "peak": self.peak,
        }


class MetricsRegistry:
    """Creates and owns instruments; serialises them plus the runner's
    per-iteration sample rows.

    ``clock`` is the simulated-time source (``env.now``); time-weighted
    instruments require it.  Re-requesting a name returns the existing
    instrument, so backends and cores can share counters.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock
        self._instruments: Dict[str, Any] = {}
        #: Per-iteration sample rows appended by the training runner.
        self.iterations: List[Dict[str, float]] = []

    @property
    def clock(self) -> Callable[[], float]:
        if self._clock is None:
            raise ConfigError("this registry was created without a clock")
        return self._clock

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Late-bind the simulated clock (the job owns the Environment)."""
        self._clock = clock

    def _get(self, name: str, factory: Callable[[], Any], kind: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ConfigError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(name, bounds), Histogram)

    def time_weighted(self, name: str) -> TimeWeighted:
        return self._get(name, lambda: TimeWeighted(name, self.clock), TimeWeighted)

    def record_iteration(self, sample: Dict[str, float]) -> None:
        """Append one per-iteration sample row (runner hook)."""
        self.iterations.append(dict(sample))

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __getitem__(self, name: str) -> Any:
        return self._instruments[name]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "instruments": {
                name: instrument.to_dict()
                for name, instrument in sorted(self._instruments.items())
            },
            "iterations": list(self.iterations),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._instruments)} instruments, "
            f"{len(self.iterations)} iteration samples>"
        )
