"""Unit tests for the metrics instruments and registry."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeWeighted,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_counter_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == pytest.approx(3.5)
    with pytest.raises(ConfigError):
        counter.inc(-1.0)


def test_gauge_last_write_wins():
    gauge = Gauge("g")
    gauge.set(4.0)
    gauge.set(1.5)
    assert gauge.value == 1.5


def test_histogram_buckets_and_quantiles():
    histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.7, 3.0, 100.0):
        histogram.observe(value)
    assert histogram.count == 5
    assert histogram.buckets == [1, 2, 1, 1]  # ≤1, ≤2, ≤4, overflow
    assert histogram.mean == pytest.approx((0.5 + 1.5 + 1.7 + 3.0 + 100.0) / 5)
    assert histogram.quantile(0.5) == 2.0  # bucket upper bound
    assert histogram.quantile(1.0) == 100.0  # overflow → observed max
    assert histogram.min == 0.5
    assert histogram.max == 100.0


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ConfigError):
        Histogram("h", bounds=(2.0, 1.0))
    with pytest.raises(ConfigError):
        Histogram("h", bounds=())


def test_empty_histogram_serialises():
    data = Histogram("h").to_dict()
    assert data["count"] == 0
    assert data["min"] is None
    assert data["p50"] == 0.0


def test_time_weighted_integral_and_mean():
    clock = FakeClock()
    tw = TimeWeighted("tw", clock)
    tw.set(2.0, clock.now)  # value 2 over [0, 3)
    clock.now = 3.0
    tw.set(4.0, clock.now)  # value 4 over [3, 5)
    clock.now = 5.0
    assert tw.integral == pytest.approx(2.0 * 3 + 4.0 * 2)
    assert tw.mean() == pytest.approx(14.0 / 5)
    assert tw.peak == 4.0


def test_time_weighted_windowed_mean():
    clock = FakeClock()
    tw = TimeWeighted("tw", clock)
    tw.set(1.0, clock.now)
    clock.now = 10.0
    mark = tw.mark()
    tw.set(3.0, clock.now)
    clock.now = 14.0
    # Window [10, 14): value 3 throughout.
    assert tw.mean_since(mark) == pytest.approx(3.0)
    # Zero-length window falls back to the current value.
    assert tw.mean_since(tw.mark()) == 3.0


def test_registry_shares_instruments_by_name():
    registry = MetricsRegistry(clock=lambda: 0.0)
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(ConfigError):
        registry.gauge("x")  # same name, different kind


def test_registry_requires_clock_for_time_weighted():
    registry = MetricsRegistry()
    with pytest.raises(ConfigError):
        registry.time_weighted("tw")
    registry.bind_clock(lambda: 1.0)
    assert registry.time_weighted("tw") is not None


def test_registry_serialises_to_json(tmp_path):
    clock = FakeClock()
    registry = MetricsRegistry(clock=clock)
    registry.counter("hits").inc(3)
    registry.record_iteration({"iteration": 0, "duration": 0.5})
    path = tmp_path / "metrics.json"
    registry.write(str(path))
    data = json.loads(path.read_text())
    assert data["instruments"]["hits"]["value"] == 3
    assert data["iterations"] == [{"iteration": 0, "duration": 0.5}]


# -- NaN is rejected; ±inf is a legal value ---------------------------------

NAN = float("nan")


def test_counter_rejects_nan():
    counter = Counter("c")
    with pytest.raises(ConfigError):
        counter.inc(NAN)
    assert counter.value == 0.0


def test_gauge_rejects_nan():
    gauge = Gauge("g")
    gauge.set(2.0)
    with pytest.raises(ConfigError):
        gauge.set(NAN)
    assert gauge.value == 2.0


def test_time_weighted_rejects_nan():
    tw = TimeWeighted("tw", lambda: 0.0)
    tw.set(2.0, 0.0)
    with pytest.raises(ConfigError):
        tw.set(NAN, 1.0)
    assert tw.value == 2.0


def test_histogram_rejects_nan_observation():
    histogram = Histogram("h", bounds=(1.0, 2.0))
    with pytest.raises(ConfigError):
        histogram.observe(NAN)
    assert histogram.count == 0
    assert histogram.buckets == [0, 0, 0]


@pytest.mark.parametrize("bounds", [(1.0, NAN, 3.0), (NAN,), (1.0, NAN), (NAN, 1.0)])
def test_histogram_rejects_nan_bounds(bounds):
    with pytest.raises(ConfigError):
        Histogram("h", bounds=bounds)


def _loop_bucket(bounds, value):
    """Reference bucketing: a hand-written binary search for the first
    bound >= value, else the overflow slot."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


_bounds = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    min_size=1,
    max_size=12,
    unique=True,
).map(sorted)


@settings(max_examples=200, deadline=None)
@given(bounds=_bounds, data=st.data())
def test_observe_buckets_like_the_loop(bounds, data):
    """Finite values, ±inf and values equal to a bound land in the same
    bucket the old loop picked."""
    value = data.draw(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=True),
            st.sampled_from(bounds),
        )
    )
    histogram = Histogram("h", bounds=bounds)
    histogram.observe(value)
    expected = [0] * (len(bounds) + 1)
    expected[_loop_bucket(histogram.bounds, value)] += 1
    assert histogram.buckets == expected
