"""Entry-queue ordering across a wide range of delay magnitudes.

The kernel orders entries by ``(time, sequence)``, so deferred entries
scheduled from time zero must fire sorted by delay, with ties broken by
the order they were scheduled in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=30, deadline=None)
def test_wide_dynamic_range_preserves_order(delays):
    # Nine decades of delay magnitude in one queue; the firing log must
    # match the exact (time, scheduling order) sort, not only be sorted.
    env = Environment()
    fired = []
    for i, delay in enumerate(delays):
        env.defer(lambda i: fired.append((env.now, i)), i, delay)
    env.run()
    assert fired == sorted((delay, i) for i, delay in enumerate(delays))
    assert env.now == max(delays)
