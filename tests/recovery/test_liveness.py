"""NodeLiveness: the ground-truth up/down oracle."""

import math

import pytest

from repro.errors import ConfigError
from repro.recovery import NodeLiveness
from repro.sim import Environment


def test_window_arithmetic_is_half_open():
    env = Environment()
    liveness = NodeLiveness(env)
    liveness.add_window("s0", 1.0, 2.0)
    checks = []
    for t in (0.5, 1.0, 1.5, 2.0, 3.0):
        env.defer(lambda n: checks.append((n, liveness.is_up("s0"))), t, t)
    env.run()
    assert checks == [
        (0.5, True),
        (1.0, False),   # down from the crash instant...
        (1.5, False),
        (2.0, True),    # ...up again at the restart instant
        (3.0, True),
    ]


def test_unwatched_nodes_are_always_up():
    liveness = NodeLiveness(Environment())
    assert liveness.is_up("anything")
    assert liveness.down_window("anything") is None
    assert not liveness.is_permanent("anything")


def test_permanent_crash_never_recovers():
    env = Environment()
    liveness = NodeLiveness(env)
    liveness.add_window("w0", 0.5, math.inf)
    assert liveness.is_permanent("w0")
    seen = []
    env.defer(lambda _arg: seen.append(liveness.is_up("w0")), None, 1000.0)
    env.run()
    assert seen == [False]


def test_duplicate_and_empty_windows_rejected():
    liveness = NodeLiveness(Environment())
    liveness.add_window("s0", 0.1, 0.2)
    with pytest.raises(ConfigError, match="already has a crash window"):
        liveness.add_window("s0", 0.5, 0.6)
    with pytest.raises(ConfigError, match="empty"):
        liveness.add_window("s1", 0.5, 0.5)


def test_watched_is_sorted():
    liveness = NodeLiveness(Environment())
    liveness.add_window("w3", 0.1, 0.2)
    liveness.add_window("s0", 0.3, 0.4)
    assert liveness.watched == ("s0", "w3")
