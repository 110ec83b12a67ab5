"""FailureDetector: deterministic heartbeat detection."""

import math

import pytest

from repro.errors import ConfigError
from repro.recovery import FailureDetector, NodeLiveness
from repro.sim import Environment


def _watched(crash_start, crash_end, probe_interval=0.005, miss_threshold=2):
    env = Environment()
    liveness = NodeLiveness(env)
    liveness.add_window("s0", crash_start, crash_end)
    detector = FailureDetector(
        env,
        liveness,
        probe_interval=probe_interval,
        miss_threshold=miss_threshold,
    )
    events = []
    detector.watch(
        "s0",
        on_death=lambda node, now: events.append(("dead", node, now)),
        on_recovery=lambda node, now: events.append(("up", node, now)),
    )
    return env, detector, events


def test_detection_lag_is_deterministic():
    # Crash at 0.2; probes land at 0.005 multiples.  The probes at
    # 0.200 and 0.205 both go unanswered, so with miss_threshold=2 the
    # death is declared at exactly 0.205.
    env, detector, events = _watched(0.2, 0.5)
    env.run()
    assert ("dead", "s0", pytest.approx(0.205)) in events
    assert detector.detections == 1
    assert detector.detection_lag() == pytest.approx(0.01)


def test_recovery_observed_at_first_answered_probe():
    env, detector, events = _watched(0.2, 0.3)
    env.run()
    kinds = [event[0] for event in events]
    assert kinds == ["dead", "up"]
    # Restart at 0.3: the 0.300 probe is answered (half-open window).
    assert events[1][2] == pytest.approx(0.3)
    assert detector.recoveries_observed == 1


def test_probe_chain_retires_and_simulation_terminates():
    # env.run() with no horizon only returns if the probe chain stops
    # scheduling events once the lifecycle resolves.
    env, detector, events = _watched(0.1, 0.15)
    env.run()
    assert env.now < 1.0
    finite_probes = detector.probes_sent
    assert finite_probes < 100


def test_permanent_crash_stops_probing_after_declaration():
    env, detector, events = _watched(0.1, math.inf)
    env.run()
    assert [event[0] for event in events] == ["dead"]
    assert detector.recoveries_observed == 0


def test_validation_errors():
    env = Environment()
    liveness = NodeLiveness(env)
    with pytest.raises(ConfigError, match="probe_interval"):
        FailureDetector(env, liveness, probe_interval=0.0)
    with pytest.raises(ConfigError, match="miss_threshold"):
        FailureDetector(env, liveness, miss_threshold=0)
    detector = FailureDetector(env, liveness)
    with pytest.raises(ConfigError, match="no crash window"):
        detector.watch("ghost", on_death=lambda node, now: None)


# -- open-ended watches (elastic membership) --------------------------------


def test_watch_without_crash_window_needs_open_ended():
    env = Environment()
    liveness = NodeLiveness(env)
    detector = FailureDetector(env, liveness)
    with pytest.raises(ConfigError, match="open_ended"):
        detector.watch("joiner", on_death=lambda node, now: None)


def test_open_ended_watch_probes_and_cancel_keeps_heap_finite():
    env = Environment()
    liveness = NodeLiveness(env)
    detector = FailureDetector(env, liveness, probe_interval=0.01)
    cancel = detector.watch(
        "joiner", on_death=lambda node, now: None, open_ended=True
    )
    # Without the cancel the chain would re-arm forever; cancelling
    # from inside the simulation lets env.run() drain and return.
    env.defer(lambda _arg: cancel(), None, 0.1)
    env.run()
    assert env.now < 1.0
    assert 0 < detector.probes_sent <= 12


def test_open_ended_watch_survives_lifecycle_resolution():
    # A plain watch retires after the crash window resolves; an
    # open-ended one keeps probing until cancelled.
    env = Environment()
    liveness = NodeLiveness(env)
    liveness.add_window("s0", 0.02, 0.04)
    detector = FailureDetector(
        env, liveness, probe_interval=0.01, miss_threshold=1
    )
    events = []
    cancel = detector.watch(
        "s0",
        on_death=lambda node, now: events.append(("dead", now)),
        on_recovery=lambda node, now: events.append(("up", now)),
        open_ended=True,
    )
    env.defer(lambda _arg: cancel(), None, 0.2)
    env.run()
    assert [kind for kind, _now in events] == ["dead", "up"]
    # Probes continued past the recovery (at 0.04) until the cancel.
    assert detector.probes_sent >= 15
