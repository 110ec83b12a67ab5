"""Heartbeat failure detection.

Real schedulers never *see* a crash — they infer one when heartbeats
stop.  :class:`FailureDetector` models exactly that: it probes each
watched node every ``probe_interval`` seconds and declares it dead
after ``miss_threshold`` consecutive unanswered probes, so detection
lags the crash by a deterministic ``miss_threshold × probe_interval``
— the classic deadline-based detector (Chandra–Toueg style ◇P under a
synchronous network).

To keep the event heap finite the detector only probes nodes that have
a crash scheduled in the fault plan, and each probe chain retires once
its node's lifecycle resolves (permanent death declared, or restart
observed).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.sim import Environment, Trace
from repro.recovery.liveness import NodeLiveness

__all__ = ["FailureDetector"]

#: Defaults sized against the reproduction's default iteration time
#: (~125 ms for VGG-16 on 4×8): detection costs ~10 ms, a fraction of
#: one iteration, as with aggressively tuned production heartbeats.
DEFAULT_PROBE_INTERVAL = 0.005
DEFAULT_MISS_THRESHOLD = 2


class FailureDetector:
    """Deadline heartbeat detector over a :class:`NodeLiveness` oracle."""

    def __init__(
        self,
        env: Environment,
        liveness: NodeLiveness,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        miss_threshold: int = DEFAULT_MISS_THRESHOLD,
        trace: Optional[Trace] = None,
    ) -> None:
        if probe_interval <= 0:
            raise ConfigError(
                f"probe_interval must be > 0, got {probe_interval!r}"
            )
        if miss_threshold < 1:
            raise ConfigError(
                f"miss_threshold must be >= 1, got {miss_threshold!r}"
            )
        self.env = env
        self.liveness = liveness
        self.probe_interval = probe_interval
        self.miss_threshold = miss_threshold
        self.trace = trace
        self.probes_sent = 0
        self.detections = 0
        self.recoveries_observed = 0

    def detection_lag(self) -> float:
        """Worst-case crash → declared-dead latency."""
        return self.probe_interval * self.miss_threshold

    def watch(
        self,
        node: str,
        on_death: Callable[[str, float], None],
        on_recovery: Optional[Callable[[str, float], None]] = None,
        open_ended: bool = False,
    ) -> Callable[[], None]:
        """Probe ``node``; returns a callable that cancels the watch.

        ``on_death(node, now)`` fires once, when the miss threshold is
        crossed; ``on_recovery(node, now)`` fires at the first answered
        probe after a declared death (never for permanent crashes).

        By default the node must have a crash window scheduled — the
        probe chain retires itself once the lifecycle resolves, keeping
        the event heap finite.  With ``open_ended=True`` the watch also
        accepts nodes with *no* scheduled crash (an elastically joined
        node can be monitored without one) and keeps probing past any
        lifecycle resolution; the caller owns termination and MUST
        invoke the returned cancel callable, or the probe chain keeps
        the simulation alive forever.
        """
        window = self.liveness.down_window(node)
        if window is None and not open_ended:
            raise ConfigError(
                f"node {node!r} has no crash window; nothing to watch "
                "(pass open_ended=True to monitor it anyway)"
            )
        state = {"misses": 0, "dead": False, "cancelled": False}

        def cancel() -> None:
            # The in-flight probe timeout (if any) fires once more and
            # sees the flag: the chain stops re-arming — finite heap.
            state["cancelled"] = True

        def probe(_arg=None) -> None:
            if state["cancelled"]:
                return  # watch retired
            self.probes_sent += 1
            if self.liveness.is_up(node):
                if state["dead"]:
                    # First heartbeat after the restart: lifecycle done.
                    state["dead"] = False
                    state["misses"] = 0
                    self.recoveries_observed += 1
                    if self.trace is not None:
                        self.trace.point("detector.recovered", node)
                    if on_recovery is not None:
                        on_recovery(node, self.env.now)
                    if not open_ended:
                        return
                else:
                    state["misses"] = 0
                    if (
                        window is not None
                        and self.env.now >= window[1]
                        and not open_ended
                    ):
                        return  # crash already behind us; stop probing
            else:
                state["misses"] += 1
                if not state["dead"] and state["misses"] >= self.miss_threshold:
                    state["dead"] = True
                    self.detections += 1
                    if self.trace is not None:
                        self.trace.point("detector.dead", node)
                    on_death(node, self.env.now)
                    if (
                        window is not None
                        and math.isinf(window[1])
                        and not open_ended
                    ):
                        return  # permanent: no restart to wait for
            self.env.defer(probe, None, self.probe_interval)

        probe()
        return cancel
