"""Deterministic discrete-event simulation kernel.

The kernel under the reproduction: an :class:`Environment` with a
simulated clock, one-shot :class:`Event`\\ s with callbacks, and bare
callbacks scheduled with ``defer`` (relative delay) or ``defer_at``
(absolute time).  See :mod:`repro.sim.core` for the execution model.
"""

from repro.sim.core import Environment, Event, Timeout
from repro.sim.monitor import Span, Trace, utilization

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Trace",
    "Span",
    "utilization",
]
