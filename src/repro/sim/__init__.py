"""Deterministic discrete-event simulation kernel.

The kernel under the reproduction: an :class:`Environment` with a
simulated clock, on which every kernel entry is a bare callback
scheduled with ``defer`` (relative delay) or ``defer_at`` (absolute
time), and :class:`Completion`, a one-shot done flag with listeners.
See :mod:`repro.sim.core` for the execution model.
"""

from repro.sim.core import Completion, Environment
from repro.sim.monitor import Span, Trace, utilization

__all__ = [
    "Environment",
    "Completion",
    "Trace",
    "Span",
    "utilization",
]
