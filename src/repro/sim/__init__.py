"""Deterministic discrete-event simulation kernel.

The kernel under the reproduction: an :class:`Environment` with a
simulated clock, generator-based :class:`Process`\\ es, composite
conditions, and shared resources.  See :mod:`repro.sim.core` for the
execution model.
"""

from repro.sim.core import Environment, Event, Process, Timeout
from repro.sim.events import AllOf, AnyOf, Condition
from repro.sim.monitor import Span, Trace, utilization
from repro.sim.resources import (
    Container,
    PriorityResource,
    PriorityStore,
    Request,
    Resource,
    Store,
)

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Condition",
    "Resource",
    "PriorityResource",
    "Request",
    "Store",
    "PriorityStore",
    "Container",
    "Trace",
    "Span",
    "utilization",
]
