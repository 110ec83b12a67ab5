"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly.

    Examples: running a finished environment backwards in time,
    triggering an already-triggered event, or scheduling a callback
    for a time before now.
    """


class ConfigError(ReproError):
    """An experiment, cluster, or model configuration is invalid."""


class FaultPlanError(ConfigError):
    """A ``--fault-plan`` spec failed to parse.

    Subclasses :class:`ConfigError` so existing handlers keep working,
    but carries enough structure for a clean CLI message: ``clause`` is
    the offending clause text and ``position`` its 1-based index within
    the semicolon-separated spec.
    """

    def __init__(
        self, description: str, clause: str = "", position: int = 0
    ) -> None:
        super().__init__(description)
        self.clause = clause
        self.position = position


class InvariantViolation(ReproError):
    """A chaos-oracle invariant failed during or after a faulted run.

    ``invariant`` names the check (e.g. ``credit-conservation``) and
    ``details`` carries the structured evidence the check gathered.
    """

    def __init__(
        self, invariant: str, description: str, details: object = None
    ) -> None:
        super().__init__(f"[{invariant}] {description}")
        self.invariant = invariant
        self.details = details


class SchedulerError(ReproError):
    """The communication scheduler was driven through an illegal state.

    Examples: starting a SubCommTask that was never marked ready, or
    finishing one twice.
    """


class TransferAbortedError(ReproError):
    """A transfer exhausted its retry budget without being delivered.

    Raised out of the simulation (via the failed ``delivered`` event)
    unless a recovery handler claims the abort — the crash-recovery
    manager does, for transfers addressed to a node it knows is down.
    The ``message`` attribute carries the aborted
    :class:`~repro.net.message.Message`.
    """

    def __init__(self, description: str, message: object = None) -> None:
        super().__init__(description)
        self.message = message


class TuningError(ReproError):
    """An auto-tuning search was configured or used incorrectly."""
