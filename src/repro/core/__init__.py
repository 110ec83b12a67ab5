"""ByteScheduler's primary contribution: the generic tensor scheduler.

* :class:`ByteSchedulerCore` — Algorithm 1 (priority queue +
  credit-based preemption).
* :class:`CommTask` / :class:`SubCommTask` — the unified communication
  abstraction (§3.2).
* :class:`ByteSchedulerAdapter` / :class:`VanillaAdapter` — framework
  plugins: Dependency Proxies and barrier crossing (§3.3–3.4).
* :data:`SCHEDULER_KINDS` — the evaluated scheduler kinds (fifo, p3,
  bytescheduler, fusion, dear), one :class:`SchedulerKind` row each:
  every comparison point is a configuration of the one Core.
"""

from repro.core.commtask import CommTask, SubCommTask, TaskState
from repro.core.dear import DeARCore
from repro.core.fusion import FusionCore
from repro.core.kinds import SCHEDULER_KINDS, SchedulerKind
from repro.core.plugin import (
    Adapter,
    ByteSchedulerAdapter,
    ReadyCountdown,
    VanillaAdapter,
    make_adapter,
)
from repro.core.scheduler import (
    PRIORITY_FIFO,
    PRIORITY_LAYER,
    ByteSchedulerCore,
)

__all__ = [
    "ByteSchedulerCore",
    "DeARCore",
    "FusionCore",
    "CommTask",
    "SubCommTask",
    "TaskState",
    "PRIORITY_LAYER",
    "PRIORITY_FIFO",
    "Adapter",
    "VanillaAdapter",
    "ByteSchedulerAdapter",
    "ReadyCountdown",
    "make_adapter",
    "SchedulerKind",
    "SCHEDULER_KINDS",
]
