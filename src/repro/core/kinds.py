"""The scheduler kinds, as configurations of the generic Core.

The Core separates *policy* (priority order, partition unit, credit)
from *mechanism* (queueing, credit accounting, backend dispatch), so
every comparison point is a configuration (§3): ``fifo`` (the vanilla
framework), ``p3`` (Jayarajan et al., fixed 160 KB partitions),
``bytescheduler`` (the paper's, auto-tuned knobs), ``fusion``
(Horovod-style tensor fusion) and ``dear`` (decoupled all-reduce
phases, arXiv 2302.12445, no partition knob).  :data:`SCHEDULER_KINDS`
holds one row per kind and is the only place that knows the set; a new
kind is one row plus its Core class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.core.dear import DeARCore
from repro.core.fusion import FusionCore
from repro.core.scheduler import PRIORITY_FIFO, PRIORITY_LAYER, ByteSchedulerCore
from repro.errors import ConfigError
from repro.units import KB, MB

__all__ = ["SchedulerKind", "SCHEDULER_KINDS"]

#: P3's published default partition size (§2.3).
_P3_PARTITION = 160 * KB


@dataclass(frozen=True)
class SchedulerKind:
    """One scheduler kind: how it configures and builds the Core."""

    name: str
    #: Needs per-layer forward gates (Dependency Proxies and barrier
    #: crossing); DeAR's deferred all-gather must block the *next*
    #: iteration's forward, so it is gated too.
    scheduled: bool
    #: The auto-tuner owns its (partition, credit) knobs.
    tunable: bool
    #: Runs only on a collective (all-reduce) backend.
    collective_only: bool
    #: Default partition: (arch, largest tensor bytes, servers) -> bytes,
    #: or None for whole tensors.
    partition: Callable[[str, Optional[float], int], Optional[float]]
    #: Default credit, given the default PS partition.
    credit: Callable[[float], float]
    #: One Core: (spec, env, backend, name, partition, credit) -> Core.
    build: Callable[..., ByteSchedulerCore]

    def make_cores(
        self,
        spec,
        env,
        backend,
        workers: Sequence[str],
        partition: Optional[float],
        credit: float,
    ) -> Dict[str, ByteSchedulerCore]:
        """One Core per worker on PS; one master Core shared by every
        worker on a collective backend (§5)."""
        if backend.is_collective:
            master = self.build(spec, env, backend, "master", partition, credit)
            return {worker: master for worker in workers}
        if self.collective_only:
            raise ConfigError(f"{self.name} requires the all-reduce arch")
        return {
            worker: self.build(spec, env, backend, f"core@{worker}", partition, credit)
            for worker in workers
        }


def _vanilla_partition(
    arch: str, largest_tensor_bytes: Optional[float], servers: int
) -> Optional[float]:
    """MXNet's big-array splitting on PS: one slice per server, so a
    411 MB tensor on 8 servers moves as 51 MB messages (which is why the
    baseline's duplex pipelining is so coarse).  Vanilla Horovod/NCCL
    reduces whole tensors."""
    if arch == "allreduce":
        return None
    if largest_tensor_bytes and servers:
        return max(largest_tensor_bytes / servers, float(4 * MB))
    return float(4 * MB)


def _fixed(partition: float) -> Callable[[str, Optional[float], int], float]:
    return lambda arch, largest_tensor_bytes, servers: partition


def _four_partitions(partition: float) -> float:
    return 4 * partition


def _generic(priority_mode: str) -> Callable[..., ByteSchedulerCore]:
    def build(spec, env, backend, name, partition, credit):
        return ByteSchedulerCore(
            env,
            backend,
            partition_bytes=partition,
            credit_bytes=credit,
            priority_mode=priority_mode,
            notify_delay=spec.notify_delay,
            name=name,
            partition_overrides=dict(spec.partition_overrides or ()),
        )

    return build


def _fusion(spec, env, backend, name, partition, credit) -> FusionCore:
    return FusionCore(env, backend, fusion_bytes=spec.fusion_bytes, cycle_time=spec.cycle_time)


def _dear(spec, env, backend, name, partition, credit) -> DeARCore:
    return DeARCore(env, backend, fusion_bytes=spec.dear_fusion_bytes)


SCHEDULER_KINDS: Dict[str, SchedulerKind] = {
    row.name: row
    for row in (
        # name, scheduled, tunable, collective_only, partition, credit, build
        SchedulerKind(
            "fifo", False, False, False,
            _vanilla_partition, lambda partition: math.inf, _generic(PRIORITY_FIFO),
        ),
        # P3 stop-and-waits at the scheduler, but ps-lite's ZMQ sender
        # keeps its pipe non-empty (a couple of messages buffered below
        # the scheduler), so ~three partitions are effectively in flight.
        SchedulerKind(
            "p3", True, False, False,
            _fixed(_P3_PARTITION), lambda partition: 3 * _P3_PARTITION,
            _generic(PRIORITY_LAYER),
        ),
        SchedulerKind(
            "bytescheduler", True, True, False,
            _fixed(4 * MB), _four_partitions, _generic(PRIORITY_LAYER),
        ),
        SchedulerKind("fusion", False, False, True, _fixed(4 * MB), _four_partitions, _fusion),
        SchedulerKind("dear", True, False, True, _fixed(4 * MB), _four_partitions, _dear),
    )
}
