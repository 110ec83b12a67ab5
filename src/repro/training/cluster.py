"""Cluster and scheduler specifications.

A :class:`ClusterSpec` captures one column of the paper's evaluation
matrix — framework × gradient-sync architecture × transport × scale —
and knows how to build the simulated substrate (fabric + backend) for
it.  A :class:`SchedulerSpec` captures one *line* in the figures: a
scheduler kind (:data:`repro.core.SCHEDULER_KINDS`) with its knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.comm import (
    CommBackend,
    DecoupledAllReduceBackend,
    PSBackend,
    RetryPolicy,
    make_sharding,
)
from repro.core.kinds import SCHEDULER_KINDS, SchedulerKind
from repro.errors import ConfigError
from repro.net import Fabric, Transport
from repro.sim import Environment, Trace
from repro.units import GB, MB, MS, US, gbps

__all__ = ["ClusterSpec", "SchedulerSpec", "BuiltCluster"]

#: Communication-stack models per (architecture, transport).
#:
#: Stack throughput caps are *absolute* (bytes/s): the CPU-bound RPC
#: path of ps-lite saturates a 10 Gbps wire but sustains only a small
#: fraction of 100 Gbps — the reason the paper's PS runs are
#: communication-bound even on its testbed — while NCCL sustains most
#: of the line rate.  RDMA beats TCP on overhead and goodput (§6.2).
#:
#: PS entries: (per-hop overhead, stack cap bytes/s, ack delay).  The
#: end-to-end per-partition overhead θ combines the two hops' overheads
#: plus the acknowledgement; it lands near the paper's "about 300 µs"
#: for TCP and well below it for RDMA.
_PS_STACK = {
    "tcp": (25 * US, 2.75 * GB, 75 * US),
    "rdma": (15 * US, 4.0 * GB, 40 * US),
}

#: All-reduce entries: (stack cap bytes/s, base sync, per-rank sync).
#: The sync terms are the per-collective coordination cost that makes
#: NCCL prefer partitions an order of magnitude larger than PS
#: (Table 1).
_ALLREDUCE_STACK = {
    "tcp": (7.5 * GB, 1.2 * MS, 60 * US),
    "rdma": (11.25 * GB, 0.4 * MS, 25 * US),
}

#: Fraction of the physical line rate any stack can reach (framing,
#: protocol headers, pacing).
_WIRE_EFFICIENCY = {"tcp": 0.90, "rdma": 0.95}


def _stack_efficiency(transport: str, cap: float, bandwidth: float) -> float:
    """Goodput fraction: wire-limited at low rates, cap-limited at high."""
    return min(_WIRE_EFFICIENCY[transport], cap / bandwidth)


def _validate_transport(name: str) -> None:
    if name not in ("tcp", "rdma"):
        raise ConfigError(f"unknown transport {name!r}; use 'tcp' or 'rdma'")


@dataclass(frozen=True)
class BuiltCluster:
    """The simulated substrate for one run."""

    backend: CommBackend
    workers: Tuple[str, ...]
    fabric: Optional[Fabric] = None


@dataclass(frozen=True)
class ClusterSpec:
    """One evaluation setup (e.g. "MXNet, PS, RDMA, 32 GPUs")."""

    machines: int
    gpus_per_machine: int = 8
    bandwidth_gbps: float = 100.0
    transport: str = "rdma"
    arch: str = "ps"
    framework: str = "mxnet"
    num_servers: Optional[int] = None
    #: PS tensor placement: 'layer' (naïve whole-tensor round robin,
    #: the vanilla default), 'chunk' (partition-granular, what
    #: ByteScheduler's partitioning yields), 'greedy', or None = pick
    #: automatically from the scheduler in use.
    sharding: Optional[str] = None
    synchronous: bool = True
    local_bandwidth: float = 25 * GB
    #: Relative std-dev of per-op compute time (straggler modelling);
    #: 0 keeps the simulation fully deterministic.
    compute_jitter: float = 0.0
    seed: int = 0
    #: Per-transfer timeout in seconds; None disables retry entirely.
    #: With a timeout set, transfers that miss it are retransmitted with
    #: exponential backoff (see :class:`repro.comm.RetryPolicy`).
    retry_timeout: Optional[float] = None
    retry_backoff: float = 2.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise ConfigError(f"machines must be >= 1, got {self.machines}")
        if self.gpus_per_machine < 1:
            raise ConfigError(
                f"gpus_per_machine must be >= 1, got {self.gpus_per_machine}"
            )
        # Chained comparisons against inf also reject NaN.
        if not 0 < self.bandwidth_gbps < math.inf:
            raise ConfigError(
                f"bandwidth_gbps must be finite and > 0, got {self.bandwidth_gbps}"
            )
        if not 0 < self.local_bandwidth < math.inf:
            raise ConfigError(
                f"local_bandwidth must be finite and > 0, got {self.local_bandwidth}"
            )
        if self.arch not in ("ps", "allreduce"):
            raise ConfigError(f"arch must be 'ps' or 'allreduce', got {self.arch!r}")
        if self.framework not in ("mxnet", "tensorflow", "pytorch"):
            raise ConfigError(f"unknown framework {self.framework!r}")
        if not 0 <= self.compute_jitter < math.inf:
            raise ConfigError(
                f"compute_jitter must be finite and >= 0, got {self.compute_jitter!r}"
            )
        if self.retry_timeout is not None and not 0 < self.retry_timeout < math.inf:
            raise ConfigError(
                f"retry_timeout must be finite and > 0, got {self.retry_timeout}"
            )
        if not 1.0 <= self.retry_backoff < math.inf:
            raise ConfigError(
                f"retry_backoff must be finite and >= 1, got {self.retry_backoff}"
            )
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.framework == "pytorch" and self.arch == "ps":
            # §5: "We implement PyTorch plugin for only all-reduce
            # architecture because PyTorch does not support PS."
            raise ConfigError("PyTorch supports only the all-reduce architecture")
        _validate_transport(self.transport)

    @property
    def num_gpus(self) -> int:
        """Total GPUs across worker machines."""
        return self.machines * self.gpus_per_machine

    @property
    def servers(self) -> int:
        """PS count — equal to the worker count by default (§6.1)."""
        return self.num_servers if self.num_servers is not None else self.machines

    @property
    def bandwidth(self) -> float:
        """Per-NIC line rate in bytes/second."""
        return gbps(self.bandwidth_gbps)

    @property
    def retry_policy(self) -> Optional[RetryPolicy]:
        """The transfer retry policy, or None when retry is disabled."""
        if self.retry_timeout is None:
            return None
        return RetryPolicy(
            timeout=self.retry_timeout,
            max_retries=self.max_retries,
            backoff=self.retry_backoff,
        )

    @property
    def label(self) -> str:
        """Human-readable setup name, e.g. 'mxnet-ps-rdma-32gpu'."""
        return (
            f"{self.framework}-{self.arch}-{self.transport}-{self.num_gpus}gpu"
        )

    def scaled_to(self, machines: int) -> "ClusterSpec":
        """Same setup at a different machine count."""
        return replace(self, machines=machines, num_servers=None)

    def build(
        self,
        env: Environment,
        layer_bytes: Tuple[int, ...],
        trace: Optional[Trace] = None,
        default_sharding: str = "layer",
        shared_fabric: Optional[Fabric] = None,
        placement: Optional[Sequence[str]] = None,
        tenant: str = "",
    ) -> BuiltCluster:
        """Instantiate the fabric and communication backend.

        ``default_sharding`` applies when the spec leaves ``sharding``
        as None; the training job passes 'chunk' for scheduled runs and
        'layer' for vanilla ones (§6.2, PS load balancing).

        ``shared_fabric`` reuses an existing fabric so multiple jobs
        contend for the same links — the §7 co-scheduling scenario.
        Only valid for the PS architecture: the all-reduce backend
        models its ring internally and would silently ignore the fabric
        rather than share it.

        ``placement`` maps this job's workers onto named machines of
        the shared fabric (one machine per worker; PS servers co-locate
        round-robin on the same machines, the usual PS deployment).
        Worker and server names are prefixed with ``tenant`` and
        aliased onto the machines' NICs, so jobs placed on one machine
        natively share it — no node-name agreement required.
        """
        if shared_fabric is not None and self.arch != "ps":
            raise ConfigError(
                "shared_fabric is only supported for the PS architecture: "
                f"the {self.arch!r} backend models its collective "
                "internally and cannot contend on a shared fabric"
            )
        if placement is not None and shared_fabric is None:
            raise ConfigError("placement requires a shared_fabric to place onto")
        if self.arch == "allreduce":
            cap, base_sync, per_rank = _ALLREDUCE_STACK[self.transport]
            efficiency = _stack_efficiency(self.transport, cap, self.bandwidth)
            transport = Transport(f"nccl-{self.transport}", 0.0, efficiency)
            # The phase-decoupled backend is a strict superset of the
            # monolithic one (start_chunk is inherited untouched), so
            # every scheduler gets it; only DeAR uses the extra ops.
            backend = DecoupledAllReduceBackend(
                env,
                self.machines,
                self.gpus_per_machine,
                self.bandwidth,
                transport,
                local_bandwidth=self.local_bandwidth,
                base_sync=base_sync,
                per_rank_sync=per_rank,
                trace=trace,
                retry=self.retry_policy,
            )
            return BuiltCluster(backend=backend, workers=backend.workers)

        hop_overhead, cap, ack_delay = _PS_STACK[self.transport]
        efficiency = _stack_efficiency(self.transport, cap, self.bandwidth)
        transport = Transport(self.transport, hop_overhead, efficiency)
        workers = tuple(f"{tenant}w{index}" for index in range(self.machines))
        servers = tuple(f"{tenant}s{index}" for index in range(self.servers))
        if placement is not None:
            if len(placement) != self.machines:
                raise ConfigError(
                    f"placement names {len(placement)} machines for "
                    f"{self.machines} workers"
                )
            try:
                for name, machine in zip(workers, placement):
                    shared_fabric.add_alias(name, machine)
                for index, name in enumerate(servers):
                    shared_fabric.add_alias(name, placement[index % len(placement)])
            except KeyError as error:
                raise ConfigError(
                    f"placement names a machine the fabric lacks: {error}"
                ) from error
            except ValueError as error:
                raise ConfigError(
                    f"tenant {tenant!r} collides with an existing tenant "
                    f"or node: {error}"
                ) from error
            fabric = shared_fabric
        elif shared_fabric is not None:
            missing = [
                n for n in workers + servers if not shared_fabric.has_node(n)
            ]
            if missing:
                raise ConfigError(
                    f"shared fabric lacks nodes {missing}; build the larger "
                    "job first"
                )
            fabric = shared_fabric
        else:
            fabric = Fabric(
                env,
                workers + servers,
                self.bandwidth,
                transport,
                trace=trace,
                local_bandwidth=self.local_bandwidth,
            )
        backend = PSBackend(
            env,
            fabric,
            workers,
            servers,
            sharding=make_sharding(self.sharding or default_sharding),
            layer_bytes=layer_bytes,
            synchronous=self.synchronous,
            ack_delay=ack_delay,
            retry=self.retry_policy,
        )
        return BuiltCluster(backend=backend, workers=workers, fabric=fabric)


@dataclass(frozen=True)
class SchedulerSpec:
    """One scheduling policy with its knob values.

    ``kind`` names a row of :data:`repro.core.SCHEDULER_KINDS` ('fifo',
    'p3', 'bytescheduler', 'fusion' or 'dear').  Partition / credit
    default to the row's published defaults when omitted.
    """

    kind: str = "bytescheduler"
    partition_bytes: Optional[float] = None
    credit_bytes: Optional[float] = None
    notify_delay: float = 0.0
    #: 'fusion' only: Horovod fusion-buffer size and cycle time.
    fusion_bytes: float = 64 * MB
    cycle_time: float = 0.005
    #: 'dear' only: optional fusion-aware variant — batch adjacent
    #: reduce-scatters up to this many bytes into one phase op.  None
    #: (the default) is pure DeAR: one phase op per tensor, no knobs.
    dear_fusion_bytes: Optional[float] = None
    #: §7 extension: per-layer partition sizes, as ((layer, bytes), ...)
    #: pairs overriding ``partition_bytes`` for those layers.
    partition_overrides: Optional[Tuple[Tuple[int, float], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULER_KINDS:
            raise ConfigError(
                f"scheduler kind must be {'/'.join(SCHEDULER_KINDS)}, "
                f"got {self.kind!r}"
            )
        for knob in ("dear_fusion_bytes", "partition_bytes", "credit_bytes"):
            value = getattr(self, knob)
            # ``not x > 0`` also rejects NaN; inf stays legal.
            if value is not None and not value > 0:
                raise ConfigError(f"{knob} must be > 0, got {value!r}")
        # Chained comparisons against inf also reject NaN.
        for knob in ("fusion_bytes", "cycle_time"):
            value = getattr(self, knob)
            if not 0 < value < math.inf:
                raise ConfigError(f"{knob} must be finite and > 0, got {value!r}")
        if not 0 <= self.notify_delay < math.inf:
            raise ConfigError(
                f"notify_delay must be finite and >= 0, got {self.notify_delay!r}"
            )
        if self.partition_overrides is not None:
            for layer, value in self.partition_overrides:
                if layer < 0 or not value > 0:
                    raise ConfigError(
                        f"invalid partition override ({layer}, {value})"
                    )

    @property
    def definition(self) -> SchedulerKind:
        """This policy's row of the scheduler-kind table."""
        return SCHEDULER_KINDS[self.kind]

    @property
    def scheduled(self) -> bool:
        """True for schedulers that need per-layer forward gates."""
        return SCHEDULER_KINDS[self.kind].scheduled

    def resolved_partition(
        self,
        arch: str = "ps",
        largest_tensor_bytes: Optional[float] = None,
        servers: int = 0,
    ) -> Optional[float]:
        """Partition size after applying per-policy, per-arch defaults."""
        if self.partition_bytes is not None:
            return self.partition_bytes
        return self.definition.partition(arch, largest_tensor_bytes, servers)

    def resolved_credit(self) -> float:
        """Credit size after applying per-policy defaults."""
        if self.credit_bytes is not None:
            return self.credit_bytes
        return self.definition.credit(self.resolved_partition())

    def with_knobs(self, partition_bytes: float, credit_bytes: float) -> "SchedulerSpec":
        """This policy with different (partition, credit) values."""
        return replace(
            self, partition_bytes=partition_bytes, credit_bytes=credit_bytes
        )
