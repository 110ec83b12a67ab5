"""Decoupled all-reduce phases (DeAR, arXiv 2302.12445).

A ring all-reduce is two half-collectives run back to back: a
*reduce-scatter* (after which every rank holds ``1/R`` of the fully
reduced tensor) and an *all-gather* (which redistributes the reduced
shards).  NCCL fuses them on one stream; DeAR's observation is that
nothing forces that — the reduce-scatter is all backward propagation
needs to retire a gradient, while the all-gather only has to finish
before the *next* iteration's forward pass consumes the layer.

:class:`DecoupledAllReduceBackend` makes each phase a first-class
schedulable operation on the same single FIFO pipe the monolithic
backend uses: each phase has its own entry point (``start_reduce_scatter``
/ ``start_all_gather``, with ``start_chunk``'s milestone callbacks),
its own completion ledger
(``rs_completed_keys`` vs ``completed_keys``), its own trace spans
(``reduce_scatter`` / ``all_gather`` categories, so ``repro trace``
shows the cross-iteration overlap), and the full fault treatment of the
monolithic path — degradation windows, seeded loss, and the
corrupt/dup/reorder integrity clauses apply to every phase op
independently.

The class *extends* :class:`~repro.comm.allreduce.RingAllReduceBackend`
rather than replacing it: ``start_chunk`` (the monolithic collective)
is untouched, so FIFO/ByteScheduler/fusion runs on this backend are
bit-identical to runs on the base class.  Only a phase-aware core
(:class:`repro.core.dear.DeARCore`) uses the new operations.
"""

from __future__ import annotations

from typing import Any, Set, Tuple

from repro.errors import ConfigError
from repro.comm.allreduce import RingAllReduceBackend
from repro.comm.base import ChunkSpec, Milestone, complete_chunk

__all__ = ["DecoupledAllReduceBackend"]


class DecoupledAllReduceBackend(RingAllReduceBackend):
    """Ring all-reduce whose two phases are independently schedulable.

    Cost model: ``reduce_scatter_time(s) + all_gather_time(s)`` equals
    ``collective_time(s)`` (each phase moves ``(R-1)/R`` of the tensor
    and pays half the synchronisation handshake), so decoupling never
    changes a tensor's total pipe time — it changes *when* the second
    half runs, which is where DeAR's overlap comes from.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Tensors whose reduce-scatter phase has completed (every rank
        #: holds its reduced shard); the all-gather may now run.
        self.rs_completed_keys: Set[Tuple[int, int, int]] = set()
        #: Per-phase launch counters (read by experiments and tests).
        self.reduce_scatters_run = 0
        self.all_gathers_run = 0

    def attach_metrics(self, registry) -> None:
        super().attach_metrics(registry)
        self._obs["reduce_scatters"] = registry.counter(
            "allreduce.reduce_scatters"
        )
        self._obs["all_gathers"] = registry.counter("allreduce.all_gathers")

    def _check_collective(self, chunk: ChunkSpec) -> None:
        if chunk.worker is not None:
            raise ConfigError(
                "all-reduce phases are collective; start them without a worker"
            )

    def _record_reduce_scattered(self, chunk: ChunkSpec) -> None:
        self.rs_completed_keys.add(chunk.key)

    def start_reduce_scatter(
        self, chunk: ChunkSpec, on_sent: Milestone, on_done: Milestone, token: Any
    ) -> None:
        """Run the reduce-scatter phase of ``chunk`` on the pipe; the
        milestones are :meth:`start_chunk`'s."""
        self._check_collective(chunk)
        if chunk.key in self.completed_keys or chunk.key in self.rs_completed_keys:
            # Replayed phase (recovered master re-driving work the ring
            # already reduced): only half the handshake runs.
            op = (None, chunk, on_sent, on_done, token)
            self.env.defer(complete_chunk, op, 0.5 * self.base_sync)
            return
        self.reduce_scatters_run += 1
        self.collectives_run += 1
        self.bytes_reduced += chunk.size
        if self._obs is not None and "reduce_scatters" in self._obs:
            self._obs["reduce_scatters"].inc()
        end = self._execute_pipe_op(
            chunk,
            self.reduce_scatter_time(chunk.size),
            "reduce_scatter",
            f"reduce_scatter:iter{chunk.iteration}.layer{chunk.layer}",
        )
        op = (self._record_reduce_scattered, chunk, on_sent, on_done, token)
        self.env.defer_at(complete_chunk, op, end)

    def start_all_gather(
        self, chunk: ChunkSpec, on_sent: Milestone, on_done: Milestone, token: Any
    ) -> None:
        """Run the all-gather phase of ``chunk`` on the pipe; the
        milestones are :meth:`start_chunk`'s.

        Protocol: the tensor's reduce-scatter must have completed first
        (an all-gather redistributes *reduced* shards; gathering
        unreduced data would synchronise garbage).
        """
        self._check_collective(chunk)
        if chunk.key in self.completed_keys:
            op = (None, chunk, on_sent, on_done, token)
            self.env.defer(complete_chunk, op, 0.5 * self.base_sync)
            return
        if chunk.key not in self.rs_completed_keys:
            raise ConfigError(
                f"all-gather before reduce-scatter for {chunk.key}; "
                "the phases of one tensor are ordered"
            )
        self.all_gathers_run += 1
        self.collectives_run += 1
        if self._obs is not None and "all_gathers" in self._obs:
            self._obs["all_gathers"].inc()
        end = self._execute_pipe_op(
            chunk,
            self.all_gather_time(chunk.size),
            "all_gather",
            f"all_gather:iter{chunk.iteration}.layer{chunk.layer}",
        )
        # Only the all-gather fully synchronises the tensor: the
        # completion ledger (and with it sync_digest and the chaos
        # oracle's on_complete hook) fires here, exactly once per key —
        # same keys as a monolithic run of the same schedule.
        op = (self._record_complete, chunk, on_sent, on_done, token)
        self.env.defer_at(complete_chunk, op, end)

    def __repr__(self) -> str:
        return (
            f"<DecoupledAllReduceBackend {self.machines}x"
            f"{self.gpus_per_machine} {self.transport.name}>"
        )
