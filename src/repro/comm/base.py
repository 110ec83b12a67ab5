"""Communication backend interface.

A backend knows how to move one *chunk* (a partition of one layer's
tensor) through the cluster and reports its two milestones by calling
back, the way the paper's plugin reports through ``notify_finish``
(§3.2).  The scheduler above decides *when* and in *what order* chunks
are handed over; the backend below is strictly FIFO, mirroring the
paper's split between the Core (ordering) and the framework's
communication stack (transmission).

A milestone that completes an activity of its own (a delivery, a
timer) runs in a kernel entry of its own; one that coincides with the
entry already running (PS with a zero-delay ack) is called in place.

Two backend families exist:

* **Per-worker** backends (PS): every worker runs its own scheduler and
  calls :meth:`CommBackend.start_chunk` for its own copy of the chunk.
* **Collective** backends (all-reduce): one master scheduler starts each
  chunk exactly once on behalf of all workers (the paper: "only the
  master Core determines the order of sending tensors ... so that all
  workers can perform the same all-reduce operation simultaneously").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

__all__ = ["ChunkSpec", "CommBackend", "RetryPolicy"]

#: A chunk milestone callback, called with the token its caller passed.
Milestone = Callable[[Any], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Per-transfer timeout with bounded exponential-backoff retry.

    A transfer that has not completed ``timeout`` seconds after being
    handed to the stack is declared lost and retransmitted; each
    subsequent attempt waits ``backoff`` times longer before giving up,
    up to ``max_retries`` retransmissions.  The first completion (of
    any copy) wins; later copies are ignored.  Exhausting the retry
    budget *aborts* the transfer: its waiter events fail with a typed
    :class:`~repro.errors.TransferAbortedError` (recorded as an
    ``abort`` span in the trace) so the caller sees the failure instead
    of hanging forever.  A crash-recovery manager may claim the abort
    instead — transfers addressed to a node it knows is down are its
    business, not an error.
    """

    timeout: float
    max_retries: int = 3
    backoff: float = 2.0

    def __post_init__(self) -> None:
        # ``not x > 0`` (``not x >= 1``) also rejects NaN.
        if not self.timeout > 0:
            raise ValueError(f"retry timeout must be > 0, got {self.timeout!r}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )
        if not self.backoff >= 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff!r}")

    def attempt_timeout(self, attempt: int) -> float:
        """Deadline for the ``attempt``-th try (0-based), in seconds."""
        return self.timeout * self.backoff**attempt


class ChunkSpec:
    """Identifies one partition of one layer's tensor in one iteration.

    ``worker`` is ``None`` for collective backends (the chunk belongs to
    everyone).  A value object: compare and hash by its fields, and
    treat it as immutable.  A slotted class rather than a frozen
    dataclass, because one is built per started partition.
    """

    __slots__ = (
        "iteration", "layer", "chunk_index", "num_chunks", "size", "worker", "key",
    )

    def __init__(
        self,
        iteration: int,
        layer: int,
        chunk_index: int,
        num_chunks: int,
        size: float,
        worker: Optional[str] = None,
    ) -> None:
        # ``not x > 0`` also rejects NaN.
        if not size > 0:
            raise ValueError(f"chunk size must be > 0, got {size!r}")
        if not 0 <= chunk_index < num_chunks:
            raise ValueError(
                f"chunk_index {chunk_index} outside [0, {num_chunks})"
            )
        self.iteration = iteration
        self.layer = layer
        self.chunk_index = chunk_index
        self.num_chunks = num_chunks
        self.size = size
        self.worker = worker
        #: Correlation key shared by all workers' copies of this chunk.
        self.key: Tuple[int, int, int] = (iteration, layer, chunk_index)

    def _fields(self) -> tuple:
        return (
            self.iteration,
            self.layer,
            self.chunk_index,
            self.num_chunks,
            self.size,
            self.worker,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ChunkSpec:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"ChunkSpec(iteration={self.iteration!r}, layer={self.layer!r}, "
            f"chunk_index={self.chunk_index!r}, num_chunks={self.num_chunks!r}, "
            f"size={self.size!r}, worker={self.worker!r})"
        )


class CommBackend(abc.ABC):
    """Executes chunk transfers over the simulated cluster."""

    #: True if one ``start_chunk`` serves all workers (all-reduce).
    is_collective: bool = False

    @property
    @abc.abstractmethod
    def workers(self) -> Tuple[str, ...]:
        """Names of the worker nodes this backend serves."""

    @abc.abstractmethod
    def start_chunk(
        self, chunk: ChunkSpec, on_sent: Milestone, on_done: Milestone, token: Any
    ) -> None:
        """Hand ``chunk`` to the FIFO communication stack.

        Calls ``on_sent(token)`` once the chunk has left the sender (PS:
        the push was delivered and acknowledged; all-reduce: the
        collective completed), when *sender credit* returns (§4.2), and
        ``on_done(token)`` once the synchronised data is available at
        the caller (PS: its pull was delivered), which ``notify_finish``
        reports.  Each at most once, never inside this call.  Chunks
        handed over are *not preemptible* — that is the whole point.
        """

    def chunk_targets(self, chunk: ChunkSpec) -> Optional[str]:
        """The remote node ``chunk``'s delivery depends on, if any.

        The scheduler uses this to drain/park partitions bound for a
        node that died.  PS returns the chunk's server; collective
        backends return ``None`` (every rank participates — a dead rank
        is handled inside the collective instead).
        """
        return None

    def bytes_per_iteration(self, total_model_bytes: float) -> float:
        """Bytes a single worker NIC moves per direction per iteration
        (used by experiments for sanity accounting)."""
        return float(total_model_bytes)


def complete_chunk(op: tuple) -> None:
    """A chunk's completion entry, ``op = (record, chunk, on_sent,
    on_done, token)``: the backend's ledger ``record(chunk)`` first
    (skipped when None), then ``on_sent(token)``, then ``on_done(token)``."""
    record, chunk, on_sent, on_done, token = op
    if record is not None:
        record(chunk)
    on_sent(token)
    on_done(token)
