"""Parameter-server backend: push → (aggregate, update) → pull.

One chunk's life (synchronous training, the paper's measured mode):

1. Each worker pushes its gradient chunk to the chunk's server
   (worker uplink FIFO → server downlink FIFO).
2. When all workers' copies have arrived, the server applies the
   optimizer update (a FIFO update pipe models the server CPU).
3. The server sends the fresh parameter chunk back to every worker
   (server uplink FIFO → worker downlink FIFO).
4. The worker hears ``done`` when *that worker's* pull is delivered.

This reproduces the two PS effects the paper leans on: duplex
push/pull pipelining across chunks (§2.2 "partitioning ... improves
bandwidth utilization of bi-directional network") and server load
imbalance under whole-tensor sharding (§6.2 "PS load balancing").

In asynchronous mode, step 2's barrier disappears: a worker's pull is
answered right after its own push (the paper notes async speedups are
similar, §6.1).

The same life, in the callbacks that drive it.  Every hop is a plain
callback, and so are the caller's two milestones, ``on_sent(token)``
and ``on_done(token)`` (:meth:`~repro.comm.base.CommBackend.start_chunk`):

* :meth:`PSBackend.start_chunk` files ``(on_done, token)`` as the
  worker's waiter and hands the push to :meth:`_transfer` with
  ``_pushed`` as its delivery callback (:meth:`~repro.net.Fabric.send`).
* ``_pushed`` runs in the push's delivery entry.  It records the
  arrival (:meth:`_on_push_delivered`), then returns sender credit:
  the server's acknowledgement is an entry ``ack_delay`` later that
  issues ``env.defer(on_sent, token)``; with a zero ack delay it calls
  ``on_sent(token)`` in place, in the same entry.
* Once the barrier passes, the update pipe's completion calls
  ``_send_pulls`` (a callback on the link), which sends each pull with
  ``_on_pull_delivered`` as its delivery callback.
* ``_on_pull_delivered`` pops the worker's waiter and issues
  ``env.defer(on_done, token)``.

With metrics on, each of the three delivery callbacks (``_pushed``,
``_on_replay_delivered``, ``_on_pull_delivered``) first observes its
transfer's hand-off → first-delivery latency.  The hand-off time rides
in the closure or lambda each callback already is (a cell of
``_pushed``, a default argument of each pull's lambda), so metrics add
no per-transfer wrapper.

The rule that keeps trajectories exact: every hop takes one kernel
entry, issued at the moment the hop completes (a delivery, an ack
timer, an update completion), and runs its callbacks inside it in a
fixed order.  Merging two hops into one entry, or splitting one, moves
same-instant tie-breaks; ``tests/comm/test_ps_trajectory.py`` pins the
entry count for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError, TransferAbortedError
from repro.net import Fabric, Link, Message, Transport
from repro.sim import Environment
from repro.comm.base import ChunkSpec, CommBackend, Milestone, RetryPolicy
from repro.comm.sharding import ChunkRoundRobin, ShardingStrategy
from repro.units import GB, US

__all__ = ["PSBackend"]

#: Server-side update throughput (bytes/s): summing W gradients and an
#: SGD step is memory-bandwidth bound, far faster than the network.
DEFAULT_UPDATE_RATE = 40 * GB


def _reraise(exc: BaseException) -> None:
    """Deferred callback: surface ``exc`` from ``env.run()``."""
    raise exc


class _ChunkState:
    """Aggregation progress for one (iteration, layer, chunk).

    ``pulled`` makes the chunk *durable* across a server crash: once
    any worker holds the updated parameters, recovery can re-sync them
    back to a restarted server instead of re-aggregating from scratch.

    ``members`` is the worker roster the aggregation barrier is over:
    the iteration's participant set when the job registered one (elastic
    membership), otherwise the active set when the chunk's state forms
    (plus any later starter) — so a worker joining the cluster
    mid-flight is never waited on for chunks whose iteration predates
    its join.
    """

    __slots__ = ("spec", "arrived", "pulled", "waiters", "members", "updated")

    def __init__(self, spec: ChunkSpec, members: Set[str]) -> None:
        self.spec = spec
        self.arrived: Set[str] = set()
        self.pulled: Set[str] = set()
        self.waiters: Dict[str, Tuple[Milestone, Any]] = {}
        self.members = members
        self.updated = False


@dataclass
class _BackendInstruments:
    """Registry-backed instruments (held only when metrics are on)."""

    latency: object
    timeouts: object
    retries: object


class PSBackend(CommBackend):
    """Sharded parameter-server gradient synchronisation."""

    is_collective = False

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        workers: Tuple[str, ...],
        servers: Tuple[str, ...],
        sharding: Optional[ShardingStrategy] = None,
        layer_bytes: Optional[Tuple[int, ...]] = None,
        synchronous: bool = True,
        update_rate: float = DEFAULT_UPDATE_RATE,
        ack_delay: float = 0.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not workers:
            raise ConfigError("PSBackend needs at least one worker")
        if not servers:
            raise ConfigError("PSBackend needs at least one server")
        self.env = env
        self.fabric = fabric
        self._workers = tuple(workers)
        self.servers = tuple(servers)
        self.synchronous = synchronous
        self.ack_delay = ack_delay
        self.retry = retry
        #: Robustness counters (read by the faults experiment).
        self.timeouts = 0
        self.retries = 0
        self.aborts = 0
        #: Crash-recovery hook: called with ``(message, error)`` when a
        #: transfer exhausts its retry budget; returning True claims the
        #: abort (the recovery manager will redo the work), otherwise
        #: the error surfaces out of ``env.run()``.
        self.on_abort: Optional[Callable[[Message, TransferAbortedError], bool]] = None
        #: Workers participating in aggregation barriers (crashed ones
        #: are removed so survivors are not blocked forever).
        self._active: Set[str] = set(workers)
        #: Nodes currently down (no updates are sent into them).
        self._down: Set[str] = set()
        #: Servers that died permanently (their shard keys remap).
        self._dead_servers: Set[str] = set()
        #: Fully synchronised chunks — the final parameter state.
        self.completed_keys: Set[Tuple[int, int, int]] = set()
        self.bytes_completed = 0.0
        #: Per-(iteration, layer) completed bytes — the gradient-byte
        #: conservation ledger the chaos oracle checks against the
        #: model's layer sizes.
        self.layer_bytes_completed: Dict[Tuple[int, int], float] = {}
        #: Invariant hook: called with each chunk key exactly once, at
        #: the moment the chunk completes (None = no oracle attached).
        self.on_complete: Optional[Callable[[Tuple[int, int, int]], None]] = None
        self._since_checkpoint: Dict[str, float] = {s: 0.0 for s in self.servers}
        #: Optional metrics instruments (see :meth:`attach_metrics`).
        self._obs: Optional[_BackendInstruments] = None
        self.sharding = sharding or ChunkRoundRobin()
        if layer_bytes is not None:
            self.sharding.prepare(layer_bytes, len(self.servers))
        self._pending: Dict[Tuple[int, int, int], _ChunkState] = {}
        #: Per-iteration participant rosters (elastic membership): the
        #: job declares who takes part in each iteration at build time,
        #: so chunk barriers never wait on a worker that joined after
        #: the iteration was laid out.
        self._iteration_rosters: Dict[int, Set[str]] = {}
        #: One FIFO update pipe per server models its optimizer CPU.
        self.update_pipes: Dict[str, Link] = {
            server: Link(
                env,
                f"{server}.update",
                update_rate,
                Transport("update", overhead=10 * US, efficiency=1.0),
                trace=fabric.trace,
            )
            for server in self.servers
        }

    @property
    def workers(self) -> Tuple[str, ...]:
        return self._workers

    def prepare(self, layer_bytes: Tuple[int, ...]) -> None:
        """Late-bind the model layout for the sharding strategy."""
        self.sharding.prepare(layer_bytes, len(self.servers))

    def attach_metrics(self, registry) -> None:
        """Wire per-transfer latency and retry/timeout counters into a
        :class:`~repro.obs.MetricsRegistry`."""
        self._obs = _BackendInstruments(
            latency=registry.histogram("ps.transfer_latency"),
            timeouts=registry.counter("ps.timeouts"),
            retries=registry.counter("ps.retries"),
        )

    def server_for(self, chunk: ChunkSpec) -> str:
        """The server hosting ``chunk`` (remapped if its home is dead)."""
        index = self.sharding.server_for(chunk.layer, chunk.chunk_index)
        server = self.servers[index]
        if server in self._dead_servers:
            live = [s for s in self.servers if s not in self._dead_servers]
            server = live[index % len(live)]
        return server

    def chunk_targets(self, chunk: ChunkSpec) -> Optional[str]:
        """The remote node this chunk's completion depends on."""
        return self.server_for(chunk)

    def start_chunk(
        self, chunk: ChunkSpec, on_sent: Milestone, on_done: Milestone, token: Any
    ) -> None:
        worker = chunk.worker
        if worker not in self._workers:
            raise ConfigError(f"unknown worker {worker!r} for chunk {chunk}")
        env = self.env
        server = self.server_for(chunk)
        key = chunk.key
        # A recovered worker replaying a chunk the fleet already
        # finished: the server answers straight from its shard, no
        # barrier and no second optimizer update.
        replay = key in self.completed_keys
        if not replay:
            state = self._pending.get(key)
            if state is None:
                roster = self._iteration_rosters.get(key[0])
                state = self._pending[key] = _ChunkState(
                    chunk, set(roster if roster is not None else self._active)
                )
            if worker in state.waiters:
                raise ConfigError(f"chunk {key} started twice by {worker}")
            state.members.add(worker)
            state.waiters[worker] = (on_done, token)

        # Sender credit is held until the push is delivered AND the
        # server's acknowledgement returns (that is what ends a send in
        # ps-lite): with credit = one partition this degenerates to
        # stop-and-wait, idling the uplink for the remote half of each
        # round trip — P3's inefficiency (§6.2).  A zero-delay ack
        # returns credit inside the push's own delivery entry.
        ack_delay = self.ack_delay
        handed = env._now

        def _pushed(msg: Message) -> None:
            if self._obs is not None:
                self._obs.latency.observe(env._now - handed)
            if replay:
                pull = Message(server, worker, chunk.size, kind="pull", payload=chunk)
                waiter = [(on_done, token)]
                self._transfer(
                    pull,
                    lambda _msg, t=env._now: self._on_replay_delivered(waiter, t),
                )
            else:
                self._on_push_delivered(chunk, server)
            if ack_delay > 0:
                env.defer(self._ack, (on_sent, token), ack_delay)
            else:
                on_sent(token)

        push = Message(worker, server, chunk.size, kind="push", payload=chunk)
        self._transfer(push, _pushed)

    # -- internal ----------------------------------------------------------

    def _ack(self, milestone: Tuple[Milestone, Any]) -> None:
        """The server's acknowledgement: ``on_sent`` gets its own entry."""
        self.env.defer(*milestone)

    def _transfer(
        self, message: Message, on_delivered: Callable[[Message], None]
    ) -> None:
        """Move ``message`` through the fabric, with retry if configured,
        and call ``on_delivered(message)`` on its first delivery.

        Without a :class:`RetryPolicy` this is a plain
        :meth:`Fabric.send`.  With one, each attempt arms a timeout; an
        attempt that has not delivered by its deadline is declared
        lost, recorded as a ``timeout`` span in the trace, and
        retransmitted (a fresh copy re-enters the FIFO links, consuming
        real bandwidth) with an exponentially longer deadline.  The
        first copy to arrive wins: its delivery entry defers
        ``on_delivered`` into an entry of its own, later copies are
        ignored.

        With metrics on, ``on_delivered`` observes the latency itself,
        first thing, against the hand-off time its caller took when
        making this call: one observation per call, and a retransmit is
        measured from the original hand-off.
        """
        env = self.env
        if self.retry is None:
            self.fabric.send(message, on_delivered)
            return
        policy = self.retry
        trace = self.fabric.trace
        delivered = False

        def first(_copy: Message) -> None:
            nonlocal delivered
            if not delivered:
                delivered = True
                env.defer(on_delivered, message)

        def attempt(number: int) -> None:
            if number == 0:
                copy = message
            else:
                copy = Message(
                    message.src,
                    message.dst,
                    message.size,
                    kind=message.kind,
                    payload=message.payload,
                )
            self.fabric.send(copy, first)
            env.defer(expire, (number, env._now), policy.attempt_timeout(number))

        def expire(attempt_started: Tuple[int, float]) -> None:
            if delivered:
                return
            number, started_at = attempt_started
            self.timeouts += 1
            if self._obs is not None:
                self._obs.timeouts.inc()
            if trace is not None:
                trace.span(
                    "timeout",
                    f"{message.kind}:{message.src}->{message.dst}",
                    started_at,
                    env.now,
                    attempt=number,
                    size=message.size,
                )
            if number < policy.max_retries:
                self.retries += 1
                if self._obs is not None:
                    self._obs.retries.inc()
                if trace is not None:
                    trace.point("retry", f"{message.kind}:{message.src}->{message.dst}")
                attempt(number + 1)
            else:
                self._abort(message, number + 1, started_at)

        attempt(0)

    def _abort(self, message: Message, attempts: int, started_at: float) -> None:
        """The retry budget ran out: surface a typed abort.

        The abort is recorded as an ``abort`` span; if no recovery
        handler claims it, the :class:`TransferAbortedError` is raised
        out of ``env.run()`` via a failing event (the waiter is a lost
        cause either way — better a typed error than a silent hang).
        """
        self.aborts += 1
        if self.fabric.trace is not None:
            self.fabric.trace.span(
                "abort",
                f"{message.kind}:{message.src}->{message.dst}",
                started_at,
                self.env.now,
                attempts=attempts,
                size=message.size,
            )
        error = TransferAbortedError(
            f"{message.kind} {message.src}->{message.dst} "
            f"({message.size:.0f}B) aborted after {attempts} attempts",
            message,
        )
        claimed = self.on_abort is not None and self.on_abort(message, error)
        if not claimed:
            self.env.defer(_reraise, error)

    def _barrier_met(self, state: _ChunkState) -> bool:
        """All the chunk's *live* members' pushes have arrived.

        The barrier is over the chunk's membership snapshot intersected
        with the currently active set: crashed/left workers are excused,
        and a worker that joined after the chunk's state formed is not
        waited on (it never trained that iteration)."""
        arrived = state.arrived
        members = state.members
        active = self._active
        for worker in self._workers:
            if worker in active and worker in members and worker not in arrived:
                return False
        return True

    def _on_push_delivered(self, chunk: ChunkSpec, server: str) -> None:
        state = self._pending.get(chunk.key)
        if state is None:
            return  # forgotten during crash recovery; the worker re-pushes
        state.arrived.add(chunk.worker)
        if self.synchronous:
            if state.updated:
                # A recovered worker re-pushing after the aggregation
                # barrier already fired: the update must not run twice,
                # so the server answers this worker directly.
                self._update_and_pull(
                    chunk, server, [chunk.worker], run_update=False
                )
            else:
                self._maybe_update(state)
        else:
            # Async: answer this worker immediately; run the (cheap)
            # update once, on first arrival.
            run_update = not state.updated
            self._update_and_pull(
                chunk, server, [chunk.worker], run_update=run_update
            )

    def _maybe_update(self, state: _ChunkState) -> None:
        """Run the optimizer update once the aggregation barrier passes."""
        if state.updated or not self._barrier_met(state):
            return
        server = self.server_for(state.spec)
        if server in self._down:
            return  # the restart path re-drives this chunk
        self._update_and_pull(state.spec, server, list(state.waiters))

    def _update_and_pull(
        self,
        chunk: ChunkSpec,
        server: str,
        pullers: List[str],
        run_update: bool = True,
    ) -> None:
        state = self._pending.get(chunk.key)
        if state is not None:
            state.updated = True

        def _send_pulls(_update: Optional[Message] = None) -> None:
            if server in self._down:
                return  # the server died mid-update; recovery re-drives
            handed = self.env._now
            for worker in pullers:
                pull = Message(server, worker, chunk.size, kind="pull", payload=chunk)
                self._transfer(
                    pull,
                    lambda _msg, w=worker, t=handed: self._on_pull_delivered(
                        chunk, w, t
                    ),
                )

        if run_update:
            update = Message(server, server, chunk.size, kind="update", payload=chunk)
            self.update_pipes[server].transmit(update, callback=_send_pulls)
        else:
            _send_pulls()

    def _on_replay_delivered(
        self, waiter: List[Tuple[Milestone, Any]], handed: float
    ) -> None:
        if self._obs is not None:
            self._obs.latency.observe(self.env._now - handed)
        if waiter:  # once only: the list holds the milestone until it fires
            self.env.defer(*waiter.pop())

    def _on_pull_delivered(
        self, chunk: ChunkSpec, worker: str, handed: float
    ) -> None:
        if self._obs is not None:
            self._obs.latency.observe(self.env._now - handed)
        state = self._pending.get(chunk.key)
        if state is None:
            return
        state.pulled.add(worker)
        waiter = state.waiters.pop(worker, None)
        if waiter is not None:
            self.env.defer(*waiter)
        self._maybe_complete(state)

    def _maybe_complete(self, state: _ChunkState) -> None:
        key = state.spec.key
        if key not in self._pending:
            return
        if state.waiters or not state.updated or not self._barrier_met(state):
            return
        del self._pending[key]
        self.completed_keys.add(key)
        self.bytes_completed += state.spec.size
        bucket = (state.spec.iteration, state.spec.layer)
        self.layer_bytes_completed[bucket] = (
            self.layer_bytes_completed.get(bucket, 0.0) + state.spec.size
        )
        server = self.server_for(state.spec)
        self._since_checkpoint[server] = (
            self._since_checkpoint.get(server, 0.0) + state.spec.size
        )
        if self.on_complete is not None:
            self.on_complete(key)

    # -- crash recovery ----------------------------------------------------

    @property
    def active_workers(self) -> Tuple[str, ...]:
        """Workers currently participating in aggregation barriers."""
        return tuple(w for w in self._workers if w in self._active)

    def mark_node_down(self, node: str) -> None:
        """The node's process died; hold updates destined for it."""
        self._down.add(node)

    def mark_node_up(self, node: str) -> None:
        """The node's process is back (state re-sync happens above)."""
        self._down.discard(node)

    def mark_worker_inactive(self, worker: str) -> None:
        """Remove a crashed worker from aggregation barriers.

        Its pending waiters are forgotten (its scheduler is paused or
        halted, so nothing consumes them), and every chunk that was
        only waiting on this worker's push is re-checked — survivors
        must not block on a ghost.
        """
        self._active.discard(worker)
        for key in sorted(self._pending):
            state = self._pending.get(key)
            if state is None:
                continue
            state.waiters.pop(worker, None)
            if self.synchronous:
                self._maybe_update(state)
            self._maybe_complete(state)

    def mark_worker_active(self, worker: str) -> None:
        """Re-admit a restarted worker to aggregation barriers."""
        if worker not in self._workers:
            raise ConfigError(f"unknown worker {worker!r}")
        self._active.add(worker)

    def set_iteration_members(self, iteration: int, workers) -> None:
        """Declare the participant roster for ``iteration``.

        Called by the job at build time so chunk barriers wait on
        exactly the workers that will push — not on a worker that
        joined the cluster after this iteration was laid out.
        """
        roster = set(workers)
        unknown = roster - set(self._workers)
        if unknown:
            raise ConfigError(
                f"unknown workers in iteration {iteration} roster: "
                f"{sorted(unknown)}"
            )
        self._iteration_rosters[iteration] = roster

    def mark_server_dead(self, server: str) -> None:
        """Permanently remove ``server``: its shard remaps to survivors."""
        if server not in self.servers:
            raise ConfigError(f"unknown server {server!r}")
        self._dead_servers.add(server)
        if all(s in self._dead_servers for s in self.servers):
            raise ConfigError("every parameter server is dead; cannot remap")

    def pending_on_server(
        self, server: str
    ) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int, int]]]:
        """Split ``server``'s pending chunks into ``(lost, durable)``.

        *Lost* chunks (no pull delivered yet) existed only in the dead
        server's memory: their state is dropped and every worker
        re-pushes.  *Durable* chunks already reached at least one
        worker, so recovery re-syncs the payload back and re-issues the
        outstanding pulls instead of re-aggregating.
        """
        lost: List[Tuple[int, int, int]] = []
        durable: List[Tuple[int, int, int]] = []
        for key in sorted(self._pending):
            state = self._pending[key]
            if self.server_for(state.spec) != server:
                continue
            (durable if state.pulled else lost).append(key)
        return lost, durable

    def describe_pending(self) -> str:
        """The chunks still aggregating, for a deadlock error: how many,
        then the first three keys, each with its server and the member
        workers that have not pushed it or not pulled it yet ("" when
        none is pending)."""
        if not self._pending:
            return ""
        keys = sorted(self._pending)
        named = []
        for key in keys[:3]:
            state = self._pending[key]
            members = [w for w in self._workers if w in state.members]
            push = [w for w in members if w not in state.arrived]
            pull = [w for w in members if w not in state.pulled]
            named.append(
                f"{key} on {self.server_for(state.spec)} "
                f"(push: {', '.join(push) or '-'}; pull: {', '.join(pull) or '-'})"
            )
        return f"{len(keys)} PS chunks pending, first {len(named)}: " + ", ".join(named)

    def orphaned(self, key: Tuple[int, int, int]) -> bool:
        """True when nothing server-side knows about ``key``.

        A push in flight to a dying server whose delivery was dropped
        by liveness never formed a :class:`_ChunkState`, so the key is
        in neither the pending ledger nor the completed set — from the
        backend's view it does not exist, yet the worker's scheduler
        still carries its flight.  Such orphans must be drained by the
        scheduler or they hang forever (no retry policy fires for
        them).
        """
        return key not in self._pending and key not in self.completed_keys

    def forget_chunks(self, keys) -> float:
        """Drop server-side state for crash-lost chunks (re-pushed
        later); returns the bytes of aggregation work thrown away."""
        lost_bytes = 0.0
        for key in keys:
            state = self._pending.pop(key, None)
            if state is not None and state.arrived:
                lost_bytes += state.spec.size
        return lost_bytes

    def checkpoint(self, server: str) -> None:
        """Snapshot ``server``'s shard: recovery re-syncs only bytes
        completed after this point."""
        self._since_checkpoint[server] = 0.0
        if self.fabric.trace is not None:
            self.fabric.trace.point("checkpoint", server)

    def resync_bytes(self, server: str) -> float:
        """Bytes a restarting ``server`` must bulk-fetch from workers:
        chunks completed since its last checkpoint plus the payload of
        durable in-flight chunks."""
        _lost, durable = self.pending_on_server(server)
        pending = sum(self._pending[key].spec.size for key in durable)
        return self._since_checkpoint.get(server, 0.0) + pending

    def durable_homes(self, keys) -> Dict[str, float]:
        """Group still-pending durable ``keys`` by their *current* home
        server (after any remap); returns ``{server: bytes}`` for the
        resync accounting of a permanent-death migration."""
        homes: Dict[str, float] = {}
        for key in keys:
            state = self._pending.get(key)
            if state is None:
                continue
            home = self.server_for(state.spec)
            homes[home] = homes.get(home, 0.0) + state.spec.size
        return homes

    def reissue_pulls(self, server: str) -> int:
        """After restart + re-sync, re-send pulls for durable chunks to
        the workers still waiting; returns how many chunks were re-driven."""
        reissued = 0
        for key in sorted(self._pending):
            state = self._pending.get(key)
            if state is None or not state.pulled:
                continue
            if self.server_for(state.spec) != server:
                continue
            pullers = [w for w in self._workers if w in state.waiters]
            if pullers:
                self._update_and_pull(state.spec, server, pullers, run_update=False)
                reissued += 1
        return reissued

    def sync_digest(self) -> Tuple[Tuple[int, int, int], ...]:
        """Order-insensitive digest of the fully synchronised chunk set.

        Equal digests mean the cluster converged to the same final
        parameter state (every chunk's update applied exactly once and
        delivered everywhere it was awaited)."""
        return tuple(sorted(self.completed_keys))

    def __repr__(self) -> str:
        mode = "sync" if self.synchronous else "async"
        return (
            f"<PSBackend {len(self._workers)}w x {len(self.servers)}s {mode} "
            f"sharding={type(self.sharding).__name__}>"
        )
