"""Shared resources for callback-driven simulation code.

* :class:`Resource` — ``capacity`` slots, FIFO queue of requests.
* :class:`PriorityResource` — like :class:`Resource`, lower ``priority``
  values are served first (FIFO within a priority).
* :class:`Store` — unbounded-or-bounded FIFO buffer of items.
* :class:`PriorityStore` — items retrieved smallest-first.
* :class:`Container` — a continuous level with put/get of amounts.

Requests, puts and gets are events: the caller appends a callback and
continues from it once the event fires.  A granted :class:`Request`
holds its slot until :meth:`Resource.release`; releasing one that was
never granted cancels it.  A :class:`Request` is also a context
manager that releases on exit.  Typical use::

    def hold(request):
        env.defer(resource.release, request, 2.0)  # hold for 2 s

    resource.request().callbacks.append(hold)
"""

from __future__ import annotations

import heapq
from typing import Any, List

from repro.errors import SimulationError
from repro.sim.core import Environment, Event

__all__ = [
    "Resource",
    "PriorityResource",
    "Request",
    "Store",
    "PriorityStore",
    "Container",
]


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "time")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.time = resource.env.now
        resource._submit(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self._waiting: List[tuple] = []
        self._seq = 0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self, priority: float = 0.0) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return a slot.  Releasing an ungranted request cancels it."""
        if request in self.users:
            self.users.remove(request)
            self._grant()
        else:
            self._waiting = [
                entry for entry in self._waiting if entry[-1] is not request
            ]

    def _submit(self, request: Request) -> None:
        self._seq += 1
        heapq.heappush(self._waiting, (request.priority, self._seq, request))
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self.users) < self.capacity:
            _prio, _seq, request = heapq.heappop(self._waiting)
            self.users.append(request)
            request.succeed()


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is ordered by request priority.

    Lower priority values are served first; ties are FIFO.  (The base
    class already orders its heap by priority — this subclass exists to
    make intent explicit at construction sites.)
    """


class StorePut(Event):
    """Pending insertion of ``item`` into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._submit_put(self)


class StoreGet(Event):
    """Pending retrieval of an item from a :class:`Store`."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._submit_get(self)


class Store:
    """A FIFO buffer of items with optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._putters: List[StorePut] = []
        self._getters: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; fires when there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Retrieve the next item; fires when one is available."""
        return StoreGet(self)

    def _submit_put(self, event: StorePut) -> None:
        self._putters.append(event)
        self._settle()

    def _submit_get(self, event: StoreGet) -> None:
        self._getters.append(event)
        self._settle()

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._insert(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self._extract())
            return True
        return False

    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def _extract(self) -> Any:
        return self.items.pop(0)

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and self._do_put(self._putters[0]):
                self._putters.pop(0)
                progressed = True
            if self._getters and self._do_get(self._getters[0]):
                self._getters.pop(0)
                progressed = True


class PriorityStore(Store):
    """A :class:`Store` that always yields its smallest item first.

    Items must be mutually orderable; the common pattern is tuples of
    ``(priority, sequence, payload)``.
    """

    def _insert(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def _extract(self) -> Any:
        return heapq.heappop(self.items)


class ContainerEvent(Event):
    """Pending put or get of an ``amount`` on a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount < 0:
            raise SimulationError(f"amount must be >= 0, got {amount}")
        super().__init__(container.env)
        self.amount = amount


class Container:
    """A continuous quantity (e.g. credit bytes) with blocking put/get."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if not 0 <= init <= capacity:
            raise SimulationError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._putters: List[ContainerEvent] = []
        self._getters: List[ContainerEvent] = []

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> ContainerEvent:
        """Add ``amount``; fires once it fits under ``capacity``."""
        event = ContainerEvent(self, amount)
        if amount > self.capacity:
            raise SimulationError(
                f"put of {amount} can never fit capacity {self.capacity}"
            )
        self._putters.append(event)
        self._settle()
        return event

    def get(self, amount: float) -> ContainerEvent:
        """Remove ``amount``; fires once that much is available."""
        event = ContainerEvent(self, amount)
        self._getters.append(event)
        self._settle()
        return event

    def cancel(self, event: ContainerEvent) -> None:
        """Withdraw a pending put/get that has not fired yet."""
        if event.triggered:
            raise SimulationError("cannot cancel a triggered container event")
        if event in self._putters:
            self._putters.remove(event)
        if event in self._getters:
            self._getters.remove(event)

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                head = self._putters[0]
                if self._level + head.amount <= self.capacity:
                    self._level += head.amount
                    self._putters.pop(0)
                    head.succeed()
                    progressed = True
            if self._getters:
                head = self._getters[0]
                if head.amount <= self._level:
                    self._level -= head.amount
                    self._getters.pop(0)
                    head.succeed()
                    progressed = True
