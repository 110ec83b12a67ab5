"""Unit tests for simulated resources (Resource/Store/Container).

Waiters are callback chains: each step appends a callback to the
request, put, get or timeout it waits on.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    Container,
    Environment,
    PriorityResource,
    PriorityStore,
    Resource,
    Store,
)


def _hold(env, resource, hold, on_start=None, on_end=None, priority=0.0):
    """Request a slot of ``resource``, keep it ``hold`` seconds, release it.

    ``on_start`` runs when the slot is granted and ``on_end`` when the
    hold is over, just before the release.
    """

    def granted(request):
        if on_start is not None:
            on_start()
        env.timeout(hold).callbacks.append(lambda _timeout: finish(request))

    def finish(request):
        if on_end is not None:
            on_end()
        resource.release(request)

    resource.request(priority).callbacks.append(granted)


def test_resource_serializes_holders():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(tag, hold):
        _hold(
            env,
            resource,
            hold,
            on_start=lambda: log.append((tag, "start", env.now)),
            on_end=lambda: log.append((tag, "end", env.now)),
        )

    user("a", 2.0)
    user("b", 1.0)
    env.run()
    assert log == [
        ("a", "start", 0.0),
        ("a", "end", 2.0),
        ("b", "start", 2.0),
        ("b", "end", 3.0),
    ]


def test_resource_capacity_two_runs_pair_concurrently():
    env = Environment()
    resource = Resource(env, capacity=2)
    ends = []

    for _ in range(3):
        _hold(env, resource, 1.0, on_end=lambda: ends.append(env.now))
    env.run()
    assert ends == [1.0, 1.0, 2.0]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_count_and_queue_length():
    env = Environment()
    resource = Resource(env, capacity=1)

    _hold(env, resource, 10.0)
    _hold(env, resource, 10.0)
    env.run(until=1.0)
    assert resource.count == 1
    assert resource.queue_length == 1


def test_release_unqueued_request_is_cancel():
    env = Environment()
    resource = Resource(env, capacity=1)

    def cancel_later(_arg):
        req = resource.request()
        # Never granted; releasing it acts as cancellation.
        env.defer(resource.release, req, 1.0)

    _hold(env, resource, 5.0)
    env.defer(cancel_later, None, 1.0)
    env.run()
    assert resource.queue_length == 0
    assert resource.count == 0


def test_priority_resource_orders_waiters():
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    order = []

    def user(delay, priority, tag):
        def arrive(_arg):
            _hold(
                env,
                resource,
                1.0,
                on_start=lambda: order.append(tag),
                priority=priority,
            )

        env.defer(arrive, None, delay)

    _hold(env, resource, 10.0)
    user(1.0, 5, "low")
    user(2.0, 1, "high")
    env.run()
    assert order == ["high", "low"]


def test_priority_resource_fifo_within_priority():
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    order = []

    def user(delay, tag):
        def granted(request):
            order.append(tag)
            resource.release(request)

        def arrive(_arg):
            resource.request(priority=3).callbacks.append(granted)

        env.defer(arrive, None, delay)

    _hold(env, resource, 10.0)
    user(1.0, "first")
    user(2.0, "second")
    env.run()
    assert order == ["first", "second"]


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def produce(items):
        if items:
            store.put(items[0]).callbacks.append(
                lambda _put: env.timeout(1.0).callbacks.append(
                    lambda _timeout: produce(items[1:])
                )
            )

    def consume(remaining):
        if remaining:
            store.get().callbacks.append(lambda get: received(get, remaining))

    def received(get, remaining):
        got.append(get.value)
        consume(remaining - 1)

    produce(("x", "y", "z"))
    consume(3)
    env.run()
    assert got == ["x", "y", "z"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    result = []

    store.get().callbacks.append(lambda get: result.append((env.now, get.value)))
    env.defer(store.put, "late", 4.0)
    env.run()
    assert result == [(4.0, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def put_second(_put):
        times.append(env.now)
        store.put(2).callbacks.append(lambda _put: times.append(env.now))

    store.put(1).callbacks.append(put_second)
    env.defer(lambda _arg: store.get(), None, 5.0)
    env.run()
    assert times == [0.0, 5.0]


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_priority_store_yields_smallest_first():
    env = Environment()
    store = PriorityStore(env)
    got = []

    def produce(items):
        if items:
            store.put(items[0]).callbacks.append(lambda _put: produce(items[1:]))

    def consume(remaining):
        if remaining:
            store.get().callbacks.append(lambda get: received(get, remaining))

    def received(get, remaining):
        got.append(get.value[1])
        consume(remaining - 1)

    produce(((3, "c"), (1, "a"), (2, "b")))
    env.defer(consume, 3, 1.0)
    env.run()
    assert got == ["a", "b", "c"]


def test_container_get_blocks_until_level():
    env = Environment()
    tank = Container(env, capacity=100.0, init=0.0)
    got_at = []

    def produce(remaining):
        if remaining:
            env.timeout(1.0).callbacks.append(
                lambda _timeout: tank.put(10.0).callbacks.append(
                    lambda _put: produce(remaining - 1)
                )
            )

    tank.get(30.0).callbacks.append(lambda _get: got_at.append(env.now))
    produce(3)
    env.run()
    assert got_at == [3.0]
    assert tank.level == 0.0


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10.0, init=10.0)
    put_at = []

    tank.put(5.0).callbacks.append(lambda _put: put_at.append(env.now))
    env.defer(tank.get, 7.0, 2.0)
    env.run()
    assert put_at == [2.0]
    assert tank.level == 8.0


def test_container_invalid_init():
    env = Environment()
    with pytest.raises(SimulationError):
        Container(env, capacity=5.0, init=6.0)


def test_container_oversized_put_rejected():
    env = Environment()
    tank = Container(env, capacity=5.0)
    with pytest.raises(SimulationError):
        tank.put(6.0)


def test_container_negative_amount_rejected():
    env = Environment()
    tank = Container(env, capacity=5.0)
    with pytest.raises(SimulationError):
        tank.get(-1.0)


def test_container_cancel_pending_get():
    env = Environment()
    tank = Container(env, capacity=10.0)
    pending = tank.get(5.0)
    tank.cancel(pending)
    tank.put(5.0)
    env.run()
    assert tank.level == 5.0
    assert not pending.triggered


def test_container_cancel_triggered_event_raises():
    env = Environment()
    tank = Container(env, capacity=10.0, init=5.0)
    granted = tank.get(5.0)
    with pytest.raises(SimulationError):
        tank.cancel(granted)
