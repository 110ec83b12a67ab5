"""``Fabric.send`` is ``Fabric.transfer`` with the callback appended.

A delivery reported through :meth:`Fabric.send` must fire at the same
simulated time, in the same same-instant order, and from a kernel
entry with the same sequence number as a callback appended to
``transfer(message).delivered``.  The property replays random traffic
through both APIs — local and remote pairs, same-instant issue times,
a degraded link and a node that is down for an interval — and requires
an identical firing log and an identical ``env._eid``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Fabric, HierarchicalFabric, Message, TopologySpec, Transport
from repro.sim import Environment

#: Canonical machines plus an alias of r0m0, so ``r0m0 -> alias`` is a
#: same-machine (loopback) transfer.
ALIAS = "tenant.r0m0"
NODES = ("r0m0", "r0m1", "r1m0", "r1m1", ALIAS)
DOWN_NODE = "r0m1"

transfers = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(NODES),
        st.sampled_from([1.0, 50.0, 400.0, 1000.0]),
        # Coarse issue times make same-instant ties common.
        st.integers(min_value=0, max_value=12).map(lambda tick: tick * 0.5),
    ),
    min_size=1,
    max_size=30,
)


def _replay(traffic, use_send, racked, slow, down):
    env = Environment()
    transport = Transport("t", overhead=0.01, efficiency=1.0)
    if racked:
        fabric = HierarchicalFabric(
            env,
            TopologySpec(racks=2, machines_per_rack=2, oversubscription=2.0),
            100.0,
            transport,
            local_bandwidth=500.0,
        )
    else:
        fabric = Fabric(
            env, NODES[:4], 100.0, transport, local_bandwidth=500.0
        )
    fabric.add_alias(ALIAS, "r0m0")
    start, length, factor = slow
    fabric.nic("r1m0").downlink.set_fault_windows([(start, start + length, factor)])
    down_start, down_length = down
    fabric.set_liveness(
        lambda node: node != DOWN_NODE
        or not down_start <= env.now < down_start + down_length
    )
    log = []

    def issue(index):
        src, dst, size, _when = traffic[index]
        message = Message(src, dst, size)
        if use_send:
            fabric.send(message, lambda _msg: log.append((env.now, index)))
        else:
            fabric.transfer(message).delivered.callbacks.append(
                lambda _evt: log.append((env.now, index))
            )

    for index, (_src, _dst, _size, when) in enumerate(traffic):
        env.defer(issue, index, when)
    env.run()
    return log, env._eid, fabric.dropped


@settings(max_examples=150, deadline=None)
@given(
    traffic=transfers,
    racked=st.booleans(),
    slow=st.tuples(
        st.sampled_from([0.0, 1.0, 2.5]),
        st.sampled_from([0.5, 2.0]),
        st.sampled_from([0.0, 0.25]),
    ),
    down=st.tuples(st.sampled_from([0.0, 1.5, 3.0]), st.sampled_from([0.5, 2.0])),
)
def test_send_fires_like_a_callback_on_transfer_delivered(traffic, racked, slow, down):
    expected = _replay(traffic, False, racked, slow, down)
    assert _replay(traffic, True, racked, slow, down) == expected
