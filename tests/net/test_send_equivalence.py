"""``Fabric.send`` replays the delivery log of the removed event API.

The fabric used to offer a second entry point beside :meth:`Fabric.send`:
``transfer(message)`` returned a handle whose ``delivered`` event fired
when the message arrived.  ``send`` was built to fire its callback at
the same simulated time, in the same same-instant order and from a
kernel entry with the same sequence number as a callback appended to
that event.  The pins below were recorded on the event API over fixed
seeded traffic draws — local and remote pairs, an alias that makes
``r0m0 -> alias`` a loopback transfer, flat and racked fabrics,
same-instant issue times, a degraded (sometimes stalled) downlink and a
node that is down for an interval — and ``send`` must reproduce each
draw's firing log, ``env._eid`` and drop count exactly.  They must not
be re-recorded to make a change pass.
"""

import hashlib
import random

from repro.net import Fabric, HierarchicalFabric, Message, TopologySpec, Transport
from repro.sim import Environment

#: Canonical machines plus an alias of r0m0, so ``r0m0 -> alias`` is a
#: same-machine (loopback) transfer.
ALIAS = "tenant.r0m0"
NODES = ("r0m0", "r0m1", "r1m0", "r1m1", ALIAS)
DOWN_NODE = "r0m1"
SIZES = (1.0, 50.0, 400.0, 1000.0)


def _draw(seed):
    """One traffic draw: odd seeds run on the racked fabric."""
    rng = random.Random(seed)
    traffic = [
        (
            rng.choice(NODES),
            rng.choice(NODES),
            rng.choice(SIZES),
            # Coarse issue times make same-instant ties common.
            rng.randint(0, 12) * 0.5,
        )
        for _ in range(rng.randint(1, 30))
    ]
    slow = (
        rng.choice((0.0, 1.0, 2.5)),
        rng.choice((0.5, 2.0)),
        rng.choice((0.0, 0.25)),
    )
    down = (rng.choice((0.0, 1.5, 3.0)), rng.choice((0.5, 2.0)))
    return traffic, seed % 2 == 1, slow, down


def _replay(traffic, racked, slow, down):
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
        fabric = Fabric(env, NODES[:4], 100.0, transport, local_bandwidth=500.0)
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
        fabric.send(
            Message(src, dst, size), lambda _msg: log.append((env.now, index))
        )

    for index, (_src, _dst, _size, when) in enumerate(traffic):
        env.defer(issue, index, when)
    env.run()
    digest = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
    return digest, env._eid, fabric.dropped


#: ``seed -> (sha256 prefix of the (time, index) firing log, env._eid,
#: fabric.dropped)``, recorded with ``transfer(m).delivered`` callbacks.
PINNED = {
    0: ("0f23c40a966416dc", 105, 0),
    1: ("12f456ce392109c2", 24, 0),
    2: ("0990dc94ef59e734", 102, 1),
    3: ("8e2d93bd2a2afe48", 32, 2),
    4: ("822085ed16c22cec", 26, 2),
    5: ("442904a96dbf3f6f", 84, 1),
    6: ("043dc970df1049f1", 91, 2),
    7: ("eab0cf47577cd58e", 47, 0),
    8: ("0084e552cbc8c3e8", 30, 0),
    9: ("5977eb9ec2b62fc4", 79, 0),
    10: ("71b9e2028b1dbe21", 60, 4),
    11: ("ec1774ba26f5c96b", 59, 1),
    12: ("f4f69f11bbbe88e7", 60, 0),
    13: ("52a066321944440f", 43, 0),
    14: ("c1f151d5a45afd64", 13, 0),
    15: ("23ff05f6e26b5f71", 28, 1),
    16: ("0a07f554c6e0681d", 45, 0),
    17: ("a7064d72ff6c670f", 70, 1),
    18: ("89a54765f415e82f", 18, 2),
    19: ("97b5f7f3668abca1", 89, 2),
    20: ("b32cb969464684fd", 97, 4),
    21: ("81f8bfd7fd9361a7", 23, 1),
    22: ("8a8977863c0b8d6f", 109, 1),
    23: ("b9a5fb5e9a3645f3", 135, 1),
    24: ("a02a88f26b510bba", 80, 2),
    25: ("3989787d352c8ba4", 59, 0),
    26: ("e91c510ca999a82c", 83, 0),
    27: ("cf3b55613f1f8ad0", 89, 2),
    28: ("2895c93c29fb0e44", 15, 0),
    29: ("c08be0f0d32d5d2c", 77, 3),
    30: ("c40116ccf8bc9db4", 69, 0),
    31: ("b1b6b3a67686302d", 6, 0),
    32: ("9369195215a5b8d8", 10, 0),
    33: ("6b27bdb24fedbf7d", 83, 0),
    34: ("1c6ab9320715df49", 64, 0),
    35: ("8481820cc2eb17e5", 85, 0),
    36: ("c4ffd10522e3bd7e", 36, 1),
    37: ("2da8610faae5fb5d", 106, 0),
    38: ("eae63f6344a6c826", 71, 2),
    39: ("a20cd563aa4f6d54", 37, 0),
    40: ("a7ee4e7d06cbc6f9", 55, 0),
    41: ("5a3095834e24fba9", 53, 2),
    42: ("2526e7384d3b44ea", 78, 0),
    43: ("e3130fabff575af5", 12, 0),
    44: ("70e9edbc2ecfa4f2", 52, 0),
    45: ("144d6d98cb7d624c", 36, 1),
    46: ("94368203d724f64e", 112, 0),
    47: ("2418475e8a004e0b", 54, 0),
    48: ("49bf2c7d5d5ab7f7", 66, 1),
    49: ("b04f20bc2734ea20", 13, 0),
    50: ("badde8df8fd0170b", 56, 0),
    51: ("6fbda9c458d417d6", 38, 0),
    52: ("8dce891ceef98c6e", 33, 0),
    53: ("a0ff026bad895c07", 96, 0),
    54: ("4bd7e10082351d95", 114, 0),
    55: ("bd9c5369746e72d6", 15, 0),
    56: ("eeacd66c7668646b", 97, 3),
    57: ("833d0ff001865ad4", 12, 0),
    58: ("8f006e196d9245e2", 68, 1),
    59: ("2b7d8e30340e3d3f", 35, 0),
    60: ("06543cb9fb6a781b", 36, 0),
    61: ("0eddcb360ce8d173", 75, 1),
    62: ("44aece6351a603d4", 109, 1),
    63: ("782b1026571be655", 73, 0),
}


def test_send_replays_the_pinned_delivery_log():
    replayed = {seed: _replay(*_draw(seed)) for seed in PINNED}
    assert replayed == PINNED
