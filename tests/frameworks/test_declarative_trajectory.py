"""Trajectory pins for the declarative (MXNet/TensorFlow-style) engine.

Each case posts an op DAG to a fresh engine, runs it, and pins a sha256
over every op's ``(name, repr(started_at), repr(finished_at))`` in the
order the ops finished (then the unfinished ones in post order), plus
the launch/start log, and ``env._eid``, the number of sequence
numbers the kernel handed out.

The values were recorded on the engine's generator-process
implementation, before it moved to kernel callbacks.  Each op's process
ended in a completion entry that nothing listened to; the callback
engine issues every other entry at the same point but not that one.
The kernel has since lost events: an op, a gate or a release is a
:class:`~repro.sim.Completion`, which issues no entry when it completes
with no listener (the ``unheard`` fixture counts those).  So
``env._eid`` must be the pin minus the number of ops whose process
returned (``RETURNED``) minus the unheard completions.  The
fingerprints must not be re-recorded to make a change pass.

The drivers here ran on both implementations as events: a gate or a
release was an event succeeded from a deferred entry (now
:meth:`~repro.sim.Completion.complete` from one), a launch's completion
a timeout (now :meth:`~repro.sim.Completion.fire` deferred by the
delay).  Three cases pinned failing dependencies, completions and
releases; completions cannot fail, so they are gone.
"""

import hashlib
import random

import pytest

from repro.frameworks import EngineOp, MXNetEngine, OpKind, TensorFlowEngine
from repro.sim import Completion, Environment


class _Recorder:
    """Posts ops and records what the pinned material needs."""

    def __init__(self, engine_cls=MXNetEngine) -> None:
        self.env = Environment()
        self.engine = engine_cls(self.env)
        self.ops = []
        self.finished = []
        self.log = []

    def note(self, what):
        return lambda _arg=None: self.log.append((what, repr(self.env.now)))

    def post(self, op, at=None):
        """Post ``op`` now, or from a kernel entry at time ``at``."""
        self.ops.append(op)
        if at is None:
            self._post(op)
        else:
            self.env.defer(self._post, op, at)
        return op

    def _post(self, op):
        self.engine.post(op)
        op.then(self.finished.append)

    def gate(self, at=None):
        """A completion, completed from a kernel entry at time ``at``
        (now, before the run, when ``at`` is None)."""
        gate = Completion()
        if at is None:
            gate.complete(self.env)
        else:
            self.env.defer(gate.complete, self.env, at)
        return gate

    def compute(self, name, duration, deps=(), at=None):
        return self.post(EngineOp(name, OpKind.COMPUTE, deps=deps, duration=duration), at)

    def comm(self, name, delay, async_launch=False, deps=(), at=None):
        """A COMM op whose launch returns a completion that fires
        ``delay`` later (``None``: the launch returns no completion)."""
        env = self.env

        def launch():
            self.log.append((f"{name}.launch", repr(env.now)))
            if delay is None:
                return None
            completion = Completion()
            env.defer(Completion.fire, completion, delay)
            return completion

        op = EngineOp(name, OpKind.COMM, deps=deps, launch=launch, async_launch=async_launch)
        return self.post(op, at)

    def proxy(self, name, release, deps=(), at=None):
        op = EngineOp(
            name, OpKind.PROXY, deps=deps, on_start=self.note(f"{name}.start"),
            release=release,
        )
        return self.post(op, at)

    def barrier(self, name, deps, at=None):
        return self.post(EngineOp(name, OpKind.BARRIER, deps=deps), at)

    def run(self):
        self.env.run()
        return self.material()

    def material(self):
        ops = self.finished + [op for op in self.ops if op not in self.finished]
        timings = tuple(
            (op.name, repr(op.started_at), repr(op.finished_at)) for op in ops
        )
        digest = hashlib.sha256(repr((timings, tuple(self.log))).encode()).hexdigest()
        return digest, self.env._eid


# -- hand-built cases ---------------------------------------------------------------


def _gpu_contention():
    # c0 has the lowest seq but becomes ready last; when c1 releases the
    # GPU, c0 must win over c2, which has waited since t=0.
    r = _Recorder()
    gate = r.gate(0.3125)
    r.compute("c0", 0.21, deps=[gate])
    r.compute("c1", 0.5)
    r.compute("c2", 0.1)
    r.compute("c3", 0.0)
    r.compute("c4", 0.07, at=0.3125)
    return r.run()


def _finished_deps():
    # Ops posted after their dependencies finished, some with every dep
    # already processed and some mixing finished and pending deps.
    r = _Recorder()
    a = r.compute("a", 0.1)
    b = r.comm("b", 0.05, deps=[a])
    r.compute("c", 0.2, deps=[a, b], at=0.4)
    d = r.compute("d", 0.3, at=0.4)
    r.barrier("e", deps=[a, d], at=0.4)
    r.proxy("f", None, deps=[b], at=0.9)
    return r.run()


def _zero_duration():
    r = _Recorder()
    previous = []
    for index in range(4):
        previous = [r.compute(f"z{index}", 0.0, deps=previous)]
    r.compute("tail", 0.0, deps=previous, at=0.0)
    r.compute("late", 0.0, at=0.25)
    return r.run()


def _comm_kinds():
    r = _Recorder()
    a = r.compute("a", 0.13)
    r.comm("blocking", 0.27, deps=[a])
    r.comm("async", 0.27, async_launch=True, deps=[a])
    r.comm("none", None, deps=[a])
    r.comm("blocking-zero", 0.0, deps=[a])
    r.compute("b", 0.11, deps=[a])
    return r.run()


def _processed_completion():
    # A launch may hand back a completion that has already fired.
    r = _Recorder()
    fired = r.gate()
    a = r.compute("a", 0.15)
    comm = r.post(EngineOp("comm", OpKind.COMM, deps=[a], launch=lambda: fired))
    r.compute("after", 0.05, deps=[comm])
    return r.run()


def _proxies():
    r = _Recorder()
    fired = r.gate()
    pending = r.gate(0.6180339887)
    a = r.compute("a", 0.1)
    r.proxy("pending", pending, deps=[a])
    r.proxy("fired", fired, deps=[a], at=0.05)
    r.proxy("no-release", None, deps=[a])
    r.compute("after", 0.2, deps=[r.ops[1]])
    return r.run()


def _barrier():
    r = _Recorder(TensorFlowEngine)
    ops = [r.compute(f"c{i}", 0.1 * (i + 1) / 3) for i in range(3)]
    gate = r.gate(0.05)
    barrier = r.barrier("barrier", deps=ops + [gate])
    r.barrier("empty", deps=[])
    r.compute("next", 0.01, deps=[barrier])
    return r.run()


def _compute_scale():
    r = _Recorder()
    r.engine.compute_scale = lambda now, duration: duration * (1.37 if now < 0.3 else 0.71)
    previous = []
    for index in range(5):
        previous = [r.compute(f"c{index}", 0.123, deps=previous)]
    return r.run()


def _halt_while_waiting():
    r = _Recorder()
    running = r.compute("running", 0.4)
    r.compute("waiting0", 0.2)
    r.compute("waiting1", 0.2)
    r.compute("after-deps", 0.1, deps=[running])
    r.comm("comm", 0.1, deps=[running])
    r.compute("late", 0.1, at=0.5)
    r.env.defer(lambda _arg: r.engine.halt(), None, 0.1)
    return r.run()


# -- seeded random DAGs ---------------------------------------------------------------


def _random_dag(seed):
    rng = random.Random(seed)
    r = _Recorder(rng.choice([MXNetEngine, TensorFlowEngine]))
    env = r.env
    if rng.random() < 0.5:
        cut = rng.uniform(0.1, 1.0)
        r.engine.compute_scale = lambda now, d: d * (1.3 if now < cut else 0.9)
    if rng.random() < 0.3:
        env.defer(lambda _arg: r.engine.halt(), None, rng.uniform(0.2, 1.5))
    at = 0.0
    for index in range(rng.randint(12, 30)):
        if rng.random() < 0.3:
            at += rng.choice([0.0, rng.uniform(0.0, 0.4)])
        post_at = None if at == 0.0 else at
        deps = rng.sample(r.ops, min(len(r.ops), rng.choice([0, 1, 1, 2, 3])))
        if rng.random() < 0.15:
            deps.append(r.gate(rng.uniform(0.0, 1.0)))
        name = f"op{index}"
        kind = rng.choice(["compute"] * 4 + ["comm", "proxy", "barrier"])
        if kind == "compute":
            duration = rng.choice([0.0, rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)])
            r.compute(name, duration, deps=deps, at=post_at)
        elif kind == "comm":
            delay = rng.choice([None, rng.uniform(0.0, 0.5)])
            r.comm(name, delay, async_launch=rng.random() < 0.3, deps=deps, at=post_at)
        elif kind == "proxy":
            if rng.random() < 0.3:
                release = r.gate()
            else:
                release = r.gate(rng.uniform(0.0, 1.5))
            r.proxy(name, rng.choice([release, release, None]), deps=deps, at=post_at)
        else:
            r.barrier(name, deps=deps, at=post_at)
    return r.run()


CASES = {
    "gpu-contention": _gpu_contention,
    "finished-deps": _finished_deps,
    "zero-duration": _zero_duration,
    "comm-kinds": _comm_kinds,
    "processed-completion": _processed_completion,
    "proxies": _proxies,
    "barrier": _barrier,
    "compute-scale": _compute_scale,
    "halt-while-waiting": _halt_while_waiting,
}
for _seed in range(12):
    CASES[f"random-{_seed}"] = lambda seed=_seed: _random_dag(seed)

#: ``case -> (fingerprint, env._eid, ops whose process returned)``, all
#: three recorded on the generator-process engine.
PINNED = {
    "gpu-contention": ("1d91440580e0132466b9bcf30856ec7ecfed04837fab854e84aa0b315b62149c", 28, 5),
    "finished-deps": ("bd0be92a2ebe46fa48317dd94c706842e914fc0d62d145cacb2235e9d9602496", 33, 6),
    "zero-duration": ("7acc1c1044e67434c20e64585cdca490a91f1050ddc0837b7677b87dfb51cbba", 30, 6),
    "comm-kinds": ("c17ba91df2f9a3171bb2996614b1a23717ca211cafafb8a7e7e0fabf7eb1d50f", 30, 6),
    "processed-completion": ("dec83b6d600d92f4f89c7829804ced67da48b3f2ef6d9ecdeebfe199b4e888d8", 16, 3),
    "proxies": ("fb455a3cb8b268b920e51f5642e2ce0bcc10f765dea45bb7b53c2380ad62b82e", 27, 5),
    "barrier": ("7a2441311c2a2910e6e5232626e8f3a5874e8fff11361a80d7e9869ce2613781", 30, 6),
    "compute-scale": ("2ba6422db0640a4c98b17a769f496cf8dbb5fb843baf1e61b2e2496b3269e900", 29, 5),
    "halt-while-waiting": ("488521bc132e61000d7e7a6755c19fb4885ba837b53899d86e36ad3da7e96c37", 21, 6),
    "random-0": ("fdaa9d9a21141b095688f9ec485b2ec8dc79c91e6454c5e2665317b1fe3af396", 112, 20),
    "random-1": ("24938dd342cf90d7bb5607642117585d6924a3800c4802bb0efd7081a89b518b", 84, 14),
    "random-2": ("9899977c81617ada9d4c9fb4b323b0a48136d177c71d82a7118188aed4fbfc31", 85, 14),
    "random-3": ("c1f4b9e5827184be7ad286828547a931e52b9d5b4f9db2ad5358b5dc2fb9edcf", 149, 27),
    "random-4": ("46887d045fe70c301bbd71a3b60e4d85fa08557fe0240ae1e0975f8083c3e54f", 90, 14),
    "random-5": ("1abb0cec284935377a7c964f7a31077e503d05db89f111ff9058fd399cbf2d54", 176, 28),
    "random-6": ("eec64ade76778e8c054135b213959a9a4237162bc0b1140fd4d782d6a2c14f59", 152, 27),
    "random-7": ("13e2c2f0c03b3e5548e99bf876f60d40aed4fcbe54bb5daa551c001d972f0044", 84, 13),
    "random-8": ("b7a9913b94e9d46308eadf255ca29f409f8b4eed6352a507afd19bf7ff96e1b7", 59, 9),
    "random-9": ("9d897c565dc231e35f6709bbd16fb88a51d36672fcfb6845a29e182c846eeef7", 60, 7),
    "random-10": ("2b89848a859880b0f50c45cfca9fb17fefa5982b51ed2eab65554d2a588111b0", 110, 17),
    "random-11": ("74f81388c36f6b573af88b9c49edbc68800cb487ca0137a1441e46c76055c030", 162, 26),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_declarative_trajectory_pinned(case, unheard):
    fingerprint, eid = CASES[case]()
    expected_fingerprint, pinned_eid, returned = PINNED[case]
    assert fingerprint == expected_fingerprint
    assert pinned_eid - eid == returned + unheard[0]
