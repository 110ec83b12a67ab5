"""Trajectory pins for the parameter-server chunk path.

Each case runs a small seeded job (jitter 0.02, 2 + 2 iterations) and
pins two things: a sha256 over worker-0's iteration markers, the
backend's sync digest and ``repr`` of the speed (the same material as
the end-to-end benchmark's fingerprint), and ``env._eid``, the number
of sequence numbers the kernel handed out.  The ``allreduce-*`` cases
pin the collective paths (the fusion core's cycle timer, the
ByteScheduler and DeAR cores, the replay branch, a ring re-form).

The fingerprint catches any change to simulated time or same-instant
order.  The count catches a change to how many kernel entries the run
issued, which the fingerprint can miss: merging two same-instant
entries into one shifts every later sequence number, yet the
trajectory may stay the same.  The PS values were recorded on the
event-relay PS path, the collective and ``notify-delay`` values on the
path whose chunk milestones were events; none may be re-recorded to
make a change pass.

The declarative engine has since dropped one entry per op: the
completion entry of the generator process each op used to run as,
which nothing listened to.  Completions have since dropped theirs too
when nothing listens: an op, or a CommTask's ``finished``, completed
with no listener issues no entry (the ``unheard`` fixture counts
them).  So a run issues exactly the
pinned count less the ops posted to its engines and the unheard
completions.  The retry case may only issue *fewer* entries than that:
the per-attempt sender-side events it used to allocate were never read.
"""

import hashlib

import pytest

from repro.faults import FaultPlan
from repro.net import HierarchicalFabric, TopologySpec, Transport
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob, resolve_model
from repro.units import MB, gbps

MEASURE, WARMUP = 2, 2


def _material(job, speed) -> tuple:
    return (
        tuple(job.markers[job.workers[0]]),
        tuple(job.backend.sync_digest()),
        repr(speed),
    )


def _digest(material) -> str:
    return hashlib.sha256(repr(material).encode()).hexdigest()


_CLUSTER_KEYS = (
    "arch", "framework", "transport", "synchronous", "retry_timeout", "max_retries"
)


def _single(
    model="resnet50",
    machines=2,
    scheduler=None,
    ack_delay=None,
    metrics=False,
    **kwargs,
):
    cluster_kwargs = {"arch": "ps", "framework": "mxnet", "transport": "tcp"}
    cluster_kwargs.update((k, v) for k, v in kwargs.items() if k in _CLUSTER_KEYS)
    job_kwargs = {k: v for k, v in kwargs.items() if k not in _CLUSTER_KEYS}

    def run():
        job = TrainingJob(
            resolve_model(model),
            ClusterSpec(
                machines=machines,
                gpus_per_machine=1,
                compute_jitter=0.02,
                seed=0,
                **cluster_kwargs,
            ),
            scheduler
            or SchedulerSpec(
                kind="bytescheduler", partition_bytes=1 * MB, credit_bytes=4 * MB
            ),
            metrics=MetricsRegistry() if metrics else None,
            **job_kwargs,
        )
        if ack_delay is not None:
            # No ClusterSpec stack has a zero-delay acknowledgement; the
            # backend then hands the push's delivery out as credit return.
            job.backend.ack_delay = ack_delay
        result = job.run(measure=MEASURE, warmup=WARMUP)
        return job, [job], _digest(_material(job, result.speed))

    return run


def _corun():
    """Two tenants on a racked fabric, placed so that each job has
    same-machine (loopback), same-rack and cross-rack transfers."""
    env = Environment()
    topology = TopologySpec(racks=2, machines_per_rack=2)
    fabric = HierarchicalFabric(
        env, topology, gbps(25), Transport("tcp", 30e-6, 0.9)
    )
    cluster = ClusterSpec(
        machines=3, gpus_per_machine=1, transport="tcp", compute_jitter=0.02, seed=0
    )
    spec = SchedulerSpec(kind="bytescheduler", partition_bytes=1 * MB, credit_bytes=4 * MB)
    jobs = [
        TrainingJob(
            resolve_model("resnet50"),
            cluster,
            spec,
            env=env,
            shared_fabric=fabric,
            placement=placement,
            tenant=tenant,
        )
        for tenant, placement in (
            ("jobA.", ("r0m0", "r0m1", "r1m0")),
            ("jobB.", ("r0m0", "r1m0", "r1m1")),
        )
    ]
    for job in jobs:
        job.extend(MEASURE + WARMUP)
    env.run()
    for job in jobs:
        job.drain()
    material = tuple(
        _material(job, job.segment_speed(WARMUP, MEASURE + WARMUP)) for job in jobs
    )
    return jobs[0], jobs, _digest(material)


def _allreduce_replay():
    """An all-reduce master that re-drives finished collectives: its
    flights are drained mid-run and requeued once the pipe has
    completed them, so each requeued start takes the backend's replay
    branch (the key is already in ``completed_keys``)."""
    job = TrainingJob(
        resolve_model("resnet50"),
        ClusterSpec(
            machines=2,
            gpus_per_machine=1,
            arch="allreduce",
            framework="pytorch",
            transport="tcp",
            compute_jitter=0.02,
            seed=0,
        ),
        SchedulerSpec(kind="bytescheduler", partition_bytes=1 * MB, credit_bytes=4 * MB),
    )
    backend = job.backend
    replays = []
    start_chunk = backend.start_chunk

    def spy(chunk, *rest):
        if chunk.key in backend.completed_keys:
            replays.append(chunk.key)
        return start_chunk(chunk, *rest)

    backend.start_chunk = spy
    (core,) = set(job.cores.values())
    held = []
    job.env.defer(lambda _: held.extend(core.drain()), None, 0.3)
    job.env.defer(lambda _: core.requeue(held), None, 0.35)
    result = job.run(measure=MEASURE, warmup=WARMUP)
    assert held and len(replays) == len(held)
    return job, [job], _digest(_material(job, result.speed))


_ALLREDUCE = {"arch": "allreduce", "framework": "pytorch"}

CASES = {
    "tcp-bytescheduler": _single(model="vgg16"),
    "rdma-ack0": _single(model="vgg16", transport="rdma", ack_delay=0.0),
    "tcp-fifo": _single(scheduler=SchedulerSpec(kind="fifo"), machines=3),
    "async": _single(synchronous=False),
    "metrics": _single(metrics=True),
    "retry-loss": _single(
        retry_timeout=0.004,
        max_retries=8,
        fault_plan=FaultPlan.parse("loss:0.05;seed:7"),
    ),
    "integrity": _single(
        machines=3,
        integrity=True,
        fault_plan=FaultPlan.parse(
            "seed:7;corrupt:s0.down@0-1%0.05;dup:w1.up@0-1%0.05;"
            "reorder:s1.down@0-1%0.05"
        ),
    ),
    "crash-restart": _single(fault_plan=FaultPlan.parse("crash:s0@0.2+0.1")),
    # A permanent crash migrates the dead server's durable chunks: the
    # new home re-syncs them over the fabric before re-issuing pulls.
    "crash-permanent": _single(
        machines=3, fault_plan=FaultPlan.parse("crash:s1@0.24")
    ),
    # The rejoining worker's first forward gates on its state sync.
    "leave-join": _single(
        machines=3, fault_plan=FaultPlan.parse("leave:w1@0.05;join:w1@0.2")
    ),
    # Not a PS run: the fusion core's cycle timer on the all-reduce path.
    "allreduce-fusion": _single(
        arch="allreduce", framework="pytorch", scheduler=SchedulerSpec(kind="fusion")
    ),
    "corun-hierarchical": _corun,
    # Collective paths, pinned before their milestones became callbacks.
    "allreduce-bytescheduler": _single(**_ALLREDUCE),
    "allreduce-dear": _single(**_ALLREDUCE, scheduler=SchedulerSpec(kind="dear")),
    "allreduce-replay": _allreduce_replay,
    "allreduce-leave-join": _single(
        **_ALLREDUCE,
        machines=3,
        fault_plan=FaultPlan.parse("leave:m1@0.05;join:m1@0.2"),
    ),
    # Each milestone reaches the Core one notify delay late.
    "notify-delay": _single(
        scheduler=SchedulerSpec(
            kind="bytescheduler",
            partition_bytes=1 * MB,
            credit_bytes=4 * MB,
            notify_delay=0.0002,
        )
    ),
}

#: ``case -> (fingerprint, env._eid)``.
PINNED = {
    "tcp-bytescheduler": (
        "7b6184c002d63a9a168c438828cf710aaf9d592aea84b310a10152815c37385c",
        48225,
    ),
    "rdma-ack0": (
        "79e7f299542085dcfa067c6ae22ac4d2c81308f38eaca8b16c329c9200d286bb",
        39575,
    ),
    "tcp-fifo": (
        "926a419d7477d0a6ba19d675f7d9e5d3f1ea1d4a2b6dc54e309bc978e5b0ec9e",
        6950,
    ),
    "async": (
        "e55970e84db4bbefcdec4e31c318563329c6a276a9f3c46b94882133bbb4819b",
        12445,
    ),
    "metrics": (
        "ecffa68768e9b76bce7d37bd0165d8b520fdb89269bf33fee149a193d7e449a3",
        12451,
    ),
    "retry-loss": (
        "8eee83dd806b507931fae352819a60b7fbad40324aa553e11031f6d62f652dd9",
        21204,
    ),
    "integrity": (
        "71e3d37b95e13511a91a5cb5220c3d579d2ab23a44728af07aad719efc22f500",
        18550,
    ),
    "crash-restart": (
        "3eacae9267220d97f195ceb7114eb6e601c73ce025fbe144a6c561e1ab52b567",
        12526,
    ),
    "crash-permanent": (
        "a056e346f3c1c5a5dd35a39d44d556c0656cd2bf7f7a194366d7add7e40e96e2",
        18599,
    ),
    "leave-join": (
        "d5d9dbf209993de858645162eda1b62759b954b1ae7eac05bb30e9cf805f7d0e",
        15490,
    ),
    "allreduce-fusion": (
        "d186331508799785e42b1d3719c940e8d619ce27f6cd8ecf9093bf2caed127f7",
        1762,
    ),
    "corun-hierarchical": (
        "491eee3fbece64dcb68d8c26d8d474b7a8a15a8bdbf2c8051ffb158eed11b984",
        39986,
    ),
    "allreduce-bytescheduler": (
        "ea43ca60c31ebdb5e4aa455c3a60145c2a47c349507cafd04ccd022d73cd9766",
        3406,
    ),
    "allreduce-dear": (
        "50ea016c059ac25824880827015c7eeb7f784e97c9594085d2f9886d535c3f6a",
        2806,
    ),
    "allreduce-replay": (
        "12ba802ec367177bbf217e9b013554c2cc6bf16d4a17317db3ccf550ad288b54",
        3411,
    ),
    "allreduce-leave-join": (
        "e2fe5c0a65906b4c459feafc6f915112903abc1b9dd488c22edeccd97d29e356",
        4230,
    ),
    "notify-delay": (
        "626d44e8434b5d642e51706a73748b0e5a253f06bf3a12de49a0179b3d20b784",
        14246,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_ps_trajectory_pinned(case, unheard):
    job, jobs, fingerprint = CASES[case]()
    expected_fingerprint, expected_eid = PINNED[case]
    assert fingerprint == expected_fingerprint
    posted = sum(
        engine.ops_posted for each in jobs for engine in each.engines.values()
    )
    if case == "retry-loss":
        assert job.backend.retries > 0
        assert job.env._eid <= expected_eid - posted - unheard[0]
    else:
        assert expected_eid - job.env._eid == posted + unheard[0]
