"""Per-transfer timeout + bounded exponential-backoff retry."""

import pytest

from repro.comm.base import RetryPolicy
from repro.comm.ps import PSBackend
from repro.comm.base import ChunkSpec
from repro.errors import TransferAbortedError
from repro.faults import FaultPlan
from repro.net import Fabric, Transport
from repro.sim import Environment, Trace
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob, run_experiment
from repro.training.runner import resolve_model
from tests.comm.milestones import Milestones


def test_retry_policy_validation_and_backoff():
    policy = RetryPolicy(timeout=0.01, max_retries=3, backoff=2.0)
    assert policy.attempt_timeout(0) == pytest.approx(0.01)
    assert policy.attempt_timeout(2) == pytest.approx(0.04)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.01, max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.01, backoff=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=float("nan"))
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.01, backoff=float("nan"))


def make_ps(env, retry, trace=None):
    fabric = Fabric(
        env,
        ("w0", "s0"),
        bandwidth=100.0,
        transport=Transport("ideal", overhead=0.0, efficiency=1.0),
        trace=trace,
        hop_latency=0.0,
    )
    backend = PSBackend(
        env, fabric, workers=("w0",), servers=("s0",),
        layer_bytes=(100,), retry=retry
    )
    return fabric, backend


def test_no_retry_policy_means_plain_transfer():
    env = Environment()
    _fabric, backend = make_ps(env, retry=None)
    milestones = Milestones(env)
    chunk = milestones.start(backend.start_chunk, ChunkSpec(0, 0, 0, 1, 100.0, worker="w0"))
    env.run()
    assert len(milestones.times("done", chunk)) == 1
    assert backend.timeouts == 0 and backend.retries == 0


def test_blackout_triggers_timeouts_and_retries():
    """A push held behind a blackout misses its deadline repeatedly;
    the backend retransmits with exponential backoff, records the
    episodes in the trace, and the chunk still completes."""
    env = Environment()
    trace = Trace(env)
    policy = RetryPolicy(timeout=0.5, max_retries=3, backoff=2.0)
    fabric, backend = make_ps(env, retry=policy, trace=trace)
    fabric.nic("w0").uplink.set_fault_windows(((0.0, 2.0, 0.0),))

    milestones = Milestones(env)
    chunk = milestones.start(backend.start_chunk, ChunkSpec(0, 0, 0, 1, 10.0, worker="w0"))
    env.run()
    assert len(milestones.times("done", chunk)) == 1
    # Push deadlines at 0.5, 1.5 (0.5+1.0), 3.5 (1.5+2.0): the first
    # two expire inside the blackout, the third copy lands at ~2.1;
    # the pull (0.1s healthy service) never times out.
    assert backend.timeouts == 2
    assert backend.retries == 2
    spans = list(trace.by_category("timeout"))
    assert len(spans) == 2
    assert all(span.name == "push:w0->s0" for span in spans)
    attempts = [dict(span.meta)["attempt"] for span in spans]
    assert attempts == [0, 1]
    assert trace.count("retry") == 2


def test_first_copy_wins_only_once():
    """Retransmitted copies must not double-fire the chunk's milestones."""
    env = Environment()
    policy = RetryPolicy(timeout=0.1, max_retries=2, backoff=1.0)
    fabric, backend = make_ps(env, retry=policy)
    fabric.nic("w0").uplink.set_fault_windows(((0.0, 0.15, 0.0),))
    milestones = Milestones(env)
    chunk = milestones.start(backend.start_chunk, ChunkSpec(0, 0, 0, 1, 10.0, worker="w0"))
    env.run()
    assert len(milestones.times("sent", chunk)) == 1
    assert len(milestones.times("done", chunk)) == 1
    # All three copies eventually traverse the link (bandwidth cost of
    # retrying), but only the first delivery completes the chunk.
    assert fabric.nic("w0").uplink.messages_sent == 3


def test_exhausted_budget_aborts_with_typed_error():
    """A permanent blackout with finite retries must not hang the
    waiter: the transfer aborts with a typed error, recorded as an
    ``abort`` span, and the error surfaces out of ``env.run()``."""
    env = Environment()
    trace = Trace(env)
    policy = RetryPolicy(timeout=0.15, max_retries=1, backoff=1.0)
    fabric, backend = make_ps(env, retry=policy, trace=trace)
    fabric.nic("w0").uplink.set_fault_windows(((0.0, 100.0, 0.0),))
    milestones = Milestones(env)
    milestones.start(backend.start_chunk, ChunkSpec(0, 0, 0, 1, 10.0, worker="w0"))
    with pytest.raises(TransferAbortedError) as excinfo:
        env.run()
    assert milestones.calls == []
    assert backend.timeouts == 2          # both attempts expired
    assert backend.retries == 1           # one retransmission allowed
    assert backend.aborts == 1
    assert excinfo.value.message.kind == "push"
    spans = list(trace.by_category("abort"))
    assert len(spans) == 1
    assert spans[0].name == "push:w0->s0"
    assert dict(spans[0].meta)["attempts"] == 2


def test_abort_claimed_by_recovery_handler_does_not_raise():
    """A recovery manager that claims the abort suppresses the error
    (it owns redoing the work for a node it knows is down)."""
    env = Environment()
    policy = RetryPolicy(timeout=0.15, max_retries=1, backoff=1.0)
    fabric, backend = make_ps(env, retry=policy)
    fabric.nic("w0").uplink.set_fault_windows(((0.0, 100.0, 0.0),))
    claimed = []

    def on_abort(message, error):
        claimed.append((message.kind, message.dst))
        return True

    backend.on_abort = on_abort
    Milestones(env).start(backend.start_chunk, ChunkSpec(0, 0, 0, 1, 10.0, worker="w0"))
    env.run()  # must not raise
    assert claimed == [("push", "s0")]
    assert backend.aborts == 1


def test_retry_config_flows_from_cluster_spec():
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=1,
        retry_timeout=0.02, retry_backoff=3.0, max_retries=5,
    )
    policy = cluster.retry_policy
    assert policy.timeout == 0.02
    assert policy.backoff == 3.0
    assert policy.max_retries == 5
    job = TrainingJob(
        resolve_model("resnet50"), cluster, SchedulerSpec(kind="fifo")
    )
    assert job.backend.retry == policy
    assert ClusterSpec(machines=2).retry_policy is None
    with pytest.raises(Exception):
        ClusterSpec(machines=2, retry_timeout=-1.0)


def test_allreduce_loss_with_retry_completes_and_counts():
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=1, arch="allreduce", retry_timeout=0.005
    )
    plan = FaultPlan.parse("loss:0.3;seed:4")
    result = run_experiment(
        "resnet50", cluster, SchedulerSpec(kind="bytescheduler",
                                           partition_bytes=8e6,
                                           credit_bytes=32e6),
        measure=2, warmup=1, fault_plan=plan,
    )
    assert result.speed > 0
