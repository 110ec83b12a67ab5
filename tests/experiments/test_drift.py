"""The drift-robustness experiment: specs, epochs, determinism, verdict.

Fast lane: the pure plan/epoch arithmetic, the CLI wiring, and a
small-scale digest-determinism check across replays.
Slow lane (nightly): the full ``reproduce drift --fast`` verdict — the
adaptive tuner's regret ordering against static/online/oracle.
"""

import pytest

from repro.experiments import drift
from repro.faults import FaultPlan
from repro.invariants import ChaosOracle
from repro.models import custom_model
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob
from repro.tuning import AdaptiveTuner, PageHinkley, SearchSpace
from repro.units import MB


def test_drift_plan_specs_parse_for_all_scenarios():
    for scenario in drift.SCENARIOS:
        plan = FaultPlan.parse(drift.drift_plan_spec(scenario, 24.0, seed=7))
        assert plan.seed == 7
        if scenario == "step":
            assert plan.link_faults and not plan.drift
        else:
            assert plan.drift and not plan.link_faults


def test_walk_scenario_targets_the_workers_compute():
    plan = FaultPlan.parse(drift.drift_plan_spec("walk", 24.0, seed=0))
    fault = plan.drift[0]
    assert fault.kind == "walk"
    assert fault.node == drift.WALK_NODE
    assert fault.direction == ""  # compute walk, not a link walk
    # The drifting link stays healthy: the knob landscape is flat.
    assert plan.drift_link_windows(drift.DRIFT_NODE, "up") == ()


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown drift scenario"):
        drift.drift_plan_spec("meteor", 24.0, seed=0)


def test_epoch_table_tiles_the_horizon():
    for scenario in drift.SCENARIOS:
        epochs = drift.epoch_table(scenario, 24.0, seed=0)
        assert epochs[0][0] == 0.0
        assert epochs[-1][1] == pytest.approx(24.0)
        for (_, end, _), (start, _, _) in zip(epochs, epochs[1:]):
            assert start == pytest.approx(end)


def test_diurnal_epochs_reach_the_trough_and_open_healthy():
    epochs = drift.epoch_table("diurnal", 24.0, seed=0)
    factors = [factor for _, _, factor in epochs]
    assert all(0.15 <= factor <= 1.0 for factor in factors)
    assert factors[0] > 0.9  # healthy lead-in for the static policy
    assert min(factors) < 0.45  # the trough actually bites


def test_step_epochs_split_at_the_onset():
    epochs = drift.epoch_table("step", 24.0, seed=0)
    assert len(epochs) == 2
    (_, onset, before), (_, _, after) = epochs
    assert onset == pytest.approx(3.0)
    assert before == pytest.approx(1.0)
    assert after == pytest.approx(0.3)


def test_walk_epochs_report_compute_multipliers():
    epochs = drift.epoch_table("walk", 24.0, seed=1)
    factors = [factor for _, _, factor in epochs]
    assert all(factor >= 1.0 for factor in factors)  # multipliers, not rates
    assert factors[0] == pytest.approx(1.0)  # healthy lead-in


def test_epoch_table_is_seed_deterministic():
    assert drift.epoch_table("background", 24.0, seed=3) == drift.epoch_table(
        "background", 24.0, seed=3
    )
    walk_a = drift.epoch_table("walk", 24.0, seed=3)
    walk_b = drift.epoch_table("walk", 24.0, seed=4)
    assert walk_a != walk_b  # the seed actually feeds the walk


def test_cli_accepts_the_drift_target():
    from repro.cli import build_parser

    args = build_parser().parse_args(["reproduce", "drift", "--fast"])
    assert args.target == "drift"
    assert args.fast


# -- determinism (S6), scaled down to stay in the fast lane ----------------


def _tuned_digest():
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=2, arch="ps", transport="tcp",
        bandwidth_gbps=25, seed=0,
    )
    model = custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB],
        fp_times=[0.002] * 3,
        bp_times=[0.004] * 3,
        batch_size=16,
    )
    job = TrainingJob(
        model,
        cluster,
        SchedulerSpec(kind="bytescheduler", partition_bytes=2 * MB,
                      credit_bytes=4 * MB),
        fault_plan=FaultPlan.parse("drift:diurnal:s0.both@0-2~2.7x0.3;seed:0"),
        oracle=ChaosOracle(),
    )
    tuner = AdaptiveTuner(
        job,
        space=SearchSpace(1 * MB, 8 * MB, 2 * MB, 32 * MB),
        seed=0,
        segment_iterations=2,
        restart_penalty=0.0,
        detector=PageHinkley(delta=0.01, threshold=0.06),
    )
    tuner.run(segments=8, final_iterations=2)
    job.drain()
    assert job.oracle.violations == 0
    return tuple(job.backend.sync_digest())


def test_adaptive_digest_deterministic_across_runs():
    # Two replays: one bit-identical history.
    assert _tuned_digest() == _tuned_digest()


# -- the acceptance verdict (nightly) --------------------------------------


@pytest.mark.slow
def test_reproduce_drift_fast_verdict():
    result = drift.run(fast=True)
    assert result.all_ok, drift.format_result(result)
    cells = {cell.scenario: cell for cell in result.cells}
    assert set(cells) == set(drift.SCENARIOS) | {"determinism"}
    for cell in result.cells:
        if cell.scenario == "determinism":
            continue
        policies = dict(cell.policies)
        assert policies["oracle"][0] == 0.0  # the zero-regret reference
        static, adaptive = cell.regret("static"), cell.regret("adaptive")
        if "flat" not in cell.detail:
            assert adaptive <= 0.5 * static
            assert adaptive <= cell.regret("online") + 1e-6
    text = drift.format_result(result)
    assert "all checks passed" in text
