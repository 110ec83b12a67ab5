"""Parallel trial runner: determinism, cache round-trips, session wiring."""

import json

import pytest

from repro.experiments import parallel as par
from repro.training import ClusterSpec, SchedulerSpec, run_experiment

CLUSTER = ClusterSpec(machines=2, gpus_per_machine=2)
FIFO = SchedulerSpec(kind="fifo")
BS = SchedulerSpec(kind="bytescheduler", partition_bytes=2e6, credit_bytes=8e6)


def specs():
    return [
        par.TrialSpec(model="resnet50", cluster=CLUSTER, scheduler=FIFO,
                      measure=2, warmup=1),
        par.TrialSpec(model="resnet50", cluster=CLUSTER, scheduler=BS,
                      measure=2, warmup=1),
        par.TrialSpec(model="vgg16", cluster=CLUSTER, scheduler=FIFO,
                      measure=2, warmup=1),
    ]


def test_trial_key_stable_and_distinct():
    trials = specs()
    keys = [par.trial_key(spec) for spec in trials]
    assert len(set(keys)) == len(keys)
    assert keys == [par.trial_key(spec) for spec in trials]
    assert all(len(key) == 64 for key in keys)


def test_serial_payloads_carry_report_digest():
    payloads = par.run_trials(specs()[:1])
    payload = payloads[0]
    assert payload["schema"] == par.TRIAL_SCHEMA
    assert len(payload["report_digest"]) == 64
    result = par.result_from_payload(payload)
    assert result.speed > 0


def test_payload_roundtrip_matches_direct_run():
    spec = specs()[0]
    direct = run_experiment(
        spec.model, spec.cluster, spec.scheduler,
        measure=spec.measure, warmup=spec.warmup, cache=False,
    )
    rebuilt = par.result_from_payload(par.execute_trial(spec))
    assert rebuilt.speed == direct.speed
    assert rebuilt.markers == direct.markers


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_bit_identical_to_serial(workers):
    """The contract the sweeps rely on: fan-out changes nothing."""
    serial = par.run_trials(specs())
    pooled = par.run_trials(specs(), workers=workers)
    assert pooled == serial
    assert [p["report_digest"] for p in pooled] == [
        s["report_digest"] for s in serial
    ]


def test_cache_roundtrip_and_hit_counting(tmp_path):
    cache = par.ResultCache(tmp_path)
    spec = specs()[0]
    first = par.execute_trial(spec, cache=cache)
    assert cache.misses == 1 and cache.hits == 0
    second = par.execute_trial(spec, cache=cache)
    assert cache.hits == 1
    assert second == first
    # The entry is plain JSON on disk, keyed by the trial hash.
    key = par.trial_key(spec)
    stored = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())
    assert stored == first


def test_cache_ignores_stale_schema(tmp_path):
    cache = par.ResultCache(tmp_path)
    spec = specs()[0]
    payload = par.execute_trial(spec, cache=cache)
    key = par.trial_key(spec)
    stale = dict(payload, schema=par.TRIAL_SCHEMA - 1)
    cache.put(key, stale)
    assert cache.get(key) is None  # stale entry is a miss, not a crash


@pytest.mark.parametrize("entry", ["[]", "null", "3", '"x"'])
def test_cache_entry_that_is_not_an_object_is_a_miss(tmp_path, entry):
    cache = par.ResultCache(tmp_path)
    key = "ab" + "0" * 62
    path = tmp_path / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True)
    path.write_text(entry)
    assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_run_experiment_uses_session_cache(tmp_path):
    spec = specs()[0]
    plain = run_experiment(
        spec.model, spec.cluster, spec.scheduler,
        measure=spec.measure, warmup=spec.warmup,
    )
    with par.session(cache_dir=tmp_path):
        cold = run_experiment(
            spec.model, spec.cluster, spec.scheduler,
            measure=spec.measure, warmup=spec.warmup,
        )
        cache = par.active_cache()
        warm = run_experiment(
            spec.model, spec.cluster, spec.scheduler,
            measure=spec.measure, warmup=spec.warmup,
        )
        assert cache.hits >= 1
    assert cold.speed == plain.speed == warm.speed
    assert par.active_cache() is None  # session cleaned up


def test_unplain_runs_bypass_cache(tmp_path):
    spec = specs()[0]
    with par.session(cache_dir=tmp_path):
        reported = run_experiment(
            spec.model, spec.cluster, spec.scheduler,
            measure=spec.measure, warmup=spec.warmup, report=True,
        )
        cache = par.active_cache()
        assert reported.report is not None
        assert cache.hits == 0 and cache.misses == 0


def test_figure_grid_identical_serial_pool_and_cached(tmp_path):
    """End-to-end determinism at the figure level (the acceptance bar)."""
    from repro.experiments import figure10_12

    kwargs = dict(
        machines_list=(1, 2),
        setups=(("mxnet", "ps", "rdma"),),
        measure=2,
        include_p3=False,
    )
    serial = figure10_12.run_model("resnet50", **kwargs)
    pooled = figure10_12.run_model("resnet50", workers=2, **kwargs)
    cached_cold = figure10_12.run_model(
        "resnet50", cache_dir=str(tmp_path), **kwargs
    )
    cached_warm = figure10_12.run_model(
        "resnet50", cache_dir=str(tmp_path), **kwargs
    )
    assert pooled == serial
    assert cached_cold == serial
    assert cached_warm == serial
