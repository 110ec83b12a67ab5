"""Parallel trial execution with an on-disk result cache.

The figure sweeps, tuner candidate evaluations, and fault matrices are
embarrassingly parallel: every trial is an independent, fully
deterministic simulation of one ``(model, cluster, scheduler, measure,
warmup)`` configuration.  This module gives them two accelerations:

* **Fan-out** — :func:`run_trials` distributes trials over a
  ``ProcessPoolExecutor``.  Trials carry no ambient randomness (every
  seed in the simulator is derived from the trial's own configuration),
  so results are bit-identical to the serial path regardless of worker
  count or completion order.
* **Memoisation** — a :class:`ResultCache` keyed by a content hash of
  the trial configuration.  Sweeps repeat identical configurations
  (every scale point of a figure re-runs the same single-machine
  linear-scaling reference; candidate knobs recur across sections), so
  a shared cache removes whole classes of duplicate work.  Writes are
  atomic (temp file + rename), making the cache safe under concurrent
  pool workers.

Cache location: an explicit path wins; otherwise ``$REPRO_CACHE_DIR``;
otherwise ``~/.cache/repro/trials``.  Entries are invalidated by
bumping :data:`TRIAL_SCHEMA` (done whenever simulator changes alter
results) — stale-schema files are simply ignored.  Deleting the
directory is always safe.

A process-wide session (:func:`session`) lets entry points such as the
CLI switch every ``run_experiment`` call underneath them to the cache
and pool without threading parameters through each figure module.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.training.cluster import ClusterSpec, SchedulerSpec
from repro.training.metrics import TrainingResult

__all__ = [
    "TRIAL_SCHEMA",
    "TrialSpec",
    "ResultCache",
    "default_cache_dir",
    "trial_key",
    "execute_trial",
    "result_from_payload",
    "run_trials",
    "session",
    "active_cache",
    "active_workers",
    "active_shard",
]

#: Bump whenever simulator or payload changes make old entries invalid.
TRIAL_SCHEMA = 1


@dataclass(frozen=True)
class TrialSpec:
    """One independent experiment: everything a worker needs to run it.

    ``model`` is a zoo name or a full
    :class:`~repro.models.ModelSpec`; both pickle cleanly, as do the
    frozen cluster/scheduler specs, so a TrialSpec crosses process
    boundaries intact.
    """

    model: Any
    cluster: ClusterSpec
    scheduler: SchedulerSpec
    measure: int = 4
    warmup: int = 2


def _model_payload(model: Any) -> Any:
    if isinstance(model, str):
        return model
    if is_dataclass(model):
        return asdict(model)
    raise TypeError(f"cannot key trial on model {model!r}")


def trial_key(spec: TrialSpec) -> str:
    """Content hash of a trial configuration (hex, stable across runs)."""
    payload = {
        "schema": TRIAL_SCHEMA,
        "model": _model_payload(spec.model),
        "cluster": asdict(spec.cluster),
        "scheduler": asdict(spec.scheduler),
        "measure": spec.measure,
        "warmup": spec.warmup,
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/trials``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "trials"


class ResultCache:
    """Content-addressed store of trial payloads under one directory."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        # Valid JSON that is not an object (``[]``, ``null``, ...) is a
        # damaged entry too.
        if not isinstance(payload, dict) or payload.get("schema") != TRIAL_SCHEMA:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: concurrent writers of the same key race
        # harmlessly (same bytes), and readers never see half a file.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def execute_trial(
    spec: TrialSpec, cache: Optional[ResultCache] = None
) -> Dict[str, Any]:
    """Run one trial (or fetch it) and return its result payload.

    The payload is pure JSON data — markers, measurement metadata, and
    the sha256 digest of the run's :class:`~repro.obs.RunReport` — so
    it round-trips through the cache and process boundaries without
    drift: JSON preserves float bit patterns exactly.
    """
    key = trial_key(spec)
    if cache is not None:
        payload = cache.get(key)
        if payload is not None:
            return payload
    from repro.training.runner import run_experiment

    result = run_experiment(
        spec.model,
        spec.cluster,
        spec.scheduler,
        measure=spec.measure,
        warmup=spec.warmup,
        report=True,
        cache=False,
    )
    report_json = result.report.to_json()
    payload = {
        "schema": TRIAL_SCHEMA,
        "key": key,
        "markers": result.markers,
        "warmup": result.warmup,
        "measured": result.measured,
        "samples_per_iteration": result.samples_per_iteration,
        "sample_unit": result.sample_unit,
        "label": result.label,
        "report_digest": hashlib.sha256(report_json.encode()).hexdigest(),
    }
    if cache is not None:
        cache.put(key, payload)
    return payload


def result_from_payload(payload: Dict[str, Any]) -> TrainingResult:
    """Reconstruct a :class:`TrainingResult` from a trial payload.

    Speed and iteration statistics are derived properties of the
    markers, so the reconstruction is bit-identical to the original.
    """
    result = TrainingResult(
        markers={w: list(t) for w, t in payload["markers"].items()},
        warmup=payload["warmup"],
        measured=payload["measured"],
        samples_per_iteration=payload["samples_per_iteration"],
        sample_unit=payload["sample_unit"],
        label=payload["label"],
    )
    return result


def _pool_worker(args) -> Dict[str, Any]:
    spec, cache_root = args
    cache = ResultCache(cache_root) if cache_root is not None else None
    return execute_trial(spec, cache=cache)


def run_trials(
    specs: Sequence[TrialSpec],
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, Path, None] = None,
) -> List[Dict[str, Any]]:
    """Run trials, returning payloads in input order.

    ``workers=None`` or ``<= 1`` runs serially in-process; larger values
    fan out over a ``ProcessPoolExecutor``.  Either way the i-th payload
    belongs to the i-th spec, and payloads are identical between the two
    paths (see the determinism tests).

    Under a sharded session (``session(shard=...)``, i.e. the CLI's
    ``--shard i/n``) and with a cache to share results through, the
    sweep routes through the multi-host work-stealing protocol in
    :mod:`repro.experiments.stealing` instead — same return value,
    but this process only *computes* its own slice (plus whatever it
    steals) and pulls the rest from the shared cache.
    """
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    shard = _session["shard"]
    if shard is not None and cache is not None and len(specs) > 1:
        from repro.experiments.stealing import run_trials_sharded

        return run_trials_sharded(
            specs,
            shard,
            cache,
            steal=_session["steal"],
            workers=workers,
        )
    if workers is None or workers <= 1 or len(specs) <= 1:
        return [execute_trial(spec, cache=cache) for spec in specs]
    cache_root = str(cache.root) if cache is not None else None
    jobs = [(spec, cache_root) for spec in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_pool_worker, jobs))


# -- process-wide session ---------------------------------------------------

_session: Dict[str, Any] = {
    "workers": None,
    "cache": None,
    "shard": None,
    "steal": False,
}


@contextmanager
def session(
    workers: Optional[int] = None,
    cache_dir: Union[str, Path, None] = None,
    shard: Optional[Any] = None,
    steal: bool = False,
) -> Iterator[None]:
    """Enable pooling/caching/sharding for every experiment run inside
    the block.

    ``run_experiment`` consults :func:`active_cache` when its caller
    passes no explicit ``cache``, and sweep drivers consult
    :func:`active_workers` — so a single ``with session(...):`` at the
    CLI boundary accelerates the whole report generation beneath it.
    ``shard`` (a :class:`~repro.experiments.stealing.ShardSpec`) routes
    every multi-trial :func:`run_trials` call through the multi-host
    work-stealing protocol; it requires ``cache_dir``, which is the
    shared medium the shards coordinate over.
    """
    if shard is not None and cache_dir is None:
        from repro.errors import ConfigError

        raise ConfigError(
            "sharded sessions need a shared cache directory "
            "(--cache-dir): the cache is how shards exchange results"
        )
    previous = dict(_session)
    _session["workers"] = workers
    _session["cache"] = ResultCache(cache_dir) if cache_dir is not None else None
    _session["shard"] = shard
    _session["steal"] = steal
    try:
        yield
    finally:
        _session.update(previous)


def active_cache() -> Optional[ResultCache]:
    """The session's cache, if a session with caching is active."""
    return _session["cache"]


def active_workers() -> Optional[int]:
    """The session's worker count, if a session is active."""
    return _session["workers"]


def active_shard() -> Optional[Any]:
    """The session's :class:`ShardSpec`, if a sharded session is active."""
    return _session["shard"]
