"""One workload, measured in one fresh process.

``run.py`` starts this script once per workload and reads the JSON
object it prints as its last stdout line.  The script:

1. does one untimed warm-up run, whose fingerprint is the reference;
2. runs the workload in a closed loop for ``--seconds`` while a
   :class:`HostSampler` times a short pure-stdlib calibration probe
   every 50 ms, and reports each run's wall time in *cal units*: run
   wall time (probes excluded) over the harmonic mean of the probes
   taken in the same period;
3. with ``--trace 1``, does one more run with ``enable_trace=True`` and
   a ``ChaosOracle`` under ``cProfile``, and attributes its self time to
   the ``repro`` packages.

With ``--setup-probe`` it only times the workload's imports plus the
construction of its first job, and prints that time in seconds.

Progress goes to stderr; stdout carries only the result.  Needs
``signal.setitimer`` (POSIX).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path
from statistics import harmonic_mean
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, Construct, Phase, RunOutcome, timed  # noqa: E402

#: Iterations of one calibration probe: about 1.1 ms on a 2-core VM
#: with Python 3.11.  One cal unit is the duration of one probe.
PROBE_ITERATIONS = 2_000

#: Wall seconds between probes while runs are measured (~3% of the time).
PROBE_PERIOD_S = 0.05

#: Runs shorter than this are pooled until they span it, so that each
#: run's divisor averages about ten probes.
BLOCK_S = 0.5

#: Percentile reported as ``run_cost.tail``.  Fixed, not derived from the
#: sample count, so it means the same thing on every invocation.
TAIL_PERCENTILE = 90

#: Packages self time is attributed to.  The rest of ``repro`` (models,
#: analysis, invariants, ...) and time with no ``repro`` caller is
#: ``other``.
LAYERS = (
    "sim", "net", "comm", "core", "frameworks", "training", "obs", "faults", "tuning",
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- host-speed calibration ----------------------------------------------------------


def _ticker():
    """A generator clock, resumed with ``send`` like a simulated process."""
    now = 0
    while True:
        now += yield now


class HostSampler:
    """While active, times a calibration probe every ``PROBE_PERIOD_S``.

    The probe is a fixed heapq/dict/generator loop.  It touches no
    ``repro`` code, so a change to the simulator cannot move it; it only
    follows the host's speed.

    This VM's speed changes several times a second (other tenants), so a
    calibration taken between runs misses what happened during them.
    Probing from a ``SIGALRM`` handler samples the host during the runs
    themselves.  The handler runs between bytecodes of the simulation
    and touches none of its state, so trajectories are unchanged (the
    fingerprint check would catch it otherwise).  Its state is allocated
    up front and it creates no GC-tracked objects, so it does not move
    the workload's garbage collections either.
    """

    def __init__(self) -> None:
        #: Start and duration of every probe, in ``perf_counter`` seconds.
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._busy = False
        self._tickers = [_ticker() for _ in range(64)]
        for ticker in self._tickers:
            next(ticker)
        self._heap: List[int] = []
        self._seen: Dict[int, int] = {}

    def probe(self) -> float:
        """Wall seconds of one calibration loop."""
        tickers, heap, seen = self._tickers, self._heap, self._seen
        heap.clear()
        start = time.perf_counter()
        for index in range(PROBE_ITERATIONS):
            heapq.heappush(heap, tickers[index & 63].send(index % 7 + 1))
            key = index & 1023
            seen[key] = seen.get(key, 0) + 1
            if len(heap) > 256:
                heapq.heappop(heap)
        return time.perf_counter() - start

    def _on_alarm(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        self.starts.append(time.perf_counter())
        self.durations.append(self.probe())
        self._busy = False

    def __enter__(self) -> "HostSampler":
        self.probe()  # warms the interpreter's specialisation of the loop
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# -- statistics -------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def rss_mb() -> float:
    """Current resident set size (Linux /proc; 0 where unavailable)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def gc_collections() -> List[int]:
    return [generation["collections"] for generation in gc.get_stats()]


# -- one run ------------------------------------------------------------------------


def run_once(
    workload: Construct, seed: int, smoke: bool, trace: bool = False, oracle=None
) -> Tuple[RunOutcome, List[Phase]]:
    phases: List[Phase] = []
    finish = timed(phases, "construct", workload, seed, smoke, trace, oracle)
    return finish(phases), phases


# -- traced run ---------------------------------------------------------------------


def _layer_of(filename: str, repro_dir: str) -> Optional[str]:
    """The ``repro`` package a source file belongs to, or None outside."""
    if not filename.startswith(repro_dir):
        return None
    head = filename[len(repro_dir):].split(os.sep)[0]
    return head if head in LAYERS else "other"


def attribute(stats: Dict, repro_dir: str) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and calls per layer from a cProfile stats table.

    A function outside ``repro`` (a builtin, the stdlib) has its self
    time charged to its callers' layers, split by the self time the
    pstats callers table records under each caller (by call count where
    that is zero).  A caller that is itself outside ``repro`` passes its
    share on to its own callers.
    """
    layer = {func: _layer_of(func[0], repro_dir) for func in stats}
    shares: Dict[Tuple, Dict[str, float]] = {}

    def spread(func, active) -> Dict[str, float]:
        """How ``func``'s self time splits across layers."""
        if func in shares:
            return shares[func]
        callers = stats[func][4]
        weights = {caller: entry[2] for caller, entry in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: entry[0] for caller, entry in callers.items()}
        total = sum(weights.values())
        if func in active or total <= 0:
            return {"other": 1.0}
        active.add(func)
        split: Dict[str, float] = {}
        for caller, weight in weights.items():
            if layer.get(caller):
                parts = {layer[caller]: 1.0}
            elif caller in stats:
                parts = spread(caller, active)
            else:
                parts = {"other": 1.0}
            for name, part in parts.items():
                split[name] = split.get(name, 0.0) + part * weight / total
        active.discard(func)
        shares[func] = split
        return split

    seconds = {name: 0.0 for name in LAYERS + ("other",)}
    calls = {name: 0 for name in LAYERS + ("other",)}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        own = layer[func]
        if own is not None:
            seconds[own] += tt
            calls[own] += nc
            continue
        for name, part in spread(func, set()).items():
            seconds[name] += tt * part
    return seconds, calls


def traced_run(workload: Construct, seed: int, smoke: bool) -> Dict:
    """One run with span tracing, the chaos oracle and cProfile on."""
    from repro.analysis import analyze_worker
    from repro.invariants import ChaosOracle

    paused = [0.0, 0.0]  # [start of the current collection, total]

    def on_gc(phase: str, _info) -> None:
        if phase == "start":
            paused[0] = time.perf_counter()
        else:
            paused[1] += time.perf_counter() - paused[0]

    oracle = ChaosOracle()
    profiler = cProfile.Profile()
    gc.callbacks.append(on_gc)
    start = time.perf_counter()
    profiler.enable()
    try:
        outcome, phases = run_once(workload, seed, smoke, trace=True, oracle=oracle)
    finally:
        profiler.disable()
        wall = time.perf_counter() - start
        gc.callbacks.remove(on_gc)
    profiler.create_stats()
    stats = profiler.stats
    seconds, calls = attribute(stats, str(SRC / "repro") + os.sep)
    total = sum(seconds.values())
    sim_core = str(SRC / "repro" / "sim" / "core.py")
    step_peek = sum(
        entry[1]
        for func, entry in stats.items()
        if func[0] == sim_core and func[2] in ("step", "peek")
    )
    breakdowns = analyze_worker(outcome.job)[outcome.warmup:]
    metrics = {
        "sim.step_peek_calls": (float(step_peek), "count"),
        "gc.pause_share": (paused[1] / wall, "share"),
        "train.compute_s": (mean([b.compute_time for b in breakdowns]), "sim_s"),
        "train.stall_s": (mean([b.stall for b in breakdowns]), "sim_s"),
        "train.exposed_comm_s": (mean([b.exposed_comm for b in breakdowns]), "sim_s"),
    }
    for name in LAYERS + ("other",):
        metrics[f"{name}.self_share"] = (seconds[name] / total if total else 0.0, "share")
        metrics[f"{name}.calls"] = (float(calls[name]), "count")
    return {
        "wall_s": wall,
        "fingerprint": outcome.fingerprint,
        "violations": oracle.violations,
        "metrics": metrics,
        "phases": phases,
    }


# -- the measured loop ------------------------------------------------------------


def _net_phases(phases: List[Phase], starts: List[float], lengths: List[float]):
    """Per-phase wall seconds with the probes that fired inside removed,
    plus the durations of those probes."""
    durations: Dict[str, float] = {}
    inside: List[float] = []
    for name, start, end in phases:
        stolen = [length for at, length in zip(starts, lengths) if start <= at < end]
        durations[name] = durations.get(name, 0.0) + end - start - sum(stolen)
        inside.extend(stolen)
    return durations, inside


def measure(name: str, seed: int, seconds: float, smoke: bool, trace: bool):
    """Warm-up, measured closed loop, optional traced run -> result dict."""
    workload = WORKLOADS[name]
    clock = time.perf_counter
    origin = clock()
    spans: List[Dict] = []

    def span(label: str, start: float, end: float, parent: Optional[int] = None) -> int:
        spans.append(
            {"name": label, "start": start - origin, "end": end - origin, "parent": parent}
        )
        return len(spans) - 1

    def add_phases(parent: int, phases: List[Phase]) -> None:
        for label, start, end in phases:
            span(label, start, end, parent)

    attempted = 1
    failed = 0
    start = clock()
    try:
        warm, phases = run_once(workload, seed, smoke)
    except Exception:
        log(f"{name}: warm-up run raised\n{traceback.format_exc()}")
        return {"attempted": attempted, "failed": 1, "correct": False}
    add_phases(span("warmup", start, clock()), phases)
    reference = warm.fingerprint
    reference_counts = warm.counts
    sim_speed = warm.sim_samples_per_s
    warm = None

    runs: List[Dict] = []
    block: List[Dict] = []
    sampler = HostSampler()

    def close_block() -> None:
        """Give every run of the block the block's probe time as divisor.

        The harmonic mean is the host's mean *speed* over the block, which
        is what a run's wall time integrates; an arithmetic mean of probe
        durations lets one stalled probe over-correct the whole block.
        """
        probes = [length for run in block for length in run["probes"]]
        cal = harmonic_mean(probes) if probes else runs[-1]["cal"] if runs else sampler.probe()
        for run in block:
            run["cal"] = cal
        runs.extend(block)
        block.clear()

    rss_first = rss_last = 0.0
    window = clock()
    with sampler:
        while attempted == 1 or clock() - window < seconds:
            attempted += 1
            first_probe = len(sampler.starts)
            before = gc_collections()
            start = clock()
            try:
                outcome, phases = run_once(workload, seed, smoke)
            except Exception:
                failed += 1
                log(f"{name}: run {attempted} raised\n{traceback.format_exc()}")
                continue
            end = clock()
            after = gc_collections()
            add_phases(span("run", start, end), phases)
            if outcome.fingerprint != reference or outcome.counts != reference_counts:
                failed += 1
                log(f"{name}: run {attempted} fingerprint {outcome.fingerprint} "
                    f"!= reference {reference}")
            outcome = None
            durations, probes = _net_phases(
                phases, sampler.starts[first_probe:], sampler.durations[first_probe:]
            )
            rss_last = rss_mb()
            if not runs and not block:
                rss_first = rss_last
            block.append({
                "wall": sum(durations.values()),
                "phases": durations,
                "probes": probes,
                "gc": [b - a for a, b in zip(before, after)],
            })
            if sum(run["wall"] for run in block) >= BLOCK_S and any(
                run["probes"] for run in block
            ):
                close_block()
    if block:
        close_block()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result: Dict = {
        "attempted": attempted,
        "failed": failed,
        "fingerprint": reference,
        "runs": len(runs),
        "samples": {
            "run_s": [run["wall"] for run in runs],
            "run_cost": [run["wall"] / run["cal"] for run in runs],
            "probe_s": sampler.durations,
        },
        "spans": spans,
    }
    if not runs:
        result["correct"] = False
        return result
    costs = result["samples"]["run_cost"]
    walls = result["samples"]["run_s"]
    e2e = {
        "run_cost.mean": (mean(costs), "cal"),
        "run_cost.p50": (percentile(costs, 50), "cal"),
        "run_cost.tail": (percentile(costs, TAIL_PERCENTILE), "cal"),
        "peak_rss_mb": (peak_rss, "MB"),
        "sim_samples_per_s": (sim_speed, "samples/s"),
    }
    diagnostics = {
        "run_s.mean": (mean(walls), "s"),
        "run_s.p50": (percentile(walls, 50), "s"),
        f"run_s.p{TAIL_PERCENTILE}": (percentile(walls, TAIL_PERCENTILE), "s"),
        "calib_s": (mean([run["cal"] for run in runs]), "s"),
        "runs": (float(len(runs)), "count"),
    }
    units = {"net.bytes": "bytes", "net.link_busy_max": "frac"}
    per_layer = {
        name: (value, units.get(name, "count")) for name, value in reference_counts.items()
    }
    if "sim.events" in reference_counts:
        per_layer["sim.events_per_cal"] = (
            reference_counts["sim.events"] / mean(costs), "ev/cal"
        )
    for phase in ("construct", "run", "report", "tune"):
        per_layer[f"phase.{phase}_cost"] = (
            mean([run["phases"].get(phase, 0.0) / run["cal"] for run in runs]), "cal"
        )
    for generation in range(3):
        per_layer[f"gc.gen{generation}"] = (
            mean([run["gc"][generation] for run in runs]), "count"
        )
    per_layer["rss.growth_mb"] = (rss_last - rss_first, "MB")

    if trace:
        attempted += 1
        start = clock()
        try:
            traced = traced_run(workload, seed, smoke)
        except Exception:
            failed += 1
            log(f"{name}: traced run raised\n{traceback.format_exc()}")
        else:
            add_phases(span("traced", start, clock()), traced["phases"])
            per_layer.update(traced["metrics"])
            per_layer["trace.overhead"] = (traced["wall_s"] / mean(walls), "x")
            result["traced_fingerprint"] = traced["fingerprint"]
            if traced["fingerprint"] != reference or traced["violations"]:
                failed += 1
                log(f"{name}: traced run fingerprint {traced['fingerprint']} "
                    f"(reference {reference}), {traced['violations']} oracle violations")

    def as_metrics(table):
        return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}

    diagnostics["failed_frac"] = (failed / attempted, "frac")
    result.update(
        attempted=attempted,
        failed=failed,
        correct=failed == 0,
        e2e=as_metrics(e2e),
        per_layer=as_metrics(per_layer),
        diagnostics=as_metrics(diagnostics),
    )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        start = time.perf_counter()
        workload(args.seed, args.smoke)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        log(f"imported repro from {repro.__file__}, not from {SRC}")
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.smoke, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
