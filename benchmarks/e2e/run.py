"""Layered end-to-end benchmark: simulated training runs per host second.

Usage::

    python benchmarks/e2e/run.py --seed S [--out PATH] [--smoke]
    python benchmarks/e2e/run.py --workload NAME --seed S --seconds N --trace 0|1

The first form runs every workload of ``BENCHMARK.json`` in order and
reports both its end-to-end and its per-layer metrics.  The second runs
one workload and ends with one JSON line holding the end-to-end metrics
(``--trace 0``) or the per-layer ones (``--trace 1``).

Each workload runs in its own fresh worker process (``worker.py``), one
at a time, after ``setup_s`` has been measured in fresh interpreters:
at most two processes exist at once, this one and the one it waits on.
The exit code is non-zero when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Fresh interpreters ``setup_s`` is the median over.
SETUP_PROBES = 5

#: Wall-clock budget of a single-workload invocation, kept under the
#: three minutes a caller may wait for one.
DEADLINE_S = 170.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class WorkerError(RuntimeError):
    pass


def _last_json(stdout: str) -> Dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def _spawn(args: List[str], deadline: float) -> subprocess.CompletedProcess:
    """Run ``worker.py`` with ``args``; stderr passes through."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        return subprocess.run(
            [sys.executable, str(WORKER), *args],
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from error


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, deadline: float
) -> Dict:
    """Measure set-up time, then the workload itself, in fresh processes."""
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setups = []
    for _ in range(1 if smoke else SETUP_PROBES):
        probe = _spawn(common + ["--setup-probe"], deadline)
        if probe.returncode != 0:
            raise WorkerError(f"set-up probe exited with {probe.returncode}")
        setups.append(_last_json(probe.stdout)["setup_s"])
    worker = _spawn(
        common + ["--seconds", repr(seconds), "--trace", "1" if trace else "0"], deadline
    )
    result = _last_json(worker.stdout)
    if worker.returncode != 0:
        result["correct"] = False
    result.setdefault("e2e", {})["setup_s"] = {
        "value": statistics.median(setups),
        "unit": "s",
    }
    result["setup_samples"] = setups
    return result


def _select(result: Dict, wanted: List[Dict], section: str) -> Dict[str, Dict]:
    """The metrics named in BENCHMARK.json, in its order; a missing one
    is reported on stderr and left out."""
    produced = result.get(section, {})
    selected = {}
    for metric in wanted:
        if metric["name"] in produced:
            selected[metric["name"]] = produced[metric["name"]]
        else:
            log(f"missing metric {metric['name']}")
    return selected


def _print_table(name: str, result: Dict, spec: Dict, trace: bool) -> None:
    print(
        f"== {name}: {result.get('runs', 0)} runs, attempted {result['attempted']}, "
        f"failed {result['failed']}, fingerprint {result.get('fingerprint', '-')[:16]}"
    )
    sections = [("e2e", spec["end_to_end"])]
    if trace:
        sections.append(("per_layer", spec["per_layer"]))
    for section, wanted in sections:
        for metric, data in _select(result, wanted, section).items():
            print(f"  {metric:<28} {data['value']:>16.6g} {data['unit']}")
    for metric, data in result.get("diagnostics", {}).items():
        print(f"  {metric:<28} {data['value']:>16.6g} {data['unit']}  (not gated)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, help="write all results here as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="one run per workload, short drift horizon"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    spec = json.loads(BENCHMARK.read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    single = args.workload is not None
    trace = bool(args.trace) if args.trace is not None else not single
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    deadline = time.monotonic() + (DEADLINE_S if single else 3600.0)

    results: Dict[str, Dict] = {}
    for name in [args.workload] if single else names:
        log(f"-- {name}")
        try:
            results[name] = run_workload(
                name, args.seed, seconds, trace, args.smoke, deadline
            )
        except (WorkerError, ValueError, KeyError) as error:
            log(f"{name}: {error}")
            return 1
        _print_table(name, results[name], spec, trace)

    correct = all(result["correct"] for result in results.values())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": 1,
            "seed": args.seed,
            "seconds": seconds,
            "smoke": args.smoke,
            "python": platform.python_version(),
            "workloads": results,
        }
        args.out.write_text(json.dumps(payload) + "\n")
        log(f"results written to {args.out}")
    if single:
        result = results[args.workload]
        if trace:
            metrics = _select(result, spec["per_layer"], "per_layer")
        else:
            metrics = _select(result, spec["end_to_end"], "e2e")
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
