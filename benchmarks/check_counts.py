"""Work-count ratchet for the end-to-end smoke.

The e2e smoke (``benchmarks/e2e/run.py --seed 0 --smoke``) records, per
workload, counts of the work one run does: kernel entries, link frames
and bytes, PS chunks, scheduler partitions and tasks, and Python calls
per package.  They are deterministic for a given Python minor version,
so unlike wall time they can gate a change on a shared CI runner.

``BENCH_e2e.json`` at the repository root holds the baseline: the
``counts`` of the last entry of its ``trajectory``, recorded on the
Python minor version it names.  This script fails (exit 1) when any
baseline count of the smoke result is higher, or missing, and names
each such count.  A count that fell is reported: add a trajectory
entry with the new counts, so the gain cannot be given back unseen.

    python benchmarks/e2e/run.py --seed 0 --smoke --out BENCH_e2e_smoke.json
    python benchmarks/check_counts.py BENCH_e2e_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent


def check(smoke: dict, baseline: dict) -> List[str]:
    """Lines describing each count of ``smoke`` above ``baseline``
    (or absent); each starts with ``FAIL`` or, for a fallen count,
    ``lower``."""
    lines = []
    for workload, counts in sorted(baseline["counts"].items()):
        measured = smoke["workloads"].get(workload, {}).get("per_layer", {})
        for name, limit in sorted(counts.items()):
            if name not in measured:
                lines.append(f"FAIL {workload} {name}: missing from the smoke result")
                continue
            value = measured[name]["value"]
            if value > limit:
                lines.append(f"FAIL {workload} {name}: {value:.17g} > baseline {limit:.17g}")
            elif value < limit:
                lines.append(f"lower {workload} {name}: {value:.17g} < baseline {limit:.17g}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("smoke", type=Path, help="the --smoke result JSON")
    parser.add_argument(
        "--baseline", type=Path, default=ROOT / "BENCH_e2e.json",
        help="the committed trajectory (default: BENCH_e2e.json)",
    )
    args = parser.parse_args(argv)
    smoke = json.loads(args.smoke.read_text())
    baseline = json.loads(args.baseline.read_text())["trajectory"][-1]
    if not smoke.get("smoke") or smoke.get("seed") != 0:
        print("check_counts: need a --seed 0 --smoke result", file=sys.stderr)
        return 2
    minor = ".".join(str(smoke.get("python", "")).split(".")[:2])
    if minor != baseline["python"]:
        print(
            f"check_counts: counts were recorded on Python {baseline['python']}, "
            f"this result is from {smoke.get('python')!r}",
            file=sys.stderr,
        )
        return 2
    lines = check(smoke, baseline)
    for line in lines:
        print(line)
    failed = sum(line.startswith("FAIL") for line in lines)
    gated = sum(len(counts) for counts in baseline["counts"].values())
    print(f"{gated} counts checked against {args.baseline.name}: {failed} above the baseline")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
