"""Compare parent and change result files of the end-to-end benchmark.

Usage::

    python benchmarks/e2e/compare.py --parent P1.json ... --change C1.json ...

Each file is one ``run.py --out`` result.  Files pair up in the order
given (parent i with change i), so alternate which side runs first when
producing them.  One row per workload and end-to-end metric shows each
side's median and quartiles, the share of pairs the change won, and a
verdict:

* ``improved``: over at least ten pairs, the change won at least 9 of
  10 (ties count for neither side) and its median beats the parent's by
  more than the parent's interquartile range;
* ``unresolved``: the parent's spread (interquartile range over median)
  is wider than the metric's bound in BENCHMARK.json, or unknown with a
  single parent file, so a regression within it cannot be told from
  noise, unless every change run beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``: none of the above.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Share of pairs the change must win to claim a gain, and the fewest
#: pairs a gain may rest on.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, win share)`` for paired samples of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    win_share = wins / len(pairs)
    q1, median, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - median)
    if len(pairs) >= MIN_PAIRS and win_share >= WIN_SHARE and gain > q3 - q1:
        return "improved", win_share
    if len(parent) < 2 or (q3 - q1) / abs(median) > bound:
        every_run_better = all(sign * (new - old) > 0 for new in change for old in parent)
        return ("unchanged" if every_run_better else "unresolved"), win_share
    if -gain > bound * abs(median):
        return "regressed", win_share
    return "unchanged", win_share


def load_values(paths: Sequence[Path]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> [value per file]`` over the e2e metrics."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        payload = json.loads(Path(path).read_text())
        for workload, result in payload["workloads"].items():
            for metric, data in result.get("e2e", {}).items():
                values.setdefault((workload, metric), []).append(data["value"])
    return values


def compare(
    parent_paths: Sequence[Path], change_paths: Sequence[Path], spec: Dict
) -> List[Dict]:
    """One row per workload x end-to-end metric of BENCHMARK.json."""
    parent = load_values(parent_paths)
    change = load_values(change_paths)
    workloads = [workload["name"] for workload in spec["workloads"]]
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            old, new = parent.get(key), change.get(key)
            if not old or not new or len(old) != len(new):
                rows.append({"workload": workload, "metric": metric["name"],
                             "verdict": "missing"})
                continue
            result, wins = verdict(old, new, metric["better"], metric["bound"])
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "parent": quartiles(old),
                "change": quartiles(new),
                "wins": wins,
                "verdict": result,
            })
    return rows


def format_rows(rows: List[Dict]) -> str:
    def side(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    lines = [f"{'workload':<30} {'metric':<18} {'parent med [q1, q3]':<30} "
             f"{'change med [q1, q3]':<30} {'wins':>5}  verdict"]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<30} {row['metric']:<18} {'-':<30} "
                         f"{'-':<30} {'-':>5}  missing")
            continue
        lines.append(
            f"{row['workload']:<30} {row['metric']:<18} {side(row['parent']):<30} "
            f"{side(row['change']):<30} {row['wins']:>5.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("give as many change files as parent files")
    rows = compare(args.parent, args.change, json.loads(BENCHMARK.read_text()))
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
