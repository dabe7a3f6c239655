"""Per-workload deltas between two sets of benchmark results.

    python3 bench/compare.py BEFORE AFTER

BEFORE and AFTER are result files written by ``bench/run.py``, or
directories holding them (``bench/results/`` of two checkouts).  For each
workload and metric found on both sides it prints the median over that
side's runs, e.g.::

    route: analysis.self_ms_per_op 66.4 -> 7.9 ms/op (-88.1%, 3 vs 3 runs)

Traced results give the per-layer metrics, untraced ones the end-to-end
metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path: Path) -> dict[str, dict[str, tuple[str, list[float]]]]:
    """workload -> metric -> (unit, values over the runs)."""
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    groups: dict[str, dict[str, tuple[str, list[float]]]] = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        metrics = groups.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, (metric["unit"], []))[1].append(
                metric["value"])
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-workload deltas between two sets of results.")
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    common = sorted(before.keys() & after.keys())
    if not common:
        print("no workload appears on both sides", file=sys.stderr)
        return 1
    for workload in common:
        for name, (unit, old) in before[workload].items():
            if name not in after[workload]:
                continue
            new = after[workload][name][1]
            x, y = statistics.median(old), statistics.median(new)
            change = f"{(y - x) / x:+.1%}" if x else "n/a"
            print(f"{workload}: {name} {x:.4g} -> {y:.4g} {unit} "
                  f"({change}, {len(old)} vs {len(new)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
