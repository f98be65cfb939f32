"""Compare two results files, one row per workload and end-to-end metric.

Run from the repository root:

    python3 bench/compare.py bench/results/BENCH_baseline.json bench/results/BENCH_new.json

The first file is the parent, the second the change.  Runs are paired by
seed.  Each row gives both sides' median and quartiles and a verdict,
tested in this order:

* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json, as a share of the parent's median.  On
  ``passed_frac`` also whenever the change's runs of the workload failed
  more operations in all than the parent's.
* unresolved: either side's spread (interquartile range over median) is
  wider than the bound, unless every change run reads better than every
  parent run.
* better: the change wins at least nine tenths of the pairs (ties count for
  neither), and its median beats the parent's by more than the parent's own
  interquartile range.  Never on a workload where the change failed more
  operations than the parent; such a row reads "same".
* same: none of the above.

A header line per workload gives each side's failed and attempted
operations, summed over its untraced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _cell(values: dict[int, float]) -> str:
    q1, median, q3 = quartiles(list(values.values()))
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(parent: dict[int, float], change: dict[int, float], bound: float,
            lower_is_better: bool, more_failures: bool) -> tuple[str, int, int]:
    """Verdict, pairs won by the change, and pairs compared."""
    sign = -1.0 if lower_is_better else 1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    a_q1, a_med, a_q3 = quartiles(list(parent.values()))
    b_q1, b_med, b_q3 = quartiles(list(change.values()))
    gain = sign * (b_med - a_med)
    if -gain > bound * abs(a_med):
        return "worse", wins, len(seeds)
    spreads = [(a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
               (b_q3 - b_q1) / abs(b_med) if b_med else 0.0]
    every_run_better = min(sign * b for b in change.values()) > max(
        sign * a for a in parent.values())
    if max(spreads) > bound and not every_run_better:
        return "unresolved", wins, len(seeds)
    if not more_failures and seeds and wins >= 0.9 * len(seeds) and gain > a_q3 - a_q1:
        return "better", wins, len(seeds)
    return "same", wins, len(seeds)


def failures(doc: dict, workload: str) -> tuple[int, int]:
    """Failed and attempted operations over the workload's untraced runs."""
    runs = [r for r in doc["workloads"][workload]["runs"] if r["trace"] == 0]
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def untraced_values(doc: dict, workload: str, metric: str) -> dict[int, float]:
    runs = doc["workloads"].get(workload, {}).get("runs", [])
    return {r["seed"]: r["metrics"][metric] for r in runs
            if r["trace"] == 0 and metric in r["metrics"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = json.loads(args.parent.read_text())
    change = json.loads(args.change.read_text())

    print(f"{'workload':<14} {'metric':<13} {'unit':<5} "
          f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'wins':>6} {'bound':>6}  verdict")
    for workload in parent["workloads"]:
        if workload not in change["workloads"]:
            print(f"{workload:<14} (missing from {args.change})")
            continue
        a_failed, a_attempted = failures(parent, workload)
        b_failed, b_attempted = failures(change, workload)
        more_failures = b_failed > a_failed
        print(f"{workload:<14} failed/attempted: parent {a_failed}/{a_attempted}, "
              f"change {b_failed}/{b_attempted}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = untraced_values(parent, workload, name)
            b = untraced_values(change, workload, name)
            if not a or not b:
                print(f"{workload:<14} {name:<13} (no runs on one side)")
                continue
            result, wins, pairs = verdict(a, b, metric["bound"],
                                          metric["better"] == "lower", more_failures)
            if name == "passed_frac" and more_failures:
                result = "worse"
            print(f"{workload:<14} {name:<13} {metric['unit']:<5} "
                  f"{_cell(a):>34} {_cell(b):>34} "
                  f"{wins:>2}/{pairs:<3} {metric['bound']:>6}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
