"""Record a results file: every workload over several seeds, untraced and traced.

Run from the repository root:

    python3 bench/record.py --label baseline

This runs ``bench/run.py`` once per workload and seed 0-9 with tracing off, then
twice per workload at seed 0 with tracing on, one run at a time, and writes
``bench/results/BENCH_<label>.json``.  The file holds the environment, every
run's metrics, and per metric the median, the quartiles and the spread
(interquartile range over median).  It also prints one row per workload and
metric.  Compare two files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 300
TRACED_RUNS = 2
SEEDS = range(10)


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    report = ROOT / "bench" / ".work" / f"report-{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--report", str(report)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(report.read_text())
    return {
        "seed": seed,
        "trace": trace,
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
        "details": doc["details"],
    }


def summarize(runs: list[dict], units: dict[str, str]) -> dict:
    out = {}
    for name, unit in units.items():
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if not values:
            continue
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {
            "unit": unit,
            "n": len(values),
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "repeats": len(set(values)) == 1,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--note", action="append", default=[],
                        help="free-text note stored in the file (repeatable)")
    args = parser.parse_args(argv)

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {
        "label": args.label,
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment(),
        "run_seconds": seconds,
        "notes": args.note,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", flush=True)
        for _ in range(TRACED_RUNS):
            runs.append(run_once(workload, 0, seconds, 1))
        untraced = [r for r in runs if r["trace"] == 0]
        for r in untraced:
            r["metrics"]["failed_frac"] = r["failed"] / r["attempted"]
        doc["workloads"][workload] = {
            "runs": runs,
            "end_to_end": summarize(untraced, {**e2e_units, "failed_frac": "ratio"}),
            "per_layer": summarize([r for r in runs if r["trace"] == 1], layer_units),
        }

    out = BENCH_DIR / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"\n{'workload':<14} {'metric':<14} {'unit':<6} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, entry in doc["workloads"].items():
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name)
            print(f"{workload:<14} {name:<14} {s['unit']:<6} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.4f} "
                  f"{'' if bound is None else bound:>6}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
