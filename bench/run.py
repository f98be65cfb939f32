"""Benchmark of the marketopt command line.

Run from the repository root:

    python3 bench/run.py --workload solve-presets --seed 0 --seconds 30 --trace 0

One process and one caller in a closed loop: a pass runs the workload's
command lines through ``marketopt.cli.main`` one after another, and the next
pass starts when the previous one returns.  Passes repeat until --seconds
have been spent, with at least two, so that the artifacts of every pass can
be compared byte for byte with those of the first.

Set-up (importing marketopt and building the workload's inputs) is timed
once in this process, before the first pass, and then in a fresh interpreter
after the first pass that ends at least --seconds / SETUP_RUNS after the
previous set-up; ``setup_s`` is the median.

With ``--trace 0`` every pass is untraced and the last line of standard
output is a JSON object with the end-to-end metrics.  With ``--trace 1``
untraced and traced passes alternate, and the JSON object holds the
per-layer metrics of the traced passes.  The spans are kept in memory and
written to ``bench/.work/<workload>/trace.json`` at the end.  Times are in
reference seconds: scaled by a speed kernel timed between commands (see
speed.py).  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MODULES = ("cli", "config", "experiments", "integrator", "model", "objectives",
           "pmp", "scenarios", "solver")
SOLVE_CALLERS = ("cli", "experiments")
NEAREST_KERNEL = 3
SETUP_RUNS = 8
SETUP_TIMEOUT_S = 60


@dataclass
class PassResult:
    """One pass.  Times are raw; multiply by ``scale`` for reference seconds.
    ``kernel`` holds the pass's (clock, speed kernel time) samples."""

    wall: float = 0.0
    elapsed: float = 0.0
    scale: float = 1.0
    kernel: list = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    solves_passed: int = 0
    solves: list = field(default_factory=list)
    rel_errs: list = field(default_factory=list)
    bytes_written: int = 0
    cells: int = 0
    trace: dict | None = None


class SolveProbe:
    """Times every ``solver.solve`` call and checks the result it returns.

    Unless ``sampling`` is off, it also times the speed kernel after each
    solve, so that a long command such as a sweep gets kernel times from
    throughout; ``kernel_spent`` is the time this took, which is not part of
    the command's wall time.
    """

    def __init__(self, modules: dict) -> None:
        self.records: list[workloads.SolveRecord] = []
        self.kernel_times: list[tuple[float, float]] = []
        self.kernel_spent = 0.0
        self.sampling = True
        for caller in SOLVE_CALLERS:
            module = modules[caller]
            module.solve = self._wrap(module.solve)

    def _wrap(self, solve):
        records, clock = self.records, time.perf_counter

        def probe(scenario, settings):
            start = clock()
            result = solve(scenario, settings)
            seconds = clock() - start
            u = result.controls.values
            params = scenario.params
            in_bounds = bool(
                u.min() >= 0.0
                and u[:, 0].max() <= params.u1_max
                and u[:, 1].max() <= params.u2_max
            )
            records.append(workloads.SolveRecord(
                seconds, result.iterations, result.converged, in_bounds,
                start + seconds / 2.0,
            ))
            if self.sampling:
                start = clock()
                self.kernel_times.append((start, speed.sample()))
                self.kernel_spent += clock() - start
            return result

        return probe


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--report", help="also write run details to this JSON file")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only time one set-up, building the inputs into DIR, and "
                        "print its time (used for the fresh-interpreter set-ups)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_marketopt() -> dict:
    """Import marketopt from this checkout; its modules by short name."""
    package = importlib.import_module("marketopt")
    modules = {name: importlib.import_module(f"marketopt.{name}") for name in MODULES}
    if Path(package.__file__).resolve().parent != SRC / "marketopt":
        raise ImportError(f"imported marketopt from {package.__file__}, not from {SRC}")
    return modules


def run_pass(modules, commands, probe, digests, tracer_=None) -> PassResult:
    """Run every command once; check each one after it returns.

    The speed kernel is timed before the first command, after every command
    and, in untraced passes, after every solve; the pass's scale is
    REFERENCE_S over the median of those times.
    """
    gc.collect()
    result = PassResult()
    started = time.perf_counter()
    kernel = [(time.perf_counter(), speed.sample())]
    probe.sampling = tracer_ is None
    for index, cmd in enumerate(commands):
        probe.records.clear()
        probe.kernel_times.clear()
        probe.kernel_spent = 0.0
        start = time.perf_counter()
        try:
            exit_code = modules["cli"].main(list(cmd.argv))
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc(file=sys.stderr)
            exit_code = None
        result.wall += time.perf_counter() - start - probe.kernel_spent
        kernel.extend(probe.kernel_times)
        outcome = cmd.check(exit_code, probe.records)
        if digests.setdefault(index, outcome.digest) == outcome.digest:
            result.failed += outcome.failed
            result.solves_passed += outcome.solves_passed
        else:  # artifacts differ from the first pass's: the rerun guarantee broke
            result.failed += outcome.ops
        result.ops += outcome.ops
        result.solves.extend(probe.records)
        result.rel_errs.extend(outcome.rel_errs)
        result.bytes_written += outcome.bytes_written
        if isinstance(cmd, workloads.SweepCommand):
            result.cells += outcome.ops
        kernel.append((time.perf_counter(), speed.sample()))
    result.kernel = kernel
    result.scale = speed.REFERENCE_S / statistics.median(k for _, k in kernel)
    if tracer_ is not None:
        result.trace = tracer_.take()
    result.elapsed = time.perf_counter() - started
    return result


def run_passes(
    modules, commands, probe, digests, deadline, between, tracer_=None
) -> tuple[list[PassResult], list[PassResult]]:
    """Untraced and traced passes: at least two in all, then more while the
    next one is expected to end before deadline.  Calls between() after each.

    With a tracer the passes alternate untraced and traced, so that both kinds
    run under the same machine conditions.
    """
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    while True:
        trace_next = tracer_ is not None and len(traced) < len(untraced)
        batch = traced if trace_next else untraced
        if len(untraced) + len(traced) >= 2 and (
            time.perf_counter() + statistics.median(p.elapsed for p in batch) > deadline
        ):
            return untraced, traced
        if not trace_next:
            untraced.append(run_pass(modules, commands, probe, digests))
        else:
            tracer_.install()
            try:
                traced.append(run_pass(modules, commands, probe, digests, tracer_))
            finally:
                tracer_.uninstall()
        between()


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(setup_times, passes) -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds (see speed.py).

    A pass's wall time is scaled by the pass's median kernel time; a solve's
    time by the median of the NEAREST_KERNEL kernel times taken nearest to it,
    which tracks bursts of contention within a long command better.
    """
    kernel = [sample for p in passes for sample in p.kernel]

    def solve_scale(at: float) -> float:
        nearest = sorted(kernel, key=lambda sample: abs(sample[0] - at))[:NEAREST_KERNEL]
        return speed.REFERENCE_S / statistics.median(k for _, k in nearest)

    walls = [p.wall * p.scale for p in passes]
    samples = [r.seconds * solve_scale(r.at) for p in passes for r in p.solves]
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "solves_per_s": (
            sum(p.solves_passed for p in passes) / len(passes) / statistics.median(walls),
            "1/s"),
        "solve_s.p50": (statistics.median(samples), "s"),
        "solve_s.p90": (_percentile(samples, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "passed_frac": ((attempted - failed) / attempted, "ratio"),
    }
    raw = [r.seconds for p in passes for r in p.solves]
    details = {
        "passes": len(passes),
        "setup_samples": setup_times,
        "solve_samples": len(samples),
        "failed_frac": failed / attempted,
        "scale_median": statistics.median(p.scale for p in passes),
        "raw_wall_s": statistics.median(p.wall for p in passes),
        "raw_solve_s.p50": statistics.median(raw),
        "pass_walls": walls,
    }
    return metrics, details


def _layer_metrics(p: PassResult) -> dict:
    """Per-layer metrics of one traced pass; times in reference seconds."""
    totals = tracer.layer_totals(p.trace)

    def get(name: str, key: str):
        value = totals.get(name, {}).get(key, 0)
        return value if key == "calls" else value * p.scale

    iterations = sum(r.iterations for r in p.solves)
    metrics = {}
    for name in ("scenarios.rate", "model.rhs_terms", "pmp.costate_terms"):
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in ("integrator.rk4_forward", "integrator.rk4_backward", "pmp.control_law",
                 "pmp.switching_functions.solver", "pmp.switching_functions.cli"):
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
        metrics[f"{name}.s"] = (get(name, "s"), "s")
    metrics.update({
        "solver.solves": (len(p.solves), "count"),
        "solver.iterations": (iterations, "count"),
        "solver.s_per_iteration": (get("solver.solve", "s") / max(iterations, 1), "s"),
        "solver.converged_ratio": (
            sum(r.converged for r in p.solves) / max(len(p.solves), 1), "ratio"),
        "solver.convergence_test.s": (get("solver.convergence_test", "s"), "s"),
        "solver.self_s": (get("solver.solve", "self_s"), "s"),
        "solver.cost_rel_err": (max(p.rel_errs, default=0.0), "ratio"),
        "objectives.evaluate_cost.calls": (get("objectives.evaluate_cost", "calls"), "count"),
        "objectives.evaluate_cost.s": (get("objectives.evaluate_cost", "s"), "s"),
        "experiments.cells": (p.cells, "count"),
        "experiments.strategy_controls.s": (get("experiments.strategy_controls", "s"), "s"),
        "experiments.compare_strategies.s": (
            get("experiments.compare_strategies", "s"), "s"),
        "experiments.self_s": (sum(
            get(name, "self_s") for name in ("experiments.run_sweep",
                                             "experiments.compare_strategies",
                                             "experiments.strategy_controls")), "s"),
        "config.s": (get("config.dump_config", "s") + get("config.load_config", "s"), "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.bytes_written": (p.bytes_written, "bytes"),
    })
    return metrics


def per_layer(untraced, traced) -> dict:
    """Low median over the traced passes of each layer metric, so that counts
    stay whole numbers."""
    per_pass = [_layer_metrics(p) for p in traced]
    metrics = {
        name: (statistics.median_low(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall * p.scale for p in traced)
        - statistics.median(p.wall * p.scale for p in untraced), "s")
    return metrics


def write_spans(path: Path, origin: float, traced, missing) -> None:
    doc = {
        "missing_targets": missing,
        "passes": [
            {
                "spans": [[name, sid, parent, start - origin, end - origin]
                          for name, sid, parent, start, end, _ in p.trace["spans"]],
                "leaves": p.trace["leaves"],
                "counts": p.trace["counts"],
            }
            for p in traced
        ],
    }
    path.write_text(json.dumps(doc) + "\n")


def set_up(args, work_dir: Path) -> tuple[dict, list, float]:
    """Import marketopt and build the workload's inputs into work_dir.

    Returns the modules, the commands and the time taken, scaled by the
    speed kernel's time right after.
    """
    start = time.perf_counter()
    modules = import_marketopt()
    commands = workloads.build(args.workload, args.seed, work_dir, workloads.load_reference())
    elapsed = time.perf_counter() - start
    return modules, commands, elapsed * speed.REFERENCE_S / speed.sample()


def set_up_in_child(args, work_dir: Path) -> float:
    """Time set_up in a fresh interpreter, as a user's command pays it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--setup-only", str(work_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "marketopt" / "__init__.py").is_file():
        print(f"error: no marketopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  -- imported before set-up is timed

    if args.setup_only:
        Path(args.setup_only).mkdir(parents=True, exist_ok=True)
        print(set_up(args, Path(args.setup_only))[2])
        return 0

    work_dir = ROOT / "bench" / ".work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    # The first set-up is this process's own.  The others run in fresh
    # interpreters, so that each pays every import, and are spread over the
    # run, so that their median does not rest on one moment's machine load.
    modules, commands, first_setup = set_up(args, work_dir)
    setup_times = [first_setup]
    last_setup = time.perf_counter()

    def between():
        nonlocal last_setup
        if not args.trace and time.perf_counter() - last_setup >= args.seconds / SETUP_RUNS:
            setup_times.append(set_up_in_child(args, work_dir / f"setup-{len(setup_times)}"))
            last_setup = time.perf_counter()

    probe = SolveProbe(modules)
    digests: dict[int, str] = {}
    origin = time.perf_counter()
    tracer_ = tracer.Tracer(modules) if args.trace else None
    passes, traced = run_passes(modules, commands, probe, digests,
                                origin + args.seconds, between, tracer_)
    if tracer_ is None:
        metrics, details = end_to_end(setup_times, passes)
    else:
        write_spans(work_dir / "trace.json", origin, traced, tracer_.missing)
        metrics = per_layer(passes, traced)
        details = {"passes": len(passes), "traced_passes": len(traced),
                   "missing_targets": tracer_.missing}
        passes += traced

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  "
          + "  ".join(f"{k} {v}" for k, v in details.items() if k != "pass_walls"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.report:
        Path(args.report).write_text(json.dumps({**result, "details": details}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
