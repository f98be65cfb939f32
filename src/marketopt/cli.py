"""Command-line front end.

Three commands: ``solve`` writes the converged trajectory plus a JSON
summary, ``compare`` costs the four control strategies at one parameter
point, and ``sweep`` repeats the comparison over a parameter range.  CSV
cells are written with 17 significant digits and JSON numbers as the
shortest text that round-trips (``json.dumps``); both re-parse to the exact
in-memory doubles, and identical inputs produce byte-identical artifacts.

Exit status: 0 on success with convergence, 2 when a sweep solve did not
converge (artifacts are still written), 1 on unusable input or a diverged
solve.  Every command computes before it writes, so exit 1 writes nothing.

``main`` may be called any number of times in one process, as the
experiment scripts and the benchmark do.  It builds its parser once, on the
first call, and every later call parses with that parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, config_from_dict, dump_config, load_config
from .experiments import SWEEP_PARAMETERS, ComparisonTable, compare_strategies, run_sweep
from .pmp import OBJECTIVE_TAGS, switching_table
from .scenarios import PRESET_NAMES
from .solver import DivergenceError, SolveResult, SweepSettings, solve

TRAJECTORY_COLUMNS = ("t", "R", "C", "P", "u1", "u2", "p1", "p2", "p3", "phi1", "phi2")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_trajectory(result: SolveResult, cfg: RunConfig, out_dir: Path) -> None:
    scenario = cfg.scenario
    nodes, x, u, p = (result.state.grid.nodes(), result.state.values,
                      result.controls.values, result.costate.values)
    phi = switching_table(x, p, scenario.params, scenario.weights, scenario.n0)
    if cfg.out_format == "csv":
        # %.17g formats a float exactly as _fmt does, one call per row; read
        # through memoryviews, each row's floats are made as it is formatted
        row_format = ",".join(["%.17g"] * len(TRAJECTORY_COLUMNS))
        lines = [",".join(TRAJECTORY_COLUMNS)]
        columns = map(memoryview, (nodes, *x.T, *u.T, *p.T, *phi.T))
        lines.extend(row_format % row for row in zip(*columns))
        (out_dir / "trajectory.csv").write_text("\n".join(lines) + "\n")
    else:
        rows = np.column_stack((nodes, x, u, p, phi)).tolist()
        doc = {"columns": list(TRAJECTORY_COLUMNS), "rows": rows}
        (out_dir / "trajectory.json").write_text(json.dumps(doc) + "\n")


def _write_summary(result: SolveResult, cfg: RunConfig, out_dir: Path) -> None:
    knobs = asdict(cfg.settings)
    doc = {
        "cost": result.cost,
        "iterations": result.iterations,
        "converged": result.converged,
        "settings": {
            "objective": cfg.scenario.objective,
            "grid_n": knobs.pop("n"),
            **knobs,
            "t_f": cfg.scenario.t_f,
            "n0": cfg.scenario.n0,
        },
    }
    (out_dir / "summary.json").write_text(json.dumps(doc, indent=2) + "\n")


def _write_table(table: ComparisonTable, cfg: RunConfig, out_dir: Path) -> None:
    if cfg.out_format == "csv":
        lines = ["param_value,strategy,cost,converged,iterations"]
        for row in table.rows:
            value = "" if row.value is None else _fmt(row.value)
            cost = "nan" if math.isnan(row.cost) else _fmt(row.cost)
            converged = "true" if row.converged else "false"
            lines.append(
                f"{value},{row.strategy.value},{cost},{converged},{row.iterations}"
            )
        (out_dir / "table.csv").write_text("\n".join(lines) + "\n")
    rows = [
        {
            "param": row.parameter,
            "value": row.value,
            "strategy": row.strategy.value,
            "cost": None if math.isnan(row.cost) else row.cost,
            "converged": row.converged,
            "iterations": row.iterations,
        }
        for row in table.rows
    ]
    doc = {"rows": rows}
    (out_dir / "table.json").write_text(json.dumps(doc, indent=2) + "\n")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one: do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="marketopt",
        description="Optimal marketing-control policies for customer dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve one scenario and write its trajectory"),
        ("compare", "cost the four control strategies at one point"),
        ("sweep", "cost the strategies over a parameter range"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--preset", help=f"one of: {', '.join(PRESET_NAMES)}")
        cmd.add_argument("--config", help="path to a JSON run configuration")
        cmd.add_argument("--objective", choices=OBJECTIVE_TAGS)
        cmd.add_argument("--n", type=int, help="number of grid intervals")
        # each solver flag stores into the SweepSettings field it sets
        cmd.add_argument("--tol", type=float, dest="tol_delta", metavar="TOL",
                         help="relative convergence tolerance")
        cmd.add_argument("--relax", type=float, dest="relaxation", metavar="RELAX",
                         help="starting control update blend weight")
        cmd.add_argument("--max-iters", type=int, help="sweep iteration cap")
        cmd.add_argument("--out", help="output directory (default: out)")
        cmd.add_argument("--format", choices=("csv", "json"))
        if name == "sweep":
            cmd.add_argument("--param", choices=SWEEP_PARAMETERS,
                             help="parameter to sweep")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("use either --preset or --config, not both")
    if args.config:
        cfg = load_config(args.config, args.objective)
    elif args.preset:
        cfg = config_from_dict({"scenario": {"preset": args.preset}}, args.objective)
    else:
        raise ConfigError("one of --preset or --config is required")

    updates: dict = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.format is not None:
        updates["out_format"] = args.format
    if getattr(args, "param", None) is not None:
        updates["sweep_param"] = args.param
    knobs = {f.name: getattr(args, f.name, None) for f in fields(SweepSettings)}
    try:
        settings = replace(cfg.settings, **{k: v for k, v in knobs.items() if v is not None})
        cfg = replace(cfg, settings=settings, **updates)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if args.command == "sweep" and cfg.sweep_param is None:
        raise ConfigError("sweep needs --param or a sweep section in the config")
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # keep exit 2 reserved for non-convergence; argparse errors are input
        # errors (--help still exits 0)
        return 0 if not exc.code else 1
    try:
        cfg = _resolve_config(args)
        out_dir = Path(cfg.out_dir)
        if out_dir.exists():  # an existing file fails now, with mkdir's own error
            out_dir.mkdir(parents=True, exist_ok=True)
        # compute first, so that a run that fails writes nothing
        if args.command == "solve":
            result = solve(cfg.scenario, cfg.settings)
        elif args.command == "compare":
            table = compare_strategies(cfg.scenario, cfg.settings, cfg.sweep_strategies)
        else:
            table = run_sweep(cfg.sweep_spec(), cfg.settings)
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_config(cfg, out_dir / "config.json")
        if args.command == "solve":
            _write_trajectory(result, cfg, out_dir)
            _write_summary(result, cfg, out_dir)
            return 0 if result.converged else 2
        _write_table(table, cfg, out_dir)
        return 0 if all(row.converged for row in table.rows) else 2
    except (ValueError, OSError, DivergenceError) as err:  # includes ConfigError
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
