"""Write reference.json: the benchmark's inputs solved at a tight tolerance.

Run from the repository root (takes a few minutes):

    python3 bench/make_reference.py

Every input any seed can produce is covered: the five presets at the default
grid, scenario3-l1 at the l1-fine grid, and all four strategies of the
comparison-default preset at every point of the gamma lattice.  Each optimal
solve uses tol 1e-8 and must converge.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from marketopt.config import config_from_scenario  # noqa: E402
from marketopt.experiments import SweepSpec, run_sweep  # noqa: E402
from marketopt.scenarios import preset_scenario  # noqa: E402
from marketopt.solver import solve  # noqa: E402

import workloads  # noqa: E402

TOL = 1e-8
MAX_ITERS = 400


def main() -> int:
    solves = {}
    grids = [(p, workloads.DEFAULT_N) for p in workloads.PRESETS]
    grids.append(("scenario3-l1", workloads.L1_FINE_N))
    for preset, n in grids:
        cfg = config_from_scenario(
            preset_scenario(preset), grid_n=n, tol_delta=TOL, max_iters=MAX_ITERS
        )
        result = solve(cfg.scenario, cfg.sweep_settings())
        if not result.converged:
            raise SystemExit(f"{preset} at n={n} did not converge at tol {TOL:g}")
        solves[f"{preset}@{n}"] = result.cost
        print(f"{preset}@{n}: {result.cost!r} ({result.iterations} iterations)", flush=True)

    base = preset_scenario("comparison-default")
    cfg = config_from_scenario(base, grid_n=workloads.DEFAULT_N, tol_delta=TOL,
                               max_iters=MAX_ITERS)
    spec = SweepSpec(parameter="gamma", values=workloads.GAMMA_LATTICE, base=base)
    table = run_sweep(spec, cfg.sweep_settings())
    if not all(row.converged for row in table.rows):
        raise SystemExit(f"a gamma sweep cell did not converge at tol {TOL:g}")
    sweep = [[row.value, row.strategy.value, row.cost] for row in table.rows]
    print(f"gamma sweep: {len(sweep)} cells", flush=True)

    doc = {"tol_delta": TOL, "solve": solves, "sweep_gamma": sweep}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
