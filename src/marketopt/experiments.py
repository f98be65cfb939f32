"""Strategy comparison and parameter sweeps.

Four control strategies are costed on identical grids: no control, a fixed
constant pair, a heuristic that follows the uncontrolled trajectory (the three
fixed ones built by ``strategy_controls`` from one uncontrolled pass), and the
converged sweep optimum.  Sweeps re-run the comparison over a range of one
parameter in ``_SWEEPS`` (defection rate gamma, control weight kappa2, pull
rate beta, or horizon t_f) and tabulate the cost of every (value, strategy) cell.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat
from math import isfinite, nan

import numpy as np

from .integrator import (
    ControlGrid,
    IntegrationError,
    Trajectory,
    rk4_forward,
    sample_rates,
    zero_controls,
)
from .objectives import evaluate_cost
from .scenarios import Constant, Scenario
from .solver import DivergenceError, SolveResult, SweepSettings, solve


class StrategyKind(Enum):
    NO_CONTROL = "no-control"
    CONSTANT = "constant"
    FOLLOW_HEURISTIC = "follow-heuristic"
    OPTIMAL = "optimal"


ALL_STRATEGIES = tuple(StrategyKind)

# Each sweepable parameter: its default sample points and its allowed range
# (None: the values need only be > 0).
_SWEEPS: dict[str, tuple[tuple[float, ...], tuple[float, float] | None]] = {
    "gamma": (tuple(round(0.1 * k, 10) for k in range(1, 13)), None),
    "kappa2": ((1.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0), None),
    "beta": ((0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0), (0.0, 3.0)),
    "tf": ((4.0, 6.0, 8.0, 10.0, 12.0, 14.0), (4.0, 14.0)),
}

SWEEP_PARAMETERS = tuple(_SWEEPS)


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, its sample points, and the strategies to cost.

    The one judge of a sweep: each error starts with the field it rejects.
    """

    parameter: str
    values: tuple[float, ...]
    base: Scenario
    strategies: tuple[StrategyKind, ...] = ALL_STRATEGIES

    def __post_init__(self) -> None:
        default_sweep_values(self.parameter)  # rejects an unknown param
        _check_entries("values", self.values)
        _check_entries("strategies", self.strategies)
        if any(not isfinite(v) for v in self.values):
            raise ValueError("values must be finite")
        low, high = min(self.values), max(self.values)
        bounds = _SWEEPS[self.parameter][1]
        if bounds is None and low <= 0.0:
            raise ValueError(f"values must be > 0 for {self.parameter}")
        if bounds is not None and not bounds[0] <= low <= high <= bounds[1]:
            lo, hi = bounds
            raise ValueError(f"values must lie in [{lo:g}, {hi:g}] for {self.parameter}")


def _check_entries(name: str, entries: tuple) -> None:
    """Reject an empty list field name, or one that repeats an entry."""
    if not entries:
        raise ValueError(f"{name} must not be empty")
    if len(set(entries)) < len(entries):
        raise ValueError(f"{name} must not repeat an entry")


def default_sweep_values(parameter: str) -> tuple[float, ...]:
    if parameter not in _SWEEPS:
        raise ValueError(f"param must be one of {SWEEP_PARAMETERS}, got {parameter!r}")
    return _SWEEPS[parameter][0]


@dataclass(frozen=True)
class ComparisonRow:
    parameter: str | None
    value: float | None
    strategy: StrategyKind
    cost: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def cost_of(self, strategy: StrategyKind, value: float | None = None) -> float:
        for row in self.rows:
            if row.strategy is strategy and (value is None or row.value == value):
                return row.cost
        raise KeyError(f"no row for {strategy} at value {value!r}")


def strategy_controls(
    kind: StrategyKind, scenario: Scenario, free: Trajectory
) -> ControlGrid:
    """Control grid of a fixed strategy on the grid of the uncontrolled run free.

    free is the scenario's trajectory under zero controls.  The constant
    strategy spends half of each control's cap; the heuristic follows free:
    u1 tracks the fraction of potential customers still available, u2 tracks
    the product of the potential and referral fractions (the word-of-mouth
    contact pressure).  Optimal controls come from solve, not from here.
    """
    grid = free.grid
    if kind is StrategyKind.NO_CONTROL:
        return zero_controls(grid)
    params = scenario.params
    cap1 = (1.0 - params.alpha1) * params.u1_max
    cap2 = params.alpha2 * params.u2_max
    if kind is StrategyKind.CONSTANT:
        u1, u2 = cap1 / 2.0, cap2 / 2.0
    elif kind is StrategyKind.FOLLOW_HEURISTIC:
        p_frac = free.values[:, 2] / scenario.n0
        r_frac = free.values[:, 0] / scenario.n0
        u1, u2 = cap1 * p_frac, cap2 * p_frac * r_frac
    else:
        raise ValueError(f"no fixed controls for strategy {kind!r}; use solve")
    u = np.empty((grid.n + 1, 2))
    u[:, 0], u[:, 1] = u1, u2
    return ControlGrid(grid, u)


def compare_strategies(
    scenario: Scenario,
    settings: SweepSettings,
    strategies: tuple[StrategyKind, ...] = ALL_STRATEGIES,
    parameter: str | None = None,
    value: float | None = None,
) -> ComparisonTable:
    """Cost every requested strategy on the solve grid; one table row each.

    A non-converged or diverged optimal solve is reported in its row rather
    than raised, so sweep tables keep every cell.  A fixed row whose pass fails
    reads nan, and all of them do if their shared uncontrolled pass fails.
    """
    _check_entries("strategies", strategies)
    optimal = StrategyKind.OPTIMAL
    rows: dict[StrategyKind, tuple[float, bool, int]] = {}
    rates = None
    if optimal in strategies:
        # solved first, so that the fixed strategies reuse its rate table
        try:
            result: SolveResult = solve(scenario, settings)
            rates = result.rates
            rows[optimal] = (result.cost, result.converged, result.iterations)
        except DivergenceError as err:
            rows[optimal] = (nan, False, err.iteration)
    fixed = [s for s in strategies if s is not optimal]
    rows.update(dict.fromkeys(fixed, (nan, False, 0)))
    if fixed:
        if rates is None:
            rates = sample_rates(scenario.beta, scenario.gamma, settings.grid_for(scenario))
        x0, params = scenario.x0, scenario.params
        with suppress(IntegrationError):
            free = rk4_forward(x0, zero_controls(rates.grid), params, rates)
            for strategy in fixed:
                with suppress(IntegrationError):
                    u = strategy_controls(strategy, scenario, free)
                    no_control = strategy is StrategyKind.NO_CONTROL
                    x = free if no_control else rk4_forward(x0, u, params, rates)
                    cost = evaluate_cost(scenario, x, u, rates)
                    rows[strategy] = (cost, True, 0)
    cells = [(s, *rows[s]) for s in ALL_STRATEGIES if s in rows]
    return ComparisonTable(tuple(ComparisonRow(parameter, value, *c) for c in cells))


def _run_cell(
    spec: SweepSpec, settings: SweepSettings, value: float
) -> tuple[ComparisonRow, ...]:
    base = spec.base
    if spec.parameter in ("gamma", "beta"):
        scenario = replace(base, **{spec.parameter: Constant(value)})
    elif spec.parameter == "kappa2":
        scenario = replace(base, weights=replace(base.weights, kappa2=value))
    else:
        # tf: move the horizon, re-normalize the state-cost weight to 1/t_f, and
        # keep the step size constant across horizons so costs stay comparable
        weights = replace(base.weights, kappa1=1.0 / value)
        scenario = replace(base, t_f=value, weights=weights)
        settings = replace(settings, n=max(2, round(value / (base.t_f / settings.n))))
    table = compare_strategies(
        scenario, settings, spec.strategies, spec.parameter, value
    )
    return table.rows


def run_sweep(
    spec: SweepSpec,
    settings: SweepSettings,
    workers: int = 1,
) -> ComparisonTable:
    """Cost all (value, strategy) cells of the sweep.

    Cells are independent solves; with workers > 1 they run in parallel
    processes.  Rows are always assembled in (value, strategy) order, so the
    table is identical regardless of worker count.
    """
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_value = list(
                pool.map(_run_cell, repeat(spec), repeat(settings), spec.values)
            )
    else:
        per_value = [_run_cell(spec, settings, v) for v in spec.values]
    rows: list[ComparisonRow] = []
    for cell_rows in per_value:
        rows.extend(cell_rows)
    return ComparisonTable(tuple(rows))
