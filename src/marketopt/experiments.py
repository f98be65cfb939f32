"""Strategy comparison and parameter sweeps.

Four control strategies are costed on identical grids: no control, a fixed
constant pair, a heuristic that follows the uncontrolled trajectory, and the
converged sweep optimum.  Sweeps re-run the comparison over a range of one
parameter (defection rate gamma, control weight kappa2, pull rate beta, or
horizon t_f) and tabulate the cost of every (value, strategy) cell.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat
from math import isfinite, nan

import numpy as np

from .integrator import (
    ControlGrid,
    GridRates,
    IntegrationError,
    Trajectory,
    rk4_forward,
    sample_rates,
    zero_controls,
)
from .model import Weights
from .objectives import evaluate_cost
from .scenarios import Constant, Scenario
from .solver import DivergenceError, SolveResult, SweepSettings, solve


class StrategyKind(Enum):
    NO_CONTROL = "no-control"
    CONSTANT = "constant"
    FOLLOW_HEURISTIC = "follow-heuristic"
    OPTIMAL = "optimal"


ALL_STRATEGIES = tuple(StrategyKind)

SWEEP_PARAMETERS = ("gamma", "kappa2", "beta", "tf")

# Default sample points for each sweepable parameter.
GAMMA_VALUES = tuple(round(0.1 * k, 10) for k in range(1, 13))
KAPPA2_VALUES = (1.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0)
BETA_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
TF_VALUES = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0)

_DEFAULT_VALUES = {
    "gamma": GAMMA_VALUES,
    "kappa2": KAPPA2_VALUES,
    "beta": BETA_VALUES,
    "tf": TF_VALUES,
}

# Documented sample ranges; gamma and kappa2 only need positivity.
_RANGES = {"beta": (0.0, 3.0), "tf": (4.0, 14.0)}


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, its sample points, and the strategies to cost."""

    parameter: str
    values: tuple[float, ...]
    base: Scenario
    strategies: tuple[StrategyKind, ...] = ALL_STRATEGIES

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"parameter must be one of {SWEEP_PARAMETERS}, got {self.parameter!r}"
            )
        if not self.values:
            raise ValueError("values must be non-empty")
        if any(not isfinite(v) for v in self.values):
            raise ValueError("sweep values must be finite")
        if self.parameter in ("gamma", "kappa2") and min(self.values) <= 0.0:
            raise ValueError(f"{self.parameter} values must be > 0")
        if self.parameter in _RANGES:
            lo, hi = _RANGES[self.parameter]
            if min(self.values) < lo or max(self.values) > hi:
                raise ValueError(
                    f"{self.parameter} values must lie in [{lo:g}, {hi:g}]"
                )
        if not self.strategies:
            raise ValueError("strategies must be non-empty")


def default_sweep_values(parameter: str) -> tuple[float, ...]:
    if parameter not in _DEFAULT_VALUES:
        raise ValueError(
            f"parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}"
        )
    return _DEFAULT_VALUES[parameter]


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
    kind: StrategyKind, scenario: Scenario, rates: GridRates
) -> ControlGrid:
    """Control grid of a fixed strategy on the grid of the scenario's rates.

    The heuristic follows the uncontrolled trajectory: u1 tracks the fraction
    of potential customers still available, u2 tracks the product of the
    potential and referral fractions (the word-of-mouth contact pressure).
    Optimal controls come from solve, not from here.
    """
    grid = rates.grid
    params = scenario.params
    if kind is StrategyKind.NO_CONTROL:
        return zero_controls(grid)
    if kind is StrategyKind.CONSTANT:
        u = np.empty((grid.n + 1, 2))
        u[:, 0] = (1.0 - params.alpha1) * params.u1_max / 2.0
        u[:, 1] = params.alpha2 * params.u2_max / 2.0
        return ControlGrid(grid, u)
    if kind is StrategyKind.FOLLOW_HEURISTIC:
        free = rk4_forward(scenario.x0, zero_controls(grid), params, rates, scenario.n0)
        return _follow_heuristic(scenario, free)
    raise ValueError(f"no fixed controls for strategy {kind!r}; use solve")


def _follow_heuristic(scenario: Scenario, free: Trajectory) -> ControlGrid:
    """The follow-heuristic controls along the uncontrolled trajectory free."""
    params = scenario.params
    p_frac = free.values[:, 2] / scenario.n0
    r_frac = free.values[:, 0] / scenario.n0
    u = np.empty((free.grid.n + 1, 2))
    u[:, 0] = (1.0 - params.alpha1) * params.u1_max * p_frac
    u[:, 1] = params.alpha2 * params.u2_max * p_frac * r_frac
    return ControlGrid(free.grid, u)


def compare_strategies(
    scenario: Scenario,
    settings: SweepSettings,
    strategies: tuple[StrategyKind, ...] = ALL_STRATEGIES,
    parameter: str | None = None,
    value: float | None = None,
) -> ComparisonTable:
    """Cost every requested strategy on the solve grid; one table row each.

    A non-converged or diverged optimal solve is reported in its row rather
    than raised, so sweep tables keep every cell.
    """
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
    if rates is None:
        rates = sample_rates(scenario.beta, scenario.gamma, settings.grid_for(scenario))
    free = None  # one uncontrolled pass serves the no-control and heuristic rows
    for strategy in strategies:
        if strategy is optimal:
            continue
        try:
            if strategy is not StrategyKind.CONSTANT and free is None:
                zero = zero_controls(rates.grid)
                free = rk4_forward(scenario.x0, zero, scenario.params, rates, scenario.n0)
            if strategy is StrategyKind.FOLLOW_HEURISTIC:
                controls = _follow_heuristic(scenario, free)
            else:
                controls = strategy_controls(strategy, scenario, rates)
            if strategy is StrategyKind.NO_CONTROL:
                x = free
            else:
                x = rk4_forward(scenario.x0, controls, scenario.params, rates, scenario.n0)
            cost = evaluate_cost(scenario.objective, scenario.weights, x, controls)
            rows[strategy] = (cost, True, 0)
        except IntegrationError:
            rows[strategy] = (nan, False, 0)
    cells = [(s, *rows[s]) for s in ALL_STRATEGIES if s in rows]
    return ComparisonTable(tuple(ComparisonRow(parameter, value, *c) for c in cells))


def _scenario_at(spec: SweepSpec, value: float) -> Scenario:
    base = spec.base
    if spec.parameter == "gamma":
        return replace(base, gamma=Constant(value))
    if spec.parameter == "beta":
        return replace(base, beta=Constant(value))
    if spec.parameter == "kappa2":
        weights = Weights(base.weights.kappa1, value, base.weights.kappa3)
        return replace(base, weights=weights)
    # tf: move the horizon and re-normalize the state-cost weight to 1/t_f
    weights = Weights(1.0 / value, base.weights.kappa2, base.weights.kappa3)
    return replace(base, t_f=value, weights=weights)


def _settings_at(spec: SweepSpec, settings: SweepSettings, value: float) -> SweepSettings:
    if spec.parameter != "tf":
        return settings
    # keep the step size constant across horizons so costs stay comparable
    return replace(settings, n=max(2, round(value / (spec.base.t_f / settings.n))))


def _run_cell(
    spec: SweepSpec, settings: SweepSettings, value: float
) -> tuple[ComparisonRow, ...]:
    scenario = _scenario_at(spec, value)
    cell_settings = _settings_at(spec, settings, value)
    table = compare_strategies(
        scenario, cell_settings, spec.strategies, spec.parameter, value
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
