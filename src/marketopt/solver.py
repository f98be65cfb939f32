"""Forward-backward sweep solver.

Each iteration integrates the state forward with the current controls,
integrates the adjoint backward along that state, evaluates the pointwise
optimality law at every node, and blends the fresh controls with the
previous iterate at the weight ``SweepSettings.relaxation`` (1 by default,
a plain fixed-point step).  The sweep converges only when the dynamics'
Lipschitz constant times the horizon is small enough, so a worst residual
larger than the one before halves the weight for the rest of the solve
(from the third iteration on: the first residual is taken against the zero
start).  That happens at most once: a weight that kept halving would freeze
the iterates and pass the stopping test without a fixed point.  The residual
of an iteration is the worst relative l1 change, between iterations, of the
eight tracked series (R, C, P, p1, p2, p3, u1, u2); the loop stops as soon as
it is <= tol_delta.

The returned controls are the optimality law on the last iterate.  The
returned state, adjoint and cost are integrated once more under exactly
those controls, so they form one consistent solution: re-integrating
``result.controls`` reproduces them bit for bit.  The law itself holds on
the iterate one pass earlier, not exactly on the returned pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import (
    ControlGrid,
    GridRates,
    IntegrationError,
    TimeGrid,
    Trajectory,
    rk4_backward,
    rk4_forward,
    sample_rates,
)
from .objectives import evaluate_cost
from .pmp import Costate, bang_bang_terms, l2_law_terms, switching_terms
from .scenarios import Scenario


class DivergenceError(RuntimeError):
    """The sweep produced non-finite values."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class SweepSettings:
    """Grid size and iteration knobs for the sweep.

    The fields are in the order of a config file's ``grid`` section (n)
    followed by its ``solver`` section.  n is the number of intervals on the
    scenario's horizon [0, t_f] (see ``grid_for``).  It has no default here;
    ``integrator.default_grid`` gives the per-objective one that config files
    and the command line fall back on: 50 intervals per unit time for l2
    (n=350 on the presets) and 200 for l1 (n=1400).

    relaxation is the starting weight on the fresh controls in the convex
    update; ``solve`` halves it once if the worst residual grows from the
    third iteration on, and reports the weight in force at the end as
    ``SolveResult.relaxation``.  The default 1 takes 5-6 iterations on the
    l2 presets at n=350, against 13 at 0.5.  On coarse bang-bang grids the
    full step stalls and the halving rescues it (scenario3-l1 at n=700 ends
    at 0.5 after 8 iterations).
    """

    n: int
    tol_delta: float = 1e-3
    relaxation: float = 1.0
    max_iters: int = 1000
    eps_singular: float = 1e-9

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 intervals, got n={self.n}")
        if not (0.0 < self.relaxation <= 1.0):
            raise ValueError(f"relaxation must be in (0, 1], got {self.relaxation}")
        if not 0.0 < self.tol_delta < math.inf:
            raise ValueError(f"tol_delta must be finite and > 0, got {self.tol_delta}")
        if not 0.0 <= self.eps_singular < math.inf:
            raise ValueError(
                f"eps_singular must be finite and >= 0, got {self.eps_singular}"
            )
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")

    def grid_for(self, scenario: Scenario) -> TimeGrid:
        """The solve grid: the scenario's horizon [0, t_f] in n steps."""
        return TimeGrid(0.0, scenario.t_f, self.n)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """The last iterate, and the rate table it was solved on.

    residual_history holds the residual of every iteration, so the sweep
    converged if and only if its last entry is <= tol_delta.  relaxation is
    the blending weight in force when the sweep stopped.  For l1,
    interior_fraction is the share of nodes where a returned control lies
    more than 1e-12 inside both of its bounds.
    """

    state: Trajectory
    costate: Trajectory
    controls: ControlGrid
    cost: float
    iterations: int
    converged: bool
    residual_history: tuple[float, ...]
    rates: GridRates
    relaxation: float
    singular_flags: np.ndarray | None = None
    interior_fraction: float | None = None


def _residual(old: np.ndarray, new: np.ndarray) -> float:
    """The worst relative l1 change, sum|new - old| / sum|new|, over the columns.

    A column that moves while its new values are all zero gives inf.
    """
    worst = 0.0
    for o, n in zip(old.T, new.T):
        change, scale = np.abs(n - o).sum(), np.abs(n).sum()
        if scale > 0.0:
            worst = max(worst, change / scale)
        elif change > 0.0:
            return math.inf
    return float(worst)


def _law_on_grid(
    scenario: Scenario,
    x: Trajectory,
    p: Trajectory,
    u_prev: np.ndarray,
    eps_singular: float,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Pointwise optimality law on whole node columns; singular flags for l1."""
    R, _, P = x.values.T
    p1, p2, p3 = p.values.T
    params = scenario.params
    columns = (R, P, p1, p2, p3, params, scenario.weights, scenario.n0)
    if scenario.objective == "l2":
        return np.column_stack(l2_law_terms(*columns)), None
    phi1, phi2 = switching_terms(*columns)
    u1, singular1 = bang_bang_terms(phi1, params.u1_max, u_prev[:, 0], eps_singular)
    u2, singular2 = bang_bang_terms(phi2, params.u2_max, u_prev[:, 1], eps_singular)
    return np.column_stack((u1, u2)), singular1 | singular2


def solve(scenario: Scenario, settings: SweepSettings) -> SolveResult:
    """Run the sweep to convergence (or max_iters) and return the last iterate."""
    grid = settings.grid_for(scenario)
    p_terminal = Costate(0.0, 0.0, 0.0)
    rates = sample_rates(scenario.beta, scenario.gamma, grid)

    u_work = np.zeros((grid.n + 1, 2))
    prev = np.zeros((grid.n + 1, 8))
    u_law = u_work
    flags = None
    history: list[float] = []
    converged = False
    iterations = 0
    weight = settings.relaxation

    def integrate(u: ControlGrid, iteration: int) -> tuple[Trajectory, Trajectory]:
        try:
            x = rk4_forward(scenario.x0, u, scenario.params, rates)
            p = rk4_backward(p_terminal, x, u, scenario.params, scenario.weights, rates)
        except IntegrationError as err:
            raise DivergenceError(
                f"sweep diverged at iteration {iteration}: {err}", iteration
            ) from err
        return x, p

    for iteration in range(1, settings.max_iters + 1):
        iterations = iteration
        x, p = integrate(ControlGrid(grid, u_work), iteration)
        u_law, flags = _law_on_grid(scenario, x, p, u_work, settings.eps_singular)
        u_work = weight * u_law + (1.0 - weight) * u_work
        current = np.hstack((x.values, p.values, u_work))
        history.append(_residual(prev, current))
        if history[-1] <= settings.tol_delta:
            converged = True
            break
        if iteration >= 3 and history[-1] > history[-2] and weight == settings.relaxation:
            weight = settings.relaxation / 2.0
        prev = current

    controls = ControlGrid(grid, u_law)
    x, p = integrate(controls, iterations)
    interior = None
    if scenario.objective == "l1":
        bounds = (scenario.params.u1_max, scenario.params.u2_max)
        inside = (u_law > 1e-12) & (u_law < np.subtract(bounds, 1e-12))
        interior = float(np.mean(np.any(inside, axis=1)))
    return SolveResult(
        state=x,
        costate=p,
        controls=controls,
        cost=evaluate_cost(scenario, x, controls, rates),
        iterations=iterations,
        converged=converged,
        residual_history=tuple(history),
        rates=rates,
        relaxation=weight,
        singular_flags=flags,
        interior_fraction=interior,
    )
