"""Forward-backward sweep solver.

Each iteration integrates the state forward with the current controls,
integrates the adjoint backward along that state, evaluates the pointwise
optimality law at every node, and blends the fresh controls with the
previous iterate at the weight ``SweepSettings.relaxation`` (1 by default,
a plain fixed-point step).  The sweep converges only when the dynamics'
Lipschitz constant times the horizon is small enough, so a worst residual
(``_residual``) larger than the one before, or inf twice running, halves the
weight for the rest of the sweep (from the third iteration on: the first
residual is taken against a zero iterate).  That happens at most once: a
weight that kept halving would freeze the iterates and pass the stopping
test without a fixed point.  The loop stops as soon as the residual is <=
tol_delta.  It works on raw node tables and builds the checked
``Trajectory`` and ``ControlGrid`` once, for the result.  Each pass reuses
the one before (``_integrate``): under controls unchanged bit for bit it
runs none (so a converged bang-bang sweep ends on a repeat with residual
0.0), else its forward pass resumes where the controls changed.  A pass
carries its table's one layout of split steps (``junctions.split_layout``),
which the cost and ``SolveResult.junctions`` read off the final pass.

Both objectives first sweep the same scenario on a coarse grid, on rates
interpolated from the fine table.  l2 runs the l2 sweep on a grid COARSENING
times coarser (n=21 at n=175); if it converges, the fine sweep starts from
the clamp law on the coarse state and adjoint, prolonged to the fine nodes
(``_prolongation``).  l1 runs the switch sweep on the switch grid (n=43 at t_f = 7,
at every fine n): an l1 sweep from zero controls, at weight 1, whose steps
that hold a switch are split at its time tau (``junctions.switch_steps``) in
both passes, so tau moves with the iterate, not by nodes.  If it converges,
the fine sweep starts from bang-bang controls that switch at its taus, which
the nodal fixed point most often repeats: it puts each switch at the fine
node just below its tau.  If the switch sweep gives up (see
``_switch_sweep``), l1 starts from the bang-bang law on the prolonged l2
sweep, as l2 does.  Either starts from zero if its coarse sweep fails, the
coarse grid would have under 2 intervals or be no coarser than the fine one,
or ``Scenario`` rejects the l2 twin (kappa2 or kappa3 is 0).  The fine
residual is still first taken against zero, so at least 2 fine iterations
run (at the defaults, 2 on every preset; scenario3-l1's answer is the cold
start's bit for bit).

The returned controls are the optimality law on the last iterate.  The
returned state, adjoint and cost are integrated once more under exactly
those controls (reusing the last pass as above), so they form one consistent
solution: re-integrating ``result.controls`` reproduces them bit for bit.  The
law itself holds on the iterate one pass earlier, not exactly on the returned
pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .integrator import (
    ControlGrid,
    GridRates,
    IntegrationError,
    TimeGrid,
    Trajectory,
    _half_steps,
    _sample_times,
    backward_table,
    default_grid,
    forward_table,
    sample_rates,
)
from .junctions import REACH, junction_layout, split_layout, switch_steps
# under the name bench/tracer.py times
from .objectives import _laid_out_cost as evaluate_cost
from .pmp import bang_bang_terms, l2_law_terms, switching_terms
from .scenarios import Scenario

# An l2 sweep first runs on a grid this many times coarser than an l2 grid
# (see ``solve``).
COARSENING = 8


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
    and the command line fall back on: 25 intervals per unit time for l2
    (n=175 on the presets) and 200 for l1 (n=1400).

    relaxation is the starting weight on the fresh controls in the convex
    update; ``solve`` halves it once if the worst residual grows from the
    third iteration on, and reports the weight in force at the end as
    ``SolveResult.relaxation``.  Where the fine sweep itself must move a
    bang-bang switch, the full step can stall, and the halving rescues it
    (scenario3-l1 at n=350 ends at 0.5 after 8 iterations).
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
    more than 1e-12 inside both of its bounds.  coarse_iterations counts the
    iterations of the coarse sweeps (0 if none ran), a diverged one up to the
    iteration at which it diverged: the l2 sweep's for l2; for l1 the switch
    sweep's, plus the l2 sweep's if the switch sweep gave up.  The other
    fields are the fine sweep's.  junctions holds a (control index,
    tau) pair for every step of the returned controls that the integrator
    split at a clamp junction tau (none for bang-bang or unclamped controls).
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
    coarse_iterations: int = 0
    junctions: tuple[tuple[int, float], ...] = ()


def _residual(old: np.ndarray, new: np.ndarray) -> float:
    """The worst relative l1 change, sum|new - old| / sum|new|, over the rows.

    A row (series) that moves while its new values are all zero gives inf.
    On C-contiguous tables each row sum has the bits of that series' own sum.
    """
    changes = np.abs(new - old).sum(axis=1).tolist()
    scales = np.abs(new).sum(axis=1).tolist()
    worst = 0.0
    for change, scale in zip(changes, scales):
        if scale > 0.0:
            worst = max(worst, change / scale)
        elif change > 0.0:
            return math.inf
    return worst


def _law_on_grid(
    scenario: Scenario,
    x: np.ndarray,
    p: np.ndarray,
    u_prev: np.ndarray,
    eps_singular: float,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Pointwise optimality law on whole node columns; singular flags for l1."""
    R, _, P = x.T
    p1, p2, p3 = p.T
    params = scenario.params
    columns = (R, P, p1, p2, p3, params, scenario.weights, scenario.n0)
    if scenario.objective == "l2":
        return np.column_stack(l2_law_terms(*columns)), None
    phi1, phi2 = switching_terms(*columns)
    u1, singular1 = bang_bang_terms(phi1, params.u1_max, u_prev[:, 0], eps_singular)
    u2, singular2 = bang_bang_terms(phi2, params.u2_max, u_prev[:, 1], eps_singular)
    return np.column_stack((u1, u2)), singular1 | singular2


def _first_change(old: np.ndarray, new: np.ndarray) -> int | None:
    """The first node at which two control tables differ bit for bit, or None
    (their int64 views are compared, so a signed zero counts as a change)."""
    changed = old.view(np.int64).ravel() != new.view(np.int64).ravel()
    i = int(changed.argmax())
    return i // old.shape[1] if changed[i] else None


def _integrate(scenario: Scenario, u: np.ndarray, rates: GridRates, iteration: int,
               last=None):
    """State and adjoint tables under u, and u's junction layout, reusing
    last, an earlier pass's (u, x, p, layout): as they are if u is unchanged,
    else with the forward pass resumed from x and the backward pass in full;
    an IntegrationError diverges the sweep."""
    change = 0 if last is None else _first_change(last[0], u)
    if change is None:
        return last[1:]
    params, n0, us = scenario.params, scenario.n0, _half_steps(u)
    layout = junction_layout(u, rates, params, n0)
    # steps before change - REACH read only unchanged nodes
    head = last[1][:change + 1 - REACH] if change > REACH else None
    try:
        x = forward_table(scenario.x0, n0, us, params, rates, head, layout)
        p = backward_table((0.0, 0.0, 0.0), x, us, params, scenario.weights, rates, n0)
        return x, p, layout
    except IntegrationError as err:
        message = f"sweep diverged at iteration {iteration}: {err}"
        raise DivergenceError(message, iteration) from err


def _sweep(scenario: Scenario, settings: SweepSettings, rates: GridRates, u_work):
    """Iterate on the grid of rates from the controls u_work until the residual,
    taken first against a zero iterate, meets tol_delta or max_iters runs out
    (an iteration under unchanged controls runs no pass: see ``_integrate``).

    Returns the law on the last iterate, every residual, the weight in force,
    the l1 singular flags, and the last iteration's pass: the controls u it
    integrated, with the state x, adjoint p and junction layout under them.
    """
    prev, series = np.zeros((2, 8, rates.grid.n + 1))  # rows R, C, P, p1..p3, u1, u2
    history: list[float] = []
    weight, last = settings.relaxation, None
    for iteration in range(1, settings.max_iters + 1):
        u = u_work
        x, p, layout = _integrate(scenario, u, rates, iteration, last)
        u_law, flags = _law_on_grid(scenario, x, p, u, settings.eps_singular)
        u_work = weight * u_law + (1.0 - weight) * u
        series[:3], series[3:6], series[6:] = x.T, p.T, u_work.T
        history.append(_residual(prev, series))
        if history[-1] <= settings.tol_delta:
            break
        if iteration >= 3 and _grew(history) and weight == settings.relaxation:
            weight = settings.relaxation / 2.0
        prev, series = series, prev
        last = u, x, p, layout
    return u_law, history, weight, flags, (u, x, p, layout)


def _grew(history: list[float]) -> bool:
    """Whether the last residual grew, or stayed inf (see ``_residual``)."""
    return history[-1] > history[-2] or history[-1] == math.inf


@lru_cache(maxsize=2)  # an l2 and an l1 grid pair: computed once per sweep
def _prolongation(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Interpolation from the m+1 nodes of a coarse grid to the n+1 nodes of a
    fine grid on the same interval, by the cubic through the 4 coarse nodes
    nearest each fine node (the quadratic through all 3 if m = 2).

    Returns the (width, n+1) indices of those coarse nodes and their Lagrange
    weights: fine = (weights * coarse[indices]).sum(axis=0).
    """
    width = min(4, m + 1)
    s = np.arange(n + 1) * m / n  # the fine nodes, in coarse steps
    first = np.clip(s.astype(np.intp) - 1, 0, m + 1 - width)
    a = s - first  # each fine node's place in its stencil
    b, c = a - 1.0, a - 2.0
    if width == 3:
        weights = (0.5 * b * c, -a * c, 0.5 * a * b)
    else:
        d = a - 3.0
        ab, cd = a * b, c * d
        weights = (cd * b / -6.0, cd * a / 2.0, ab * d / -2.0, ab * c / 6.0)
    tables = first + np.arange(width)[:, None], np.array(weights)
    for table in tables:
        table.setflags(write=False)
    return tables


def _switch_law(scenario: Scenario, x: np.ndarray, p: np.ndarray, eps_singular: float):
    """The bang-bang law on x and p and its switch steps
    (``junctions.switch_steps``), or None if a node lies in the deadband or a
    step holds two switches."""
    R, _, P = x.T
    p1, p2, p3 = p.T
    params = scenario.params
    phi = np.column_stack(
        switching_terms(R, P, p1, p2, p3, params, scenario.weights, scenario.n0))
    if (np.abs(phi) <= eps_singular).any():
        return None
    u = np.where(phi < 0.0, (params.u1_max, params.u2_max), 0.0)
    splits = switch_steps(phi, u)
    return None if splits is None else (u, splits)


def _switch_sweep(scenario: Scenario, settings: SweepSettings, rates: GridRates):
    """The l1 sweep on the grid of rates from zero controls, at weight 1, with
    every step that holds a switch split at it in both passes.

    Returns the law on the last iterate (node controls and switch steps) and
    the iterations run; the law is None if the sweep cannot settle the
    switches: a law that ``_switch_law`` rejects, a residual that grows from
    the third iteration on, divergence, or max_iters.
    """
    prev, series = np.zeros((2, 8, rates.grid.n + 1))
    history: list[float] = []
    params, n0, zero = scenario.params, scenario.n0, (0.0, 0.0, 0.0)
    law = np.zeros((rates.grid.n + 1, 2)), []
    for iteration in range(1, settings.max_iters + 1):
        u, splits = law
        us = _half_steps(u)
        layout = split_layout(splits, u, rates, params, n0) if splits else None
        try:
            x = forward_table(scenario.x0, n0, us, params, rates, None, layout)
            p = backward_table(zero, x, us, params, scenario.weights, rates, n0, layout)
        except IntegrationError:
            return None, iteration
        law = _switch_law(scenario, x, p, settings.eps_singular)
        if law is None:
            return None, iteration
        series[:3], series[3:6], series[6:] = x.T, p.T, law[0].T
        history.append(_residual(prev, series))
        if history[-1] <= settings.tol_delta:
            return law, iteration
        if iteration >= 3 and _grew(history):
            return None, iteration
        prev, series = series, prev
    return None, settings.max_iters


def _switch_start(u: np.ndarray, splits: list[tuple], coarse: TimeGrid,
                  grid: TimeGrid) -> np.ndarray:
    """The controls u of the coarse grid, bang-bang and switching at the taus
    of splits, at the nodes of grid (a node at a tau takes the later side)."""
    ts, start = grid.nodes(), np.empty((grid.n + 1, 2))
    for c in (0, 1):
        steps = [(i, theta) for i, d, theta, _ in splits if d == c]
        taus = [coarse.t0 + (i + theta) * coarse.h for i, theta in steps]
        sides = [u[0, c]] + [u[i + 1, c] for i, _ in steps]
        start[:, c] = np.take(sides, np.searchsorted(taus, ts, side="right"))
    return start


def _coarse_start(scenario: Scenario, settings: SweepSettings, rates: GridRates):
    """The fine sweep's first controls, and the coarse iterations (see ``solve``)."""
    grid = rates.grid
    u_cold = np.zeros((grid.n + 1, 2))
    if scenario.objective == "l2":
        n = grid.n // COARSENING
    else:  # the switch grid: n=43 at t_f = 7, the same at every fine n
        n = 2 * default_grid(grid.t_f, "l2").n // COARSENING
    if n >= grid.n:
        return u_cold, 0
    try:  # TimeGrid rejects under 2 intervals, Scenario zero l2 weights
        coarse, twin = replace(grid, n=n), replace(scenario, objective="l2")
    except ValueError:
        return u_cold, 0
    # the coarse rates interpolate the fine table: no rate is sampled again
    ts, fine_ts = _sample_times(coarse), _sample_times(grid)
    beta, gamma = (np.interp(ts, fine_ts, r) for r in (rates.beta, rates.gamma))
    coarse_rates = GridRates(coarse, beta, gamma, rates.names)
    iterations = 0
    if scenario.objective == "l1":
        law, iterations = _switch_sweep(scenario, settings, coarse_rates)
        if law is not None:
            return _switch_start(*law, coarse, grid), iterations
    u_zero = np.zeros((coarse.n + 1, 2))
    try:
        _, history, _, _, (_, x, p, _) = _sweep(twin, settings, coarse_rates, u_zero)
    except DivergenceError as err:
        return u_cold, iterations + err.iteration
    iterations += len(history)
    if history[-1] > settings.tol_delta:
        return u_cold, iterations
    indices, weights = _prolongation(coarse.n, grid.n)
    xp = np.einsum("jn,cjn->nc", weights, np.take(np.hstack((x, p)).T, indices, axis=1))
    u_start, _ = _law_on_grid(scenario, xp[:, :3], xp[:, 3:], u_cold, settings.eps_singular)
    return u_start, iterations


def solve(scenario: Scenario, settings: SweepSettings) -> SolveResult:
    """Run the sweep to convergence (or max_iters) and return the last iterate."""
    grid = settings.grid_for(scenario)
    rates = sample_rates(scenario.beta, scenario.gamma, grid)
    u_start, coarse_iterations = _coarse_start(scenario, settings, rates)
    u_law, history, weight, flags, last = _sweep(scenario, settings, rates, u_start)
    x, p, layout = _integrate(scenario, u_law, rates, len(history), last)
    state, controls = Trajectory(grid, x), ControlGrid(grid, u_law)
    interior = None
    if scenario.objective == "l1":
        bounds = (scenario.params.u1_max, scenario.params.u2_max)
        inside = (u_law > 1e-12) & (u_law < np.subtract(bounds, 1e-12))
        interior = float(np.mean(np.any(inside, axis=1)))
    return SolveResult(
        state=state,
        costate=Trajectory(grid, p),
        controls=controls,
        cost=evaluate_cost(scenario, state, controls, rates, layout),
        iterations=len(history),
        converged=history[-1] <= settings.tol_delta,
        residual_history=tuple(history),
        rates=rates,
        relaxation=weight,
        singular_flags=flags,
        interior_fraction=interior,
        coarse_iterations=coarse_iterations,
        junctions=() if layout is None else tuple(
            (c, grid.t0 + (i + theta) * grid.h) for i, c, theta, _ in layout.splits),
    )
