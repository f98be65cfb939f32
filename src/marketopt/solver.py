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
``Trajectory`` and ``ControlGrid`` once, for the result.

The fine l2 law returns its node controls and their splits: the steps over
which its unclamped value crosses a bound (``junctions.junction_splits``).
Each forward pass splits the steps its controls declare, laid out once per
table (``junctions.split_layout``), and sums the P of its RK4 stages; the
cost is read off the final pass, from that sum, its controls and its layout
(``objectives._pass_cost``).  A blend of two tables declares the splits of
the law in it, so the passes split where the law kinks at every weight; the
start controls declare none, so the fine sweep's first pass, which only
seeds it, runs on whole steps, as the coarse l2 level does.  A pass under
controls and splits both unchanged bit for bit reuses the one before whole
(``_integrate``), so a converged bang-bang sweep ends on a repeat with
residual 0.0 (at weight 1 without running the law, which would repeat);
any other pass runs whole from x0.

Both objectives first sweep the same scenario on a coarse grid, on rates
interpolated from the fine table.  l2 runs the l2 sweep on a grid COARSENING
times coarser (n=21 at n=175), whose law finds no junction: it only starts
the fine sweep, and on every preset and default sweep it takes as many
coarse and fine iterations as with them.  If it converges, the fine sweep
starts from the clamp law on the coarse state and adjoint, prolonged to the
fine nodes (``_prolongation``).  l1 runs the switch sweep on the switch grid
(n=43 at t_f = 7, at every fine n): an l1 sweep from zero controls, at
weight 1, whose steps that hold a switch are split at its time tau
(``junctions.switch_steps``) in both passes, so tau moves with the iterate,
not by nodes, until tol_delta or a repeat of its fine start
(``_placement``).  The fine sweep then starts from bang-bang controls that
switch at its taus, which the nodal fixed point most often repeats: it puts
each switch at the fine node just below its tau.  Either
starts from zero if its coarse sweep fails (for l1, the switch sweep gives
up: see ``_switch_sweep``) or the coarse grid would have under 2 intervals
or be no coarser than the fine one.  The fine residual is still first taken
against zero, so at least 2 fine iterations run (at the defaults, 2 on every
preset; scenario3-l1's answer is the cold start's bit for bit).

The returned controls are the optimality law on the last iterate, with its
splits.  The returned state, adjoint and cost are integrated once more under
exactly those controls (reusing the last pass, and its cost, as above), so
they form one consistent solution: re-integrating ``result.controls``
reproduces them bit for bit, and ``objectives.evaluate_cost`` the cost.
The law itself holds on the iterate one pass earlier, not exactly on the
returned pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .integrator import (
    NODES_PER_TIME_UNIT,
    ControlGrid,
    GridRates,
    IntegrationError,
    TimeGrid,
    Trajectory,
    _half_steps,
    _sample_times,
    backward_table,
    forward_table,
    sample_rates,
)
from .junctions import junction_splits, split_layout, switch_steps
from .model import _require_count
from .objectives import _pass_cost
from .pmp import bang_bang_terms, l2_law_table, switching_table
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
        _require_count("n", self.n)
        _require_count("max_iters", self.max_iters)
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
    iterations of the one coarse sweep (0 if none ran), a diverged one up to
    the iteration at which it diverged: the l2 sweep's for l2, the switch
    sweep's for l1, which also stops on a repeat of its fine start
    (``_switch_sweep``).  The other fields are the fine sweep's.
    junctions holds a (control index, tau) pair for every clamp junction
    that the returned controls split (``ControlGrid.splits``; none for
    bang-bang or unclamped controls).
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


def _law_on_grid(scenario: Scenario, x: np.ndarray, p: np.ndarray, u_prev: np.ndarray,
                 eps_singular: float, split: bool) -> tuple:
    """Pointwise optimality law on whole node columns: the control table, its
    splits (the l2 junctions if split, else none) and the l1 singular flags."""
    params, weights, n0 = scenario.params, scenario.weights, scenario.n0
    bounds = (params.u1_max, params.u2_max)
    if scenario.objective == "l2":
        u, w = l2_law_table(x, p, params, weights, n0)
        return u, junction_splits(w, bounds) if split else (), None
    phi = switching_table(x, p, params, weights, n0)
    u, singular = bang_bang_terms(phi, bounds, u_prev, eps_singular)
    return u, (), singular[:, 0] | singular[:, 1]  # faster than any(axis=1)


def _integrate(scenario: Scenario, u: np.ndarray, rates: GridRates, iteration: int,
               last=None, splits: tuple = ()):
    """State and adjoint tables under u split at splits, their layout (None if
    there are none) and the forward pass's P quadrature: those of last, an
    earlier pass's (u, x, p, layout, quadrature), if u and splits are both
    unchanged bit for bit (int64 views of u are compared, so a signed zero
    counts as a change; no theta is 0.0), else those of a whole new pass.  An
    IntegrationError diverges the sweep."""
    params, n0 = scenario.params, scenario.n0
    if (last is not None and (last[3].splits if last[3] else ()) == splits
            and np.array_equal(last[0].view(np.int64), u.view(np.int64))):
        return last[1:]
    layout = split_layout(splits, u, rates)
    us = _half_steps(u)
    try:
        x, quadrature = forward_table(scenario.x0, n0, us, params, rates, layout)
        p = backward_table((0.0, 0.0, 0.0), x, us, params, scenario.weights, rates, n0)
        return x, p, layout, quadrature
    except IntegrationError as err:
        message = f"sweep diverged at iteration {iteration}: {err}"
        raise DivergenceError(message, iteration) from err


def _sweep(scenario: Scenario, settings: SweepSettings, rates: GridRates, u_work,
           split: bool = True):
    """Iterate on the grid of rates from the controls u_work, which split no
    step, until the residual, taken first against a zero iterate, meets
    tol_delta or max_iters runs out (an iteration under unchanged controls and
    splits runs no pass: see ``_integrate``).  Each later pass splits the
    junctions of the l2 law that made its controls, blended or not, if split.

    Returns the law on the last iterate and its splits, every residual, the
    weight in force, the l1 singular flags, and the last iteration's pass: the
    controls u it integrated, with the state x, adjoint p, split layout and P
    quadrature under them.
    """
    prev, series = np.zeros((2, 8, rates.grid.n + 1))  # rows R, C, P, p1..p3, u1, u2
    history: list[float] = []
    weight, last, splits = settings.relaxation, None, ()
    for iteration in range(1, settings.max_iters + 1):
        u = u_work
        x, p, layout, quadrature = _integrate(scenario, u, rates, iteration, last, splits)
        if weight == 1.0 and last is not None and x is last[1]:
            # the law and series would repeat: l1 keeps u_prev where u holds it
            history.append(0.0)
            break
        u_law, splits, flags = _law_on_grid(scenario, x, p, u, settings.eps_singular, split)
        # at weight 1 the blend is u_law bit for bit: no law holds -0.0
        u_work = u_law if weight == 1.0 else weight * u_law + (1.0 - weight) * u
        series[:3], series[3:6], series[6:] = x.T, p.T, u_work.T
        history.append(_residual(prev, series))
        if history[-1] <= settings.tol_delta:
            break
        if iteration >= 3 and _grew(history) and weight == settings.relaxation:
            weight = settings.relaxation / 2.0
        prev, series = series, prev
        last = u, x, p, layout, quadrature
    return (u_law, splits), history, weight, flags, (u, x, p, layout, quadrature)


def _grew(history: list[float]) -> bool:
    """Whether the last residual grew, or stayed inf (see ``_residual``)."""
    return history[-1] > history[-2] or history[-1] == math.inf


@lru_cache(maxsize=1)  # one grid pair: computed once per sweep
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
    params = scenario.params
    phi = switching_table(x, p, params, scenario.weights, scenario.n0)
    u, singular = bang_bang_terms(phi, (params.u1_max, params.u2_max), 0.0, eps_singular)
    if singular.any():
        return None
    splits = switch_steps(phi, u)
    return None if splits is None else (u, splits)


def _switch_sweep(scenario: Scenario, settings: SweepSettings, rates: GridRates,
                  grid: TimeGrid):
    """The l1 sweep on the grid of rates from zero controls, at weight 1, with
    every step that holds a switch split at it in both passes, until the
    residual meets tol_delta or two laws in a row have one ``_placement`` on
    the fine grid.

    Returns the law on the last iterate (node controls and switch steps) and
    the iterations run; the law is None if the sweep cannot settle the
    switches (tested before a repeat): a law that ``_switch_law`` rejects, a
    residual that grows from the third iteration on, divergence, or max_iters.
    """
    prev, series = np.zeros((2, 8, rates.grid.n + 1))
    history: list[float] = []
    params, n0, zero = scenario.params, scenario.n0, (0.0, 0.0, 0.0)
    law, placement, nodes = (np.zeros((rates.grid.n + 1, 2)), []), None, grid.nodes()
    for iteration in range(1, settings.max_iters + 1):
        u, splits = law
        us = _half_steps(u)
        layout = split_layout(splits, u, rates)
        try:
            x, _ = forward_table(scenario.x0, n0, us, params, rates, layout)
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
        placement, before = _placement(*law, rates.grid, nodes), placement
        if placement == before:
            return law, iteration
        prev, series = series, prev
    return None, settings.max_iters


def _placement(u: np.ndarray, splits: list[tuple], coarse: TimeGrid,
               nodes: np.ndarray) -> tuple:
    """The bang-bang law (u, splits) of the coarse grid on the fine nodes:
    each control's first value, and per switch its control, the first node
    at or after tau and the later side's value."""
    taus = [coarse.t0 + (i + theta) * coarse.h for i, _, theta, _ in splits]
    firsts = np.searchsorted(nodes, taus).tolist()
    rows = u.tolist()
    return (tuple(rows[0]),
            tuple((c, k, rows[i + 1][c]) for (i, c, _, _), k in zip(splits, firsts)))


def _switch_start(u: np.ndarray, splits: list[tuple], coarse: TimeGrid,
                  grid: TimeGrid) -> np.ndarray:
    """The law (u, splits) of the coarse grid at the nodes of grid, placed by
    ``_placement``."""
    firsts, switches = _placement(u, splits, coarse, grid.nodes())
    start = np.empty((grid.n + 1, 2))
    start[:] = firsts
    for c, k, side in switches:  # each control's switches in time order
        start[k:, c] = side
    return start


def _coarse_start(scenario: Scenario, settings: SweepSettings, rates: GridRates):
    """The fine sweep's first controls, and the coarse iterations (see ``solve``)."""
    grid = rates.grid
    u_cold = np.zeros((grid.n + 1, 2))
    if scenario.objective == "l2":
        n = grid.n // COARSENING
    else:  # the switch grid: n=43 at t_f = 7, the same at every fine n
        n = 2 * round(NODES_PER_TIME_UNIT["l2"] * grid.t_f) // COARSENING
    if not 2 <= n < grid.n:
        return u_cold, 0
    coarse = replace(grid, n=n)
    # the coarse rates interpolate the fine table: no rate is sampled again
    ts, fine_ts = _sample_times(coarse), _sample_times(grid)
    beta, gamma = (np.interp(ts, fine_ts, r) for r in (rates.beta, rates.gamma))
    coarse_rates = GridRates(coarse, beta, gamma, rates.names)
    if scenario.objective == "l1":
        law, iterations = _switch_sweep(scenario, settings, coarse_rates, grid)
        return u_cold if law is None else _switch_start(*law, coarse, grid), iterations
    u_zero = np.zeros((coarse.n + 1, 2))
    try:
        _, history, _, _, (_, x, p, _, _) = _sweep(scenario, settings, coarse_rates, u_zero,
                                                   split=False)
    except DivergenceError as err:
        return u_cold, err.iteration
    if history[-1] > settings.tol_delta:
        return u_cold, len(history)
    indices, weights = _prolongation(coarse.n, grid.n)
    xp = np.einsum("jn,cjn->nc", weights, np.take(np.hstack((x, p)).T, indices, axis=1))
    u_start, _ = l2_law_table(xp[:, :3], xp[:, 3:], scenario.params, scenario.weights,
                              scenario.n0)
    return u_start, len(history)


def solve(scenario: Scenario, settings: SweepSettings) -> SolveResult:
    """Run the sweep to convergence (or max_iters) and return the last iterate."""
    grid = settings.grid_for(scenario)
    rates = sample_rates(scenario.beta, scenario.gamma, grid)
    u_start, coarse_iterations = _coarse_start(scenario, settings, rates)
    (u_law, splits), history, weight, flags, last = _sweep(scenario, settings, rates, u_start)
    x, p, layout, quadrature = _integrate(scenario, u_law, rates, len(history), last, splits)
    state, controls = Trajectory(grid, x), ControlGrid(grid, u_law, splits)
    interior = None
    if scenario.objective == "l1":
        bounds = (scenario.params.u1_max, scenario.params.u2_max)
        inside = (u_law > 1e-12) & (u_law < np.subtract(bounds, 1e-12))
        interior = float(np.mean(inside[:, 0] | inside[:, 1]))  # faster than any(axis=1)
    return SolveResult(
        state=state,
        costate=Trajectory(grid, p),
        controls=controls,
        cost=_pass_cost(scenario, quadrature, _half_steps(u_law), layout, grid.h),
        iterations=len(history),
        converged=history[-1] <= settings.tol_delta,
        residual_history=tuple(history),
        rates=rates,
        relaxation=weight,
        singular_flags=flags,
        interior_fraction=interior,
        coarse_iterations=coarse_iterations,
        junctions=tuple((c, grid.t0 + (i + theta) * grid.h) for i, c, theta, _ in splits),
    )
