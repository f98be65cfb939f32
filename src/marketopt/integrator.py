"""Fixed-step classical RK4 on a shared uniform grid.

The state system integrates forward from t0; the adjoint system integrates
backward from t_f re-using the already-computed state trajectory.  Controls
live on the grid nodes: the stages at the interval ends use the nodal
controls and the two midpoint stages use their average, which keeps fourth
order for smooth controls.  States needed at backward midpoints are the
average of the adjacent nodal states.

Both passes read beta and gamma from one table sampled per grid at the nodes
and midpoints (``sample_rates``).  The forward pass steps node by node, with
the stages of ``model.rhs_terms`` written out inline, operation for operation,
so its bits are those of calling that kernel per stage, on scalars or on
columns.  ``rk4_stages`` makes those calls on whole columns: from the nodes of
a trajectory it rebuilds every step's four stage states, which the cost rule
reads, and the node each step lands on.  The adjoint system is linear in p,
so the backward pass builds each step as an affine map, on whole blocks of
steps at once, and composes them by a scan.  Trajectory and ControlGrid share
one node-table check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, RateCallable, State, Weights, rhs_terms
from .pmp import Costate, costate_system

# Default intervals per unit time, per objective.  With the RK4 stage cost (see
# ``objectives``) the l2 presets at 50 per unit (n=350) come within 5.4e-9 of
# the n -> inf cost, closer than 200 per unit came with the trapezoid rule.  l1
# keeps 200: its bang-bang controls keep the cost second order, and at n=350
# its sweep halves its weight and stops on controls whose signs disagree with
# the switching values (acceptance criterion 4).
NODES_PER_TIME_UNIT = {"l2": 50, "l1": 200}

# Continuous trajectories stay nonnegative; anything below this after a step
# signals the step size is too coarse for the current rates.
NONNEG_TOLERANCE = 1e-12

# Backward RK4 steps composed per array pass; bounds the scan's memory.
BACKWARD_BLOCK = 256


class IntegrationError(RuntimeError):
    """Integration produced a non-finite or inadmissible state."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = t0 + i*h, i = 0..n, with h = (t_f - t0)/n."""

    t0: float
    t_f: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 intervals, got n={self.n}")
        if not (self.t_f > self.t0):
            raise ValueError(f"t_f must exceed t0, got [{self.t0}, {self.t_f}]")

    @property
    def h(self) -> float:
        return (self.t_f - self.t0) / self.n

    def nodes(self) -> np.ndarray:
        return self.t0 + np.arange(self.n + 1) * self.h


def default_grid(t_f: float, objective: str) -> TimeGrid:
    """Grid on [0, t_f] with the objective's NODES_PER_TIME_UNIT intervals per unit."""
    return TimeGrid(t0=0.0, t_f=t_f, n=round(NODES_PER_TIME_UNIT[objective] * t_f))


def _node_table(values, grid: TimeGrid, width: int, what: str) -> np.ndarray:
    """A read-only float copy of values, checked to be (n+1, width) and finite."""
    values = np.array(values, dtype=float)
    if values.shape != (grid.n + 1, width):
        raise ValueError(f"expected shape {(grid.n + 1, width)}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} values must all be finite")
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Values of a 3-component quantity at every grid node; rows are nodes.

    Columns are (R, C, P) for states and (p1, p2, p3) for adjoints.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _node_table(self.values, self.grid, 3, "trajectory")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class ControlGrid:
    """A (u1, u2) pair at every grid node; the sweep solver's unknown."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _node_table(self.values, self.grid, 2, "control")
        if values.min() < 0.0:
            raise ValueError("control values must be >= 0")
        object.__setattr__(self, "values", values)

    def within_bounds(self, params: ModelParams) -> bool:
        return bool((self.values <= (params.u1_max, params.u2_max)).all())


def zero_controls(grid: TimeGrid) -> ControlGrid:
    return ControlGrid(grid, np.zeros((grid.n + 1, 2)))


def _sample_times(grid: TimeGrid) -> np.ndarray:
    """The nodes and interval midpoints of grid, in time order."""
    ts = np.empty(2 * grid.n + 1)
    ts[0::2] = grid.nodes()
    ts[1::2] = ts[0:-1:2] + 0.5 * grid.h
    return ts


@dataclass(frozen=True, eq=False)
class GridRates:
    """beta and gamma at the nodes and interval midpoints of a grid.

    Every value must be finite and >= 0; names label the two rates in errors.
    """

    grid: TimeGrid
    beta_nodes: np.ndarray
    beta_mid: np.ndarray
    gamma_nodes: np.ndarray
    gamma_mid: np.ndarray
    names: tuple[str, str] = ("beta", "gamma")

    def __post_init__(self) -> None:
        n = self.grid.n
        ts = _sample_times(self.grid)
        for name, field in zip(self.names, ("beta", "gamma")):
            nodes = np.array(getattr(self, f"{field}_nodes"), dtype=float)
            mid = np.array(getattr(self, f"{field}_mid"), dtype=float)
            if nodes.shape != (n + 1,) or mid.shape != (n,):
                raise ValueError(f"{field} needs {n + 1} node and {n} midpoint values")
            values = np.empty_like(ts)
            values[0::2], values[1::2] = nodes, mid
            bad = ~(np.isfinite(values) & (values >= 0.0))
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"{name} is {float(values[i])!r} at t={ts[i]:.6g}; "
                    "rates must be finite and >= 0"
                )
            values.setflags(write=False)
            object.__setattr__(self, f"{field}_nodes", values[0::2])
            object.__setattr__(self, f"{field}_mid", values[1::2])


def sample_rates(beta: RateCallable, gamma: RateCallable, grid: TimeGrid) -> GridRates:
    """Sample both rates at the nodes and midpoints of grid, one call per point."""
    ts = _sample_times(grid)
    b = np.array([float(beta(t)) for t in ts])
    g = np.array([float(gamma(t)) for t in ts])
    names = (
        f"beta rate {getattr(beta, 'label', beta)}",
        f"gamma rate {getattr(gamma, 'label', gamma)}",
    )
    return GridRates(grid, b[0::2], b[1::2], g[0::2], g[1::2], names)


def rk4_forward(
    x0: State,
    u: ControlGrid,
    params: ModelParams,
    rates: GridRates,
    n0: float,
) -> Trajectory:
    """Integrate the state system over u.grid starting from x0."""
    grid = u.grid
    if rates.grid != grid:
        raise ValueError("controls and rates must share one grid")
    h = grid.h
    half = 0.5 * h
    sixth = h / 6.0
    u1, u2 = u.values[:, 0], u.values[:, 1]
    drive_n = (rates.beta_nodes + u2).tolist()
    drive_m = (rates.beta_mid + 0.5 * (u2[:-1] + u2[1:])).tolist()
    u1_m = (0.5 * (u1[:-1] + u1[1:])).tolist()
    u1 = u1.tolist()
    gamma_n, gamma_m = rates.gamma_nodes.tolist(), rates.gamma_mid.tolist()
    a1, a2 = params.alpha1, params.alpha2
    b1, b2 = 1.0 - a1, 1.0 - a2
    l1, l2 = params.lambda1, params.lambda2
    m1, m2 = -l1, -l2
    floor, inf = -NONNEG_TOLERANCE, math.inf

    R, C, P = x0.R, x0.C, x0.P
    rows = [(R, C, P)]
    steps = zip(
        u1, u1_m, u1[1:], drive_n, drive_m, drive_n[1:], gamma_n, gamma_m, gamma_n[1:]
    )
    for i, (ua, um, ub, da, dm, db, ga, gm, gb) in enumerate(steps, 1):
        s, d = da * P * R / n0, ua * P
        gR, gC = ga * R, ga * C
        kR1 = m2 * R + l1 * C - gR + a1 * d + a2 * s
        kC1 = m1 * C + l2 * R - gC + b2 * s + b1 * d
        kP1 = -s - d + gR + gC
        r, c, p = R + half * kR1, C + half * kC1, P + half * kP1
        s, d = dm * p * r / n0, um * p
        gR, gC = gm * r, gm * c
        kR2 = m2 * r + l1 * c - gR + a1 * d + a2 * s
        kC2 = m1 * c + l2 * r - gC + b2 * s + b1 * d
        kP2 = -s - d + gR + gC
        r, c, p = R + half * kR2, C + half * kC2, P + half * kP2
        s, d = dm * p * r / n0, um * p
        gR, gC = gm * r, gm * c
        kR3 = m2 * r + l1 * c - gR + a1 * d + a2 * s
        kC3 = m1 * c + l2 * r - gC + b2 * s + b1 * d
        kP3 = -s - d + gR + gC
        r, c, p = R + h * kR3, C + h * kC3, P + h * kP3
        s, d = db * p * r / n0, ub * p
        gR, gC = gb * r, gb * c
        kR4 = m2 * r + l1 * c - gR + a1 * d + a2 * s
        kC4 = m1 * c + l2 * r - gC + b2 * s + b1 * d
        kP4 = -s - d + gR + gC
        R += sixth * (kR1 + 2.0 * (kR2 + kR3) + kR4)
        C += sixth * (kC1 + 2.0 * (kC2 + kC3) + kC4)
        P += sixth * (kP1 + 2.0 * (kP2 + kP3) + kP4)
        # a cheap filter: the exact checks run only on states it rejects
        if not (R >= floor and C >= floor and P >= floor and R + C + P < inf):
            t = grid.t0 + i * h
            if not (math.isfinite(R) and math.isfinite(C) and math.isfinite(P)):
                raise IntegrationError(f"non-finite state at step {i} (t={t:.6g})", i)
            if min(R, C, P) < -NONNEG_TOLERANCE:
                raise IntegrationError(
                    f"state component below -{NONNEG_TOLERANCE:g} at step {i} "
                    f"(t={t:.6g}); reduce the step size h={h:.6g}",
                    i,
                )
        rows.append((R, C, P))
    return Trajectory(grid, np.array(rows))


def rk4_stages(
    x: Trajectory,
    u: ControlGrid,
    params: ModelParams,
    rates: GridRates,
    n0: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The RK4 step from every node of x under u, on whole columns.

    Returns (states, controls, stepped) with shapes (4, n, 3), (4, n, 2) and
    (n, 3).  states[k, i] and controls[k, i] are where stage k+1 of step i
    evaluates ``model.rhs_terms``: node i, the two midpoint predictions, then
    the end-point prediction, under u_i, the midpoint average twice, then
    u_{i+1}.  stepped[i] is node i advanced one step with the operations of
    ``rk4_forward``, so on a trajectory from that pass it is node i+1 bit for
    bit.
    """
    grid = x.grid
    if not grid == u.grid == rates.grid:
        raise ValueError("state, controls and rates must share one grid")
    h = grid.h
    xs, us = x.values[:-1], u.values
    u_mid = 0.5 * (us[:-1] + us[1:])
    controls = np.stack((us[:-1], u_mid, u_mid, us[1:]))
    betas = (rates.beta_nodes[:-1], rates.beta_mid, rates.beta_mid, rates.beta_nodes[1:])
    gammas = (
        rates.gamma_nodes[:-1], rates.gamma_mid, rates.gamma_mid, rates.gamma_nodes[1:]
    )
    states = np.empty((4, grid.n, 3))
    slopes = np.empty((4, grid.n, 3))
    states[0] = xs
    for k, reach in enumerate((0.5 * h, 0.5 * h, h, None)):
        terms = rhs_terms(*states[k].T, *controls[k].T, betas[k], gammas[k], params, n0)
        slopes[k] = np.column_stack(terms)
        if reach is not None:
            states[k + 1] = xs + reach * slopes[k]
    k1, k2, k3, k4 = slopes
    stepped = xs + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return states, controls, stepped


def _step_maps(at_nodes: np.ndarray, at_mid: np.ndarray, h: float) -> np.ndarray:
    """RK4 steps of (dp/dt, 0) = S @ (p, 1) with step -h, as 4x4 maps M_i.

    at_nodes holds S at nodes lo..hi and at_mid at the midpoints between
    them; (p_i, 1) = M_i @ (p_{i+1}, 1).
    """
    K1 = at_nodes[1:]
    K2 = at_mid - (0.5 * h) * (at_mid @ K1)
    K3 = at_mid - (0.5 * h) * (at_mid @ K2)
    K4 = at_nodes[:-1] - h * (at_nodes[:-1] @ K3)
    return np.eye(4) - (h / 6.0) * (K1 + 2.0 * (K2 + K3) + K4)


def rk4_backward(
    p_terminal: Costate,
    x: Trajectory,
    u: ControlGrid,
    params: ModelParams,
    weights: Weights,
    rates: GridRates,
    n0: float,
) -> Trajectory:
    """Integrate the adjoint system from t_f down to t0 along x and u.

    Each RK4 step is an affine map of p.  Per block of BACKWARD_BLOCK steps
    a log-depth scan forms the products M_i M_{i+1} ... M_{hi-1}, which map
    the block's top node to each of its nodes.  The result is stored
    forward-indexed; its final node equals p_terminal exactly.
    """
    if not x.grid == u.grid == rates.grid:
        raise ValueError("state, controls and rates must share one grid")
    grid = x.grid
    h = grid.h
    xs, us = x.values, u.values
    x_mid = 0.5 * (xs[:-1] + xs[1:])
    u_mid = 0.5 * (us[:-1] + us[1:])

    out = np.empty((grid.n + 1, 3))
    out[grid.n] = (p_terminal.p1, p_terminal.p2, p_terminal.p3)
    hi = grid.n
    with np.errstate(over="ignore", invalid="ignore"):
        while hi > 0:
            lo = max(0, hi - BACKWARD_BLOCK)
            at_nodes = costate_system(
                *xs[lo:hi + 1].T, *us[lo:hi + 1].T, rates.beta_nodes[lo:hi + 1],
                rates.gamma_nodes[lo:hi + 1], params, weights, n0,
            )
            at_mid = costate_system(
                *x_mid[lo:hi].T, *u_mid[lo:hi].T, rates.beta_mid[lo:hi],
                rates.gamma_mid[lo:hi], params, weights, n0,
            )
            maps = _step_maps(at_nodes, at_mid, h)
            span = 1
            while span < len(maps):
                maps[:-span] = maps[:-span] @ maps[span:]
                span *= 2
            out[lo:hi] = maps[:, :3, :3] @ out[hi] + maps[:, :3, 3]
            bad = ~np.isfinite(out[lo:hi]).all(axis=1)
            if bad.any():
                i = lo + int(np.flatnonzero(bad)[-1])
                raise IntegrationError(
                    f"non-finite adjoint at step {i} (t={grid.t0 + i * h:.6g})",
                    step=i,
                )
            hi = lo
    return Trajectory(grid, out)
