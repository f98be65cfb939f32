"""Fixed-step classical RK4 on a shared uniform grid.

The state system integrates forward from t0; the adjoint system integrates
backward from t_f re-using the already-computed state trajectory.  Controls
live on the grid nodes: the stages at the interval ends use the nodal
controls and the two midpoint stages use their average, which keeps fourth
order for smooth controls.  States needed at backward midpoints are the
average of the adjacent nodal states.

Both passes read beta and gamma from one table sampled per grid at the nodes
and midpoints (``sample_rates``).  The forward pass steps node by node on the
conserved total N = R + C + P of x0: it carries only R and P, with the stages
of ``model.rhs_terms`` written out inline, operation for operation, so its
bits are those of calling that kernel per stage, on scalars or on columns,
and it fills in C as N - R - P.  ``rk4_stages`` makes those calls on whole
columns: from the nodes of a trajectory it rebuilds every step's four stage
states, which the cost rule reads, and the node each step lands on.  The
adjoint system is linear in p, so the backward pass builds each step as an
affine map, on whole blocks of steps at once, and composes them in linear
work.  Trajectory and ControlGrid share one node-table check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, RateCallable, State, Weights, _require_total, rhs_terms
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

# Backward RK4 steps composed per block; bounds the memory of their 4x4 maps.
BACKWARD_BLOCK = 1024


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


def _on_total(rp: np.ndarray, total: float) -> np.ndarray:
    """(R, P) rows as (R, C, P) rows, with C = total - R - P."""
    R, P = rp[..., 0], rp[..., 1]
    return np.stack((R, total - R - P, P), axis=-1)


def rk4_forward(
    x0: State,
    u: ControlGrid,
    params: ModelParams,
    rates: GridRates,
) -> Trajectory:
    """Integrate the state system over u.grid from x0, whose total R + C + P is n0."""
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
    l1, m2 = params.lambda1, -params.lambda2
    floor = -NONNEG_TOLERANCE

    R, P, N = x0.R, x0.P, _require_total(x0)
    rows = [(R, P)]
    steps = zip(
        u1, u1_m, u1[1:], drive_n, drive_m, drive_n[1:], gamma_n, gamma_m, gamma_n[1:]
    )
    for i, (ua, um, ub, da, dm, db, ga, gm, gb) in enumerate(steps, 1):
        s, d = da * P * R / N, ua * P
        kR1 = m2 * R + l1 * (N - R - P) - ga * R + a1 * d + a2 * s
        kP1 = ga * (N - P) - s - d
        r, p = R + half * kR1, P + half * kP1
        s, d = dm * p * r / N, um * p
        kR2 = m2 * r + l1 * (N - r - p) - gm * r + a1 * d + a2 * s
        kP2 = gm * (N - p) - s - d
        r, p = R + half * kR2, P + half * kP2
        s, d = dm * p * r / N, um * p
        kR3 = m2 * r + l1 * (N - r - p) - gm * r + a1 * d + a2 * s
        kP3 = gm * (N - p) - s - d
        r, p = R + h * kR3, P + h * kP3
        s, d = db * p * r / N, ub * p
        kR4 = m2 * r + l1 * (N - r - p) - gb * r + a1 * d + a2 * s
        kP4 = gb * (N - p) - s - d
        R += sixth * (kR1 + 2.0 * (kR2 + kR3) + kR4)
        P += sixth * (kP1 + 2.0 * (kP2 + kP3) + kP4)
        # with N finite, this passes exactly the finite states with no
        # component below the floor
        if not (R >= floor and P >= floor and N - R - P >= floor):
            t, C = grid.t0 + i * h, N - R - P
            if not (math.isfinite(R) and math.isfinite(C) and math.isfinite(P)):
                raise IntegrationError(f"non-finite state at step {i} (t={t:.6g})", i)
            raise IntegrationError(
                f"state component below -{NONNEG_TOLERANCE:g} at step {i} "
                f"(t={t:.6g}); reduce the step size h={h:.6g}",
                i,
            )
        rows.append((R, P))
    values = _on_total(np.array(rows), N)
    values[0] = x0.R, x0.C, x0.P
    return Trajectory(grid, values)


def rk4_stages(
    x: Trajectory,
    u: ControlGrid,
    params: ModelParams,
    rates: GridRates,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The RK4 step from every node of x under u, on whole columns.

    Returns (states, controls, stepped) with shapes (4, n, 3), (4, n, 2) and
    (n, 3).  states[k, i] and controls[k, i] are where stage k+1 of step i
    evaluates ``model.rhs_terms``: node i, the two midpoint predictions, then
    the end-point prediction, under u_i, the midpoint average twice, then
    u_{i+1}.  stepped[i] is node i advanced one step with the operations of
    ``rk4_forward``, with the total of x's first node as n0 and N, so on a
    trajectory from that pass it is node i+1 bit for bit.
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
    N = _require_total(State(*x.values[0].tolist()))
    rp = xs[:, 0::2]
    stages, slopes = np.empty((2, 4, grid.n, 2))
    stages[0] = rp
    for k, reach in enumerate((0.5 * h, 0.5 * h, h, None)):
        terms = rhs_terms(
            *stages[k].T, *controls[k].T, betas[k], gammas[k], params, N, N
        )
        slopes[k] = np.column_stack(terms)
        if reach is not None:
            stages[k + 1] = rp + reach * slopes[k]
    k1, k2, k3, k4 = slopes
    stepped = rp + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    states = _on_total(stages, N)
    states[0] = xs
    return states, controls, _on_total(stepped, N)


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


def _suffix_products(maps: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The p rows of M_i M_{i+1} ... M_{m-1} @ (top, 1), i = 0..m-1.

    The m maps, bottom-padded with identities, split into about sqrt(m)
    chunks.  One matmul per chunk position forms every chunk's suffix
    products at once, small matvecs carry the chunk tops down, and one
    batched matvec finishes: m matmuls in about 2*sqrt(m) array passes.
    """
    size = math.isqrt(len(maps) - 1) + 1
    pad = -len(maps) % size
    chunks = np.concatenate((np.broadcast_to(np.eye(4), (pad, 4, 4)), maps))
    chunks = chunks.reshape(-1, size, 4, 4)
    for j in range(size - 2, -1, -1):
        chunks[:, j] = chunks[:, j] @ chunks[:, j + 1]
    tops = [np.append(top, 1.0)]
    for chunk in chunks[:0:-1]:
        tops.append(chunk[0] @ tops[-1])
    rows = chunks[:, :, :3] @ np.array(tops[::-1])[:, None, :, None]
    return rows.reshape(-1, 3)[pad:]


def rk4_backward(
    p_terminal: Costate,
    x: Trajectory,
    u: ControlGrid,
    params: ModelParams,
    weights: Weights,
    rates: GridRates,
) -> Trajectory:
    """Integrate the adjoint system from t_f down to t0 along x and u.

    Each RK4 step is an affine map of p.  Per block of BACKWARD_BLOCK steps
    ``_suffix_products`` applies the products M_i M_{i+1} ... M_{hi-1} to the
    block's top node, in linear work.  The result is stored forward-indexed;
    its final node equals p_terminal exactly.  The model's n0 is the total of
    x's first node, which on a trajectory from ``rk4_forward`` is x0's.
    """
    if not x.grid == u.grid == rates.grid:
        raise ValueError("state, controls and rates must share one grid")
    grid, n0 = x.grid, _require_total(State(*x.values[0].tolist()))
    h = grid.h
    xs, us = x.values, u.values
    x_mid = 0.5 * (xs[:-1] + xs[1:])
    u_mid = 0.5 * (us[:-1] + us[1:])

    out = np.empty((grid.n + 1, 3))
    out[grid.n] = (p_terminal.p1, p_terminal.p2, p_terminal.p3)
    with np.errstate(over="ignore", invalid="ignore"):
        for hi in range(grid.n, 0, -BACKWARD_BLOCK):
            lo = max(0, hi - BACKWARD_BLOCK)
            at_nodes = costate_system(
                *xs[lo:hi + 1].T, *us[lo:hi + 1].T, rates.beta_nodes[lo:hi + 1],
                rates.gamma_nodes[lo:hi + 1], params, weights, n0,
            )
            at_mid = costate_system(
                *x_mid[lo:hi].T, *u_mid[lo:hi].T, rates.beta_mid[lo:hi],
                rates.gamma_mid[lo:hi], params, weights, n0,
            )
            out[lo:hi] = _suffix_products(_step_maps(at_nodes, at_mid, h), out[hi])
            bad = ~np.isfinite(out[lo:hi]).all(axis=1)
            if bad.any():
                i = lo + int(np.flatnonzero(bad)[-1])
                raise IntegrationError(
                    f"non-finite adjoint at step {i} (t={grid.t0 + i * h:.6g})",
                    step=i,
                )
    return Trajectory(grid, out)
