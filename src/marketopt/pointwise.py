"""Per-point forms of the model and adjoint algebra, and the RK4 stage reference.

Commands run the array kernels of ``model``, ``pmp`` and ``integrator``.
This module holds the same algebra at one point, under validating wrappers,
and ``rk4_stages``, which rebuilds a forward pass's RK4 stages on whole
columns; tests and reference scripts check the kernels against them.  No
command imports it: ``marketopt`` loads it on the first use of its names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import ControlGrid, GridRates, Trajectory, _half_steps, forward_table
from .junctions import SplitLayout, split_layout
from .model import (ModelParams, RateCallable, State, Weights, _require_finite,
                    _require_total, flow_coefficients)
from .pmp import _clamp, check_l2_weights, costate_system, running_cost, switching_table


@dataclass(frozen=True)
class ControlPair:
    """Marketing controls: direct recruitment u1, word-of-mouth boost u2."""

    u1: float
    u2: float

    def __post_init__(self) -> None:
        _require_finite("u1", self.u1)
        _require_finite("u2", self.u2)


@dataclass(frozen=True)
class Costate:
    """Adjoint values (p1, p2, p3) paired with (R, C, P)."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p3"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class SwitchingValues:
    """Coefficients of (u1, u2) in the control-linear Hamiltonian."""

    phi1: float
    phi2: float


def _require_n0(n0: float) -> float:
    """The population total n0 of the per-point wrappers: finite and > 0."""
    n0 = float(n0)
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"n0 must be finite and > 0, got {n0}")
    return n0


def _at_point(t: float, beta: RateCallable, gamma: RateCallable, n0: float):
    """Check a per-point call's t, n0 and rates; return (beta_t, gamma_t, n0)."""
    _require_finite("t", t)
    n0 = _require_n0(n0)
    beta_t = _require_finite("beta(t)", beta(t))
    gamma_t = _require_finite("gamma(t)", gamma(t))
    return beta_t, gamma_t, n0


def rhs_terms(R, P, u1, u2, beta_t, gamma_t, params: ModelParams, n0: float, total):
    """Raw (dR/dt, dP/dt), with C = total - R - P; no validation.

    Rates are already evaluated at t.  It evaluates the coefficient form of
    ``model.flow_coefficients``.  ``dynamics`` wraps it for one point, and
    ``integrator._rk4_steps``, its one inline copy, evaluates the form
    operation for operation, so a change here must be made there too.
    """
    a, b, c, e, g, k, f = flow_coefficients(u1, u2, beta_t, gamma_t, params, n0, total)
    rp = R * P
    return a * R + b * P + c + e * rp, g + k * P - f * rp


def dynamics(
    t: float,
    x: State,
    u: ControlPair,
    params: ModelParams,
    beta: RateCallable,
    gamma: RateCallable,
    n0: float,
) -> tuple[float, float, float]:
    """Evaluate (dR/dt, dC/dt, dP/dt) at time t.

    dC/dt is -(dR/dt + dP/dt), so the components sum to zero up to roundoff.
    """
    beta_t, gamma_t, n0 = _at_point(t, beta, gamma, n0)
    total = x.R + x.C + x.P
    dR, dP = rhs_terms(x.R, x.P, u.u1, u.u2, beta_t, gamma_t, params, n0, total)
    return dR, -(dR + dP), dP


def costate_rhs(
    t: float,
    x: State,
    p: Costate,
    u: ControlPair,
    params: ModelParams,
    weights: Weights,
    beta: RateCallable,
    gamma: RateCallable,
    n0: float,
) -> tuple[float, float, float]:
    """Evaluate (dp1/dt, dp2/dt, dp3/dt) at time t with N fixed to n0."""
    beta_t, gamma_t, n0 = _at_point(t, beta, gamma, n0)
    S = costate_system(x.R, x.C, x.P, u.u1, u.u2, beta_t, gamma_t, params, weights, n0)
    dp1, dp2, dp3, _ = (S @ np.array([p.p1, p.p2, p.p3, 1.0])).tolist()
    return dp1, dp2, dp3


def l2_law_terms(R, P, p1, p2, p3, params: ModelParams, weights: Weights, n0: float):
    """Raw clamped quadratic-cost law on scalars or node arrays; no validation."""
    direct_gap = p3 - params.alpha1 * p1 - (1.0 - params.alpha1) * p2
    spread_gap = p3 - params.alpha2 * p1 - (1.0 - params.alpha2) * p2
    u1 = direct_gap * P / (2.0 * weights.kappa2)
    u2 = spread_gap * P * R / (2.0 * weights.kappa3 * n0)
    return _clamp(u1, params.u1_max), _clamp(u2, params.u2_max)


def control_law_l2(
    x: State,
    p: Costate,
    params: ModelParams,
    weights: Weights,
    n0: float,
) -> ControlPair:
    """Quadratic-cost pointwise minimizer, clamped to the control box.

    u1 = clamp([p3 - alpha1*p1 - (1-alpha1)*p2] * P / (2*kappa2), 0, u1_max)
    u2 = clamp([p3 - alpha2*p1 - (1-alpha2)*p2] * P*R / (2*kappa3*n0), 0, u2_max)
    """
    check_l2_weights(weights)
    n0 = _require_n0(n0)
    u1, u2 = l2_law_terms(x.R, x.P, p.p1, p.p2, p.p3, params, weights, n0)
    return ControlPair(u1=float(u1), u2=float(u2))


def switching_functions(
    x: State,
    p: Costate,
    params: ModelParams,
    weights: Weights,
    n0: float,
) -> SwitchingValues:
    """Coefficients of u1 and u2 in the linear-cost Hamiltonian.

    phi1 = kappa2 + (alpha1*p1 + (1-alpha1)*p2 - p3) * P
    phi2 = kappa3 + (alpha2*p1 + (1-alpha2)*p2 - p3) * P*R/n0

    With vanishing terminal adjoints these end at (kappa2, kappa3), which
    forces both controls to switch off at the final time.
    """
    row, adjoint = np.array((x.R, x.C, x.P)), np.array((p.p1, p.p2, p.p3))
    phi = switching_table(row, adjoint, params, weights, _require_n0(n0))
    return SwitchingValues(*phi.tolist())


def hamiltonian(
    t: float,
    x: State,
    p: Costate,
    u: ControlPair,
    objective: str,
    params: ModelParams,
    weights: Weights,
    beta: RateCallable,
    gamma: RateCallable,
    n0: float,
) -> float:
    """Running cost plus adjoint-weighted flow, with N fixed to n0.

    On the conserved simplex n0 equals R + C + P; callers probing state
    gradients should re-tie n0 to the perturbed total so the adjoint system
    remains the exact negative gradient.
    """
    running = running_cost(objective, x.P, u.u1, u.u2, weights)
    dR, dC, dP = dynamics(t, x, u, params, beta, gamma, n0)
    return running + p.p1 * dR + p.p2 * dC + p.p3 * dP


def rk4_stages(x: Trajectory, u: ControlGrid, params: ModelParams,
               rates: GridRates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (sub-)step's four RK4 stage inputs, rebuilt on whole columns from x's nodes.

    Returns (states, controls, widths) with shapes (4, m, 3), (4, m, 2) and
    (m,): states[k, i] and controls[k, i] are where stage k+1 of step i
    evaluates ``rhs_terms``: node i, the two midpoint predictions, then the
    end-point prediction, under u_i, the midpoint average twice, then
    u_{i+1}; widths[i] is the step's width as a fraction of h.  A step that u
    splits is two sub-steps: the first takes the step's place, and the second
    ones follow the n steps, in step order, so m is n plus the number of
    splits.  A second sub-step starts where the forward pass lands the first.
    The total of x's first node is n0 and N.  It is the reference for the
    stage P sum that the forward pass returns (``objectives``).
    """
    if not x.grid == u.grid == rates.grid:
        raise ValueError("state, controls and rates must share one grid")
    x0 = State(*x.values[0].tolist())
    n0 = _require_total(x0)
    layout = split_layout(u.splits, u.values, rates)
    if layout is not None:  # x is the forward pass of u: running it again lands the taus
        forward_table(x0, n0, _half_steps(u.values), params, rates, layout)
    return _rk4_stages(x, u, params, rates, n0, layout)


def _rk4_stages(x: Trajectory, u: ControlGrid, params: ModelParams, rates: GridRates,
                N: float, layout: SplitLayout | None) -> tuple:
    """``rk4_stages`` on N and the layout of u's splits that the forward pass
    to x filled in; nothing is checked.  The (4, m, 3) state
    table is built once: each stage's R and P columns, then C = (N - R) - P
    on all four, then x's nodes over stage 1 of the n whole steps."""
    grid = x.grid
    n, h = grid.n, grid.h
    xs = x.values[:-1]
    steps = [] if layout is None else [split[0] for split in layout.splits]
    m = n + len(steps)
    cols = np.arange(m)
    cols[n:] = steps  # gathered as whole steps, then overwritten
    # half-step row read by stage k+1 of step i
    rows = np.array([[0], [1], [1], [2]]) + 2 * cols
    controls = _half_steps(u.values)[rows]
    betas, gammas = rates.beta[rows], rates.gamma[rows]
    states = np.empty((4, m, 3))
    R, C, P = states.transpose(2, 0, 1)  # (4, m) views
    R[0, :n], P[0, :n] = xs[:, 0], xs[:, 2]
    widths, span = np.ones(m), h
    if steps:
        R[0, n:], P[0, n:] = zip(*layout.taus)
        # the stage rows of every first sub-step, then of every second one
        at = steps + list(range(n, m))
        sub = np.array(layout.rows)[:, [[0, 1, 1, 2], [3, 4, 4, 5]]].transpose(2, 1, 0, 3)
        sub = sub.reshape(4, len(at), 4)
        controls[:, at], betas[:, at], gammas[:, at] = sub[..., :2], sub[..., 2], sub[..., 3]
        thetas = np.array([split[2] for split in layout.splits])
        widths[steps], widths[n:] = thetas, 1.0 - thetas
        span = np.full(m, h)
        span[steps], span[n:] = zip(*layout.widths)
    for k, reach in enumerate((0.5 * span, 0.5 * span, span)):
        dR, dP = rhs_terms(R[k], P[k], *controls[k].T, betas[k], gammas[k], params, N, N)
        R[k + 1], P[k + 1] = R[0] + reach * dR, P[0] + reach * dP
    np.subtract(N - R, P, out=C)
    states[0, :n] = xs
    return states, controls, widths
