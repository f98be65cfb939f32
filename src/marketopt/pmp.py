"""Pontryagin-principle algebra for the customer-dynamics control problem.

Minimizing ``integral of kappa1*P + kappa2*u1^a + kappa3*u2^a`` (a = 2 for the
quadratic objective, a = 1 for the linear one) subject to the model flow leads
to an adjoint triple (p1, p2, p3) paired with (R, C, P).  The adjoint system
is the negative state-gradient of the Hamiltonian

    H = running cost + p1*dR/dt + p2*dC/dt + p3*dP/dt,

with the mixing ratio P*R/N differentiated through N = R + C + P::

    dp1/dt = lambda2*(p1 - p2) + gamma(t)*(p1 - p3)
             + [p3 - alpha2*p1 - (1-alpha2)*p2]*(beta(t) + u2)*P*(C + P)/N^2
    dp2/dt = lambda1*(p2 - p1) + gamma(t)*(p2 - p3)
             - [p3 - alpha2*p1 - (1-alpha2)*p2]*(beta(t) + u2)*P*R/N^2
    dp3/dt = -kappa1 + [p3 - alpha1*p1 - (1-alpha1)*p2]*u1
             + [p3 - alpha2*p1 - (1-alpha2)*p2]*(beta(t) + u2)*R*(C + R)/N^2

The quadratic-cost minimizer is the clamped stationary point of H in u; the
linear-cost minimizer is bang-bang, driven by the switching values (the
coefficients of u1, u2 in H).  The linear running cost has zero state
gradient, so both objectives share the adjoint system above.

The adjoint system is linear in p, dp/dt = A(t) p + b, and
``costate_system`` builds (A, b) on whole node columns for the backward
integrator; ``costate_rhs`` wraps it for one point.  Likewise each pointwise
law is one validation-free kernel on scalars or node columns
(``l2_law_terms``, ``switching_terms``, ``bang_bang_terms``); the first two
have validating per-node wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ControlPair,
    ModelParams,
    RateCallable,
    State,
    Weights,
    _at_point,
    _require_finite,
    _require_n0,
    dynamics,
)

OBJECTIVE_TAGS = ("l2", "l1")


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


def costate_system(R, C, P, u1, u2, beta_t, gamma_t, params: ModelParams,
                   weights: Weights, n0: float) -> np.ndarray:
    """Raw adjoint system on scalars or node columns; no validation.

    Returns S = [[A, b], [0, 0]] with shape (..., 4, 4), one per node, so
    that (dp/dt, 0) = S @ (p, 1) with b = (0, 0, -kappa1).
    """
    a1, a2 = params.alpha1, params.alpha2
    l1, l2 = params.lambda1, params.lambda2
    drive = (beta_t + u2) / (n0 * n0)
    # weights of the spread gap p3 - alpha2*p1 - (1-alpha2)*p2 in each row
    w1 = drive * P * (C + P)
    w2 = drive * P * R
    w3 = drive * R * (C + R)
    S = np.zeros(np.shape(R) + (4, 4))
    S[..., 0, 0] = l2 + gamma_t - a2 * w1
    S[..., 0, 1] = -l2 - (1.0 - a2) * w1
    S[..., 0, 2] = w1 - gamma_t
    S[..., 1, 0] = a2 * w2 - l1
    S[..., 1, 1] = l1 + gamma_t + (1.0 - a2) * w2
    S[..., 1, 2] = -gamma_t - w2
    S[..., 2, 0] = -a1 * u1 - a2 * w3
    S[..., 2, 1] = -(1.0 - a1) * u1 - (1.0 - a2) * w3
    S[..., 2, 2] = u1 + w3
    S[..., 2, 3] = -weights.kappa1
    return S


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


def check_l2_weights(weights: Weights) -> None:
    """The quadratic law divides by kappa2 and kappa3."""
    if weights.kappa2 <= 0.0 or weights.kappa3 <= 0.0:
        raise ValueError("quadratic control law needs kappa2 > 0 and kappa3 > 0")


def _clamp(u, bound):
    # where() rather than maximum(): like max(0.0, u), it maps -0.0 to +0.0
    return np.minimum(np.where(u > 0.0, u, 0.0), bound)


def l2_law_terms(R, P, p1, p2, p3, params: ModelParams, weights: Weights, n0: float):
    """Raw clamped quadratic-cost law on scalars or node arrays; no validation."""
    direct_gap = p3 - params.alpha1 * p1 - (1.0 - params.alpha1) * p2
    spread_gap = p3 - params.alpha2 * p1 - (1.0 - params.alpha2) * p2
    u1 = direct_gap * P / (2.0 * weights.kappa2)
    u2 = spread_gap * P * R / (2.0 * weights.kappa3 * n0)
    return _clamp(u1, params.u1_max), _clamp(u2, params.u2_max)


def switching_terms(R, P, p1, p2, p3, params: ModelParams, weights: Weights, n0: float):
    """Raw switching values (phi1, phi2) on scalars or node arrays; no validation."""
    phi1 = weights.kappa2 + (params.alpha1 * p1 + (1.0 - params.alpha1) * p2 - p3) * P
    phi2 = (
        weights.kappa3
        + (params.alpha2 * p1 + (1.0 - params.alpha2) * p2 - p3) * P * R / n0
    )
    return phi1, phi2


def bang_bang_terms(phi, bound: float, previous, eps_singular: float):
    """Raw bang-bang law for one control on scalars or node arrays.

    Returns the control and the deadband (singular) flags; no validation.
    """
    u = np.where(
        phi > eps_singular, 0.0, np.where(phi < -eps_singular, bound, previous)
    )
    return u, np.abs(phi) <= eps_singular


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
    n0 = _require_n0(n0)
    phi1, phi2 = switching_terms(x.R, x.P, p.p1, p.p2, p.p3, params, weights, n0)
    return SwitchingValues(phi1=float(phi1), phi2=float(phi2))


def running_cost(objective: str, P, u1, u2, weights: Weights):
    """kappa1*P + kappa2*u1^a + kappa3*u2^a on scalars or node arrays."""
    if objective == "l2":
        return weights.kappa1 * P + weights.kappa2 * u1 * u1 + weights.kappa3 * u2 * u2
    if objective == "l1":
        return weights.kappa1 * P + weights.kappa2 * u1 + weights.kappa3 * u2
    raise ValueError(f"objective must be one of {OBJECTIVE_TAGS}, got {objective!r}")


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
