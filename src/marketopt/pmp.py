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
integrator, as one constant-matrix product.  Each control law is one
validation-free kernel on node tables: the l2 law ``l2_law_table``, also one
constant-matrix product, with the unclamped values whose bound crossings are
the clamp junctions, and the l1 law ``bang_bang_terms`` on ``switching_table``.
Their forms at one point, under validating wrappers (``costate_rhs``,
``control_law_l2``, ``switching_functions``, ``hamiltonian``), are in
``pointwise``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import ModelParams, Weights

OBJECTIVE_TAGS = ("l2", "l1")


@lru_cache(maxsize=8)
def _costate_coefficients(params: ModelParams, weights: Weights) -> np.ndarray:
    """The constant (6, 16) table T with S.reshape(..., 16) = f @ T, where f is
    the feature row (1, gamma, w1, w2, w3, u1) of ``costate_system``."""
    a1, a2, l1, l2 = params.alpha1, params.alpha2, params.lambda1, params.lambda2
    spread = np.array((-a2, -(1.0 - a2), 1.0))  # the spread gap's coefficients
    T = np.zeros((6, 4, 4))  # (feature, row of S, column of S)
    T[0, 0, :2], T[0, 1, :2], T[0, 2, 3] = (l2, -l2), (-l1, l1), -weights.kappa1
    T[1, 0, :3], T[1, 1, :3] = (1.0, 0.0, -1.0), (0.0, 1.0, -1.0)
    T[2, 0, :3], T[3, 1, :3], T[4, 2, :3] = spread, -spread, spread
    T[5, 2, :3] = -a1, -(1.0 - a1), 1.0  # the direct gap's coefficients
    T = T.reshape(6, 16)
    T.setflags(write=False)
    return T


def costate_system(R, C, P, u1, u2, beta_t, gamma_t, params: ModelParams,
                   weights: Weights, n0: float) -> np.ndarray:
    """Raw adjoint system on scalars or node columns; no validation.

    Returns S = [[A, b], [0, 0]] with the shape of R plus (4, 4), one per node,
    so that (dp/dt, 0) = S @ (p, 1) with b = (0, 0, -kappa1).  Every entry is
    linear in the features (1, gamma, w1, w2, w3, u1), where w1, w2 and w3
    weigh the spread gap p3 - alpha2*p1 - (1-alpha2)*p2 in each row, so S is
    one product of their table with ``_costate_coefficients``.
    """
    drive = (beta_t + u2) / (n0 * n0)
    features = np.empty((6,) + np.shape(R))  # filled by rows, read transposed
    features[0] = 1.0
    features[1] = gamma_t
    features[2] = drive * P * (C + P)
    features[3] = drive * P * R
    features[4] = drive * R * (C + R)
    features[5] = u1
    S = features.T @ _costate_coefficients(params, weights)
    return S.reshape(np.shape(R) + (4, 4))


def check_l2_weights(weights: Weights) -> None:
    """The quadratic law divides by kappa2 and kappa3."""
    if weights.kappa2 <= 0.0 or weights.kappa3 <= 0.0:
        raise ValueError("quadratic control law needs kappa2 > 0 and kappa3 > 0")


def _clamp(u, bound):
    # where() rather than maximum(): like max(0.0, u), it maps -0.0 to +0.0
    return np.minimum(np.where(u > 0.0, u, 0.0), bound)


@lru_cache(maxsize=8)
def _gap_coefficients(params: ModelParams) -> np.ndarray:
    """The constant 3x2 table G whose columns, p @ G, are the direct gap
    p3 - alpha1*p1 - (1-alpha1)*p2 and the spread gap (alpha2 likewise)."""
    a1, a2 = params.alpha1, params.alpha2
    G = np.array(((-a1, -a2), (-(1.0 - a1), -(1.0 - a2)), (1.0, 1.0)))
    G.setflags(write=False)
    return G


def l2_law_table(x: np.ndarray, p: np.ndarray, params: ModelParams, weights: Weights,
                 n0: float) -> tuple[np.ndarray, np.ndarray]:
    """The clamped quadratic-cost law on (n+1, 3) state and adjoint tables: the
    (n+1, 2) control table, and the unclamped stationary table w that it
    clamps, with both gaps read off one product p @ G; no validation."""
    R, P = x[:, 0], x[:, 2]
    w = p @ _gap_coefficients(params)
    w[:, 0] *= P / (2.0 * weights.kappa2)
    w[:, 1] *= P * R / (2.0 * weights.kappa3 * n0)
    return _clamp(w, (params.u1_max, params.u2_max)), w


def switching_table(x: np.ndarray, p: np.ndarray, params: ModelParams, weights: Weights,
                    n0: float) -> np.ndarray:
    """Raw switching values on (n+1, 3) state and adjoint tables, or on one row
    of each: the (n+1, 2) table of (phi1, phi2); no validation."""
    R, P, p1, p2, p3 = x[..., 0], x[..., 2], p[..., 0], p[..., 1], p[..., 2]
    a1, a2, phi = params.alpha1, params.alpha2, np.empty(np.shape(R) + (2,))
    phi[..., 0] = weights.kappa2 + (a1 * p1 + (1.0 - a1) * p2 - p3) * P
    phi[..., 1] = weights.kappa3 + (a2 * p1 + (1.0 - a2) * p2 - p3) * P * R / n0
    return phi


def bang_bang_terms(phi, bound, previous, eps_singular: float):
    """Raw bang-bang law on scalars or node arrays: one control's, or both
    controls' on a ``switching_table`` with the bound pair (u1_max, u2_max).

    Returns the control and the deadband (singular) flags; no validation.
    """
    u = np.where(
        phi > eps_singular, 0.0, np.where(phi < -eps_singular, bound, previous)
    )
    return u, np.abs(phi) <= eps_singular


def running_cost(objective: str, P, u1, u2, weights: Weights):
    """kappa1*P + kappa2*u1^a + kappa3*u2^a on scalars or node arrays."""
    if objective == "l2":
        return weights.kappa1 * P + weights.kappa2 * u1 * u1 + weights.kappa3 * u2 * u2
    if objective == "l1":
        return weights.kappa1 * P + weights.kappa2 * u1 + weights.kappa3 * u2
    raise ValueError(f"objective must be one of {OBJECTIVE_TAGS}, got {objective!r}")
