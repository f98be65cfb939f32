"""Controlled three-compartment customer-dynamics model.

The state splits a fixed population of size ``N0`` into referral customers
``R`` (customers who actively recruit), regular customers ``C`` and potential
customers ``P``.  Two marketing controls act on the recruitment flows:
``u1`` recruits potential customers directly (mass-media spend) and ``u2``
adds to the word-of-mouth spreading rate on top of the campaign pull rate
``beta(t)``; ``gamma(t)`` is the defection rate back to ``P``.

The governing system is::

    dR/dt = -lambda2*R + lambda1*C - gamma(t)*R + alpha1*u1*P
            + alpha2*(beta(t) + u2)*P*R/N0
    dC/dt = -lambda1*C + lambda2*R - gamma(t)*C
            + (1 - alpha2)*(beta(t) + u2)*P*R/N0 + (1 - alpha1)*u1*P
    dP/dt = -(beta(t) + u2)*P*R/N0 - u1*P + gamma(t)*(R + C)

Every flow leaves one compartment and enters another, so R + C + P is
conserved; ``N0`` in the denominators is that constant total, fixed up front.
Every Runge-Kutta method keeps a linear invariant exactly, so ``rhs_terms``
works on the total: it reads C as total - R - P and gives (dR/dt, dP/dt), on
scalars or node columns, in the form of the ``pmp`` kernels (states, controls,
rates at t, then params, n0 and the total), as a flow bilinear in (R, P) with
the coefficients of ``flow_coefficients``.  ``dynamics`` wraps it for one
point, with dC/dt = -(dR/dt + dP/dt) and the checks ``pmp.costate_rhs`` shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

RateCallable = Callable[[float], float]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_n0(n0: float) -> float:
    """The population total n0 of the per-point wrappers: finite and > 0."""
    n0 = float(n0)
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"n0 must be finite and > 0, got {n0}")
    return n0


@dataclass(frozen=True)
class ModelParams:
    """Structural rates and control bounds.

    alpha1/alpha2 are the referral shares of directly recruited and
    word-of-mouth recruits; lambda1/lambda2 the natural regular<->referral
    transition rates; u1_max/u2_max the admissible control bounds.
    """

    alpha1: float
    alpha2: float
    lambda1: float
    lambda2: float
    u1_max: float
    u2_max: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "lambda1", "lambda2", "u1_max", "u2_max"):
            value = _require_finite(name, getattr(self, name))
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.alpha1 > 1.0 or self.alpha2 > 1.0:
            raise ValueError("alpha1 and alpha2 must lie in [0, 1]")
        if self.u1_max <= 0.0 or self.u2_max <= 0.0:
            raise ValueError("control bounds u1_max, u2_max must be > 0")


@dataclass(frozen=True)
class State:
    """Population split (R, C, P): referral, regular, potential customers."""

    R: float
    C: float
    P: float

    def __post_init__(self) -> None:
        for name in ("R", "C", "P"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class ControlPair:
    """Marketing controls: direct recruitment u1, word-of-mouth boost u2."""

    u1: float
    u2: float

    def __post_init__(self) -> None:
        _require_finite("u1", self.u1)
        _require_finite("u2", self.u2)


@dataclass(frozen=True)
class Weights:
    """Cost weights (kappa1, kappa2, kappa3) for the running cost.

    kappa1 prices the stock of potential customers, kappa2/kappa3 the two
    control efforts.  Zero components are accepted so that degenerate
    diagnostic problems (e.g. a source-free adjoint) remain constructible;
    well-posed objectives use strictly positive weights.
    """

    kappa1: float
    kappa2: float
    kappa3: float

    def __post_init__(self) -> None:
        for name in ("kappa1", "kappa2", "kappa3"):
            value = _require_finite(name, getattr(self, name))
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")


def _at_point(t: float, beta: RateCallable, gamma: RateCallable, n0: float):
    """Check a per-point call's t, n0 and rates; return (beta_t, gamma_t, n0)."""
    _require_finite("t", t)
    n0 = _require_n0(n0)
    beta_t = _require_finite("beta(t)", beta(t))
    gamma_t = _require_finite("gamma(t)", gamma(t))
    return beta_t, gamma_t, n0


def flow_coefficients(u1, u2, beta_t, gamma_t, params: ModelParams, n0: float, total):
    """(a, b, c, e, g, k, f) of dR/dt = a*R + b*P + c + e*R*P, dP/dt = g + k*P - f*R*P.

    C is read as total - R - P; on scalars or columns, with no validation.
    """
    l1, f = params.lambda1, (beta_t + u2) / n0
    a, b = -(params.lambda2 + l1 + gamma_t), params.alpha1 * u1 - l1
    return a, b, l1 * total, params.alpha2 * f, gamma_t * total, -(gamma_t + u1), f


def rhs_terms(R, P, u1, u2, beta_t, gamma_t, params: ModelParams, n0: float, total):
    """Raw (dR/dt, dP/dt), with C = total - R - P; no validation.

    Rates are already evaluated at t.  It evaluates the coefficient form of
    ``flow_coefficients``.  ``dynamics`` wraps it for one point, and
    ``integrator.rk4_forward`` evaluates the form inline, operation for
    operation, so a change here must be made there too.
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


def _require_total(x: State) -> float:
    """R + C + P, constant along the flow, checked finite and > 0: n0, and
    C = total - R - P."""
    total = x.R + x.C + x.P
    if not math.isfinite(total):
        raise ValueError("initial total R + C + P must be finite")
    if total <= 0.0:
        raise ValueError(f"initial total R + C + P must be > 0, got {total}")
    return total
