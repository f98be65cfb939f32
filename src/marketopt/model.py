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
Every Runge-Kutta method keeps a linear invariant exactly, so the flow is
written on the total: ``flow_coefficients`` reads C as total - R - P and gives
(dR/dt, dP/dt), on scalars or node columns, as a flow bilinear in (R, P), with
its arguments in the order of the ``pmp`` kernels (controls, rates at t, then
params, n0 and the total).  ``pointwise.rhs_terms`` evaluates that form, and
``pointwise.dynamics`` wraps it for one point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

RateCallable = Callable[[float], float]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_count(name: str, value: int) -> None:
    """Reject a bool or a non-integer; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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


def flow_coefficients(u1, u2, beta_t, gamma_t, params: ModelParams, n0: float, total):
    """(a, b, c, e, g, k, f) of dR/dt = a*R + b*P + c + e*R*P, dP/dt = g + k*P - f*R*P.

    C is read as total - R - P; on scalars or columns, with no validation.
    """
    l1, f = params.lambda1, (beta_t + u2) / n0
    a, b = -(params.lambda2 + l1 + gamma_t), params.alpha1 * u1 - l1
    return a, b, l1 * total, params.alpha2 * f, gamma_t * total, -(gamma_t + u1), f


def _require_total(x: State) -> float:
    """R + C + P, constant along the flow, checked finite and > 0: n0, and
    C = total - R - P."""
    total = x.R + x.C + x.P
    if not math.isfinite(total):
        raise ValueError("initial total R + C + P must be finite")
    if total <= 0.0:
        raise ValueError(f"initial total R + C + P must be > 0, got {total}")
    return total
