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

Every flow leaves one compartment and enters another, so R + C + P is a
conserved quantity; ``N0`` in the denominators is that constant total, fixed
up front rather than re-summed per call.

``rhs_terms`` is this system on scalars or node columns, in the form of the
``pmp`` kernels (states, controls, rates at t, then params and n0);
``dynamics`` wraps it for one point with the checks ``pmp.costate_rhs`` shares.
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


def rhs_terms(R, C, P, u1, u2, beta_t, gamma_t, params: ModelParams, n0: float):
    """Raw right-hand side on scalars or node columns; no validation.

    Rates are already evaluated at t.  ``dynamics`` wraps it for one point,
    and ``integrator.rk4_forward`` writes it out inline, operation for
    operation, so a change here must be made there too.
    """
    a1, a2 = params.alpha1, params.alpha2
    l1, l2 = params.lambda1, params.lambda2
    spread = (beta_t + u2) * P * R / n0
    direct = u1 * P
    dR = -l2 * R + l1 * C - gamma_t * R + a1 * direct + a2 * spread
    dC = -l1 * C + l2 * R - gamma_t * C + (1.0 - a2) * spread + (1.0 - a1) * direct
    dP = -spread - direct + gamma_t * R + gamma_t * C
    return dR, dC, dP


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

    The three components cancel pairwise, so they sum to zero up to
    roundoff for any admissible input.
    """
    beta_t, gamma_t, n0 = _at_point(t, beta, gamma, n0)
    return rhs_terms(x.R, x.C, x.P, u.u1, u.u2, beta_t, gamma_t, params, n0)


def total_population(x: State) -> float:
    """R + C + P; constant along any trajectory of the flow."""
    return x.R + x.C + x.P
