"""Time-varying rate functions and ready-made benchmark scenarios.

The built-in recruitment rates beta_1..beta_3 model increasing, decreasing
and seasonally fluctuating interest in recruiting; the defection rates
gamma_1..gamma_3 pair with them (constant, increasing, fluctuating).  All
rates are closed-form evaluators rather than sampled tables so that
half-step evaluations inside the integrator are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .model import ModelParams, State, Weights, _require_finite, _require_total
from .pmp import OBJECTIVE_TAGS, check_l2_weights


def _exp_or_inf(x: float) -> float:
    """math.exp, with its limit inf where the result overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# exp and cos of a float t for ``_curve``, which takes numpy's on arrays
_ON_FLOATS = SimpleNamespace(exp=_exp_or_inf, cos=math.cos)


class RateFunction:
    """Nonnegative time-varying rate, evaluable at any t."""

    sample = None  # or sample(ts): the rate at every time of a float array at once
    tag = None  # or the kind that names the family in a config file

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    @property
    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Constant(RateFunction):
    tag = "constant"

    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"constant rate must be finite and >= 0, got {self.value}")

    def __call__(self, t: float) -> float:
        return self.value

    def sample(self, ts: np.ndarray) -> np.ndarray:
        return np.full(ts.shape, self.value)

    @property
    def label(self) -> str:
        return f"{self.tag}({self.value:g})"


class _FourParameterRate(RateFunction):
    """A closed-form family ``_curve(t, xp)``: every field finite, the first two >= 0.
    Not a dataclass: it has no fields, and each family is a frozen dataclass."""

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        for name in names:
            _require_finite(name, getattr(self, name))
        first, second = names[:2]
        if getattr(self, first) < 0.0 or getattr(self, second) < 0.0:
            raise ValueError(f"{first} and {second} must be >= 0")

    def __call__(self, t: float) -> float:
        return self._curve(t, _ON_FLOATS)

    def sample(self, ts: np.ndarray) -> np.ndarray:
        return self._curve(ts, np)

    @property
    def label(self) -> str:
        shown = (f"{f.name}={getattr(self, f.name):g}" for f in fields(self)[:2])
        return f"{self.tag}({', '.join(shown)})"


@dataclass(frozen=True)
class LogisticIncreasing(_FourParameterRate):
    """base + gain / (1 + exp(-rate*(t - midpoint))); rises from ~base to base+gain."""

    tag = "logistic-increasing"

    base: float
    gain: float
    rate: float
    midpoint: float

    def _curve(self, t, xp):
        return self.base + self.gain / (1.0 + xp.exp(-self.rate * (t - self.midpoint)))


@dataclass(frozen=True)
class LogisticDecreasing(_FourParameterRate):
    """base + gain*(1 - 1/(1 + exp(-rate*(t - midpoint)))); falls to ~base."""

    tag = "logistic-decreasing"

    base: float
    gain: float
    rate: float
    midpoint: float

    def _curve(self, t, xp):
        return self.base + self.gain * (
            1.0 - 1.0 / (1.0 + xp.exp(-self.rate * (t - self.midpoint)))
        )


@dataclass(frozen=True)
class SinusoidalPeriodic(_FourParameterRate):
    """offset + amplitude*(1 - cos(omega*t + phase)); period 2*pi/omega."""

    tag = "sinusoidal"

    offset: float
    amplitude: float
    omega: float
    phase: float

    def _curve(self, t, xp):
        return self.offset + self.amplitude * (1.0 - xp.cos(self.omega * t + self.phase))


@dataclass(frozen=True)
class PiecewiseLinear(RateFunction):
    """User-supplied rate table with linear interpolation, clamped at the ends."""

    tag = "piecewise-linear"

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("need at least two (time, value) pairs of equal length")
        if not all(math.isfinite(t) for t in self.times):
            raise ValueError("times must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if any(v < 0.0 or not math.isfinite(v) for v in self.values):
            raise ValueError("rate values must be finite and >= 0")

    def __call__(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))

    def sample(self, ts: np.ndarray) -> np.ndarray:
        return np.interp(ts, self.times, self.values)

    @property
    def label(self) -> str:
        return f"{self.tag}({len(self.times)} knots)"


GAMMA_BASE = 0.10

_BETA_FUNCTIONS: dict[int, RateFunction] = {
    1: LogisticIncreasing(base=0.01, gain=0.99, rate=2.0, midpoint=4.0),
    2: LogisticDecreasing(base=0.01, gain=0.99, rate=2.0, midpoint=3.0),
    3: SinusoidalPeriodic(offset=0.01, amplitude=0.49, omega=2.0 * math.pi, phase=0.26),
}

_GAMMA_FUNCTIONS: dict[int, RateFunction] = {
    1: Constant(GAMMA_BASE),
    2: LogisticIncreasing(base=0.01, gain=0.18, rate=2.0, midpoint=3.5),
    3: SinusoidalPeriodic(
        offset=0.01, amplitude=0.9 * GAMMA_BASE, omega=2.0 * math.pi, phase=0.26
    ),
}


def builtin_beta_rate(index: int) -> RateFunction:
    """Recruitment-rate preset: 1 increasing, 2 decreasing, 3 periodic."""
    try:
        return _BETA_FUNCTIONS[index]
    except KeyError:
        raise ValueError(f"unknown beta index {index!r}; valid indices are 1, 2, 3") from None


def builtin_gamma_rate(index: int) -> RateFunction:
    """Defection-rate preset: 1 constant, 2 increasing, 3 periodic."""
    try:
        return _GAMMA_FUNCTIONS[index]
    except KeyError:
        raise ValueError(f"unknown gamma index {index!r}; valid indices are 1, 2, 3") from None


@dataclass(frozen=True)
class Scenario:
    """A complete problem instance: model, cost weights, rates, start, horizon.

    x0 is >= 0 with a finite total n0 > 0; l2 needs kappa2, kappa3 > 0.
    """

    params: ModelParams
    weights: Weights
    beta: RateFunction
    gamma: RateFunction
    x0: State
    t_f: float
    objective: str = "l2"

    def __post_init__(self) -> None:
        t_f = _require_finite("t_f", self.t_f)
        if t_f <= 0.0:
            raise ValueError(f"t_f must be > 0, got {t_f}")
        if min(self.x0.R, self.x0.C, self.x0.P) < 0.0:
            raise ValueError("initial state components must be >= 0")
        _require_total(self.x0)
        if self.objective not in OBJECTIVE_TAGS:
            raise ValueError(
                f"objective must be one of {OBJECTIVE_TAGS}, got {self.objective!r}"
            )
        if self.objective == "l2":
            check_l2_weights(self.weights)

    @property
    def n0(self) -> float:
        return _require_total(self.x0)


# Shared benchmark constants: structural rates, bounds and starting split.
ALPHA1 = 0.05
ALPHA2 = 0.10
LAMBDA1 = 0.002
U1_MAX = 0.06
U2_MAX = 1.0
X0 = State(R=0.001, C=0.009, P=0.99)
T_F = 7.0


def _benchmark_params() -> ModelParams:
    # lambda2 balances the natural flows at the starting split: lambda1*C0/R0.
    lambda2 = LAMBDA1 * X0.C / X0.R
    return ModelParams(
        alpha1=ALPHA1,
        alpha2=ALPHA2,
        lambda1=LAMBDA1,
        lambda2=lambda2,
        u1_max=U1_MAX,
        u2_max=U2_MAX,
    )


def _time_varying_scenario(index: int, objective: str) -> Scenario:
    return Scenario(
        params=_benchmark_params(),
        weights=Weights(kappa1=1.0, kappa2=1.5, kappa3=0.01),
        beta=builtin_beta_rate(index),
        gamma=builtin_gamma_rate(index),
        x0=X0,
        t_f=T_F,
        objective=objective,
    )


def _comparison_default() -> Scenario:
    # Constant rates and heavier control weights, used by the strategy
    # comparison and the parameter sweeps.
    return Scenario(
        params=_benchmark_params(),
        weights=Weights(kappa1=1.0 / T_F, kappa2=15.0, kappa3=1.0),
        beta=Constant(1.0),
        gamma=Constant(0.1),
        x0=X0,
        t_f=T_F,
        objective="l2",
    )


_PRESET_BUILDERS = {
    "scenario1": lambda: _time_varying_scenario(1, "l2"),
    "scenario2": lambda: _time_varying_scenario(2, "l2"),
    "scenario3": lambda: _time_varying_scenario(3, "l2"),
    "scenario3-l1": lambda: _time_varying_scenario(3, "l1"),
    "comparison-default": _comparison_default,
}

PRESET_NAMES = tuple(_PRESET_BUILDERS)


def preset_scenario(name: str) -> Scenario:
    """Return a named benchmark scenario; see PRESET_NAMES for the choices."""
    try:
        builder = _PRESET_BUILDERS[name]
    except KeyError:
        valid = ", ".join(PRESET_NAMES)
        raise ValueError(f"unknown preset {name!r}; valid presets: {valid}") from None
    return builder()
