import json
import math
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketopt.config import (rate_from_dict, rate_to_dict, scenario_from_dict,
                              scenario_to_dict)
from marketopt.integrator import TimeGrid, _sample_times, sample_rates
from marketopt.model import State
from marketopt.scenarios import (
    PRESET_NAMES,
    Constant,
    LogisticDecreasing,
    LogisticIncreasing,
    PiecewiseLinear,
    RateFunction,
    Scenario,
    SinusoidalPeriodic,
    builtin_beta_rate,
    builtin_gamma_rate,
    preset_scenario,
)
from marketopt.solver import SweepSettings, solve

sweep_times = st.floats(min_value=0.0, max_value=14.0, allow_nan=False)


def test_builtin_beta_anchor_points():
    # the logistic exponents vanish at t=4 and t=3 respectively
    assert builtin_beta_rate(1)(4.0) == pytest.approx(0.505, rel=1e-15)
    assert builtin_beta_rate(2)(3.0) == pytest.approx(0.505, rel=1e-15)


def test_builtin_beta3_has_period_one():
    beta3 = builtin_beta_rate(3)
    for t in (0.0, 0.37, 2.5, 6.9):
        assert beta3(t + 1.0) == pytest.approx(beta3(t), abs=1e-12)


def test_builtin_gamma_values():
    for t in (0.0, 1.7, 7.0):
        assert builtin_gamma_rate(1)(t) == 0.10
    assert builtin_gamma_rate(2)(3.5) == pytest.approx(0.10, rel=1e-15)


@given(t=sweep_times)
def test_builtin_gamma3_floor(t):
    assert builtin_gamma_rate(3)(t) >= 0.01 - 1e-15


@given(t=sweep_times, index=st.sampled_from([1, 2, 3]))
def test_builtin_rates_nonnegative_and_bounded(t, index):
    for value in (builtin_beta_rate(index)(t), builtin_gamma_rate(index)(t)):
        assert 0.0 <= value <= 2.0


@pytest.mark.parametrize("index", [0, 4, -1])
def test_unknown_rate_index_rejected(index):
    with pytest.raises(ValueError, match="1, 2, 3"):
        builtin_beta_rate(index)(0.0)
    with pytest.raises(ValueError, match="1, 2, 3"):
        builtin_gamma_rate(index)(0.0)


def test_scenario1_preset_values():
    sc = preset_scenario("scenario1")
    assert sc.params.lambda2 == pytest.approx(0.018, rel=1e-12)
    assert (sc.weights.kappa1, sc.weights.kappa2, sc.weights.kappa3) == (1.0, 1.5, 0.01)
    assert sc.x0 == State(R=0.001, C=0.009, P=0.99)
    assert sc.t_f == 7.0
    assert sc.objective == "l2"
    assert sc.beta is builtin_beta_rate(1)
    assert sc.gamma is builtin_gamma_rate(1)


def test_scenario3_l1_preset():
    sc = preset_scenario("scenario3-l1")
    assert sc.objective == "l1"
    assert sc.beta is builtin_beta_rate(3)


def test_comparison_default_preset():
    sc = preset_scenario("comparison-default")
    assert sc.weights.kappa1 == pytest.approx(1.0 / 7.0, rel=1e-15)
    assert (sc.weights.kappa2, sc.weights.kappa3) == (15.0, 1.0)
    assert sc.beta == Constant(1.0)
    assert sc.gamma == Constant(0.1)


def test_unknown_preset_lists_valid_names():
    with pytest.raises(ValueError) as err:
        preset_scenario("scenario9")
    for name in PRESET_NAMES:
        assert name in str(err.value)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_round_trip_bit_identically(name):
    sc = preset_scenario(name)
    doc = json.loads(json.dumps(scenario_to_dict(sc)))
    back = scenario_from_dict(doc)
    assert back.params == sc.params
    assert back.weights == sc.weights
    assert back.beta == sc.beta
    assert back.gamma == sc.gamma
    assert back.x0 == sc.x0
    assert back.t_f == sc.t_f
    assert back.objective == sc.objective


def test_scenario_validation():
    sc = preset_scenario("scenario1")
    with pytest.raises(ValueError):
        Scenario(sc.params, sc.weights, sc.beta, sc.gamma, sc.x0, t_f=0.0)
    with pytest.raises(ValueError):
        Scenario(sc.params, sc.weights, sc.beta, sc.gamma, State(0, 0, 0), t_f=7.0)
    with pytest.raises(ValueError):
        Scenario(sc.params, sc.weights, sc.beta, sc.gamma, sc.x0, 7.0, objective="l3")


@pytest.mark.parametrize("zero", ["kappa2", "kappa3"])
def test_l2_scenario_needs_positive_control_weights(zero):
    sc = preset_scenario("scenario1")
    weights = replace(sc.weights, **{zero: 0.0})
    with pytest.raises(ValueError, match="needs kappa2 > 0 and kappa3 > 0"):
        Scenario(sc.params, weights, sc.beta, sc.gamma, sc.x0, 7.0, objective="l2")
    # the l1 control law does not divide by the weights
    l1 = Scenario(sc.params, weights, sc.beta, sc.gamma, sc.x0, 7.0, objective="l1")
    assert getattr(l1.weights, zero) == 0.0


def test_scenario_rejects_a_nonfinite_initial_total():
    # each component is finite, but the conserved total overflows
    sc = preset_scenario("scenario1")
    x0 = State(1e308, 1e308, 0.0)
    with pytest.raises(ValueError, match=r"^initial total R \+ C \+ P must be finite"):
        Scenario(sc.params, sc.weights, sc.beta, sc.gamma, x0, t_f=7.0)


def test_piecewise_linear_rate():
    rate = PiecewiseLinear(times=(0.0, 1.0, 3.0), values=(0.0, 1.0, 0.5))
    assert rate(0.5) == pytest.approx(0.5)
    assert rate(2.0) == pytest.approx(0.75)
    assert rate(-1.0) == 0.0  # clamped at the ends
    assert rate(9.0) == 0.5
    with pytest.raises(ValueError):
        PiecewiseLinear(times=(0.0, 0.0), values=(1.0, 1.0))
    with pytest.raises(ValueError):
        PiecewiseLinear(times=(0.0, 1.0), values=(1.0, -1.0))


def test_constant_rate_validation():
    with pytest.raises(ValueError):
        Constant(-0.1)
    with pytest.raises(ValueError):
        Constant(math.inf)


def test_steep_logistic_rates_take_the_exp_limit():
    up = LogisticIncreasing(base=0.01, gain=0.99, rate=1000.0, midpoint=4.0)
    down = LogisticDecreasing(base=0.01, gain=0.99, rate=1000.0, midpoint=4.0)
    # exp(-rate*(t - midpoint)) overflows for t < 3.29
    assert up(0.0) == 0.01
    assert down(0.0) == 0.01 + 0.99
    assert up(8.0) == 0.01 + 0.99 / (1.0 + math.exp(-4000.0))
    assert down(8.0) == 0.01 + 0.99 * (1.0 - 1.0 / (1.0 + math.exp(-4000.0)))
    # inputs that do not overflow keep their bits
    t = 3.9995
    assert up(t) == 0.01 + 0.99 / (1.0 + math.exp(-1000.0 * (t - 4.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: LogisticIncreasing(base=0.01, gain=0.99, rate=v, midpoint=4.0),
        lambda v: LogisticIncreasing(base=0.01, gain=0.99, rate=2.0, midpoint=v),
        lambda v: LogisticDecreasing(base=0.01, gain=0.99, rate=v, midpoint=3.0),
        lambda v: LogisticDecreasing(base=0.01, gain=v, rate=2.0, midpoint=3.0),
        lambda v: SinusoidalPeriodic(offset=0.01, amplitude=0.49, omega=v, phase=0.26),
        lambda v: SinusoidalPeriodic(offset=0.01, amplitude=0.49, omega=6.0, phase=v),
        lambda v: PiecewiseLinear(times=(0.0, v, 3.0), values=(0.1, 0.2, 0.3)),
    ],
)
def test_nonfinite_rate_parameters_rejected(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


class _Table(RateFunction):
    def __init__(self, bad_t, bad_value):
        self.bad_t, self.bad_value = bad_t, bad_value

    def __call__(self, t):
        return self.bad_value if t >= self.bad_t else 0.5

    @property
    def label(self):
        return "table"


@pytest.mark.parametrize(
    ("rate", "label"),
    [
        (Constant(0.1), "constant(0.1)"),
        (builtin_beta_rate(1), "logistic-increasing(base=0.01, gain=0.99)"),
        (builtin_beta_rate(2), "logistic-decreasing(base=0.01, gain=0.99)"),
        (builtin_gamma_rate(3), "sinusoidal(offset=0.01, amplitude=0.09)"),
        (PiecewiseLinear(times=(0.5, 2.0, 6.0), values=(0.2, 0.8, 0.1)),
         "piecewise-linear(3 knots)"),
    ],
    ids=["constant", "logistic-increasing", "logistic-decreasing", "sinusoidal",
         "piecewise-linear"],
)
def test_each_rate_family_labels_itself(rate, label):
    # rates are named by label in error messages
    assert rate.label == label


@pytest.mark.parametrize(
    ("family", "names", "label", "other"),
    [
        (LogisticIncreasing, ("base", "gain", "rate", "midpoint"),
         "logistic-increasing(base=0.01, gain=0.49)", LogisticDecreasing),
        (LogisticDecreasing, ("base", "gain", "rate", "midpoint"),
         "logistic-decreasing(base=0.01, gain=0.49)", LogisticIncreasing),
        (SinusoidalPeriodic, ("offset", "amplitude", "omega", "phase"),
         "sinusoidal(offset=0.01, amplitude=0.49)", LogisticIncreasing),
    ],
    ids=["logistic-increasing", "logistic-decreasing", "sinusoidal"],
)
def test_four_parameter_families_are_frozen_value_dataclasses(family, names, label, other):
    values = (0.01, 0.49, 2.0, 3.0)
    rate = family(*values)
    assert tuple(f.name for f in fields(rate)) == names
    twin = family(**dict(zip(names, values)))
    assert rate == twin and hash(rate) == hash(twin)
    assert rate != family(0.02, *values[1:]) and rate != other(*values)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(rate) == f"{family.__name__}({shown})"
    with pytest.raises(FrozenInstanceError):
        setattr(rate, names[0], 1.0)
    assert rate.label == label
    doc = rate_to_dict(rate)
    assert doc == {"kind": family.tag, **dict(zip(names, values))}
    assert rate_from_dict(json.loads(json.dumps(doc)), "scenario.beta") == rate
    with pytest.raises(ValueError, match=f"{names[0]} and {names[1]} must be >= 0"):
        family(-0.01, *values[1:])


@pytest.mark.parametrize("bad_value", [math.nan, math.inf, -1e-3])
def test_sample_rates_rejects_bad_samples(bad_value):
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match=r"gamma rate table is .* at t=0\.625"):
        sample_rates(Constant(1.0), _Table(0.6, bad_value), grid)
    # plain callables are named by their repr
    with pytest.raises(ValueError, match=r"beta rate <function .* at t=0\.5"):
        sample_rates(lambda t: bad_value if t >= 0.5 else 0.5, Constant(0.1), grid)


class _Step(RateFunction):
    # defines only __call__: no label, no array evaluator
    def __call__(self, t):
        return 0.2 if t < 3.0 else 0.05


def test_a_rate_that_defines_only_call_solves_like_a_plain_callable():
    sc, settings, step = preset_scenario("scenario2"), SweepSettings(n=175), _Step()
    # a subclass that defines no label is named by its class
    assert step.label == "_Step"
    solved = [solve(replace(sc, gamma=gamma), settings) for gamma in (step, lambda t: step(t))]
    digests = [[t.values.tobytes() for t in (r.state, r.costate, r.controls)] + [r.cost.hex()]
               for r in solved]
    assert digests[0] == digests[1]


# one rate of every built-in family; the exp and cos ones are the presets', and
# a steep logistic whose exp overflows to its limit inf before t=3.29
_FAMILIES = {
    "constant": Constant(0.1),
    "piecewise-linear": PiecewiseLinear(times=(0.5, 2.0, 6.0), values=(0.2, 0.8, 0.1)),
    "logistic-increasing": builtin_beta_rate(1),
    "logistic-decreasing": builtin_beta_rate(2),
    "sinusoidal": builtin_beta_rate(3),
    "logistic-increasing gamma": builtin_gamma_rate(2),
    "sinusoidal gamma": builtin_gamma_rate(3),
    "steep logistic-decreasing": LogisticDecreasing(
        base=0.01, gain=0.99, rate=1000.0, midpoint=4.0
    ),
}


@pytest.mark.parametrize("n", [43, 350, 1400, 2800, 11200])
@pytest.mark.parametrize("family", _FAMILIES)
def test_array_evaluator_matches_per_point_calls(family, n):
    rate = _FAMILIES[family]
    ts = _sample_times(TimeGrid(0.0, 7.0, n))
    with np.errstate(over="ignore"):  # as in sample_rates
        values = rate.sample(ts)
    expected = np.array([rate(t) for t in ts.tolist()])
    assert values.shape == expected.shape
    if isinstance(rate, (Constant, PiecewiseLinear)):
        assert values.tobytes() == expected.tobytes()
    else:
        # np.exp may round a few ulps away from math.exp, and the logistic
        # decrease cancels; how far depends on the CPU, so no bits are asserted
        assert (np.abs(values - expected) <= 1e-13 * np.abs(expected)).all()


class _PointByPoint(RateFunction):
    """A rate with the label of inner and no array evaluator."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, t):
        return self.inner(t)

    @property
    def label(self):
        return self.inner.label


def _sample_error(beta, grid):
    with pytest.raises(ValueError) as err:
        sample_rates(beta, Constant(0.1), grid)
    return str(err.value)


@pytest.mark.parametrize(
    "rate, message",
    [
        # omega*t overflows to inf from t=1.8 on, where cos has no value
        (SinusoidalPeriodic(offset=0.01, amplitude=0.49, omega=1e308, phase=0.26),
         "has no value at t=1.8 (math domain error)"),
        (LogisticIncreasing(base=1e308, gain=1e308, rate=2.0, midpoint=4.0),
         "is inf at t=4.7"),
        (SinusoidalPeriodic(offset=1e308, amplitude=1e308, omega=1.0, phase=0.0),
         "is inf at t=1.4"),
    ],
)
def test_array_sample_without_a_finite_value_fails_like_per_point_calls(rate, message):
    grid = TimeGrid(0.0, 7.0, 35)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = _sample_error(rate, grid)
    assert text == _sample_error(_PointByPoint(rate), grid)
    assert text.startswith(f"beta rate {rate.label} {message}")
