import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from marketopt.model import ModelParams, State, Weights, _require_total
from marketopt.pointwise import ControlPair, dynamics, rhs_terms
from marketopt.integrator import TimeGrid, sample_rates
from marketopt.scenarios import (
    PRESET_NAMES,
    Constant,
    builtin_beta_rate,
    builtin_gamma_rate,
    preset_scenario,
)

TABLE_PARAMS = ModelParams(
    alpha1=0.05, alpha2=0.10, lambda1=0.002, lambda2=0.018, u1_max=0.06, u2_max=1.0
)

fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
rates = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


def test_empty_customer_base_without_control_is_equilibrium():
    x = State(R=0.0, C=0.0, P=1.0)
    d = dynamics(
        0.7, x, ControlPair(0.0, 0.0), TABLE_PARAMS,
        builtin_beta_rate(1), builtin_gamma_rate(1), 1.0,
    )
    assert d == (0.0, 0.0, 0.0)


def test_rhs_matches_term_by_term_oracle():
    # Expected values frozen from a standalone script evaluating every flow
    # term separately (increasing beta and constant gamma rates at t=0).
    x = State(R=0.001, C=0.009, P=0.99)
    d = dynamics(
        0.0, x, ControlPair(0.0, 0.0), TABLE_PARAMS,
        builtin_beta_rate(1), builtin_gamma_rate(1), 1.0,
    )
    assert d[0] == pytest.approx(-9.897713233371298e-05, abs=1e-12)
    assert d[1] == pytest.approx(-0.0008907941910034168, abs=1e-12)
    assert d[2] == pytest.approx(0.0009897713233371298, abs=1e-12)


@given(
    R=fractions, C=fractions, P=fractions,
    u1=st.floats(0.0, 0.06), u2=st.floats(0.0, 1.0),
    beta=rates, gamma=rates, t=st.floats(0.0, 14.0),
)
def test_components_sum_to_zero(R, C, P, u1, u2, beta, gamma, t):
    x = State(R, C, P)
    d = dynamics(
        t, x, ControlPair(u1, u2), TABLE_PARAMS, Constant(beta), Constant(gamma), 1.0
    )
    # every flow appears with both signs, so the sum cancels up to roundoff
    flow_scale = (
        0.018 * R + 0.002 * C + gamma * (R + C) + u1 * P + (beta + u2) * P * R
    )
    assert abs(sum(d)) <= 1e-15 * max(1.0, flow_scale)


@given(
    R=fractions, C=fractions, P=fractions,
    u1a=st.floats(0.0, 0.03), u2a=st.floats(0.0, 0.5),
    u1b=st.floats(0.0, 0.03), u2b=st.floats(0.0, 0.5),
)
def test_rhs_is_affine_in_the_controls(R, C, P, u1a, u2a, u1b, u2b):
    x = State(R, C, P)
    beta, gamma = Constant(0.4), Constant(0.1)

    def f(u1, u2):
        return dynamics(1.0, x, ControlPair(u1, u2), TABLE_PARAMS, beta, gamma, 1.0)

    base = f(0.0, 0.0)
    fa = f(u1a, u2a)
    fb = f(u1b, u2b)
    fab = f(u1a + u1b, u2a + u2b)
    for i in range(3):
        lhs = fab[i] - base[i]
        rhs = (fa[i] - base[i]) + (fb[i] - base[i])
        assert lhs == pytest.approx(rhs, abs=1e-14)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_rhs_terms_on_columns_equals_per_node_scalar_calls(name):
    sc = preset_scenario(name)
    grid = TimeGrid(0.0, sc.t_f, 400)
    rates = sample_rates(sc.beta, sc.gamma, grid)
    rng = np.random.default_rng(PRESET_NAMES.index(name))
    R, _, P = (rng.dirichlet((1.0, 1.0, 1.0), grid.n + 1) * sc.n0).T
    u1 = rng.uniform(0.0, sc.params.u1_max, grid.n + 1)
    u2 = rng.uniform(0.0, sc.params.u2_max, grid.n + 1)
    columns = (R, P, u1, u2, rates.beta[0::2], rates.gamma[0::2])
    on_columns = rhs_terms(*columns, sc.params, sc.n0, sc.n0)
    per_node = [
        rhs_terms(*point, sc.params, sc.n0, sc.n0)
        for point in zip(*(c.tolist() for c in columns))
    ]
    assert len(on_columns) == 2
    for k, column in enumerate(on_columns):
        assert column.tobytes() == np.array([d[k] for d in per_node]).tobytes()


def test_uncontrolled_constant_rates_are_autonomous():
    x = State(0.3, 0.2, 0.5)
    args = (x, ControlPair(0.0, 0.0), TABLE_PARAMS, Constant(0.7), Constant(0.1), 1.0)
    assert dynamics(0.0, *args) == dynamics(5.3, *args)


def test_rejects_bad_inputs():
    x = State(0.001, 0.009, 0.99)
    ok = (x, ControlPair(0.0, 0.0), TABLE_PARAMS, Constant(0.5), Constant(0.1))
    with pytest.raises(ValueError):
        dynamics(0.0, *ok, 0.0)
    with pytest.raises(ValueError):
        dynamics(0.0, *ok, -1.0)
    with pytest.raises(ValueError):
        dynamics(math.nan, *ok, 1.0)
    with pytest.raises(ValueError):
        dynamics(0.0, x, ControlPair(0.0, 0.0), TABLE_PARAMS,
                 Constant(0.5), lambda t: math.inf, 1.0)


def test_total_population():
    assert _require_total(State(R=0.001, C=0.009, P=0.99)) == 1.0
    with pytest.raises(ValueError, match="must be > 0"):
        _require_total(State(0.0, 0.0, 0.0))


@given(a=fractions, b=fractions, c=fractions)
def test_total_population_is_symmetric(a, b, c):
    assume(a + b + c > 0.0)
    t1 = _require_total(State(a, b, c))
    t2 = _require_total(State(b, c, a))
    assert math.isclose(t1, t2, rel_tol=1e-15, abs_tol=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha1=1.2),
        dict(alpha2=-0.1),
        dict(lambda1=math.nan),
        dict(u1_max=0.0),
        dict(u2_max=-1.0),
    ],
)
def test_params_validation(kwargs):
    base = dict(
        alpha1=0.05, alpha2=0.10, lambda1=0.002, lambda2=0.018,
        u1_max=0.06, u2_max=1.0,
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        ModelParams(**base)


def test_state_and_weights_validation():
    with pytest.raises(ValueError):
        State(math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        Weights(1.0, -0.5, 1.0)
    # zero weights stay constructible for degenerate diagnostic problems
    Weights(0.0, 0.0, 0.0)
