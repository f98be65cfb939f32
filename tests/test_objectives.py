import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from marketopt import solver
from marketopt.integrator import (
    ControlGrid,
    TimeGrid,
    default_grid,
    rk4_forward,
    sample_rates,
    zero_controls,
)
from marketopt.model import ModelParams, State, Weights
from marketopt.objectives import evaluate_cost
from marketopt.pmp import running_cost
from marketopt.pointwise import rk4_stages
from marketopt.scenarios import Constant, Scenario, preset_scenario
from marketopt.solver import SweepSettings, solve

UNIT_WEIGHTS = Weights(1.0, 1.0, 1.0)
SCENARIO1 = preset_scenario("scenario1")


def _cost(sc, grid, u=None):
    """The cost of sc under u (zero if None) along the state rk4_forward gives."""
    u = zero_controls(grid) if u is None else u
    rates = sample_rates(sc.beta, sc.gamma, grid)
    x = rk4_forward(sc.x0, u, sc.params, rates)
    return evaluate_cost(sc, x, u, rates)


def test_zero_everything_costs_nothing():
    # with gamma = 0 nothing flows back into P, so P stays exactly 0
    sc = replace(SCENARIO1, x0=State(0.5, 0.5, 0.0), gamma=Constant(0.0))
    assert _cost(sc, TimeGrid(0.0, 7.0, 10)) == 0.0


def test_constant_integrand_is_exact():
    sc = replace(SCENARIO1, x0=State(0.0, 0.0, 1.0), weights=UNIT_WEIGHTS)
    cost = _cost(sc, TimeGrid(0.0, 7.0, 17))
    assert cost == pytest.approx(7.0, rel=1e-14)


@pytest.mark.parametrize("objective, control_cost", [("l1", 0.5), ("l2", 1.0 / 3.0)])
def test_linear_integrand_is_exact(objective, control_cost):
    # with R = C = 0, u2 moves nothing and the state stays at (0, 0, 1); the
    # stage rule is Simpson's on u2 = t, so it integrates u2 and u2^2 exactly
    sc = replace(
        SCENARIO1, x0=State(0.0, 0.0, 1.0), weights=UNIT_WEIGHTS, t_f=1.0,
        objective=objective,
    )
    grid = TimeGrid(0.0, 1.0, 10)
    u = np.zeros((grid.n + 1, 2))
    u[:, 1] = grid.nodes()
    cost = _cost(sc, grid, ControlGrid(grid, u))
    assert cost == pytest.approx(1.0 + control_cost, rel=1e-14)


def test_quadrature_is_fourth_order_on_the_linear_model():
    # with beta = 0, constant gamma and no control the flow is linear, x' = A x,
    # and the exact cost, the integral of P, is the last component of the
    # exponential of A augmented by the row q' = P
    params = ModelParams(
        alpha1=0.3, alpha2=0.6, lambda1=0.7, lambda2=1.1, u1_max=1.0, u2_max=1.0
    )
    gamma = 0.8
    x0 = State(0.2, 0.3, 0.5)
    augmented = np.zeros((4, 4))
    augmented[:3, :3] = [
        [-(params.lambda2 + gamma), params.lambda1, 0.0],
        [params.lambda2, -(params.lambda1 + gamma), 0.0],
        [gamma, gamma, 0.0],
    ]
    augmented[3, 2] = 1.0
    exact = (expm(2.0 * augmented) @ [x0.R, x0.C, x0.P, 0.0])[3]
    sc = Scenario(params, UNIT_WEIGHTS, Constant(0.0), Constant(gamma), x0, 2.0)
    errors = [abs(_cost(sc, TimeGrid(0.0, 2.0, n)) - exact) for n in (8, 16)]
    assert math.log2(errors[0] / errors[1]) >= 3.7


def _weighed_stage_cost(h, states, controls, widths, sc=SCENARIO1):
    """h/6 * widths * (c1 + 2*c2 + 2*c3 + c4), summed over sc's (sub-)steps."""
    stage_costs = [
        running_cost(sc.objective, s[:, 2], c[:, 0], c[:, 1], sc.weights)
        for s, c in zip(states, controls)
    ]
    return sum(
        h / 6.0 * w * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        for w, c1, c2, c3, c4 in zip(widths, *stage_costs)
    )


def test_cost_weighs_each_stage_by_the_rk4_weights():
    grid = TimeGrid(0.0, 7.0, 40)
    rng = np.random.default_rng(3)
    u = ControlGrid(grid, rng.uniform(0.0, 0.05, (grid.n + 1, 2)))
    rates = sample_rates(SCENARIO1.beta, SCENARIO1.gamma, grid)
    x = rk4_forward(SCENARIO1.x0, u, SCENARIO1.params, rates)
    states, controls, widths = rk4_stages(x, u, SCENARIO1.params, rates)
    assert widths.tobytes() == np.ones(grid.n).tobytes()  # no junction: n whole steps
    assert evaluate_cost(SCENARIO1, x, u, rates) == pytest.approx(
        _weighed_stage_cost(grid.h, states, controls, widths), rel=1e-14
    )
    # the stages start at the nodes, and the controls are nodal at the ends
    assert np.array_equal(states[0], x.values[:-1])
    assert np.array_equal(controls[0], u.values[:-1])
    assert np.array_equal(controls[3], u.values[1:])
    # scenario1's solved controls are clamped: each of its 3 junction steps is
    # two sub-steps, whose widths sum to 1, the second after the n steps
    n = 175
    result = solve(SCENARIO1, SweepSettings(n=n))
    x, u, rates = result.state, result.controls, result.rates
    states, controls, widths = rk4_stages(x, u, SCENARIO1.params, rates)
    assert states.shape[1] == len(widths) == n + 3
    firsts = np.flatnonzero(widths[:n] != 1.0)
    assert len(firsts) == 3
    assert ((0.0 < widths[firsts]) & (widths[firsts] < 1.0)).all()
    assert (widths[firsts] + widths[n:] == 1.0).all()
    assert evaluate_cost(SCENARIO1, x, u, rates) == pytest.approx(
        _weighed_stage_cost(x.grid.h, states, controls, widths), rel=1e-14
    )


def _stage_rule_case(case):
    """A scenario, state, control table and rates on which to cost the stage rule."""
    if case == "whole":
        grid = TimeGrid(0.0, 7.0, 40)
        rng = np.random.default_rng(5)
        u = ControlGrid(grid, rng.uniform(0.0, 0.05, (grid.n + 1, 2)))
        rates = sample_rates(SCENARIO1.beta, SCENARIO1.gamma, grid)
        return SCENARIO1, u, rates
    if case.startswith("junctions"):
        result = solve(SCENARIO1, SweepSettings(n=int(case.split("-n")[1])))
        assert len(result.controls.splits) == 3  # clamp junctions
        return SCENARIO1, result.controls, result.rates
    # the bang-bang law of the switch sweep, on the n=43 switch grid
    sc = preset_scenario("scenario3-l1")
    grid = TimeGrid(0.0, sc.t_f, 43)
    rates = sample_rates(sc.beta, sc.gamma, grid)
    (u, splits), _ = solver._switch_sweep(sc, SweepSettings(n=grid.n), rates,
                                          default_grid(sc.t_f, "l1"))
    assert splits and all(bound is None for *_, bound in splits)  # switches
    return sc, ControlGrid(grid, u, splits), rates


@pytest.mark.parametrize("objective", ["l2", "l1"])
@pytest.mark.parametrize("case", ["whole", "junctions-n88", "junctions-n175", "switches-n43"])
def test_pass_cost_matches_the_stage_rule_on_the_rebuilt_stages(case, objective):
    sc, u, rates = _stage_rule_case(case)
    sc = replace(sc, objective=objective)
    x = rk4_forward(sc.x0, u, sc.params, rates)
    states, controls, widths = rk4_stages(x, u, sc.params, rates)
    reference = _weighed_stage_cost(rates.grid.h, states, controls, widths, sc)
    cost = evaluate_cost(sc, x, u, rates)
    assert cost == pytest.approx(reference, rel=1e-14)
    if u.splits:
        # a sub-step weighed by h, not by its width, is far outside that
        n = rates.grid.n
        misweighed = widths.copy()
        misweighed[n:] = 1.0
        wrong = _weighed_stage_cost(rates.grid.h, states, controls, misweighed, sc)
        assert abs(wrong - reference) > 1e-6 * reference


MONOTONE_GRID = TimeGrid(0.0, 2.0, 20)
MONOTONE_U = ControlGrid(MONOTONE_GRID, np.full((MONOTONE_GRID.n + 1, 2), 0.03))


@given(
    kappa1=st.floats(0.1, 10.0),
    kappa2=st.floats(0.1, 10.0),
    kappa3=st.floats(0.1, 10.0),
    bump=st.floats(0.01, 5.0),
    index=st.sampled_from([0, 1, 2]),
)
def test_cost_is_monotone_in_each_weight(kappa1, kappa2, kappa3, bump, index):
    low = [kappa1, kappa2, kappa3]
    high = list(low)
    high[index] += bump
    for tag in ("l1", "l2"):
        sc = replace(SCENARIO1, t_f=2.0, objective=tag)
        c_low = _cost(replace(sc, weights=Weights(*low)), MONOTONE_GRID, MONOTONE_U)
        c_high = _cost(replace(sc, weights=Weights(*high)), MONOTONE_GRID, MONOTONE_U)
        assert c_high >= c_low


@given(
    data=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        min_size=11, max_size=11,
    )
)
def test_linear_cost_dominates_quadratic_for_small_controls(data):
    # every stage control is a node value or the mean of two, so it lies in
    # [0, 1], where u >= u^2
    grid = TimeGrid(0.0, 1.0, 10)
    u = ControlGrid(grid, np.array(data))
    sc = replace(SCENARIO1, weights=UNIT_WEIGHTS, t_f=1.0)
    l1 = _cost(replace(sc, objective="l1"), grid, u)
    l2 = _cost(replace(sc, objective="l2"), grid, u)
    assert l1 >= l2 - 1e-12


def test_mismatched_grids_are_rejected():
    grid = TimeGrid(0.0, 1.0, 10)
    rates = sample_rates(SCENARIO1.beta, SCENARIO1.gamma, grid)
    x = rk4_forward(SCENARIO1.x0, zero_controls(grid), SCENARIO1.params, rates)
    other = TimeGrid(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="share one grid"):
        evaluate_cost(SCENARIO1, x, zero_controls(other), rates)
    with pytest.raises(ValueError, match="share one grid"):
        evaluate_cost(
            SCENARIO1, x, zero_controls(grid),
            sample_rates(SCENARIO1.beta, SCENARIO1.gamma, other),
        )
