import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketopt.integrator import ControlGrid, TimeGrid, Trajectory, zero_controls
from marketopt.model import Weights
from marketopt.objectives import evaluate_cost

UNIT_WEIGHTS = Weights(1.0, 1.0, 1.0)


def _trajectory_with_p(grid, p_values):
    values = np.zeros((grid.n + 1, 3))
    values[:, 2] = p_values
    return Trajectory(grid, values)


def test_zero_everything_costs_nothing():
    grid = TimeGrid(0.0, 7.0, 10)
    x = _trajectory_with_p(grid, 0.0)
    assert evaluate_cost("l2", UNIT_WEIGHTS, x, zero_controls(grid)) == 0.0


def test_constant_integrand_is_exact():
    grid = TimeGrid(0.0, 7.0, 17)
    x = _trajectory_with_p(grid, 1.0)
    cost = evaluate_cost("l2", UNIT_WEIGHTS, x, zero_controls(grid))
    assert cost == pytest.approx(7.0, rel=1e-14)


def test_linear_integrand_is_exact():
    grid = TimeGrid(0.0, 1.0, 10)
    x = _trajectory_with_p(grid, grid.nodes())
    cost = evaluate_cost("l2", UNIT_WEIGHTS, x, zero_controls(grid))
    assert cost == pytest.approx(0.5, rel=1e-14)


def test_quadrature_is_second_order():
    exact = 2.0 * 7.0 + 1.0 - math.cos(7.0)
    errors = []
    for n in (50, 100):
        grid = TimeGrid(0.0, 7.0, n)
        x = _trajectory_with_p(grid, np.sin(grid.nodes()) + 2.0)
        cost = evaluate_cost("l2", UNIT_WEIGHTS, x, zero_controls(grid))
        errors.append(abs(cost - exact))
    assert math.log2(errors[0] / errors[1]) >= 1.9


@given(
    kappa1=st.floats(0.1, 10.0),
    kappa2=st.floats(0.1, 10.0),
    kappa3=st.floats(0.1, 10.0),
    bump=st.floats(0.01, 5.0),
    index=st.sampled_from([0, 1, 2]),
)
def test_cost_is_monotone_in_each_weight(kappa1, kappa2, kappa3, bump, index):
    grid = TimeGrid(0.0, 2.0, 20)
    x = _trajectory_with_p(grid, np.linspace(0.2, 0.9, grid.n + 1))
    u = ControlGrid(grid, np.full((grid.n + 1, 2), 0.3))
    low = [kappa1, kappa2, kappa3]
    high = list(low)
    high[index] += bump
    for tag in ("l1", "l2"):
        c_low = evaluate_cost(tag, Weights(*low), x, u)
        c_high = evaluate_cost(tag, Weights(*high), x, u)
        assert c_high >= c_low


@given(
    data=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        min_size=11, max_size=11,
    )
)
def test_linear_cost_dominates_quadratic_for_small_controls(data):
    grid = TimeGrid(0.0, 1.0, 10)
    arr = np.array(data)
    x = _trajectory_with_p(grid, arr[:, 0])
    u = ControlGrid(grid, arr[:, 1:])
    l1 = evaluate_cost("l1", UNIT_WEIGHTS, x, u)
    l2 = evaluate_cost("l2", UNIT_WEIGHTS, x, u)
    assert l1 >= l2 - 1e-12


def test_mismatched_grids_are_rejected():
    x = _trajectory_with_p(TimeGrid(0.0, 1.0, 10), 0.5)
    u = zero_controls(TimeGrid(0.0, 1.0, 20))
    with pytest.raises(ValueError, match="share one grid"):
        evaluate_cost("l2", UNIT_WEIGHTS, x, u)
    with pytest.raises(ValueError, match="objective must be one of"):
        evaluate_cost("huber", UNIT_WEIGHTS, x, zero_controls(x.grid))
