import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from marketopt import integrator
from marketopt.integrator import (
    BACKWARD_BLOCK,
    NONNEG_TOLERANCE,
    ControlGrid,
    GridRates,
    IntegrationError,
    TimeGrid,
    Trajectory,
    _half_steps,
    default_grid,
    forward_table,
    rk4_backward,
    rk4_forward,
    sample_rates,
    zero_controls,
)
from marketopt.junctions import junction_splits, split_layout, switch_steps
from marketopt.model import ModelParams, State, Weights, flow_coefficients
from marketopt.pmp import costate_system
from marketopt.pointwise import ControlPair, Costate, costate_rhs, rhs_terms, rk4_stages
from marketopt.scenarios import (
    PRESET_NAMES,
    Constant,
    builtin_beta_rate,
    builtin_gamma_rate,
    preset_scenario,
)
from marketopt.solver import SweepSettings, solve

SCENARIO1 = preset_scenario("scenario1")


def _rates(sc, grid):
    return sample_rates(sc.beta, sc.gamma, grid)


def _forward_no_control(grid):
    sc = SCENARIO1
    return rk4_forward(sc.x0, zero_controls(grid), sc.params, _rates(sc, grid))


def test_grid_basics():
    grid = TimeGrid(0.0, 7.0, 1400)
    assert grid.h == pytest.approx(0.005, rel=1e-15)
    nodes = grid.nodes()
    assert len(nodes) == 1401
    assert nodes[0] == 0.0
    assert nodes[-1] == pytest.approx(7.0, rel=1e-15)
    assert default_grid(7.0, "l2").n == 175
    assert default_grid(7.0, "l1").n == 1400
    with pytest.raises(ValueError):
        TimeGrid(0.0, 7.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(3.0, 3.0, 10)


def test_equilibrium_stays_exactly_constant():
    grid = TimeGrid(0.0, 7.0, 100)
    x = rk4_forward(
        State(0.0, 0.0, 1.0), zero_controls(grid), SCENARIO1.params,
        _rates(SCENARIO1, grid),
    )
    assert np.array_equal(x.values, np.tile([0.0, 0.0, 1.0], (101, 1)))


def test_forward_conserves_total_population():
    x = _forward_no_control(default_grid(7.0, "l2"))
    deviation = np.abs(x.values.sum(axis=1) - SCENARIO1.n0).max()
    assert deviation <= 1e-12


def test_forward_conserves_with_controls_on():
    grid = default_grid(7.0, "l2")
    u = np.empty((grid.n + 1, 2))
    u[:, 0] = SCENARIO1.params.u1_max
    u[:, 1] = 0.5
    x = rk4_forward(
        SCENARIO1.x0, ControlGrid(grid, u), SCENARIO1.params,
        _rates(SCENARIO1, grid),
    )
    assert np.abs(x.values.sum(axis=1) - SCENARIO1.n0).max() <= 1e-12


def test_forward_richardson_self_consistency():
    coarse = _forward_no_control(TimeGrid(0.0, 7.0, 1400))
    fine = _forward_no_control(TimeGrid(0.0, 7.0, 2800))
    assert np.abs(coarse.values - fine.values[::2]).max() <= 1e-8


def test_rk4_is_fourth_order_against_matrix_exponential():
    # with beta = 0 and no control the flow is linear, so expm is exact
    params = ModelParams(
        alpha1=0.3, alpha2=0.6, lambda1=0.7, lambda2=1.1, u1_max=1.0, u2_max=1.0
    )
    gamma = 0.8
    x0 = State(0.2, 0.3, 0.5)
    A = np.array(
        [
            [-(params.lambda2 + gamma), params.lambda1, 0.0],
            [params.lambda2, -(params.lambda1 + gamma), 0.0],
            [gamma, gamma, 0.0],
        ]
    )
    exact = expm(2.0 * A) @ np.array([x0.R, x0.C, x0.P])
    errors = []
    for n in (8, 16):
        grid = TimeGrid(0.0, 2.0, n)
        rates = sample_rates(Constant(0.0), Constant(gamma), grid)
        x = rk4_forward(x0, zero_controls(grid), params, rates)
        errors.append(np.abs(x.values[-1] - exact).max())
    order = math.log2(errors[0] / errors[1])
    assert order >= 3.7


def test_negative_overshoot_aborts_with_step_diagnostic():
    params = ModelParams(
        alpha1=0.05, alpha2=0.10, lambda1=0.002, lambda2=0.018,
        u1_max=0.06, u2_max=2000.0,
    )
    grid = TimeGrid(0.0, 7.0, 4)
    u = np.zeros((grid.n + 1, 2))
    u[:, 1] = 1000.0
    with pytest.raises(IntegrationError, match="reduce the step size") as err:
        rk4_forward(
            State(0.5, 0.0, 0.5), ControlGrid(grid, u), params,
            sample_rates(Constant(0.0), Constant(0.0), grid),
        )
    assert err.value.step == 1


def test_nonfinite_state_aborts_with_step_index():
    params = ModelParams(
        alpha1=0.05, alpha2=0.10, lambda1=0.002, lambda2=1e3,
        u1_max=0.06, u2_max=1.0,
    )
    grid = TimeGrid(0.0, 7.0, 4)
    with pytest.raises(IntegrationError, match="non-finite") as err:
        rk4_forward(
            State(1e308, 0.0, 0.0), zero_controls(grid), params,
            sample_rates(Constant(0.0), Constant(0.0), grid),
        )
    assert err.value.step >= 1


def _reference_forward(x0, u, params, rates, stages=None):
    """RK4 on the total with one pointwise.rhs_terms call per stage: the reference
    for the inlined step of rk4_forward, with the same checks and messages.
    Each step's four stage states and controls are appended to stages."""
    grid, h = u.grid, u.grid.h
    us = u.values.tolist()
    beta, gamma = rates.beta.tolist(), rates.gamma.tolist()
    n0 = total = x0.R + x0.C + x0.P
    if not math.isfinite(total):
        raise ValueError("initial total R + C + P must be finite")
    x = (x0.R, x0.P)
    rows = [(x0.R, x0.C, x0.P)]
    for i in range(grid.n):
        (u1a, u2a), (u1b, u2b) = us[i], us[i + 1]
        um = (0.5 * (u1a + u1b), 0.5 * (u2a + u2b))
        b, g = beta[2 * i:2 * i + 3], gamma[2 * i:2 * i + 3]
        k1 = rhs_terms(*x, u1a, u2a, b[0], g[0], params, n0, total)
        x2 = tuple(a + 0.5 * h * k for a, k in zip(x, k1))
        k2 = rhs_terms(*x2, *um, b[1], g[1], params, n0, total)
        x3 = tuple(a + 0.5 * h * k for a, k in zip(x, k2))
        k3 = rhs_terms(*x3, *um, b[1], g[1], params, n0, total)
        x4 = tuple(a + h * k for a, k in zip(x, k3))
        k4 = rhs_terms(*x4, u1b, u2b, b[2], g[2], params, n0, total)
        if stages is not None:
            stages.append((
                [rows[-1], *((r, total - r - q, q) for r, q in (x2, x3, x4))],
                [(u1a, u2a), um, um, (u1b, u2b)],
            ))
        x = tuple(
            a + h / 6.0 * (q1 + 2.0 * (q2 + q3) + q4)
            for a, q1, q2, q3, q4 in zip(x, k1, k2, k3, k4)
        )
        row = (x[0], total - x[0] - x[1], x[1])
        t = grid.t0 + (i + 1) * h
        if not all(math.isfinite(a) for a in row):
            raise IntegrationError(f"non-finite state at step {i + 1} (t={t:.6g})", i + 1)
        if min(row) < -NONNEG_TOLERANCE:
            raise IntegrationError(
                f"state component below -{NONNEG_TOLERANCE:g} at step {i + 1} "
                f"(t={t:.6g}); reduce the step size h={h:.6g}",
                i + 1,
            )
        rows.append(row)
    return Trajectory(grid, np.array(rows))


def _forward_outcome(integrate, *args):
    """The trajectory's bytes, or the error's message and step (None for a
    ValueError, which rejects the input before any step)."""
    try:
        return integrate(*args).values.tobytes()
    except IntegrationError as err:
        return str(err), err.step
    except ValueError as err:
        return str(err), None


def _random_controls(sc, grid, seed):
    rng = np.random.default_rng(seed)
    return ControlGrid(
        grid,
        rng.uniform(0.0, 1.0, (grid.n + 1, 2)) * (sc.params.u1_max, sc.params.u2_max),
    )


@pytest.mark.parametrize("n", [2, 3, 17, 350, 1400, 2800])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_inlined_forward_step_is_bit_identical_to_rhs_terms(name, n):
    sc = preset_scenario(name)
    grid = TimeGrid(0.0, sc.t_f, n)
    args = (sc.x0, _random_controls(sc, grid, n), sc.params, _rates(sc, grid))
    assert _forward_outcome(rk4_forward, *args) == _forward_outcome(
        _reference_forward, *args
    )
    # the column stages are the reference's, step by step
    stages = []
    x = _reference_forward(*args, stages)
    states, controls, widths = rk4_stages(x, *args[1:])
    assert widths.tobytes() == np.ones(n).tobytes()  # random controls hold no junction
    ref_states, ref_controls = (np.array(a).swapaxes(0, 1) for a in zip(*stages))
    assert states.tobytes() == ref_states.tobytes()
    assert controls.tobytes() == ref_controls.tobytes()


def _three_component_rhs(R, C, P, u1, u2, beta_t, gamma_t, params, n0):
    """(dR/dt, dC/dt, dP/dt), with C a free component rather than read off
    the total."""
    a1, a2 = params.alpha1, params.alpha2
    l1, l2 = params.lambda1, params.lambda2
    spread = (beta_t + u2) * P * R / n0
    direct = u1 * P
    dR = -l2 * R + l1 * C - gamma_t * R + a1 * direct + a2 * spread
    dC = -l1 * C + l2 * R - gamma_t * C + (1.0 - a2) * spread + (1.0 - a1) * direct
    dP = -spread - direct + gamma_t * R + gamma_t * C
    return np.array((dR, dC, dP))


def _three_component_forward(x0, u, params, rates):
    """Classical RK4 on (R, C, P), one call per stage: an accuracy oracle."""
    h, n0 = u.grid.h, x0.R + x0.C + x0.P
    us, u_mid = u.values, 0.5 * (u.values[:-1] + u.values[1:])
    x = np.array((x0.R, x0.C, x0.P))
    rows = [x]
    beta, gamma = rates.beta, rates.gamma
    for i in range(u.grid.n):
        mid = (*u_mid[i], beta[2 * i + 1], gamma[2 * i + 1], params, n0)
        k1 = _three_component_rhs(*x, *us[i], beta[2 * i], gamma[2 * i], params, n0)
        k2 = _three_component_rhs(*(x + 0.5 * h * k1), *mid)
        k3 = _three_component_rhs(*(x + 0.5 * h * k2), *mid)
        k4 = _three_component_rhs(
            *(x + h * k3), *us[i + 1], beta[2 * i + 2], gamma[2 * i + 2], params, n0
        )
        x = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        rows.append(x)
    return np.array(rows)


@pytest.mark.parametrize("n", [2, 3, 17, 350, 1400, 2800])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_forward_on_the_total_matches_three_component_rk4(name, n):
    sc = preset_scenario(name)
    grid = TimeGrid(0.0, sc.t_f, n)
    args = (sc.x0, _random_controls(sc, grid, n), sc.params, _rates(sc, grid))
    x = rk4_forward(*args).values
    assert np.abs(x - _three_component_forward(*args)).max() <= 1e-14 * sc.n0
    assert tuple(x[0]) == (sc.x0.R, sc.x0.C, sc.x0.P)
    total = sc.x0.R + sc.x0.C + sc.x0.P
    R, P = x[1:, 0], x[1:, 2]
    assert x[1:, 1].tobytes() == (total - R - P).tobytes()


def _failing_forward(case):
    grid = TimeGrid(0.0, 7.0, 40)
    u = np.zeros((grid.n + 1, 2))
    zero = sample_rates(Constant(0.0), Constant(0.0), grid)
    params = ModelParams(
        alpha1=0.05, alpha2=0.10, lambda1=0.002, lambda2=0.018,
        u1_max=0.06, u2_max=2000.0,
    )
    if case == "below the floor":
        u[25:, 1] = 1000.0
        return State(0.5, 0.0, 0.5), ControlGrid(grid, u), params, zero
    if case in ("infinite", "nan"):
        # from step 21 on, defection runs at a rate that overflows the stages,
        # to (-inf, -inf, inf) or to nan in every component
        gamma = np.zeros(2 * grid.n + 1)
        gamma[41:] = 1e150 if case == "infinite" else 1e308  # midpoint 20 on
        rates = GridRates(grid, zero.beta, gamma)
        return State(0.5, 0.2, 0.3), ControlGrid(grid, u), params, rates
    # no flow at all: R sits exactly on -NONNEG_TOLERANCE, which is allowed,
    # with a total that is small, or that overflows and is rejected up front
    still = ModelParams(
        alpha1=0.0, alpha2=0.0, lambda1=0.0, lambda2=0.0, u1_max=1.0, u2_max=1.0
    )
    big = 0.5 if case == "at the floor" else 1e308
    x0 = State(-NONNEG_TOLERANCE, big, big)
    return x0, ControlGrid(grid, u), still, zero


@pytest.mark.parametrize(
    "case, expected",
    [
        ("below the floor", "state component below -1e-12 at step 25"),
        ("infinite", "non-finite state at step 21"),
        ("nan", "non-finite state at step 21"),
        ("at the floor", None),
        ("at the floor, total overflows", "initial total R + C + P must be finite"),
    ],
)
def test_inlined_forward_step_fails_like_the_reference(case, expected):
    args = _failing_forward(case)
    outcome = _forward_outcome(rk4_forward, *args)
    assert outcome == _forward_outcome(_reference_forward, *args)
    if expected is None:
        assert isinstance(outcome, bytes)
    else:
        assert outcome[0].startswith(expected)


def test_a_dip_is_reported_before_the_state_turns_non_finite(monkeypatch):
    # every step is checked after the loop, which runs on past a bad step
    args = _failing_forward("below the floor")
    with pytest.raises(IntegrationError) as err:
        rk4_forward(*args)
    assert (str(err.value), err.value.step) == (
        "state component below -1e-12 at step 25 (t=4.375); "
        "reduce the step size h=0.175",
        25,
    )
    # with no floor, the same pass fails later, where its state turns non-finite
    monkeypatch.setattr(integrator, "NONNEG_TOLERANCE", math.inf)
    with pytest.raises(IntegrationError) as err:
        rk4_forward(*args)
    assert (str(err.value), err.value.step) == ("non-finite state at step 27 (t=4.725)", 27)


def _clamped(w, top):
    """A control column clamped the way the l2 law clamps: to exactly 0 or top."""
    return np.minimum(np.maximum(w, 0.0), top)


JUNCTION_GRID = TimeGrid(0.0, 7.0, 175)  # h = 0.04, the l2 default on the presets
BOX = (SCENARIO1.params.u1_max, SCENARIO1.params.u2_max)


def test_a_clamped_smooth_control_locates_each_junction():
    # the l2 law clamps w to [0, u2_max]: its junctions are found from w, and
    # w = 0.4 + 0.9 sin(0.8 t) reaches u2_max = 1 at asin(2/3)/0.8, leaves it at
    # (pi - asin(2/3))/0.8 and reaches 0 at (pi + asin(4/9))/0.8
    t = JUNCTION_GRID.nodes()
    w = np.column_stack((np.full_like(t, 0.03), 0.4 + 0.9 * np.sin(0.8 * t)))
    found = junction_splits(w, BOX)
    exact = [math.asin(2.0 / 3.0) / 0.8, (math.pi - math.asin(2.0 / 3.0)) / 0.8,
             (math.pi + math.asin(4.0 / 9.0)) / 0.8]
    h = JUNCTION_GRID.h
    assert [(c, bound) for _, c, _, bound in found] == [(1, 1.0), (1, 1.0), (1, 0.0)]
    for (i, _, theta, _), tau in zip(found, exact):
        assert 0.0 < theta < 1.0
        assert abs((i + theta) * h - tau) <= 1e-7


def test_a_junction_in_the_first_or_last_step_is_found_on_the_end_stencil():
    # polynomials that the cubic reproduces: w1 falls below u1_max in step 0
    # and w2 rises off 0 in the last step
    grid = TimeGrid(0.0, 7.0, 43)
    t = grid.nodes()
    w = np.column_stack((BOX[0] * (1.0 - (t - 0.1) / 20.0), (7.5 - t) * (t - 6.95)))
    found = junction_splits(w, BOX)
    assert [(i, c, bound) for i, c, _, bound in found] == [(0, 0, BOX[0]), (42, 1, 0.0)]
    for (i, _, theta, _), tau in zip(found, (0.1, 6.95)):
        assert abs((i + theta) * grid.h - tau) <= 1e-13
    # and the table runs on those splits, next to the ends of the rate rows
    sc, rates = SCENARIO1, _rates(SCENARIO1, grid)
    u = ControlGrid(grid, _clamped(w, np.array(BOX)), found)
    x = rk4_forward(sc.x0, u, sc.params, rates)
    whole = rk4_forward(sc.x0, ControlGrid(grid, u.values), sc.params, rates)
    assert (x.values[1] != whole.values[1]).any()
    states, _, widths = rk4_stages(x, u, sc.params, rates)
    assert states.shape == (4, 45, 3)
    assert widths[[0, 42, 43, 44]].tolist() == [found[0][2], found[1][2],
                                                1.0 - found[0][2], 1.0 - found[1][2]]


@pytest.mark.parametrize("table", ["terminal touch", "bang-bang", "kink on a node",
                                   "root rounds onto a node", "clamped throughout",
                                   "interior", "zero", "under 3 intervals"])
def test_tables_without_a_junction(table):
    t = JUNCTION_GRID.nodes()
    if table == "terminal touch":
        # a smooth interior control that touches 0 at t_f only: a one-node arc
        w = np.column_stack([cap * (7.0 - t) / 8.0 for cap in BOX])
    elif table == "bang-bang":
        # jumps between the bounds, which it meets but never crosses
        w = np.column_stack([np.where(np.sin(t + k) > 0.0, cap, 0.0) for k, cap in enumerate(BOX)])
    elif table == "kink on a node":
        # w2 is 0.0 exactly at node 40: the kink lies in no step
        w = np.column_stack((np.full_like(t, 0.03), (np.arange(len(t)) - 40) / 64.0))
    elif table == "root rounds onto a node":
        # w2 crosses 0 in step 40, but the root rounds onto node 40: theta 0.0
        w = np.column_stack((np.full_like(t, 0.03), (np.arange(len(t)) - 40) / 64.0))
        w[40, 1] = -1e-300
    elif table == "clamped throughout":
        w = np.column_stack((BOX[0] + 2.0 + np.sin(t), -2.0 - np.sin(t)))
    elif table == "interior":
        w = np.column_stack([cap * (0.5 + 0.4 * np.sin(t + k)) for k, cap in enumerate(BOX)])
    elif table == "zero":
        w = np.zeros((len(t), 2))
    else:
        # a sign change, but too few nodes for a cubic
        w = np.column_stack((np.full(3, 0.03), (-1.0, 0.5, 0.7)))
    assert junction_splits(w, BOX) == ()


def test_a_clamped_table_with_no_splits_runs_on_whole_steps():
    # the clamped table of the junction case, which holds 3 junctions, but
    # declares no split
    x, u, rates, _, _ = _junction_case()
    plain = ControlGrid(u.grid, u.values)
    assert plain.splits == () and len(u.splits) == 3
    sc = SCENARIO1
    x_plain = rk4_forward(sc.x0, plain, sc.params, rates)
    whole, _ = forward_table(sc.x0, sc.n0, _half_steps(u.values), sc.params, rates)
    assert x_plain.values.tobytes() == whole.tobytes()
    assert x_plain.values.tobytes() != x.values.tobytes()
    states, _, widths = rk4_stages(x_plain, plain, sc.params, rates)
    assert states.shape == (4, u.grid.n, 3) and (widths == 1.0).all()


@pytest.mark.parametrize("split", [
    (175, 1, 0.5, 1.0),  # past the last step
    (-1, 1, 0.5, 1.0),
    (5, 1, 0.5, 1.0),  # after a split of step 5
    (6, 1, 0.0, 1.0),
    (6, 1, 1.0, 1.0),
    (6, 1, math.nan, 1.0),
    (6, 2, 0.5, 1.0),
    (6, -1, 0.5, 1.0),
    (6, 1, 0.5, -1.0),
    (6, 1, 0.5, math.inf),
])
def test_control_grid_rejects_malformed_splits(split):
    values = np.zeros((JUNCTION_GRID.n + 1, 2))
    with pytest.raises(ValueError, match=re.escape(f"split {split} needs steps rising in 0..174")):
        ControlGrid(JUNCTION_GRID, values, ((5, 0, 0.5, 0.0), split))
    with pytest.raises(ValueError, match="split step must be an integer"):
        ControlGrid(JUNCTION_GRID, values, ((6.0, 1, 0.5, 1.0),))
    # the same split list is accepted with a well-formed second split
    grid = ControlGrid(JUNCTION_GRID, values, [(5, 0, 0.5, 0.0), (6, 1, 0.25, None)])
    assert grid.splits == ((5, 0, 0.5, 0.0), (6, 1, 0.25, None))


def test_switch_steps_locate_each_sign_change_of_the_switching_values():
    grid = TimeGrid(0.0, 7.0, 43)
    t, box = grid.nodes(), (SCENARIO1.params.u1_max, SCENARIO1.params.u2_max)

    def located(phi):
        return switch_steps(phi, np.where(phi < 0.0, box, 0.0))

    # phi1 = sin(t) - 0.3 changes sign three times; phi2 is a quadratic, which
    # the cubic reproduces, with a root in the first step and one in the last
    phi = np.column_stack((np.sin(t) - 0.3, (t - 0.1) * (6.95 - t)))
    found = located(phi)
    asin = math.asin(0.3)
    exact = [(1, 0.1), (0, asin), (0, math.pi - asin), (0, 2.0 * math.pi + asin), (1, 6.95)]
    assert [(i, c) for i, c, _, _ in found] == [(0, 1), (1, 0), (17, 0), (40, 0), (42, 1)]
    for (i, c, theta, bound), (_, tau) in zip(found, exact):
        assert bound is None and 0.0 < theta < 1.0
        error = abs((i + theta) * grid.h - tau)
        assert error <= (1e-13 if c == 1 else 1e-4)
    # a step that holds a switch of each control is not split
    phi[:, 1] = (t - 0.25) * (6.95 - t)
    assert located(phi) is None
    # nor is a switch on a grid with too few nodes for a cubic
    assert located(np.column_stack((np.sin(t) - 0.3, 1.0 + t))[:3]) is None


def _junction_case():
    """scenario1's model under a u2 that reaches u2_max in step 22 (t = 0.91),
    with u1 interior and linear-in-time rates, which the rate polynomial
    reproduces, on the splits found from the unclamped controls; returns the
    state, controls, rates and beta, gamma callables."""
    grid, sc = JUNCTION_GRID, SCENARIO1
    t = grid.nodes()
    w = np.column_stack((0.03 + 0.01 * np.sin(t), 0.4 + 0.9 * np.sin(0.8 * t)))
    u = ControlGrid(grid, _clamped(w, np.array(BOX)), junction_splits(w, BOX))
    beta, gamma = (lambda s: 0.3 + 0.1 * s), (lambda s: 0.05 + 0.01 * s)
    ts = integrator._sample_times(grid)
    rates = GridRates(grid, beta(ts), gamma(ts))
    return rk4_forward(sc.x0, u, sc.params, rates), u, rates, beta, gamma


def test_a_split_step_is_two_rk4_sub_steps():
    x, u, rates, beta, gamma = _junction_case()
    sc, h = SCENARIO1, JUNCTION_GRID.h
    i, c, theta, bound = u.splits[0]
    assert (i, c, bound) == (22, 1, 1.0)

    def rk4(state, t, width, start, end):
        def rhs(y, s, v):
            return _three_component_rhs(*y, *v, beta(s), gamma(s), sc.params, sc.n0)

        mid = 0.5 * (start + end)
        k1 = rhs(state, t, start)
        k2 = rhs(state + 0.5 * width * k1, t + 0.5 * width, mid)
        k3 = rhs(state + 0.5 * width * k2, t + 0.5 * width, mid)
        k4 = rhs(state + width * k3, t + width, end)
        return state + width / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)

    # at tau the kinked u2 sits on u2_max and u1 is linear between its nodes
    ua, ub = u.values[i], u.values[i + 1]
    at_tau = ua + theta * (ub - ua)
    at_tau[c] = bound
    t, ha = i * h, theta * h
    split = rk4(rk4(x.values[i], t, ha, ua, at_tau), t + ha, h - ha, at_tau, ub)
    assert np.abs(x.values[i + 1] - split).max() <= 1e-15 * sc.n0
    # the step taken whole lands elsewhere, by far more than roundoff
    assert np.abs(x.values[i + 1] - rk4(x.values[i], t, h, ua, ub)).max() > 1e-9 * sc.n0


@pytest.mark.parametrize("name, n", [
    ("junction_case", JUNCTION_GRID.n),
    *((name, n) for name in ("scenario1", "scenario2", "scenario3") for n in (175, 350, 700)),
])
def test_split_step_stages_land_on_the_forward_nodes_bit_for_bit(name, n):
    if name == "junction_case":
        sc, (x, u, rates, _, _) = SCENARIO1, _junction_case()
    else:
        # the solved presets add u1 leaving u1_max, a junction of control 0
        sc = preset_scenario(name)
        result = solve(sc, SweepSettings(n=n))
        x, u, rates = result.state, result.controls, result.rates
    h, n0 = x.grid.h, sc.n0
    splits = u.splits
    kinked = [c for _, c, _, _ in splits]
    assert kinked == ([1, 1, 1] if name == "junction_case" else [1, 1, 0])
    # every (sub-)step: its width, its rates at the four stages, and where it
    # lands; a split step's first sub-step takes its place, and the second
    # sub-steps follow the n steps
    picks = [(2 * i, 2 * i + 1, 2 * i + 1, 2 * i + 2) for i in range(n)]
    steps = [(h, [(rates.beta[r], rates.gamma[r]) for r in picks[i]], x.values[i + 1])
             for i in range(n)]
    states, controls, widths = rk4_stages(x, u, sc.params, rates)
    assert states.shape == (4, n + len(splits), 3)
    expected_widths = np.ones(n + len(splits))
    layout = split_layout(splits, u.values, rates)
    for k, (split, (ha, hb), rows) in enumerate(zip(splits, layout.widths, layout.rows)):
        i = split[0]
        # a junction's sub-steps share their row at tau
        assert rows[2] == rows[3]
        steps[i] = (ha, [rows[r][2:] for r in (0, 1, 1, 2)], states[0, n + k])
        steps.append((hb, [rows[r][2:] for r in (3, 4, 4, 5)], x.values[i + 1]))
        expected_widths[i], expected_widths[n + k] = split[2], 1.0 - split[2]
    assert widths.tobytes() == expected_widths.tobytes()
    for m, (width, stage_rates, lands_on) in enumerate(steps):
        slopes = [rhs_terms(states[k, m, 0], states[k, m, 2], *controls[k, m],
                            *stage_rates[k], sc.params, n0, n0) for k in range(4)]
        (r1, p1), (r2, p2), (r3, p3), (r4, p4) = slopes
        sixth = width / 6.0
        R = states[0, m, 0] + sixth * (r1 + 2.0 * (r2 + r3) + r4)
        P = states[0, m, 2] + sixth * (p1 + 2.0 * (p2 + p3) + p4)
        assert (R, P) == (lands_on[0], lands_on[2])


# scenario3-l1's bang-bang controls switch u2 on, u1 off, then u2 off; the
# second set moves the u2 switches into the first and the last step of n=43
SWITCHES = ((0.2362, 4.8805, 6.1302), (0.05, 4.8805, 6.95))


def _switch_case(n, switches=SWITCHES[0]):
    """scenario3-l1 on n intervals under bang-bang controls that switch u2
    on, u1 off and u2 off at switches, with each step that holds a switch
    split there: the scenario, node controls, the layout of the switch
    steps, rates and half-step controls."""
    sc, grid = preset_scenario("scenario3-l1"), TimeGrid(0.0, 7.0, n)
    t, h = grid.nodes(), grid.h
    on, off1, off2 = switches
    u = np.column_stack((np.where(t < off1, sc.params.u1_max, 0.0),
                         np.where((on <= t) & (t < off2), sc.params.u2_max, 0.0)))
    splits = [(int(tau // h), c, tau / h - int(tau // h), None)
              for tau, c in zip(switches, (1, 0, 1))]
    rates = _rates(sc, grid)
    return sc, u, split_layout(splits, u, rates), rates, _half_steps(u)


def _linear_rates(ts):
    """beta and gamma linear in time, which a split step's rate quintic reproduces."""
    return 0.3 + 0.1 * ts, 0.05 + 0.01 * ts


def _coefficients(rows, sc):
    """A sub-step's ``_rk4_steps`` coefficient tuple from its 3 rows."""
    a, b, _, e, g, k, f = zip(*(flow_coefficients(*row, sc.params, sc.n0, sc.n0)
                                for row in rows))
    return (*a, *b, *e, *g, *k, *f)


@pytest.mark.parametrize("switches", SWITCHES)
def test_a_split_switch_step_is_two_one_step_rk4_calls_bit_for_bit(switches):
    sc, u, layout, rates, us = _switch_case(43, switches)
    x, _ = forward_table(sc.x0, sc.n0, us, sc.params, rates, layout)
    whole, _ = forward_table(sc.x0, sc.n0, us, sc.params, rates)
    steps = [split[0] for split in layout.splits]
    assert steps == ([1, 29, 37] if switches == SWITCHES[0] else [0, 29, 42])
    assert x[:steps[0] + 1].tobytes() == whole[:steps[0] + 1].tobytes()
    c = sc.params.lambda1 * sc.n0
    # the rate quintic reproduces linear rates, next to the ends too
    ts = integrator._sample_times(rates.grid)
    linear_rates = GridRates(rates.grid, *_linear_rates(ts))
    linear_rows = split_layout(layout.splits, u, linear_rates).rows
    for i, (ha, hb), rows, linear, landed in zip(steps, layout.widths, layout.rows,
                                                 linear_rows, layout.taus):
        assert len(rows) == 6 and ha + hb == pytest.approx(rates.grid.h, rel=1e-15)
        # each side holds its node's controls, and both read the rates at tau
        assert [row[:2] for row in rows] == [tuple(u[i])] * 3 + [tuple(u[i + 1])] * 3
        assert rows[2][2:] == rows[3][2:]
        t = i * rates.grid.h
        times = np.array((t, t + 0.5 * ha, t + ha, t + ha, t + ha + 0.5 * hb, t + ha + hb))
        error = np.array(linear)[:, 2:] - np.column_stack(_linear_rates(times))
        assert np.abs(error).max() <= 1e-13
        tau = integrator._rk4_steps(x[i, 0], x[i, 2], c, ha, (_coefficients(rows[:3], sc),),
                                    [], [])[:2]
        assert tau == landed  # the state at tau that the pass left in the layout
        end = integrator._rk4_steps(*tau, c, hb, (_coefficients(rows[3:], sc),), [], [])
        assert end[:2] == (x[i + 1, 0], x[i + 1, 2])
        # the step taken whole lands elsewhere, by far more than roundoff
        whole_rows = np.column_stack((us, rates.beta, rates.gamma))[2 * i:2 * i + 3]
        nodal = integrator._rk4_steps(x[i, 0], x[i, 2], c, rates.grid.h,
                                      (_coefficients(whole_rows.tolist(), sc),), [], [])[:2]
        assert np.abs(np.subtract(nodal, x[i + 1, 0::2])).max() > 1e-6 * sc.n0


# on n=2100 the first switch lies in the lowest of the BACKWARD_BLOCK blocks
# that holds one, the others in the top block, whose calls build every split's maps
@pytest.mark.parametrize("switches, n", [
    *(pytest.param(switches, 43, id=f"switches{k}") for k, switches in enumerate(SWITCHES)),
    *(pytest.param(switches, 2100, id=f"switches{k}-n2100")
      for k, switches in enumerate(SWITCHES)),
])
def test_a_split_backward_step_is_the_product_of_its_sub_step_maps(switches, n):
    sc, u, layout, rates, us = _switch_case(n, switches)
    x, _ = forward_table(sc.x0, sc.n0, us, sc.params, rates, layout)
    p = integrator.backward_table((0.0, 0.0, 0.0), x, us, sc.params, sc.weights, rates,
                                  sc.n0, layout)
    c = sc.params.lambda1 * sc.n0

    def sub_step(p_end, width, states, rows):
        # RK4 with step -width on dp/dt = A p + b, from the end to the start
        S = [costate_system(*state, *row, sc.params, sc.weights, sc.n0)
             for state, row in zip(states, rows)]

        def rhs(k, q):
            return (S[k] @ np.append(q, 1.0))[:3]

        k1 = rhs(2, p_end)
        k2 = rhs(1, p_end - 0.5 * width * k1)
        k3 = rhs(1, p_end - 0.5 * width * k2)
        k4 = rhs(0, p_end - width * k3)
        return p_end - width / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)

    for (i, *_), (ha, hb), rows in zip(layout.splits, layout.widths, layout.rows):
        R, P, _ = integrator._rk4_steps(x[i, 0], x[i, 2], c, ha,
                                        (_coefficients(rows[:3], sc),), [], [])
        tau = np.array((R, sc.n0 - R - P, P))
        at_tau = sub_step(p[i + 1], hb, (tau, 0.5 * (tau + x[i + 1]), x[i + 1]), rows[3:])
        expected = sub_step(at_tau, ha, (x[i], 0.5 * (x[i] + tau), tau), rows[:3])
        assert np.abs(p[i] - expected).max() <= 1e-13 * np.abs(expected).max()


def test_split_passes_converge_under_step_halving():
    # differences between the passes on n and 2n intervals, at t_f for the
    # state and at t = 0 for the adjoint
    def ends(n, backward_splits):
        sc, _, layout, rates, us = _switch_case(n)
        x, _ = forward_table(sc.x0, sc.n0, us, sc.params, rates, layout)
        p = integrator.backward_table((0.0, 0.0, 0.0), x, us, sc.params, sc.weights,
                                      rates, sc.n0, layout if backward_splits else None)
        return x[-1], p[0]

    for backward_splits in (True, False):
        runs = [ends(n, backward_splits) for n in (40, 80, 160, 320)]
        dx, dp = (np.array([np.abs(a[k] - b[k]).max() for a, b in zip(runs, runs[1:])])
                  for k in (0, 1))
        # the forward split keeps the state fourth order or better
        assert np.all(dx[:-1] / dx[1:] >= 16.0)
        if backward_splits:
            # the adjoint reads the states at midpoints as node averages, so
            # it is second order, split steps included
            assert np.all((dp[:-1] / dp[1:] >= 3.8) & (dp[:-1] / dp[1:] <= 4.5))
            split_dp = dp
        else:
            # a step taken whole across a switch misses by 100 times more
            assert np.all(dp >= 100.0 * split_dp)


def test_passes_reject_a_zero_initial_total():
    # the total of the first node is the model's n0, which the passes divide by
    grid = TimeGrid(0.0, 1.0, 4)
    u, rates = zero_controls(grid), _rates(SCENARIO1, grid)
    message = r"^initial total R \+ C \+ P must be > 0, got 0\.0$"
    with pytest.raises(ValueError, match=message):
        rk4_forward(State(0.0, 0.0, 0.0), u, SCENARIO1.params, rates)
    zero = Trajectory(grid, np.zeros((grid.n + 1, 3)))
    with pytest.raises(ValueError, match=message):
        rk4_backward(
            Costate(0.0, 0.0, 0.0), zero, u, SCENARIO1.params, SCENARIO1.weights, rates
        )
    with pytest.raises(ValueError, match=message):
        rk4_stages(zero, u, SCENARIO1.params, rates)


def test_backward_terminal_value_is_exact():
    grid = TimeGrid(0.0, 7.0, 200)
    x = _forward_no_control(grid)
    p = rk4_backward(
        Costate(0.0, 0.0, 0.0), x, zero_controls(grid), SCENARIO1.params,
        SCENARIO1.weights, _rates(SCENARIO1, grid),
    )
    assert tuple(p.values[-1]) == (0.0, 0.0, 0.0)


def test_backward_zero_weight_costate_is_identically_zero():
    grid = TimeGrid(0.0, 7.0, 200)
    x = _forward_no_control(grid)
    p = rk4_backward(
        Costate(0.0, 0.0, 0.0), x, zero_controls(grid), SCENARIO1.params,
        Weights(0.0, 1.0, 1.0), _rates(SCENARIO1, grid),
    )
    assert np.array_equal(p.values, np.zeros((201, 3)))


def test_backward_richardson_self_consistency():
    sc = SCENARIO1
    p3_at_start = []
    for n in (1400, 2800):
        grid = TimeGrid(0.0, 7.0, n)
        u = np.zeros((grid.n + 1, 2))
        u[:, 0] = sc.params.u1_max
        frozen = ControlGrid(grid, u)
        rates = _rates(sc, grid)
        x = rk4_forward(sc.x0, frozen, sc.params, rates)
        p = rk4_backward(Costate(0.0, 0.0, 0.0), x, frozen, sc.params, sc.weights, rates)
        p3_at_start.append(p.values[0, 2])
    assert abs(p3_at_start[0] - p3_at_start[1]) <= 1e-8


def test_backward_rejects_mismatched_grids():
    grid_a = TimeGrid(0.0, 7.0, 100)
    grid_b = TimeGrid(0.0, 7.0, 200)
    x = _forward_no_control(grid_a)
    with pytest.raises(ValueError, match="share one grid"):
        rk4_backward(
            Costate(0.0, 0.0, 0.0), x, zero_controls(grid_b), SCENARIO1.params,
            SCENARIO1.weights, _rates(SCENARIO1, grid_a),
        )


def _scalar_backward(p_end, x, u, params, weights, beta, gamma, n0):
    """Per-step RK4 on costate_rhs: the reference for the blocked array pass."""
    grid = x.grid
    h, ts = grid.h, grid.nodes()
    xs, us = x.values, u.values

    def rhs(t, xv, uv, p):
        return np.array(costate_rhs(
            t, State(*xv), Costate(*p), ControlPair(*uv),
            params, weights, beta, gamma, n0,
        ))

    out = np.empty((grid.n + 1, 3))
    out[grid.n] = p = np.array(p_end)
    for i in range(grid.n - 1, -1, -1):
        tm = ts[i] + 0.5 * h
        xm, um = 0.5 * (xs[i] + xs[i + 1]), 0.5 * (us[i] + us[i + 1])
        k1 = rhs(ts[i + 1], xs[i + 1], us[i + 1], p)
        k2 = rhs(tm, xm, um, p - 0.5 * h * k1)
        k3 = rhs(tm, xm, um, p - 0.5 * h * k2)
        k4 = rhs(ts[i], xs[i], us[i], p - h * k3)
        out[i] = p = p - h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return out


@pytest.mark.parametrize(
    "n", [2, 3, 960, 961, 962, BACKWARD_BLOCK - 1, BACKWARD_BLOCK,
          BACKWARD_BLOCK + 1, 2 * BACKWARD_BLOCK + 3],
)
@pytest.mark.parametrize("index", [1, 2, 3])
def test_blocked_backward_matches_scalar_rk4(n, index):
    sc = SCENARIO1
    beta, gamma = builtin_beta_rate(index), builtin_gamma_rate(index)
    rng = np.random.default_rng(1000 * index + n)
    grid = TimeGrid(0.0, 7.0, n)
    u = ControlGrid(
        grid, rng.uniform(0.0, 1.0, (n + 1, 2)) * (sc.params.u1_max, sc.params.u2_max)
    )
    rates = sample_rates(beta, gamma, grid)
    x = rk4_forward(sc.x0, u, sc.params, rates)
    p_end = Costate(*rng.uniform(-1.0, 1.0, 3))
    p = rk4_backward(p_end, x, u, sc.params, sc.weights, rates)
    ref = _scalar_backward(
        (p_end.p1, p_end.p2, p_end.p3), x, u, sc.params, sc.weights, beta, gamma,
        sc.n0,
    )
    assert tuple(p.values[-1]) == (p_end.p1, p_end.p2, p_end.p3)
    err = np.abs(p.values - ref).max(axis=0)
    assert np.all(err <= 1e-12 * np.abs(ref).max(axis=0))


def _textbook_step_maps(start, mid, end, h):
    """RK4 step maps composed out of place, one new array per operation."""
    K1 = end
    K2 = mid - (0.5 * h) * (mid @ K1)
    K3 = mid - (0.5 * h) * (mid @ K2)
    K4 = start - h * (start @ K3)
    return np.eye(4) - (h / 6.0) * (K1 + 2.0 * (K2 + K3) + K4)


@pytest.mark.parametrize("m", [1, 21, 175, 1024])
def test_step_maps_equal_the_textbook_composition(m):
    rng = np.random.default_rng(m)
    S = rng.uniform(-3.0, 3.0, (2 * m + 1, 4, 4))
    S[:, 3] = 0.0  # (dp/dt, 0): the last row of every system is zero
    start, mid, end = S[0:-1:2], S[1::2], S[2::2]
    # one width, or a width per step as on a block with split steps
    for h in (7.0 / 175, rng.uniform(0.0, 0.08, (m, 1, 1))):
        maps = integrator._step_maps(start, mid, end, h)
        assert maps.tobytes() == _textbook_step_maps(start, mid, end, h).tobytes()


@pytest.mark.parametrize("n", [200, 1400, 2800])
def test_nonfinite_adjoint_aborts_at_the_highest_bad_node(n):
    grid = TimeGrid(0.0, 7.0, n)
    x = _forward_no_control(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="non-finite adjoint at step") as err:
            rk4_backward(
                Costate(0.0, 0.0, 0.0), x, zero_controls(grid), SCENARIO1.params,
                Weights(1.7e308, 1.0, 1.0), _rates(SCENARIO1, grid),
            )
    assert err.value.step == n - 1


def test_rates_must_match_the_grid():
    grid = TimeGrid(0.0, 7.0, 100)
    with pytest.raises(ValueError, match="share one grid"):
        rk4_forward(
            SCENARIO1.x0, zero_controls(grid), SCENARIO1.params,
            _rates(SCENARIO1, TimeGrid(0.0, 7.0, 200)),
        )


def test_grid_rates_checks_lengths_and_values():
    grid = TimeGrid(0.0, 1.0, 4)
    ok = np.full(9, 0.5)
    rates = GridRates(grid, ok, ok)
    assert not rates.beta.flags.writeable
    with pytest.raises(ValueError, match="beta needs 5 node and 4 midpoint values"):
        GridRates(grid, np.full(10, 0.5), ok)
    with pytest.raises(ValueError, match="gamma needs 5 node and 4 midpoint values"):
        GridRates(grid, ok, np.full((5, 2), 0.5))
    for bad in (math.nan, math.inf, -1e-3):
        values = ok.copy()
        values[5] = bad  # the midpoint of the third interval
        with pytest.raises(ValueError, match=r"^gamma is .* at t=0\.625; rates must"):
            GridRates(grid, ok, values)
        with pytest.raises(ValueError, match=r"^beta is .* at t=0\.625; rates must"):
            GridRates(grid, values, ok)


def test_trajectory_and_control_grid_validation():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Trajectory(grid, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Trajectory(grid, np.full((5, 3), np.nan))
    with pytest.raises(ValueError):
        ControlGrid(grid, -np.ones((5, 2)))
    cg = zero_controls(grid)
    with pytest.raises(ValueError):
        cg.values[0, 0] = 1.0  # frozen storage
