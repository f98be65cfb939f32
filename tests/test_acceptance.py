"""Acceptance suite: end-to-end checks of the solver's qualitative and
numerical contracts, one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s` to see them)."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

from marketopt.experiments import (
    StrategyKind,
    SweepSpec,
    compare_strategies,
    default_sweep_values,
    run_sweep,
)
from marketopt.integrator import (
    TimeGrid,
    Trajectory,
    default_grid,
    rk4_forward,
    sample_rates,
    zero_controls,
)
from marketopt.model import ControlPair, ModelParams, State, Weights
from marketopt.objectives import evaluate_cost
from marketopt.pmp import (
    Costate,
    control_law_l2,
    costate_rhs,
    hamiltonian,
    switching_functions,
)
from marketopt.scenarios import Constant, Scenario, preset_scenario
from marketopt.solver import SweepSettings, solve

SIGN_EPS = 1e-6


def _criterion(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {number:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def _solve_preset(name: str, n: int | None = None):
    sc = preset_scenario(name)
    if n is None:
        n = default_grid(sc.t_f, sc.objective).n
    grid = TimeGrid(0.0, sc.t_f, n)
    return sc, solve(sc, SweepSettings(n=grid.n))


@pytest.fixture(scope="module")
def scenario1():
    return _solve_preset("scenario1")


@pytest.fixture(scope="module")
def scenario1_fine():
    return _solve_preset("scenario1", n=2800)


@pytest.fixture(scope="module")
def scenario2():
    return _solve_preset("scenario2")


@pytest.fixture(scope="module")
def scenario3():
    return _solve_preset("scenario3")


@pytest.fixture(scope="module")
def scenario3_l1():
    return _solve_preset("scenario3-l1")


@pytest.fixture(scope="module")
def comparison():
    sc = preset_scenario("comparison-default")
    return sc, SweepSettings(n=default_grid(sc.t_f, sc.objective).n)


@pytest.fixture(scope="module")
def comparison_table(comparison):
    sc, settings = comparison
    return compare_strategies(sc, settings)


@pytest.fixture(scope="module")
def gamma_sweep(comparison):
    sc, settings = comparison
    spec = SweepSpec(parameter="gamma", values=(0.1, 1.0, 1.1, 1.2), base=sc)
    return run_sweep(spec, settings)


def _no_control_state(sc, grid) -> Trajectory:
    rates = sample_rates(sc.beta, sc.gamma, grid)
    return rk4_forward(sc.x0, zero_controls(grid), sc.params, rates)


def test_criterion_1_conservation(
    scenario1, scenario1_fine, scenario2, scenario3, scenario3_l1
):
    worst = 0.0
    for sc, result in (scenario1, scenario1_fine, scenario2, scenario3, scenario3_l1):
        worst = max(worst, np.abs(result.state.values.sum(axis=1) - sc.n0).max())
    _criterion(1, "conservation", worst <= 1e-12, f"max deviation {worst:.3e}")


def test_criterion_2_scenario1_shape(scenario1):
    sc, result = scenario1
    ts = result.state.grid.nodes()
    u1 = result.controls.values[:, 0]
    u2 = result.controls.values[:, 1]

    u1_saturated = float(np.mean(u1 == sc.params.u1_max))
    ok_a = u1_saturated >= 0.80

    at_max = np.flatnonzero(u2 == sc.params.u2_max)
    contiguous = len(at_max) > 0 and bool(np.all(np.diff(at_max) == 1))
    onset = ts[at_max[0]] if len(at_max) else math.nan
    offset = ts[at_max[-1]] if len(at_max) else math.nan
    ok_b = contiguous and 0.5 <= onset <= 1.5 and 5.0 <= offset <= 6.0

    R = result.state.values[:, 0]
    peak = R.argmax()
    ok_c = 0.016 <= R[peak] <= 0.024 and ts[peak] >= 0.85 * sc.t_f

    _criterion(
        2,
        "scenario 1 optimal-control shape",
        ok_a and ok_b and ok_c,
        f"u1 saturated {u1_saturated:.1%}; u2 window [{onset:.2f}, {offset:.2f}]; "
        f"max R {R[peak]:.4f} at t={ts[peak]:.2f}",
    )


def test_criterion_3_improvement_over_no_control(scenario1, scenario2, scenario3):
    details = []
    ok = True
    for sc, result in (scenario1, scenario2, scenario3):
        free = _no_control_state(sc, result.state.grid)
        controlled = result.state.values[-1, 0] + result.state.values[-1, 1]
        uncontrolled = free.values[-1, 0] + free.values[-1, 1]
        ok &= controlled > uncontrolled
        details.append(f"{controlled:.4f}>{uncontrolled:.4f}")
    _criterion(3, "customers beat the no-control run", ok, ", ".join(details))


def test_criterion_4_bang_bang(scenario3_l1, scenario3):
    sc, result = scenario3_l1
    u = result.controls.values
    phis = np.empty((u.shape[0], 2))
    for i in range(u.shape[0]):
        phi = switching_functions(
            State(*result.state.values[i]),
            Costate(*result.costate.values[i]),
            sc.params,
            sc.weights,
            sc.n0,
        )
        phis[i] = (phi.phi1, phi.phi2)

    bounds = (sc.params.u1_max, sc.params.u2_max)
    consistent = True
    for comp in range(2):
        consistent &= bool(
            np.all(u[phis[:, comp] < -SIGN_EPS, comp] == bounds[comp])
            and np.all(u[phis[:, comp] > SIGN_EPS, comp] == 0.0)
        )
    terminal_off = tuple(u[-1]) == (0.0, 0.0)
    no_singular = not result.singular_flags.any()

    _, l2_result = scenario3
    l1_customers = result.state.values[-1, 0] + result.state.values[-1, 1]
    l2_customers = l2_result.state.values[-1, 0] + l2_result.state.values[-1, 1]
    bounded_by_l2 = l1_customers <= l2_customers

    _criterion(
        4,
        "bang-bang contract on the periodic scenario",
        consistent and terminal_off and no_singular and bounded_by_l2,
        f"sign-consistent={consistent}, terminal u={tuple(u[-1])}, "
        f"singular={bool(result.singular_flags.any())}, "
        f"customers {l1_customers:.4f} <= {l2_customers:.4f}",
    )


def test_criterion_5_strategy_ordering(comparison_table):
    costs = {row.strategy: row.cost for row in comparison_table.rows}
    j_opt = costs[StrategyKind.OPTIMAL]
    j_nc = costs[StrategyKind.NO_CONTROL]
    j_rest = min(costs[StrategyKind.CONSTANT], costs[StrategyKind.FOLLOW_HEURISTIC])
    ok = (j_opt < j_nc - 1e-9) and (j_nc < j_rest - 1e-9)
    _criterion(
        5,
        "strategy ordering at the comparison default",
        ok,
        f"optimal {j_opt:.6f} < no-control {j_nc:.6f} < others {j_rest:.6f}",
    )


def test_criterion_6_gamma_sweep_merging(gamma_sweep):
    values = (0.1, 1.0, 1.1, 1.2)
    band = 0.01
    gaps = {}
    for value in values:
        j_opt = gamma_sweep.cost_of(StrategyKind.OPTIMAL, value)
        j_nc = gamma_sweep.cost_of(StrategyKind.NO_CONTROL, value)
        gaps[value] = (j_nc - j_opt) / j_nc
    checks = {
        "merged": all(abs(gaps[v]) <= band for v in values[1:]),
        "decreasing": all(gaps[a] > gaps[b] for a, b in zip(values, values[1:])),
        # Optimum certified by test_comparison_default_optimum_matches_direct_transcription
        "separated": gaps[0.1] >= 2 * band,
    }
    failed = [name for name, ok in checks.items() if not ok]
    _criterion(
        6,
        "defection-rate sweep merging",
        not failed,
        ("failed: " + ", ".join(failed) + "; " if failed else "")
        + "gaps "
        + ", ".join(f"gamma={v}: {g:.4f}" for v, g in gaps.items()),
    )


# Independent direct-transcription oracle for the comparison-default optimum:
# the model equations, an RK4 stepper carrying the running cost as a fourth
# component, and piecewise-constant controls optimized by L-BFGS-B with
# central finite-difference gradients.  It shares no integrator, adjoint or
# quadrature with marketopt.
ORACLE_INTERVALS = 70
ORACLE_SUBSTEPS = 10
ORACLE_FD_STEP = 1e-6


def _oracle_costs(sc, u: np.ndarray) -> np.ndarray:
    """Costs of a batch of piecewise-constant controls u, shape (B, intervals, 2)."""
    p, w, n0 = sc.params, sc.weights, sc.n0
    h = sc.t_f / (ORACLE_INTERVALS * ORACLE_SUBSTEPS)

    def f(t, y, u1, u2):
        R, C, P = y[:, 0], y[:, 1], y[:, 2]
        beta_t, gamma_t = sc.beta(t), sc.gamma(t)
        spread = (beta_t + u2) * P * R / n0
        direct = u1 * P
        return np.stack(
            [
                -p.lambda2 * R + p.lambda1 * C - gamma_t * R
                + p.alpha1 * direct + p.alpha2 * spread,
                -p.lambda1 * C + p.lambda2 * R - gamma_t * C
                + (1.0 - p.alpha2) * spread + (1.0 - p.alpha1) * direct,
                -spread - direct + gamma_t * (R + C),
                w.kappa1 * P + w.kappa2 * u1 * u1 + w.kappa3 * u2 * u2,
            ],
            axis=1,
        )

    y = np.zeros((u.shape[0], 4))
    y[:, :3] = (sc.x0.R, sc.x0.C, sc.x0.P)
    t = 0.0
    for k in range(ORACLE_INTERVALS):
        u1, u2 = u[:, k, 0], u[:, k, 1]
        for _ in range(ORACLE_SUBSTEPS):
            k1 = f(t, y, u1, u2)
            k2 = f(t + h / 2, y + h / 2 * k1, u1, u2)
            k3 = f(t + h / 2, y + h / 2 * k2, u1, u2)
            k4 = f(t + h, y + h * k3, u1, u2)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
    return y[:, 3]


def _oracle_minimum(sc) -> float:
    """Least cost over piecewise-constant controls in the box, from u = 0."""
    u_max = np.array([sc.params.u1_max, sc.params.u2_max])
    m = 2 * ORACLE_INTERVALS
    steps = ORACLE_FD_STEP * np.eye(m)

    def cost_and_gradient(s):
        # s holds the controls scaled to [0, 1] by their bounds.
        batch = np.vstack([s, s + steps, s - steps])
        J = _oracle_costs(sc, batch.reshape(-1, ORACLE_INTERVALS, 2) * u_max)
        return J[0], (J[1 : m + 1] - J[m + 1 :]) / (2 * ORACLE_FD_STEP)

    result = minimize(
        cost_and_gradient,
        np.zeros(m),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, 1.0)] * m,
    )
    assert result.success, result.message
    return float(result.fun)


def test_comparison_default_optimum_matches_direct_transcription(
    comparison, comparison_table
):
    sc, settings = comparison
    j_solve = solve(sc, SweepSettings(n=settings.n, tol_delta=1e-8)).cost
    j_oracle = _oracle_minimum(sc)
    j_nc_oracle = float(_oracle_costs(sc, np.zeros((1, ORACLE_INTERVALS, 2)))[0])
    j_nc = comparison_table.cost_of(StrategyKind.NO_CONTROL)
    gap = (j_nc - j_solve) / j_nc
    print(
        f"oracle {j_oracle:.8f}, solve {j_solve:.8f}, "
        f"no-control {j_nc_oracle:.8f} / {j_nc:.8f}, gap at gamma=0.1 {gap:.4f}"
    )
    # Piecewise-constant controls are a subset of the admissible ones, so the
    # oracle can only lie above the true optimum.
    assert j_oracle >= j_solve - 1e-9
    assert abs(j_oracle - j_solve) <= 1e-5 * j_solve
    assert abs(j_nc_oracle - j_nc) <= 1e-10 * j_nc
    assert gap < 0.05


def test_criterion_7_kappa2_sweep_merging(comparison):
    sc, settings = comparison
    spec = SweepSpec(parameter="kappa2", values=(1.0, 100.0), base=sc)
    table = run_sweep(spec, settings)
    gaps = {}
    for value in spec.values:
        j_opt = table.cost_of(StrategyKind.OPTIMAL, value)
        j_nc = table.cost_of(StrategyKind.NO_CONTROL, value)
        gaps[value] = abs(j_opt - j_nc) / j_nc
    _criterion(
        7,
        "control-weight sweep merging",
        gaps[100.0] < gaps[1.0],
        f"gap at kappa2=100 {gaps[100.0]:.4f} < gap at kappa2=1 {gaps[1.0]:.4f}",
    )


@pytest.mark.parametrize("parameter", ["beta", "tf"])
def test_criterion_8_optimal_minimal_across_sweeps(comparison, parameter):
    sc, settings = comparison
    spec = SweepSpec(
        parameter=parameter, values=default_sweep_values(parameter), base=sc
    )
    table = run_sweep(spec, settings)
    ok = True
    worst_margin = math.inf
    for value in spec.values:
        costs = {
            row.strategy: row.cost for row in table.rows if row.value == value
        }
        ok &= all(row.converged for row in table.rows if row.value == value)
        j_opt = costs.pop(StrategyKind.OPTIMAL)
        margin = min(costs.values()) - j_opt
        worst_margin = min(worst_margin, margin)
        ok &= j_opt <= min(costs.values()) + 1e-9
    _criterion(
        8,
        f"optimal strategy minimal across the {parameter} sweep",
        ok,
        f"worst margin {worst_margin:.3e}",
    )


def test_criterion_9_numerical_analysis_properties():
    # (a) integrator order on a linear problem with a matrix-exponential oracle
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
    rk4_order = math.log2(errors[0] / errors[1])

    # (b) cost order on the same model: its exact cost, the integral of P, is
    # the last component of the exponential of A augmented by the row q' = P
    augmented = np.zeros((4, 4))
    augmented[:3, :3] = A
    augmented[3, 2] = 1.0
    quad_exact = (expm(2.0 * augmented) @ np.array([x0.R, x0.C, x0.P, 0.0]))[3]
    linear = Scenario(
        params, Weights(1.0, 1.0, 1.0), Constant(0.0), Constant(gamma), x0, 2.0
    )
    quad_errors = []
    for n in (8, 16):
        grid = TimeGrid(0.0, 2.0, n)
        rates = sample_rates(linear.beta, linear.gamma, grid)
        x = rk4_forward(x0, zero_controls(grid), params, rates)
        cost = evaluate_cost(linear, x, zero_controls(grid), rates)
        quad_errors.append(abs(cost - quad_exact))
    quad_order = math.log2(quad_errors[0] / quad_errors[1])

    # (c) adjoint right-hand side against the Hamiltonian state gradient
    sc = preset_scenario("scenario1")
    rng = np.random.default_rng(42)
    fd_ok = True
    for _ in range(100):
        raw = rng.uniform(0.05, 1.0, size=3)
        raw /= raw.sum()
        x = State(*raw)
        p = Costate(*rng.uniform(-3.0, 3.0, size=3))
        u = ControlPair(
            rng.uniform(0.0, sc.params.u1_max), rng.uniform(0.0, sc.params.u2_max)
        )
        t = rng.uniform(0.0, sc.t_f)
        analytic = costate_rhs(
            t, x, p, u, sc.params, sc.weights, sc.beta, sc.gamma, 1.0
        )
        for comp in range(3):
            delta = 1e-6
            bump = [0.0, 0.0, 0.0]
            bump[comp] = delta
            hi = hamiltonian(
                t, State(x.R + bump[0], x.C + bump[1], x.P + bump[2]), p, u,
                "l2", sc.params, sc.weights, sc.beta, sc.gamma, 1.0 + delta,
            )
            lo = hamiltonian(
                t, State(x.R - bump[0], x.C - bump[1], x.P - bump[2]), p, u,
                "l2", sc.params, sc.weights, sc.beta, sc.gamma, 1.0 - delta,
            )
            fd = -(hi - lo) / (2.0 * delta)
            scale = max(abs(analytic[comp]), 1e-3)
            fd_ok &= abs(fd - analytic[comp]) <= 1e-6 * scale

    # (d) pointwise minimality of the quadratic law against brute force
    minimality_ok = True
    beta, gamma_rate = Constant(0.6), Constant(0.1)
    u1_grid = np.linspace(0.0, sc.params.u1_max, 50)
    u2_grid = np.linspace(0.0, sc.params.u2_max, 50)
    for _ in range(100):
        raw = rng.uniform(0.05, 1.0, size=3)
        raw /= raw.sum()
        x = State(*raw)
        p = Costate(*rng.uniform(-3.0, 3.0, size=3))
        u_star = control_law_l2(x, p, sc.params, sc.weights, 1.0)
        h_star = hamiltonian(
            0.0, x, p, u_star, "l2", sc.params, sc.weights, beta, gamma_rate, 1.0
        )
        best = min(
            hamiltonian(
                0.0, x, p, ControlPair(u1, u2), "l2", sc.params, sc.weights,
                beta, gamma_rate, 1.0,
            )
            for u1 in u1_grid
            for u2 in u2_grid
        )
        minimality_ok &= h_star <= best + 1e-12

    ok = rk4_order >= 3.7 and quad_order >= 3.7 and fd_ok and minimality_ok
    _criterion(
        9,
        "numerical-analysis properties",
        ok,
        f"rk4 order {rk4_order:.2f}, quadrature order {quad_order:.2f}, "
        f"adjoint-gradient match {fd_ok}, minimality {minimality_ok}",
    )


def test_criterion_10_determinism_and_grid_stability(scenario1, scenario1_fine):
    sc, result = scenario1
    rerun = solve(sc, SweepSettings(n=result.state.grid.n))
    identical = (
        np.array_equal(rerun.state.values, result.state.values)
        and np.array_equal(rerun.costate.values, result.costate.values)
        and np.array_equal(rerun.controls.values, result.controls.values)
        and rerun.cost == result.cost
    )
    _, fine = scenario1_fine
    drift = abs(result.cost - fine.cost) / abs(result.cost)
    _criterion(
        10,
        "determinism and grid stability",
        identical and drift <= 1e-4,
        f"bit-identical rerun {identical}, cost drift {drift:.3e}",
    )
