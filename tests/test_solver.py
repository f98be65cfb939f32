import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketopt import experiments, solver
from marketopt.experiments import (
    SWEEP_PARAMETERS,
    StrategyKind,
    SweepSpec,
    default_sweep_values,
    run_sweep,
)
from marketopt.integrator import (
    TimeGrid,
    default_grid,
    forward_table,
    rk4_backward,
    rk4_forward,
    sample_rates,
    zero_controls,
)
from marketopt.model import ControlPair, State, Weights
from marketopt.objectives import evaluate_cost
from marketopt.pmp import Costate, hamiltonian, switching_functions
from marketopt.scenarios import PRESET_NAMES, Constant, Scenario, preset_scenario
from marketopt.solver import (
    DivergenceError,
    SweepSettings,
    _residual,
    solve,
)


def test_residual_of_identical_series_is_zero():
    series = np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]])
    assert _residual(series, series) == 0.0


def test_residual_is_inf_when_a_series_collapses_to_zero():
    old = np.array([[2.0, 3.0], [1.0, 1.0]])
    new = np.array([[2.0, 3.0], [0.0, 0.0]])
    assert _residual(old, new) == float("inf")


def test_residual_of_half_the_tolerance_passes():
    tol = 1e-3
    old = np.array([[2.0, 3.0, 4.0]])
    new = old * (1.0 + tol / 2.0)
    assert 0.0 < _residual(old, new) <= tol


def _per_series_residual(old, new):
    """max(sum|n - o| / sum|n|) with each series summed on its own; inf for a
    series that moves to all zeros, and all-zero series left out."""
    ratios = []
    for o, n in zip(old, new):
        o, n = o.copy(), n.copy()
        change, scale = np.abs(n - o).sum(), np.abs(n).sum()
        if scale > 0.0:
            ratios.append(float(change / scale))
        elif change > 0.0:
            ratios.append(math.inf)
    return max(ratios, default=0.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3000),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(
        st.sampled_from(["moves", "still", "zero", "collapses", "appears"]),
        min_size=1,
        max_size=8,
    ),
)
def test_residual_equals_the_per_series_definition_bit_for_bit(n, seed, kinds):
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.integers(-8, 9, (len(kinds), 1))
    old = rng.standard_normal((len(kinds), n)) * magnitudes
    new = old * (1.0 + 1e-3 * rng.standard_normal(old.shape))
    for row, kind in enumerate(kinds):
        if kind == "still":
            new[row] = old[row]
        elif kind == "zero":
            old[row] = new[row] = 0.0
        elif kind == "collapses":
            new[row] = 0.0
        elif kind == "appears":
            old[row] = 0.0
    expected = _per_series_residual(old, new)
    assert _residual(old, new).hex() == expected.hex()
    assert (expected == math.inf) == ("collapses" in kinds)


def test_settings_validation():
    grid = TimeGrid(0.0, 7.0, 100)
    with pytest.raises(ValueError):
        SweepSettings(n=grid.n, relaxation=0.0)
    with pytest.raises(ValueError):
        SweepSettings(n=grid.n, tol_delta=0.0)
    with pytest.raises(ValueError):
        SweepSettings(n=grid.n, max_iters=0)
    for bad in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(ValueError, match="tol_delta"):
            SweepSettings(n=grid.n, tol_delta=bad)
    for bad in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(ValueError, match="eps_singular"):
            SweepSettings(n=grid.n, eps_singular=bad)
    assert SweepSettings(n=grid.n, eps_singular=0.0).eps_singular == 0.0


def test_settings_need_two_intervals():
    with pytest.raises(ValueError, match="need at least 2 intervals, got n=1"):
        SweepSettings(n=1)


def test_solve_grid_spans_the_scenario_horizon():
    sc = replace(preset_scenario("scenario1"), t_f=3.5)
    result = solve(sc, SweepSettings(n=700))
    assert result.state.grid == TimeGrid(0.0, 3.5, 700)
    assert result.costate.grid == result.controls.grid == result.rates.grid
    assert result.controls.grid == result.state.grid


def test_l2_solve_needs_positive_control_weights():
    sc = preset_scenario("comparison-default")
    settings = SweepSettings(n=100)
    k1, k2, k3 = sc.weights.kappa1, sc.weights.kappa2, sc.weights.kappa3
    for weights in (Weights(k1, 0.0, k3), Weights(k1, k2, 0.0)):
        with pytest.raises(ValueError, match="kappa2 > 0 and kappa3 > 0"):
            solve(replace(sc, weights=weights), settings)


def test_dominant_control_cost_pins_controls_at_zero():
    sc = preset_scenario("comparison-default")
    big = replace(
        sc,
        weights=Weights(sc.weights.kappa1, sc.weights.kappa2 * 1e6,
                        sc.weights.kappa3 * 1e6),
    )
    grid = default_grid(sc.t_f, sc.objective)
    result = solve(big, SweepSettings(n=grid.n))
    assert result.converged
    assert np.abs(result.controls.values).max() <= 1e-6
    free = rk4_forward(
        sc.x0, zero_controls(grid), sc.params,
        sample_rates(sc.beta, sc.gamma, grid),
    )
    assert np.abs(result.state.values - free.values).max() <= 1e-6


def test_returned_controls_respect_bounds_exactly():
    sc = preset_scenario("scenario1")
    result = solve(sc, SweepSettings(n=700))
    assert result.converged
    u = result.controls.values
    assert u.min() >= 0.0
    assert (u <= (sc.params.u1_max, sc.params.u2_max)).all()
    assert result.singular_flags is None
    assert result.interior_fraction is None
    assert len(result.residual_history) == result.iterations


@pytest.mark.parametrize("tol", [1e-2, 1e-5])
def test_solve_samples_each_rate_once_per_node_and_midpoint(tol, counting_rate):
    sc = preset_scenario("scenario3")
    beta, gamma = counting_rate(sc.beta), counting_rate(sc.gamma)
    n = 200
    result = solve(
        replace(sc, beta=beta, gamma=gamma),
        SweepSettings(n=n, tol_delta=tol),
    )
    assert result.iterations > 1
    assert beta.calls == gamma.calls == 2 * n + 1


def test_l1_result_carries_diagnostics():
    sc = preset_scenario("scenario3-l1")
    result = solve(sc, SweepSettings(n=700))
    assert result.converged
    assert result.singular_flags is not None
    assert result.singular_flags.shape == (701,)
    assert not result.singular_flags.any()
    # measured on the returned bang-bang controls, not the blended iterate
    assert result.interior_fraction == 0.0
    # l1 starts cold: its coarse grids chatter instead of converging
    assert result.coarse_iterations == 0
    # bang-bang terminal values: both switching values end positive
    assert tuple(result.controls.values[-1]) == (0.0, 0.0)


def test_converged_l2_controls_are_stationary_at_interior_nodes():
    sc = preset_scenario("scenario1")
    result = solve(sc, SweepSettings(n=700))
    assert result.converged
    ts = result.state.grid.nodes()
    bounds = (sc.params.u1_max, sc.params.u2_max)
    checked = 0
    for i in range(0, len(ts), 10):
        x = State(*result.state.values[i])
        p = Costate(*result.costate.values[i])
        u1, u2 = result.controls.values[i]
        for comp, bound in enumerate(bounds):
            value = (u1, u2)[comp]
            if not (1e-9 < value < bound - 1e-9):
                continue
            delta = 1e-6
            hi = ControlPair(u1 + delta * (comp == 0), u2 + delta * (comp == 1))
            lo = ControlPair(u1 - delta * (comp == 0), u2 - delta * (comp == 1))
            grad = (
                hamiltonian(ts[i], x, p, hi, "l2", sc.params, sc.weights,
                            sc.beta, sc.gamma, sc.n0)
                - hamiltonian(ts[i], x, p, lo, "l2", sc.params, sc.weights,
                              sc.beta, sc.gamma, sc.n0)
            ) / (2.0 * delta)
            assert abs(grad) <= 1e-6
            checked += 1
    assert checked > 10


def test_converged_l1_run_is_strictly_bang_bang():
    sc = preset_scenario("scenario3-l1")
    result = solve(sc, SweepSettings(n=700))
    assert result.converged
    u = result.controls.values
    n = result.state.grid.n
    h = result.state.grid.h
    phis = np.empty((n + 1, 2))
    for i in range(n + 1):
        phi = switching_functions(
            State(*result.state.values[i]), Costate(*result.costate.values[i]),
            sc.params, sc.weights, sc.n0,
        )
        phis[i] = (phi.phi1, phi.phi2)
    bounds = (sc.params.u1_max, sc.params.u2_max)
    for comp in range(2):
        assert np.all(u[phis[:, comp] < -1e-6, comp] == bounds[comp])
        assert np.all(u[phis[:, comp] > 1e-6, comp] == 0.0)
        # every sign change crosses zero with a clearly nonzero slope
        switches = np.flatnonzero(np.sign(phis[:-1, comp]) != np.sign(phis[1:, comp]))
        assert len(switches) > 0
        for j in switches:
            k = int(np.clip(j if abs(phis[j, comp]) <= abs(phis[j + 1, comp]) else j + 1,
                            1, n - 1))
            slope = (phis[k + 1, comp] - phis[k - 1, comp]) / (2.0 * h)
            assert abs(slope) >= 1e-4


def test_non_convergence_is_reported_not_raised():
    sc = preset_scenario("scenario1")
    result = solve(sc, SweepSettings(n=700, max_iters=1))
    assert not result.converged
    assert result.iterations == 1


def test_divergence_error_carries_iteration():
    sc = preset_scenario("scenario1")
    wild = Scenario(
        params=sc.params,
        weights=sc.weights,
        beta=Constant(1e8),
        gamma=Constant(0.1),
        x0=State(0.5, 0.0, 0.5),
        t_f=7.0,
    )
    with pytest.raises(DivergenceError) as err:
        solve(wild, SweepSettings(n=100))
    assert err.value.iteration == 1


# scenario3-l1 at n=350 and tol 1e-6 chatters: its residual grows every few
# iterations and it never converges, so it exercises the one-time halving.
CHATTERING_L1 = SweepSettings(n=350, tol_delta=1e-6, max_iters=40)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_converge_undamped_at_the_defaults(name):
    sc = preset_scenario(name)
    result = solve(sc, SweepSettings(n=default_grid(sc.t_f, sc.objective).n))
    assert result.converged
    assert result.relaxation == 1.0
    assert result.iterations <= 8


# Relative distance allowed between a default solve's cost and a tol-1e-8 solve
# at n=2800.  The RK4 stage cost gives at most 5.4e-9 on the l2 presets at
# n=350; the trapezoid rule it replaced gave 3.4e-8 to 4.6e-8 at n=1400 (except
# 1.2e-8 on comparison-default).  l1 stays at n=1400, where its second-order
# cost gives 2.8e-8, against the trapezoid's 4.4e-8.
DEFAULT_GRID_COST_BOUND = {"l2": 2e-8, "l1": 4e-8}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_default_grid_cost_is_close_to_a_fine_tight_solve(name):
    sc = preset_scenario(name)
    result = solve(sc, SweepSettings(n=default_grid(sc.t_f, sc.objective).n))
    reference = solve(sc, SweepSettings(n=2800, tol_delta=1e-8))
    assert reference.converged
    rel_err = abs(result.cost - reference.cost) / reference.cost
    assert rel_err <= DEFAULT_GRID_COST_BOUND[sc.objective]


def test_fine_l1_grid_converges_undamped():
    result = solve(
        preset_scenario("scenario3-l1"), SweepSettings(n=2800, tol_delta=1e-6)
    )
    assert result.converged
    assert result.relaxation == 1.0
    assert result.iterations <= 10


# Costs and iteration counts of the sweep, which for l2 starts from an 8x
# coarser sweep.  A change meant only to speed the sweep up may move a cost by
# roundoff, not more, and no iteration count.
@pytest.mark.parametrize(
    "name, n, tol, cost, iterations",
    [
        ("scenario1", None, 1e-3, 5.85159560873069, 2),
        ("scenario2", None, 1e-3, 5.815234126694822, 2),
        ("scenario3", None, 1e-3, 5.833254487774069, 2),
        ("scenario3-l1", None, 1e-3, 6.330618554071916, 6),
        ("comparison-default", None, 1e-3, 0.9623966848539478, 2),
        ("scenario3-l1", 2800, 1e-6, 6.330618374621364, 7),
    ],
)
def test_pinned_costs_and_iterations(name, n, tol, cost, iterations):
    sc = preset_scenario(name)
    n = n or default_grid(sc.t_f, sc.objective).n
    result = solve(sc, SweepSettings(n=n, tol_delta=tol))
    assert result.converged
    assert result.iterations == iterations
    assert abs(result.cost - cost) <= 1e-12 * cost


def test_growing_residual_halves_the_weight_and_rescues_a_coarse_l1_grid():
    result = solve(preset_scenario("scenario3-l1"), SweepSettings(n=700))
    assert result.converged
    assert result.relaxation == 0.5
    history = result.residual_history
    assert any(history[k] > history[k - 1] for k in range(2, len(history)))


@pytest.mark.parametrize("relaxation", [1.0, 0.5, 0.3])
def test_weight_is_halved_only_once_although_the_residual_keeps_growing(relaxation):
    settings = replace(CHATTERING_L1, relaxation=relaxation)
    result = solve(preset_scenario("scenario3-l1"), settings)
    assert not result.converged
    assert result.iterations == settings.max_iters
    history = result.residual_history
    assert sum(history[k] > history[k - 1] for k in range(2, len(history))) > 1
    assert result.relaxation == relaxation / 2.0


@pytest.mark.parametrize(
    "name, settings",
    [
        (name, SweepSettings(n=default_grid(7.0, preset_scenario(name).objective).n))
        for name in PRESET_NAMES
    ]
    + [("scenario3-l1", CHATTERING_L1)],
)
def test_reported_solution_is_the_reintegration_of_its_controls(name, settings):
    sc = preset_scenario(name)
    result = solve(sc, settings)
    u = result.controls
    x = rk4_forward(sc.x0, u, sc.params, result.rates)
    p = rk4_backward(Costate(0.0, 0.0, 0.0), x, u, sc.params, sc.weights, result.rates)
    assert np.array_equal(result.state.values, x.values)
    assert np.array_equal(result.costate.values, p.values)
    assert result.cost == evaluate_cost(sc, x, u, result.rates)


@pytest.mark.parametrize(
    "name, settings",
    [
        (name, SweepSettings(n=default_grid(7.0, preset_scenario(name).objective).n))
        for name in PRESET_NAMES
    ]
    + [("scenario1", SweepSettings(n=350, max_iters=1)), ("scenario3-l1", CHATTERING_L1)],
)
def test_solve_stops_exactly_when_the_last_residual_meets_the_tolerance(name, settings):
    result = solve(preset_scenario(name), settings)
    *earlier, last = result.residual_history
    assert len(result.residual_history) == result.iterations
    assert all(r > settings.tol_delta for r in earlier)
    assert result.converged == (last <= settings.tol_delta)
    assert result.converged or result.iterations == settings.max_iters


def test_final_pass_is_skipped_when_the_law_repeats_its_controls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return forward_table(*args)

    monkeypatch.setattr(solver, "forward_table", counted)
    result = solve(preset_scenario("scenario3-l1"), SweepSettings(n=1400))
    assert result.converged
    # one forward pass per iteration: the last one already integrated the
    # returned bang-bang controls
    assert len(calls) == result.iterations


def test_an_iteration_that_would_repeat_its_controls_is_recorded_not_run(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return forward_table(*args)

    monkeypatch.setattr(solver, "forward_table", counted)
    sc = preset_scenario("scenario3-l1")
    result = solve(sc, SweepSettings(n=2800, tol_delta=1e-6))
    assert result.converged
    assert result.residual_history[-1] == 0.0
    # the last iteration would have integrated the controls of the one before
    assert len(calls) == result.iterations - 1
    assert result.iterations == 7
    assert abs(result.cost - 6.330618374621364) <= 1e-12 * result.cost


def test_a_repeat_past_max_iters_is_not_recorded():
    settings = SweepSettings(n=2800, tol_delta=1e-6)
    sc = preset_scenario("scenario3-l1")
    full = solve(sc, settings)
    capped_at = full.iterations - 1
    capped = solve(sc, replace(settings, max_iters=capped_at))
    assert not capped.converged
    assert capped.iterations == capped_at
    assert capped.residual_history == full.residual_history[:-1]


L2_PRESETS = [name for name in PRESET_NAMES if preset_scenario(name).objective == "l2"]


def _default_solves(case, monkeypatch):
    """(scenario, settings, result) of an l2 preset at its default grid, or of
    every optimal cell of the default sweep over the parameter case."""
    if case in L2_PRESETS:
        sc = preset_scenario(case)
        settings = SweepSettings(n=default_grid(sc.t_f, sc.objective).n)
        return [(sc, settings, solve(sc, settings))]
    solves = []

    def recorded(sc, settings):
        solves.append((sc, settings, solve(sc, settings)))
        return solves[-1][2]

    monkeypatch.setattr(experiments, "solve", recorded)
    base = preset_scenario("comparison-default")
    spec = SweepSpec(case, default_sweep_values(case), base, (StrategyKind.OPTIMAL,))
    run_sweep(spec, SweepSettings(n=default_grid(base.t_f, base.objective).n))
    assert len(solves) == len(spec.values)
    return solves


@pytest.mark.parametrize("case", L2_PRESETS + list(SWEEP_PARAMETERS))
def test_coarse_start_leaves_at_most_three_fine_iterations(case, monkeypatch):
    for sc, settings, result in _default_solves(case, monkeypatch):
        assert result.converged
        assert result.relaxation == 1.0
        assert result.iterations <= 3
        assert result.coarse_iterations > 0
        reference = solve(sc, replace(settings, tol_delta=1e-8))
        assert abs(result.cost - reference.cost) <= 1e-10 * reference.cost


@pytest.mark.parametrize(
    "scenario, settings",
    [
        # the n=43 coarse grid diverges at the first step
        (replace(preset_scenario("comparison-default"), gamma=Constant(20.0)),
         SweepSettings(n=350)),
        # the coarse sweep needs 6 iterations, so it stops unconverged
        (preset_scenario("scenario1"), SweepSettings(n=350, max_iters=3)),
    ],
    ids=["coarse-diverges", "coarse-unconverged"],
)
def test_failed_coarse_sweep_leaves_the_cold_start(scenario, settings, monkeypatch):
    warm = solve(scenario, settings)
    monkeypatch.setattr(solver, "COARSENING", 10**9)
    cold = solve(scenario, settings)
    assert warm.coarse_iterations > 0
    assert cold.coarse_iterations == 0
    assert warm.residual_history == cold.residual_history
    assert warm.cost == cold.cost
    for field in ("state", "costate", "controls"):
        assert np.array_equal(getattr(warm, field).values, getattr(cold, field).values)
