import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketopt import experiments, junctions, solver
from marketopt.experiments import (
    SWEEP_PARAMETERS,
    StrategyKind,
    SweepSpec,
    default_sweep_values,
    run_sweep,
)
from marketopt.integrator import (
    ControlGrid,
    TimeGrid,
    backward_table,
    default_grid,
    forward_table,
    rk4_backward,
    rk4_forward,
    sample_rates,
    zero_controls,
)
from marketopt.junctions import REACH, junction_steps
from marketopt.model import ControlPair, State, Weights
from marketopt.objectives import evaluate_cost
from marketopt.pmp import Costate, hamiltonian, switching_functions
from marketopt.scenarios import PRESET_NAMES, Constant, Scenario, preset_scenario
from marketopt.solver import (
    DivergenceError,
    SweepSettings,
    _first_change,
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
    # l1 starts from the switch sweep on a coarse grid (n=43 here)
    assert result.coarse_iterations > 0
    # bang-bang terminal values: both switching values end positive
    assert tuple(result.controls.values[-1]) == (0.0, 0.0)


L2_PRESETS = [name for name in PRESET_NAMES if preset_scenario(name).objective == "l2"]


def _check_stationary_at_interior_nodes(name, n):
    sc = preset_scenario(name)
    result = solve(sc, SweepSettings(n=n))
    assert result.converged, (name, n)
    ts = result.state.grid.nodes()
    bounds = (sc.params.u1_max, sc.params.u2_max)
    checked = 0
    for i in range(0, len(ts), n // 70):  # about 70 nodes on every grid
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
            assert abs(grad) <= 1e-6, (name, n, ts[i], comp)
            checked += 1
    assert checked > 10, (name, n)


def test_converged_l2_controls_are_stationary_at_interior_nodes():
    # every l2 preset, at its default grid and at 4x it
    for name in L2_PRESETS:
        for n in (175, 700):
            _check_stationary_at_interior_nodes(name, n)


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
# at n=2800.  The RK4 stage cost, with the steps that hold a clamp junction
# split there, gives at most 1.8e-10 on the l2 presets at n=175 (5.4e-9 at
# n=350 without the split); the trapezoid rule it replaced gave 3.4e-8 to
# 4.6e-8 at n=1400 (except 1.2e-8 on comparison-default).  l1 stays at n=1400,
# where its second-order cost gives 2.8e-8, against the trapezoid's 4.4e-8.
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


# Costs and fine iteration counts of the sweep, which starts from a sweep on a
# coarser grid (l2 for l2, the switch sweep for l1).  A change meant only to
# speed the sweep up may move a cost by roundoff, not more; an iteration count
# moves only with a change to the path to the answer (such as the start), and
# never up.
@pytest.mark.parametrize(
    "name, n, tol, cost, iterations",
    [
        ("scenario1", None, 1e-3, 5.851595582460026, 2),
        ("scenario2", None, 1e-3, 5.815234095430976, 2),
        ("scenario3", None, 1e-3, 5.833254488044247, 2),
        ("scenario3-l1", None, 1e-3, 6.330618554071916, 2),
        ("comparison-default", None, 1e-3, 0.9623966848539478, 2),
        ("scenario3-l1", 2800, 1e-6, 6.330618374621364, 2),
    ],
)
def test_pinned_costs_and_iterations(name, n, tol, cost, iterations):
    sc = preset_scenario(name)
    n = n or default_grid(sc.t_f, sc.objective).n
    result = solve(sc, SweepSettings(n=n, tol_delta=tol))
    assert result.converged
    assert result.iterations == iterations
    assert abs(result.cost - cost) <= 1e-12 * cost


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_clamped_l2_solves_report_their_three_junctions(name):
    sc = preset_scenario(name)
    caps = (sc.params.u1_max, sc.params.u2_max)
    found = []
    for n in (175, 350, 700):
        result = solve(sc, SweepSettings(n=n))
        junctions = result.junctions
        # u2 reaches u2_max, u2 leaves it, then u1 leaves u1_max; the terminal
        # touch u(t_f) = 0 is a one-node arc, so no junction
        assert [c for c, _ in junctions] == [1, 1, 0]
        (_, reach), (_, leave), (_, u1_leaves) = junctions
        assert 0.7 <= reach <= 1.3 and 4.8 <= leave <= 5.2 and 6.7 <= u1_leaves <= 6.8
        h, u = result.state.grid.h, result.controls.values
        for (c, tau), side in zip(junctions, (1, 0, 0)):
            # the node on the clamped side of each junction sits on the cap
            assert u[int(tau // h) + side, c] == caps[c]
        found.append([tau for _, tau in junctions])
    assert np.abs(np.diff(found, axis=0)).max() <= 7.0 / 175


@pytest.mark.parametrize("name, n", [("comparison-default", 175), ("comparison-default", 350),
                                     ("scenario3-l1", 1400)])
def test_unclamped_and_bang_bang_solves_report_no_junction(name, n):
    assert solve(preset_scenario(name), SweepSettings(n=n)).junctions == ()


def test_growing_residual_halves_the_weight_and_rescues_a_coarse_l1_grid():
    # at n=350 the fine sweep must still move a switch of its start (at
    # n=700 the start is already its fixed point)
    result = solve(preset_scenario("scenario3-l1"), SweepSettings(n=350))
    assert result.converged
    assert result.relaxation == 0.5
    history = result.residual_history
    assert any(history[k] > history[k - 1] for k in range(2, len(history)))


def test_a_residual_that_stays_inf_halves_the_weight(monkeypatch):
    # at kappa2 = 5 the full-step law alternates between u1 on somewhere with
    # u2 = 0 everywhere and u1 = 0 everywhere with u2 on; a series that moves
    # to all zeros has residual inf, so the residuals run 1, inf, inf, ...
    sc = preset_scenario("scenario3-l1")
    sc = replace(sc, weights=replace(sc.weights, kappa2=5.0))
    result = solve(sc, SweepSettings(n=350))
    assert result.residual_history[:3] == (1.0, math.inf, math.inf)
    # the repeated inf of iteration 3 halves the weight, and the blended
    # fourth iterate moves every series
    assert math.isfinite(result.residual_history[3])
    assert result.converged and result.relaxation == 0.5 and result.iterations == 19
    # inf > inf is false: counting only a larger residual as growth, the
    # weight stays 1 and the sweep cycles
    monkeypatch.setattr(solver, "_grew", lambda history: history[-1] > history[-2])
    stuck = solve(sc, SweepSettings(n=350, max_iters=40))
    assert not stuck.converged and stuck.relaxation == 1.0
    assert stuck.residual_history[1:] == (math.inf,) * 39


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


def _record_passes(monkeypatch, n=None):
    """Patch both passes in the solver to record the arguments of each call
    (only of those on the n-interval grid, if n is given)."""
    calls = {"forward": [], "backward": []}

    def recorded(name, table):
        def call(*args):
            if n is None or len(args[2]) == 2 * n + 1:  # args[2]: the half-step controls
                calls[name].append(args)
            return table(*args)
        return call

    monkeypatch.setattr(solver, "forward_table", recorded("forward", forward_table))
    monkeypatch.setattr(solver, "backward_table", recorded("backward", backward_table))
    return calls


def test_final_pass_is_skipped_when_the_law_repeats_its_controls(monkeypatch):
    calls = _record_passes(monkeypatch, n=1400)
    result = solve(preset_scenario("scenario3-l1"), SweepSettings(n=1400))
    assert result.converged
    # one fine pass of each kind: the switch start is the fixed point, so the
    # second iteration repeats it and runs no pass, nor does the final pass
    assert len(calls["forward"]) == len(calls["backward"]) == 1
    assert result.iterations == 2


def test_an_iteration_that_would_repeat_its_controls_runs_no_pass(monkeypatch):
    calls = _record_passes(monkeypatch, n=2800)
    sc = preset_scenario("scenario3-l1")
    result = solve(sc, SweepSettings(n=2800, tol_delta=1e-6))
    assert result.converged
    assert result.residual_history[-1] == 0.0
    # the last iteration integrates the controls of the one before, so it
    # reuses that iteration's passes, as does the final pass
    assert len(calls["forward"]) == len(calls["backward"]) == result.iterations - 1 == 1
    assert result.iterations == 2
    assert abs(result.cost - 6.330618374621364) <= 1e-12 * result.cost


@pytest.mark.parametrize("node", [None, 0, 4, 5, 700])
def test_integrate_reuses_exactly_the_unchanged_part_of_the_last_pass(node, monkeypatch):
    sc = preset_scenario("scenario3-l1")
    result = solve(sc, SweepSettings(n=1400))
    rates = result.rates
    # bang-bang controls hold no junction, so the pass has no layout
    last = (result.controls.values, result.state.values, result.costate.values, None)
    u = last[0].copy()
    if node is not None:
        u[node, 0] = 0.5 * sc.params.u1_max
    calls = _record_passes(monkeypatch)
    x, p, layout = solver._integrate(sc, u, rates, 1, last)
    assert layout is None
    if node is None:
        # unchanged controls: the last pass's own tables, and no pass runs
        assert x is last[1] and p is last[2]
        assert calls == {"forward": [], "backward": []}
    else:
        assert len(calls["forward"]) == len(calls["backward"]) == 1
        head = calls["forward"][0][5]
        # forward steps from node - REACH on read the changed node
        expected = node + 1 - REACH if node > REACH else None
        assert (None if head is None else len(head)) == expected
    controls = ControlGrid(rates.grid, u)
    fresh_x = rk4_forward(sc.x0, controls, sc.params, rates)
    fresh_p = rk4_backward(Costate(0.0, 0.0, 0.0), fresh_x, controls, sc.params, sc.weights, rates)
    assert x.tobytes() == fresh_x.values.tobytes()
    assert p.tobytes() == fresh_p.values.tobytes()


def test_a_repeat_past_max_iters_is_not_recorded(monkeypatch):
    # max_iters caps the coarse sweep too, so the coarse level is turned off
    # for both solves: both start cold
    monkeypatch.setattr(solver, "COARSENING", 10**9)
    settings = SweepSettings(n=2800, tol_delta=1e-6)
    sc = preset_scenario("scenario3-l1")
    full = solve(sc, settings)
    assert full.converged and full.residual_history[-1] == 0.0
    capped_at = full.iterations - 1
    capped = solve(sc, replace(settings, max_iters=capped_at))
    assert not capped.converged
    assert capped.iterations == capped_at
    assert capped.residual_history == full.residual_history[:-1]


@pytest.mark.parametrize("node, column, value", [(0, 0, 1.0), (4, 1, 0.5), (9, 1, 2.0)])
def test_first_change_is_the_first_node_that_differs_bit_for_bit(node, column, value):
    old = np.zeros((10, 2))
    assert _first_change(old, old.copy()) is None
    new = old.copy()
    new[node, column] = value
    new[node + 1:] = 3.0
    assert _first_change(old, new) == node
    # a signed zero is a change, as it is to tobytes
    new = old.copy()
    new[node, column] = -0.0
    assert _first_change(old, new) == node


def _resume_cases():
    for name in PRESET_NAMES:
        objective = preset_scenario(name).objective
        yield name, SweepSettings(n=default_grid(7.0, objective).n), None
    # l1-fine (a reused repeat; the steps include the 8 switch sweep passes at
    # n=43), weight halving, and an unconverged grid
    yield "scenario3-l1", SweepSettings(n=2800, tol_delta=1e-6), (3144, 3144)
    yield "scenario3-l1", SweepSettings(n=350), None
    yield "scenario3-l1", SweepSettings(n=2424, tol_delta=1e-6, max_iters=40), None


@pytest.mark.parametrize("name, settings, steps", list(_resume_cases()))
def test_resumed_forward_passes_change_no_result(name, settings, steps, monkeypatch):
    starts = []

    def counted(*args):
        head = args[5]
        starts.append((0 if head is None else len(head) - 1, len(args[2]) // 2))
        return forward_table(*args)

    def solved():
        starts.clear()
        r = solve(preset_scenario(name), settings)
        digests = [
            hashlib.sha256(t.values.tobytes()).hexdigest()
            for t in (r.state, r.costate, r.controls)
        ]
        history = [h.hex() for h in r.residual_history]
        return digests, history, r.iterations, r.coarse_iterations, r.relaxation, r.cost

    monkeypatch.setattr(solver, "forward_table", counted)
    resumed, resumed_starts = solved(), list(starts)
    # every pass from node 0, and no pass reused
    monkeypatch.setattr(solver, "_first_change", lambda old, new: 0)
    assert solved() == resumed
    assert all(start == 0 for start, _ in starts)
    if preset_scenario(name).objective == "l2":
        # u2 is interior at t=0, so every l2 pass changes node 0
        assert all(start == 0 for start, _ in resumed_starts)
    if steps is not None:
        assert (sum(n - start for start, n in resumed_starts),
                sum(n for _, n in resumed_starts)) == steps


def test_resumed_passes_next_to_a_junction_change_no_result(monkeypatch):
    # with u2 nearly free, both controls start on their caps, so the passes
    # resume late, inside the stencil of u1's junction near t_f
    sc = replace(preset_scenario("scenario2"), weights=Weights(1.0, 1.5, 0.001))
    starts = []

    def counted(*args):
        starts.append(0 if args[5] is None else len(args[5]) - 1)
        return forward_table(*args)

    def solved():
        r = solve(sc, SweepSettings(n=175))
        digests = [hashlib.sha256(t.values.tobytes()).hexdigest()
                   for t in (r.state, r.costate, r.controls)]
        return digests, [h.hex() for h in r.residual_history], r.cost, r.junctions

    monkeypatch.setattr(solver, "forward_table", counted)
    resumed = solved()
    assert len(resumed[3]) == 2 and max(starts) > 160
    monkeypatch.setattr(solver, "_first_change", lambda old, new: 0)
    assert solved() == resumed


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
    # at most two: the least a fine sweep can run (see solve)
    for sc, settings, result in _default_solves(case, monkeypatch):
        assert result.converged
        assert result.relaxation == 1.0
        assert result.iterations <= 2
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


@pytest.mark.parametrize("n, tol", [(700, 1e-3), (1400, 1e-3), (2800, 1e-6)])
def test_l1_coarse_start_reaches_the_cold_start_answer_bit_for_bit(n, tol, monkeypatch):
    sc, settings = preset_scenario("scenario3-l1"), SweepSettings(n=n, tol_delta=tol)
    warm = solve(sc, settings)
    monkeypatch.setattr(solver, "COARSENING", 10**9)
    cold = solve(sc, settings)
    assert warm.coarse_iterations > 0
    assert cold.coarse_iterations == 0
    assert warm.converged and cold.converged
    assert warm.iterations <= cold.iterations
    assert warm.cost.hex() == cold.cost.hex()
    for field in ("state", "costate", "controls"):
        assert getattr(warm, field).values.tobytes() == getattr(cold, field).values.tobytes()


@pytest.mark.parametrize("m, n", [(2, 16), (2, 23), (3, 24), (5, 43), (21, 175), (43, 2800)])
def test_prolongation_reproduces_the_polynomial_of_its_degree(m, n):
    indices, weights = solver._prolongation(m, n)
    width = 4 if m >= 3 else 3
    assert indices.shape == weights.shape == (width, n + 1)
    assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-13
    coarse, fine = TimeGrid(0.0, 7.0, m).nodes(), TimeGrid(0.0, 7.0, n).nodes()
    # each stencil is the run of coarse nodes nearest its fine node: centred
    # on the node's coarse interval away from the ends
    assert np.all(np.diff(indices, axis=0) == 1)
    assert indices.min() == 0 and indices.max() == m
    steps = np.arange(n + 1) * m / n  # the fine nodes, in coarse steps
    assert np.all((indices[0] <= steps) & (steps <= indices[-1]))
    inner = (1 <= steps) & (steps <= m - 1)
    assert np.all((indices[1][inner] <= steps[inner]) & (steps[inner] <= indices[-2][inner]))
    # a cubic on 4 nodes, a quadratic on 3, in t / t_f to keep the values O(1)
    poly = np.polynomial.Polynomial([0.3, -1.2, 0.8, 0.5][:width], domain=[0.0, 7.0],
                                    window=[0.0, 1.0])
    prolonged = (weights * poly(coarse)[indices]).sum(axis=0)
    assert np.abs(prolonged - poly(fine)).max() <= 1e-13


# On n = 16 .. 23 the coarse grid has 2 intervals: the start then prolongs by the
# quadratic through its 3 nodes.  The bounds are the counts of the linear start
# that the quadratic replaced.
@pytest.mark.parametrize("n", [16, 17, 23])
@pytest.mark.parametrize("name", L2_PRESETS)
def test_a_three_node_coarse_grid_still_starts_the_fine_sweep(name, n):
    result = solve(preset_scenario(name), SweepSettings(n=n))
    assert result.converged
    assert result.coarse_iterations > 0
    assert result.iterations <= (3 if name == "comparison-default" else 4)


@pytest.mark.parametrize("weights", [Weights(1.0, 1.5, 0.0), Weights(1.0, 0.0, 0.01)])
def test_l1_with_a_zero_control_weight_starts_cold(weights):
    # the l2 law divides by both control weights, so no coarse l2 sweep runs
    sc = replace(preset_scenario("scenario3-l1"), weights=weights)
    result = solve(sc, SweepSettings(n=1400))
    assert result.converged
    assert result.coarse_iterations == 0


def test_switch_sweep_places_the_switches_alike_on_a_coarse_and_a_finer_grid():
    sc = preset_scenario("scenario3-l1")
    taus = []
    for n in (43, 175):
        grid = TimeGrid(0.0, sc.t_f, n)
        rates = sample_rates(sc.beta, sc.gamma, grid)
        law, iterations = solver._switch_sweep(sc, SweepSettings(n=n, tol_delta=1e-6), rates)
        assert law is not None and iterations <= 10
        u, splits = law
        # u2 switches on, u1 off, then u2 off, between bang-bang node values
        assert [c for _, c, _, _ in splits] == [1, 0, 1]
        assert np.all((u == 0.0) | (u == (sc.params.u1_max, sc.params.u2_max)))
        assert all(0.0 < theta < 1.0 for _, _, theta, _ in splits)
        taus.append([(i + theta) * grid.h for i, _, theta, _ in splits])
    assert np.abs(np.subtract(*taus)).max() <= 1e-4
    # the switch times of an n=5600, tol-1e-8 nodal solve
    assert np.abs(np.subtract(taus[0], (0.2362, 4.8805, 6.1302))).max() <= 1e-4


@pytest.mark.parametrize(
    "gamma, iterations, cost",
    [
        # in its 4th iteration a step of the n=43 switch grid holds a switch
        # of each control
        (0.4, 9, 6.839914806050949),
        # the switch sweep's residual grows in its 4th iteration: u1 has a
        # near-singular arc, on which the full-step sweep cycles on every grid
        (0.6, 300, 6.970957741309637),
    ],
)
def test_l1_falls_back_to_the_l2_start_where_the_switch_sweep_cannot_settle(
    gamma, iterations, cost, monkeypatch
):
    sc = replace(preset_scenario("scenario3-l1"), gamma=Constant(gamma))
    settings = SweepSettings(n=700, max_iters=300)
    laws = []

    def recorded(*args):
        laws.append(switch_sweep(*args))
        return laws[-1]

    switch_sweep = solver._switch_sweep
    monkeypatch.setattr(solver, "_switch_sweep", recorded)
    fallback = solve(sc, settings)
    assert laws == [(None, 4)]
    # the answer of a solve with no switch sweep, bit for bit
    monkeypatch.setattr(solver, "_switch_sweep", lambda *args: (None, 0))
    plain = solve(sc, settings)
    assert fallback.coarse_iterations == plain.coarse_iterations + laws[0][1]
    assert fallback.residual_history == plain.residual_history
    assert fallback.cost.hex() == plain.cost.hex()
    for field in ("state", "costate", "controls"):
        assert getattr(fallback, field).values.tobytes() == getattr(plain, field).values.tobytes()
    # and the iterations and cost of an l2 start from the n=10 grid of n/64
    assert fallback.iterations == iterations
    assert fallback.converged == (iterations < settings.max_iters)
    assert abs(fallback.cost - cost) <= 1e-12 * cost


def test_only_an_l1_solve_runs_the_switch_and_split_code(monkeypatch):
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    # the layout builder runs from the solver (switch steps) and from
    # junctions.junction_layout (junction steps)
    for module, name in ((solver, "_switch_sweep"), (solver, "_switch_law"),
                         (solver, "_switch_start"), (solver, "switch_steps"),
                         (solver, "split_layout"), (junctions, "split_layout")):
        counted(module, name)
    passes = {"forward": [], "backward": []}

    def recorded(kind, table):
        def call(*args):
            passes[kind].append(args)
            return table(*args)
        monkeypatch.setattr(solver, f"{kind}_table", call)

    recorded("forward", forward_table)
    recorded("backward", backward_table)
    for name in L2_PRESETS:
        solve(preset_scenario(name), SweepSettings(n=175))
    base = preset_scenario("comparison-default")
    run_sweep(SweepSpec("gamma", (0.1, 1.2), base, (StrategyKind.OPTIMAL,)),
              SweepSettings(n=175))
    layouts = calls.pop("split_layout")
    assert calls == {}
    # each forward pass runs on a new table and carries the layout of its
    # junctions, and the backward pass never splits one
    junction_lists = [junction_steps(args[2][0::2], args[3]) for args in passes["forward"]]
    for args, splits in zip(passes["forward"], junction_lists):
        assert args[6] is None if not splits else args[6].splits == splits
    assert all(len(args) == 7 for args in passes["backward"])
    # so every clamped table is laid out once: the cost and result.junctions
    # reuse the final pass's layout
    assert layouts == sum(1 for splits in junction_lists if splits) > 0
    for kind in passes:
        passes[kind].clear()
    solve(preset_scenario("scenario3-l1"), SweepSettings(n=1400))
    assert set(calls) == {"_switch_sweep", "_switch_law", "_switch_start", "switch_steps",
                          "split_layout"}
    # one layout per switch-sweep iteration with switch steps (all but the
    # first, from zero controls), read by both of its passes
    coarse = [(f[6], b[7]) for f, b in zip(passes["forward"], passes["backward"])
              if len(f[2]) == 2 * 43 + 1]
    assert all(f is b for f, b in coarse)
    assert calls["split_layout"] == sum(f is not None for f, _ in coarse) == len(coarse) - 1
    # and none on the fine pass, whose bang-bang controls hold no junction
    fine = [args for args in passes["forward"] if len(args[2]) == 2 * 1400 + 1]
    assert fine and all(args[6] is None for args in fine)


def test_switch_sweep_gives_up_when_its_law_puts_a_node_in_the_deadband():
    # a wide deadband: a node near a switch falls in it in the second iteration
    sc, grid = preset_scenario("scenario3-l1"), TimeGrid(0.0, 7.0, 43)
    rates = sample_rates(sc.beta, sc.gamma, grid)
    settings = SweepSettings(n=43, eps_singular=1e-3)
    assert solver._switch_sweep(sc, settings, rates) == (None, 2)
    law, _ = solver._switch_sweep(sc, replace(settings, eps_singular=1e-9), rates)
    assert law is not None
