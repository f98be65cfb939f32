import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from marketopt import experiments, solver
from marketopt.experiments import (
    StrategyKind,
    SweepSpec,
    compare_strategies,
    default_sweep_values,
    run_sweep,
    strategy_controls,
)
from marketopt.integrator import (
    TimeGrid,
    forward_table,
    rk4_forward,
    sample_rates,
    zero_controls,
)
from marketopt.model import State
from marketopt.objectives import evaluate_cost
from marketopt.scenarios import Constant, Scenario, preset_scenario
from marketopt.solver import SweepSettings, solve

COMPARISON = preset_scenario("comparison-default")
FAST_GRID = TimeGrid(0.0, 7.0, 700)
FAST_SETTINGS = SweepSettings(n=FAST_GRID.n)
FAST_RATES = sample_rates(COMPARISON.beta, COMPARISON.gamma, FAST_GRID)


def _uncontrolled(sc, rates):
    return rk4_forward(sc.x0, zero_controls(rates.grid), sc.params, rates)


FAST_FREE = _uncontrolled(COMPARISON, FAST_RATES)


def test_constant_strategy_values():
    u = strategy_controls(StrategyKind.CONSTANT, COMPARISON, FAST_FREE)
    assert np.all(u.values[:, 0] == pytest.approx(0.0285, rel=1e-15))
    assert np.all(u.values[:, 1] == 0.05)


def test_no_control_strategy_is_zero():
    u = strategy_controls(StrategyKind.NO_CONTROL, COMPARISON, FAST_FREE)
    assert not u.values.any()


def test_heuristic_vanishes_where_no_potential_customers():
    sc = replace(COMPARISON, x0=State(R=0.4, C=0.6, P=0.0))
    u = strategy_controls(
        StrategyKind.FOLLOW_HEURISTIC, sc, _uncontrolled(sc, FAST_RATES)
    )
    assert tuple(u.values[0]) == (0.0, 0.0)


def test_heuristic_controls_never_exceed_bounds():
    for name in ("scenario1", "comparison-default"):
        sc = preset_scenario(name)
        rates = sample_rates(sc.beta, sc.gamma, FAST_GRID)
        u = strategy_controls(StrategyKind.FOLLOW_HEURISTIC, sc, _uncontrolled(sc, rates))
        cap1 = (1.0 - sc.params.alpha1) * sc.params.u1_max
        cap2 = sc.params.alpha2 * sc.params.u2_max
        assert u.values[:, 0].max() <= cap1 <= sc.params.u1_max
        assert u.values[:, 1].max() <= cap2 <= sc.params.u2_max


def test_optimal_strategy_has_no_fixed_controls():
    # optimal controls come only from solve, which compare_strategies calls
    with pytest.raises(ValueError, match="no fixed controls"):
        strategy_controls(StrategyKind.OPTIMAL, COMPARISON, FAST_FREE)


def test_compare_orders_strategies_at_the_default_point():
    table = compare_strategies(COMPARISON, FAST_SETTINGS)
    assert len(table.rows) == 4
    costs = {row.strategy: row.cost for row in table.rows}
    assert costs[StrategyKind.OPTIMAL] < costs[StrategyKind.NO_CONTROL]
    assert costs[StrategyKind.NO_CONTROL] < costs[StrategyKind.CONSTANT]
    assert costs[StrategyKind.NO_CONTROL] < costs[StrategyKind.FOLLOW_HEURISTIC]
    assert all(row.converged for row in table.rows)


def test_compare_samples_each_rate_once_per_node_and_midpoint(counting_rate):
    beta, gamma = counting_rate(COMPARISON.beta), counting_rate(COMPARISON.gamma)
    sc = replace(COMPARISON, beta=beta, gamma=gamma)
    table = compare_strategies(sc, FAST_SETTINGS)
    assert tuple(row.strategy for row in table.rows) == tuple(StrategyKind)
    assert beta.calls == gamma.calls == 2 * FAST_GRID.n + 1


def test_compare_integrates_the_uncontrolled_state_once(monkeypatch):
    expected = []
    for strategy in (
        StrategyKind.NO_CONTROL, StrategyKind.CONSTANT, StrategyKind.FOLLOW_HEURISTIC
    ):
        u = strategy_controls(strategy, COMPARISON, FAST_FREE)
        x = rk4_forward(COMPARISON.x0, u, COMPARISON.params, FAST_RATES)
        cost = evaluate_cost(COMPARISON, x, u, FAST_RATES)
        expected.append((strategy, cost, True, 0))
    result = solve(COMPARISON, FAST_SETTINGS)
    expected.append(
        (StrategyKind.OPTIMAL, result.cost, result.converged, result.iterations)
    )

    calls = []

    def counted(forward):
        def wrapped(*args):
            calls.append(args)
            return forward(*args)
        return wrapped

    monkeypatch.setattr(experiments, "rk4_forward", counted(rk4_forward))
    monkeypatch.setattr(solver, "forward_table", counted(forward_table))
    table = compare_strategies(COMPARISON, FAST_SETTINGS)
    # the shared uncontrolled pass and two fixed strategies, then the coarse
    # and fine sweeps and the final re-integration
    assert len(calls) == 3 + result.coarse_iterations + result.iterations + 1
    rows = [(r.strategy, r.cost, r.converged, r.iterations) for r in table.rows]
    assert rows == expected


SUBSETS = [
    subset
    for k in range(1, len(StrategyKind) + 1)
    for subset in itertools.combinations(StrategyKind, k)
]


@pytest.fixture(scope="module")
def full_table_n200():
    return compare_strategies(COMPARISON, SweepSettings(n=200))


@pytest.mark.parametrize(
    "subset", SUBSETS, ids=["+".join(s.value for s in subset) for subset in SUBSETS]
)
def test_any_subset_gives_the_full_rows_from_one_uncontrolled_pass(
    monkeypatch, full_table_n200, subset
):
    uncontrolled = []

    def counted(x0, u, *args):
        if not u.values.any():
            uncontrolled.append(u)
        return rk4_forward(x0, u, *args)

    monkeypatch.setattr(experiments, "rk4_forward", counted)
    # asked for in reverse, answered in ALL_STRATEGIES order
    table = compare_strategies(COMPARISON, SweepSettings(n=200), subset[::-1])
    assert table.rows == tuple(r for r in full_table_n200.rows if r.strategy in subset)
    fixed = any(s is not StrategyKind.OPTIMAL for s in subset)
    assert len(uncontrolled) == (1 if fixed else 0)


def test_optimal_never_loses_to_no_control():
    table = compare_strategies(COMPARISON, FAST_SETTINGS)
    j_opt = table.cost_of(StrategyKind.OPTIMAL)
    j_nc = table.cost_of(StrategyKind.NO_CONTROL)
    assert j_opt <= j_nc + 1e-9


def test_single_point_sweep_matches_compare():
    spec = SweepSpec(parameter="gamma", values=(0.1,), base=COMPARISON)
    swept = run_sweep(spec, FAST_SETTINGS)
    table = compare_strategies(COMPARISON, FAST_SETTINGS)
    assert len(swept.rows) == 4
    for row, ref in zip(swept.rows, table.rows):
        assert row.strategy is ref.strategy
        assert row.parameter == "gamma"
        assert row.value == 0.1
        assert row.cost == ref.cost
        assert row.iterations == ref.iterations


def test_optimal_cost_is_nondecreasing_in_the_defection_rate():
    spec = SweepSpec(
        parameter="gamma", values=(0.1, 0.4, 0.7, 1.0, 1.1),
        base=COMPARISON,
        strategies=(StrategyKind.NO_CONTROL, StrategyKind.OPTIMAL),
    )
    table = run_sweep(spec, FAST_SETTINGS)
    j_opt = [table.cost_of(StrategyKind.OPTIMAL, v) for v in spec.values]
    assert all(a <= b + 1e-12 for a, b in zip(j_opt, j_opt[1:]))
    for value in (1.0, 1.1):
        j_nc = table.cost_of(StrategyKind.NO_CONTROL, value)
        assert abs(table.cost_of(StrategyKind.OPTIMAL, value) - j_nc) / j_nc <= 0.01


def test_sweep_is_reproducible():
    spec = SweepSpec(
        parameter="gamma", values=(0.3, 0.9),
        base=COMPARISON, strategies=(StrategyKind.NO_CONTROL, StrategyKind.OPTIMAL),
    )
    assert run_sweep(spec, FAST_SETTINGS) == run_sweep(spec, FAST_SETTINGS)


def test_parallel_sweep_matches_sequential():
    spec = SweepSpec(
        parameter="gamma", values=(0.4, 1.1),
        base=COMPARISON, strategies=(StrategyKind.NO_CONTROL, StrategyKind.OPTIMAL),
    )
    assert run_sweep(spec, FAST_SETTINGS, workers=2) == run_sweep(spec, FAST_SETTINGS)


def test_tf_sweep_keeps_step_size_and_renormalizes_state_weight():
    spec = SweepSpec(
        parameter="tf", values=(4.0,), base=COMPARISON,
        strategies=(StrategyKind.NO_CONTROL,),
    )
    table = run_sweep(spec, FAST_SETTINGS)
    assert len(table.rows) == 1
    # cost of the uncontrolled run with kappa1 = 1/4 over [0, 4]: near-constant
    # potential pool P ~= 0.99 integrates to ~0.99 for any horizon
    assert table.rows[0].cost == pytest.approx(0.99, abs=0.01)


def test_compare_costs_every_row_on_the_scenario_horizon():
    sc = replace(COMPARISON, t_f=3.5)
    rates = sample_rates(sc.beta, sc.gamma, TimeGrid(0.0, 3.5, 700))
    table = compare_strategies(sc, SweepSettings(n=700))
    for kind in (StrategyKind.NO_CONTROL, StrategyKind.CONSTANT,
                 StrategyKind.FOLLOW_HEURISTIC):
        u = strategy_controls(kind, sc, _uncontrolled(sc, rates))
        x = rk4_forward(sc.x0, u, sc.params, rates)
        assert table.cost_of(kind) == evaluate_cost(sc, x, u, rates)
    optimal = solve(sc, SweepSettings(n=700))
    assert optimal.state.grid == rates.grid
    assert table.cost_of(StrategyKind.OPTIMAL) == optimal.cost


def test_tf_cells_keep_the_step_size():
    # FAST_SETTINGS steps 7/700 = 0.01, so the t_f = 4 cell has 400 intervals
    spec = SweepSpec(parameter="tf", values=(4.0,), base=COMPARISON)
    weights = replace(COMPARISON.weights, kappa1=1.0 / 4.0)
    cell = replace(COMPARISON, t_f=4.0, weights=weights)
    expected = compare_strategies(cell, SweepSettings(n=400), parameter="tf", value=4.0)
    assert run_sweep(spec, FAST_SETTINGS) == expected


def test_failed_cells_are_recorded_not_raised():
    wild = Scenario(
        params=COMPARISON.params,
        weights=COMPARISON.weights,
        beta=Constant(1e8),
        gamma=Constant(0.1),
        x0=State(0.5, 0.0, 0.5),
        t_f=7.0,
    )
    table = compare_strategies(wild, SweepSettings(n=100))
    assert len(table.rows) == 4
    assert all(not row.converged for row in table.rows)
    assert all(math.isnan(row.cost) for row in table.rows)


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match=r"^param must be one of .*, got 'delta'$"):
        SweepSpec(parameter="delta", values=(1.0,), base=COMPARISON)
    with pytest.raises(ValueError, match="^values must not be empty$"):
        SweepSpec(parameter="gamma", values=(), base=COMPARISON)
    with pytest.raises(ValueError, match="^values must be > 0 for gamma$"):
        SweepSpec(parameter="gamma", values=(0.0,), base=COMPARISON)
    with pytest.raises(ValueError, match=r"^values must lie in \[0, 3\] for beta$"):
        SweepSpec(parameter="beta", values=(5.0,), base=COMPARISON)
    with pytest.raises(ValueError, match=r"^values must lie in \[4, 14\] for tf$"):
        SweepSpec(parameter="tf", values=(2.0,), base=COMPARISON)
    with pytest.raises(ValueError, match="^strategies must not be empty$"):
        SweepSpec(parameter="gamma", values=(0.5,), base=COMPARISON, strategies=())
    with pytest.raises(ValueError, match="values must not repeat an entry"):
        SweepSpec(parameter="gamma", values=(0.1, 0.5, 0.1), base=COMPARISON)
    constant = StrategyKind.CONSTANT
    with pytest.raises(ValueError, match="strategies must not repeat an entry"):
        SweepSpec(
            parameter="gamma", values=(0.5,), base=COMPARISON,
            strategies=(constant, StrategyKind.OPTIMAL, constant),
        )


@pytest.mark.parametrize(
    ("strategies", "message"),
    [
        ((), "^strategies must not be empty$"),
        ((StrategyKind.CONSTANT,) * 2, "^strategies must not repeat an entry$"),
    ],
    ids=["empty", "duplicate"],
)
def test_compare_rejects_a_strategy_list_like_sweep_spec(strategies, message):
    with pytest.raises(ValueError, match=message):
        compare_strategies(COMPARISON, FAST_SETTINGS, strategies)
    with pytest.raises(ValueError, match=message):
        SweepSpec("gamma", (0.5,), COMPARISON, strategies)


def test_default_sweep_values():
    assert default_sweep_values("gamma")[0] == pytest.approx(0.1)
    assert default_sweep_values("tf") == (4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
    with pytest.raises(ValueError):
        default_sweep_values("epsilon")
