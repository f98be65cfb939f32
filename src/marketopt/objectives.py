"""Cost functionals over discrete trajectories.

The running cost kappa1*P + kappa2*u1^a + kappa3*u2^a (a = 2 quadratic,
a = 1 linear) is integrated as one more component of the forward RK4 step
(Hager 2000): h/6 * (c1 + 2*c2 + 2*c3 + c4) per step, with c_k the running
cost at stage k's P and stage control.  ``integrator.rk4_stages`` gives the
stages and the width of each (sub-)step, as a fraction of h: a step that the
controls split (``ControlGrid.splits``) counts as its two sub-steps, each
weighed by its width.  The cost feeds nothing back, so the state bits are
those of ``rk4_forward``.

The rule is fourth order where the problem is smooth, and the split keeps it
so across a clamp junction: against an n=5600, tol-1e-11 solve the l2 presets
are at most 3.7e-7 off (relative) at n=44, 9.0e-9 at n=88, 1.8e-10 at n=175,
8.2e-12 at n=350 and 8.3e-13 at n=700.  The l1 controls jump between nodes,
so the l1 cost stays second order.
"""

from __future__ import annotations

from .integrator import ControlGrid, GridRates, Trajectory, _rk4_stages, rk4_stages
from .junctions import SplitLayout
from .pmp import running_cost
from .scenarios import Scenario


def evaluate_cost(scenario: Scenario, x: Trajectory, u: ControlGrid,
                  rates: GridRates) -> float:
    """RK4 value of the scenario's running cost along (x, u) on their grid.

    x is the state under u from ``rk4_forward`` with the same rate table.
    """
    return _stage_cost(scenario, x, rk4_stages(x, u, scenario.params, rates))


def _laid_out_cost(scenario: Scenario, x: Trajectory, u: ControlGrid, rates: GridRates,
                   layout: SplitLayout | None) -> float:
    """``evaluate_cost`` on the split layout of the solver's final pass to x."""
    return _stage_cost(scenario, x, _rk4_stages(x, u, scenario.params, rates, scenario.n0,
                                                layout))


def _stage_cost(scenario: Scenario, x: Trajectory, stages: tuple) -> float:
    """The cost from the output of ``rk4_stages`` on x."""
    states, controls, widths = stages
    c1, c2, c3, c4 = running_cost(scenario.objective, states[..., 2], controls[..., 0],
                                  controls[..., 1], scenario.weights)
    return float((x.grid.h / 6.0) * (widths * (c1 + 2.0 * (c2 + c3) + c4)).sum())
