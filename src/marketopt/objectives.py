"""Cost functionals over discrete trajectories.

The running cost kappa1*P + kappa2*u1^a + kappa3*u2^a (a = 2 quadratic,
a = 1 linear) is integrated as one more component of the forward RK4 step
(Hager 2000): h/6 * (c1 + 2*c2 + 2*c3 + c4) per step, with c_k the running
cost at stage k's P and stage control.  ``integrator.rk4_stages`` gives the
stages and the width of each (sub-)step, as a fraction of h: a step split at a
clamp junction counts as its two sub-steps, each weighed by its width.  The
cost feeds nothing back, so the state bits are those of ``rk4_forward``.

The rule is fourth order where the problem is smooth; the trapezoid rule on
the nodes that it replaced was second order.  A clamped l2 control bends at
each junction, and without the split the order was erratic (1.4 to 8.2 per
doubling of n).  With it, measured against an n=5600, tol-1e-11 solve, the
l2 presets are at most 1.8e-10 off (relative) at n=175, 8.3e-12 at n=350 and
8.3e-13 at n=700, with orders 3.9-4.4 from n=175 to 350; beyond that the
errors reach roundoff.  The l1 controls jump between nodes, so the l1 cost
stays second order, at 0.55-0.7 times the trapezoid rule's error.
"""

from __future__ import annotations

from .integrator import ControlGrid, GridRates, Trajectory, rk4_stages
from .pmp import running_cost
from .scenarios import Scenario


def evaluate_cost(
    scenario: Scenario, x: Trajectory, u: ControlGrid, rates: GridRates
) -> float:
    """RK4 value of the scenario's running cost along (x, u) on their grid.

    x is the state under u from ``rk4_forward`` with the same rate table.
    """
    states, controls, widths = rk4_stages(x, u, scenario.params, rates)
    c1, c2, c3, c4 = running_cost(
        scenario.objective, states[..., 2], controls[..., 0], controls[..., 1],
        scenario.weights,
    )
    return float((x.grid.h / 6.0) * (widths * (c1 + 2.0 * (c2 + c3) + c4)).sum())
