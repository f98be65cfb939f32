"""Cost functionals over discrete trajectories.

The running cost kappa1*P + kappa2*u1^a + kappa3*u2^a (a = 2 quadratic,
a = 1 linear) is integrated as one more component of the forward RK4 step
(Hager 2000): h/6 * (c1 + 2*c2 + 2*c3 + c4) per step, with c_k the running
cost at stage k's P and stage control, read from ``integrator.rk4_stages``.
The cost feeds nothing back, so the state bits are those of ``rk4_forward``.

The rule is fourth order where the problem is smooth; the trapezoid rule on
the nodes that it replaced was second order.  Measured against the n -> inf
cost (Richardson over n = 175..5600), the l2 presets at n=350 are at most
5.4e-9 off (relative), at least 170 times closer than the trapezoid rule at
the same n.  The order is 4.0 on the constant-rate preset and erratic (1.4 to
8.2 between n = 175 and 1400) on the time-varying ones, whose clamped
controls bend between nodes.  The l1 controls jump between nodes, so the l1
cost stays second order, at 0.55-0.7 times the trapezoid rule's error.
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
    states, controls = rk4_stages(x, u, scenario.params, rates)
    c1, c2, c3, c4 = running_cost(
        scenario.objective, states[..., 2], controls[..., 0], controls[..., 1],
        scenario.weights,
    )
    return float((x.grid.h / 6.0) * (c1 + 2.0 * (c2 + c3) + c4).sum())
