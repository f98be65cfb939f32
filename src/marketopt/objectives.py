"""Cost functionals over discrete trajectories.

The running cost kappa1*P + kappa2*u1^a + kappa3*u2^a (a = 2 quadratic,
a = 1 linear) is integrated as one more component of the forward RK4 step
(Hager 2000): h/6 * (c1 + 2*c2 + 2*c3 + c4) per step, with c_k the running
cost at stage k's P and stage control; a step that the controls split
(``ControlGrid.splits``) counts as its two sub-steps, each weighed by its
width.  The forward pass sums the P part on the stages it steps on
(``integrator.forward_table``) and ``_pass_cost`` adds the control part, so
each pass gives its own cost, and the state bits are those of
``rk4_forward``.  ``pointwise.rk4_stages`` rebuilds the stages from the
nodes, as the reference for the rule.

The rule is fourth order where the problem is smooth, and the split keeps it
so across a clamp junction: against an n=5600, tol-1e-11 solve the l2 presets
are at most 3.7e-7 off (relative) at n=44, 9.0e-9 at n=88, 1.8e-10 at n=175,
8.2e-12 at n=350 and 8.3e-13 at n=700.  The l1 controls jump between nodes,
so the l1 cost stays second order.
"""

from __future__ import annotations

import numpy as np

from .integrator import ControlGrid, GridRates, Trajectory, _half_steps, forward_table
from .junctions import SplitLayout, split_layout
from .model import State, _require_total
from .pmp import running_cost
from .scenarios import Scenario


def evaluate_cost(scenario: Scenario, x: Trajectory, u: ControlGrid,
                  rates: GridRates) -> float:
    """RK4 value of the scenario's running cost under u on their grid.

    Only x's first node is read: u, split where it declares, is integrated
    again from there by the forward pass, whose stages the cost reads.  So on
    a solve's state and controls this is the solve's cost, bit for bit.
    """
    if not x.grid == u.grid == rates.grid:
        raise ValueError("state, controls and rates must share one grid")
    return _costed_forward(scenario, State(*x.values[0].tolist()), u, rates)[1]


def _costed_forward(scenario: Scenario, x0: State, u: ControlGrid,
                    rates: GridRates) -> tuple[np.ndarray, float]:
    """The (n+1, 3) state nodes under u from x0, split where u declares, and
    their cost; u and rates share one grid."""
    layout = split_layout(u.splits, u.values, rates)
    us = _half_steps(u.values)
    values, quadrature = forward_table(x0, _require_total(x0), us, scenario.params, rates,
                                       layout)
    return values, _pass_cost(scenario, quadrature, us, layout, rates.grid.h)


def _pass_cost(scenario: Scenario, quadrature: float, us: np.ndarray,
               layout: SplitLayout | None, h: float) -> float:
    """The cost of a forward pass from its P quadrature (``forward_table``),
    under us, the ``_half_steps`` controls, with the steps of layout (None if
    none) split.  Each whole step weighs its stage controls' terms as the pass
    weighs P: u_i, its midpoint twice and u_{i+1}."""
    objective, weights = scenario.objective, scenario.weights
    # the control terms: the running cost at P = 0
    terms = running_cost(objective, 0.0, us[:, 0], us[:, 1], weights)
    steps = terms[0:-1:2] + 4.0 * terms[1::2] + terms[2::2]
    controls = 0.0
    if layout is not None:
        for (ha, hb), rows in zip(layout.widths, layout.rows):
            a0, a1, a2, b0, b1, b2 = (running_cost(objective, 0.0, u1, u2, weights)
                                      for u1, u2, _, _ in rows)
            controls += ha * (a0 + 4.0 * a1 + a2) + hb * (b0 + 4.0 * b1 + b2)
        steps[[split[0] for split in layout.splits]] = 0.0  # counted as sub-steps
    controls += h * float(steps.sum())
    return (weights.kappa1 * quadrature + controls) / 6.0
