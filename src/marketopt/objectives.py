"""Cost functionals over discrete trajectories.

The running cost kappa1*P + kappa2*u1^a + kappa3*u2^a (a = 2 quadratic,
a = 1 linear) is integrated with the composite trapezoid rule.  Trapezoid
rather than a higher-order rule: the linear objective produces discontinuous
controls, so second order matches the information actually present at the
nodes.
"""

from __future__ import annotations

from .model import Weights
from .integrator import ControlGrid, Trajectory
from .pmp import running_cost


def evaluate_cost(
    objective: str, weights: Weights, x: Trajectory, u: ControlGrid
) -> float:
    """Trapezoid value of the objective's running cost along (x, u) on their grid."""
    if x.grid != u.grid:
        raise ValueError("trajectory and controls must share one grid")
    integrand = running_cost(
        objective, x.values[:, 2], u.values[:, 0], u.values[:, 1], weights
    )
    h = x.grid.h
    return float(h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1])))
