"""Cost functionals over discrete trajectories.

The running cost kappa1*P + kappa2*u1^a + kappa3*u2^a (a = 2 quadratic,
a = 1 linear) is integrated with the composite trapezoid rule.  Trapezoid
rather than a higher-order rule: the linear objective produces discontinuous
controls, so second order matches the information actually present at the
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Weights
from .integrator import ControlGrid, Trajectory
from .pmp import OBJECTIVE_TAGS, running_cost


@dataclass(frozen=True)
class ObjectiveKind:
    """Which running cost to integrate, and with which weights."""

    tag: str
    weights: Weights

    def __post_init__(self) -> None:
        if self.tag not in OBJECTIVE_TAGS:
            raise ValueError(f"tag must be one of {OBJECTIVE_TAGS}, got {self.tag!r}")


def evaluate_cost(kind: ObjectiveKind, x: Trajectory, u: ControlGrid) -> float:
    """Trapezoid value of the running cost along (x, u) on their shared grid."""
    if x.grid != u.grid:
        raise ValueError("trajectory and controls must share one grid")
    integrand = running_cost(
        kind.tag, x.values[:, 2], u.values[:, 0], u.values[:, 1], kind.weights
    )
    h = x.grid.h
    return float(h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1])))
