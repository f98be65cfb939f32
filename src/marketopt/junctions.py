"""The junction rule: where a clamped control meets its bound between nodes.

The l2 law clamps each control to exactly 0.0 or its cap, so the control has a
kink wherever the unclamped law crosses a bound, and an RK4 step that holds
the kink is only second-order accurate.  ``junction_steps`` finds those steps
from the node controls alone: step i holds a junction of control c when one of
its nodes sits exactly on a bound of c, on an arc of at least 2 such nodes, the
other node is strictly inside, and so are the 3 free-side nodes beyond it.
The junction time tau is where the cubic through those 4 free values meets the
bound; a step over which the cubic does not cross the bound is not split.  A
step thus reads nodes i-3 .. i+4.  ``split_step`` lays out the step's two RK4
sub-steps, on [t_i, tau] and [tau, t_{i+1}], which ``integrator`` integrates.

Bang-bang controls have no free arc and unclamped ones no bound arc, so
neither has a junction; the terminal touch u(t_f) = 0 is a one-node arc.
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING

import numpy as np

from .model import ModelParams

if TYPE_CHECKING:
    from .integrator import GridRates


def crossing(g0: float, g1: float, g2: float, g3: float) -> float | None:
    """The root in (0, 1) of the cubic through (0, g0), (-1, g1), (-2, g2) and
    (-3, g3), if the cubic changes sign over [0, 1], else None; g0 is not 0.

    Newton steps find it, each kept inside the bracket that the last ones left.
    """
    d1, d2, d3 = g0 - g1, g0 - 2.0 * g1 + g2, g0 - 3.0 * (g1 - g2) - g3
    c1, c2, c3 = d1 + d2 / 2.0 + d3 / 3.0, (d2 + d3) / 2.0, d3 / 6.0
    at_one = g0 + c1 + c2 + c3
    if at_one == 0.0 or (at_one < 0.0) == (g0 < 0.0):
        return None
    lo, hi, s = 0.0, 1.0, g0 / (g0 - at_one)
    for _ in range(100):
        value = g0 + s * (c1 + s * (c2 + s * c3))
        if value == 0.0:
            return s
        if (value < 0.0) == (g0 < 0.0):
            lo = s
        else:
            hi = s
        slope = c1 + s * (2.0 * c2 + 3.0 * c3 * s)
        step = s - value / slope if slope != 0.0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - s) <= 1e-15:
            return step
        s = step
    return s


def junction_steps(nodes: np.ndarray, params: ModelParams) -> list[tuple]:
    """(i, c, theta, bound) for every step i that holds a junction of control c
    at tau = t_i + theta*h, in step order.

    Step i holds one when one of its nodes sits exactly on a bound of c, on an
    arc of at least 2 such nodes, and the other is strictly inside, as are the
    3 free-side nodes beyond it; theta is then where the cubic through those 4
    free values meets the bound, if the cubic crosses it over the step.  So
    step i reads nodes i-3 .. i+4.  A step with two junctions keeps the earlier
    one.
    """
    bounds = (params.u1_max, params.u2_max)
    inside = (nodes > 0.0) & (nodes < bounds)
    if not inside.any():  # bang-bang: no free arc
        return []
    last = len(nodes) - 1
    found: dict[int, tuple] = {}
    for flat in np.flatnonzero(inside[:-1] != inside[1:]).tolist():
        i, c = divmod(flat, 2)
        if not 1 <= i <= last - 2:
            continue
        w = nodes[max(i - 3, 0):i + 5, c].tolist()  # nodes i-3 .. i+4, or fewer
        j, top = min(i, 3), bounds[c]  # node i is w[j]
        right = 0.0 < w[j] < top  # clamped from node i+1 on, else up to node i
        if right and j == 3:  # free nodes i, i-1, i-2, i-3
            beyond, bound, free = w[5], w[4], w[3::-1]
        elif not right and j + 4 < len(w):  # free nodes i+1 .. i+4
            beyond, bound, free = w[j - 1], w[j], w[j + 1:j + 5]
        else:
            continue
        f0, f1, f2, f3 = free
        if not (beyond == bound and (bound == 0.0 or bound == top) and 0.0 < f0 < top
                and 0.0 < f1 < top and 0.0 < f2 < top and 0.0 < f3 < top):
            continue
        sigma = crossing(f0 - bound, f1 - bound, f2 - bound, f3 - bound)
        if sigma is not None:
            theta = sigma if right else 1.0 - sigma
            if i not in found or theta < found[i][2]:
                found[i] = (i, c, theta, bound)
    return [found[i] for i in sorted(found)]


def _quintic_weights(x: float) -> tuple:
    """The weights of y[0..5] in the polynomial through (k, y[k]) at x."""
    d0, d1, d2, d3, d4, d5 = x, x - 1.0, x - 2.0, x - 3.0, x - 4.0, x - 5.0
    p01, p23, p45 = d0 * d1, d2 * d3, d4 * d5
    return (-d1 * p23 * p45 / 120.0, d0 * p23 * p45 / 24.0, -p01 * d3 * p45 / 12.0,
            p01 * d2 * p45 / 12.0, -p01 * p23 * d5 / 24.0, p01 * p23 * d4 / 120.0)


def split_step(split: tuple, nodes: np.ndarray, rates: GridRates):
    """The two RK4 sub-steps of step i, which holds a junction: their widths
    (ha, hb) and the (u1, u2, beta, gamma) rows at t_i, the first sub-step's
    midpoint, tau, the second's midpoint and t_{i+1}.

    At tau the kinked control sits on its bound and the other is linear
    between its two nodes; each midpoint control is the average of its
    sub-step's ends.  The rates at the three new times come from the quintic
    through the 6 nearest half-step rows, among rows 2i-2 .. 2i+4 (which the
    junction rule keeps inside the table), floored at 0.
    """
    i, c, theta, bound = split
    (a1, a2), (b1, b2) = nodes[i:i + 2].tolist()
    t1, t2 = a1 + theta * (b1 - a1), a2 + theta * (b2 - a2)
    if c == 0:
        t1 = bound
    else:
        t2 = bound
    window = slice(2 * i - 2, 2 * i + 5)
    beta, gamma = rates.beta[window].tolist(), rates.gamma[window].tolist()
    rows = [(a1, a2, beta[2], gamma[2])]
    for at, u1, u2 in ((theta, 0.5 * (a1 + t1), 0.5 * (a2 + t2)), (2.0 * theta, t1, t2),
                       (1.0 + theta, 0.5 * (t1 + b1), 0.5 * (t2 + b2))):
        k = 1 if at >= 1.0 else 0  # the quintic through rows 2i-2+k .. 2i+3+k
        weights = _quintic_weights(2.0 + at - k)
        rows.append((u1, u2, max(sum(map(mul, weights, beta[k:k + 6])), 0.0),
                     max(sum(map(mul, weights, gamma[k:k + 6])), 0.0)))
    rows.append((b1, b2, beta[4], gamma[4]))
    h = rates.grid.h
    return theta * h, h - theta * h, rows
