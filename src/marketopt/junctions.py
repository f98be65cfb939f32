"""The split rule: where a control's kink or jump lies between nodes.

An RK4 step that holds a kink or a jump of a control loses RK4's fourth
order.  Both come from a value g of the law that changes sign inside the
step, and one rule locates them: where g takes strictly opposite signs at
the two nodes of step i, the crossing time tau = t_i + theta*h is the root
over the step of the cubic through g at the 4 nodes nearest it, i-1 .. i+2
(or the 4 nodes at that end of the grid: ``_crossing``).

The l2 law clamps each control's stationary value w to [0, cap], so the
control kinks wherever w crosses a bound: ``junction_splits`` takes g as
w - bound.  A control that meets a bound only at a node, as u(t_f) = 0 does
where w is 0.0 exactly, has no junction.  A bang-bang control jumps where its
switching value phi changes sign: ``switch_steps`` takes g as phi.  The l1
sweep of ``solver`` runs on such splits on a coarse grid, so its switch times
move continuously with the iterate instead of by whole nodes.

``split_layout`` lays out the two RK4 sub-steps, on [t_i, tau] and
[tau, t_{i+1}], of every split step of a control table, once per table: the
forward pass, the backward pass and the cost in ``integrator`` read that
one layout.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .integrator import GridRates


def _cubic(g0: float, g1: float, g2: float, g3: float) -> tuple:
    """(c1, c2, c3) of the cubic g0 + s*(c1 + s*(c2 + s*c3)) through (0, g0),
    (-1, g1), (-2, g2) and (-3, g3)."""
    d1, d2, d3 = g0 - g1, g0 - 2.0 * g1 + g2, g0 - 3.0 * (g1 - g2) - g3
    return d1 + d2 / 2.0 + d3 / 3.0, (d2 + d3) / 2.0, d3 / 6.0


def _root(g0: float, c1: float, c2: float, c3: float, lo: float, below: float,
          above: float) -> float:
    """The root in (lo, lo + 1) of g0 + s*(c1 + s*(c2 + s*c3)), whose values at
    lo and lo + 1 are below and above, of opposite signs.

    Newton steps find it, each kept inside the bracket that the last ones left.
    """
    hi, s, negative = lo + 1.0, lo + below / (below - above), below < 0.0
    for _ in range(100):
        value = g0 + s * (c1 + s * (c2 + s * c3))
        if value == 0.0:
            return s
        if (value < 0.0) == negative:
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


def _crossing(g: np.ndarray, i: int) -> float:
    """theta of the root over step i of the cubic through the column g at
    the 4 nodes nearest the step; g[i] and g[i + 1] have opposite signs."""
    first = min(max(i - 1, 0), len(g) - 4)
    f = g[first:first + 4].tolist()
    # ``_cubic`` from node first+3, so step i is s - lo in (0, 1)
    j, lo = i - first, float(i - first - 3)
    return _root(f[3], *_cubic(f[3], f[2], f[1], f[0]), lo, f[j], f[j + 1]) - lo


def junction_splits(w: np.ndarray, bounds: tuple) -> tuple:
    """(i, c, theta, bound) for every step i over which the stationary value
    w of control c crosses its bound 0.0 or bounds[c], at tau = t_i + theta*h,
    in step order; none if the grid has under 3 intervals.

    A step with two crossings keeps the earlier one, and a root that rounds
    onto a node (theta not inside (0, 1)) is no junction.  Only a column that
    lies on both sides of a bound is searched.
    """
    found: dict[int, tuple] = {}
    for c in (0, 1):
        column = w[:, c]  # by columns: 10-20x faster than over axis 0
        low, high = column.min(), column.max()
        for bound in (0.0, bounds[c]):
            if len(w) < 4 or not low < bound < high:
                continue
            g = column - bound
            sides = np.sign(g)
            for i in np.flatnonzero(sides[:-1] * sides[1:] < 0.0).tolist():
                theta = _crossing(g, i)
                if 0.0 < theta < 1.0 and (i not in found or theta < found[i][2]):
                    found[i] = (i, c, theta, bound)
    return tuple(found[i] for i in sorted(found))


def _quintic_weights(x: float) -> tuple:
    """The weights of y[0..5] in the polynomial through (k, y[k]) at x."""
    d0, d1, d2, d3, d4, d5 = x, x - 1.0, x - 2.0, x - 3.0, x - 4.0, x - 5.0
    p01, p23, p45 = d0 * d1, d2 * d3, d4 * d5
    return (-d1 * p23 * p45 / 120.0, d0 * p23 * p45 / 24.0, -p01 * d3 * p45 / 12.0,
            p01 * d2 * p45 / 12.0, -p01 * p23 * d5 / 24.0, p01 * p23 * d4 / 120.0)


def switch_steps(phi: np.ndarray, u: np.ndarray) -> list[tuple] | None:
    """(i, c, theta, None) for every step i over which the bang-bang control c
    switches, at tau = t_i + theta*h, in step order, from the node switching
    values phi and the law u on them; None if a step holds two switches or the
    grid has under 3 intervals.  No node of phi may lie in the law's deadband,
    so phi_c has opposite signs at the two nodes of step i.
    """
    last = len(phi) - 1
    changed = u[:-1] != u[1:]
    a, b = changed[:, 0], changed[:, 1]  # by columns: faster than over axis 1
    steps = np.flatnonzero(a | b).tolist()
    if last < 3 or (a & b).any():
        return None
    found = []
    for i in steps:
        c = int(changed[i, 1])
        found.append((i, c, _crossing(phi[:, c], i), None))
    return found


# A control table's split steps, per split in step order: the split, its
# sub-step widths (ha, hb), the (u1, u2, beta, gamma) rows at each sub-step's
# start, midpoint and end, and the (R, P) at tau, which the forward pass
# fills in.
SplitLayout = namedtuple("SplitLayout", "splits widths rows taus")


def split_layout(splits, nodes: np.ndarray, rates: GridRates) -> SplitLayout | None:
    """The layout of splits, each step i of the node controls that holds a
    junction, or a switch if the split's bound is None, as two RK4 sub-steps
    on [t_i, tau] and [tau, t_{i+1}]; None if there are no splits.

    Each midpoint control of a junction's sub-steps is the average of its
    ends, and both read one row at tau; across a switch each sub-step holds
    its side's node controls.  The rates at the three new times come from the
    quintic through the 6 nearest half-step rows, among rows 2i-2 .. 2i+4 (or
    the 7 rows at an end of the grid), floored at 0.
    """
    if not splits:
        return None
    layout = SplitLayout(splits, [], [], [])
    h = rates.grid.h
    for i, c, theta, bound in splits:
        (a1, a2), (b1, b2) = nodes[i:i + 2].tolist()
        if bound is None:  # (time in half-steps after t_i, u1, u2) at the new rows
            new = ((theta, a1, a2), (2.0 * theta, a1, a2), (1.0 + theta, b1, b2))
        else:  # the kinked control on its bound, the other linear
            t1, t2 = ((bound, a2 + theta * (b2 - a2)) if c == 0
                      else (a1 + theta * (b1 - a1), bound))
            new = ((theta, 0.5 * (a1 + t1), 0.5 * (a2 + t2)), (2.0 * theta, t1, t2),
                   (1.0 + theta, 0.5 * (t1 + b1), 0.5 * (t2 + b2)))
        first = min(max(2 * i - 2, 0), len(rates.beta) - 7)
        shift = 2 * i - 2 - first  # row 2i is window row 2 + shift
        beta, gamma = rates.beta[first:first + 7].tolist(), rates.gamma[first:first + 7].tolist()
        rows = [(a1, a2, beta[2 + shift], gamma[2 + shift])]
        for at, u1, u2 in new:
            k = 1 if at >= 1.0 else 0  # the quintic through window rows k .. k+5
            weights = _quintic_weights(2.0 + at - k + shift)
            rows.append((u1, u2, max(sum(map(mul, weights, beta[k:k + 6])), 0.0),
                         max(sum(map(mul, weights, gamma[k:k + 6])), 0.0)))
        if bound is None:  # the second sub-step starts at tau on the later side
            rows.insert(3, (b1, b2, *rows[2][2:]))
        rows.append((b1, b2, beta[4 + shift], gamma[4 + shift]))
        layout.widths.append((theta * h, h - theta * h))
        layout.rows.append(rows[:3] + rows[-3:])
    return layout
