"""The junction and switch rules: where a control's kink or jump lies between nodes.

The l2 law clamps each control to exactly 0.0 or its cap, so the control has a
kink wherever the unclamped law crosses a bound, and an RK4 step that holds
the kink is only second-order accurate.  ``junction_steps`` finds those steps
and their junction times tau from the node controls alone; step i reads nodes
i+1-REACH .. i+REACH (i-3 .. i+4).  Bang-bang controls have no free arc and
unclamped ones no bound arc, so neither has a junction; the terminal touch
u(t_f) = 0 is a one-node arc.

A bang-bang control jumps where its switching value phi changes sign.
``switch_steps`` finds the steps whose nodes take opposite sides and puts the
switch time tau at the root of the cubic through phi at the 4 nearest nodes.
The l1 sweep of ``solver`` runs on such splits on a coarse grid, so its switch
times move continuously with the iterate instead of by whole nodes.

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

from .model import ModelParams, flow_coefficients

if TYPE_CHECKING:
    from .integrator import GridRates

REACH = 4  # step i reads nodes i+1-REACH .. i+REACH; a resumed pass relies on it


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


def junction_steps(nodes: np.ndarray, params: ModelParams) -> list[tuple]:
    """(i, c, theta, bound) for every step i that holds a junction of control c
    at tau = t_i + theta*h, in step order.

    Step i holds one when one of its nodes sits exactly on a bound of c, on an
    arc of at least 2 such nodes, and the other is strictly inside, as are the
    3 free-side nodes beyond it; theta is then where the cubic through those 4
    free values meets the bound, if the cubic crosses it over the step.  So
    step i reads nodes i+1-REACH .. i+REACH.  A step with two junctions keeps
    the earlier one.
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
        w = nodes[max(i + 1 - REACH, 0):i + 1 + REACH, c].tolist()  # or fewer at the ends
        j, top = min(i, REACH - 1), bounds[c]  # node i is w[j]
        right = 0.0 < w[j] < top  # clamped from node i+1 on, else up to node i
        if right and j == REACH - 1:  # free nodes i, i-1, i-2, i-3
            beyond, bound, free = w[j + 2], w[j + 1], w[j::-1]
        elif not right and j + REACH < len(w):  # free nodes i+1 .. i+4
            beyond, bound, free = w[j - 1], w[j], w[j + 1:j + 1 + REACH]
        else:
            continue
        f0, f1, f2, f3 = free
        if not (beyond == bound and (bound == 0.0 or bound == top) and 0.0 < f0 < top
                and 0.0 < f1 < top and 0.0 < f2 < top and 0.0 < f3 < top):
            continue
        # the cubic through the free values, from the step's free node on
        g0 = f0 - bound
        c1, c2, c3 = _cubic(g0, f1 - bound, f2 - bound, f3 - bound)
        at_one = g0 + c1 + c2 + c3
        if at_one == 0.0 or (at_one < 0.0) == (g0 < 0.0):  # no crossing over the step
            continue
        sigma = _root(g0, c1, c2, c3, 0.0, g0, at_one)
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


def switch_steps(phi: np.ndarray, u: np.ndarray) -> list[tuple] | None:
    """(i, c, theta, None) for every step i over which the bang-bang control c
    switches, at tau = t_i + theta*h, in step order, from the node switching
    values phi and the law u on them; None if a step holds two switches or the
    grid has under 3 intervals.

    No node of phi may lie in the law's deadband, so phi_c has opposite signs
    at the two nodes of step i, and tau is the root over the step of the cubic
    through phi_c at nodes i-1 .. i+2 (or the 4 nodes at that end of the grid).
    """
    last = len(phi) - 1
    changed = u[:-1] != u[1:]
    steps = np.flatnonzero(changed.any(axis=1)).tolist()
    if last < 3 or changed[steps].all(axis=1).any():
        return None
    columns = phi.T.tolist()
    found = []
    for i in steps:
        c = int(changed[i, 1])
        first = min(max(i - 1, 0), last - 3)
        f0, f1, f2, f3 = columns[c][first:first + 4]
        # ``_cubic`` from node first+3, so step i is s - lo in (0, 1)
        lo = float(i - first - 3)
        s = _root(f3, *_cubic(f3, f2, f1, f0), lo, columns[c][i], columns[c][i + 1])
        found.append((i, c, s - lo, None))
    return found


def _sub_steps(rows: list[tuple], params: ModelParams, n0: float) -> tuple:
    """The ``integrator._rk4_steps`` coefficient tuples of a split step's two
    sub-steps, from its 5 or 6 distinct rows: of the first 3 and the last 3."""
    coefficients = [flow_coefficients(*row, params, n0, n0) for row in rows]
    (a0, b0, _, e0, g0, k0, f0), (a1, b1, _, e1, g1, k1, f1), (a2, b2, _, e2, g2, k2, f2) = (
        coefficients[:3])
    (a3, b3, _, e3, g3, k3, f3), (a4, b4, _, e4, g4, k4, f4), (a5, b5, _, e5, g5, k5, f5) = (
        coefficients[-3:])
    return ((a0, a1, a2, b0, b1, b2, e0, e1, e2, g0, g1, g2, k0, k1, k2, f0, f1, f2),
            (a3, a4, a5, b3, b4, b5, e3, e4, e5, g3, g4, g5, k3, k4, k5, f3, f4, f5))


# A control table's split steps, per split in step order: the split, its
# sub-step widths (ha, hb), the (u1, u2, beta, gamma) rows at each sub-step's
# start, midpoint and end, their ``_sub_steps`` coefficients, and the (R, P)
# at tau, which the forward pass fills in.
SplitLayout = namedtuple("SplitLayout", "splits widths rows coefficients taus")


def split_layout(splits: list[tuple], nodes: np.ndarray, rates: GridRates,
                 params: ModelParams, n0: float) -> SplitLayout:
    """The layout of splits, each step i of the node controls that holds a
    junction, or a switch if the split's bound is None, as two RK4 sub-steps
    on [t_i, tau] and [tau, t_{i+1}].

    Each midpoint control of a junction's sub-steps is the average of its
    ends, and both read one row at tau; across a switch each sub-step holds
    its side's node controls.  The rates at the three new times come from the
    quintic through the 6 nearest half-step rows, among rows 2i-2 .. 2i+4 (or
    the 7 rows at an end of the grid, which only a switch reaches), floored at 0.
    """
    layout = SplitLayout(splits, [], [], [], [])
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
        layout.coefficients.append(_sub_steps(rows, params, n0))
    return layout


def junction_layout(nodes: np.ndarray, rates: GridRates, params: ModelParams,
                    n0: float) -> SplitLayout | None:
    """The layout of the node controls' junction steps, or None if there are none."""
    splits = junction_steps(nodes, params)
    return split_layout(splits, nodes, rates, params, n0) if splits else None
