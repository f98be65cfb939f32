"""Fixed-step classical RK4 on a shared uniform grid.

The state system integrates forward from t0; the adjoint system integrates
backward from t_f along the computed states.  Every RK4 stage reads one
half-step layout of 2n+1 rows, nodes at even rows and interval midpoints at
odd rows: step i reads rows 2i, 2i+1 (twice) and 2i+2.  ``sample_rates``
samples beta and gamma there once per grid, and ``_half_steps`` lays out
controls and states the same way, with the average of the two adjacent
nodes at each midpoint.  For smooth controls the state is then fourth order;
the adjoint reads its midpoint states as those node averages, so it is
second order.

A step that holds a kink of a clamped control (a junction) or a jump of a
bang-bang one (a switch) runs as two RK4 sub-steps, on [t_i, tau] and
[tau, t_{i+1}]; any other step, and so any pass with no split, is unchanged,
bit for bit.  Every forward pass and the cost split the junctions; the
switch sweep splits its switches, in both passes.  Each control table's
split steps are laid out once (``junctions.split_layout``): the forward pass
runs their sub-steps and leaves the state at each tau in the layout, where
the backward pass and the cost read it.

The forward pass carries only R and P, with C = N - R - P on the conserved
total N of x0, through ``_rk4_steps``, the one inline copy of
``model.rhs_terms``; ``rk4_stages`` rebuilds the same stages on whole
columns for the cost.  The adjoint system is linear in p, so the backward
pass builds each step as an affine map, from one ``pmp.costate_system`` call
per block, and composes them in linear work.  Each pass is a raw kernel on
node and half-step tables (``forward_table``, ``backward_table``), which the
sweep calls directly, under a validating wrapper (``rk4_forward``,
``rk4_backward``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .junctions import SplitLayout, junction_layout
from .model import (ModelParams, RateCallable, State, Weights, _require_total,
                    flow_coefficients, rhs_terms)
from .pmp import Costate, costate_system

# Default intervals per unit time, per objective: at 25 per unit (n=175) the l2
# presets' cost is within 1.8e-10 of the n -> inf cost (see ``objectives``).
# l1 keeps 200: its bang-bang controls keep the cost second order, and at n=350
# its sweep halves its weight and stops on controls whose signs disagree with
# the switching values (acceptance criterion 4).
NODES_PER_TIME_UNIT = {"l2": 25, "l1": 200}

# Continuous trajectories stay nonnegative; anything below this after a step
# signals the step size is too coarse for the current rates.
NONNEG_TOLERANCE = 1e-12

# Backward RK4 steps composed per block; bounds the memory of their 4x4 maps.
BACKWARD_BLOCK = 1024
_EYE4 = np.eye(4)  # the identity step map; never written


class IntegrationError(RuntimeError):
    """Integration produced a non-finite or inadmissible state."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = t0 + i*h, i = 0..n, with h = (t_f - t0)/n."""

    t0: float
    t_f: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 intervals, got n={self.n}")
        if not (self.t_f > self.t0):
            raise ValueError(f"t_f must exceed t0, got [{self.t0}, {self.t_f}]")

    @property
    def h(self) -> float:
        return (self.t_f - self.t0) / self.n

    def nodes(self) -> np.ndarray:
        return self.t0 + np.arange(self.n + 1) * self.h


def default_grid(t_f: float, objective: str) -> TimeGrid:
    """Grid on [0, t_f] with the objective's NODES_PER_TIME_UNIT intervals per unit."""
    return TimeGrid(t0=0.0, t_f=t_f, n=round(NODES_PER_TIME_UNIT[objective] * t_f))


def _node_table(values, grid: TimeGrid, width: int, what: str) -> np.ndarray:
    """A read-only float copy of values, checked to be (n+1, width) and finite."""
    values = np.array(values, dtype=float)
    if values.shape != (grid.n + 1, width):
        raise ValueError(f"expected shape {(grid.n + 1, width)}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} values must all be finite")
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Values of a 3-component quantity at every grid node; rows are nodes.

    Columns are (R, C, P) for states and (p1, p2, p3) for adjoints.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _node_table(self.values, self.grid, 3, "trajectory")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class ControlGrid:
    """A (u1, u2) pair at every grid node; the sweep solver's unknown."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _node_table(self.values, self.grid, 2, "control")
        if values.min() < 0.0:
            raise ValueError("control values must be >= 0")
        object.__setattr__(self, "values", values)


def zero_controls(grid: TimeGrid) -> ControlGrid:
    return ControlGrid(grid, np.zeros((grid.n + 1, 2)))


def _sample_times(grid: TimeGrid) -> np.ndarray:
    """The nodes and interval midpoints of grid, in time order."""
    ts = np.empty(2 * grid.n + 1)
    ts[0::2] = grid.nodes()
    ts[1::2] = ts[0:-1:2] + 0.5 * grid.h
    return ts


@dataclass(frozen=True, eq=False)
class GridRates:
    """beta and gamma as (2n+1,) arrays at ``_sample_times(grid)``.

    The nodes are the even rows and the interval midpoints the odd rows, the
    half-step layout that every RK4 pass reads.  Every value must be finite
    and >= 0; names label the two rates in errors.
    """

    grid: TimeGrid
    beta: np.ndarray
    gamma: np.ndarray
    names: tuple[str, str] = ("beta", "gamma")

    def __post_init__(self) -> None:
        n = self.grid.n
        ts = _sample_times(self.grid)
        for name, field in zip(self.names, ("beta", "gamma")):
            values = np.array(getattr(self, field), dtype=float)
            if values.shape != ts.shape:
                raise ValueError(f"{field} needs {n + 1} node and {n} midpoint values")
            bad = ~(np.isfinite(values) & (values >= 0.0))
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"{name} is {float(values[i])!r} at t={ts[i]:.6g}; "
                    "rates must be finite and >= 0"
                )
            values.setflags(write=False)
            object.__setattr__(self, field, values)


def sample_rates(beta: RateCallable, gamma: RateCallable, grid: TimeGrid) -> GridRates:
    """Sample both rates at the nodes and midpoints of grid.

    A rate with an array evaluator (``RateFunction.sample``) is sampled at once.
    Other rates, and arrays that are not all finite, are called point by point
    on Python floats: an overflow gives inf, with no warning, and a rate that
    cannot be evaluated raises ValueError naming it.
    """
    ts = _sample_times(grid)
    rates = {}
    for kind, rate in (("beta", beta), ("gamma", gamma)):
        name = f"{kind} rate {getattr(rate, 'label', rate)}"
        if getattr(rate, "sample", None) is not None:
            with np.errstate(all="ignore"):
                rates[name] = rate.sample(ts)
            if np.isfinite(rates[name]).all():
                continue
        values = rates[name] = []
        for t in ts.tolist():
            try:
                values.append(float(rate(t)))
            except (ArithmeticError, ValueError) as err:
                raise ValueError(
                    f"{name} has no value at t={t:.6g} ({err}); "
                    "rates must be finite and >= 0"
                ) from None
    return GridRates(grid, *rates.values(), tuple(rates))


def _half_steps(nodes: np.ndarray) -> np.ndarray:
    """A node table in the layout of ``GridRates``: interval averages at odd rows."""
    cols = nodes.T  # filled by columns: 4-5x faster than by rows of 2 or 3 values
    rows = np.empty((len(cols), 2 * len(nodes) - 1))
    rows[:, 0::2] = cols
    rows[:, 1::2] = 0.5 * (cols[:, :-1] + cols[:, 1:])
    return rows.T


def _on_total(rp: np.ndarray, total: float) -> np.ndarray:
    """(R, P) rows as (R, C, P) rows, with C = total - R - P."""
    R, P = rp[..., 0], rp[..., 1]
    return np.stack((R, total - R - P, P), axis=-1)


def _rk4_steps(R, P, c, h, steps, Rs, Ps):
    """Run RK4 steps of width h from (R, P) on flow coefficient tuples, those of
    ``forward_table`` or of a ``junctions.SplitLayout``, appending each new
    node to Rs and Ps; returns the last."""
    half, sixth = 0.5 * h, h / 6.0
    for aa, am, ab, ba, bm, bb, ea, em, eb, ga, gm, gb, ka, km, kb, fa, fm, fb in steps:
        q = R * P
        kR1 = aa * R + ba * P + c + ea * q
        kP1 = ga + ka * P - fa * q
        r, p = R + half * kR1, P + half * kP1
        q = r * p
        kR2 = am * r + bm * p + c + em * q
        kP2 = gm + km * p - fm * q
        r, p = R + half * kR2, P + half * kP2
        q = r * p
        kR3 = am * r + bm * p + c + em * q
        kP3 = gm + km * p - fm * q
        r, p = R + h * kR3, P + h * kP3
        q = r * p
        kR4 = ab * r + bb * p + c + eb * q
        kP4 = gb + kb * p - fb * q
        R += sixth * (kR1 + 2.0 * (kR2 + kR3) + kR4)
        P += sixth * (kP1 + 2.0 * (kP2 + kP3) + kP4)
        Rs.append(R)
        Ps.append(P)
    return R, P


def forward_table(x0: State, n0: float, us: np.ndarray, params: ModelParams,
                  rates: GridRates, head: np.ndarray | None = None,
                  layout: SplitLayout | None = None) -> np.ndarray:
    """Raw forward pass: the (n+1, 3) state nodes from x0, whose total is n0,
    under us, the ``_half_steps`` controls on rates.grid.  No input is checked;
    every step is, after the loop, and the first bad one raises IntegrationError.
    Each step of layout (none by default) runs as its two sub-steps, and the
    pass fills layout.taus.  head, if given, is an earlier pass's first s+1
    nodes, under controls equal to us on nodes 0..s-1+REACH
    (``junctions.REACH``) and the same splits before step s: the pass resumes
    at node s, with the same bits and errors, landing the taus before s from
    head's nodes.
    """
    grid = rates.grid
    h = grid.h
    head = np.array([(x0.R, x0.C, x0.P)]) if head is None else head
    s, (R, _, P), N = len(head) - 1, head[-1].tolist(), n0
    beta, gamma = rates.beta[2 * s:], rates.gamma[2 * s:]
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c, e, g, k, f = flow_coefficients(*us[2 * s:].T, beta, gamma, params, N, N)
    # step s + i reads coefficient rows 2i, 2i+1 and 2i+2, counted from row 2s
    series = [col.tolist() for col in (a, b, e, g, k, f)]
    steps = zip(*(col[j::2] for col in series for j in (0, 1, 2)))
    Rs, Ps, at = [], [], s
    if layout is not None:
        taus = layout.taus
        taus.clear()
        for (i, *_), (ha, hb), (first, second) in zip(layout.splits, layout.widths,
                                                       layout.coefficients):
            if i < s:
                taus.append(_rk4_steps(*head[i, 0::2].tolist(), c, ha, (first,), [], []))
                continue
            R, P = _rk4_steps(R, P, c, h, islice(steps, i - at), Rs, Ps)
            next(steps)  # step i taken whole
            taus.append(_rk4_steps(R, P, c, ha, (first,), [], []))
            R, P = _rk4_steps(*taus[-1], c, hb, (second,), Rs, Ps)
            at = i + 1
    _rk4_steps(R, P, c, h, steps, Rs, Ps)
    # float arithmetic does not raise, so every new step is checked here; with N
    # finite, this passes exactly the finite states with no component below
    # -NONNEG_TOLERANCE
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.concatenate((head, _on_total(np.array((Rs, Ps)).T, N)))
        bad = ~(values[s + 1:] >= -NONNEG_TOLERANCE).all(axis=1)
    if bad.any():
        i = s + 1 + int(np.argmax(bad))
        t = grid.t0 + i * h
        if not np.isfinite(values[i]).all():
            raise IntegrationError(f"non-finite state at step {i} (t={t:.6g})", i)
        raise IntegrationError(
            f"state component below -{NONNEG_TOLERANCE:g} at step {i} "
            f"(t={t:.6g}); reduce the step size h={h:.6g}", i
        )
    return values


def rk4_forward(x0: State, u: ControlGrid, params: ModelParams,
                rates: GridRates) -> Trajectory:
    """Integrate the state system over u.grid from x0, whose total R + C + P
    is n0, splitting each step of u that holds a junction."""
    if rates.grid != u.grid:
        raise ValueError("controls and rates must share one grid")
    n0 = _require_total(x0)
    layout = junction_layout(u.values, rates, params, n0)
    values = forward_table(x0, n0, _half_steps(u.values), params, rates, None, layout)
    return Trajectory(u.grid, values)


def rk4_stages(x: Trajectory, u: ControlGrid, params: ModelParams,
               rates: GridRates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (sub-)step's four RK4 stage inputs, rebuilt on whole columns from x's nodes.

    Returns (states, controls, widths) with shapes (4, m, 3), (4, m, 2) and
    (m,): states[k, i] and controls[k, i] are where stage k+1 of step i
    evaluates ``model.rhs_terms``: node i, the two midpoint predictions, then
    the end-point prediction, under u_i, the midpoint average twice, then
    u_{i+1}; widths[i] is the step's width as a fraction of h.  A step that
    holds a junction (see ``junctions``) is two sub-steps: the first takes the
    step's place, and the second ones follow the n steps, in step order, so m
    is n plus the number of those steps.  A second sub-step starts where the
    forward pass lands the first.  The total of x's first node is n0 and N.
    """
    if not x.grid == u.grid == rates.grid:
        raise ValueError("state, controls and rates must share one grid")
    x0 = State(*x.values[0].tolist())
    n0 = _require_total(x0)
    layout = junction_layout(u.values, rates, params, n0)
    if layout is not None:  # a pass resumed at t_f lands each first sub-step from x
        forward_table(x0, n0, _half_steps(u.values), params, rates, x.values, layout)
    return _rk4_stages(x, u, params, rates, n0, layout)


def _rk4_stages(x: Trajectory, u: ControlGrid, params: ModelParams, rates: GridRates,
                N: float, layout: SplitLayout | None) -> tuple:
    """``rk4_stages`` on N and the layout of u's junction steps that the
    forward pass to x filled in; nothing is checked."""
    grid = x.grid
    n, h = grid.n, grid.h
    xs = x.values[:-1]
    steps = [] if layout is None else [split[0] for split in layout.splits]
    m = n + len(steps)
    cols = np.arange(m)
    cols[n:] = steps  # gathered as whole steps, then overwritten
    # half-step row read by stage k+1 of step i
    rows = np.array([[0], [1], [1], [2]]) + 2 * cols
    controls = _half_steps(u.values)[rows]
    betas, gammas = rates.beta[rows], rates.gamma[rows]
    stages = np.empty((4, m, 2))
    stages[0, :n] = xs[:, 0::2]
    widths, span = np.ones(m), h
    if steps:
        stages[0, n:] = layout.taus
        # the stage rows of every first sub-step, then of every second one
        at = steps + list(range(n, m))
        sub = np.array(layout.rows)[:, [[0, 1, 1, 2], [3, 4, 4, 5]]].transpose(2, 1, 0, 3)
        sub = sub.reshape(4, len(at), 4)
        controls[:, at], betas[:, at], gammas[:, at] = sub[..., :2], sub[..., 2], sub[..., 3]
        thetas = np.array([split[2] for split in layout.splits])
        widths[steps], widths[n:] = thetas, 1.0 - thetas
        span = np.full((m, 1), h)
        span[steps, 0], span[n:, 0] = zip(*layout.widths)
    for k, reach in enumerate((0.5 * span, 0.5 * span, span)):
        slope = rhs_terms(*stages[k].T, *controls[k].T, betas[k], gammas[k], params, N, N)
        stages[k + 1] = stages[0] + reach * np.column_stack(slope)
    states = _on_total(stages, N)
    states[0, :n] = xs
    return states, controls, widths


def _step_maps(start: np.ndarray, mid: np.ndarray, end: np.ndarray, h) -> np.ndarray:
    """RK4 steps of (dp/dt, 0) = S @ (p, 1) with step -h, as 4x4 maps M, from S
    at each step's start, midpoint and end: (p_start, 1) = M @ (p_end, 1).

    h is one width, or an array of them that broadcasts against the maps.
    """
    K1 = end
    K2 = mid - (0.5 * h) * (mid @ K1)
    K3 = mid - (0.5 * h) * (mid @ K2)
    K4 = start - h * (start @ K3)
    return _EYE4 - (h / 6.0) * (K1 + 2.0 * (K2 + K3) + K4)


def _suffix_products(maps: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The p rows of M_i M_{i+1} ... M_{m-1} @ (top, 1), i = 0..m-1.

    The m maps, bottom-padded with identities, split into about sqrt(m)
    chunks.  One matmul per chunk position forms every chunk's suffix
    products at once, small matvecs carry the chunk tops down, and one
    batched matvec finishes: m matmuls in about 2*sqrt(m) array passes.
    """
    size = math.isqrt(len(maps) - 1) + 1
    pad = -len(maps) % size
    chunks = np.empty((pad + len(maps), 4, 4))
    chunks[:pad], chunks[pad:] = _EYE4, maps
    chunks = chunks.reshape(-1, size, 4, 4)
    for j in range(size - 2, -1, -1):
        chunks[:, j] = chunks[:, j] @ chunks[:, j + 1]
    tops = [np.append(top, 1.0)]
    for chunk in chunks[:0:-1]:
        tops.append(chunk[0] @ tops[-1])
    rows = chunks[:, :, :3] @ np.array(tops[::-1])[:, None, :, None]
    return rows.reshape(-1, 3)[pad:]


def _sub_step_table(layout: SplitLayout, x: np.ndarray, n0: float) -> np.ndarray:
    """The (R, C, P, u1, u2, beta, gamma) rows after a block's half-step rows,
    8 per split: on the stride of 2, a bridge step, the first sub-step, a
    bridge, the second, each on its layout rows and the states at its ends,
    averaged at its midpoint."""
    table = []
    for (i, *_), rows, (R, P) in zip(layout.splits, layout.rows, layout.taus):
        (aR, aC, aP), (bR, bC, bP) = x[i:i + 2].tolist()
        C = n0 - R - P
        r0, r1, r2, r3, r4, r5 = rows
        table += (aR, aC, aP, *r0, aR, aC, aP, *r0,
                  0.5 * (aR + R), 0.5 * (aC + C), 0.5 * (aP + P), *r1, R, C, P, *r2,
                  R, C, P, *r2, R, C, P, *r3,
                  0.5 * (R + bR), 0.5 * (C + bC), 0.5 * (P + bP), *r4, bR, bC, bP, *r5)
    return np.array(table).reshape(-1, 7)


def backward_table(p_terminal, x: np.ndarray, us: np.ndarray, params: ModelParams,
                   weights: Weights, rates: GridRates, n0: float,
                   layout: SplitLayout | None = None) -> np.ndarray:
    """Raw backward pass: the (n+1, 3) adjoint nodes along the state nodes x,
    under us, the ``_half_steps`` controls on rates.grid, from p_terminal =
    (p1, p2, p3) at t_f.  No input is checked; a non-finite adjoint raises
    IntegrationError.

    Each RK4 step is an affine map of p.  Per block of BACKWARD_BLOCK steps,
    one ``costate_system`` call on the block's half-step rows gives the maps,
    and ``_suffix_products`` composes them onto the block's top node in linear
    work.  Each step of layout (none by default), filled in by the forward
    pass to x, is the product of its sub-steps' maps, which the first block's
    calls also build (``_sub_step_table``).
    """
    grid = rates.grid
    h = grid.h
    xs = _half_steps(x)
    out = np.empty((grid.n + 1, 3))
    out[grid.n] = p_terminal
    steps = [] if layout is None else [split[0] for split in layout.splits]
    split_maps = ()
    with np.errstate(over="ignore", invalid="ignore"):
        for hi in range(grid.n, 0, -BACKWARD_BLOCK):
            lo = max(0, hi - BACKWARD_BLOCK)
            rows = slice(2 * lo, 2 * hi + 1)
            columns = (*xs[rows].T, *us[rows].T, rates.beta[rows], rates.gamma[rows])
            widths = h
            if steps and hi == grid.n:
                columns = np.concatenate((columns, _sub_step_table(layout, x, n0).T), axis=1)
                widths = np.full((hi - lo + 4 * len(steps), 1, 1), h)
                widths[hi - lo + 1::2, 0, 0] = [w for pair in layout.widths for w in pair]
            S = costate_system(*columns, params, weights, n0)
            maps = _step_maps(S[0:-1:2], S[1::2], S[2::2], widths)
            if len(maps) > hi - lo:
                split_maps = maps[hi - lo + 1::4] @ maps[hi - lo + 3::4]
                maps = maps[:hi - lo]
            for i, split_map in zip(steps, split_maps):
                if lo <= i < hi:
                    maps[i - lo] = split_map
            out[lo:hi] = _suffix_products(maps, out[hi])
            bad = ~np.isfinite(out[lo:hi]).all(axis=1)
            if bad.any():
                i = lo + int(np.flatnonzero(bad)[-1])
                raise IntegrationError(
                    f"non-finite adjoint at step {i} (t={grid.t0 + i * h:.6g})",
                    step=i,
                )
    return out


def rk4_backward(p_terminal: Costate, x: Trajectory, u: ControlGrid,
                 params: ModelParams, weights: Weights, rates: GridRates) -> Trajectory:
    """Integrate the adjoint system from t_f down to t0 along x and u.

    The final node equals p_terminal exactly, and the model's n0 is the total
    of x's first node, which on a trajectory from ``rk4_forward`` is x0's.
    """
    if not x.grid == u.grid == rates.grid:
        raise ValueError("state, controls and rates must share one grid")
    n0 = _require_total(State(*x.values[0].tolist()))
    top = (p_terminal.p1, p_terminal.p2, p_terminal.p3)
    out = backward_table(top, x.values, _half_steps(u.values), params, weights, rates, n0)
    return Trajectory(x.grid, out)
