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
bit for bit.  The forward pass splits the steps a control table declares
(``ControlGrid.splits``); only the switch sweep's backward pass splits any.
Each table's split steps are laid out once (``junctions.split_layout``): the
forward pass runs their sub-steps on the layout's rows
(``_step_coefficients``) and leaves the state at each tau in the layout,
where the backward pass reads it.

The forward pass carries only R and P, with C = N - R - P on the conserved
total N of x0, through ``_rk4_steps``, which evaluates the flow form of
``model.flow_coefficients`` inline, as ``pointwise.rhs_terms`` does; it also
sums each step's stage P values, the P part of the pass's cost
(``objectives``), for which ``pointwise.rk4_stages`` is the reference.
The loop reads its coefficient columns through memoryviews, one float per
read: no coefficient list is built per pass, so only the step in hand's
floats are alive, not 6(2n+1) for the whole loop.  The adjoint system is
linear in p, so the backward pass builds each step as an affine map, from
one ``pmp.costate_system`` call (one constant-matrix product) per block, and
composes them in linear work.
Each pass is a raw kernel on node and half-step tables (``forward_table``,
``backward_table``), which the sweep calls directly, under a validating
wrapper (``rk4_forward``, ``rk4_backward``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .junctions import SplitLayout, split_layout
from .model import (ModelParams, RateCallable, State, Weights, _require_count,
                    _require_total, flow_coefficients)
from .pmp import costate_system

if TYPE_CHECKING:
    from .pointwise import Costate

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
        _require_count("n", self.n)
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
    """A (u1, u2) pair at every grid node; the sweep solver's unknown.

    splits holds (i, c, theta, bound), in rising step order, for each step i
    in which control c kinks on bound (a junction) or, if bound is None, jumps
    (a switch) at tau = t_i + theta*h; by default none, so every step is whole.
    """

    grid: TimeGrid
    values: np.ndarray
    splits: tuple = ()

    def __post_init__(self) -> None:
        values = _node_table(self.values, self.grid, 2, "control")
        if values.min() < 0.0:
            raise ValueError("control values must be >= 0")
        object.__setattr__(self, "values", values)
        splits, at = tuple(map(tuple, self.splits)), -1
        for split in splits:
            i, c, theta, bound = split
            _require_count("split step", i)
            if not (at < i < self.grid.n and c in (0, 1) and 0.0 < theta < 1.0
                    and (bound is None or 0.0 <= bound < math.inf)):
                raise ValueError(f"split {split} needs steps rising in 0..{self.grid.n - 1}, "
                                 "control 0 or 1, theta in (0, 1), bound None or >= 0")
            at = i
        object.__setattr__(self, "splits", splits)


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
        for name, field in zip(self.names, ("beta", "gamma")):
            values = np.array(getattr(self, field), dtype=float)
            if values.shape != (2 * n + 1,):
                raise ValueError(f"{field} needs {n + 1} node and {n} midpoint values")
            bad = ~(np.isfinite(values) & (values >= 0.0))
            if bad.any():
                i = int(np.argmax(bad))
                t = _sample_times(self.grid)[i]
                raise ValueError(
                    f"{name} is {float(values[i])!r} at t={t:.6g}; "
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


def _step_coefficients(rows, params: ModelParams, n0: float) -> tuple:
    """A (sub-)step's ``_rk4_steps`` coefficient tuple from its (u1, u2, beta,
    gamma) rows at its start, midpoint and end."""
    a, b, _, e, g, k, f = zip(*(flow_coefficients(*row, params, n0, n0) for row in rows))
    return (*a, *b, *e, *g, *k, *f)


def _rk4_steps(R, P, c, h, steps, Rs, Ps):
    """Run RK4 steps of width h from (R, P) on ``_step_coefficients`` tuples,
    appending each new node to Rs and Ps; returns the last, and the steps'
    sum of P1 + 2*(P2 + P3) + P4, the P of their four stages.  Each stage is
    ``pointwise.rhs_terms`` inline: a change to one must be made in both."""
    half, sixth, stage_sum = 0.5 * h, h / 6.0, 0.0
    for aa, am, ab, ba, bm, bb, ea, em, eb, ga, gm, gb, ka, km, kb, fa, fm, fb in steps:
        q = R * P
        kR1 = aa * R + ba * P + c + ea * q
        kP1 = ga + ka * P - fa * q
        r, p2 = R + half * kR1, P + half * kP1
        q = r * p2
        kR2 = am * r + bm * p2 + c + em * q
        kP2 = gm + km * p2 - fm * q
        r, p3 = R + half * kR2, P + half * kP2
        q = r * p3
        kR3 = am * r + bm * p3 + c + em * q
        kP3 = gm + km * p3 - fm * q
        r, p = R + h * kR3, P + h * kP3
        q = r * p
        kR4 = ab * r + bb * p + c + eb * q
        kP4 = gb + kb * p - fb * q
        stage_sum += P + 2.0 * (p2 + p3) + p
        R += sixth * (kR1 + 2.0 * (kR2 + kR3) + kR4)
        P += sixth * (kP1 + 2.0 * (kP2 + kP3) + kP4)
        Rs.append(R)
        Ps.append(P)
    return R, P, stage_sum


def forward_table(x0: State, n0: float, us: np.ndarray, params: ModelParams,
                  rates: GridRates, layout: SplitLayout | None = None) -> tuple:
    """Raw forward pass: the (n+1, 3) state nodes from x0, whose total is n0,
    under us, the ``_half_steps`` controls on rates.grid, and the RK4
    quadrature of P: each (sub-)step's P1 + 2*(P2 + P3) + P4, weighted by its
    width (6 times the integral of P).  No input is checked; every step is,
    after the loop, and the first bad one raises IntegrationError.  Each step
    of layout (none by default) runs as its two sub-steps, and the pass fills
    layout.taus.  The node table is built once: row 0 from x0, then the
    loop's R and P columns, and C = (N - R) - P.
    """
    grid = rates.grid
    h = grid.h
    values = np.empty((grid.n + 1, 3))
    values[0] = x0.R, x0.C, x0.P
    (R, _, P), N = values[0].tolist(), n0
    Rs, Ps, at, whole, split = [], [], 0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c, e, g, k, f = flow_coefficients(*us.T, rates.beta, rates.gamma, params, N, N)
        # step i reads coefficient rows 2i, 2i+1 and 2i+2, as it unpacks them
        series = [memoryview(col) for col in (a, b, e, g, k, f)]
        steps = zip(*(col[j::2] for col in series for j in (0, 1, 2)))
        if layout is not None:
            taus = layout.taus
            taus.clear()
            for (i, *_), (ha, hb), rows in zip(layout.splits, layout.widths, layout.rows):
                R, P, stage_sum = _rk4_steps(R, P, c, h, islice(steps, i - at), Rs, Ps)
                whole += stage_sum
                next(steps)  # step i taken whole
                first, second = (_step_coefficients(half, params, N)
                                 for half in (rows[:3], rows[3:]))
                R, P, first_sum = _rk4_steps(R, P, c, ha, (first,), [], [])
                taus.append((R, P))
                R, P, second_sum = _rk4_steps(R, P, c, hb, (second,), Rs, Ps)
                split += ha * first_sum + hb * second_sum
                at = i + 1
        whole += _rk4_steps(R, P, c, h, steps, Rs, Ps)[2]
        values[1:, 0], values[1:, 2] = Rs, Ps
        np.subtract(N - values[1:, 0], values[1:, 2], out=values[1:, 1])
        # float arithmetic does not raise, so every step is checked here; with
        # N finite, this passes exactly the finite states with no component
        # below -NONNEG_TOLERANCE
        above = values[1:] >= -NONNEG_TOLERANCE
    if not above.all():  # a flat check first: the row search is slow
        i = 1 + int(np.argmax(~above.all(axis=1)))
        t = grid.t0 + i * h
        if not np.isfinite(values[i]).all():
            raise IntegrationError(f"non-finite state at step {i} (t={t:.6g})", i)
        raise IntegrationError(
            f"state component below -{NONNEG_TOLERANCE:g} at step {i} "
            f"(t={t:.6g}); reduce the step size h={h:.6g}", i
        )
    return values, h * whole + split


def rk4_forward(x0: State, u: ControlGrid, params: ModelParams,
                rates: GridRates) -> Trajectory:
    """Integrate the state system over u.grid from x0, whose total R + C + P
    is n0, splitting the steps that u declares."""
    if rates.grid != u.grid:
        raise ValueError("controls and rates must share one grid")
    n0 = _require_total(x0)
    layout = split_layout(u.splits, u.values, rates)
    values, _ = forward_table(x0, n0, _half_steps(u.values), params, rates, layout)
    return Trajectory(u.grid, values)


def _step_maps(start: np.ndarray, mid: np.ndarray, end: np.ndarray, h) -> np.ndarray:
    """RK4 steps of (dp/dt, 0) = S @ (p, 1) with step -h, as 4x4 maps M, from S
    at each step's start, midpoint and end: (p_start, 1) = M @ (p_end, 1).

    h is one width, or an array of them that broadcasts against the maps.
    With K1 = end, K2 = mid - (h/2) mid K1, K3 = mid - (h/2) mid K2 and
    K4 = start - h start K3, M = I - (h/6)(K1 + 2(K2 + K3) + K4), computed in
    the buffers of the three matrix products: a - s*b is a + (-s)*b, bit for
    bit, since negation is exact.
    """
    half = -(0.5 * h)
    K2 = mid @ end
    K2 *= half
    K2 += mid
    K3 = mid @ K2
    K3 *= half
    K3 += mid
    K4 = start @ K3
    K4 *= -h
    K4 += start
    K2 += K3
    K2 *= 2.0
    K2 += end
    K2 += K4
    K2 *= -(h / 6.0)
    K2 += _EYE4
    return K2


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
    tops = [np.array((*top.tolist(), 1.0))]
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
            finite = np.isfinite(out[lo:hi])
            if not finite.all():
                i = lo + int(np.flatnonzero(~finite.all(axis=1))[-1])
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
    Every step runs whole, whatever u splits.
    """
    if not x.grid == u.grid == rates.grid:
        raise ValueError("state, controls and rates must share one grid")
    n0 = _require_total(State(*x.values[0].tolist()))
    top = (p_terminal.p1, p_terminal.p2, p_terminal.p3)
    out = backward_table(top, x.values, _half_steps(u.values), params, weights, rates, n0)
    return Trajectory(x.grid, out)
