"""Fixed-step classical RK4 on a shared uniform grid.

The state system integrates forward from t0; the adjoint system integrates
backward from t_f re-using the already-computed state trajectory.  Every RK4
stage reads its inputs from one half-step layout of 2n+1 rows, nodes at even
rows and interval midpoints at odd rows: step i reads rows 2i, 2i+1 (twice)
and 2i+2.  ``sample_rates`` samples beta and gamma there once per grid, and
``_half_steps`` lays out controls and states the same way, with the average
of the two adjacent nodes at each midpoint, which keeps fourth order for
smooth controls.  A clamped control has a kink where it meets its bound, and
the step that holds the kink would be only second order; every forward pass
and the cost split such a step at the junction time tau into two RK4
sub-steps, on [t_i, tau] and [tau, t_{i+1}] (the rule is in ``junctions``).
Any other step, and so any pass with no junction, is unchanged, bit for bit.
The backward pass does not split a junction.  Both passes also take a split
list from the caller: the steps that hold a bang-bang switch, each run as two
sub-steps with their side's constant controls, forward and backward.

The forward pass steps node by node on the conserved total N = R + C + P of
x0: it carries only R and P and fills in C as N - R - P.  An RK4 step has two
forms.  ``_rk4_steps``, the one inline form, evaluates the coefficient form of
``model.rhs_terms`` operation for operation, on one ``model.flow_coefficients``
table per pass, so its bits are those of calling that kernel per stage, on
scalars or on columns; every step is checked after the loop.  Split sub-steps
run through it too, one call each.  ``rk4_stages`` makes those calls on whole
columns, three per trajectory: from its nodes it rebuilds the stage states and
the width of every (sub-)step, which the cost rule reads.
The adjoint system is linear in p, so the backward pass makes one
``pmp.costate_system`` call per block of steps, builds each step as an affine
map, and composes them in linear work; a split step's map is the product of
its sub-steps' maps, built for all splits in one more call.  Each pass is a
raw kernel on node and half-step tables (``forward_table``,
``backward_table``), which the sweep calls directly, and a validating wrapper
(``rk4_forward``, ``rk4_backward``);
``forward_table`` resumes at node s from an earlier pass's first s+1 nodes,
under controls equal on nodes 0..s-1+REACH, the nodes that the steps before s
and their junctions read.
Trajectory and ControlGrid share one node-table check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .junctions import junction_steps, split_step
from .model import (ModelParams, RateCallable, State, Weights, _require_total,
                    flow_coefficients, rhs_terms)
from .pmp import Costate, costate_system

# Default intervals per unit time, per objective.  With the RK4 stage cost (see
# ``objectives``) and the steps that hold a clamp junction split there, the l2
# presets at 25 per unit (n=175) come within 1.8e-10 of the n -> inf cost (an
# n=5600, tol-1e-11 solve); at 50 per unit without the split they came within
# 5.4e-9.  l1 keeps 200: its bang-bang controls keep the cost second order, and
# at n=350 its sweep halves its weight and stops on controls whose signs
# disagree with the switching values (acceptance criterion 4).
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
    ``forward_table`` or of ``_sub_steps``, appending each new node to Rs and
    Ps; returns the last."""
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
                  splits: list[tuple] | None = None) -> np.ndarray:
    """Raw forward pass: the (n+1, 3) state nodes from x0, whose total is n0,
    under us, the ``_half_steps`` controls on rates.grid.  No input is checked;
    every step is, after the loop, and the first bad one raises IntegrationError.
    Each step of splits, in step order (by default the junction steps of us,
    ``junctions.junction_steps``; or switch steps, ``junctions.switch_steps``),
    runs as the two sub-steps of ``junctions.split_step``.  head, if given, is
    an earlier pass's first s+1 nodes, under controls equal to us on nodes
    0..s-1+REACH (``junctions.REACH``) and the same splits before step s: the
    pass resumes at node s, with the same bits and errors.
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
    Rs, Ps = [], []
    nodes, at = us[0::2], s
    for split in junction_steps(nodes, params) if splits is None else splits:
        i = split[0]
        if i < s:
            continue
        R, P = _rk4_steps(R, P, c, h, islice(steps, i - at), Rs, Ps)
        next(steps)  # step i taken whole
        ha, hb, rows = split_step(split, nodes, rates)
        _, first, second = _sub_steps(rows, params, N)
        tau = _rk4_steps(R, P, c, ha, (first,), [], [])
        R, P = _rk4_steps(*tau, c, hb, (second,), Rs, Ps)
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
    """Integrate the state system over u.grid from x0, whose total R + C + P is n0."""
    if rates.grid != u.grid:
        raise ValueError("controls and rates must share one grid")
    values = forward_table(x0, _require_total(x0), _half_steps(u.values), params, rates)
    return Trajectory(u.grid, values)


def _sub_steps(rows, params: ModelParams, N: float) -> tuple:
    """The ``_rk4_steps`` arguments of a split step's two sub-steps, from the 5
    or 6 rows of ``junctions.split_step``: the constant c, then the coefficient
    tuples of the first 3 rows and of the last 3."""
    coefficients = [flow_coefficients(*row, params, N, N) for row in rows]
    (a0, b0, c, e0, g0, k0, f0), (a1, b1, _, e1, g1, k1, f1), (a2, b2, _, e2, g2, k2, f2) = (
        coefficients[:3])
    (a3, b3, _, e3, g3, k3, f3), (a4, b4, _, e4, g4, k4, f4), (a5, b5, _, e5, g5, k5, f5) = (
        coefficients[-3:])
    return (c, (a0, a1, a2, b0, b1, b2, e0, e1, e2, g0, g1, g2, k0, k1, k2, f0, f1, f2),
            (a3, a4, a5, b3, b4, b5, e3, e4, e5, g3, g4, g5, k3, k4, k5, f3, f4, f5))


def rk4_stages(
    x: Trajectory,
    u: ControlGrid,
    params: ModelParams,
    rates: GridRates,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (sub-)step's four RK4 stage inputs, rebuilt on whole columns from x's nodes.

    Returns (states, controls, widths) with shapes (4, m, 3), (4, m, 2) and
    (m,): states[k, i] and controls[k, i] are where stage k+1 of step i
    evaluates ``model.rhs_terms``: node i, the two midpoint predictions, then
    the end-point prediction, under u_i, the midpoint average twice, then
    u_{i+1}; widths[i] is the step's width as a fraction of h.  A step that
    holds a junction (see ``junctions``) is two sub-steps: the first takes the
    step's place, and the second ones follow the n steps, in step order, so m
    is n plus the number of those steps.  A second sub-step starts where
    ``_rk4_steps`` lands the first, as in the forward pass.  The total of x's
    first node is n0 and N.
    """
    grid = x.grid
    if not grid == u.grid == rates.grid:
        raise ValueError("state, controls and rates must share one grid")
    n, h = grid.n, grid.h
    N = _require_total(State(*x.values[0].tolist()))
    xs = x.values[:-1]
    splits = junction_steps(u.values, params)
    steps = [split[0] for split in splits]
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
    if splits:
        subs = []
        for split in splits:
            ha, hb, sub_rows = split_step(split, u.values, rates)
            R, _, P = xs[split[0]].tolist()
            c, first, _ = _sub_steps(sub_rows, params, N)
            subs.append((ha, hb, _rk4_steps(R, P, c, ha, (first,), [], []), sub_rows))
        ha, hb, taus, sub_rows = zip(*subs)
        stages[0, n:] = taus
        # the stage rows of every first sub-step, then of every second one
        at = steps + list(range(n, m))
        sub = np.array(sub_rows)[:, [[0, 1, 1, 2], [2, 3, 3, 4]]].transpose(2, 1, 0, 3)
        sub = sub.reshape(4, len(at), 4)
        controls[:, at], betas[:, at], gammas[:, at] = sub[..., :2], sub[..., 2], sub[..., 3]
        thetas = np.array([split[2] for split in splits])
        widths[steps], widths[n:] = thetas, 1.0 - thetas
        span = np.full((m, 1), h)
        span[steps, 0], span[n:, 0] = ha, hb
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


def _split_maps(splits: list[tuple], x: np.ndarray, us: np.ndarray, params: ModelParams,
                weights: Weights, rates: GridRates, n0: float) -> np.ndarray:
    """The backward step maps of the split steps, one per split: each the
    product of its two sub-steps' maps, from one ``costate_system`` call on
    every sub-step's start, midpoint and end.

    A sub-step reads the rows of ``junctions.split_step``, and the states at
    its ends, with their average at its midpoint; the state at tau is where
    the forward pass's first sub-step lands.
    """
    nodes, table, widths = us[0::2], [], []
    for split in splits:
        i = split[0]
        ha, hb, rows = split_step(split, nodes, rates)
        c, first, _ = _sub_steps(rows, params, n0)
        a, b = x[i].tolist(), x[i + 1].tolist()
        R, P = _rk4_steps(a[0], a[2], c, ha, (first,), [], [])
        tau = (R, n0 - R - P, P)
        states = (a, [0.5 * (s + t) for s, t in zip(a, tau)], tau,
                  tau, [0.5 * (t + s) for t, s in zip(tau, b)], b)
        inputs = rows[:3] + rows[-3:]  # a junction's sub-steps share its row 2
        table.append([(*state, *row) for state, row in zip(states, inputs)])
        widths.append((ha, hb))
    S = costate_system(*np.array(table).T, params, weights, n0)  # (6, k, 4, 4)
    h = np.array(widths).T[:, :, None, None]
    maps = _step_maps(S[0::3], S[1::3], S[2::3], h)  # each split's sub-steps a, b
    return maps[0] @ maps[1]


def backward_table(p_terminal, x: np.ndarray, us: np.ndarray, params: ModelParams,
                   weights: Weights, rates: GridRates, n0: float,
                   splits: list[tuple] = ()) -> np.ndarray:
    """Raw backward pass: the (n+1, 3) adjoint nodes along the state nodes x,
    under us, the ``_half_steps`` controls on rates.grid, from p_terminal =
    (p1, p2, p3) at t_f.  No input is checked; a non-finite adjoint raises
    IntegrationError.

    Each RK4 step is an affine map of p.  Per block of BACKWARD_BLOCK steps,
    one ``costate_system`` call on the block's half-step rows gives the maps,
    and ``_suffix_products`` composes them onto the block's top node in linear
    work.  The steps of splits, in step order (none by default), are the
    products of their sub-steps' maps (``_split_maps``).
    """
    grid = rates.grid
    h = grid.h
    xs = _half_steps(x)
    out = np.empty((grid.n + 1, 3))
    out[grid.n] = p_terminal
    with np.errstate(over="ignore", invalid="ignore"):
        split_maps = (_split_maps(splits, x, us, params, weights, rates, n0) if splits
                      else ())
        for hi in range(grid.n, 0, -BACKWARD_BLOCK):
            lo = max(0, hi - BACKWARD_BLOCK)
            rows = slice(2 * lo, 2 * hi + 1)
            S = costate_system(
                *xs[rows].T, *us[rows].T, rates.beta[rows], rates.gamma[rows],
                params, weights, n0,
            )
            maps = _step_maps(S[0:-1:2], S[1::2], S[2::2], h)
            for split, split_map in zip(splits, split_maps):
                if lo <= split[0] < hi:
                    maps[split[0] - lo] = split_map
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
