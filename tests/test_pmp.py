import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketopt.model import ModelParams, State, Weights
from marketopt.pmp import bang_bang_terms, costate_system, l2_law_table, switching_table
from marketopt.pointwise import (
    ControlPair,
    Costate,
    SwitchingValues,
    control_law_l2,
    costate_rhs,
    dynamics,
    hamiltonian,
    l2_law_terms,
    switching_functions,
)
from marketopt.scenarios import Constant, builtin_beta_rate, builtin_gamma_rate

PARAMS = ModelParams(
    alpha1=0.05, alpha2=0.10, lambda1=0.002, lambda2=0.018, u1_max=0.06, u2_max=1.0
)
WEIGHTS = Weights(kappa1=1.0, kappa2=1.5, kappa3=0.01)
X0 = State(R=0.001, C=0.009, P=0.99)

costate_values = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _random_point(rng):
    x = rng.uniform(0.05, 1.0, size=3)
    x /= x.sum()
    return State(*x), Costate(*rng.uniform(-3.0, 3.0, size=3)), 1.0


def test_costate_rhs_with_zero_costate_keeps_only_the_source():
    d = costate_rhs(
        0.0, X0, Costate(0.0, 0.0, 0.0), ControlPair(0.0, 0.0),
        PARAMS, WEIGHTS, builtin_beta_rate(1), builtin_gamma_rate(1), 1.0,
    )
    assert d == (0.0, 0.0, -WEIGHTS.kappa1)


@given(c=costate_values)
def test_costate_rhs_equal_components_reduce_to_the_source(c):
    d = costate_rhs(
        0.0, X0, Costate(c, c, c), ControlPair(0.0, 0.5),
        PARAMS, WEIGHTS, builtin_beta_rate(1), builtin_gamma_rate(1), 1.0,
    )
    scale = max(1.0, abs(c))
    assert d[0] == pytest.approx(0.0, abs=1e-14 * scale)
    assert d[1] == pytest.approx(0.0, abs=1e-14 * scale)
    assert d[2] == pytest.approx(-WEIGHTS.kappa1, abs=1e-14 * scale)


def test_costate_rhs_matches_term_by_term_oracle():
    # frozen from a standalone evaluation of every adjoint term at t = 0
    d = costate_rhs(
        0.0, X0, Costate(0.1, 0.2, 0.3), ControlPair(0.03, 0.5),
        PARAMS, WEIGHTS, builtin_beta_rate(1), builtin_gamma_rate(1), 1.0,
    )
    assert d[0] == pytest.approx(0.033719579278482785, abs=1e-12)
    assert d[1] == pytest.approx(-0.009855575154432914, abs=1e-12)
    assert d[2] == pytest.approx(-0.9968494386348037, abs=1e-12)


def test_costate_rhs_rejects_nonfinite():
    with pytest.raises(ValueError):
        costate_rhs(
            0.0, X0, Costate(0.0, 0.0, 0.0), ControlPair(0.0, 0.0),
            PARAMS, WEIGHTS, Constant(0.5), builtin_gamma_rate(1), 0.0,
        )
    with pytest.raises(ValueError):
        costate_rhs(
            float("nan"), X0, Costate(0.0, 0.0, 0.0), ControlPair(0.0, 0.0),
            PARAMS, WEIGHTS, Constant(0.5), builtin_gamma_rate(1), 1.0,
        )


def test_l2_law_zero_costate_gives_zero_controls():
    u = control_law_l2(X0, Costate(0.0, 0.0, 0.0), PARAMS, WEIGHTS, 1.0)
    assert (u.u1, u.u2) == (0.0, 0.0)


def test_l2_law_upper_clamp():
    u = control_law_l2(X0, Costate(0.0, 0.0, 50.0), PARAMS, WEIGHTS, 1.0)
    assert u.u1 == PARAMS.u1_max


def test_l2_law_matches_arithmetic_oracle():
    u = control_law_l2(X0, Costate(0.0, 0.0, 1.0), PARAMS, WEIGHTS, 1.0)
    assert u.u1 == PARAMS.u1_max  # 0.33 clamps to the bound
    assert u.u2 == pytest.approx(0.0495, abs=1e-12)


def test_switching_values_at_zero_costate_are_the_control_weights():
    phi = switching_functions(X0, Costate(0.0, 0.0, 0.0), PARAMS, WEIGHTS, 1.0)
    assert (phi.phi1, phi.phi2) == (WEIGHTS.kappa2, WEIGHTS.kappa3)


def test_switching_values_with_no_potential_customers():
    x = State(R=0.4, C=0.6, P=0.0)
    phi = switching_functions(x, Costate(1.0, -2.0, 0.5), PARAMS, WEIGHTS, 1.0)
    assert (phi.phi1, phi.phi2) == (WEIGHTS.kappa2, WEIGHTS.kappa3)


def test_switching_values_match_arithmetic_oracle():
    phi = switching_functions(X0, Costate(0.0, 0.0, 1.0), PARAMS, WEIGHTS, 1.0)
    assert phi.phi1 == pytest.approx(0.51, abs=1e-12)
    assert phi.phi2 == pytest.approx(0.00901, abs=1e-12)


def _l1_law(phi, previous=(0.0, 0.0), eps=1e-9):
    """The bang-bang law at one node: both controls and their singular flags."""
    u1, singular1 = bang_bang_terms(phi.phi1, PARAMS.u1_max, previous[0], eps)
    u2, singular2 = bang_bang_terms(phi.phi2, PARAMS.u2_max, previous[1], eps)
    return ControlPair(float(u1), float(u2)), (bool(singular1), bool(singular2))


def test_bang_bang_law():
    u, flags = _l1_law(SwitchingValues(1.0, -1.0))
    assert (u.u1, u.u2) == (0.0, PARAMS.u2_max)
    assert flags == (False, False)


def test_bang_bang_law_holds_previous_value_inside_deadband():
    previous = (0.03, 0.5)
    u, flags = _l1_law(SwitchingValues(0.0, 0.0), previous)
    assert (u.u1, u.u2) == previous
    assert flags == (True, True)


def test_l2_law_clamps_negative_zero_to_positive_zero():
    # a negative gap times P = 0 gives -0.0 before the clamp, as max(0.0, u) did
    x, p = State(R=0.4, C=0.6, P=0.0), Costate(1.0, 1.0, 0.0)
    u = control_law_l2(x, p, PARAMS, WEIGHTS, 1.0)
    u1, _ = l2_law_terms(
        np.array([x.R]), np.array([x.P]), np.array([p.p1]), np.array([p.p2]),
        np.array([p.p3]), PARAMS, WEIGHTS, 1.0,
    )
    table, _ = l2_law_table(np.array([[x.R, x.C, x.P]]), np.array([[p.p1, p.p2, p.p3]]),
                            PARAMS, WEIGHTS, 1.0)
    assert u.u1 == 0.0 and not np.signbit(u.u1)
    assert u1[0] == 0.0 and not np.signbit(u1[0])
    # the solver compares control tables by their int64 views, so a -0.0
    # here would count as a change and cost it one more pass
    assert np.all(table == 0.0) and not np.signbit(table).any()


# Node columns for the array-kernel property test.  Costates up to +-60 push
# the l2 law past both ends of the box; the appended nodes pin one clamp at
# each bound, so every example exercises both.
unit = st.floats(min_value=0.0, max_value=1.0)
wide = st.floats(min_value=-60.0, max_value=60.0)
kernel_nodes = st.lists(st.tuples(unit, unit, unit, wide, wide, wide), min_size=1)
CLAMP_NODES = [(0.1, 0.2, 0.7, 0.0, 0.0, 50.0), (0.1, 0.2, 0.7, 0.0, 0.0, -50.0)]
EPS_CHOICES = (0.0, 1e-9, 0.25)
# Switching values at, inside and outside every deadband in EPS_CHOICES.
phi_values = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 5e-10, -5e-10, 1e-9, -1e-9, 0.25, -0.25, 0.3, -0.3]),
)
previous = st.tuples(
    st.floats(min_value=0.0, max_value=PARAMS.u1_max),
    st.floats(min_value=0.0, max_value=PARAMS.u2_max),
)


def _bits(value):
    return float(value).hex()


def _l2_reference(x, p, n0):
    # the clamped l2 law per node with Python min/max, in the kernel's order
    a1, a2 = PARAMS.alpha1, PARAMS.alpha2
    u1 = (p.p3 - a1 * p.p1 - (1.0 - a1) * p.p2) * x.P / (2.0 * WEIGHTS.kappa2)
    spread_gap = p.p3 - a2 * p.p1 - (1.0 - a2) * p.p2
    u2 = spread_gap * x.P * x.R / (2.0 * WEIGHTS.kappa3 * n0)
    return min(max(0.0, u1), PARAMS.u1_max), min(max(0.0, u2), PARAMS.u2_max)


def _bang_bang_reference(phi, bound, prev, eps):
    if phi > eps:
        return 0.0, False
    if phi < -eps:
        return bound, False
    return prev, True


@settings(max_examples=60)
@given(nodes=kernel_nodes, n0=st.floats(min_value=0.5, max_value=2.0))
def test_array_l2_and_switching_kernels_match_scalar_laws(nodes, n0):
    nodes = nodes + CLAMP_NODES
    R, C, P, p1, p2, p3 = (np.array(col) for col in zip(*nodes))
    u1, u2 = l2_law_terms(R, P, p1, p2, p3, PARAMS, WEIGHTS, n0)
    table = np.array(nodes)
    phi = switching_table(table[:, :3], table[:, 3:], PARAMS, WEIGHTS, n0)
    assert phi.shape == (len(nodes), 2)
    phi1, phi2 = phi.T
    for i, (r, c, pp, q1, q2, q3) in enumerate(nodes):
        x, p = State(r, c, pp), Costate(q1, q2, q3)
        u = control_law_l2(x, p, PARAMS, WEIGHTS, n0)
        phi = switching_functions(x, p, PARAMS, WEIGHTS, n0)
        assert (_bits(u1[i]), _bits(u2[i])) == (_bits(u.u1), _bits(u.u2))
        assert (_bits(u.u1), _bits(u.u2)) == tuple(map(_bits, _l2_reference(x, p, n0)))
        assert (_bits(phi1[i]), _bits(phi2[i])) == (_bits(phi.phi1), _bits(phi.phi2))
        assert type(u.u1) is float and type(phi.phi1) is float
    assert u1[-2] == PARAMS.u1_max and u1[-1] == 0.0


@settings(max_examples=60)
@given(nodes=kernel_nodes, n0=st.floats(min_value=0.5, max_value=2.0))
def test_gap_form_l2_law_matches_the_scalar_law_node_by_node(nodes, n0):
    nodes = nodes + CLAMP_NODES
    table = np.array(nodes)
    u, w = l2_law_table(table[:, :3], table[:, 3:], PARAMS, WEIGHTS, n0)
    assert u.shape == w.shape == (len(nodes), 2)
    for i, (r, c, pp, q1, q2, q3) in enumerate(nodes):
        ref = control_law_l2(State(r, c, pp), Costate(q1, q2, q3), PARAMS, WEIGHTS, n0)
        # each gap rounds off within a few ulps of its largest term, and the
        # clamp adds no error; 1e-300 covers products that underflow
        scale = 4e-15 * (abs(q1) + abs(q2) + abs(q3))
        assert abs(u[i, 0] - ref.u1) <= scale * pp / (2.0 * WEIGHTS.kappa2) + 1e-300
        assert abs(u[i, 1] - ref.u2) <= scale * pp * r / (2.0 * WEIGHTS.kappa3 * n0) + 1e-300
        assert 0.0 <= u[i, 0] <= PARAMS.u1_max and 0.0 <= u[i, 1] <= PARAMS.u2_max
    assert u[-2, 0] == PARAMS.u1_max and u[-1, 0] == 0.0
    # the control table is the stationary table w clamped to the box
    assert np.array_equal(u, np.clip(w, 0.0, (PARAMS.u1_max, PARAMS.u2_max)))


def _costate_reference(R, C, P, u1, u2, beta, gamma, n0):
    # S entry by entry, as the adjoint system in pmp's docstring reads
    a1, a2 = PARAMS.alpha1, PARAMS.alpha2
    l1, l2 = PARAMS.lambda1, PARAMS.lambda2
    drive = (beta + u2) / (n0 * n0)
    w1, w2, w3 = drive * P * (C + P), drive * P * R, drive * R * (C + R)
    A = [[l2 + gamma - a2 * w1, -l2 - (1.0 - a2) * w1, w1 - gamma],
         [a2 * w2 - l1, l1 + gamma + (1.0 - a2) * w2, -gamma - w2],
         [-a1 * u1 - a2 * w3, -(1.0 - a1) * u1 - (1.0 - a2) * w3, u1 + w3]]
    S = np.zeros((4, 4))
    S[:3, :3], S[2, 3] = A, -WEIGHTS.kappa1
    return S, 1.0 + gamma + w1 + w2 + w3 + u1  # the sum of the features


rate_values = st.floats(min_value=0.0, max_value=5.0)
system_nodes = st.lists(
    st.tuples(unit, unit, unit, st.floats(min_value=0.0, max_value=PARAMS.u1_max),
              st.floats(min_value=0.0, max_value=PARAMS.u2_max), rate_values, rate_values),
    min_size=1,
)


@settings(max_examples=60)
@given(nodes=system_nodes, n0=st.floats(min_value=0.5, max_value=2.0))
def test_costate_system_matches_its_entry_formulas_on_columns_and_scalars(nodes, n0):
    columns = [np.array(column) for column in zip(*nodes)]
    S = costate_system(*columns, PARAMS, WEIGHTS, n0)
    assert S.shape == (len(nodes), 4, 4)
    for i, node in enumerate(nodes):
        reference, features = _costate_reference(*node, n0)
        point = costate_system(*node, PARAMS, WEIGHTS, n0)
        assert point.shape == (4, 4)
        # every coefficient is at most 1 in size, so each entry rounds off
        # within a few ulps of the features' sum
        for got in (S[i], point):
            assert np.abs(got - reference).max() <= 1e-15 * features
            # R + C + P is conserved, so A (1, 1, 1) = 0: each row of A sums to 0
            assert np.abs(got[:3, :3].sum(axis=1)).max() <= 1e-15 * features
            assert np.all(got[3] == 0.0)


@settings(max_examples=60)
@given(
    nodes=st.lists(st.tuples(phi_values, phi_values, previous), min_size=1),
    eps=st.sampled_from(EPS_CHOICES),
)
def test_array_bang_bang_kernel_matches_scalar_law(nodes, eps):
    nodes = nodes + [(0.0, 0.0, (0.03, 0.5))]  # held in every deadband
    phi1 = np.array([n[0] for n in nodes])
    phi2 = np.array([n[1] for n in nodes])
    prev1 = np.array([n[2][0] for n in nodes])
    prev2 = np.array([n[2][1] for n in nodes])
    u1, singular1 = bang_bang_terms(phi1, PARAMS.u1_max, prev1, eps)
    u2, singular2 = bang_bang_terms(phi2, PARAMS.u2_max, prev2, eps)
    for i, (f1, f2, prev) in enumerate(nodes):
        u, flags = _l1_law(SwitchingValues(f1, f2), prev, eps)
        assert (_bits(u1[i]), _bits(u2[i])) == (_bits(u.u1), _bits(u.u2))
        assert (singular1[i], singular2[i]) == flags
        ref1 = _bang_bang_reference(f1, PARAMS.u1_max, prev[0], eps)
        ref2 = _bang_bang_reference(f2, PARAMS.u2_max, prev[1], eps)
        assert ((u.u1, flags[0]), (u.u2, flags[1])) == (ref1, ref2)
    assert singular1[-1] and u1[-1] == 0.03 and singular2[-1] and u2[-1] == 0.5
    # the (n+1, 2) table form, with the bound pair: the column laws bit for bit
    phi, bounds = np.column_stack((phi1, phi2)), (PARAMS.u1_max, PARAMS.u2_max)
    u, singular = bang_bang_terms(phi, bounds, np.column_stack((prev1, prev2)), eps)
    assert u.shape == singular.shape == (len(nodes), 2)
    assert u.tobytes() == np.column_stack((u1, u2)).tobytes()
    assert np.array_equal(singular, np.column_stack((singular1, singular2)))
    # and with a scalar previous value, held at every flagged node
    held, _ = bang_bang_terms(phi, bounds, 0.0, eps)
    assert held.tobytes() == np.where(singular, 0.0, u).tobytes()


def test_hamiltonian_with_zero_costate_and_control_is_the_state_cost():
    value = hamiltonian(
        0.0, X0, Costate(0.0, 0.0, 0.0), ControlPair(0.0, 0.0), "l2",
        PARAMS, WEIGHTS, builtin_beta_rate(1), builtin_gamma_rate(1), 1.0,
    )
    assert value == WEIGHTS.kappa1 * X0.P


def test_hamiltonian_objectives_agree_at_unit_controls():
    args = (
        X0, Costate(0.2, -0.1, 0.4), ControlPair(1.0, 1.0),
    )
    tail = (PARAMS, WEIGHTS, Constant(0.5), Constant(0.1), 1.0)
    assert hamiltonian(0.0, *args, "l2", *tail) == hamiltonian(0.0, *args, "l1", *tail)
    with pytest.raises(ValueError):
        hamiltonian(0.0, *args, "l3", *tail)


P0 = Costate(0.1, 0.2, 0.3)
U0 = ControlPair(0.03, 0.5)
RATES = (Constant(0.5), Constant(0.1))

# every per-point wrapper, as a function of the population total n0
PER_POINT = {
    "dynamics": lambda n0: dynamics(0.0, X0, U0, PARAMS, *RATES, n0),
    "costate_rhs": lambda n0: costate_rhs(0.0, X0, P0, U0, PARAMS, WEIGHTS, *RATES, n0),
    "hamiltonian": lambda n0: hamiltonian(
        0.0, X0, P0, U0, "l2", PARAMS, WEIGHTS, *RATES, n0
    ),
    "control_law_l2": lambda n0: control_law_l2(X0, P0, PARAMS, WEIGHTS, n0),
    "switching_functions": lambda n0: switching_functions(X0, P0, PARAMS, WEIGHTS, n0),
}


@pytest.mark.parametrize("wrapper", PER_POINT)
@pytest.mark.parametrize("n0", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_per_point_wrappers_reject_a_bad_population_total(wrapper, n0):
    with pytest.raises(ValueError, match="n0 must be finite and > 0"):
        PER_POINT[wrapper](n0)


# the wrappers that evaluate the rates at t, as functions of (t, beta, gamma)
AT_POINT = {
    "dynamics": lambda t, beta, gamma: dynamics(t, X0, U0, PARAMS, beta, gamma, 1.0),
    "costate_rhs": lambda t, beta, gamma: costate_rhs(
        t, X0, P0, U0, PARAMS, WEIGHTS, beta, gamma, 1.0
    ),
    "hamiltonian": lambda t, beta, gamma: hamiltonian(
        t, X0, P0, U0, "l2", PARAMS, WEIGHTS, beta, gamma, 1.0
    ),
}


@pytest.mark.parametrize("wrapper", AT_POINT)
@pytest.mark.parametrize(
    "t, beta, gamma, message",
    [
        (math.nan, Constant(0.5), Constant(0.1), "t must be finite"),
        (math.inf, builtin_beta_rate(1), builtin_gamma_rate(1), "t must be finite"),
        (0.0, lambda t: math.inf, Constant(0.1), "beta(t) must be finite"),
        (0.0, Constant(0.5), lambda t: math.nan, "gamma(t) must be finite"),
    ],
    ids=["t-nan", "t-inf", "beta-inf", "gamma-nan"],
)
def test_per_point_wrappers_reject_nonfinite_time_and_rates(
    wrapper, t, beta, gamma, message
):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        AT_POINT[wrapper](t, beta, gamma)


def _du_hamiltonian(t, x, p, u, objective, weights, component, delta=1e-6):
    up = ControlPair(u.u1 + (delta if component == 0 else 0.0),
                     u.u2 + (delta if component == 1 else 0.0))
    dn = ControlPair(u.u1 - (delta if component == 0 else 0.0),
                     u.u2 - (delta if component == 1 else 0.0))
    beta, gamma = Constant(0.6), Constant(0.1)
    hi = hamiltonian(t, x, p, up, objective, PARAMS, weights, beta, gamma, 1.0)
    lo = hamiltonian(t, x, p, dn, objective, PARAMS, weights, beta, gamma, 1.0)
    return (hi - lo) / (2.0 * delta)


def test_l2_law_is_stationary_or_bound_consistent():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, p, n0 = _random_point(rng)
        u = control_law_l2(x, p, PARAMS, WEIGHTS, n0)
        for comp, (value, bound) in enumerate(
            ((u.u1, PARAMS.u1_max), (u.u2, PARAMS.u2_max))
        ):
            grad = _du_hamiltonian(0.0, x, p, u, "l2", WEIGHTS, comp)
            if 0.0 < value < bound:
                assert abs(grad) <= 1e-8
            elif value == 0.0:
                assert grad >= -1e-8
            else:
                assert grad <= 1e-8


@settings(max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_l2_law_minimizes_hamiltonian_on_control_grid(seed):
    rng = np.random.default_rng(seed)
    x, p, n0 = _random_point(rng)
    beta, gamma = Constant(0.6), Constant(0.1)
    u_star = control_law_l2(x, p, PARAMS, WEIGHTS, n0)
    h_star = hamiltonian(0.0, x, p, u_star, "l2", PARAMS, WEIGHTS, beta, gamma, n0)
    for u1 in np.linspace(0.0, PARAMS.u1_max, 12):
        for u2 in np.linspace(0.0, PARAMS.u2_max, 12):
            h = hamiltonian(
                0.0, x, p, ControlPair(u1, u2), "l2", PARAMS, WEIGHTS, beta, gamma, n0
            )
            assert h_star <= h + 1e-12


@settings(max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_l1_law_minimizes_hamiltonian_on_control_grid(seed):
    rng = np.random.default_rng(seed)
    x, p, n0 = _random_point(rng)
    beta, gamma = Constant(0.6), Constant(0.1)
    phi = switching_functions(x, p, PARAMS, WEIGHTS, n0)
    u_star, _ = _l1_law(phi)
    h_star = hamiltonian(0.0, x, p, u_star, "l1", PARAMS, WEIGHTS, beta, gamma, n0)
    for u1 in np.linspace(0.0, PARAMS.u1_max, 12):
        for u2 in np.linspace(0.0, PARAMS.u2_max, 12):
            h = hamiltonian(
                0.0, x, p, ControlPair(u1, u2), "l1", PARAMS, WEIGHTS, beta, gamma, n0
            )
            assert h_star <= h + 1e-12


def test_l2_law_saturates_to_bang_bang_as_control_weights_vanish():
    rng = np.random.default_rng(11)
    tiny = Weights(kappa1=1.0, kappa2=1e-8, kappa3=1e-8)
    checked = 0
    for _ in range(200):
        x, p, n0 = _random_point(rng)
        phi = switching_functions(x, p, PARAMS, tiny, n0)
        u_l2 = control_law_l2(x, p, PARAMS, tiny, n0)
        u_l1, _ = _l1_law(phi)
        if abs(phi.phi1) > 1e-6:
            assert u_l2.u1 == u_l1.u1
            checked += 1
        if abs(phi.phi2) > 1e-6:
            assert u_l2.u2 == u_l1.u2
            checked += 1
    assert checked > 100


def test_costate_rhs_is_negative_state_gradient_of_hamiltonian():
    # finite differences re-tie n0 to the perturbed total, since the mixing
    # ratio divides by the live population
    rng = np.random.default_rng(3)
    beta, gamma = builtin_beta_rate(1), builtin_gamma_rate(1)
    for _ in range(50):
        x, p, n0 = _random_point(rng)
        u = ControlPair(rng.uniform(0, PARAMS.u1_max), rng.uniform(0, PARAMS.u2_max))
        t = rng.uniform(0.0, 7.0)
        analytic = costate_rhs(t, x, p, u, PARAMS, WEIGHTS, beta, gamma, n0)
        for comp in range(3):
            delta = 1e-6
            bump = [0.0, 0.0, 0.0]
            bump[comp] = delta
            hi_state = State(x.R + bump[0], x.C + bump[1], x.P + bump[2])
            lo_state = State(x.R - bump[0], x.C - bump[1], x.P - bump[2])
            hi = hamiltonian(
                t, hi_state, p, u, "l2", PARAMS, WEIGHTS, beta, gamma, n0 + delta
            )
            lo = hamiltonian(
                t, lo_state, p, u, "l2", PARAMS, WEIGHTS, beta, gamma, n0 - delta
            )
            fd = -(hi - lo) / (2.0 * delta)
            assert fd == pytest.approx(
                analytic[comp], rel=1e-6, abs=1e-9
            )
