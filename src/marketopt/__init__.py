"""Optimal marketing-control policies for a three-compartment customer model.

The library pairs a controlled customer-dynamics ODE (referral, regular and
potential customers under two marketing controls) with its Pontryagin
adjoint system, and solves for optimal policies with a forward-backward RK4
sweep.  Both quadratic and linear (bang-bang) control costs are supported,
along with benchmark scenarios, strategy comparisons and parameter sweeps.

No command runs the per-point API or the RK4 stage reference (``pointwise``),
so that module is imported on the first use of one of their names.
"""

from .experiments import (
    ALL_STRATEGIES,
    ComparisonRow,
    ComparisonTable,
    StrategyKind,
    SweepSpec,
    compare_strategies,
    default_sweep_values,
    run_sweep,
    strategy_controls,
)
from .integrator import (
    ControlGrid,
    GridRates,
    IntegrationError,
    TimeGrid,
    Trajectory,
    default_grid,
    rk4_backward,
    rk4_forward,
    sample_rates,
    zero_controls,
)
from .model import ModelParams, State, Weights
from .objectives import evaluate_cost
from .scenarios import (
    PRESET_NAMES,
    Constant,
    LogisticDecreasing,
    LogisticIncreasing,
    PiecewiseLinear,
    RateFunction,
    Scenario,
    SinusoidalPeriodic,
    builtin_beta_rate,
    builtin_gamma_rate,
    preset_scenario,
)
from .solver import (
    DivergenceError,
    SolveResult,
    SweepSettings,
    solve,
)

__all__ = [
    "ALL_STRATEGIES",
    "ComparisonRow",
    "ComparisonTable",
    "Constant",
    "ControlGrid",
    "ControlPair",
    "Costate",
    "DivergenceError",
    "GridRates",
    "IntegrationError",
    "LogisticDecreasing",
    "LogisticIncreasing",
    "ModelParams",
    "PRESET_NAMES",
    "PiecewiseLinear",
    "RateFunction",
    "Scenario",
    "SinusoidalPeriodic",
    "SolveResult",
    "State",
    "StrategyKind",
    "SweepSettings",
    "SweepSpec",
    "SwitchingValues",
    "TimeGrid",
    "Trajectory",
    "Weights",
    "builtin_beta_rate",
    "builtin_gamma_rate",
    "compare_strategies",
    "control_law_l2",
    "costate_rhs",
    "default_grid",
    "default_sweep_values",
    "dynamics",
    "evaluate_cost",
    "hamiltonian",
    "preset_scenario",
    "rk4_backward",
    "rk4_forward",
    "rk4_stages",
    "run_sweep",
    "sample_rates",
    "solve",
    "strategy_controls",
    "switching_functions",
    "zero_controls",
]

_POINTWISE = frozenset(("ControlPair", "Costate", "SwitchingValues", "control_law_l2",
                        "costate_rhs", "dynamics", "hamiltonian", "rk4_stages",
                        "switching_functions"))


def __getattr__(name: str):
    if name in _POINTWISE:
        from . import pointwise

        return getattr(pointwise, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_POINTWISE})
