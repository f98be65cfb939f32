"""JSON run configuration: schema, loading, and lossless round-trips.

A config document has the fixed top-level keys ``scenario`` (a preset
reference or inline fields), ``objective`` (optional override), ``grid``,
``solver``, ``sweep`` (sweep command only) and ``output``.  Floats are
serialized with ``repr`` semantics by the json module, which round-trips
every double exactly, so a scenario written to disk and re-read is
bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .experiments import (
    ALL_STRATEGIES,
    SWEEP_PARAMETERS,
    StrategyKind,
    default_sweep_values,
)
from .integrator import TimeGrid, default_grid
from .model import ModelParams, State, Weights
from .pmp import OBJECTIVE_TAGS
from .scenarios import (
    Constant,
    LogisticDecreasing,
    LogisticIncreasing,
    PiecewiseLinear,
    RateFunction,
    Scenario,
    SinusoidalPeriodic,
    preset_scenario,
)
from .solver import SweepSettings


class ConfigError(ValueError):
    """A config document failed validation; the message names the field."""


def _get(mapping: dict, key: str, path: str, kind: type, required: bool = True) -> Any:
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required field {path}.{key}")
        return None
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(
            f"field {path}.{key} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _get_or(mapping: dict, key: str, path: str, kind: type, default: Any) -> Any:
    value = _get(mapping, key, path, kind, required=False)
    return default if value is None else value


_RATE_KINDS = {
    "constant": (Constant, ("value",)),
    "logistic-increasing": (LogisticIncreasing, ("base", "gain", "rate", "midpoint")),
    "logistic-decreasing": (LogisticDecreasing, ("base", "gain", "rate", "midpoint")),
    "sinusoidal": (SinusoidalPeriodic, ("offset", "amplitude", "omega", "phase")),
}


def rate_to_dict(rate: RateFunction) -> dict:
    for kind, (cls, fields) in _RATE_KINDS.items():
        if type(rate) is cls:
            return {"kind": kind, **{f: getattr(rate, f) for f in fields}}
    if type(rate) is PiecewiseLinear:
        return {
            "kind": "piecewise-linear",
            "times": list(rate.times),
            "values": list(rate.values),
        }
    raise ConfigError(f"rate function {type(rate).__name__} has no config form")


def rate_from_dict(doc: dict, path: str) -> RateFunction:
    kind = _get(doc, "kind", path, str)
    if kind != "piecewise-linear" and kind not in _RATE_KINDS:
        valid = ", ".join([*(_RATE_KINDS), "piecewise-linear"])
        raise ConfigError(f"field {path}.kind must be one of: {valid}")
    try:
        if kind == "piecewise-linear":
            times = _get(doc, "times", path, list)
            values = _get(doc, "values", path, list)
            return PiecewiseLinear(tuple(float(t) for t in times),
                                   tuple(float(v) for v in values))
        cls, fields = _RATE_KINDS[kind]
        return cls(**{f: _get(doc, f, path, float) for f in fields})
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid value under {path}: {err}") from None


def scenario_to_dict(scenario: Scenario) -> dict:
    p = scenario.params
    w = scenario.weights
    x0 = scenario.x0
    return {
        "params": {
            "alpha1": p.alpha1,
            "alpha2": p.alpha2,
            "lambda1": p.lambda1,
            "lambda2": p.lambda2,
            "u1_max": p.u1_max,
            "u2_max": p.u2_max,
        },
        "weights": {"kappa1": w.kappa1, "kappa2": w.kappa2, "kappa3": w.kappa3},
        "beta": rate_to_dict(scenario.beta),
        "gamma": rate_to_dict(scenario.gamma),
        "x0": {"R": x0.R, "C": x0.C, "P": x0.P},
        "t_f": scenario.t_f,
        "objective": scenario.objective,
    }


def scenario_from_dict(doc: dict, path: str = "scenario") -> Scenario:
    if "preset" in doc:
        try:
            return preset_scenario(_get(doc, "preset", path, str))
        except ValueError as err:
            raise ConfigError(f"field {path}.preset: {err}") from None
    params_doc = _get(doc, "params", path, dict)
    weights_doc = _get(doc, "weights", path, dict)
    x0_doc = _get(doc, "x0", path, dict)
    try:
        params = ModelParams(
            alpha1=_get(params_doc, "alpha1", f"{path}.params", float),
            alpha2=_get(params_doc, "alpha2", f"{path}.params", float),
            lambda1=_get(params_doc, "lambda1", f"{path}.params", float),
            lambda2=_get(params_doc, "lambda2", f"{path}.params", float),
            u1_max=_get(params_doc, "u1_max", f"{path}.params", float),
            u2_max=_get(params_doc, "u2_max", f"{path}.params", float),
        )
        weights = Weights(
            kappa1=_get(weights_doc, "kappa1", f"{path}.weights", float),
            kappa2=_get(weights_doc, "kappa2", f"{path}.weights", float),
            kappa3=_get(weights_doc, "kappa3", f"{path}.weights", float),
        )
        x0 = State(
            R=_get(x0_doc, "R", f"{path}.x0", float),
            C=_get(x0_doc, "C", f"{path}.x0", float),
            P=_get(x0_doc, "P", f"{path}.x0", float),
        )
        return Scenario(
            params=params,
            weights=weights,
            beta=rate_from_dict(_get(doc, "beta", path, dict), f"{path}.beta"),
            gamma=rate_from_dict(_get(doc, "gamma", path, dict), f"{path}.gamma"),
            x0=x0,
            t_f=_get(doc, "t_f", path, float),
            objective=_get_or(doc, "objective", path, str, "l2"),
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"invalid value under {path}: {err}") from None


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: scenario, grid size, solver knobs, output."""

    scenario: Scenario
    grid_n: int
    tol_delta: float = 1e-3
    relaxation: float = 0.5
    max_iters: int = 1000
    eps_singular: float = 1e-9
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None
    sweep_strategies: tuple[StrategyKind, ...] = ALL_STRATEGIES
    out_dir: str = "out"
    out_format: str = "csv"

    def __post_init__(self) -> None:
        if self.out_format not in ("csv", "json"):
            raise ConfigError(
                f"field output.format must be 'csv' or 'json', got {self.out_format!r}"
            )
        if self.sweep_param is not None and self.sweep_param not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"field sweep.param must be one of {SWEEP_PARAMETERS}, "
                f"got {self.sweep_param!r}"
            )
        self.sweep_settings()  # reject bad grid/solver fields before any output

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(t0=0.0, t_f=self.scenario.t_f, n=self.grid_n)

    def sweep_settings(self) -> SweepSettings:
        return SweepSettings(
            grid=self.grid,
            relaxation=self.relaxation,
            tol_delta=self.tol_delta,
            max_iters=self.max_iters,
            eps_singular=self.eps_singular,
        )


def config_from_scenario(scenario: Scenario, **overrides: Any) -> RunConfig:
    grid_n = overrides.pop("grid_n", None)
    if grid_n is None:
        grid_n = default_grid(scenario.t_f).n
    return RunConfig(scenario=scenario, grid_n=grid_n, **overrides)


def config_to_dict(cfg: RunConfig) -> dict:
    doc: dict[str, Any] = {
        "scenario": scenario_to_dict(cfg.scenario),
        "grid": {"n": cfg.grid_n},
        "solver": {
            "tol_delta": cfg.tol_delta,
            "relaxation": cfg.relaxation,
            "max_iters": cfg.max_iters,
            "eps_singular": cfg.eps_singular,
        },
        "output": {"dir": cfg.out_dir, "format": cfg.out_format},
    }
    if cfg.sweep_param is not None:
        doc["sweep"] = {
            "param": cfg.sweep_param,
            "values": list(cfg.sweep_values or default_sweep_values(cfg.sweep_param)),
            "strategies": [s.value for s in cfg.sweep_strategies],
        }
    return doc


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    scenario = scenario_from_dict(_get(doc, "scenario", "config", dict))
    objective = _get(doc, "objective", "config", str, required=False)
    if objective is not None:
        if objective not in OBJECTIVE_TAGS:
            raise ConfigError(
                f"field config.objective must be one of {OBJECTIVE_TAGS}, "
                f"got {objective!r}"
            )
        scenario = replace(scenario, objective=objective)

    grid_doc = _get(doc, "grid", "config", dict, required=False) or {}
    grid_n = _get(grid_doc, "n", "grid", int, required=False)
    if grid_n is None:
        grid_n = default_grid(scenario.t_f).n

    solver_doc = _get(doc, "solver", "config", dict, required=False) or {}
    out_doc = _get(doc, "output", "config", dict, required=False) or {}

    sweep_doc = _get(doc, "sweep", "config", dict, required=False)
    sweep_param = None
    sweep_values = None
    strategies: tuple[StrategyKind, ...] = ALL_STRATEGIES
    if sweep_doc is not None:
        sweep_param = _get(sweep_doc, "param", "sweep", str)
        raw_values = _get(sweep_doc, "values", "sweep", list, required=False)
        if raw_values is not None:
            sweep_values = tuple(float(v) for v in raw_values)
        raw_strategies = _get(sweep_doc, "strategies", "sweep", list, required=False)
        if raw_strategies is not None:
            by_value = {s.value: s for s in StrategyKind}
            try:
                strategies = tuple(by_value[name] for name in raw_strategies)
            except KeyError as err:
                raise ConfigError(
                    f"field sweep.strategies contains unknown strategy {err.args[0]!r}; "
                    f"valid: {', '.join(by_value)}"
                ) from None

    try:
        return RunConfig(
            scenario=scenario,
            grid_n=grid_n,
            tol_delta=_get_or(solver_doc, "tol_delta", "solver", float, 1e-3),
            relaxation=_get_or(solver_doc, "relaxation", "solver", float, 0.5),
            max_iters=_get_or(solver_doc, "max_iters", "solver", int, 1000),
            eps_singular=_get_or(solver_doc, "eps_singular", "solver", float, 1e-9),
            sweep_param=sweep_param,
            sweep_values=sweep_values,
            sweep_strategies=strategies,
            out_dir=_get_or(out_doc, "dir", "output", str, "out"),
            out_format=_get_or(out_doc, "format", "output", str, "csv"),
        )
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"invalid solver/grid settings: {err}") from None


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    return config_from_dict(doc)


def dump_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
