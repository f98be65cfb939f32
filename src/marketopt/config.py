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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any

from .experiments import (
    ALL_STRATEGIES,
    SWEEP_PARAMETERS,
    StrategyKind,
    default_sweep_values,
)
from .integrator import default_grid
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


def _entries(values: list, field: str, kind: type = float) -> tuple:
    """Each entry of a list field as a kind, under the type rules of ``_get``."""
    entries = dict(enumerate(values))
    return tuple(_get(entries, i, field, kind) for i in entries)


def _sweep_list(sweep_doc: dict, key: str, kind: type) -> tuple | None:
    """The optional, non-empty list field sweep.key, each entry a kind, once."""
    values = _get(sweep_doc, key, "sweep", list, required=False)
    if values is None:
        return None
    if values == []:
        raise ConfigError(f"field sweep.{key} must not be empty")
    entries = _entries(values, f"sweep.{key}", kind)
    if len(set(entries)) < len(entries):
        raise ConfigError(f"field sweep.{key} must not repeat an entry")
    return entries


def _get_or(mapping: dict, key: str, path: str, kind: type, default: Any) -> Any:
    value = _get(mapping, key, path, kind, required=False)
    return default if value is None else value


def _from_fields(cls: type, doc: dict, path: str) -> Any:
    """cls from the doc's number for each float field, number list for each tuple."""
    kinds = {f.name: float if f.type == "float" else list for f in fields(cls)}
    raw = {name: _get(doc, name, path, kind) for name, kind in kinds.items()}
    return cls(**{
        name: _entries(value, f"{path}.{name}") if kinds[name] is list else value
        for name, value in raw.items()
    })


_RATE_KINDS = {
    "constant": Constant,
    "logistic-increasing": LogisticIncreasing,
    "logistic-decreasing": LogisticDecreasing,
    "sinusoidal": SinusoidalPeriodic,
    "piecewise-linear": PiecewiseLinear,
}


def rate_to_dict(rate: RateFunction) -> dict:
    for kind, cls in _RATE_KINDS.items():
        if type(rate) is cls:
            doc = {"kind": kind, **asdict(rate)}
            # tuple fields (the piecewise-linear knots) are written as lists
            return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}
    raise ConfigError(f"rate function {type(rate).__name__} has no config form")


def rate_from_dict(doc: dict, path: str) -> RateFunction:
    kind = _get(doc, "kind", path, str)
    if kind not in _RATE_KINDS:
        raise ConfigError(f"field {path}.kind must be one of: {', '.join(_RATE_KINDS)}")
    try:
        return _from_fields(_RATE_KINDS[kind], doc, path)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid value under {path}: {err}") from None


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "params": asdict(scenario.params),
        "weights": asdict(scenario.weights),
        "beta": rate_to_dict(scenario.beta),
        "gamma": rate_to_dict(scenario.gamma),
        "x0": asdict(scenario.x0),
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
        params = _from_fields(ModelParams, params_doc, f"{path}.params")
        weights = _from_fields(Weights, weights_doc, f"{path}.weights")
        x0 = _from_fields(State, x0_doc, f"{path}.x0")
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


# SweepSettings is the grid section's n followed by the solver section, in file order.
_GRID_N, *_SOLVER_KNOBS = fields(SweepSettings)
_JSON_TYPES = {"int": int, "float": float}


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: scenario, grid size and solver knobs, sweep, output."""

    scenario: Scenario
    settings: SweepSettings
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

    def sweep_settings(self) -> SweepSettings:
        return self.settings


def config_from_scenario(
    scenario: Scenario, grid_n: int | None = None, **overrides: Any
) -> RunConfig:
    """A run of scenario; grid_n defaults to the default grid on its horizon.

    overrides are solver knobs and other RunConfig fields, by name.
    """
    if grid_n is None:
        grid_n = default_grid(scenario.t_f, scenario.objective).n
    knobs = {f.name: overrides.pop(f.name) for f in _SOLVER_KNOBS if f.name in overrides}
    return RunConfig(scenario, SweepSettings(grid_n, **knobs), **overrides)


def config_to_dict(cfg: RunConfig) -> dict:
    solver = asdict(cfg.settings)
    doc: dict[str, Any] = {
        "scenario": scenario_to_dict(cfg.scenario),
        "grid": {_GRID_N.name: solver.pop(_GRID_N.name)},
        "solver": solver,
        "output": {"dir": cfg.out_dir, "format": cfg.out_format},
    }
    if cfg.sweep_param is not None:
        doc["sweep"] = {
            "param": cfg.sweep_param,
            "values": list(cfg.sweep_values or default_sweep_values(cfg.sweep_param)),
            "strategies": [s.value for s in cfg.sweep_strategies],
        }
    return doc


def config_from_dict(doc: dict, objective: str | None = None) -> RunConfig:
    """The run that doc describes, with objective, if given, in place of its own.

    The objective is settled before the grid: without a grid.n the run takes
    the final objective's default grid.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    scenario = scenario_from_dict(_get(doc, "scenario", "config", dict))
    given = _get(doc, "objective", "config", str, required=False)
    if given is not None and given not in OBJECTIVE_TAGS:
        raise ConfigError(
            f"field config.objective must be one of {OBJECTIVE_TAGS}, got {given!r}"
        )
    objective = objective or given
    if objective is not None:
        scenario = replace(scenario, objective=objective)

    grid_doc = _get(doc, "grid", "config", dict, required=False) or {}
    grid_n = _get(
        grid_doc, _GRID_N.name, "grid", _JSON_TYPES[_GRID_N.type], required=False
    )

    solver_doc = _get(doc, "solver", "config", dict, required=False) or {}
    out_doc = _get(doc, "output", "config", dict, required=False) or {}

    sweep_doc = _get(doc, "sweep", "config", dict, required=False)
    sweep_param = None
    sweep_values = None
    strategies: tuple[StrategyKind, ...] = ALL_STRATEGIES
    if sweep_doc is not None:
        sweep_param = _get(sweep_doc, "param", "sweep", str)
        sweep_values = _sweep_list(sweep_doc, "values", float)
        names = _sweep_list(sweep_doc, "strategies", str)
        if names is not None:
            by_value = {s.value: s for s in StrategyKind}
            try:
                strategies = tuple(by_value[name] for name in names)
            except KeyError as err:
                raise ConfigError(
                    f"field sweep.strategies contains unknown strategy {err.args[0]!r}; "
                    f"valid: {', '.join(by_value)}"
                ) from None

    # a field the document leaves out keeps its default
    given = {
        f.name: _get(solver_doc, f.name, "solver", _JSON_TYPES[f.type], required=False)
        for f in _SOLVER_KNOBS
    }
    given["out_dir"] = _get(out_doc, "dir", "output", str, required=False)
    given["out_format"] = _get(out_doc, "format", "output", str, required=False)
    try:
        return config_from_scenario(
            scenario,
            grid_n,
            sweep_param=sweep_param,
            sweep_values=sweep_values,
            sweep_strategies=strategies,
            **{name: value for name, value in given.items() if value is not None},
        )
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"invalid solver/grid settings: {err}") from None


def load_config(path: str | Path, objective: str | None = None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    return config_from_dict(doc, objective)


def dump_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
