import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from marketopt import cli
from marketopt.cli import main
from marketopt.config import (
    ConfigError,
    RunConfig,
    config_from_scenario,
    config_to_dict,
    load_config,
    rate_from_dict,
    rate_to_dict,
)
from marketopt.integrator import ControlGrid, GridRates, TimeGrid, Trajectory, default_grid
from marketopt.pmp import switching_table
from marketopt.scenarios import (
    PRESET_NAMES,
    Constant,
    LogisticDecreasing,
    LogisticIncreasing,
    PiecewiseLinear,
    RateFunction,
    SinusoidalPeriodic,
    preset_scenario,
)
from marketopt.solver import SolveResult, SweepSettings, solve


def _run(*argv):
    return main(list(argv))


def test_solve_writes_trajectory_and_summary(tmp_path):
    out = tmp_path / "run"
    code = _run("solve", "--preset", "scenario1", "--out", str(out))
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,R,C,P,u1,u2,p1,p2,p3,phi1,phi2"
    assert len(lines) == 1 + 176  # header plus one row per node (n = 175)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["settings"]["grid_n"] == 175
    assert summary["settings"]["objective"] == "l2"
    assert (out / "config.json").exists()


def test_solve_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run("solve", "--preset", "scenario2", "--n", "400",
                "--out", str(out1)) == 0
    assert _run("solve", "--preset", "scenario2", "--n", "400",
                "--out", str(out2)) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_config_round_trip_reproduces_artifacts(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run("solve", "--preset", "scenario3", "--n", "400",
                "--out", str(out1)) == 0
    assert _run("solve", "--config", str(out1 / "config.json"),
                "--out", str(out2)) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_config_without_solver_section_takes_sweep_settings_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": {"preset": "scenario1"}}))
    cfg = load_config(path)
    settings = cfg.sweep_settings()
    expected = SweepSettings(n=default_grid(7.0, "l2").n)
    for field in fields(SweepSettings):
        assert getattr(settings, field.name) == getattr(expected, field.name)
    from_preset = config_from_scenario(preset_scenario("scenario1"))
    assert config_to_dict(cfg)["solver"] == config_to_dict(from_preset)["solver"]


def test_relax_flag_restores_the_damped_sweep(tmp_path):
    out = tmp_path / "run"
    assert _run("solve", "--preset", "scenario1", "--relax", "0.5",
                "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    # the coarse start leaves the fine sweep 2 iterations at either weight,
    # so the cost tells whether 0.5 was used
    assert summary["iterations"] == 2
    assert summary["settings"]["relaxation"] == 0.5
    sc, n = preset_scenario("scenario1"), default_grid(7.0, "l2").n
    assert summary["cost"] == solve(sc, SweepSettings(n=n, relaxation=0.5)).cost
    assert summary["cost"] != solve(sc, SweepSettings(n=n)).cost


def test_config_relaxation_round_trips_and_is_honoured(tmp_path):
    doc = config_to_dict(config_from_scenario(preset_scenario("scenario1")))
    doc["solver"]["relaxation"] = 0.5
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run("solve", "--config", str(path), "--out", str(out1)) == 0
    written = json.loads((out1 / "config.json").read_text())
    assert written["solver"] == doc["solver"]
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["iterations"] == 2
    sc, n = preset_scenario("scenario1"), default_grid(7.0, "l2").n
    assert summary["cost"] == solve(sc, SweepSettings(n=n, relaxation=0.5)).cost
    assert _run("solve", "--config", str(out1 / "config.json"),
                "--out", str(out2)) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


@pytest.mark.parametrize(
    "rate",
    [
        Constant(0.25),
        LogisticIncreasing(base=0.01, gain=0.99, rate=2.0, midpoint=4.0),
        LogisticDecreasing(base=0.01, gain=0.99, rate=2.0, midpoint=3.0),
        SinusoidalPeriodic(offset=0.01, amplitude=0.49, omega=6.5, phase=0.26),
        PiecewiseLinear(times=(0.0, 2.5, 7.0), values=(0.1, 1.0 / 3.0, 0.2)),
    ],
)
def test_every_rate_kind_round_trips_through_json(rate):
    doc = json.loads(json.dumps(rate_to_dict(rate)))
    assert doc == rate_to_dict(rate)
    assert rate_from_dict(doc, "scenario.beta") == rate
    name = fields(rate)[-1].name
    del doc[name]
    with pytest.raises(ConfigError, match=f"missing required field scenario.beta.{name}$"):
        rate_from_dict(doc, "scenario.beta")


class _ScaledConstant(Constant):
    """A subclass: it inherits Constant's tag, but not its config form."""


class _Callback(RateFunction):
    """A rate with no tag and no dataclass fields."""

    def __call__(self, t):
        return 0.1


@pytest.mark.parametrize("rate", [_ScaledConstant(0.5), _Callback(), lambda t: 0.1],
                         ids=["constant-subclass", "no-tag", "callable"])
def test_rate_without_a_config_form_is_rejected(rate):
    name = type(rate).__name__
    with pytest.raises(ConfigError, match=f"^rate function {name} has no config form$"):
        rate_to_dict(rate)


def _integers_where_integral(value):
    """value with every integer-valued float written as an integer."""
    if isinstance(value, dict):
        return {k: _integers_where_integral(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_integers_where_integral(v) for v in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


def test_integer_valued_numbers_are_read_as_floats(tmp_path):
    cfg = config_from_scenario(preset_scenario("comparison-default"), sweep_param="gamma",
                               sweep_values=(0.5, 1.0, 2.0))
    doc = config_to_dict(cfg)
    written = _integers_where_integral(doc)
    assert written["scenario"]["t_f"] == 7 and written["sweep"]["values"] == [0.5, 1, 2]
    assert written["solver"]["relaxation"] == 1 and written["scenario"]["beta"]["value"] == 1
    path = tmp_path / "c.json"
    path.write_text(json.dumps(written))
    # json writes a float as 7.0 and an int as 7, so the texts differ unless
    # every integer came back as a float
    assert json.dumps(config_to_dict(load_config(path))) == json.dumps(doc)


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ([], "config document must be a JSON object"),
        ({"scenario": {"preset": "scenario1"}, "objective": "l3"},
         "field config.objective must be one of ('l2', 'l1'), got 'l3'"),
        ({"scenario": {"preset": "scenario1"}, "output": {"format": "xml"}},
         "field output.format must be 'csv' or 'json', got 'xml'"),
    ],
    ids=["not-an-object", "objective", "output-format"],
)
def test_bad_config_document_fails_before_any_output(tmp_path, capsys, doc, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert _run("solve", "--config", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unknown_rate_kind_lists_every_kind():
    with pytest.raises(ConfigError) as err:
        rate_from_dict({"kind": "cubic"}, "scenario.gamma")
    assert str(err.value) == (
        "field scenario.gamma.kind must be one of: constant, logistic-increasing, "
        "logistic-decreasing, sinusoidal, piecewise-linear"
    )


def test_csv_numbers_reparse_to_exact_doubles(tmp_path):
    out = tmp_path / "run"
    assert _run("solve", "--preset", "scenario1", "--n", "400", "--out", str(out)) == 0
    scenario = preset_scenario("scenario1")
    result = solve(
        scenario,
        SweepSettings(n=config_from_scenario(scenario, grid_n=400).settings.n),
    )
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(parsed[:, 1:4], result.state.values)
    assert np.array_equal(parsed[:, 4:6], result.controls.values)
    assert np.array_equal(parsed[:, 6:9], result.costate.values)


def test_l1_solve_populates_switching_columns(tmp_path):
    out = tmp_path / "run"
    assert _run("solve", "--preset", "scenario3-l1", "--n", "700",
                "--out", str(out)) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    last = [float(v) for v in rows[-1].split(",")]
    u1, u2, phi1, phi2 = last[4], last[5], last[9], last[10]
    assert (u1, u2) == (0.0, 0.0)
    assert phi1 == pytest.approx(1.5)  # terminal switching values are the
    assert phi2 == pytest.approx(0.01)  # control weights
    assert any(float(r.split(",")[9]) < 0 for r in rows[1:])


def test_objective_flag_overrides_scenario(tmp_path):
    out = tmp_path / "run"
    assert _run("solve", "--preset", "scenario3", "--objective", "l1",
                "--n", "700", "--out", str(out)) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["scenario"]["objective"] == "l1"


@pytest.mark.parametrize("source", ["preset", "config"])
@pytest.mark.parametrize(
    ("preset", "objective", "n", "grid_n"),
    [
        ("scenario3", "l1", None, 1400),
        ("scenario3-l1", "l2", None, 175),
        ("scenario3", "l1", 700, 700),  # an explicit n wins
        ("scenario3-l1", "l2", 700, 700),
    ],
)
def test_default_grid_follows_the_final_objective(
    tmp_path, source, preset, objective, n, grid_n
):
    if source == "preset":
        scenario_args = ["--preset", preset] + ([] if n is None else ["--n", str(n)])
    else:
        doc = {"scenario": {"preset": preset}}
        if n is not None:
            doc["grid"] = {"n": n}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        scenario_args = ["--config", str(path)]
    out = tmp_path / "run"
    assert _run("solve", *scenario_args, "--objective", objective,
                "--max-iters", "1", "--out", str(out)) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["settings"]["objective"] == objective
    assert summary["settings"]["grid_n"] == grid_n
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + grid_n + 1


def test_json_trajectory_format(tmp_path):
    out = tmp_path / "run"
    assert _run("solve", "--preset", "scenario1", "--n", "400",
                "--format", "json", "--out", str(out)) == 0
    doc = json.loads((out / "trajectory.json").read_text())
    assert doc["columns"][0] == "t"
    assert len(doc["rows"]) == 401
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_trajectory_writer_keeps_edge_doubles(tmp_path, out_format):
    # every column holds each edge double once: a signed zero, the least
    # subnormal, tiny and huge normals, 0.1, and 0.1 + 0.2, whose shortest
    # round-trip text needs all 17 digits
    edges = np.array([-0.0, 5e-324, 1e-300, 1e300, 0.1, 0.1 + 0.2])
    table = np.array([np.roll(edges, j) for j in range(8)]).T
    scenario = preset_scenario("scenario1")
    grid = TimeGrid(0.0, scenario.t_f, len(edges) - 1)
    zeros = np.zeros(2 * grid.n + 1)
    result = SolveResult(
        Trajectory(grid, table[:, :3]), Trajectory(grid, table[:, 5:]),
        ControlGrid(grid, table[:, 3:5]), 1.0, 1, True, (0.0,),
        GridRates(grid, zeros, zeros), 1.0,
    )
    cfg = config_from_scenario(scenario, grid_n=grid.n, out_format=out_format)
    cli._write_trajectory(result, cfg, tmp_path)
    x, p = table[:, :3], table[:, 5:]
    phi = switching_table(x, p, scenario.params, scenario.weights, scenario.n0)
    rows = np.column_stack((grid.nodes(), x, table[:, 3:5], p, phi)).tolist()
    if out_format == "csv":
        row_format = ",".join(["%.17g"] * 11)
        lines = ["t,R,C,P,u1,u2,p1,p2,p3,phi1,phi2", *(row_format % tuple(r) for r in rows)]
        text = (tmp_path / "trajectory.csv").read_text()
        assert text == "\n".join(lines) + "\n"
        assert "-0," in text and "4.9406564584124654e-324" in text
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert parsed[:, 1:9].tobytes() == table.tobytes()
    else:
        doc = {"columns": list(cli.TRAJECTORY_COLUMNS), "rows": rows}
        assert (tmp_path / "trajectory.json").read_text() == json.dumps(doc) + "\n"


def test_exit_code_two_on_non_convergence(tmp_path):
    out = tmp_path / "run"
    code = _run("solve", "--preset", "scenario1", "--n", "400",
                "--max-iters", "1", "--out", str(out))
    assert code == 2
    assert (out / "trajectory.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False


def test_invalid_preset_lists_choices(tmp_path, capsys):
    code = _run("solve", "--preset", "nope", "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert "scenario1" in err and "comparison-default" in err


def test_unknown_preset_fails_alike_from_the_flag_and_a_config(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": {"preset": "nope"}}))
    for argv in (["--preset", "nope"], ["--config", str(path)]):
        assert _run("solve", *argv, "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err == (
            "error: field scenario.preset: unknown preset 'nope'; valid presets: "
            f"{', '.join(PRESET_NAMES)}\n"
        )
    assert not (tmp_path / "x").exists()


def test_missing_scenario_source_fails(tmp_path):
    assert _run("solve", "--out", str(tmp_path / "x")) == 1


def test_bad_flag_values_are_input_errors(tmp_path, capsys):
    code = _run("sweep", "--preset", "comparison-default", "--param", "alpha",
                "--out", str(tmp_path / "x"))
    assert code == 1
    assert "--param" in capsys.readouterr().err
    assert _run("--help") == 0


def test_unusable_grid_size_is_an_input_error(tmp_path, capsys):
    code = _run("solve", "--preset", "scenario1", "--n", "1",
                "--out", str(tmp_path / "x"))
    assert code == 1
    assert "intervals" in capsys.readouterr().err


def test_preset_and_config_together_fail(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config_to_dict(
        config_from_scenario(preset_scenario("scenario1")))))
    code = _run("solve", "--preset", "scenario1", "--config", str(cfg),
                "--out", str(tmp_path / "x"))
    assert code == 1
    assert "not both" in capsys.readouterr().err


def test_config_error_names_the_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = config_to_dict(config_from_scenario(preset_scenario("scenario1")))
    del doc["scenario"]["weights"]["kappa2"]
    bad.write_text(json.dumps(doc))
    code = _run("solve", "--config", str(bad), "--out", str(tmp_path / "x"))
    assert code == 1
    assert "scenario.weights.kappa2" in capsys.readouterr().err


def test_nan_eps_singular_in_config_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    doc = config_to_dict(config_from_scenario(preset_scenario("scenario3-l1")))
    doc["solver"]["eps_singular"] = float("nan")
    cfg.write_text(json.dumps(doc))
    code = _run("solve", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 1
    assert "eps_singular" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_zero_l2_control_weight_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    doc = config_to_dict(config_from_scenario(preset_scenario("scenario1")))
    doc["scenario"]["weights"]["kappa3"] = 0.0
    cfg.write_text(json.dumps(doc))
    # Scenario judges the weights when the config is read, before any output
    for command in ("solve", "compare"):
        code = _run(command, "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: invalid value under scenario: "
            "quadratic control law needs kappa2 > 0 and kappa3 > 0\n"
        )
        assert not (tmp_path / "x").exists()


def _config_with(tmp_path, preset, which, **fields):
    cfg = tmp_path / "c.json"
    doc = config_to_dict(config_from_scenario(preset_scenario(preset)))
    doc["scenario"][which].update(fields)
    cfg.write_text(json.dumps(doc))
    return cfg


def test_steep_logistic_rate_in_config_solves(tmp_path, capsys):
    # exp(-1000*(t - 4)) overflows a float for t < 3.29
    cfg = _config_with(tmp_path, "scenario1", "beta", rate=1000.0)
    out = tmp_path / "x"
    code = _run("solve", "--config", str(cfg), "--n", "400", "--out", str(out))
    assert code == 0, capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["converged"] is True


@pytest.mark.parametrize(
    "preset,which,fields",
    [
        ("scenario1", "beta", {"rate": float("nan")}),
        ("scenario1", "gamma", {"value": float("inf")}),
        ("scenario2", "gamma", {"midpoint": float("-inf")}),
        ("scenario3", "beta", {"omega": float("nan")}),
        ("scenario3", "gamma", {"phase": float("inf")}),
        ("scenario1", "beta", {"kind": "piecewise-linear",
                               "times": [0.0, float("nan"), 7.0],
                               "values": [1.0, 0.5, 0.2]}),
    ],
)
def test_nonfinite_rate_parameter_is_an_input_error(
    tmp_path, capsys, preset, which, fields
):
    cfg = _config_with(tmp_path, preset, which, **fields)
    code = _run("solve", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: invalid value under scenario.{which}: " in err
    assert "finite" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "preset,fields,argv,message",
    [
        ("comparison-default", {"value": 500.0}, ["--n", "10"],
         "error: sweep diverged at iteration 1: state component below -1e-12"),
        ("scenario1", {"base": 1e308, "gain": 1e308}, [],
         "error: beta rate logistic-increasing(base=1e+308, gain=1e+308) is inf "
         "at t=4.7; rates must be finite and >= 0"),
    ],
    ids=["divergence", "overflowing-rate"],
)
def test_failed_solve_writes_nothing(tmp_path, capsys, preset, fields, argv, message):
    cfg = _config_with(tmp_path, preset, "beta", **fields)
    out = tmp_path / "x"
    assert _run("solve", "--config", str(cfg), *argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_rate_without_a_value_names_the_rate_and_time(tmp_path, capsys):
    # omega*t overflows to inf from t=1.8 on, where cos has no value
    cfg = _config_with(tmp_path, "scenario3", "beta", omega=1e308)
    out = tmp_path / "x"
    assert _run("solve", "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "error: beta rate sinusoidal(offset=0.01, amplitude=0.49) has no value at "
        "t=1.8 (math domain error); rates must be finite and >= 0\n"
    )
    assert not out.exists()


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_compare_emits_four_rows_with_optimal_minimal(tmp_path):
    out = tmp_path / "cmp"
    code = _run("compare", "--preset", "comparison-default", "--n", "700",
                "--out", str(out))
    assert code == 0
    lines = (out / "table.csv").read_text().splitlines()
    assert lines[0] == "param_value,strategy,cost,converged,iterations"
    assert len(lines) == 5
    costs = {}
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == ""  # single-point table has no swept value
        costs[fields[1]] = float(fields[2])
        assert fields[3] == "true"
    assert costs["optimal"] == min(costs.values())
    mirror = json.loads((out / "table.json").read_text())
    assert len(mirror["rows"]) == 4
    assert {r["strategy"] for r in mirror["rows"]} == set(costs)


def test_sweep_command_uses_config_values(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    doc = config_to_dict(config_from_scenario(preset_scenario("comparison-default"),
                                              grid_n=700))
    doc["sweep"] = {
        "param": "gamma",
        "values": [0.5, 1.1],
        "strategies": ["no-control", "optimal"],
    }
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "swp"
    code = _run("sweep", "--config", str(cfg_path), "--out", str(out))
    assert code == 0
    lines = (out / "table.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # one row per (value, strategy) pair
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert first[1] == "no-control"


@pytest.mark.parametrize(
    "values",
    [[None], ["x"], [], [True, 0.5], [0.1, 0.5, 0.1]],
    ids=["null", "string", "empty", "bool", "duplicate"],
)
def test_malformed_sweep_values_are_input_errors(tmp_path, capsys, values):
    cfg_path = tmp_path / "sweep.json"
    doc = config_to_dict(config_from_scenario(preset_scenario("comparison-default"),
                                              grid_n=50))
    doc["sweep"] = {"param": "gamma", "values": values}
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "swp"
    code = _run("sweep", "--config", str(cfg_path), "--out", str(out))
    assert code == 1
    assert "sweep.values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "sweep"])
@pytest.mark.parametrize(
    ("strategies", "message"),
    [
        ([["optimal"]], "field sweep.strategies.0 must be str, got list"),
        ([{"a": 1}], "field sweep.strategies.0 must be str, got dict"),
        ([], "field sweep.strategies must not be empty"),
        (["constant", "constant"], "field sweep.strategies must not repeat an entry"),
        (["optimal", "bogus"], "field sweep.strategies contains unknown strategy 'bogus'; "
         "valid: no-control, constant, follow-heuristic, optimal"),
    ],
    ids=["list", "dict", "empty", "duplicate", "unknown"],
)
def test_malformed_sweep_strategies_are_input_errors(
    tmp_path, capsys, command, strategies, message
):
    cfg_path = tmp_path / "cfg.json"
    doc = config_to_dict(config_from_scenario(preset_scenario("comparison-default"),
                                              grid_n=50))
    doc["sweep"] = {"param": "gamma", "strategies": strategies}
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = _run(command, "--config", str(cfg_path), "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_without_param_fails(tmp_path, capsys):
    code = _run("sweep", "--preset", "comparison-default",
                "--out", str(tmp_path / "x"))
    assert code == 1
    assert "--param" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _sweep_config(tmp_path, preset, **sweep):
    cfg = tmp_path / "c.json"
    doc = config_to_dict(config_from_scenario(preset_scenario(preset), grid_n=50))
    doc["sweep"] = sweep
    cfg.write_text(json.dumps(doc))
    return cfg


@pytest.mark.parametrize(
    ("command", "sweep", "flags", "message"),
    [
        ("sweep", {"param": "gamma", "values": [0.0]}, [],
         "field sweep.values must be > 0 for gamma"),
        ("sweep", {"param": "kappa2", "values": [-1.0]}, [],
         "field sweep.values must be > 0 for kappa2"),
        ("sweep", {"param": "beta", "values": [5.0]}, [],
         "field sweep.values must lie in [0, 3] for beta"),
        ("compare", {"param": "beta", "values": [5.0]}, [],
         "field sweep.values must lie in [0, 3] for beta"),
        ("sweep", {"param": "tf", "values": [2.0]}, [],
         "field sweep.values must lie in [4, 14] for tf"),
        # valid for beta as written, then judged again for the --param swap
        ("sweep", {"param": "beta", "values": [0.0, 1.0]}, ["--param", "gamma"],
         "field sweep.values must be > 0 for gamma"),
        ("sweep", {"param": "delta"}, [],
         "field sweep.param must be one of ('gamma', 'kappa2', 'beta', 'tf'), "
         "got 'delta'"),
    ],
    ids=["gamma", "kappa2", "beta", "beta-compare", "tf", "param-swap", "unknown"],
)
def test_bad_sweep_section_fails_before_any_output(
    tmp_path, capsys, command, sweep, flags, message
):
    cfg = _sweep_config(tmp_path, "comparison-default", **sweep)
    out = tmp_path / "run"
    code = _run(command, "--config", str(cfg), *flags, "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_objective_override_on_zero_l2_weight_names_the_scenario(tmp_path, capsys):
    cfg = _config_with(tmp_path, "scenario3-l1", "weights", kappa3=0.0)
    out = tmp_path / "run"
    assert _run("solve", "--config", str(cfg), "--n", "100", "--out", str(out)) == 0
    code = _run("solve", "--config", str(cfg), "--objective", "l2",
                "--out", str(tmp_path / "l2"))
    assert code == 1
    assert "error: invalid value under scenario: " in capsys.readouterr().err
    assert not (tmp_path / "l2").exists()


def test_run_config_rejects_empty_sweep_values():
    base = config_from_scenario(preset_scenario("comparison-default"))
    with pytest.raises(ConfigError, match="^field sweep.values must not be empty$"):
        RunConfig(base.scenario, base.settings, sweep_param="gamma", sweep_values=())
    # None stands for the parameter's defaults
    cfg = RunConfig(base.scenario, base.settings, sweep_param="tf")
    assert cfg.sweep_spec().values == (4.0, 6.0, 8.0, 10.0, 12.0, 14.0)


def test_uncreatable_out_dir_is_an_input_error(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("computed before --out was checked")

    for name in ("solve", "compare_strategies", "run_sweep"):
        monkeypatch.setattr(cli, name, never)
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (("solve",), ("compare",), ("sweep", "--param", "gamma")):
        code = _run(*argv, "--preset", "comparison-default", "--out", str(taken))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(taken) in err and "File exists" in err
    assert taken.read_text() == ""


def _artifacts(out):
    """Every file under out by name; config.json without its own output.dir."""
    if not out.exists():
        return None
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    if "config.json" in files:
        doc = json.loads(files["config.json"])
        del doc["output"]["dir"]
        files["config.json"] = doc
    return files


def test_one_parser_serves_a_mixed_command_sequence(tmp_path, capsys, monkeypatch):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        builds[-1] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    first = ("solve", "--preset", "scenario1", "--n", "44")
    sequence = (
        first,
        ("solve", "--preset", "scenario2", "--n", "44", "--format", "json"),
        ("compare", "--preset", "comparison-default", "--n", "44"),
        ("sweep", "--preset", "comparison-default", "--param", "gamma", "--n", "44"),
        ("solve", "--preset", "scenario1", "--n", "44", "--format", "xml"),
        ("--help",),
        ("solve", "--preset", "nope", "--n", "44"),
        first,
    )

    def run_all(side, fresh):
        seen = []
        cli._build_parser.cache_clear()
        for index, argv in enumerate(sequence):
            if fresh:
                cli._build_parser.cache_clear()
            out = tmp_path / side / str(index)
            builds.append(0)
            code = _run(*argv, *(() if argv == ("--help",) else ("--out", str(out))))
            seen.append((code, capsys.readouterr(), _artifacts(out)))
        return seen

    shared = run_all("shared", fresh=False)
    assert builds == [4] + [0] * (len(sequence) - 1)
    builds.clear()
    assert run_all("fresh", fresh=True) == shared
    assert builds == [4] * len(sequence)
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 1, 0, 1, 0]
    assert shared[-1] == shared[0]
    assert "sweep" not in shared[-1][2]["config.json"]
    assert "sweep" in shared[3][2]["config.json"]


def test_importing_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "calls = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    calls.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import marketopt.cli\n"
        "print(len(calls))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "0\n"
