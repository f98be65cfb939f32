import os
import subprocess
import sys
from pathlib import Path

import pytest

import marketopt
from marketopt import pointwise
from marketopt.config import config_from_scenario
from marketopt.scenarios import preset_scenario

PACKAGE_DIR = Path(marketopt.__file__).resolve().parent


def test_every_public_name_resolves_once():
    names = marketopt.__all__
    assert len(names) == len(set(names))
    listed = dir(marketopt)
    for name in names:
        assert getattr(marketopt, name) is not None
        assert name in listed
    # an objective is the Scenario's (objective, weights) pair, not a type
    assert "ObjectiveKind" not in names
    assert not hasattr(marketopt, "ObjectiveKind")
    with pytest.raises(AttributeError, match="has no attribute 'ObjectiveKind'"):
        marketopt.ObjectiveKind


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from marketopt import *", namespace)
    assert set(marketopt.__all__) <= set(namespace)
    for name in marketopt.__all__:
        assert namespace[name] is getattr(marketopt, name)


def test_lazy_names_are_the_pointwise_objects():
    lazy = marketopt._POINTWISE
    assert lazy <= set(marketopt.__all__)
    for name in lazy:
        assert getattr(marketopt, name) is getattr(pointwise, name)
        assert getattr(pointwise, name).__module__ == "marketopt.pointwise"


def test_commands_import_no_pointwise_module():
    # every module but the lazily loaded one, as one command process imports them
    kernels = sorted(path.stem for path in PACKAGE_DIR.glob("*.py")
                     if path.stem not in ("__init__", "__main__", "pointwise"))
    assert {"cli", "integrator", "model", "pmp", "solver"} <= set(kernels)
    code = (f"import sys, marketopt.cli\n"
            f"for name in {kernels!r}: __import__('marketopt.' + name)\n"
            "print('marketopt.pointwise' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False"]


def test_config_from_scenario_carries_solver_overrides():
    # the call bench/make_reference.py makes
    cfg = config_from_scenario(
        preset_scenario("scenario1"), grid_n=400, tol_delta=1e-6, max_iters=50
    )
    settings = cfg.sweep_settings()
    assert (settings.n, settings.tol_delta, settings.max_iters) == (400, 1e-6, 50)
    assert settings.relaxation == marketopt.SweepSettings.relaxation


def test_readme_library_example_runs_and_keeps_its_claims():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    # a line "expr  # == other" claims that both expressions are equal
    claims = [line.split("  # == ") for line in block.splitlines() if "  # == " in line]
    assert [rhs for _, rhs in claims] == ["result.cost", "result.converged"]
    for lhs, rhs in claims:
        assert eval(lhs, namespace) == eval(rhs, namespace)
