from pathlib import Path

import marketopt
from marketopt.config import config_from_scenario
from marketopt.scenarios import preset_scenario


def test_every_public_name_resolves_once():
    names = marketopt.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(marketopt, name) is not None
    # an objective is the Scenario's (objective, weights) pair, not a type
    assert "ObjectiveKind" not in names
    assert not hasattr(marketopt, "ObjectiveKind")


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
    assert [rhs for _, rhs in claims] == ["result.cost"]
    for lhs, rhs in claims:
        assert eval(lhs, namespace) == eval(rhs, namespace)
