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
