import marketopt


def test_every_public_name_resolves_once():
    names = marketopt.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(marketopt, name) is not None
    # an objective is the Scenario's (objective, weights) pair, not a type
    assert "ObjectiveKind" not in names
    assert not hasattr(marketopt, "ObjectiveKind")
