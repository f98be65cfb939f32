import pytest
from hypothesis import HealthCheck, settings

from marketopt.scenarios import RateFunction

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


class _Counting(RateFunction):
    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def __call__(self, t):
        self.calls += 1
        return self.inner(t)

    @property
    def label(self):
        return f"counting({self.inner.label})"


@pytest.fixture
def counting_rate():
    """Wraps a rate in one that counts its calls in .calls."""
    return _Counting
