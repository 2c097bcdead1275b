import pytest
from hypothesis import HealthCheck, settings

from regfactor.generators import (
    ExtremalParams,
    complete_graph,
    cycle_graph,
    general_extremal_with_partition,
)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture(scope="session")
def figure1():
    """The blistered extremal fixture: r=1, k=1, |T|=3, |S|=1, one blister."""
    g, s, t = general_extremal_with_partition(ExtremalParams(1, 1, size_t=3, size_s=1, blister_count=1))
    return g, set(s), set(t)
