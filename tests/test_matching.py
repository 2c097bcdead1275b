import pytest
from hypothesis import given

from regfactor import Multigraph, complete_graph, cycle_graph, max_matching, petersen_graph

from helpers import brute_max_matching_size, factor_degrees, simple_graphs


def test_small_graphs(k4, c5):
    assert len(max_matching(k4)) == 2
    assert len(max_matching(c5)) == 2
    assert len(max_matching(petersen_graph())) == 5


def test_requires_simple_graph():
    with pytest.raises(ValueError):
        max_matching(Multigraph.from_edges(2, [(0, 1), (0, 1)]))
    with pytest.raises(ValueError):
        max_matching(Multigraph.from_edges(1, [(0, 0)]))


def test_result_is_a_matching(k4):
    chosen = max_matching(k4)
    deg = factor_degrees(k4, chosen)
    assert all(d <= 1 for d in deg)


@given(simple_graphs(max_n=9))
def test_matches_brute_force(g):
    got = max_matching(g)
    deg = factor_degrees(g, got)
    assert all(d <= 1 for d in deg)
    assert len(got) == brute_max_matching_size(g)


def test_deterministic():
    g = complete_graph(6)
    assert max_matching(g) == max_matching(Multigraph.from_edges(g.n, [(u, v) for _, u, v in g.edges()]))


def test_odd_cycle_with_tail():
    # a blossom must be contracted to reach the perfect matching
    g = Multigraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    assert len(max_matching(g)) == 3


def test_empty_graph():
    assert max_matching(cycle_graph(3).induced_subgraph(())) == set()
