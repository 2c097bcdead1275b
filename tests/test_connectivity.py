from itertools import combinations

import pytest
from hypothesis import given

import regfactor.connectivity
from regfactor.connectivity import bridges, edge_connectivity, is_connected, vertex_connectivity
from regfactor.generators import BswParams, ExtremalParams, bsw_graph, general_extremal, petersen_graph
from regfactor.multigraph import Multigraph

from helpers import (
    brute_edge_connectivity,
    brute_vertex_connectivity,
    multigraphs,
    naive_bridges,
    simple_graphs,
    without_edge,
)


def test_bridges_trivial(k4):
    assert bridges(k4) == []
    path = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    assert bridges(path) == [0, 1]


def test_bridges_sylvester():
    assert len(bridges(general_extremal(ExtremalParams(1, 1, size_t=1)))) == 3


@given(multigraphs(max_n=7, max_m=14))
def test_bridges_match_naive_oracle(g):
    assert bridges(g) == sorted(naive_bridges(g))


@given(multigraphs())
def test_no_loop_and_no_parallel_bridge(g):
    cut = set(bridges(g))
    pair_counts: dict[tuple[int, int], int] = {}
    for _, u, v in g.edges():
        pair_counts[(u, v)] = pair_counts.get((u, v), 0) + 1
    for eid in cut:
        u, v = g.edge(eid)
        assert u != v
        assert pair_counts[(u, v)] == 1


@given(multigraphs(max_n=7, max_m=12))
def test_bridge_removal_splits_exactly_once(g):
    base = len(g.components())
    for eid in bridges(g):
        assert len(without_edge(g, eid).components()) == base + 1


def test_is_connected(k4):
    assert is_connected(k4)
    assert not is_connected(Multigraph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(Multigraph(0))
    assert is_connected(bsw_graph(BswParams(2, 1)))


def test_edge_connectivity_small(k4, c5):
    tree = Multigraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert edge_connectivity(tree) == 1
    assert edge_connectivity(k4) == 3
    assert edge_connectivity(c5) == 2
    with pytest.raises(ValueError):
        edge_connectivity(Multigraph(1))


def test_edge_connectivity_counts_parallels():
    g = Multigraph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
    assert edge_connectivity(g) == 3


def test_vertex_connectivity_small(k4, c5):
    assert vertex_connectivity(k4) == 3
    assert vertex_connectivity(c5) == 2
    assert vertex_connectivity(petersen_graph()) == 3
    with pytest.raises(ValueError):
        vertex_connectivity(Multigraph.from_edges(2, [(0, 0), (0, 1), (0, 1)]))


@pytest.mark.parametrize(
    "g, message",
    [
        (Multigraph.from_edges(1, [(0, 0)]), "loop-free"),  # the loop is reported before the size
        (Multigraph(1), "at least 2 vertices"),
    ],
    ids=["one-vertex-loop", "one-vertex"],
)
def test_vertex_connectivity_rejects_in_order(g, message):
    with pytest.raises(ValueError, match=message):
        vertex_connectivity(g)


def test_vertex_connectivity_bsw():
    # exact values pinned by details.vertexConnectivity in verify_bsw reports
    for (r, t), kappa in {(2, 1): 3, (3, 1): 3, (3, 2): 5, (4, 1): 3}.items():
        assert vertex_connectivity(bsw_graph(BswParams(r, t))) == kappa


def test_vertex_connectivity_flows_run_on_bsw_hosts(monkeypatch):
    # flows from one minimum-degree vertex and between its non-adjacent
    # neighbours, pinned beside kappa so a change in the work done shows
    flows = 0
    max_flow = regfactor.connectivity._max_flow

    def counted(*args):
        nonlocal flows
        flows += 1
        return max_flow(*args)

    monkeypatch.setattr(regfactor.connectivity, "_max_flow", counted)
    for (r, t), expected in {(2, 1): (3, 42), (3, 1): (3, 79), (3, 2): (5, 81), (4, 1): (3, 128)}.items():
        flows = 0
        kappa = vertex_connectivity(bsw_graph(BswParams(r, t)))
        assert (kappa, flows) == expected


def test_vertex_connectivity_cut_vertex_of_minimum_degree():
    # vertex 0 has minimum degree 4 (two edges into each of two K5s) and is
    # the only cut vertex: every flow from 0 is 2, so only the flow between
    # two of its non-adjacent neighbours finds kappa = 1
    edges = [(0, 1), (0, 2), (0, 6), (0, 7)]
    edges += list(combinations(range(1, 6), 2)) + list(combinations(range(6, 11), 2))
    assert vertex_connectivity(Multigraph.from_edges(11, edges)) == 1


def test_vertex_connectivity_collapses_parallel_edges():
    g = petersen_graph()
    doubled = Multigraph.from_edges(g.n, [(u, v) for _, u, v in g.edges()] * 2)
    assert vertex_connectivity(doubled) == 3


@given(simple_graphs(max_n=7))
def test_vertex_connectivity_matches_brute_separator(g):
    if g.n < 2:
        return
    assert vertex_connectivity(g) == brute_vertex_connectivity(g)


@given(multigraphs(max_n=7))
def test_edge_connectivity_matches_brute_bipartition(g):
    if g.n < 2:
        return
    assert edge_connectivity(g) == brute_edge_connectivity(g)


@given(multigraphs(max_n=7, allow_loops=False))
def test_vertex_connectivity_of_multigraph_is_that_of_simple_graph(g):
    if g.n < 2:
        return
    simple = Multigraph.from_edges(g.n, sorted({(min(u, v), max(u, v)) for _, u, v in g.edges()}))
    assert vertex_connectivity(g) == brute_vertex_connectivity(simple)


@given(simple_graphs(max_n=7))
def test_connectivity_chain(g):
    if g.n < 2:
        return
    lam = edge_connectivity(g)
    assert (lam >= 1) == is_connected(g)
    assert lam <= min(g.degree(v) for v in range(g.n))
    assert vertex_connectivity(g) <= lam
