from itertools import combinations, permutations

import pytest
from hypothesis import given

import regfactor.connectivity
from regfactor.connectivity import (
    _max_flow,
    _split_network,
    bridges,
    edge_connectivity,
    is_connected,
    vertex_connectivity,
)
from regfactor.generators import BswParams, ExtremalParams, bsw_graph, general_extremal, petersen_graph
from regfactor.multigraph import Multigraph

from helpers import (
    brute_edge_connectivity,
    brute_separator,
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
    # every clique-block host with 1 <= t < r <= 5 is (2t+1)-connected, as the
    # paper's sharpness claim needs; verify_bsw reports it as details.vertexConnectivity
    for r, t in [(r, t) for r in range(2, 6) for t in range(1, r)]:
        assert vertex_connectivity(bsw_graph(BswParams(r, t))) == 2 * t + 1, (r, t)


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


@given(multigraphs(max_n=8, allow_loops=False))
def test_every_pair_flow_is_its_minimum_separator(g):
    # every non-adjacent pair in both directions, not only the minimum over
    # the pairs vertex_connectivity runs, so a wrong flow cannot hide behind it
    adj, network = _split_network(g)
    for s, t in permutations(range(g.n), 2):
        if t not in adj[s]:
            assert _max_flow(network, 2 * s + 1, 2 * t, g.n) == brute_separator(g, s, t), (s, t)


def test_flow_through_a_vertex_is_cancelled_then_rerouted():
    # the shortest path 0-1-2-3-4 goes first; the next one, 0-5-6-7-3-(2)-1-8-9-10-4,
    # must cancel the flow through 2, and the last, 0-11-...-15-2-16-...-20-4, must
    # pass through 2 again, so 2's in-node has to be given back its one successor
    # (and its bulk bit); the detours are long enough that no tie decides the order
    def path(*vs):
        return list(zip(vs, vs[1:]))

    edges = path(0, 1, 2, 3, 4) + path(0, 5, 6, 7, 3) + path(1, 8, 9, 10, 4)
    edges += path(0, 11, 12, 13, 14, 15, 2) + path(2, 16, 17, 18, 19, 20, 4)
    g = Multigraph.from_edges(21, edges)
    _, network = _split_network(g)
    assert _max_flow(network, 2 * 0 + 1, 2 * 4, g.n) == brute_separator(g, 0, 4) == 3


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
