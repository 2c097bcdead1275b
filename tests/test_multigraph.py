import ast
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import regfactor
from regfactor.generators import complete_graph, h_rt, random_regular_multigraph
from regfactor.multigraph import Multigraph

from helpers import disjoint_pairs, multigraphs


def test_degree_complete_graph(k4):
    assert all(k4.degree(v) == 3 for v in range(4))


def test_degree_loop_counts_twice():
    g = Multigraph(1)
    g.add_edge(0, 0)
    assert g.degree(0) == 2
    assert g.m == 1


def test_degree_deleted_cycle_vertex():
    # in h_rt(2,1) the three cycle vertices are short one edge: degree 2r = 4
    h = h_rt(2, 1)
    assert [h.degree(v) for v in range(3)] == [4, 4, 4]
    assert [h.degree(v) for v in range(3, 7)] == [5, 5, 5, 5]


def test_add_vertices_appends_isolated_vertices():
    g = Multigraph.from_edges(2, [(0, 1)])
    assert g.add_vertices(3) == [2, 3, 4]
    assert g.n == 5
    assert [g.degree(v) for v in range(5)] == [1, 1, 0, 0, 0]
    assert [g.incident(v) for v in range(2, 5)] == [[], [], []]
    assert g.add_edge(4, 0) == 1
    assert g.add_vertices(0) == []
    assert g.n == 5
    with pytest.raises(ValueError, match="vertex count must be non-negative, got -2"):
        Multigraph(0).add_vertices(-2)
    with pytest.raises(ValueError, match="vertex count must be non-negative, got -2"):
        Multigraph(-2)


def test_degree_unknown_vertex(k4):
    with pytest.raises(ValueError):
        k4.degree(7)


@pytest.mark.parametrize("eid", [6, -1])
def test_edge_unknown_id(k4, eid):
    with pytest.raises(ValueError, match=f"unknown edge id {eid}"):
        k4.edge(eid)


def test_degree_sum_empty(k4):
    assert k4.degree_sum(()) == 0


def test_degree_sum_pair(k4):
    assert k4.degree_sum({0, 1}) == 6


@given(st.integers(1, 3), st.integers(0, 50))
def test_degree_sum_regular(r, seed):
    d = 2 * r + 1
    g = random_regular_multigraph(6, d, seed)
    for t in ({0}, {1, 3}, {0, 2, 4, 5}):
        assert g.degree_sum(t) == d * len(t)


def test_induced_edges_trivial(k4):
    assert k4.induced_edge_count(()) == 0
    assert k4.induced_edge_count({0, 1, 2}) == 3


@given(multigraphs())
def test_induced_edges_matches_scan(g):
    t = set(range(0, g.n, 2))
    want = sum(1 for _, u, v in g.edges() if u in t and v in t)
    assert g.induced_edge_count(t) == want


def test_cross_edges_trivial(k4):
    assert k4.cross_edge_count((), {0, 1}) == 0
    assert k4.cross_edge_count({0, 1}, {2, 3}) == 4


def test_cross_edges_overlap_rejected(k4):
    with pytest.raises(ValueError):
        k4.cross_edge_count({0, 1}, {1, 2})


def test_cross_edges_figure1(figure1):
    # after one blister a single direct S-T edge was replaced, two remain
    g, s, t = figure1
    assert g.cross_edge_count(t, s) == 2


def test_degree_sum_minus_trivial(k4):
    assert k4.degree_sum_minus((), {0, 1}) == k4.degree_sum({0, 1})
    assert k4.degree_sum_minus({0}, ()) == 0


@given(disjoint_pairs())
def test_degree_sum_minus_delete_and_recount(data):
    g, s, t = data
    keep = set(range(g.n)) - s
    sub = g.induced_subgraph(keep)
    renum = {v: i for i, v in enumerate(sorted(keep))}
    assert g.degree_sum_minus(s, t) == sub.degree_sum({renum[v] for v in t})


def test_degree_sum_minus_seeded_batch():
    import random

    rng = random.Random(31)
    for _ in range(1000):
        n = rng.randrange(1, 9)
        g = Multigraph.from_edges(
            n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 14))]
        )
        roles = [rng.randrange(3) for _ in range(n)]
        s = {v for v in range(n) if roles[v] == 1}
        t = {v for v in range(n) if roles[v] == 2}
        r = set(range(n)) - s - t
        want = g.cross_edge_count(r, t) + 2 * g.induced_edge_count(t)
        assert g.degree_sum_minus(s, t) == want


def test_components_connected(k4):
    assert k4.components() == [[0, 1, 2, 3]]


def test_components_star_minus_center():
    star = Multigraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert star.components(exclude={0}) == [[1], [2], [3]]


def test_components_figure1(figure1):
    g, s, t = figure1
    comps = g.components(exclude=s | t)
    assert len(comps) == 5
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 3, 3, 3, 4]  # lone triple-stub, three pendants, one blister


@given(multigraphs())
def test_components_partition_and_no_crossing(g):
    exclude = set(range(0, g.n, 3))
    comps = g.components(exclude=exclude)
    flat = [v for c in comps for v in c]
    assert sorted(flat) == sorted(set(range(g.n)) - exclude)
    index = {v: i for i, c in enumerate(comps) for v in c}
    for _, u, v in g.edges():
        if u in index and v in index:
            assert index[u] == index[v]
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)


def test_induced_subgraph_trivial(k4):
    assert k4.induced_subgraph(()).n == 0
    assert k4.induced_subgraph(range(4)) == k4
    tri = k4.induced_subgraph({0, 1, 2})
    assert (tri.n, tri.m) == (3, 3)


def test_add_edge_unknown_vertex():
    g = Multigraph(2)
    with pytest.raises(ValueError):
        g.add_edge(0, 2)


@given(multigraphs())
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


@given(multigraphs())
def test_degree_sum_partition_identity(g):
    a = {v for v in range(g.n) if v % 3 == 0}
    b = {v for v in range(g.n) if v % 3 == 1}
    c = {v for v in range(g.n) if v % 3 == 2}
    assert g.degree_sum(a) == (
        2 * g.induced_edge_count(a) + g.cross_edge_count(a, b) + g.cross_edge_count(a, c)
    )


def test_mgf_style_equality_and_copy():
    g = complete_graph(4)
    h = Multigraph.from_edges(4, [(v, u) for _, u, v in reversed(g.edges())])
    assert g == h
    h.add_edge(0, 0)
    assert g != h


def test_regular_degree():
    assert complete_graph(4).regular_degree() == 3
    g = Multigraph.from_edges(3, [(0, 1)])
    assert g.regular_degree() is None
    assert Multigraph(0).regular_degree() is None


def test_no_other_module_reads_multigraph_fields():
    # the incidence layout is multigraph.py's own; every other module goes through its methods
    fields = {"_n", "_edges", "_inc", "_deg"}
    reads = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(Path(regfactor.__file__).parent.glob("*.py"))
        if path.name != "multigraph.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in fields
    ]
    assert reads == []
