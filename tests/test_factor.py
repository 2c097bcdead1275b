import itertools
import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regfactor.connectivity import bridges
from regfactor.factor import (
    FactorResult,
    build_factor_gadget,
    component_edge_counts,
    exhaustive_tutte_oracle,
    find_factor,
    has_2k_factor,
    q_count,
    t_odd_profile,
    tutte_deficiency,
)
from regfactor.generators import (
    BswParams,
    ExtremalParams,
    bsw_graph,
    complete_graph,
    general_extremal,
    random_regular_multigraph,
)
from regfactor.multigraph import Multigraph

from helpers import (
    adjacency_lists,
    assert_lines_pinned,
    disjoint_pairs,
    factor_degrees,
    gadget_factor_reference,
    multigraphs,
    naive_component_counts,
    naive_oracle,
    pinned_hosts,
    reference_gadget,
)


# -- T-odd component profile ---------------------------------------------------


def test_profile_empty_sets(k4):
    prof = t_odd_profile(k4, (), ())
    assert (prof.q1, prof.q2, prof.q3) == (0, 0, 0)


def test_profile_figure1(figure1):
    g, s, t = figure1
    prof = t_odd_profile(g, s, t)
    assert (prof.q1, prof.q2, prof.q3) == (3, 1, 1)
    assert prof.q1 + prof.q2 + prof.q3 == 5


def test_profile_overlap_rejected(k4):
    with pytest.raises(ValueError):
        t_odd_profile(k4, {0}, {0, 1})


@given(disjoint_pairs())
def test_profile_inequalities(data):
    g, s, t = data
    prof = t_odd_profile(g, s, t)
    d = g.degree_sum_minus(s, t)
    r = set(range(g.n)) - s - t
    assert prof.q1 + prof.q2 + 3 * prof.q3 <= d
    assert prof.q1 <= len(bridges(g))
    assert prof.q2 <= g.cross_edge_count(r, s)
    assert prof.q1 + prof.q2 + prof.q3 == q_count(g, 2, s, t)


@given(disjoint_pairs())
def test_component_edge_counts_match_naive_rescan(data):
    g, s, t = data
    comps, label, to_t, to_s, among = naive_component_counts(g, s, t)
    assert component_edge_counts(g, s, t) == (comps, label, to_t, to_s, among)
    for ell in range(1, 5):
        expected = sum(1 for c, x in zip(comps, to_t) if (x + ell * len(c)) % 2 == 1)
        assert q_count(g, ell, s, t) == expected
    prof = t_odd_profile(g, s, t)
    assert (prof.q1, prof.q2, prof.q3) == (
        sum(1 for x, y in zip(to_t, to_s) if x == 1 and y == 0),
        sum(1 for x, y in zip(to_t, to_s) if x == 1 and y > 0),
        sum(1 for x in to_t if x % 2 == 1 and x >= 3),
    )


def test_component_edge_counts_loops_and_parallel_edges():
    # R = {0, 1}; 0 carries a loop and a double edge to T = {2}, 1 one edge to S = {3};
    # T's loop counts once inside T, the edge 2-3 once between S and T
    g = Multigraph.from_edges(4, [(0, 0), (0, 1), (0, 2), (0, 2), (1, 3), (2, 2), (2, 3)])
    assert component_edge_counts(g, {3}, {2}) == ([[0, 1]], [0, 0, -1, -1], [2], [1], [0, 1, 1])


# -- parity-criterion component count -------------------------------------------


def test_q_count_even_ell_empty_sets(k4):
    assert q_count(k4, 2, (), ()) == 0


def test_q_count_odd_ell_even_components():
    two_k2 = Multigraph.from_edges(4, [(0, 1), (2, 3)])
    assert q_count(two_k2, 1, (), ()) == 0
    lone = Multigraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert q_count(lone, 1, (), ()) == 1  # odd-order component


def test_q_count_figure1(figure1):
    g, s, t = figure1
    assert q_count(g, 2, s, t) == 5


# -- deficiency ------------------------------------------------------------------


def test_deficiency_trivial(k4):
    assert tutte_deficiency(k4, 2, (), ()) == 0


def test_deficiency_figure1(figure1):
    g, s, t = figure1
    assert g.degree_sum_minus(s, t) == 7
    assert tutte_deficiency(g, 2, s, t) == 2


@given(disjoint_pairs(), st.integers(1, 4))
def test_deficiency_matches_rescans(data, ell):
    g, s, t = data
    expected = q_count(g, ell, s, t) - g.degree_sum_minus(s, t) - ell * (len(s) - len(t))
    assert tutte_deficiency(g, ell, s, t) == expected


def test_deficiency_k4_never_positive(k4):
    for roles in itertools.product(range(3), repeat=4):
        s = {v for v in range(4) if roles[v] == 1}
        t = {v for v in range(4) if roles[v] == 2}
        assert tutte_deficiency(k4, 2, s, t) <= 0


# -- exhaustive oracle ------------------------------------------------------------


def test_oracle_k4(k4):
    assert exhaustive_tutte_oracle(k4, 2) is None


def test_oracle_sylvester_witness():
    w = exhaustive_tutte_oracle(general_extremal(ExtremalParams(1, 1, size_t=1)), 2)
    assert w is not None
    assert w.S == ()
    assert len(w.T) == 1
    assert w.deficiency == 2


def test_oracle_cap_refusal():
    g = Multigraph(15)
    with pytest.raises(ValueError, match="cap"):
        exhaustive_tutte_oracle(g, 2)
    assert exhaustive_tutte_oracle(Multigraph(8), 2) is not None  # isolated vertices, no 2-factor


def test_oracle_includes_empty_pair():
    lone_loop = Multigraph.from_edges(1, [(0, 0)])
    w = exhaustive_tutte_oracle(lone_loop, 1)
    assert w is not None and w.S == () and w.T == ()
    assert exhaustive_tutte_oracle(lone_loop, 2) is None


# -- gadget reduction --------------------------------------------------------------


def _assert_simple(adj):
    # the blossom search needs a simple graph: no list repeats a node or holds its own
    for x, nbrs in enumerate(adj):
        assert len(set(nbrs)) == len(nbrs) and x not in nbrs, (x, nbrs)


def test_gadget_k4_node_count(k4):
    gadget, start = build_factor_gadget(k4, 2)
    assert gadget.n == 16 == len(gadget.adj)  # 3 externals + 1 internal per vertex
    assert gadget.m == 6 + 4 * 3  # k4's edges, then each internal node to 3 externals
    assert start == [0, 4, 8, 12, 16]
    _assert_simple(gadget.adj)


def test_gadget_layout_contract():
    # a loop, a parallel pair and a vertex with no internal node (degree = ℓ)
    g = Multigraph.from_edges(4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    ell = 3
    gadget, start = build_factor_gadget(g, ell)
    assert start == [0, 5, 8, 13, 16]
    ext = [range(start[v], start[v] + g.degree(v)) for v in range(g.n)]
    owner = {x: v for v in range(g.n) for x in ext[v]}
    assert len(gadget.ends) == g.m
    for eid, u, v in g.edges():
        a, b = gadget.ends[eid]
        assert a != b and sorted((owner.get(a), owner.get(b))) == [u, v]
        assert gadget.adj[a][0] == b and gadget.adj[b][0] == a
    # every external node carries exactly one of g's edges, so a loop takes two
    ends = sorted(x for pair in gadget.ends for x in pair)
    assert ends == sorted(owner)
    for v in range(g.n):
        for i in range(ext[v].stop, start[v + 1]):
            assert gadget.adj[i] == list(ext[v])
        for x in ext[v]:
            assert gadget.adj[x][1:] == list(range(ext[v].stop, start[v + 1]))


def test_gadget_loop_vertex():
    g = Multigraph.from_edges(1, [(0, 0)])
    gadget, _ = build_factor_gadget(g, 2)
    assert gadget.n == 2 and gadget.m == 1
    assert gadget.adj == [[1], [0]] and gadget.ends == [(0, 1)]  # the loop's two ends, each the other's partner
    factor = find_factor(g, 2)
    assert factor is not None and factor.edge_ids == (0,)


def test_gadget_degree_too_small(k4):
    with pytest.raises(ValueError, match="no 4-factor"):
        build_factor_gadget(k4, 4)


@given(st.integers(1, 3), st.integers(0, 20))
def test_gadget_size_formula_regular(r, seed):
    d = 2 * r + 1
    g = random_regular_multigraph(6, d, seed)
    for k in range(1, (d + 1) // 2):
        gadget, _ = build_factor_gadget(g, 2 * k)
        assert gadget.n == d * 6 + (d - 2 * k) * 6
        assert gadget.m == g.m + 6 * d * (d - 2 * k)


@st.composite
def gadget_hosts(draw):
    # ℓ runs up to the minimum degree, so some vertex may have degree exactly ℓ
    g = draw(multigraphs(max_n=7, max_m=20))
    low = min(g.degree(v) for v in range(g.n))
    assume(low >= 1)
    return g, draw(st.integers(1, low))


@given(gadget_hosts())
@example((Multigraph.from_edges(4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 3)]), 3))
@example((Multigraph.from_edges(1, [(0, 0)]), 2))
@settings(max_examples=150)
def test_gadget_matches_reference(host):
    g, ell = host
    gadget, start = build_factor_gadget(g, ell)
    reference, ref_start = reference_gadget(g, ell)
    assert start == ref_start
    assert (gadget.n, gadget.m) == (reference.n, reference.m)
    assert gadget.adj == adjacency_lists(reference)
    assert gadget.ends == [reference.edge(e) for e in range(g.m)]
    _assert_simple(gadget.adj)


# -- constructive solver ------------------------------------------------------------


def test_find_factor_k4(k4):
    factor = find_factor(k4, 2)
    assert factor is not None
    assert factor_degrees(k4, factor.edge_ids) == [2, 2, 2, 2]


def test_find_factor_sylvester_none():
    assert find_factor(general_extremal(ExtremalParams(1, 1, size_t=1)), 2) is None


def test_find_factor_bsw_boundary():
    g = bsw_graph(BswParams(2, 1))
    assert find_factor(g, 4) is None
    assert find_factor(g, 2) is not None


def test_find_factor_empty_graph():
    factor = find_factor(Multigraph(0), 2)
    assert factor is not None and factor.edge_ids == ()


@given(multigraphs(max_n=8, max_m=24), st.integers(1, 4))
@example(Multigraph(0), 2)
@example(complete_graph(3), 1)  # every degree >= ℓ, ℓn odd
@example(complete_graph(5), 3)
@settings(max_examples=150)
def test_find_factor_matches_gadget_reference(g, ell):
    # the reference gadget goes through max_matching, which checks that it is
    # simple, and turns the mate array into edge ids
    factor = find_factor(g, ell)
    assert (None if factor is None else factor.edge_ids) == gadget_factor_reference(g, ell)


def test_find_factor_output_pinned():
    # the perfbench digests pin the factors; this holds them here too, host by
    # host as tests/data/find_factor_factors.jsonl (edge ids, null for no
    # factor), on the hosts whose gadgets test_matching_output_pinned pins.
    lines = [
        json.dumps({"host": label, "factor": None if (f := find_factor(g, ell)) is None else list(f.edge_ids)})
        for label, g, ell in pinned_hosts()
    ]
    assert_lines_pinned(lines, "find_factor_factors.jsonl", "host")
    assert len(lines) == 47 and sum(json.loads(line)["factor"] is None for line in lines) == 4


@pytest.mark.parametrize(
    "call",
    [find_factor, build_factor_gadget, lambda g, ell: tutte_deficiency(g, ell, (), ()), exhaustive_tutte_oracle],
    ids=["find_factor", "build_factor_gadget", "tutte_deficiency", "exhaustive_tutte_oracle"],
)
@pytest.mark.parametrize("ell", [0, -2])
def test_factor_degree_below_1_rejected(k4, call, ell):
    with pytest.raises(ValueError, match=f"factor degree must be >= 1, got {ell}"):
        call(k4, ell)


def test_has_2k_factor(k4):
    assert has_2k_factor(k4, 1)
    assert not has_2k_factor(general_extremal(ExtremalParams(1, 1, size_t=1)), 1)
    with pytest.raises(ValueError):
        has_2k_factor(k4, 0)


def test_factor_result_validate(k4):
    with pytest.raises(ValueError, match="not a 2-factor"):
        FactorResult((0,), 2).validate(k4)


# -- oracle/solver agreement and invariants -----------------------------------------


@given(multigraphs(max_n=7, max_m=12), st.sampled_from([1, 2, 3, 4, 6]))
@settings(max_examples=60)
def test_oracle_solver_agreement(g, ell):
    witness = exhaustive_tutte_oracle(g, ell)
    factor = find_factor(g, ell)
    assert (witness is None) == (factor is not None)
    if factor is not None:
        assert factor_degrees(g, factor.edge_ids) == [ell] * g.n


@given(multigraphs(max_n=7, max_m=12), st.integers(1, 6))
# one instance per dominance cut: an S need one too tight, an S need without
# a(v) (the star, ℓ = 1), and a strict T cap or a union skip at a tie (the loop)
@example(Multigraph.from_edges(5, [(2, 3), (2, 3), (2, 4), (2, 2), (0, 2), (0, 1), (1, 4)]), 2)
@example(Multigraph.from_edges(4, [(2, 3), (1, 2), (0, 2)]), 1)
@example(Multigraph.from_edges(2, [(0, 0)]), 2)
def test_oracle_matches_naive_scan(g, ell):
    assert exhaustive_tutte_oracle(g, ell) == naive_oracle(g, ell)


@given(multigraphs(max_n=6), st.integers(1, 6))
@settings(max_examples=300)
def test_maximum_pairs_admit_no_single_move(g, ell):
    # The lemma behind the oracle's dominance cuts, checked apart from the
    # oracle: with R the rest and a(v) the components of G[R] that v
    # touches, moving v from T to R raises the deficiency by at least
    # deg_{G-S}(v) - ℓ - a(v), and from S to R by at least ℓ - e(v, T) - a(v).
    # Deficiencies share the parity of ℓn, so neither bound is >= 1 at any
    # pair of maximum deficiency.
    scored = {}
    for roles in itertools.product(range(3), repeat=g.n):
        s = tuple(v for v, role in enumerate(roles) if role == 1)
        t = tuple(v for v, role in enumerate(roles) if role == 2)
        scored[s, t] = tutte_deficiency(g, ell, s, t)
    top = max(scored.values())
    for (s, t), deficiency in scored.items():
        if deficiency < top:
            continue
        comps = g.components(exclude=set(s) | set(t))
        for v in s + t:
            ends = [b for _, a, b in g.edges() if a == v] + [a for _, a, b in g.edges() if b == v]
            loops = ends.count(v) // 2
            e_r = sum(1 for x in ends if x != v and x not in s and x not in t)
            e_t = sum(1 for x in ends if x != v and x in t)
            touch = sum(1 for comp in comps if set(comp) & set(ends))
            if v in t:
                assert e_r + e_t + 2 * loops - ell - touch <= 0, (s, t, v)
            else:
                assert ell - e_t - touch <= 0, (s, t, v)


def test_oracle_tie_break_is_not_search_order():
    # the bowtie (two triangles sharing vertex 2) has nine pairs of maximum
    # deficiency 2 for ℓ = 2; the search scores S = (2,), T = (0, 3) first,
    # and must still return the lexicographically smallest pair
    bowtie = Multigraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert tutte_deficiency(bowtie, 2, (2,), (0, 3)) == 2
    w = exhaustive_tutte_oracle(bowtie, 2)
    assert (w.S, w.T, w.q, w.d, w.deficiency) == ((2,), (0, 1, 3), 1, 3, 2)
    assert w == naive_oracle(bowtie, 2)


@given(disjoint_pairs(), st.integers(1, 3))
def test_parity_invariant_even_ell(data, k):
    g, s, t = data
    q = q_count(g, 2 * k, s, t)
    d = g.degree_sum_minus(s, t)
    assert (q - d) % 2 == 0


@given(disjoint_pairs(), st.integers(1, 6))
def test_deficiency_has_parity_of_ell_n(data, ell):
    # Lovász (1970); the oracle's bound rounds down to this parity
    g, s, t = data
    assert (tutte_deficiency(g, ell, s, t) - ell * g.n) % 2 == 0


def test_even_cut_property():
    rng = random.Random(7)
    g = random_regular_multigraph(10, 5, seed=3)
    factor = find_factor(g, 2)
    assert factor is not None
    chosen = set(factor.edge_ids)
    for _ in range(200):
        side = {v for v in range(g.n) if rng.random() < 0.5}
        crossing = sum(
            1 for eid in chosen for pair in [g.edge(eid)] if (pair[0] in side) != (pair[1] in side)
        )
        assert crossing % 2 == 0


def test_witness_serialization():
    w = exhaustive_tutte_oracle(general_extremal(ExtremalParams(1, 1, size_t=1)), 2)
    assert json.loads(json.dumps(w.to_json())) == {"S": [], "T": [0], "q": 3, "d": 3, "deficiency": 2}
