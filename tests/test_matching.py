import hashlib
import json

import pytest
from hypothesis import given, settings

from regfactor.factor import build_factor_gadget
from regfactor.generators import complete_graph, petersen_graph, random_connected_regular_multigraph
from regfactor.matching import max_matching, maximum_matching_adjacency
from regfactor.multigraph import Multigraph
from regfactor.verifier import RK_PAIRS, main_sweep_tasks

from helpers import (
    adjacency_lists,
    blossom_graphs,
    brute_max_matching_size,
    factor_degrees,
    pinned_hosts,
    reference_blossom_mates,
    reference_gadget,
    simple_graphs,
)


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
    assert max_matching(Multigraph(0)) == set()


@settings(max_examples=1000)
@given(blossom_graphs())
def test_mates_match_reference(graph):
    # Past the brute-force range: the whole mate array, not only its size,
    # must equal the fresh-state search's.  Searches share one set of state
    # arrays, so a search that leaves an entry set misleads the next one.
    # Stopping at the first failed search changes nothing while no search
    # fails, and otherwise leaves a node exposed.
    n, adj = graph
    mates = maximum_matching_adjacency(adj)[0]
    assert mates == reference_blossom_mates(n, adj)
    early = maximum_matching_adjacency(adj, stop_at_failure=True)[0]
    if -1 in mates:
        assert -1 in early
    else:
        assert early == mates


def gallai_edmonds_d(g: Multigraph) -> set[int]:
    """D: the vertices some maximum matching leaves exposed, i.e. those whose
    removal keeps the maximum matching size."""
    nu = brute_max_matching_size(g)
    return {
        v
        for v in range(g.n)
        if brute_max_matching_size(Multigraph.from_edges(g.n, [(a, b) for _, a, b in g.edges() if v not in (a, b)]))
        == nu
    }


@settings(max_examples=200)
@given(simple_graphs(max_n=10))
def test_outer_nodes_are_gallai_edmonds_d(g):
    _, outer = maximum_matching_adjacency(adjacency_lists(g))
    assert set(outer) == gallai_edmonds_d(g)


def test_nested_blossoms_then_failed_search():
    # Two components.  In each, the first search contracts a blossom whose
    # base is then absorbed into a larger blossom (vertices 0 and 5 onto 2,
    # then 2 onto 6; in the second, 11 and 15 onto 20, then 20 onto 21), and
    # a later search fails.  The first component's absorbed members list
    # [2, 0, 5] is out of id order, so an unsorted relabel changes the mates;
    # the second's failed searches meet the first search's bases, so a
    # members list that is not handed to the new base, or not reset after a
    # search, changes them too.
    g = Multigraph.from_edges(
        25,
        [(3, 7), (6, 4), (4, 2), (5, 0), (1, 7), (2, 0), (3, 8), (0, 1), (8, 6), (5, 2), (5, 3), (4, 10), (8, 9)]
        + [(14, 12), (16, 13), (19, 15), (15, 11), (12, 17), (14, 15), (18, 20), (11, 16), (21, 18), (15, 20)]
        + [(13, 21), (17, 19), (11, 20), (14, 23), (17, 24), (19, 22)],
    )
    adj = adjacency_lists(g)
    mates, outer = maximum_matching_adjacency(adj)
    assert mates == reference_blossom_mates(g.n, adj)
    assert set(outer) == gallai_edmonds_d(g)
    # the second component's later failed search walks an earlier failed tree again
    assert len(outer) == len(set(outer))


# -- pinned output ------------------------------------------------------------------
#
# find_factor reads the factor off the gadget's mate array, and the perfbench
# digests pin those factors, so the matching itself must stay the same mate
# array, not only the same size.  The search order (id-ordered seeding and
# relabelling, FIFO queue) decides which maximum matching comes out.  The hash
# is the sha256 of the JSON list of sorted(max_matching(gadget)), gadget by
# gadget, on the reference Multigraph gadget; max_matching turns the mate array
# into edge ids.  build_factor_gadget's adjacency lists must equal the
# reference's, so the search runs the same on both.  tests/test_factor.py pins
# the factors read off these gadgets.


def _reference_matching(g, ell):
    reference = reference_gadget(g, ell)[0]
    assert build_factor_gadget(g, ell)[0].adj == adjacency_lists(reference)
    return sorted(max_matching(reference))


def test_matching_output_pinned():
    matchings = [_reference_matching(g, ell) for _, g, ell in pinned_hosts()]
    assert len(matchings) == 47
    digest = hashlib.sha256(json.dumps(matchings).encode()).hexdigest()
    assert digest == "1272c7c723f17a297d1351605d99c998576a08635c3e50ca54776c7ef0972b1f"


def test_large_gadget_matching_output_pinned():
    # The seed-0 n = 80 and n = 240 guarantee gadgets that perfbench runs,
    # where nearly all searches and contractions happen.
    matchings = []
    for r, k in RK_PAIRS:
        for _, a in main_sweep_tasks(r, k, 7, 0, (30,) * 5 + (80, 240)):
            if a["n"] != 30:
                g = random_connected_regular_multigraph(a["n"], 2 * r + 1, a["seed"])
                matchings.append(_reference_matching(g, 2 * k))
    assert len(matchings) == 14
    digest = hashlib.sha256(json.dumps(matchings).encode()).hexdigest()
    assert digest == "e8cd93763501a84a3a65d7277baab5a11cea23842959bddaf99b2c9c3cdf8c39"
