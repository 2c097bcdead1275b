import pytest
from hypothesis import given
from hypothesis import strategies as st

import regfactor.generators
from regfactor.connectivity import bridges, is_connected
from regfactor.factor import find_factor, has_2k_factor, t_odd_profile
from regfactor.generators import (
    BswParams,
    ExtremalParams,
    bridged_chain,
    bsw_graph,
    complement,
    complete_graph,
    deficiency_component,
    extremal_parameter_grid,
    general_extremal,
    general_extremal_with_partition,
    h_rt,
    petersen_graph,
    random_connected_regular_multigraph,
    random_multigraph,
    random_regular_multigraph,
)
from regfactor.io import to_mgf
from regfactor.multigraph import Multigraph
from regfactor.verifier import RK_PAIRS, RT_PAIRS

from helpers import assert_lines_pinned, hashed_line


# -- deficiency components ------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 3])
def test_deficiency_component_degrees(r, d):
    if d == 3 and r == 1:
        comp, attach = deficiency_component(1, 3)
        assert comp.n == 1 and comp.m == 0 and attach == 0
        return
    comp, attach = deficiency_component(r, d)
    target = 2 * r + 1
    assert comp.degree(attach) == target - d
    assert all(comp.degree(v) == target for v in range(comp.n) if v != attach)
    assert is_connected(comp)
    assert bridges(comp) == []


def test_deficiency_component_bad_params():
    with pytest.raises(ValueError):
        deficiency_component(0, 1)
    with pytest.raises(ValueError):
        deficiency_component(2, 2)


# -- one-hub extremal graphs ----------------------------------------------------


def test_sylvester_1_1():
    g = general_extremal(ExtremalParams(1, 1, size_t=1))
    assert g.regular_degree() == 3
    assert len(bridges(g)) == 3
    assert g.degree(0) == 3  # the hub
    assert not has_2k_factor(g, 1)


@pytest.mark.parametrize(
    "r, k, expected_bridges",
    [(1, 1, 3), (2, 1, 5), (3, 2, 4), (4, 3, 3)],
)
def test_sylvester_bridge_counts(r, k, expected_bridges):
    g = general_extremal(ExtremalParams(r, k, size_t=1))
    assert g.regular_degree() == 2 * r + 1
    assert len(bridges(g)) == expected_bridges == 2 * r + 4 - 3 * k
    prof = t_odd_profile(g, (), {0})
    assert prof.q1 == expected_bridges
    assert prof.q3 == k - 1  # the triple-attached components
    assert find_factor(g, 2 * k) is None


def test_sylvester_bad_params():
    with pytest.raises(ValueError):
        general_extremal(ExtremalParams(1, 2, size_t=1))


# -- blistering ------------------------------------------------------------------


def test_extremal_build_checks_its_patch_once(monkeypatch):
    # the builder checks no patch: its one bridges call, whatever the
    # blister count, is the audit's bridges(g)
    calls = 0

    def counted(g):
        nonlocal calls
        calls += 1
        return bridges(g)

    monkeypatch.setattr(regfactor.generators, "bridges", counted)
    for b, expected in enumerate([1, 1, 1, 1]):
        calls = 0
        general_extremal(ExtremalParams(3, 2, size_t=2, size_s=1, blister_count=b))
        assert calls == expected


def test_extremal_build_makes_no_patch_without_extra_components(monkeypatch):
    # the complete-graph patch is built only when extra components use it
    calls = 0

    def counted(n):
        nonlocal calls
        calls += 1
        return complete_graph(n)

    monkeypatch.setattr(regfactor.generators, "complete_graph", counted)
    for x, expected in [(0, 0), (1, 1), (2, 1)]:
        calls = 0
        general_extremal(ExtremalParams(3, 2, size_t=2, size_s=1, blister_count=1, extra_components=x))
        assert calls == expected


# -- general extremal family ------------------------------------------------------


def test_general_extremal_figure1(figure1):
    g, s, t = figure1
    prof = t_odd_profile(g, s, t)
    assert (prof.q1, prof.q2, prof.q3) == (3, 1, 1)
    assert len(bridges(g)) == 3
    assert g.regular_degree() == 3
    assert is_connected(g)


def test_general_extremal_params_validation():
    with pytest.raises(ValueError):
        ExtremalParams(1, 1, size_t=0)
    with pytest.raises(ValueError):
        ExtremalParams(1, 1, size_t=1, size_s=1)
    with pytest.raises(ValueError):
        ExtremalParams(2, 1, size_t=3, size_s=1)  # diff 2 needs 3k = 2r+1
    with pytest.raises(ValueError):
        ExtremalParams(2, 2, size_t=1)  # k over (2r+1)/3
    with pytest.raises(ValueError):
        ExtremalParams(1, 1, size_t=1, size_s=0, blister_count=1)  # no S to blister


@pytest.mark.parametrize("r, k", [(1, 1), (2, 1), (3, 2), (4, 3)])
def test_general_extremal_grid_bridge_counts(r, k):
    grid = extremal_parameter_grid(r, k)
    for params in [p for p in grid if p.blister_count <= 1 and p.extra_components == 0]:
        g = general_extremal(params)
        assert g.regular_degree() == 2 * r + 1
        assert len(bridges(g)) == 2 * r + 4 - 3 * k


def test_general_extremal_seed_determinism():
    params = ExtremalParams(3, 2, size_t=2, size_s=1, blister_count=1)
    a = general_extremal(params, seed=1)
    b = general_extremal(params, seed=1)
    assert a == b


# -- clique-block sharpness graphs -------------------------------------------------


def test_h_rt_degrees():
    h = h_rt(2, 1)
    assert h.n == 7
    assert sorted(h.degree(v) for v in range(h.n)) == [4, 4, 4, 5, 5, 5, 5]
    assert h.is_simple()


def test_bsw_shape():
    g = bsw_graph(BswParams(2, 1))
    assert g.n == 38
    assert g.regular_degree() == 5
    assert g.is_simple()
    big = bsw_graph(BswParams(3, 1))
    assert big.n == 66
    assert big.regular_degree() == 7


def test_bsw_bad_params():
    with pytest.raises(ValueError):
        BswParams(2, 2)
    with pytest.raises(ValueError):
        BswParams(1, 1)


# -- random multigraphs -------------------------------------------------------------


def test_pairing_model_trivial():
    g = random_regular_multigraph(2, 1, seed=0)
    assert g.m == 1 and g.edge(0) == (0, 1)


def test_pairing_model_parity_rejected():
    for sampler in (random_regular_multigraph, random_connected_regular_multigraph):
        for n, d in [(3, 3), (0, 2), (4, -1), (1, -2)]:
            with pytest.raises(ValueError, match=r"need n >= 1, d >= 0 and n\*d even"):
                sampler(n, d, seed=0)


@given(st.integers(2, 10), st.integers(1, 6), st.integers(0, 1000))
def test_pairing_model_regular_and_deterministic(n, d, seed):
    if (n * d) % 2 == 1:
        n += 1
    g = random_regular_multigraph(n, d, seed)
    assert g.regular_degree() == d
    assert g == random_regular_multigraph(n, d, seed)


def test_connected_sampler():
    g = random_connected_regular_multigraph(8, 3, seed=11)
    assert is_connected(g)
    assert g.regular_degree() == 3
    assert g == random_connected_regular_multigraph(8, 3, seed=11)


# (1, 0) and (2, 1) have exactly the n - 1 edges that connect n vertices
@pytest.mark.parametrize("n, d", [(1, 0), (2, 1), (4, 3), (6, 3), (8, 2), (8, 5), (10, 3)])
def test_connected_sampler_keeps_a_connected_first_sample(n, d):
    connected_first = 0
    for seed in range(40):
        g = random_regular_multigraph(n, d, seed)
        if is_connected(g):
            connected_first += 1
            assert random_connected_regular_multigraph(n, d, seed).edges() == g.edges()
    assert connected_first > 0


def test_connected_sampler_resample_stream_pinned():
    # the first sample for this seed is disconnected, so this pins the reshuffles
    assert not is_connected(random_regular_multigraph(6, 3, seed=0))
    assert random_connected_regular_multigraph(6, 3, seed=0).edges() == [
        (0, 2, 3), (1, 0, 4), (2, 3, 5), (3, 0, 2), (4, 1, 1),
        (5, 4, 5), (6, 1, 2), (7, 3, 5), (8, 0, 4),
    ]


def test_connected_sampler_gives_up_after_max_tries(monkeypatch):
    # every sample reads as disconnected, so the sampler stops after MAX_TRIES draws
    drawn = []

    def never_connected(g):
        drawn.append(g)
        return False

    monkeypatch.setattr(regfactor.generators, "is_connected", never_connected)
    with pytest.raises(ValueError, match="after 2000 tries"):
        random_connected_regular_multigraph(6, 3, seed=0)
    assert len(drawn) == regfactor.generators.MAX_TRIES == 2000


# -- named graphs and controls --------------------------------------------------------


def test_complement_c5_is_c5(c5):
    co = complement(c5)
    assert co.regular_degree() == 2
    assert is_connected(co)
    assert co.n == 5


def test_complement_complete():
    assert complement(complete_graph(4)).m == 0


def test_complement_rejects_multigraph():
    with pytest.raises(ValueError):
        complement(Multigraph.from_edges(2, [(0, 1), (0, 1)]))


def test_petersen_is_cubic():
    g = petersen_graph()
    assert g.regular_degree() == 3
    assert g.is_simple()


@pytest.mark.parametrize("r, k", [(1, 1), (2, 1), (4, 3)])
def test_bridged_chain_control(r, k):
    p = 2 * r + 4 - 3 * k
    g = bridged_chain(r, p)
    assert g.regular_degree() == 2 * r + 1
    assert len(bridges(g)) == p
    assert is_connected(g)
    assert has_2k_factor(g, k)


# -- pinned output ------------------------------------------------------------------
#
# The perfbench digests pin factor edge ids and certificate vertex ids, so
# every family must keep its vertex numbering and its edge-id order, not only
# its edge multiset.  tests/data/generator_graphs.jsonl holds the sha256 of
# each graph's to_mgf text, named by family and index.

PINNED_FAMILIES = {
    "complete": lambda: [complete_graph(n) for n in range(2, 9)],
    "h_rt": lambda: [h_rt(r, t) for r, t in RT_PAIRS],
    "bsw": lambda: [bsw_graph(BswParams(r, t)) for r, t in RT_PAIRS],
    "deficiency": lambda: [deficiency_component(r, d)[0] for r in range(1, 5) for d in (1, 3)],
    "chain": lambda: [bridged_chain(r, 2 * r + 4 - 3 * k) for r, k in RK_PAIRS],
    "extremal": lambda: [general_extremal(p, 0) for r, k in RK_PAIRS for p in extremal_parameter_grid(r, k)],
    "random": lambda: (
        [random_multigraph(n, m, seed) for n, m, seed in [(9, 13, 1), (10, 3, 2), (12, 25, 1_000_004)]]
        + [random_regular_multigraph(n, d, seed) for n, d, seed in [(9, 4, 0), (10, 3, 3), (11, 4, 1_000_012)]]
        + [random_connected_regular_multigraph(n, d, seed) for n, d, seed in [(30, 3, 0), (30, 9, 1), (80, 5, 2)]]
    ),
}


@pytest.fixture(scope="module")
def family_lines():
    return [
        hashed_line("graph", f"{family}-{i}", to_mgf(g))
        for family in sorted(PINNED_FAMILIES)
        for i, g in enumerate(PINNED_FAMILIES[family]())
    ]


@pytest.mark.parametrize("family", sorted(PINNED_FAMILIES))
def test_generator_output_pinned(family, family_lines):
    # the graphs are built once per module and every family's case pins the
    # whole file, so a moved graph fails each case and each names it
    assert_lines_pinned(family_lines, "generator_graphs.jsonl", "graph")


def _extremal_sweep_outcomes():
    """Every r <= 3 cell with diff <= 3 where allowed, |S| <= 3, blisters <= 6,
    extras <= 1 and every seed below |T|, named by cell and seed: the graph
    and (S, T), or the error."""
    for r in range(1, 4):
        for k in range(1, (2 * r + 1) // 3 + 1):
            for diff in range(1, 4) if 3 * k == 2 * r + 1 else (1,):
                for size_s in range(4):
                    for b in range(7) if size_s else (0,):
                        for x in (0, 1):
                            for seed in range(size_s + diff):
                                name = f"extremal-r{r}-k{k}-t{size_s + diff}-s{size_s}-b{b}-x{x}-seed{seed}"
                                try:
                                    params = ExtremalParams(r, k, size_s + diff, size_s, b, x)
                                    g, s, t = general_extremal_with_partition(params, seed)
                                except ValueError as exc:
                                    yield name, f"error: {exc}\n"
                                else:
                                    yield name, to_mgf(g) + repr((s, t)) + "\n"


def test_extremal_builder_outcomes_pinned():
    outcomes = list(_extremal_sweep_outcomes())
    assert len(outcomes) == 900
    assert sum(text.startswith("error: ") for _, text in outcomes) == 58
    outcomes += [(f"chain-r{r}-p{p}", to_mgf(bridged_chain(r, p))) for r in range(1, 4) for p in range(1, 5)]
    lines = [hashed_line("instance", name, text) for name, text in outcomes]
    assert_lines_pinned(lines, "extremal_outcomes.jsonl", "instance")
