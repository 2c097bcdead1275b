import pytest
from hypothesis import given

from regfactor.generators import BswParams, bsw_graph, complete_graph, cycle_graph
from regfactor.io import from_graph6, from_mgf, to_dot, to_graph6, to_mgf
from regfactor.multigraph import Multigraph

from helpers import assert_lines_pinned, hashed_line, multigraphs, simple_graphs


def test_mgf_fixed_text():
    g = Multigraph.from_edges(3, [(0, 1), (1, 1), (0, 2)])
    assert to_mgf(g) == "mgf 3 3\n0 1\n1 1\n0 2\n"


@given(multigraphs())
def test_mgf_round_trip(g):
    text = to_mgf(g)
    back = from_mgf(text)
    assert back == g
    assert to_mgf(back) == text


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("graph 3 1\n0 1\n", 1),
        ("mgf 3 two\n", 1),
        ("mgf 2 1\n0\n", 2),
        ("mgf 2 1\n0 5\n", 2),
        ("mgf 2 2\n0 1\n", 3),
        ("mgf -1 0\n", 1),
        ("mgf 3 -1\n", 1),
        ("mgf 0 1\n0 0\n", 1),
        ("mgf 0 1\n", 1),
    ],
)
def test_mgf_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ValueError, match=f"line {line}") as err:
        from_mgf(text)
    if " -" in text:  # a negative header count
        assert "non-negative" in str(err.value)
    if text.startswith("mgf 0 "):  # edges promised, but no vertex to end on
        assert "the graph has no vertices, so no edge line can be read" in str(err.value)


def test_mgf_reads_graph6s_largest_size():
    # from_mgf and to_mgf refuse n > 258047, graph6's limit, but not n = 258047 itself
    g = from_mgf("mgf 258047 0\n")
    assert (g.n, g.m) == (258047, 0)
    assert to_mgf(g) == "mgf 258047 0\n"


def test_mgf_writer_refuses_what_the_reader_refuses():
    with pytest.raises(ValueError, match="at most 258047 vertices, got 258048"):
        to_mgf(Multigraph(258_048))


def test_graph6_known_strings():
    assert to_graph6(complete_graph(4)) == "C~"
    assert to_graph6(cycle_graph(5)) == "Dhc"
    assert from_graph6("C~") == complete_graph(4)


def test_graph6_header_tolerated():
    assert from_graph6(">>graph6<<C~\n") == complete_graph(4)


@pytest.mark.parametrize(
    "text",
    [
        "A_garbage",  # characters after the packed matrix
        "C~~",
        "A_\nA_",  # a second graph on the next line
        "C",  # matrix too short
        "!",  # size byte below '?'
        "\x7f",  # size byte above '~'
        "~!??",  # long-form size bytes out of range
        "~?\x7f?",
        "~??!",
        "~??",
        "",
    ],
)
def test_graph6_malformed_rejected(text):
    with pytest.raises(ValueError, match="graph6 parse error"):
        from_graph6(text)


@given(simple_graphs())
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


def test_graph6_rejects_multigraphs():
    with pytest.raises(ValueError):
        to_graph6(Multigraph.from_edges(2, [(0, 1), (0, 1)]))
    with pytest.raises(ValueError):
        to_graph6(Multigraph.from_edges(1, [(0, 0)]))


def test_graph6_rejects_too_many_vertices_before_encoding():
    # the size check comes first: the packed bytes alone would take about 5.5 GB
    with pytest.raises(ValueError, match="at most 258047 vertices, got 258048"):
        to_graph6(Multigraph(258_048))


def test_graph6_large_graph_prefix():
    g = bsw_graph(BswParams(2, 1))
    # 38 < 63, still single-character prefix; force the long form with a big empty graph
    big = Multigraph(100)
    assert from_graph6(to_graph6(big)) == big
    assert from_graph6(to_graph6(g)) == g


def test_graph6_long_prefix_host_with_edges_pinned():
    g = bsw_graph(BswParams(3, 1))
    text = to_graph6(g)
    assert (g.n, g.m, text[0]) == (66, 231, "~")
    assert_lines_pinned([hashed_line("host", "bsw-r3-t1", text)], "graph6_texts.jsonl", "host")
    back = from_graph6(text)
    assert back == g
    # edges are decoded column by column: by larger endpoint, then smaller
    pairs = [(u, v) for _, u, v in back.edges()]
    assert pairs == sorted(pairs, key=lambda e: (e[1], e[0]))


def test_graph6_padding_bits_ignored():
    # "Bw" is the triangle with zero padding; "B~" sets the three padding bits
    assert from_graph6("B~").edges() == from_graph6("Bw").edges() == complete_graph(3).edges()


def test_dot_export():
    g = Multigraph.from_edges(3, [(0, 1), (1, 1)])
    text = to_dot(g)
    assert text.startswith("graph G {")
    assert "  0 -- 1;" in text
    assert "  1 -- 1;" in text
    assert "  2;" in text
