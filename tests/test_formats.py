import random

import pytest

from orckit import cli, formats, graphs
from orckit.families import (complete, cycle, dodecahedral, hypercube,
                             icosidodecahedron, petersen, random_regular, star)
from orckit.formats import parse_edge_list, parse_graph6, write_edge_list, write_graph6
from orckit.graphs import VERTEX_LIMIT, Graph


def test_graph6_k4_frozen():
    # hand-encoded: header chr(4+63)='C', upper triangle all ones -> 63+63='~'
    assert write_graph6(complete(4)) == "C~"
    assert parse_graph6("C~") == complete(4)


def test_graph6_small_values():
    assert write_graph6(Graph(0)) == "?"
    assert write_graph6(Graph(1)) == "@"
    assert write_graph6(Graph(2, [(0, 1)])) == "A_"
    assert parse_graph6("A_") == Graph(2, [(0, 1)])


def test_graph6_round_trips():
    for g in (petersen(), dodecahedral(), icosidodecahedron(), hypercube(4),
              star(5), cycle(12), Graph(5), Graph(1)):
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_large_n_header():
    g = random_regular(70, 3, 42)
    text = write_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g


def test_graph6_optional_prefix_and_whitespace():
    g = petersen()
    assert parse_graph6(">>graph6<<" + write_graph6(g)) == g
    assert parse_graph6(write_graph6(g) + "\n") == g


def test_graph6_malformed():
    with pytest.raises(ValueError, match="position"):
        parse_graph6("C!")  # '!' is below the graph6 byte range
    with pytest.raises(ValueError, match="body bytes"):
        parse_graph6("C~~")
    with pytest.raises(ValueError, match="body bytes"):
        parse_graph6("C")
    with pytest.raises(ValueError, match="empty"):
        parse_graph6("")
    with pytest.raises(ValueError, match="padding"):
        # n=3 needs 3 bits; set a padding bit: value 1 -> chr(64)
        parse_graph6("B" + chr(63 + 1))


def test_edge_list_round_trips():
    for g in (petersen(), Graph(4, [(0, 1)]), Graph(3), star(4)):
        assert parse_edge_list(write_edge_list(g)) == g


def test_edge_list_parsing():
    assert parse_edge_list("0 1\n1 2") == Graph(3, [(0, 1), (1, 2)])
    assert parse_edge_list("# comment\n0 1   # trailing\n\nn 5\n") == Graph(5, [(0, 1)])
    assert parse_edge_list("") == Graph(0)


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2.*self-loop"):
        parse_edge_list("0 1\n2 2")
    with pytest.raises(ValueError, match="line 3.*duplicate edge"):
        parse_edge_list("0 1\n1 2\n1 0")
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("0 1 2")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("0 1\nx y")
    with pytest.raises(ValueError, match="duplicate header"):
        parse_edge_list("n 3\nn 4")
    with pytest.raises(ValueError, match="header declares"):
        parse_edge_list("n 2\n0 5")
    with pytest.raises(ValueError, match="negative"):
        parse_edge_list("-1 2")
    # a long line, such as a graph6 text read as an edge list, is quoted cut
    with pytest.raises(ValueError) as exc:
        parse_edge_list("~" * 10 ** 5)
    assert str(exc.value) == "edge list line 1: expected 'u v', got '" + "~" * 64 + "'..."


def test_edge_list_vertex_count_bound(monkeypatch):
    # An oversized count is rejected before any Graph is built; with Graph
    # replaced by a recorder, the count at the limit still reaches it.
    built = []
    monkeypatch.setattr(formats, "Graph", lambda n, edges: built.append(n))
    for text in (f"n {VERTEX_LIMIT + 1}\n0 1", "n 1000000000", "0 999999999"):
        with pytest.raises(ValueError, match=f"exceed the desk-scale limit of {VERTEX_LIMIT}"):
            parse_edge_list(text)
    assert built == []
    parse_edge_list(f"n {VERTEX_LIMIT}\n0 1")
    assert built == [VERTEX_LIMIT]


def test_graph6_edge_count_bound(monkeypatch):
    # The edge count is read off the body's set bits and checked before the
    # edge list is built; with Graph replaced by a recorder, an
    # oversized graph never reaches it and one at the limit does.
    k4_minus_edge = write_graph6(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    built = []
    monkeypatch.setattr(formats, "Graph", lambda n, edges: built.append((n, len(edges))))
    monkeypatch.setattr(graphs, "EDGE_LIMIT", 5)
    with pytest.raises(ValueError, match="graph6: 6 edges exceed the desk-scale limit of 5"):
        parse_graph6("C~")  # K4
    assert built == []
    parse_graph6(k4_minus_edge)
    assert built == [(4, 5)]


def test_formats_round_trip_generator_sweep():
    graphs = [complete(n) for n in range(1, 7)]
    graphs += [cycle(n) for n in range(3, 9)]
    graphs += [random_regular(12, 3, s) for s in range(4)]
    for g in graphs:
        assert parse_graph6(write_graph6(g)) == g
        assert parse_edge_list(write_edge_list(g)) == g


def _triangle_walk(text: str) -> Graph:
    """graph6 decoded the long way: every bit of the upper triangle in
    column order, then the pairs whose bit is set."""
    data = text.encode("ascii")
    if data[0] == 126:
        n, body = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    bits = [(b - 63) >> s & 1 for b in body for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph(n, [pair for pair, bit in zip(pairs, bits) if bit])


def test_graph6_parser_walks_set_bits_to_the_same_graph():
    # each family at two parameter sets (some need odd or larger n), and
    # seeded random graphs of every density, small and extended headers
    graphs = []
    for family, (build, need) in cli._FAMILIES.items():
        built = 0
        for n in (7, 8):
            try:
                graphs.append(build(*[{"n": n, "m": 6, "l": 2, "d": 3, "seed": 1}[p]
                                      for p in need]))
                built += 1
            except ValueError:
                pass
        assert built, family
    rng = random.Random(13)
    for _ in range(200):
        n, p = rng.randint(0, 90), rng.random()
        graphs.append(Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]))
    for g in graphs:
        text = write_graph6(g)
        assert parse_graph6(text) == _triangle_walk(text) == Graph(g.n, g.edges()), text
