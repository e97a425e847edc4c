import random

import pytest

from orckit import cli, formats, graphs
from orckit.families import (complete, cycle, dodecahedral, hypercube,
                             icosidodecahedron, petersen, random_regular, star, torus_grid)
from orckit.formats import parse_edge_list, parse_graph6, write_edge_list, write_graph6
from orckit.graphs import VERTEX_LIMIT, Graph

from helpers import oracle_graphs, to_networkx


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


def test_graph6_writer_body_budget(monkeypatch):
    # a graph6 body has n(n-1)/12 bytes whatever the edge count: one past the
    # budget is refused before it is allocated, naming the edge-list format,
    # and n = 40,132 is the largest the budget admits
    with pytest.raises(ValueError, match=r"^graph6: n=40133 needs 134218130 body bytes, "
                                         r"over the budget of 134217728; .*edgelist"):
        write_graph6(Graph(40_133))
    assert (40_132 * 40_131 // 2 + 5) // 6 <= formats._G6_BODY_BUDGET
    monkeypatch.setattr(formats, "_G6_BODY_BUDGET", 8)  # n = 10: 45 bits, 8 bytes
    assert parse_graph6(write_graph6(cycle(10))) == cycle(10)
    with pytest.raises(ValueError, match="needs 10 body bytes"):
        write_graph6(Graph(11))


def test_graph6_optional_prefix_and_whitespace():
    g = petersen()
    assert parse_graph6(">>graph6<<" + write_graph6(g)) == g
    assert parse_graph6(write_graph6(g) + "\n") == g
    assert parse_graph6(" \x1c>>graph6<<" + write_graph6(g) + "\r\n\x1f") == g


def test_graph6_bytes_parse_as_their_text():
    # read_graph hands the parser a file's bytes: each gives the graph, or
    # the error message, of the same text as a str
    body = write_graph6(petersen())
    for text in (body, body + "\n", "\t>>graph6<<" + body + " \x0b", "C~", "A_", "", " \n ",
                 ">>graph6<<", ">>graph6<< C~", "C~ x", "C!", "C~~", "C", "B@", "~??", "~~???",
                 "I??????!?", "I?\x7f", " >>graph6<<\n"):
        try:
            expected = parse_graph6(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                parse_graph6(text.encode("ascii"))
            assert str(got.value) == str(exc), text
        else:
            assert parse_graph6(text.encode("ascii")) == expected, text


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
    # the whole message, for a bad byte deep in the body, DEL and a
    # non-ASCII character
    for text, bad in (("I??????!?", "byte 33 at position 7"), ("I?\x7f", "byte 127 at position 2"),
                      ("I???\u00e9", "byte 233 at position 4")):
        with pytest.raises(ValueError) as exc:
            parse_graph6(text)
        assert str(exc.value) == f"graph6: {bad} outside 63..126"


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
    # a number of 5,000 digits, past int()'s 4,300, is refused before int() reads it
    huge = "9" * 5000
    for text in (f"n {VERTEX_LIMIT + 1}\n0 1", "n 1000000000", "0 999999999",
                 f"n {huge}", f"0 1\n0 {huge}"):
        with pytest.raises(ValueError, match=f"exceed the desk-scale limit of {VERTEX_LIMIT}"):
            parse_edge_list(text)
    with pytest.raises(ValueError, match="^edge list line 2: a vertex of more than 7 digits"):
        parse_edge_list(f"0 1\n0 {huge}")
    with pytest.raises(ValueError, match="^edge list line 1: a count of more than 7 digits"):
        parse_edge_list(f"n {huge}")
    # only ASCII digits reach int(), which would also read these signs,
    # underscores and Arabic-Indic digits; a minus sign is refused at any length
    for text, message in (("0 1_0", "non-integer vertex"), ("+0 3", "non-integer vertex"),
                          (f"0 -{huge}", "negative vertex"),
                          ("0 \u0661", "non-integer vertex"), ("n \u0661", "malformed header")):
        with pytest.raises(ValueError, match=f"^edge list line 1: {message} "):
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
    bits = ((b - 63) >> s & 1 for b in body for s in range(5, -1, -1))
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return Graph(n, [pair for pair, bit in zip(pairs, bits) if bit])


def _triangle_write(g: Graph) -> str:
    """graph6 encoded the long way: every bit of the upper triangle in
    column order, zero-padded and packed six bits per byte."""
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = [int(i in g.adj[j]) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    return head + "".join(chr(63 + sum(b << 5 - s for s, b in enumerate(bits[k:k + 6])))
                          for k in range(0, len(bits), 6))


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
        assert text == _triangle_write(g), g.edges()
        assert parse_graph6(text) == _triangle_walk(text) == Graph(g.n, g.edges()), text


def test_graph6_parser_on_large_sparse_graphs():
    # bodies of nearly all '?' bytes: square tori, and seeded random graphs
    # of n >= 63 (the extended header), decode as the walk over every bit
    # does; the 100x100 torus, 50 million bits that the walk takes about
    # 10 s over, against the graph built from its edges
    rng = random.Random(31)
    graphs = [torus_grid(k, k) for k in (6, 7, 8, 30, 50)]
    for _ in range(20):
        n, p = rng.randint(63, 300), rng.choice((0.002, 0.02, 0.2))
        graphs.append(Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]))
    graphs.append(torus_grid(100, 100))
    for g in graphs:
        text = write_graph6(g)
        got = parse_graph6(text)
        assert got == Graph(g.n, g.edges()), g.n
        assert g.n >= 10_000 or got == _triangle_walk(text), g.n


def test_graph6_matches_networkx():
    # both directions against networkx's own graph6 codec; hypercube(6) and
    # torus_grid(9, 9) take the 4-byte size header
    nx = pytest.importorskip("networkx")
    for g in oracle_graphs() + [hypercube(6), torus_grid(9, 9)]:
        ours = write_graph6(g)
        theirs = nx.to_graph6_bytes(to_networkx(nx, g), nodes=range(g.n), header=False)
        assert ours.encode("ascii") + b"\n" == theirs
        assert parse_graph6(theirs.decode("ascii")) == g
        back = nx.from_graph6_bytes(ours.encode("ascii"))
        assert (back.number_of_nodes(), sorted(map(sorted, back.edges()))) == \
            (g.n, [list(e) for e in g.edges()])
