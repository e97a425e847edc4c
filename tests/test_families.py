import re
import subprocess
import sys
from itertools import combinations

import pytest

from orckit import families
from orckit.cli import main
from orckit.families import (bi_antiprism, cocktail_party, complete, complete_bipartite,
                             cycle, dodecahedral, enumerate_graphs, hypercube,
                             icosidodecahedron, klein_bottle, near_cocktail, path,
                             petersen, random_regular, star, torus_grid, twisted_torus)
from orckit.graphs import Graph, diameter, is_connected, is_regular
from orckit.verify import default_corpus

from helpers import brute_connected, child_env, girth, stdlib_random_regular, to_networkx


def test_basic_families():
    assert complete(1).edge_count == 0
    k4 = complete(4)
    assert k4.edge_count == 6 and is_regular(k4) == 3
    assert diameter(complete(5)) == 1
    c6 = cycle(6)
    assert is_regular(c6) == 2 and girth(c6) == 6
    assert path(2).edge_count == 1
    assert sorted(star(3).degree(v) for v in range(4)) == [1, 1, 1, 3]


def test_family_parameter_bounds():
    for bad in (lambda: complete(0), lambda: cycle(2), lambda: path(0), lambda: star(0),
                lambda: complete_bipartite(0, 2), lambda: hypercube(0),
                lambda: cocktail_party(1), lambda: near_cocktail(4), lambda: near_cocktail(1),
                lambda: bi_antiprism(5), lambda: torus_grid(6, 5),
                lambda: twisted_torus(5, 6, 1), lambda: twisted_torus(8, 2, 3),
                lambda: twisted_torus(8, 3, 5), lambda: klein_bottle(5, 6)):
        with pytest.raises(ValueError):
            bad()


def test_bipartite_and_hypercube():
    k33 = complete_bipartite(3, 3)
    assert girth(k33) == 4 and is_regular(k33) == 3
    assert hypercube(2).n == 4 and girth(hypercube(2)) == 4
    q3 = hypercube(3)
    assert q3.n == 8 and is_regular(q3) == 3 and girth(q3) == 4
    for k in range(1, 6):
        q = hypercube(k)
        assert q.n == 2 ** k and q.edge_count == k * 2 ** (k - 1)


def test_cocktail_party():
    c4 = cocktail_party(2)
    assert c4.n == 4 and is_regular(c4) == 2 and girth(c4) == 4  # a 4-cycle
    cp = cocktail_party(3)
    assert cp.n == 6 and is_regular(cp) == 4
    assert is_regular(cocktail_party(4)) == 6
    # vertex 2i misses only 2i+1
    for k in (2, 3, 4):
        g = cocktail_party(k)
        for i in range(k):
            missing = set(range(2 * k)) - set(g.adj[2 * i]) - {2 * i}
            assert missing == {2 * i + 1}


def test_near_cocktail():
    assert sorted(near_cocktail(3).degree(v) for v in range(3)) == [1, 1, 2]  # P_3
    assert sorted(near_cocktail(5).degree(v) for v in range(5)) == [3, 3, 3, 3, 4]
    assert sorted(near_cocktail(7).degree(v) for v in range(7)) == [5, 5, 5, 5, 5, 5, 6]


def test_petersen_dodecahedral():
    p = petersen()
    assert p.n == 10 and is_regular(p) == 3 and girth(p) == 5
    assert diameter(p) == 2
    d = dodecahedral()
    assert d.n == 20 and is_regular(d) == 3 and girth(d) == 5


def test_icosidodecahedron_face_structure():
    g = icosidodecahedron()
    assert g.n == 30 and g.edge_count == 60
    assert is_regular(g) == 4 and girth(g) == 3
    triangles = [t for t in combinations(range(30), 3)
                 if g.has_edge(t[0], t[1]) and g.has_edge(t[0], t[2]) and g.has_edge(t[1], t[2])]
    assert len(triangles) == 20
    # every edge lies in exactly one triangle ...
    for x, y in g.edges():
        assert len(set(g.adj[x]) & set(g.adj[y])) == 1
    # ... and exactly one chordless pentagon
    per_edge = {e: 0 for e in g.edges()}
    pentagons = 0
    for vs in combinations(range(30), 5):
        induced = {v: set(g.adj[v]) & set(vs) for v in vs}
        if all(len(nb) == 2 for nb in induced.values()):
            pentagons += 1
            for v in vs:
                for w in induced[v]:
                    if v < w:
                        per_edge[(v, w)] += 1
    assert pentagons == 12
    assert all(count == 1 for count in per_edge.values())


def test_bi_antiprism():
    g = bi_antiprism(6)
    assert g.n == 12 and g.edge_count == 24 and is_regular(g) == 4
    assert is_regular(bi_antiprism(7)) == 4
    assert girth(bi_antiprism(8)) == 4


def test_torus_families():
    from orckit.graphs import cartesian_product
    t = torus_grid(6, 6)
    c6c6 = cartesian_product(cycle(6), cycle(6))
    # identical adjacency under (i, j) -> i*6 + j
    assert t == c6c6
    tt = twisted_torus(7, 5, 2)
    assert tt.n == 35 and is_regular(tt) == 4
    kb = klein_bottle(6, 6)
    assert kb.n == 36 and is_regular(kb) == 4
    assert is_regular(torus_grid(8, 7)) == 4
    assert is_regular(klein_bottle(7, 6)) == 4


def test_random_regular():
    g = random_regular(10, 3, 1)
    assert is_regular(g) == 3 and g.n == 10
    assert is_regular(random_regular(8, 4, 0)) == 4
    assert random_regular(8, 4, 0) == random_regular(8, 4, 0)  # deterministic
    assert random_regular(8, 4, 1) != random_regular(8, 4, 2)
    with pytest.raises(ValueError):
        random_regular(5, 3, 0)
    with pytest.raises(ValueError):
        random_regular(4, 4, 0)
    # K10 is rare: its expected pairing work is refused before any pairing
    with pytest.raises(ValueError, match=r"random_regular\(10,9\): .* exceeds 1e\+08 stub"):
        random_regular(10, 9, 1)
    # the 20000-vertex 40-regular request would shuffle 800,000 stubs per
    # pairing for over an hour; the timeout fails the test if it is not refused
    proc = subprocess.run([sys.executable, "-m", "orckit.cli", "gen", "--family",
                           "random-regular", "--n", "20000", "--d", "40", "--seed", "1"],
                          capture_output=True, text=True, env=child_env(), timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error: random_regular(20000,40): ")
    assert proc.stderr.count("\n") == 1


def test_random_regular_replays_the_stdlib_shuffle():
    # every random graph of a default corpus; d = 0 and d = 1; and K6 and
    # 5-regular graphs on 8 vertices, whose pairings restart 141 to 6,181
    # times over these seeds
    shapes = {(n, d) for n in (1, 2, 5, 8) for d in (0, 1) if d < n and n * d % 2 == 0}
    shapes |= {(6, 5), (8, 5), (9, 4), (13, 2)}
    for seed in range(4):
        for n, d in sorted(shapes):
            assert random_regular(n, d, seed) == stdlib_random_regular(n, d, seed), (n, d, seed)
    corpus = [(label, g) for label, g in default_corpus(2024) if label.startswith("random_regular")]
    assert len(corpus) == 50
    for label, g in corpus:
        n, d, seed = map(int, re.findall(r"\d+", label))
        assert g == stdlib_random_regular(n, d, seed), label


def test_random_regular_stops_when_its_placements_reach_the_budget(monkeypatch, capsys):
    # random_regular(9, 6, 44) finds a simple pairing on its 10,091st
    # shuffle, after 544,914 stub placements: well inside the 10^8 budget
    g = random_regular(9, 6, 44)
    assert is_regular(g) == 6 and g == stdlib_random_regular(9, 6, 44)
    for budget, found in ((54 * 10_091, True), (54 * 10_090 + 1, True), (54 * 10_090, False)):
        monkeypatch.setattr(families, "_PAIRING_BUDGET", budget)
        if found:
            assert random_regular(9, 6, 44) == g
            continue
        message = f"random_regular(9,6): the pairing model found no simple pairing in {budget:.0e}"
        for build in (random_regular, stdlib_random_regular):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(9, 6, 44)
        assert main(["gen", "--family", "random-regular", "--n", "9", "--d", "6",
                     "--seed", "44"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: " + message)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64
    graphs4 = [g.adj for g in enumerate_graphs(4)]
    assert len(set(graphs4)) == 64  # no duplicates
    with pytest.raises(ValueError):
        next(enumerate_graphs(8))


def _bit_by_bit_graphs(n):
    """Every labeled graph on n vertices in ascending edge-mask order, one
    mask bit at a time through Graph(n, edges): bit b is the b-th pair of
    combinations(range(n), 2)."""
    pairs = list(combinations(range(n), 2))
    return [Graph(n, [pairs[b] for b in range(len(pairs)) if mask >> b & 1])
            for mask in range(1 << len(pairs))]


def test_enumerate_connected_matches_brute_force():
    connected_counts = [1, 1, 4, 38, 728, 26704]  # OEIS A001187
    for n in range(1, 7):
        every = _bit_by_bit_graphs(n)
        connected = [g for g in every if brute_connected(g)]
        assert len(connected) == connected_counts[n - 1]
        for only, want in ((False, every), (True, connected)):
            got = list(enumerate_graphs(n, connected_only=only))
            assert got == want, (n, only)
            assert [hash(g) for g in got] == [hash(g) for g in want], (n, only)


def test_enumerate_connected_matches_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(1, 6):
        connected = set(enumerate_graphs(n, connected_only=True))
        for g in enumerate_graphs(n):
            assert (g in connected) == nx.is_connected(to_networkx(nx, g)), g.adj


def test_generators_produce_valid_graphs():
    gens = [complete(5), cycle(7), path(4), star(5), complete_bipartite(2, 4),
            hypercube(4), cocktail_party(4), near_cocktail(7), petersen(),
            dodecahedral(), icosidodecahedron(), bi_antiprism(9), torus_grid(6, 7),
            twisted_torus(8, 4, 2), klein_bottle(7, 6), random_regular(12, 4, 3)]
    for g in gens:
        for u in range(g.n):
            for v in g.adj[u]:
                assert v != u and u in g.adj[v]
        assert is_connected(g)
