import random

import pytest

from orckit.families import (cocktail_party, complete, complete_bipartite, cycle,
                             enumerate_graphs, path, petersen, star)
from orckit.graphs import (Graph, INFINITY, ball, cartesian_product, common_neighbors,
                           diameter, distance, distances_from, girth, is_connected,
                           is_regular, min_degree, sphere)

from helpers import brute_girth


def test_constructor_validates():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(-1)
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])  # set semantics
    assert g.edge_count == 1
    assert Graph(0).edges() == []


def test_distance_examples():
    p3 = path(3)
    assert distance(p3, 0, 2) == 2
    assert distance(p3, 1, 1) == 0
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert distance(two_edges, 0, 3) is INFINITY


def test_distance_cap():
    p = path(8)
    assert distance(p, 0, 6, cap=3) is INFINITY
    assert distance(p, 0, 4, cap=3) is INFINITY
    assert distance(p, 0, 3, cap=3) == 3
    d = distances_from(p, 0, cap=2)
    assert d[:3] == [0, 1, 2] and d[3] is INFINITY


def test_sphere_ball_examples():
    c6 = cycle(6)
    assert sphere(c6, 0, 3) == {3}
    assert sphere(complete(4), 0, 1) == {1, 2, 3}
    assert ball(c6, 0, 1) == {0, 1, 5}
    assert sphere(c6, 0, 0) == {0}


def test_sphere_ball_consistency():
    for g in (petersen(), cycle(7), complete_bipartite(2, 3)):
        for x in range(g.n):
            for r in range(4):
                assert len(ball(g, x, r)) == sum(len(sphere(g, x, i)) for i in range(r + 1))
            assert len(sphere(g, x, 1)) == g.degree(x)


def test_common_neighbors_examples():
    assert common_neighbors(complete(4), 0, 1) == {2, 3}
    assert common_neighbors(cycle(6), 0, 1) == set()
    assert common_neighbors(complete_bipartite(3, 3), 0, 3) == set()
    with pytest.raises(ValueError):
        common_neighbors(cycle(6), 2, 2)


def test_girth_examples():
    assert girth(petersen()) == 5
    assert girth(complete_bipartite(3, 3)) == 4
    assert girth(star(5)) is INFINITY


def test_girth_matches_brute_force_small():
    rng = random.Random(4)
    seen = 0
    for g in enumerate_graphs(5):
        if rng.random() < 0.02:
            assert girth(g) == brute_girth(g)
            seen += 1
    assert seen > 10
    for g in (cycle(8), petersen(), cocktail_party(3)):
        assert girth(g) == brute_girth(g)


def test_diameter_examples():
    assert diameter(complete(7)) == 1
    assert diameter(cycle(8)) == 4
    assert diameter(petersen()) == 2
    assert diameter(Graph(4, [(0, 1), (2, 3)])) is INFINITY
    assert diameter(Graph(1)) == 0


def test_degree_queries():
    assert is_regular(cocktail_party(3)) == 4
    assert is_regular(star(4)) is None
    assert is_regular(complete(5)) == 4
    assert min_degree(star(4)) == 1
    with pytest.raises(ValueError):
        min_degree(Graph(0))


def test_metric_properties_sampled():
    rng = random.Random(11)
    for g in (petersen(), cocktail_party(3), cycle(9)):
        for _ in range(40):
            u, v, w = (rng.randrange(g.n) for _ in range(3))
            assert distance(g, u, v) == distance(g, v, u)
            assert distance(g, u, w) <= distance(g, u, v) + distance(g, v, w)


def test_cartesian_product_examples():
    q2 = cartesian_product(complete(2), complete(2))
    assert q2.n == 4 and q2.edge_count == 4 and is_regular(q2) == 2 and girth(q2) == 4
    g = cartesian_product(cycle(6), complete(2))
    assert g.n == 12 and is_regular(g) == 3
    t = cartesian_product(cycle(6), cycle(6))
    assert t.n == 36 and is_regular(t) == 4 and girth(t) == 4


def test_cartesian_product_degrees():
    g, h = star(3), cycle(5)
    prod = cartesian_product(g, h)
    for x in range(g.n):
        for y in range(h.n):
            assert prod.degree(x * h.n + y) == g.degree(x) + h.degree(y)


def test_cartesian_product_errors():
    with pytest.raises(ValueError):
        cartesian_product(Graph(0), cycle(3))
    with pytest.raises(ValueError):
        cartesian_product(complete(2000), complete(2000))


def test_connectivity():
    assert is_connected(petersen())
    assert not is_connected(Graph(3, [(0, 1)]))
    assert is_connected(Graph(0))


def test_adjacency_is_sorted_and_symmetric():
    g = petersen()
    for u in range(g.n):
        assert list(g.adj[u]) == sorted(g.adj[u])
        for v in g.adj[u]:
            assert u in g.adj[v]
            assert v != u
