import math
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from orckit import curvature, graphs, transport
from orckit.curvature import (ConsistencyError, assignment_instance, edge_record,
                              idleness_function, is_bone_idle,
                              is_bone_idle_edge, is_ricci_flat, is_zero_ricci_flat,
                              kappa_alpha, kappa_lly, kappa_lly_assignment, kappa_zero,
                              kappa_zero_assignment, local_structure)
from orckit.families import (cocktail_party, complete, complete_bipartite, cycle,
                             dodecahedral, hypercube, icosidodecahedron, near_cocktail,
                             path, petersen, random_regular, star, torus_grid)
from orckit.graphs import Graph, distances_from
from orckit.verify import check_edge_properties

from helpers import (ASSIGNMENT_FAULTS, brute_optimal_permutations, corrupt_assignment_input,
                     corrupt_assignment_optimum, mu_alpha, mw_kappa, oracle_graphs,
                     random_connected_graph, to_networkx, wasserstein1)


def _profile(g):
    """The record of every edge of g, in sorted edge order."""
    return [edge_record(g, x, y) for x, y in g.edges()]


def test_kappa_alpha_examples():
    for g in (cycle(6), complete(4), petersen()):
        x, y = g.edges()[0]
        assert kappa_alpha(g, x, y, 1) == 0
    assert kappa_alpha(cycle(6), 0, 1, 0) == 0
    assert kappa_alpha(complete(2), 0, 1, 0) == 0
    with pytest.raises(ValueError):
        kappa_alpha(cycle(6), 0, 2, 0)  # not an edge
    for a in (F(-1, 3), F(4, 3), 2):
        with pytest.raises(ValueError, match="idleness"):
            kappa_alpha(cycle(6), 0, 1, a)


def test_idleness_is_an_int_or_a_fraction():
    # every function of the idleness refuses, as a ValueError, what is not an
    # int or a Fraction, instead of rounding a float, parsing a string or
    # overflowing on an infinity; 0, 1 and 1/3 keep their values
    for g, values in ((cycle(5), (0, 0, F(1, 3))), (petersen(), (F(-1, 3), 0, 0))):
        x, y = g.edges()[0]
        fn = idleness_function(g, x, y)
        for f in (lambda a: mu_alpha(g, x, a), lambda a: kappa_alpha(g, x, y, a), fn.value_at):
            for a in (0.1, "1/3", Decimal("0.5"), float("inf"), float("nan")):
                with pytest.raises(ValueError, match="is not an int or a Fraction"):
                    f(a)
        assert [kappa_alpha(g, x, y, a) for a in (0, 1, F(1, 3))] == list(values)
        assert [fn.value_at(a) for a in (0, 1, F(1, 3))] == list(values)
        d = g.degree(x)
        assert mu_alpha(g, x, 0) == {w: F(1, d) for w in g.adj[x]}
        assert mu_alpha(g, x, 1) == {x: 1}
        assert mu_alpha(g, x, F(1, 3)) == {x: F(1, 3), **{w: F(2, 3 * d) for w in g.adj[x]}}


def test_kappa_alpha_at_huge_denominators():
    # masses of order 1e9 and 1e12 must not multiply the solver's rounds.
    # The idleness function is linear on [1/(D+1), 1], where it falls to 0,
    # and on [0, 1/(lcm(d_x, d_y)+1)]; on these edges lcm(d_x, d_y) = D.
    tiny = F(1, 10 ** 12 + 39)
    for g in (petersen(), complete_bipartite(4, 4), torus_grid(6, 6), star(4)):
        for x, y in g.edges():
            knee = F(1, max(g.degree(x), g.degree(y)) + 1)
            a = knee + F(1, 10 ** 9 + 7)
            assert kappa_alpha(g, x, y, a) == kappa_lly(g, x, y) * (1 - a)
            f0, f1 = kappa_alpha(g, x, y, 0), kappa_alpha(g, x, y, knee)
            assert kappa_alpha(g, x, y, tiny) == f0 + (f1 - f0) * tiny / knee


def test_kappa_lly_closed_forms():
    for n in range(3, 11):
        g = complete(n)
        assert kappa_lly(g, 0, 1) == F(n, n - 1)
    for k in range(2, 7):
        q = hypercube(k)
        assert kappa_lly(q, *q.edges()[0]) == F(2, k)
        b = complete_bipartite(k, k)
        assert kappa_lly(b, 0, k) == F(2, k)
    assert kappa_lly(cycle(5), 0, 1) == F(1, 2)
    assert kappa_lly(complete(2), 0, 1) == 2


def test_kappa_lly_assignment_route():
    for k in range(2, 6):
        g = cocktail_party(k)
        assert kappa_lly_assignment(g, 0, 2) == 1
    p = petersen()
    assert kappa_lly_assignment(p, *p.edges()[0]) == 0
    assert kappa_lly_assignment(complete_bipartite(3, 3), 0, 3) == F(2, 3)
    with pytest.raises(ValueError, match="unequal"):
        kappa_lly_assignment(star(3), 0, 1)


def test_kappa_zero_examples():
    for k in range(2, 6):
        q = hypercube(k)
        assert kappa_zero(q, *q.edges()[0]) == 0
    st = star(4)
    assert kappa_zero(st, 0, 1) == 0
    p = petersen()
    assert kappa_zero(p, *p.edges()[0]) == F(-1, 3)
    assert kappa_zero_assignment(p, *p.edges()[0]) == F(-1, 3)


def test_petersen_kappa_zero_by_brute_force_bijections():
    # independent oracle: enumerate all bijections on the explicit 3x3 instance
    p = petersen()
    x, y = p.edges()[0]
    zero = curvature._edge(p, x, y).zero_instance
    left, right, cost = zero.left, zero.right, zero.cost
    assert len(left) == len(right) == 3
    best = min(sum(cost[i][perm[i]] for i in range(3)) for perm in permutations(range(3)))
    assert F(3 - best, 3) == F(-1, 3)
    assert kappa_zero(p, x, y) == F(3 - best, 3)


def test_route_agreement_across_small_graphs():
    rng = random.Random(12)
    graphs = [cocktail_party(3), petersen(), hypercube(3), cycle(7),
              random_regular(10, 4, 0), random_regular(12, 3, 1)]
    for g in graphs:
        for x, y in g.edges():
            assert kappa_lly(g, x, y) == kappa_lly_assignment(g, x, y)
            assert kappa_zero(g, x, y) == kappa_zero_assignment(g, x, y)
        _ = rng  # sampled corpus is already deterministic


def _gap(rec):
    """kappa - kappa_0 as the record's closed form gives it, with supsup."""
    return F(rec.gap_c, rec.dx), rec.supsup


def test_gap_examples():
    for n in range(3, 8):
        assert _gap(edge_record(complete(n), 0, 1)) == (F(2, n - 1), None)
    p = petersen()
    assert _gap(edge_record(p, *p.edges()[0])) == (F(1, 3), 2)
    assert _gap(edge_record(cycle(6), 0, 1)) == (F(0), 3)
    rec = edge_record(star(3), 0, 1)  # unequal degrees: no gap
    assert (rec.gap_c, rec.supsup) == (None, None)


def test_gap_class_in_range():
    for g in (petersen(), cocktail_party(4), hypercube(4), cycle(9), complete(6)):
        for x, y in g.edges():
            rec = edge_record(g, x, y)
            assert type(rec.gap_c) is int and rec.gap_c in (0, 1, 2)
            assert F(rec.gap_c, rec.dx) == rec.kappa_lly - rec.kappa0


def test_equality_condition_examples():
    assert edge_record(cycle(6), 0, 1).gap_c == 0
    q3 = hypercube(3)
    assert edge_record(q3, *q3.edges()[0]).gap_c != 0
    assert edge_record(complete(4), 0, 1).gap_c != 0
    # gap_c == 0 iff the two curvatures agree iff some optimal assignment
    # moves a vertex by distance 3
    corpus = [cycle(5), cycle(6), complete(4), petersen(), hypercube(3), hypercube(4),
              cocktail_party(3), complete_bipartite(3, 3), torus_grid(6, 6), dodecahedral(),
              icosidodecahedron(), near_cocktail(5), random_regular(12, 3, 1),
              random_regular(14, 4, 2)]
    seen = set()
    for g in corpus:
        for x, y in g.edges():
            if g.degree(x) != g.degree(y):
                continue
            rec = edge_record(g, x, y)
            holds = rec.gap_c == 0
            assert holds == (kappa_lly(g, x, y) == kappa_zero(g, x, y)) == (rec.supsup == 3)
            seen.add(holds)
    assert seen == {True, False}


def test_bone_idle_examples():
    assert is_bone_idle(torus_grid(6, 6))
    assert is_bone_idle(icosidodecahedron())
    assert not is_bone_idle(complete_bipartite(3, 3))
    assert is_bone_idle_edge(cycle(8), 0, 1)
    assert not is_bone_idle_edge(cycle(5), 0, 1)
    assert is_bone_idle(Graph(3))  # vacuous: no edges


def test_flatness_predicates():
    assert is_ricci_flat(petersen())
    assert not is_zero_ricci_flat(petersen())
    assert is_ricci_flat(dodecahedral())
    assert is_zero_ricci_flat(cycle(5))
    assert not is_ricci_flat(cycle(5))
    assert is_zero_ricci_flat(path(5))
    assert is_zero_ricci_flat(star(5))


def test_local_structure_torus_case():
    t = torus_grid(6, 6)
    ls = local_structure(t, *t.edges()[0])
    # flat with a distance-3 pair: some optimal assignment has N1 = d-2 = 2, N2 = 0
    rec = edge_record(t, *t.edges()[0])
    assert rec.nxy == 0 and rec.kappa_lly == 0 and rec.supsup == 3
    assert ls.bone_idle
    assert ls.k == 3 and ls.optimal_cost == 5
    assert ls.two_n1_plus_n2 == 2 * 4 - 4  # = 2*N1 + N2 with N1=2, N2=0


def test_local_structure_hypercube_matching():
    q3 = hypercube(3)
    x, y = q3.edges()[0]
    assert not local_structure(q3, x, y).bone_idle and edge_record(q3, x, y).supsup != 3
    # kappa_0 = 0 via a perfect matching between the full 1-spheres
    zero = curvature._edge(q3, x, y).zero_instance
    assert transport._hungarian(zero.cost)[0] == len(zero.left)  # every pair at distance 1
    assert kappa_zero(q3, x, y) == 0


def test_local_structure_k33():
    rec = edge_record(complete_bipartite(3, 3), 0, 3)
    assert rec.supsup != 3  # diameter 2
    assert rec.nxy == 0 and rec.kappa_lly != 0  # triangle-free, not flat


def test_local_structure_identity_enumerated():
    from orckit.curvature import assignment_instance
    for g in (petersen(), cocktail_party(3), torus_grid(6, 6), icosidodecahedron()):
        for x, y in list(g.edges())[:8]:
            ls = local_structure(g, x, y)
            _, _, cost = assignment_instance(g, x, y)
            assert ls.k <= 5
            for perm in permutations(range(ls.k)):
                dists = [cost[i][perm[i]] for i in range(ls.k)]
                if sum(dists) == ls.optimal_cost:
                    assert 2 * dists.count(1) + dists.count(2) == ls.two_n1_plus_n2


def test_curvature_profile():
    records = _profile(cycle(6))
    assert len(records) == 6 and all(r.bone_idle for r in records)
    records = _profile(petersen())
    assert len(records) == 15
    assert all(r.kappa_lly == 0 and r.kappa0 == F(-1, 3) for r in records)
    assert all(r.gap_c == 1 and r.supsup == 2 for r in records)
    records = _profile(complete(4))
    assert len(records) == 6 and all(r.kappa_lly == F(4, 3) for r in records)
    assert all(r.gap_c == 2 and r.supsup is None for r in records)


def test_curvature_profile_unequal_degrees():
    rec = _profile(star(3))[0]
    assert rec.gap_c is None and rec.supsup is None
    assert rec.kappa0 == 0


def test_upper_bound_on_sample():
    for g in (complete(5), petersen(), star(4), near_cocktail(7), random_regular(12, 4, 7)):
        for x, y in g.edges():
            nxy = len(set(g.adj[x]) & set(g.adj[y]))
            bound = F(nxy + 2, max(g.degree(x), g.degree(y)))
            assert kappa_lly(g, x, y) <= bound
    # K_5 attains the bound with equality
    assert kappa_lly(complete(5), 0, 1) == F(2 + 3, 4)


def test_corrupted_assignment_is_caught(monkeypatch):
    # off-by-one in the assignment optimum must break route agreement
    corrupt_assignment_optimum(monkeypatch)
    with pytest.raises(ConsistencyError):
        kappa_lly(petersen(), *petersen().edges()[0])


def test_local_distances_match_bfs_oracle():
    # kappa_alpha and the assignment instances read distances off adjacency
    # tests inside B1(x) and B1(y); wasserstein1 and distances_from search
    # the whole graph, so they check the local rule independently.
    rng = random.Random(31)
    corpus = [star(4), path(5), near_cocktail(7), complete(5), cocktail_party(3),
              complete_bipartite(2, 3), petersen(), cycle(5), random_regular(10, 3, 2)]
    unequal = triangles = 0
    for g in corpus:
        for x, y in g.edges():
            dx, dy = g.degree(x), g.degree(y)
            unequal += dx != dy
            triangles += bool(set(g.adj[x]) & set(g.adj[y]))
            alphas = {F(0), F(1, max(dx, dy) + 1), F(1, 2), F(1)}
            for _ in range(3):
                q = rng.randint(2, 13)
                alphas.add(F(rng.randint(0, q), q))
            for a in sorted(alphas):
                w1 = wasserstein1(g, mu_alpha(g, x, a), mu_alpha(g, y, a))
                assert kappa_alpha(g, x, y, a) == 1 - w1, (g, x, y, a)
            zero = curvature._edge(g, x, y).zero_instance
            for left, right, cost in (assignment_instance(g, x, y),
                                      (zero.left, zero.right, zero.cost)):
                for z, row in zip(left, cost):
                    dist = distances_from(g, z)
                    assert row == [dist[w] for w in right], (g, x, y, z)
    assert unequal and triangles


def _orientations(g):
    return [(x, y) for u, v in g.edges() for x, y in ((u, v), (v, u))]


def _oracle_table(g, x, y):
    """The edge's transport table from the definition of mu alone: mass
    alpha at the centre and 1 - alpha spread evenly over its neighbours.
    A vertex's pair is L*(mu_x - mu_y) at alpha = 1 and at alpha = 0,
    L = lcm(d_x, d_y); the excess is affine in alpha, so a vertex can send
    (take) exactly when one of the two is positive (negative). Returns the
    send and take vertices, each ascending, with their pairs."""
    lcm = math.lcm(len(g.adj[x]), len(g.adj[y]))

    def mu(c, alpha, v):
        return (alpha if v == c else 0) + (F(1 - alpha, len(g.adj[c])) if v in g.adj[c] else 0)

    pairs = {v: (lcm * (mu(x, 1, v) - mu(y, 1, v)), lcm * (mu(x, 0, v) - mu(y, 0, v)))
             for v in range(g.n)}
    send = [v for v, (a, b) in pairs.items() if a > 0 or b > 0]
    take = [v for v, (a, b) in pairs.items() if a < 0 or b < 0]
    return send, take, [pairs[v] for v in send], [pairs[v] for v in take]


def test_edge_table_matches_its_definition():
    # every send and take pair is the scaled excess of mu_x^alpha - mu_y^alpha
    # at alpha = 1 and 0, and kappa is kappa_alpha / (1 - alpha) at
    # alpha = 1/(D+1) exactly, on both orientations of every oracle edge
    checked = 0
    for g in oracle_graphs():
        for x, y in _orientations(g):
            _, _, send, take = _oracle_table(g, x, y)
            assert curvature._edge(g, x, y).table[:2] == (send, take), (g, x, y)
            a = F(1, max(len(g.adj[x]), len(g.adj[y])) + 1)
            assert kappa_lly(g, x, y) == kappa_alpha(g, x, y, a) / (1 - a), (g, x, y)
            checked += 1
    assert checked == 2852, checked  # 1,426 edges


def test_edge_table_costs_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in oracle_graphs():
        dist = dict(nx.shortest_path_length(to_networkx(nx, g)))
        for x, y in _orientations(g):
            send, take, _, _ = _oracle_table(g, x, y)
            cost = curvature._edge(g, x, y).table[2]
            assert cost == [[dist[s][t] for t in take] for s in send], (g, x, y)


def test_kappa_alpha_matches_wasserstein_on_unequal_degree_edges():
    # On an unequal-degree edge, x and y sit among both the senders and the
    # takers of the transport table; the excess at x is zero at 1/(d_y+1)
    # and the excess at y at 1/(d_x+1). Each orientation gets a fresh graph
    # object, so its table is built anew and then serves every alpha.
    rng = random.Random(1704)
    grid = {F(p, q) for q in range(1, 13) for p in range(q + 1)}
    checked = 0
    for _ in range(12):
        n = rng.randint(5, 9)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.45]
        g = Graph(n, edges)
        for u, v in g.edges():
            if g.degree(u) == g.degree(v):
                continue
            for x, y in ((u, v), (v, u)):
                fresh = Graph(n, edges)
                alphas = grid | {F(1, g.degree(x) + 1), F(1, g.degree(y) + 1)}
                for a in sorted(alphas):
                    w1 = wasserstein1(g, mu_alpha(g, x, a), mu_alpha(g, y, a))
                    assert kappa_alpha(fresh, x, y, a) == 1 - w1, (edges, x, y, a)
                checked += 1
    assert checked >= 50, checked


def test_kappa_alpha_matches_linprog_on_unequal_degree_edges():
    # wasserstein1 runs the same transport solver as kappa_alpha; scipy's LP
    # over BFS distances shares no code with it, nor with the idleness
    # construction. At alpha = p/q both measures become integers when scaled
    # by q*L, L = lcm(d_x, d_y), and the LP moves every unit, shared mass
    # included, between the two whole supports. The inputs: kappa_alpha at a
    # random alpha on unequal-degree edges, and each idleness function at
    # every breakpoint and piece midpoint, on equal- and unequal-degree
    # edges with one, two and three pieces.
    optimize = pytest.importorskip("scipy.optimize")

    def lp_kappa(g, x, y, alpha):
        p, q = alpha.numerator, alpha.denominator
        lcm = math.lcm(g.degree(x), g.degree(y))
        mu, nu = ({c: p * lcm, **{w: (q - p) * lcm // g.degree(c) for w in g.adj[c]}}
                  for c in (x, y))
        cost = [distances_from(g, a)[b] for a in mu for b in nu]
        ns, nd = len(mu), len(nu)
        rows = [[int(k // nd == i) for k in range(ns * nd)] for i in range(ns)]
        cols = [[int(k % nd == j) for k in range(ns * nd)] for j in range(nd)]
        lp = optimize.linprog(cost, A_eq=rows + cols, b_eq=[*mu.values(), *nu.values()],
                              bounds=(0, None), method="highs")
        assert lp.status == 0
        return 1 - F(round(lp.fun), q * lcm)

    rng = random.Random(1711)
    checked = 0
    while checked < 240:
        g = random_connected_graph(rng, rng.randint(4, 8), 0.35)
        for u, v in g.edges():
            if g.degree(u) == g.degree(v):
                continue
            for x, y in ((u, v), (v, u)):
                q = rng.randint(2, 12)
                p = rng.randint(0, q)
                assert kappa_alpha(g, x, y, F(p, q)) == lp_kappa(g, x, y, F(p, q)), \
                    (g.edges(), x, y, p, q)
                checked += 1
    shapes = set()
    for g in (Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)]), complete_bipartite(2, 3),
              petersen(), cycle(6), star(4)):
        for x, y in g.edges():
            fn = idleness_function(g, x, y)
            bp = fn.breakpoints
            for a in (*bp, *((a + b) / 2 for a, b in zip(bp, bp[1:]))):
                assert fn.value_at(a) == lp_kappa(g, x, y, a), (g.edges(), x, y, a)
            shapes.add((fn.segments, g.degree(x) == g.degree(y)))
    assert {(1, True), (2, True), (2, False), (3, False)} <= shapes, shapes


def test_kappa_lly_matches_limit_free_oracle():
    # mw_kappa minimizes over integer test functions and shares no code with
    # the transport or the assignment route, so it is the one independent
    # check of kappa on unequal-degree edges, where only transport runs.
    rng = random.Random(1712)
    checked = unequal = 0
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(2, 9), rng.choice((0.1, 0.2, 0.3, 0.5)))
        for x, y in g.edges():
            if g.degree(x) + g.degree(y) <= 9:
                assert kappa_lly(g, x, y) == mw_kappa(g, x, y), (g.edges(), x, y)
                checked += 1
                unequal += g.degree(x) != g.degree(y)
    assert checked >= 1500 and unequal >= 1000, (checked, unequal)


def test_per_edge_work_runs_no_graph_search(monkeypatch):
    # Every per-edge quantity depends on B1(x) and B1(y) alone; with the
    # graph-wide BFS disabled wherever it is bound, the profile and the
    # idleness reconstruction must still complete.
    def no_search(*args, **kwargs):
        raise AssertionError("per-edge curvature searched the whole graph")

    for mod in (graphs, transport, curvature):
        if hasattr(mod, "distances_from"):
            monkeypatch.setattr(mod, "distances_from", no_search)
    p = petersen()
    with pytest.raises(AssertionError, match="whole graph"):
        wasserstein1(p, mu_alpha(p, 0, 0), mu_alpha(p, 1, 0))  # the patch is live
    records = _profile(torus_grid(8, 8))
    assert len(records) == 128 and all(r.bone_idle for r in records)
    fn = idleness_function(p, *p.edges()[0])
    assert fn.values[0] == F(-1, 3) and fn.values[-1] == 0


def test_deduplicated_cross_checks_still_fire(monkeypatch):
    # edge_record solves kappa and kappa_0 once each; the gap formula and the
    # assignment routes must still be checked against them. Every edge of
    # cycle(6) has supsup 3.
    p = petersen()
    exact = curvature._Instance.supsup.func
    for wrong in ({3: 2}, {3: 4}, {3: None}):
        with monkeypatch.context() as m:
            m.setattr(curvature._Instance, "supsup",
                      property(lambda inst, w=wrong: w.get(exact(inst), exact(inst))))
            with pytest.raises(ConsistencyError, match=r"gap\(0,1\)"):
                edge_record(cycle(6), 0, 1)
            with pytest.raises(ConsistencyError, match="gap"):
                _profile(cycle(6))
    for route, label in (("kappa_zero_assignment", r"kappa_0\("),
                         ("kappa_lly_assignment", r"kappa\(")):
        exact_route = getattr(curvature, route)
        with monkeypatch.context() as m:
            m.setattr(curvature, route, lambda g, u, v, f=exact_route: f(g, u, v) + 1)
            with pytest.raises(ConsistencyError, match=label):
                _profile(p)
    # a fresh graph: p's last edge context already holds exact solves
    corrupt_assignment_optimum(monkeypatch)
    with pytest.raises(ConsistencyError):
        _profile(petersen())


def test_curvature_runs_no_forced_resolve():
    # gap_c, supsup and the equality condition all read the optimal-pair
    # support off the one Hungarian solve of each assignment matrix.
    records = _profile(complete_bipartite(6, 6))
    assert len(records) == 36 and all((r.gap_c, r.supsup) == (2, 1) for r in records)


def test_support_feeds_cross_checked_gap(monkeypatch):
    # On this torus edge some optimal assignment moves a vertex by distance
    # 3, and every other pair of the optimal-pair support is at distance 1;
    # a supsup that loses the distance-3 pairs reads 1, and the gap
    # formula's cross-check against kappa - kappa_0 must catch it.
    g = torus_grid(6, 6)
    _, _, cost = assignment_instance(g, 0, 1)
    assert transport._supsup(cost, *transport._hungarian(cost)[1:]) == 3
    assert {cost[i][p[i]] for p in brute_optimal_permutations(cost) for i in range(3)} == {1, 3}
    assert edge_record(g, 0, 1).supsup == 3
    exact = transport._supsup
    monkeypatch.setattr(transport, "_supsup", lambda c, *duals: min(exact(c, *duals), 1))
    with pytest.raises(ConsistencyError, match="gap"):
        edge_record(torus_grid(6, 6), 0, 1)  # a fresh graph: g's edge context holds supsup


@pytest.mark.parametrize("fault", sorted(ASSIGNMENT_FAULTS))
def test_corrupted_hungarian_solve_fails_its_certificate(monkeypatch, fault):
    # a raised potential, a swapped match or a wrong optimum is refused by
    # the solve's own certificate, before either route's value is compared,
    # on every entry that reads an assignment instance. Edge (0, 1) of the
    # 6 x 6 torus has a 3 x 3 and a 4 x 4 matrix, each with a swap that
    # leaves a matched cell loose.
    corrupt_assignment_input(monkeypatch, fault)
    fact = "^assignment certificate: " + re.escape(ASSIGNMENT_FAULTS[fault][1])
    for entry in (kappa_lly, kappa_zero, local_structure, edge_record):
        with pytest.raises(ConsistencyError, match=fact):
            entry(torus_grid(6, 6), 0, 1)  # a fresh graph each time: no solve is reused


def _equal_degree_edges(g):
    return [(x, y) for x, y in g.edges() if g.degree(x) == g.degree(y)]


def test_one_hungarian_solve_per_matrix(monkeypatch):
    # An equal-degree edge has two assignment matrices (kappa and kappa_0);
    # the per-edge context solves each once, however many helpers read it.
    solves = []
    exact = transport._hungarian
    monkeypatch.setattr(transport, "_hungarian", lambda cost: solves.append(cost) or exact(cost))
    for build in (lambda: torus_grid(6, 6), petersen, lambda: complete_bipartite(4, 4)):
        g = build()
        edges = _equal_degree_edges(g)
        assert edges
        solves.clear()
        for x, y in edges:
            edge_record(g, x, y)
        assert len(solves) == 2 * len(edges)
        solves.clear()
        assert check_edge_properties([("g", build())]).passed
        assert 0 < len(solves) <= 2 * len(edges)


def test_cost_matrix_built_at_most_three_times_per_edge(monkeypatch):
    # One transport table per edge serves every alpha; an equal-degree edge
    # adds its two assignment matrices.
    calls = []
    exact = curvature._cost_matrix
    monkeypatch.setattr(curvature, "_cost_matrix",
                        lambda g, left, right: calls.append(left) or exact(g, left, right))
    corpus = [("petersen", petersen()), ("star(4)", star(4)), ("path(5)", path(5)),
              ("near_cocktail(7)", near_cocktail(7)),
              ("three-piece", Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)]))]
    report = check_edge_properties(corpus)
    assert report.passed
    equal = sum(len(_equal_degree_edges(g)) for _, g in corpus)
    assert report.instances > equal > 0
    assert len(calls) == report.instances + 2 * equal <= 3 * report.instances


def test_every_cross_check_calls_its_assignment_route(monkeypatch):
    # The same promise the benchmark tracer's route-coverage guard checks:
    # each kappa_lly / kappa_zero call on an equal-degree edge calls its
    # public assignment route directly, memoized context or not.
    counts = Counter()
    stack = []

    def route(name, fn):
        def wrapped(g, x, y):
            counts[name, "eq"] += g.degree(x) == g.degree(y)
            stack.append(name)
            try:
                return fn(g, x, y)
            finally:
                stack.pop()
        return wrapped

    def assignment(name, fn):
        def wrapped(g, x, y):
            counts[name, "checked"] += bool(stack) and stack[-1] == name
            return fn(g, x, y)
        return wrapped

    for name in ("kappa_lly", "kappa_zero"):
        monkeypatch.setattr(curvature, name, route(name, getattr(curvature, name)))
        monkeypatch.setattr(curvature, name + "_assignment",
                            assignment(name, getattr(curvature, name + "_assignment")))
    g = near_cocktail(7)  # one vertex of degree 6, the rest of degree 5
    for x, y in g.edges():
        edge_record(g, x, y)
        is_bone_idle_edge(g, x, y)  # both routes again, on a context already solved
    assert check_edge_properties([("near_cocktail(7)", g), ("petersen", petersen())]).passed
    p = petersen()
    for x, y in p.edges():
        idleness_function(p, x, y)
    assert counts["kappa_lly", "eq"] > 0 and counts["kappa_zero", "eq"] > 0
    for name in ("kappa_lly", "kappa_zero"):
        assert counts[name, "checked"] == counts[name, "eq"], name


def test_edge_context_memo_needs_the_identical_graph(monkeypatch):
    g = petersen()
    x, y = g.edges()[0]
    edge_record(g, x, y)  # fills the one-entry memo with exact solves
    corrupt_assignment_optimum(monkeypatch)
    kappa_lly(g, x, y)  # the same graph object reuses those solves
    twin = Graph(g.n, g.edges())
    assert twin == g and twin is not g
    with pytest.raises(ConsistencyError):
        kappa_lly(twin, x, y)


def test_edge_context_memo_keeps_edge_orientation():
    g = random_regular(12, 3, 1)
    for x, y in _equal_degree_edges(g):
        left, right, cost = assignment_instance(g, x, y)
        zero = curvature._edge(g, x, y).zero_instance
        zleft, zright, zcost = zero.left, zero.right, zero.cost
        values = (kappa_lly(g, x, y), kappa_zero(g, x, y), _gap(edge_record(g, x, y)))
        transposed = assignment_instance(g, y, x)
        assert transposed == (right, left, [list(col) for col in zip(*cost)])
        zero = curvature._edge(g, y, x).zero_instance
        assert (zero.left, zero.right, zero.cost) == (zright, zleft, [list(c) for c in zip(*zcost)])
        assert (kappa_lly(g, y, x), kappa_zero(g, y, x), _gap(edge_record(g, y, x))) == values
    assert any(left != right for left, right, _ in
               (assignment_instance(g, x, y) for x, y in g.edges()))


def test_edge_context_memo_keeps_transport_values(monkeypatch):
    # kappa_alpha values are kept per edge context: the same graph object
    # and orientation reuse them, an equal twin or the reversed edge solve
    # again, so a faulty transport solve is caught by the assignment route.
    g = petersen()
    x, y = g.edges()[0]
    record = edge_record(g, x, y)
    exact = transport._transport_cost
    monkeypatch.setattr(transport, "_transport_cost",
                        lambda *args: (exact(*args)[0] + 1, *exact(*args)[1:]))
    assert (kappa_lly(g, x, y), kappa_zero(g, x, y)) == (record.kappa_lly, record.kappa0)
    twin = Graph(g.n, g.edges())
    assert twin == g and twin is not g
    with pytest.raises(ConsistencyError, match=r"kappa\("):
        kappa_lly(twin, x, y)
    with pytest.raises(ConsistencyError, match=r"kappa_0\("):
        kappa_zero(g, y, x)


def test_idleness_after_edge_record_solves_once(monkeypatch):
    # edge_record leaves kappa and kappa_0 in the edge context. On an
    # equal-degree edge every breakpoint is 0, 1/(d+1) or 1, so the idleness
    # function solves once for each piece's dual line and once at alpha = 1,
    # and never the same instance twice.
    solves = []
    exact = transport._transport_cost
    monkeypatch.setattr(transport, "_transport_cost",
                        lambda *args: solves.append(args) or exact(*args))
    for g in (petersen(), torus_grid(6, 6), complete_bipartite(4, 4)):
        for x, y in _equal_degree_edges(g):
            edge_record(g, x, y)
            solves.clear()
            fn = idleness_function(g, x, y)
            assert len(solves) == len(set(solves)) == fn.segments + 1, (g, x, y)


def test_assignment_instances_are_copies():
    g = torus_grid(6, 6)
    left, right, cost = assignment_instance(g, 0, 1)
    expected = (list(left), list(right), [list(row) for row in cost])
    left.append(99)
    right.clear()
    cost[0][0] = 0
    cost.append([])
    assert assignment_instance(g, 0, 1) == expected
    assert kappa_lly(g, 0, 1) == kappa_lly_assignment(g, 0, 1) == 0
    assert kappa_zero(g, 0, 1) == kappa_zero_assignment(g, 0, 1) == 0
