import dataclasses
import hashlib
import random
import re
from collections import Counter
from itertools import combinations
from fractions import Fraction as F

import pytest

from orckit import curvature
from orckit.curvature import (ConsistencyError, PiecewiseLinearFn, edge_record,
                              idleness_function, kappa_alpha, kappa_lly, kappa_zero)
from orckit.families import (cocktail_party, complete, complete_bipartite, cycle, hypercube,
                             near_cocktail, petersen, random_regular, star)
from orckit.graphs import Graph

from helpers import (PROOF_FAULTS, corrupt_proof_input, mu_alpha, oracle_graphs,
                     random_connected_graph, wasserstein1)


def test_bone_idle_edge_is_identically_zero():
    fn = idleness_function(cycle(6), 0, 1)
    assert fn.breakpoints == (0, 1)
    assert fn.values == (0, 0)
    assert fn.value_at(F(3, 7)) == 0


def test_k2_shape():
    fn = idleness_function(complete(2), 0, 1)
    assert fn.breakpoints == (0, F(1, 2), 1)
    assert fn.values == (0, 1, 0)
    assert fn.slopes() == (2, -2)


def test_three_segment_reconstruction():
    g = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)])
    fn = idleness_function(g, 0, 2)
    assert fn.segments == 3
    assert fn.breakpoints == (0, F(1, 7), F(1, 4), 1)
    assert fn.values == (F(1, 3), F(4, 7), F(5, 8), 0)
    # dense exact grid agreement
    for q in range(1, 16):
        for p in range(q + 1):
            a = F(p, q)
            assert fn.value_at(a) == kappa_alpha(g, 0, 2, a)


def test_three_segment_reconstruction_on_random_graphs():
    # Seeded irregular G(n, p) graphs reach the three-piece branch. Each
    # reconstruction is compared on a rational grid with kappa_alpha on an
    # equal twin graph, whose edge contexts hold none of its values.
    rng = random.Random(1704)
    grid = sorted({F(p, q) for q in range(1, 13) for p in range(q + 1)})
    segments = set()
    for _ in range(12):
        n = rng.randint(5, 9)
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.45])
        twin = Graph(g.n, g.edges())
        for x, y in g.edges():
            fn = idleness_function(g, x, y)
            segments.add(fn.segments)
            for a in grid:
                assert fn.value_at(a) == kappa_alpha(twin, x, y, a), (g.edges(), x, y, a)
    assert 3 in segments


def test_idleness_evaluations_pinned():
    # For both orientations of every edge of 300 seeded graphs: the
    # breakpoints and the values. A rewrite of the construction must give
    # the same functions.
    rng = random.Random(7)
    digest = hashlib.sha256()
    edges = three = 0
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(4, 10), 0.35)
        for u, v in g.edges():
            for x, y in ((u, v), (v, u)):
                fn = idleness_function(g, x, y)
                digest.update(repr((fn.breakpoints, fn.values)).encode("ascii"))
            edges += 1
            three += fn.segments == 3
    assert (edges, three) == (3785, 1313)
    assert digest.hexdigest() == \
        "756c14335bb6aadb24122d37ba19be1e04d97f11d442809c72b0beb2b4828f05"


THREE_PIECE = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)])
TWO_PIECE = Graph(5, [(0, 3), (0, 4), (1, 4), (2, 3), (2, 4)])  # (0, 4) breaks at 1/7, not 1/4


def test_wrong_shapes_raise_consistency_error(monkeypatch):
    # one value the construction reads moved by 1/997 (kappa, kappa_0, or
    # the value an edge's solve at 1/7 returns), so it must refuse the
    # function it would build from that value
    exact_solved = curvature._Edge.solved

    def solved_off(e, p, q):
        rows, kappa, u = exact_solved(e, p, q)
        return rows, kappa + F(1, 997) * ((p, q) == (1, 7)), u

    def off(exact):
        return lambda g, x, y: exact(g, x, y) + F(1, 997)

    cases = [
        # kappa off the last dual line, solved at 5/8
        (THREE_PIECE, (0, 2), curvature, "kappa_lly", off(curvature.kappa_lly),
         r"at alpha 5/8: the dual line is not kappa\*\(1 - alpha\), kappa = 4991/5982$"),
        # the value at c = 1/7 of a two-piece edge off its first line, so c
        # would lie inside a middle piece, but the dual line solved at the
        # corner 1/7 is the first line itself
        (TWO_PIECE, (0, 4), curvature._Edge, "solved", solved_off,
         r"at alpha 1/7: the dual line 0 \+ 2\*alpha makes no concave corner inside \(0, 1\) "
         r"with 0 \+ 2\*alpha$"),
        # a breakpoint value off both dual lines that meet there
        (THREE_PIECE, (0, 2), curvature._Edge, "solved", solved_off,
         r"at alpha 1/7: dual line 1/3 \+ 5/3\*alpha misses fn = 3995/6979$"),
        # kappa_0 off, on an unequal-degree edge, which has no assignment route
        (complete_bipartite(2, 3), (0, 2), curvature, "kappa_zero", off(curvature.kappa_zero),
         r"at alpha 0: dual line 0 \+ 2\*alpha misses fn = 1/997$"),
    ]
    for g, (x, y), owner, name, wrong, message in cases:
        with monkeypatch.context() as m:
            m.setattr(owner, name, wrong)
            with pytest.raises(ConsistencyError, match=rf"^idleness proof \({x},{y}\) {message}"):
                idleness_function(Graph(g.n, g.edges()), x, y)  # a fresh twin: no solve kept


def test_lines_must_meet_inside_the_unit_interval(monkeypatch):
    # A first line of K2 that lies below kappa*(1 - alpha) = 2 - 2*alpha at
    # 1 meets it at alpha = 2; the construction refuses it before it solves
    # anything there.
    exact = curvature._dual_line
    monkeypatch.setattr(curvature, "_dual_line",
                        lambda e, a: (F(1), F(-3, 2)) if a == F(1, 4) else exact(e, a))
    with pytest.raises(ConsistencyError, match=r"^idleness proof \(0,1\) at alpha 3/4: the dual "
                                               r"line 2 \+ -2\*alpha makes no concave corner"):
        idleness_function(complete(2), 0, 1)


def test_shape_properties_on_sample():
    graphs = [("C5", cycle(5)), ("K5", complete(5)), ("petersen", petersen()),
              ("Q3", hypercube(3)), ("cocktail3", cocktail_party(3)),
              ("star4", star(4)), ("rand", random_regular(10, 4, 5))]
    for _, g in graphs:
        for x, y in g.edges()[:4]:
            fn = idleness_function(g, x, y)
            assert fn.segments <= 3
            assert fn.values[-1] == 0
            slopes = fn.slopes()
            assert all(a > b for a, b in zip(slopes, slopes[1:]))  # concave
            big_d = max(g.degree(x), g.degree(y))
            assert fn.breakpoints[-2] <= F(1, big_d + 1)
            assert slopes[-1] == -kappa_lly(g, x, y)


def test_random_probes_match_direct_evaluation():
    # The 16 idleness values per edge that `verify --suite edge-properties`
    # once drew, seeded by label and edge: each function must equal a
    # direct transport solve there.
    graphs = [("petersen", petersen()), ("star(4)", star(4)),
              ("near_cocktail(7)", near_cocktail(7)), ("three-piece", THREE_PIECE)]
    rng = random.Random(21)
    graphs += [(f"random_connected_graph({k})", random_connected_graph(rng, rng.randint(4, 10)))
               for k in range(20)]
    segments = set()
    for label, g in graphs:
        for x, y in g.edges():
            fn = idleness_function(g, x, y)
            segments.add(fn.segments)
            draw = random.Random(f"{label}|{x}|{y}|idleness-probes")
            for _ in range(16):
                q = draw.randint(2, 48)
                a = F(draw.randint(1, q - 1), q)
                assert fn.value_at(a) == kappa_alpha(g, x, y, a), (label, x, y, a)
    assert segments == {1, 2, 3}
    # the public door agrees with the values curvature reads straight from
    # an edge's solves: kappa, kappa_0 and each breakpoint value against
    # kappa_alpha on a fresh twin, whose edge contexts hold none of them
    for g in oracle_graphs():
        twin = Graph(g.n, g.edges())
        for x, y in g.edges():
            fn, kappa, kappa0 = idleness_function(g, x, y), kappa_lly(g, x, y), kappa_zero(g, x, y)
            big_d = max(g.degree(x), g.degree(y))
            assert kappa == kappa_alpha(twin, x, y, F(1, big_d + 1)) * (big_d + 1) / big_d
            assert kappa0 == kappa_alpha(twin, x, y, 0)
            assert fn.values == tuple(kappa_alpha(twin, x, y, b) for b in fn.breakpoints), \
                (g.edges(), x, y)


def _proofs(monkeypatch) -> list:
    """The arguments (e, breakpoints, values, lines) of every call of
    curvature._prove from here on, recorded as idleness_function makes it."""
    calls = []
    monkeypatch.setattr(curvature, "_prove", lambda *args: calls.append(args) or _PROVE(*args))
    return calls


_PROVE = curvature._prove


def _mutants(bp, vals, lines):
    """The claim (bp, vals, lines) with one non-final value or one interior
    breakpoint moved by +-1/997, or one interior breakpoint dropped, the
    merged piece keeping the line of either piece. A dropped breakpoint
    leaves every remaining value exact, so only the lines can refuse it."""
    for delta in (F(1, 997), F(-1, 997)):
        for k in range(len(vals) - 1):
            yield bp, vals[:k] + (vals[k] + delta,) + vals[k + 1:], lines
        for k in range(1, len(bp) - 1):
            yield bp[:k] + (bp[k] + delta,) + bp[k + 1:], vals, lines
    for k in range(1, len(bp) - 1):
        for kept in (k - 1, k):
            yield bp[:k] + bp[k + 1:], vals[:k] + vals[k + 1:], [*lines[:k - 1], lines[kept],
                                                                 *lines[k + 1:]]


def _refused(e, breakpoints, values, lines) -> bool:
    try:
        _PROVE(e, breakpoints, values, lines)
    except ConsistencyError as exc:
        return str(exc).startswith(f"idleness proof ({e.x},{e.y}) at alpha ")
    return False


def test_proof_refuses_every_mutant(monkeypatch):
    # The proof inside the construction refuses every mutant of the claim
    # it proves, on K2 (an empty instance at the breakpoint 1/2), a
    # two-piece and a three-piece function.
    proofs = _proofs(monkeypatch)
    for g, (x, y), pieces in ((complete(2), (0, 1), 2), (petersen(), petersen().edges()[0], 2),
                              (THREE_PIECE, (0, 2), 3)):
        fn = idleness_function(g, x, y)
        e, bp, vals, lines = proofs[-1]
        assert (fn.segments, bp, vals, len(lines)) == (pieces, fn.breakpoints, fn.values, pieces)
        mutants = list(_mutants(bp, vals, lines))
        assert len(mutants) == 2 * (2 * pieces - 1) + 2 * (pieces - 1)
        assert all(_refused(e, *m) for m in mutants), (g, x, y)


def test_proof_needs_one_price_per_vertex():
    # x and y lie in both lists of the transport table. With a distance
    # that breaks the triangle inequality (leaf 2 of star(3) put at 4 from
    # the centre x, though it is 2 from y and y is 1 from x) x gets two
    # prices, so the dual bound is not linear in alpha and the construction
    # refuses the first line it reads from that table.
    g = star(3)
    e = curvature._edge(g, 0, 1)
    send, take, table = e.table
    assert (send[2], take[0], table[2][0], table[2][1]) == ((0, 1), (3, -3), 1, 2)
    bad = [list(row) for row in table]
    bad[2][0] = 4
    e.__dict__["table"] = (send, take, bad)
    with pytest.raises(ConsistencyError, match=r"^idleness proof \(0,1\) at alpha 1/8: "
                                               r"a vertex gets the prices 3 and 2$"):
        idleness_function(g, 0, 1)


@pytest.mark.parametrize("fault", sorted(PROOF_FAULTS))
def test_proof_refuses_a_corrupted_solve(monkeypatch, fault):
    # A flow cell moved to another sink, a cell of negative units that
    # keeps every sum and the cost, a 2 x 2 exchange that keeps every sum
    # but not the cost, a potential one lower (helpers.corrupt_proof_input),
    # each made in the flow and potentials transport._certify checks:
    # every path to a solve raises, naming the broken fact, on an
    # equal-degree edge of petersen and the unequal-degree edge (0, 2) of
    # THREE_PIECE, whose instances at alpha = 0 have two sinks and two
    # sources that the potentials must price apart. No 2 x 2 exchange
    # changes the cost of K(2, 3)'s instances at alpha = 0, whose sources
    # are twins, so there the exchange is no fault.
    corrupt_proof_input(monkeypatch, fault)
    paths = (lambda g, x, y: kappa_alpha(g, x, y, 0), edge_record, idleness_function,
             lambda g, x, y: wasserstein1(g, mu_alpha(g, x, 0), mu_alpha(g, y, 0)))
    for g, (x, y) in ((petersen(), petersen().edges()[0]), (THREE_PIECE, (0, 2))):
        for path in paths:
            with pytest.raises(ConsistencyError, match="^transport certificate: "
                                                       + re.escape(PROOF_FAULTS[fault][1])):
                path(g, x, y)


def test_proof_property_on_random_graphs(monkeypatch):
    # G(n, p) graphs with n <= 10, mostly irregular and often disconnected:
    # on every oriented edge the construction proves its function and
    # refuses each mutant of it, and relabelling the graph by a permutation,
    # which reorders the transport table and can change which dual the
    # solver returns, gives the same function and the same edge record
    # (kappa, kappa_0, gap_c, supsup, bone_idle) on the mapped edge.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    proofs = _proofs(monkeypatch)
    seen = Counter()

    @hypothesis.settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @hypothesis.given(st.integers(2, 10).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2), st.permutations(range(n)))))
    def proven(graph):
        n, bits, perm = graph
        g = Graph(n, [e for e, bit in zip(combinations(range(n), 2), bits) if bit])
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        for u, v in g.edges():
            for x, y in ((u, v), (v, u)):
                fn = idleness_function(g, x, y)
                claim = proofs[-1]
                assert all(_refused(*claim[:1], *m) for m in _mutants(*claim[1:])), \
                    (g.edges(), x, y)
                assert idleness_function(h, perm[x], perm[y]) == fn, (g.edges(), perm, x, y)
                assert edge_record(h, perm[x], perm[y]) == dataclasses.replace(
                    edge_record(g, x, y), x=perm[x], y=perm[y]), (g.edges(), perm, x, y)
                seen[fn.segments, g.degree(x) == g.degree(y)] += 1

    proven()
    assert seen[3, False] > 0 and seen[2, True] > 0, seen


def _interpolate(fn, a):
    """fn at a by the position t of a within its segment."""
    bp, vals = fn.breakpoints, fn.values
    i = next(i for i in range(fn.segments) if a <= bp[i + 1])
    t = (a - bp[i]) / (bp[i + 1] - bp[i])
    return vals[i] + t * (vals[i + 1] - vals[i])


def test_value_at_matches_interpolation():
    rng = random.Random(29)
    three = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)])
    fns = [idleness_function(g, *g.edges()[0]) for g in (cycle(6), cycle(5), petersen(), star(4))]
    fns.append(idleness_function(three, 0, 2))
    assert {fn.segments for fn in fns} == {1, 2, 3}
    for fn in fns:
        for a in fn.breakpoints:
            assert fn.value_at(a) == _interpolate(fn, a) == fn.values[fn.breakpoints.index(a)]
        for _ in range(200):
            q = rng.randint(1, 10 ** rng.randint(1, 12))
            a = F(rng.randint(0, q), q)
            assert fn.value_at(a) == _interpolate(fn, a), (fn, a)


def test_non_edge_rejected():
    with pytest.raises(ValueError):
        idleness_function(cycle(6), 0, 2)


def test_value_at_domain():
    fn = idleness_function(complete(3), 0, 1)
    assert fn.value_at(0) == fn.values[0]
    assert fn.value_at(1) == 0
    with pytest.raises(ValueError):
        fn.value_at(F(3, 2))


def test_piecewise_type_invariants():
    with pytest.raises(ValueError):
        PiecewiseLinearFn((F(0), F(1, 2)), (F(0), F(0)))  # does not span [0,1]
    with pytest.raises(ConsistencyError):
        # convex corner: slopes increase
        PiecewiseLinearFn((F(0), F(1, 2), F(1)), (F(1), F(0), F(0)))
    with pytest.raises(ConsistencyError):
        PiecewiseLinearFn((F(0), F(1)), (F(0), F(1)))  # nonzero at 1
    with pytest.raises(ConsistencyError):
        PiecewiseLinearFn(
            (F(0), F(1, 8), F(1, 4), F(1, 2), F(1)),
            (F(0), F(1, 8), F(3, 16), F(7, 32), F(0)))  # four segments
