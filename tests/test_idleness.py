import hashlib
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from fractions import Fraction as F

import pytest

from orckit import curvature
from orckit.curvature import (ConsistencyError, PiecewiseLinearFn, idleness_function,
                              kappa_alpha, kappa_lly)
from orckit.families import (cocktail_party, complete, cycle, hypercube, petersen,
                             random_regular, star)
from orckit.graphs import Graph

from helpers import child_env, random_connected_graph


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
    # breakpoints, the values and the kappa_alpha keys the edge context
    # stored, in the order it stored them. A rewrite of the reconstruction
    # must give the same functions from the same evaluations.
    rng = random.Random(7)
    digest = hashlib.sha256()
    edges = three = 0
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(4, 10), 0.35)
        for u, v in g.edges():
            for x, y in ((u, v), (v, u)):
                fn = idleness_function(g, x, y)
                keys = list(curvature._edge(g, x, y).kappas)
                digest.update(repr((fn.breakpoints, fn.values, keys)).encode("ascii"))
            edges += 1
            three += fn.segments == 3
    assert (edges, three) == (3785, 1313)
    assert digest.hexdigest() == \
        "10b5d91cd2b130178ec67fd17f12a1e28ef2aa69834ff06a2953cb54116ac4c0"


def test_wrong_shapes_raise_consistency_error():
    # kappa_alpha patched to a polyline, so the reconstruction itself must
    # refuse the shape: a fourth piece; a slope read at c equal to the
    # piece's own, which would divide by zero where the two lines meet; a
    # breakpoint whose direct value is off its piece; a first slope of
    # -kappa from kappa_0 != kappa. K2's polylines keep its kappa = 2 and
    # kappa_0 = 0, so both routes agree; the edge (0, 2) of K(2,3) has
    # unequal degrees and no assignment route. A child process with a
    # timeout turns a hang into a failure.
    code = textwrap.dedent("""
        from fractions import Fraction as F
        from orckit import curvature
        from orckit.families import complete, complete_bipartite

        def polyline(points):
            def value(g, x, y, alpha):
                a = F(alpha)
                for (a1, v1), (a2, v2) in zip(points, points[1:]):
                    if a <= a2:
                        return v1 + (v2 - v1) * (a - a1) / (a2 - a1)
            return value

        k2, k23 = complete(2), complete_bipartite(2, 3)
        shapes = {
            "fourth piece": (k2, 0, 1, [(0, 0), (F(1, 8), F(3, 4)), (F(3, 10), F(37, 40)),
                                        (F(1, 2), 1), (1, 0)]),
            "equal slopes": (k2, 0, 1, [(0, 0), (F(1, 8), F(3, 4)), (F(3, 16), F(3, 4)),
                                        (F(9, 32), F(21, 16)), (F(1, 2), 1), (1, 0)]),
            "breakpoint off its piece": (k23, 0, 2, [
                (0, F(1, 3)), (F(179, 1400), F(153, 280)), (F(57, 350), F(407, 700)),
                (F(1, 4), F(5, 8)), (1, 0)]),
            "kappa_0 off the last line": (k23, 0, 2, [
                (0, F(11, 10)), (F(1, 7), F(67, 70)), (F(1, 4), F(3, 4)), (1, 0)]),
        }
        for name, (g, x, y, points) in shapes.items():
            curvature.kappa_alpha = polyline(points)
            try:
                curvature.idleness_function(g, x, y)
            except curvature.ConsistencyError as exc:
                print(f"{name}: {exc}")
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "fourth piece: more than 3 linear segments",
        "equal slopes: idleness_function(0,1): no slope strictly between 6 and -2 after 1/4",
        "breakpoint off its piece: reconstructed breakpoint disagrees with direct evaluation",
        "kappa_0 off the last line: idleness_function(0,2): last piece misses (1, 0)"]


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
    rng = random.Random(77)
    for g in (cycle(5), petersen(), star(4), cocktail_party(3)):
        x, y = g.edges()[0]
        fn = idleness_function(g, x, y)
        for _ in range(16):
            q = rng.randint(2, 48)
            a = F(rng.randint(1, q - 1), q)
            assert fn.value_at(a) == kappa_alpha(g, x, y, a)


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
