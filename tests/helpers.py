"""Shared brute-force oracles, random instance builders and one fault
injector for the tests.

The oracles are deliberately independent of the library's own
algorithms: girth by explicit cycle enumeration, connectivity by plain
DFS, optimal assignments and W1 by full permutation scans, and the
Lin-Lu-Yau curvature by the limit-free formula over integer test functions.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from itertools import combinations, permutations

import orckit
from orckit import transport
from orckit.graphs import INFINITY, Graph, distances_from


def brute_girth(g: Graph):
    """Shortest cycle length by checking every vertex subset for an
    induced-or-not cycle ordering. Exponential; fine for n <= 8."""
    best = None
    for length in range(3, g.n + 1):
        for subset in combinations(range(g.n), length):
            first = subset[0]
            rest = subset[1:]
            for order in permutations(rest):
                ring = (first,) + order
                if all(g.has_edge(ring[i], ring[(i + 1) % length]) for i in range(length)):
                    return length
        if best is not None:
            break
    return float("inf")


def brute_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def brute_assignment_optimum(cost) -> int:
    k = len(cost)
    return min((sum(cost[i][p[i]] for i in range(k)) for p in permutations(range(k))),
               default=0)


def brute_optimal_permutations(cost):
    k = len(cost)
    best = brute_assignment_optimum(cost)
    return [p for p in permutations(range(k)) if sum(cost[i][p[i]] for i in range(k)) == best]


def forced_cost(cost, i, j) -> int:
    """Cheapest perfect matching that maps row i to column j: cost[i][j]
    plus the optimum of the minor without row i and column j."""
    minor = [[c for col, c in enumerate(r) if col != j] for row, r in enumerate(cost) if row != i]
    return cost[i][j] + transport.assignment_cost(minor)


def brute_wasserstein1(g: Graph, mu, nu, max_tokens: int = 8) -> Fraction:
    """W1 by brute force: scale both measures to unit tokens and try every
    bijection between the two token multisets."""
    transport.validate_measure(g, mu)
    transport.validate_measure(g, nu)
    scale = math.lcm(*(m.denominator for m in mu.values()),
                     *(m.denominator for m in nu.values()))
    if scale > max_tokens:
        raise ValueError(f"token count {scale} exceeds oracle bound {max_tokens}")
    left = [v for v in sorted(mu) for _ in range(int(mu[v] * scale))]
    right = [v for v in sorted(nu) for _ in range(int(nu[v] * scale))]
    assert len(left) == len(right) == scale
    dist = {u: distances_from(g, u) for u in set(left)}
    best = None
    for perm in permutations(right):
        cost = 0
        for u, v in zip(left, perm):
            d = dist[u][v]
            if d is INFINITY:
                cost = None
                break
            cost += d
        if cost is not None and (best is None or cost < best):
            best = cost
    if best is None:
        raise ValueError("supports are not mutually reachable (infinite distance)")
    return Fraction(best, scale)


def mw_kappa(g: Graph, x: int, y: int) -> Fraction:
    """Lin-Lu-Yau curvature of the edge x ~ y by the limit-free formula of
    Muench and Wojciechowski (arXiv:1712.00875): kappa(x, y) is the minimum
    of Delta f(x) - Delta f(y) over 1-Lipschitz f with f(y) - f(x) = 1,
    where Delta f(v) is the mean of f(w) - f(v) over the neighbours w of v.

    Both Laplacians read f on B = B1(x) u B1(y) only, and a 1-Lipschitz f on
    B extends to the whole graph, so f ranges over B with the graph's
    distances, which are 1, 2 or 3 there and follow from adjacency tests.
    The Lipschitz constraints are difference constraints, whose matrix is
    totally unimodular, so integer f with f(x) = 0 and f(y) = 1 reach the
    minimum. A backtracking search tries every such f; no transport or
    assignment solver is involved.
    """
    nx, ny = g.adj[x], g.adj[y]
    rest = sorted((set(nx) | set(ny)) - {x, y})

    def dist(u, v):
        if u == v:
            return 0
        if g.has_edge(u, v):
            return 1
        return 2 if set(g.adj[u]) & set(g.adj[v]) else 3

    d = {(u, v): dist(u, v) for u in rest + [x, y] for v in rest + [x, y]}
    f = {x: 0, y: 1}
    best = None

    def search(k):
        nonlocal best
        if k == len(rest):
            value = (Fraction(sum(f[w] for w in nx), len(nx))
                     - Fraction(sum(f[w] for w in ny), len(ny)) + 1)
            best = value if best is None else min(best, value)
            return
        v = rest[k]
        for fv in range(-3, 4):
            if all(abs(fv - fu) <= d[v, u] for u, fu in f.items()):
                f[v] = fv
                search(k + 1)
                del f[v]

    search(0)
    return best


def brute_transport_cost(supply, demand, cost):
    """Cheapest pairing of unit supply tokens with unit demand tokens over
    every permutation (None entries of cost forbid a pair); None when no
    pairing avoids them all."""
    left = [i for i, s in enumerate(supply) for _ in range(s)]
    right = [j for j, d in enumerate(demand) for _ in range(d)]
    best = None
    for perm in set(permutations(right)):
        pairs = [cost[i][j] for i, j in zip(left, perm)]
        if None not in pairs and (best is None or sum(pairs) < best):
            best = sum(pairs)
    return best


def random_connected_graph(rng: random.Random, n: int, extra_p: float = 0.3) -> Graph:
    """Random spanning tree plus independent extra edges."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = verts[i], verts[j]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_p:
                edges.add((u, v))
    return Graph(n, edges)


def random_token_measure(rng: random.Random, g: Graph, tokens: int) -> dict[int, Fraction]:
    """A measure whose masses are multiples of 1/tokens."""
    support = rng.sample(range(g.n), rng.randint(1, min(g.n, tokens)))
    weights = [0] * len(support)
    for _ in range(tokens):
        weights[rng.randrange(len(support))] += 1
    return {v: Fraction(w, tokens) for v, w in zip(support, weights) if w}


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child Python process that imports the same orckit
    as this one, installed or not, with `extra` variables set."""
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(orckit.__file__)))
    pythonpath = os.pathsep.join(filter(None, [import_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}


def corrupt_assignment_optimum(monkeypatch) -> None:
    """Make every Hungarian solve report its optimum one too high, as an
    off-by-one in the assignment route would; the matching and potentials
    stay exact."""
    exact = transport._hungarian

    def off_by_one(cost):
        optimum, *duals = exact(cost)
        return (optimum + 1, *duals)

    monkeypatch.setattr(transport, "_hungarian", off_by_one)
