"""Shared brute-force oracles, random instance builders and one fault
injector for the tests.

The oracles are deliberately independent of the library's own
algorithms: girth by explicit cycle enumeration, connectivity by plain
DFS, optimal assignments by full permutation scans.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from orckit import transport
from orckit.graphs import Graph


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


def corrupt_assignment_optimum(monkeypatch) -> None:
    """Make every Hungarian solve report its optimum one too high, as an
    off-by-one in the assignment route would; the matching and potentials
    stay exact."""
    exact = transport._hungarian

    def off_by_one(cost):
        optimum, *duals = exact(cost)
        return (optimum + 1, *duals)

    monkeypatch.setattr(transport, "_hungarian", off_by_one)
