"""The definition route of the curvature, brute-force oracles that check
it, random instance builders and three fault injectors for the tests.

The definition route computes what the paper defines on the whole graph,
where orckit works on each edge's own B1(x) | B1(y): the lazy random-walk
measure mu_x^alpha (mu_alpha), the Wasserstein-1 distance between two
measures over BFS distances (wasserstein1, on transport._transport_cost)
and the girth by BFS from every root (girth). The brute-force oracles are
deliberately independent of the library's own algorithms: girth by
explicit cycle enumeration, connectivity by plain DFS, optimal
assignments and W1 by full permutation scans, and the Lin-Lu-Yau
curvature by the limit-free formula over integer test functions.
"""

from __future__ import annotations

import functools
import math
import os
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

import orckit
from orckit import curvature, families, graphs, transport
from orckit.families import (cocktail_party, complete, complete_bipartite, cycle, hypercube,
                             near_cocktail, path, petersen, star)
from orckit.graphs import INFINITY, Graph, distances_from

Measure = dict[int, Fraction]


def mu_alpha(g: Graph, x: int, alpha: int | Fraction) -> Measure:
    """Lazy random-walk measure of x: mass alpha stays at x, the rest is
    spread uniformly over the neighbors."""
    alpha = curvature._idleness(alpha)
    g.check_vertex(x)
    if alpha == 1:
        return {x: Fraction(1)}
    d = len(g.adj[x])
    if d == 0:
        raise ValueError(f"vertex {x} is isolated; only idleness 1 is defined")
    out: Measure = {}
    if alpha > 0:
        out[x] = alpha
    share = (1 - alpha) / d
    for w in g.adj[x]:
        out[w] = share
    return out


def validate_measure(g: Graph, mu: Measure) -> None:
    if not mu:
        raise ValueError("measure has empty support")
    total = Fraction(0)
    for v, mass in mu.items():
        g.check_vertex(v)
        if not isinstance(mass, (int, Fraction)):
            raise ValueError(f"mass {mass!r} at vertex {v} is not an int or a Fraction")
        if mass <= 0:
            raise ValueError(f"non-positive mass {mass} at vertex {v}")
        total += mass
    if total != 1:
        raise ValueError(f"masses sum to {total}, not 1")


def wasserstein1(g: Graph, mu: Measure, nu: Measure) -> Fraction:
    """Exact Wasserstein-1 distance between two probability measures.

    Mass shared by both measures stays in place, as it does in some
    optimal plan. The rest is scaled once to integers, and each connected
    component's part of it is a balanced transportation problem over hop
    distances, solved exactly by transport._transport_cost; a component
    whose part does not sum to 0 makes the distance infinite. BFS runs as
    graphs.distances_from, looked up on the module at each call, so a
    patch of graphs alone reaches it.
    """
    validate_measure(g, mu)
    validate_measure(g, nu)
    excess = {v: r for v in set(mu) | set(nu) if (r := mu.get(v, 0) - nu.get(v, 0))}
    scale = math.lcm(*(r.denominator for r in excess.values()))
    left = {v: r.numerator * (scale // r.denominator) for v, r in excess.items()}
    value = 0
    while left:
        reach = graphs.distances_from(g, min(left))
        part = {v: left.pop(v) for v in sorted(left) if reach[v] is not INFINITY}
        if sum(part.values()):
            raise ValueError("supports are not mutually reachable (infinite distance)")
        supply = {v: m for v, m in part.items() if m > 0}
        demand = {v: -m for v, m in part.items() if m < 0}
        cost = tuple(tuple(map(graphs.distances_from(g, u).__getitem__, demand)) for u in supply)
        value += transport._transport_cost(tuple(supply.values()), tuple(demand.values()),
                                           cost)[0]
    return Fraction(value, scale)


def girth(g: Graph):
    """Length of a shortest cycle; INFINITY for forests.

    BFS from every root: each non-tree edge (u, w) closes a walk of length
    dist[u] + dist[w] + 1 containing a cycle no longer than that, and for a
    root on a shortest cycle the walk is the cycle itself, so the minimum
    over all roots is exact.
    """
    best = INFINITY
    for s in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    length = dist[u] + dist[w] + 1
                    if length < best:
                        best = length
    return best


def brute_girth(g: Graph):
    """Shortest cycle length by checking every vertex subset for an
    induced-or-not cycle ordering. Exponential; fine for n <= 8."""
    for length in range(3, g.n + 1):
        for subset in combinations(range(g.n), length):
            first = subset[0]
            rest = subset[1:]
            for order in permutations(rest):
                ring = (first,) + order
                if all(g.has_edge(ring[i], ring[(i + 1) % length]) for i in range(length)):
                    return length
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
    return cost[i][j] + transport._hungarian(minor)[0]


def brute_wasserstein1(g: Graph, mu, nu, max_tokens: int = 8) -> Fraction:
    """W1 by brute force: scale both measures to unit tokens and try every
    bijection between the two token multisets."""
    validate_measure(g, mu)
    validate_measure(g, nu)
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
    every permutation."""
    left = [i for i, s in enumerate(supply) for _ in range(s)]
    right = [j for j, d in enumerate(demand) for _ in range(d)]
    return min(sum(cost[i][j] for i, j in zip(left, perm)) for perm in set(permutations(right)))


def disjoint_union(graphs: list[Graph]) -> tuple[Graph, list[int]]:
    """The disjoint union of graphs, their vertices renumbered in order, and
    the index of the graph each vertex comes from."""
    edges, part = [], []
    for k, h in enumerate(graphs):
        edges += [(u + len(part), v + len(part)) for u, v in h.edges()]
        part += [k] * h.n
    return Graph(len(part), edges), part


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


def stdlib_random_regular(n: int, d: int, seed: int) -> Graph:
    """The pairing loop of families.random_regular written on the stdlib's
    random.Random.shuffle, with the same stop rule and error: the reference
    that its replay of the shuffle's draws must match, graph for graph.
    Skips random_regular's argument and expected-work checks."""
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(0, families._PAIRING_BUDGET, max(len(stubs), 1)):
        rng.shuffle(stubs)
        seen = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                ok = False
                break
            seen.add(key)
        if ok:
            return Graph(n, seen)
    raise ValueError(f"random_regular({n},{d}): the pairing model found no simple pairing "
                     f"in {families._PAIRING_BUDGET:.0e} stub placements")


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


def _moved_cell(args, cells, u):
    """The first flow cell moved to the next sink: the row sums still hold,
    two column sums do not."""
    if not cells:
        return cells, u
    ((i, j), units), rest = cells[0], cells[1:]
    return [((i, (j + 1) % len(args[1])), units), *rest], u


def _negative_cell(args, cells, u):
    """The first flow cell written as two items of one cell, twice its units
    and minus its units: every row and column sum and the cost still hold."""
    if not cells:
        return cells, u
    ((i, j), units), rest = cells[0], cells[1:]
    return [((i, j), 2 * units), ((i, j), -units), *rest], u


def _exchanged_cells(args, cells, u):
    """One unit moved around the 2 x 2 exchange of the first pair of flow
    cells that lie in distinct rows and columns and whose exchange changes
    the cost: every row and column sum still holds, the cost does not, so
    the potentials no longer prove it."""
    cost = args[2]
    flow = dict(cells)
    for (i, j), (k, l) in combinations(flow, 2):
        if i != k and j != l and cost[i][l] + cost[k][j] != cost[i][j] + cost[k][l]:
            for cell, step in (((i, j), -1), ((k, l), -1), ((i, l), 1), ((k, j), 1)):
                flow[cell] = flow.get(cell, 0) + step
            return [(cell, units) for cell, units in flow.items() if units], u
    return cells, u


def _lowered_potential(args, cells, u):
    """The first source's potential one lower: the flow still holds, the
    potentials no longer prove its cost."""
    if not u:
        return cells, u
    return cells, (u[0] - 1, *u[1:])


# fault -> (what the corruption makes of the flow cells and potentials of
# a _transport_cost solve, the start of the fact that transport._certify
# then finds broken)
PROOF_FAULTS = {
    "plan cell": (_moved_cell, "plan does not move the supplies to the demands"),
    "negative cell": (_negative_cell, "plan cell "),
    "exchanged cells": (_exchanged_cells, "the potentials "),
    "potential": (_lowered_potential, "the potentials "),
}


def corrupt_proof_input(monkeypatch, fault: str) -> None:
    """Corrupt every solve as PROOF_FAULTS names it, in the flow cells and
    potentials that transport._certify checks, so it reaches
    _transport_cost's proof before any caller. The memo and the per-edge
    context start empty, so no answer proven before is read back; both are
    restored when monkeypatch undoes the patch. A solve passes the check
    where the fault changes nothing (an empty flow or potentials, a moved
    cell with one sink, no exchange that changes the cost) or where a
    lowered potential still proves the cost."""
    corrupt = PROOF_FAULTS[fault][0]
    exact = transport._certify
    monkeypatch.setattr(transport, "_certify", lambda supply, demand, cost, cells, u: exact(
        supply, demand, cost, *corrupt((supply, demand, cost), list(cells), u)))
    monkeypatch.setattr(transport, "_transport_cost", functools.lru_cache(
        maxsize=transport._MEMO_SIZE)(transport._transport_cost.__wrapped__))
    monkeypatch.setattr(curvature, "_last", None)


def _raised_potential(cost, optimum, row_of, u, v):
    """The first row's potential one higher: its matched cell is no longer
    feasible."""
    if not u:
        return optimum, row_of, u, v
    return optimum, row_of, [u[0] + 1, *u[1:]], v


def _swapped_match(cost, optimum, row_of, u, v):
    """The rows of the first two columns whose exchange leaves a matched
    cell that is not tight, exchanged: row_of stays a permutation."""
    for j, l in combinations(range(len(row_of)), 2):
        i, k = row_of[j], row_of[l]
        if cost[k][j] != u[k] + v[j] or cost[i][l] != u[i] + v[l]:
            swapped = list(row_of)
            swapped[j], swapped[l] = k, i
            return optimum, swapped, u, v
    return optimum, row_of, u, v


def _wrong_optimum(cost, optimum, row_of, u, v):
    """The optimum one too high; the matching and potentials stay exact."""
    return optimum + 1, row_of, u, v


# fault -> (what the corruption makes of a Hungarian solve's (optimum,
# row_of, u, v), the start of the fact that transport._certify_assignment
# then finds broken)
ASSIGNMENT_FAULTS = {
    "potential": (_raised_potential, "cell "),
    "swapped match": (_swapped_match, "matched cell "),
    "optimum": (_wrong_optimum, "the potentials' value "),
}


def corrupt_assignment_input(monkeypatch, fault: str) -> None:
    """Corrupt every Hungarian solve as ASSIGNMENT_FAULTS names it, in what
    transport._certify_assignment checks, so it reaches the solve's own
    certificate before any caller. The per-edge context starts empty, so no
    solve made before is read back; monkeypatch restores it. A solve passes
    the check where the fault changes nothing (no potential to raise, no
    exchange that leaves a cell loose)."""
    corrupt = ASSIGNMENT_FAULTS[fault][0]
    exact = transport._certify_assignment
    monkeypatch.setattr(transport, "_certify_assignment",
                        lambda cost, *solve: exact(cost, *corrupt(cost, *solve)))
    monkeypatch.setattr(curvature, "_last", None)


def oracle_graphs() -> list[Graph]:
    """Graphs for the networkx oracles: families, the graphs on at most one
    vertex, and 150 seeded G(n, p) graphs with n <= 10, connected or not,
    regular or not."""
    graphs = [Graph(0), Graph(1), Graph(3), complete(5), cycle(7), path(4), star(5),
              complete_bipartite(3, 4), hypercube(3), petersen(), cocktail_party(3),
              near_cocktail(5)]
    rng = random.Random(8)
    for _ in range(150):
        n, p = rng.randint(2, 10), rng.choice((0.2, 0.35, 0.5, 0.8))
        graphs.append(Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]))
    return graphs


def to_networkx(nx, g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h
