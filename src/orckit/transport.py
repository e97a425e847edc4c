"""Exact optimal transport on graphs.

Everything here is exact: masses and results are `fractions.Fraction`,
solver internals are arbitrary-precision integers obtained by scaling all
masses with the common denominator. No floating point enters any
computation in this module.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Optional

from .graphs import Graph, INFINITY, distances_from

Measure = dict[int, Fraction]
CostMatrix = list[list[int]]

_INT_INF = 1 << 60


def mu_alpha(g: Graph, x: int, alpha) -> Measure:
    """Lazy random-walk measure of x: mass alpha stays at x, the rest is
    spread uniformly over the neighbors."""
    alpha = Fraction(alpha)
    if not (0 <= alpha <= 1):
        raise ValueError("idleness must lie in [0, 1]")
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
        mass = Fraction(mass)
        if mass <= 0:
            raise ValueError(f"non-positive mass {mass} at vertex {v}")
        total += mass
    if total != 1:
        raise ValueError(f"masses sum to {total}, not 1")


class _MinCostFlow:
    """Successive shortest augmenting paths with SPFA label correction.

    Integer capacities and costs only; exact by construction. Small
    instances (tens of nodes) are all this artifact ever solves.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.arcs: list[list[list[int]]] = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, cap: int, cost: int) -> None:
        self.arcs[u].append([v, cap, cost, len(self.arcs[v])])
        self.arcs[v].append([u, 0, -cost, len(self.arcs[u]) - 1])

    def run(self, s: int, t: int, need: int) -> tuple[int, int]:
        """Push up to `need` units from s to t; returns (flow, cost)."""
        arcs = self.arcs
        sent = 0
        total_cost = 0
        while need > 0:
            dist = [_INT_INF] * self.n
            prev: list[Optional[tuple[int, list[int]]]] = [None] * self.n
            in_queue = [False] * self.n
            dist[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                in_queue[u] = False
                du = dist[u]
                for arc in arcs[u]:
                    if arc[1] > 0:
                        v = arc[0]
                        dv = du + arc[2]
                        if dv < dist[v]:
                            dist[v] = dv
                            prev[v] = (u, arc)
                            if not in_queue[v]:
                                in_queue[v] = True
                                queue.append(v)
            if dist[t] >= _INT_INF:
                break
            push = need
            v = t
            while v != s:
                u, arc = prev[v]
                push = min(push, arc[1])
                v = u
            v = t
            while v != s:
                u, arc = prev[v]
                arc[1] -= push
                arcs[v][arc[3]][1] += push
                v = u
            sent += push
            need -= push
            total_cost += push * dist[t]
        return sent, total_cost


def _scaled_supplies(masses: dict[int, Fraction], scale: int) -> dict[int, int]:
    out = {}
    for v, m in masses.items():
        num = m.numerator * scale
        assert num % m.denominator == 0
        out[v] = num // m.denominator
    return out


def wasserstein1(g: Graph, mu: Measure, nu: Measure) -> Fraction:
    """Exact Wasserstein-1 distance between two probability measures.

    Mass shared by both measures stays in place, as it does in some
    optimal plan. The rest is scaled by the common denominator to integer
    supplies and demands, and the resulting transportation problem is
    solved by exact integer min-cost flow over hop-distance costs.
    """
    validate_measure(g, mu)
    validate_measure(g, nu)
    sources: dict[int, Fraction] = {}
    sinks: dict[int, Fraction] = {}
    for v in set(mu) | set(nu):
        r = mu.get(v, Fraction(0)) - nu.get(v, Fraction(0))
        if r > 0:
            sources[v] = r
        elif r < 0:
            sinks[v] = -r
    if not sources:
        return Fraction(0)

    scale = math.lcm(*(m.denominator for m in sources.values()),
                     *(m.denominator for m in sinks.values()))
    supply = _scaled_supplies(sources, scale)
    demand = _scaled_supplies(sinks, scale)
    assert sum(supply.values()) == sum(demand.values())

    src = sorted(supply)
    snk = sorted(demand)
    cost = []
    for u in src:
        dist = distances_from(g, u)
        cost.append([None if dist[v] is INFINITY else dist[v] for v in snk])
    value = _transport_cost([supply[u] for u in src], [demand[v] for v in snk], cost)
    if value is None:
        raise ValueError("supports are not mutually reachable (infinite distance)")
    return Fraction(value, scale)


def _transport_cost(supply: list[int], demand: list[int],
                    cost: list[list[Optional[int]]]) -> Optional[int]:
    """Minimum cost of moving integer supplies to integer demands of the
    same total, at cost[i][j] per unit from source i to sink j (None: no
    route), by exact min-cost flow; None when the demand cannot be met."""
    total = sum(supply)
    ns = len(supply)
    n_nodes = ns + len(demand) + 2
    s, t = n_nodes - 2, n_nodes - 1
    net = _MinCostFlow(n_nodes)
    for i, (amount, row) in enumerate(zip(supply, cost)):
        net.add_arc(s, i, amount, 0)
        for j, c in enumerate(row):
            if c is not None:
                net.add_arc(i, ns + j, total, c)
    for j, amount in enumerate(demand):
        net.add_arc(ns + j, t, amount, 0)
    sent, value = net.run(s, t, total)
    return value if sent == total else None


def wasserstein1_oracle(g: Graph, mu: Measure, nu: Measure, max_tokens: int = 8) -> Fraction:
    """Brute-force check value: scale both measures to unit tokens and try
    every bijection between the two token multisets."""
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


def _check_square(cost: CostMatrix) -> int:
    k = len(cost)
    for row in cost:
        if len(row) != k:
            raise ValueError("cost matrix must be square")
        for c in row:
            if not isinstance(c, int) or c < 0:
                raise ValueError("cost entries must be non-negative integers")
    return k


def _hungarian(cost: CostMatrix) -> tuple[list[int], list[int], list[int]]:
    """Hungarian algorithm with row/column potentials, exact on integer
    costs. Returns (row_of, u, v): row_of[j] is the row matched to column
    j, and the potentials satisfy cost[i][j] >= u[i] + v[j] everywhere,
    with equality on matched pairs, so sum(u) + sum(v) is the optimum."""
    k = len(cost)
    u = [0] * (k + 1)
    v = [0] * (k + 1)
    match = [0] * (k + 1)  # match[j] = row assigned to column j (1-based)
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        match[0] = i
        j0 = 0
        minv = [_INT_INF] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = _INT_INF
            j1 = 0
            for j in range(1, k + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(k + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return [r - 1 for r in match[1:]], u[1:], v[1:]


def assignment_cost(cost: CostMatrix) -> int:
    """Minimum total cost of a perfect matching (Hungarian algorithm with
    row/column potentials; exact on integer costs)."""
    _check_square(cost)
    row_of, _, _ = _hungarian(cost)
    return sum(cost[i][j] for j, i in enumerate(row_of))


def _minor(cost: CostMatrix, row: int, col: int) -> CostMatrix:
    return [[c for j, c in enumerate(r) if j != col] for i, r in enumerate(cost) if i != row]


def forced_assignment_cost(cost: CostMatrix, row: int, col: int) -> int:
    """Cheapest perfect matching that maps `row` to `col`."""
    return cost[row][col] + assignment_cost(_minor(cost, row, col))


@dataclass(frozen=True)
class Assignment:
    """A perfect matching row i -> column perm[i] with its total cost."""

    perm: tuple[int, ...]
    cost: int

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a bijection")


def min_cost_assignment(cost: CostMatrix) -> Assignment:
    """Optimal assignment with a deterministic tie-break: among all optimal
    permutations, the lexicographically smallest. Built row by row: give the
    first row the smallest column some optimal assignment gives it, then
    continue on the minor without that row and column, whose optimal
    assignments are exactly the completions of that choice."""
    k = _check_square(cost)
    best = assignment_cost(cost)
    cols = list(range(k))
    sub = cost
    perm = []
    while cols:
        idx = min(j for i, j in optimal_pair_support(sub) if i == 0)
        perm.append(cols.pop(idx))
        sub = _minor(sub, 0, idx)
    result = Assignment(tuple(perm), best)
    assert best == sum(cost[i][result.perm[i]] for i in range(k))
    return result


def optimal_pair_support(cost: CostMatrix) -> set[tuple[int, int]]:
    """All pairs (i, j) used by at least one optimal assignment, from one
    Hungarian solve.

    By complementary slackness, the optimal assignments are exactly the
    perfect matchings of the tight pairs, those with cost[i][j] equal to
    u[i] + v[j] under the final potentials. Any two perfect matchings
    differ by alternating cycles, so a tight pair (i, j) lies in one iff
    row i can be reached from row_of[j] in zero or more steps, each from a
    row r along a tight pair (r, c) to row_of[c]; zero steps give the
    matched pair. That is one search per column, O(k^3) in all, with no
    further solves.
    """
    k = _check_square(cost)
    row_of, u, v = _hungarian(cost)
    tight = [[j for j in range(k) if cost[i][j] == u[i] + v[j]] for i in range(k)]
    support = set()
    for j in range(k):
        seen = {row_of[j]}
        stack = [row_of[j]]
        while stack:
            for c in tight[stack.pop()]:
                if row_of[c] not in seen:
                    seen.add(row_of[c])
                    stack.append(row_of[c])
        support.update((i, j) for i in seen if cost[i][j] == u[i] + v[j])
    return support
