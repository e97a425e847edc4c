"""Exact optimal transport on graphs.

Everything here is exact: masses and results are `fractions.Fraction`,
solver internals are arbitrary-precision integers obtained by scaling all
masses with the common denominator. No floating point enters any
computation in this module.

The transport solver remembers its answers: _transport_cost is keyed by
the exact instance (supplies, demands and cost table as tuples) and keeps
the _MEMO_SIZE most recently used ones, so an instance met again, as in
the thousands of small graphs of an exhaustive suite, is solved once. The
assignment route (_hungarian) is never memoized: it is the independent
check on the transport route, so every equal-degree edge runs its own
Hungarian solves.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

from .graphs import Graph, INFINITY, distances_from

Measure = dict[int, Fraction]
CostMatrix = list[list[int]]

_INT_INF = 1 << 60


class ConsistencyError(Exception):
    """Two independent routes gave different values, or a solver's own
    invariant failed."""


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
    supplies and demands, and the resulting transportation problem over
    hop-distance costs is solved exactly by _transport_cost.
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


# Most instances _transport_cost keeps answers for: over three times the
# 280 distinct instances of `verify --suite main-theorem --nmax 6`, yet
# small enough not to raise the peak memory of the edge-properties suite,
# whose 59,310 distinct instances would fill any bound (4,096 entries
# added 1.4 MB to its peak RSS there, 1,024 entries nothing measurable).
_MEMO_SIZE = 1024


def _transport_cost(supply: list[int], demand: list[int],
                    cost: list[list[Optional[int]]]) -> Optional[int]:
    """Minimum cost of moving integer supplies to integer demands of the
    same total, at cost[i][j] >= 0 per unit from source i to sink j (None:
    no route); None when the demand cannot be met.

    Answers come from _solve_memo (see the module docstring); an instance
    whose entries cannot be hashed is solved directly.
    """
    key = (tuple(supply), tuple(demand), tuple(map(tuple, cost)))
    try:
        hash(key)
    except TypeError:
        return _solve(*key)
    return _solve_memo(key)


def _solve(supply: tuple[int, ...], demand: tuple[int, ...],
           cost: tuple[tuple[Optional[int], ...], ...]) -> Optional[int]:
    """The solve behind _transport_cost.

    Successive shortest paths on the table itself: the residual arcs are
    i -> j at cost[i][j], and j -> i at -cost[i][j] while cell (i, j)
    carries flow. The flow starts as a greedy fill of every cell whose cost
    is the table's least entry c. Any flow of value F costs at least F*c,
    so this one is min-cost for its value, which is the invariant the
    shortest paths keep. Each round then runs Bellman-Ford from every
    source with supply left and pushes along a cheapest path to a sink with
    demand left, undoing greedy units through the backward arcs where the
    optimum needs it. Each path is a shortest one, so no negative cycle
    arises. A shortest path visits each source and sink at most once, so a
    round that needs more than len(supply) + len(demand) + 1 passes has
    met a negative cycle, which only a start that is not min-cost can
    leave; that raises ConsistencyError instead of looping forever.
    """
    supply, demand = list(supply), list(demand)
    arcs = [[(j, c) for j, c in enumerate(row) if c is not None] for row in cost]
    least = min((c for row in arcs for _, c in row), default=0)
    flow: dict[tuple[int, int], int] = {}  # only the cells that carry flow
    for i, row in enumerate(arcs):
        for j, c in row:
            if c == least and supply[i] and demand[j]:
                flow[i, j] = push = min(supply[i], demand[j])
                supply[i] -= push
                demand[j] -= push
    value = least * sum(flow.values())
    max_passes = len(supply) + len(demand) + 1
    while any(supply):
        ds = [0 if s else _INT_INF for s in supply]
        dt = [_INT_INF] * len(demand)
        via = [-1] * len(supply)  # sink each source is reached back from; -1 at a root
        src = [-1] * len(demand)  # source each sink is reached from
        active = {i for i, s in enumerate(supply) if s}
        for _ in range(max_passes):
            if not active:
                break
            for i in active:
                di = ds[i]
                for j, c in arcs[i]:
                    if di + c < dt[j]:
                        dt[j], src[j] = di + c, i
            active = set()
            for i, j in flow:
                if dt[j] < _INT_INF and dt[j] - cost[i][j] < ds[i]:
                    ds[i], via[i] = dt[j] - cost[i][j], j
                    active.add(i)
        if active:
            raise ConsistencyError(f"transport round still relaxing after {max_passes} "
                                   "Bellman-Ford passes: the flow has a negative cycle")
        sink = min((j for j, d in enumerate(demand) if d), key=dt.__getitem__, default=None)
        if sink is None or dt[sink] == _INT_INF:
            return None
        path, j = [], sink  # (source, sink it sends to, sink it takes back from)
        while j >= 0:
            i = src[j]
            path.append((i, j, via[i]))
            j = via[i]
        push = min(demand[sink], supply[i], *(flow[r, b] for r, _, b in path if b >= 0))
        supply[i] -= push
        demand[sink] -= push
        value += push * dt[sink]
        for i, j, b in path:
            flow[i, j] = flow.get((i, j), 0) + push
            if b >= 0:
                flow[i, b] -= push
                if not flow[i, b]:
                    del flow[i, b]
    return value


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _solve_memo(key: tuple) -> Optional[int]:
    """_solve of one hashable instance, remembered for the _MEMO_SIZE most
    recently used ones. None results are kept; a solve that raises leaves
    no entry."""
    return _solve(*key)


def _check_square(cost: CostMatrix) -> int:
    k = len(cost)
    for row in cost:
        if len(row) != k:
            raise ValueError("cost matrix must be square")
        for c in row:
            if not isinstance(c, int) or c < 0:
                raise ValueError("cost entries must be non-negative integers")
    return k


def _hungarian(cost: CostMatrix) -> tuple[int, list[int], list[int], list[int]]:
    """Hungarian algorithm with row/column potentials, exact on integer
    costs. Returns (optimum, row_of, u, v): row_of[j] is the row matched to
    column j, and the potentials satisfy cost[i][j] >= u[i] + v[j]
    everywhere, with equality on matched pairs, so sum(u) + sum(v) is the
    optimum too. The matrix is assumed square (see _check_square)."""
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
    row_of = [r - 1 for r in match[1:]]
    return sum(cost[i][j] for j, i in enumerate(row_of)), row_of, u[1:], v[1:]


def assignment_cost(cost: CostMatrix) -> int:
    """Minimum total cost of a perfect matching (Hungarian algorithm with
    row/column potentials; exact on integer costs)."""
    _check_square(cost)
    return _hungarian(cost)[0]


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
    _check_square(cost)
    return _support(cost, *_hungarian(cost)[1:])


def _support(cost: CostMatrix, row_of: list[int], u: list[int],
             v: list[int]) -> set[tuple[int, int]]:
    """optimal_pair_support from the matching and potentials of a solve."""
    k = len(cost)
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
