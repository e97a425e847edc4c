"""Exact solvers for the two routes of edge curvature: min-cost transport
and min-cost assignment on integer cost tables.

Everything here is exact: supplies, demands, costs, values and potentials
are arbitrary-precision integers, which curvature obtains by scaling an
edge's masses with their common denominator. No floating point enters any
computation in this module, and it imports no other orckit module:
curvature poses every instance, on an edge's own B1(x) | B1(y), and is its
only caller.

The transport solver, _transport_cost, takes a complete integer cost
table (every source can reach every sink) with supplies and demands of
the same total, and returns its value, the cost of the solver's flow,
and source potentials that prove it, once _certify has checked both. It
is an LRU cache over its own arguments, so callers pass the instance as
tuples, and the _MEMO_SIZE most recently used instances are kept with
their proven answers. An instance met again, as in the thousands of
small graphs of an exhaustive suite, is solved and checked once.
The assignment route is the Hungarian solve (_hungarian). It starts warm,
from row-minimum potentials and a greedy matching of tight cells, and
augments only the rows that leaves unmatched, so a matrix that is nearly
all tight, as dense graphs give, costs about k^2 instead of k^3. Each
solve returns through _certify_assignment, which checks that its matching
is a permutation and its potentials feasible, tight on the matching and of
the optimum's value. From those potentials, _supsup finds the largest cost
that some optimal assignment uses: it starts from the largest matched cost
and searches only the tight pairs of higher cost, highest first, stopping
at the first that lies on an optimal assignment. curvature's assignment
instances are the only callers. Neither is memoized: the assignment route
is the independent check on the transport route, so every equal-degree
edge runs its own Hungarian solves.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from operator import sub
from typing import Optional

CostMatrix = list[list[int]]
CostTable = tuple[tuple[int, ...], ...]  # a transport instance's costs, one row per source

_INT_INF = 1 << 60


class ConsistencyError(Exception):
    """Two independent routes gave different values, or a solver's own
    invariant failed."""


# Most instances _transport_cost keeps answers for: over three times the
# 280 distinct instances of `verify --suite main-theorem --nmax 6`, yet
# small enough not to raise the peak memory of the edge-properties suite,
# whose 59,310 distinct instances would fill any bound (4,096 entries
# added 1.4 MB to its peak RSS there, 1,024 entries nothing measurable).
_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _transport_cost(supply: tuple[int, ...], demand: tuple[int, ...], cost: CostTable
                    ) -> tuple[int, tuple[int, ...]]:
    """(value, u) of moving positive integer supplies to positive integer
    demands of the same total, at cost[i][j] >= 0 per unit from source i to
    sink j, on a complete table: every source can send to every sink.
    value is the minimum cost and u potentials on the sources that prove
    it. Both come from _certify, which checks the solver's flow and
    potentials and returns the flow's cost as the value, so the memo holds
    only proven answers and no flow. The arguments are tuples, so the
    instance is its own memo key (see the module docstring), and so is the
    result, which no caller can change; a solve that raises leaves no entry.

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

    u holds the source distances of the last round, which settles tight on
    the cells that carry flow and pushes along a shortest path, whose cells
    are tight too; the table is complete, so every distance is finite.
    """
    have, need = list(supply), list(demand)  # what is left to send and to take
    least = min((c for row in cost for c in row), default=0)
    flow: dict[tuple[int, int], int] = {}  # only the cells that carry flow
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            if c == least and have[i] and need[j]:
                flow[i, j] = push = min(have[i], need[j])
                have[i] -= push
                need[j] -= push
    ds = [0] * len(have)
    max_passes = len(have) + len(need) + 1
    while any(have):
        ds = [0 if s else _INT_INF for s in have]
        dt = [_INT_INF] * len(need)
        via = [-1] * len(have)  # sink each source is reached back from; -1 at a root
        src = [-1] * len(need)  # source each sink is reached from
        active = {i for i, s in enumerate(have) if s}
        for _ in range(max_passes):
            if not active:
                break
            for i in active:
                di = ds[i]
                for j, c in enumerate(cost[i]):
                    if di + c < dt[j]:
                        dt[j], src[j] = di + c, i
            active = set()
            for i, j in flow:
                if dt[j] - cost[i][j] < ds[i]:
                    ds[i], via[i] = dt[j] - cost[i][j], j
                    active.add(i)
        if active:
            raise ConsistencyError(f"transport round still relaxing after {max_passes} "
                                   "Bellman-Ford passes: the flow has a negative cycle")
        sink = min((j for j, d in enumerate(need) if d), key=dt.__getitem__)
        path, j = [], sink  # (source, sink it sends to, sink it takes back from)
        while j >= 0:
            i = src[j]
            path.append((i, j, via[i]))
            j = via[i]
        push = min(need[sink], have[i], *(flow[r, b] for r, _, b in path if b >= 0))
        have[i] -= push
        need[sink] -= push
        for i, j, b in path:
            flow[i, j] = flow.get((i, j), 0) + push
            if b >= 0:
                flow[i, b] -= push
                if not flow[i, b]:
                    del flow[i, b]
    return _certify(supply, demand, cost, flow.items(), tuple(ds))


def _certify(supply: tuple[int, ...], demand: tuple[int, ...], cost: CostTable,
             cells: Iterable[tuple[tuple[int, int], int]], u: tuple[int, ...]) -> tuple:
    """(value, u) for a flow of the instance, given as ((i, j), units)
    cells, and source potentials u, if the flow is feasible (positive cells
    inside the table, row sums the supplies, column sums the demands) and
    u's dual value equals its cost, which is then the value: by weak LP
    duality, with w[j] = min_i (u[i] + cost[i][j]), no flow costs less than
    sum(w*demand) - sum(u*supply). Otherwise ConsistencyError naming the
    fact that fails and the instance."""
    sent, taken, value = [0] * len(supply), [0] * len(demand), 0
    for (i, j), units in cells:
        if not (0 <= i < len(supply) and 0 <= j < len(demand) and units > 0):
            why = f"plan cell {(i, j, units)} is not a positive cell"
            break
        sent[i] += units
        taken[j] += units
        value += units * cost[i][j]
    else:
        if tuple(sent) != supply or tuple(taken) != demand:
            why = "plan does not move the supplies to the demands"
        elif len(u) != len(supply) or value != sum(
                d * min(ui + c for ui, c in zip(u, col)) for col, d in zip(zip(*cost), demand)
        ) - sum(ui * s for ui, s in zip(u, supply)):
            why = f"the potentials {u} do not prove the value {value}"
        else:
            return value, u
    raise ConsistencyError(f"transport certificate: {why}; supplies {supply}, demands {demand}")


def _hungarian(cost: CostMatrix) -> tuple[int, list[int], list[int], list[int]]:
    """Hungarian algorithm with row/column potentials, exact on integer
    costs. Returns (optimum, row_of, u, v): row_of[j] is the row matched to
    column j, and the potentials satisfy cost[i][j] >= u[i] + v[j]
    everywhere, with equality on matched pairs, so sum(u) + sum(v) is the
    optimum too; _certify_assignment checks all of that before the solve
    returns. The matrix is assumed square: curvature solves only the
    assignment instances of equal-degree edges.

    Warm start: u[i] is row i's minimum and v is 0, which is feasible, and
    each row in turn takes the first free column where its cost is u[i], a
    tight cell. The augmentation loop keeps the potentials feasible and
    tight on the matching, and runs only for the rows left unmatched. Where
    nearly every cell is tight, as on dense graphs, few rows are left, and
    the solve costs about k^2 instead of k^3.
    """
    k = len(cost)
    u = [0, *map(min, cost)]  # 1-based, as are v, match and way
    v = [0] * (k + 1)
    match = [0] * (k + 1)  # match[j] = row assigned to column j, 0 while it is free
    way = [0] * (k + 1)
    free = []  # the rows the warm start leaves unmatched
    for i in range(1, k + 1):
        row, ui = cost[i - 1], u[i]
        for j in range(1, k + 1):
            if not match[j] and row[j - 1] == ui:
                match[j] = i
                break
        else:
            free.append(i)
    for i in free:
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
    return _certify_assignment(cost, sum(cost[i][j] for j, i in enumerate(row_of)), row_of,
                               u[1:], v[1:])


def _certify_assignment(cost: CostMatrix, optimum: int, row_of: list[int], u: list[int],
                        v: list[int]) -> tuple[int, list[int], list[int], list[int]]:
    """(optimum, row_of, u, v) as given, if row_of is a permutation of the
    rows, cost[i][j] >= u[i] + v[j] on every cell with equality on the
    matched cells (row_of[j], j), and sum(u) + sum(v) is the optimum. The
    matching then costs sum(u) + sum(v), which by weak LP duality no
    assignment undercuts: it is optimal, and the potentials are optimal
    duals, which _supsup relies on. Otherwise ConsistencyError naming the
    fact that fails. O(k^2), the size of the matrix."""
    k = len(cost)
    if sorted(row_of) != list(range(k)):
        why = f"row_of {row_of} is not a permutation of the {k} rows"
    elif len(u) != k or len(v) != k:
        why = f"u has {len(u)} and v {len(v)} entries, not {k}"
    elif low := [(i, j) for i, row in enumerate(cost) if min(map(sub, row, v)) < u[i]
                 for j, c in enumerate(row) if c < u[i] + v[j]]:
        why = f"cell {low[0]} costs less than u[i] + v[j]"
    elif loose := [(i, j) for j, i in enumerate(row_of) if cost[i][j] != u[i] + v[j]]:
        why = f"matched cell {loose[0]} is not tight"
    elif (value := sum(u) + sum(v)) != optimum:
        why = f"the potentials' value {value} is not the optimum {optimum}"
    else:
        return optimum, row_of, u, v
    raise ConsistencyError(f"assignment certificate: {why}; {k}x{k} matrix")


def _supsup(cost: CostMatrix, row_of: list[int], u: list[int], v: list[int]) -> Optional[int]:
    """The largest cost of a pair used by some optimal assignment, from the
    matching and certified potentials of one Hungarian solve; None for the
    empty matrix.

    By complementary slackness, the optimal assignments are exactly the
    perfect matchings of the tight pairs, those with cost[i][j] equal to
    u[i] + v[j]. Any two perfect matchings differ by alternating cycles, so
    a tight pair (i, j) lies in one iff row i can be reached from row_of[j]
    in zero or more steps, each from a row r along a tight pair (r, c) to
    row_of[c]; zero steps give the matched pairs. So the answer is at least
    the largest matched cost, and only the tight pairs of higher cost are
    tested, highest first: the first one reached is the answer. Each
    column's reachable rows are searched at most once, so the search costs
    O(k^2) where no such pair is tight and O(k^3) at worst.
    """
    if not row_of:
        return None
    best = max(cost[i][j] for j, i in enumerate(row_of))
    higher = sorted(((c, i, j) for i, (row, ui) in enumerate(zip(cost, u)) if max(row) > best
                     for j, (c, vj) in enumerate(zip(row, v)) if c > best and c == ui + vj),
                    reverse=True)
    if not higher:
        return best
    tight = [[j for j, (c, vj) in enumerate(zip(row, v)) if c == ui + vj]
             for row, ui in zip(cost, u)]
    reach: dict[int, set[int]] = {}  # column j -> the rows reachable from row_of[j]
    for c, i, j in higher:
        if j not in reach:
            seen = reach[j] = {row_of[j]}
            stack = [row_of[j]]
            while stack:
                for col in tight[stack.pop()]:
                    if row_of[col] not in seen:
                        seen.add(row_of[col])
                        stack.append(row_of[col])
        if i in reach[j]:
            return c
    return best
