"""Edge curvature on finite simple graphs, all values exact rationals.

For an edge x ~ y and idleness alpha in [0, 1], the curvature is
1 - W1(mu_x^alpha, mu_y^alpha). The Lin-Lu-Yau curvature kappa is the
normalized value on the final linear stretch of the idleness function,
evaluated at alpha = 1/(max(d_x, d_y) + 1). Where both endpoints have the
same degree, kappa and kappa_0 also reduce to min-cost bipartite
assignments between neighborhood sets, which this module computes as an
independent second route and checks against the transport route on every
call. Disagreement between routes raises ConsistencyError.

Every quantity of an edge depends on B1(x) and B1(y) alone, where all
distances are 1, 2 or 3 and follow from adjacency tests, so the work per
edge does not grow with the size of the graph. Each edge's neighbourhood
data, transport table, assignment matrices and kappa_alpha values are built
once: the one transport table serves every idleness, and each assignment
matrix is solved once, which gives both C* and the optimal-pair support.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import transport
from .graphs import Graph
from .transport import ConsistencyError


class _Instance:
    """Moving sets of one assignment instance with their cost matrix, and
    the matrix's one Hungarian solve (optimum, row_of, u, v) on first use."""

    def __init__(self, g: Graph, left: list[int], right: list[int]) -> None:
        self.left, self.right, self.cost = left, right, _cost_matrix(g, left, right)

    @cached_property
    def solution(self) -> tuple[int, list[int], list[int], list[int]]:
        return transport._hungarian(self.cost)

    @cached_property
    def supsup(self) -> Optional[int]:
        """Largest pair distance used by some optimal assignment, read off
        the same solve's potentials; None for the empty instance."""
        support = transport._support(self.cost, *self.solution[1:])
        return max((self.cost[i][j] for i, j in support), default=None)


class _Edge:
    """The edge x ~ y of g, checked once, with its degrees, L = lcm(d_x, d_y)
    and the transport values kappa_alpha solved so far, keyed by (p, q) for
    alpha = p/q. The rest is computed once, on first use, so an edge pays
    only for what its callers read: the transport table, nxy and the kappa
    and kappa_0 assignment instances."""

    def __init__(self, g: Graph, x: int, y: int) -> None:
        if not g.has_edge(x, y):
            raise ValueError(f"({x}, {y}) is not an edge")
        self.g, self.x, self.y = g, x, y
        self.dx, self.dy = len(g.adj[x]), len(g.adj[y])
        self.lcm = math.lcm(self.dx, self.dy)
        self.kappas: dict[tuple[int, int], Fraction] = {}

    @property
    def d(self) -> int:
        if self.dx != self.dy:
            raise ValueError(f"vertices {self.x} and {self.y} have unequal degrees "
                             f"{self.dx} != {self.dy}")
        return self.dx

    @cached_property
    def nxy(self) -> int:
        return len(set(self.g.adj[self.x]).intersection(self.g.adj[self.y]))

    @cached_property
    def table(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]], transport.CostMatrix]:
        """The transport table of every alpha: (send, take, cost).

        Each vertex v of B1(x) | B1(y) gets an integer pair (a_v, b_v): a_v
        from the centre masses (+L at x, -L at y), b_v from the neighbour
        shares (+L/d_x on N(x), -L/d_y on N(y)). At alpha = p/q its excess
        mu_x^alpha - mu_y^alpha, scaled by q*L, is p*a_v + (q-p)*b_v. `send`
        holds the pairs of the vertices that can have positive excess, all
        in B1(x); `take` those that can have negative excess, all in B1(y);
        cost[i][j] is the distance between the i-th and the j-th of them.
        x and y may lie in both lists, but at any one alpha no vertex both
        sends and takes."""
        g, x, y, lcm = self.g, self.x, self.y, self.lcm
        pairs = {x: [lcm, 0], y: [-lcm, 0]}
        for w in g.adj[x]:
            pairs.setdefault(w, [0, 0])[1] += lcm // self.dx
        for w in g.adj[y]:
            pairs.setdefault(w, [0, 0])[1] -= lcm // self.dy
        send = sorted(v for v, (a, b) in pairs.items() if a > 0 or b > 0)
        take = sorted(v for v, (a, b) in pairs.items() if a < 0 or b < 0)
        return ([tuple(pairs[v]) for v in send], [tuple(pairs[v]) for v in take],
                _cost_matrix(g, send, take))

    def sliced(self, p: int, q: int) -> tuple[list[int], list[int], tuple[int, ...],
                                                tuple[int, ...], transport.CostTable]:
        """The transport instance of alpha = p/q, sliced out of the table:
        (rows, cols, supply, demand, cost). rows and cols index the send
        and take vertices with positive supply and demand at alpha; supply,
        demand and cost, their sub-table, are the tuples _transport_cost
        keys on."""
        send, take, table = self.table
        r = q - p
        rows, supply = [], []
        for i, (a, b) in enumerate(send):
            if (m := p * a + r * b) > 0:
                rows.append(i)
                supply.append(m)
        cols, demand = [], []
        for j, (a, b) in enumerate(take):
            if (m := p * a + r * b) < 0:
                cols.append(j)
                demand.append(-m)
        return (rows, cols, tuple(supply), tuple(demand),
                tuple(tuple(table[i][j] for j in cols) for i in rows))

    @cached_property
    def instance(self) -> _Instance:  # S1(x)\B1(y) -> S1(y)\B1(x)
        nx, ny = set(self.g.adj[self.x]), set(self.g.adj[self.y])
        return _Instance(self.g, sorted(nx - ny - {self.y}), sorted(ny - nx - {self.x}))

    @cached_property
    def zero_instance(self) -> _Instance:  # S1(x)\S1(y) -> S1(y)\S1(x), holding y and x
        nx, ny = set(self.g.adj[self.x]), set(self.g.adj[self.y])
        return _Instance(self.g, sorted(nx - ny), sorted(ny - nx))


_last: Optional[_Edge] = None


def _edge(g: Graph, x: int, y: int) -> _Edge:
    """Context of the ordered edge (x, y). The last one is reused only for
    the identical graph object: Graph equality and hashing cost O(n + m)."""
    global _last
    last = _last
    if last is None or last.g is not g or last.x != x or last.y != y:
        last = _last = _Edge(g, x, y)
    return last


def kappa_alpha(g: Graph, x: int, y: int, alpha) -> Fraction:
    """Transport curvature 1 - W1(mu_x^alpha, mu_y^alpha) of the edge x ~ y.

    With alpha = p/q and L = lcm(d_x, d_y), both measures become integers
    when scaled by q*L: p*L at the centre and (q-p)*L/d on each neighbor.
    Mass the two share stays in place, and the rest moves from B1(x) to
    B1(y) by transport._transport_cost. The supplies and demands are
    p*a_v + (q-p)*b_v from the edge's transport table (_Edge.table), whose
    rows and columns with positive supply and demand _Edge.sliced cuts out
    as tuples, the memo key of the solve, so the table's distances are
    built once per edge and serve every alpha. The edge context keeps each
    value; it reads no matrix or solve of the assignment route, to stay
    independent of it.
    """
    e = _edge(g, x, y)
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    if not (0 <= p <= q):
        raise ValueError("idleness must lie in [0, 1]")
    if (p, q) not in e.kappas:  # keyed by (p, q): hashing a Fraction costs a modular inverse
        cost = transport._transport_cost(*e.sliced(p, q)[2:])[0]
        e.kappas[p, q] = Fraction(q * e.lcm - cost, q * e.lcm)
    return e.kappas[p, q]


def _cost_matrix(g: Graph, left: list[int], right: list[int]) -> transport.CostMatrix:
    """Hop distances from vertices `left` of B1(x) to vertices `right` of
    B1(y), x ~ y; the two lists may share vertices.

    Such a distance is at most 3 (z - x - y - w), so adjacency tests decide
    it: 0 for z == w, 1 for adjacent vertices, 2 for vertices with a common
    neighbor, 3 otherwise. No search leaves the two 1-balls.
    """
    rows = []
    for z in left:
        nz = set(g.adj[z])
        rows.append([0 if w == z else 1 if w in nz else 3 if nz.isdisjoint(g.adj[w]) else 2
                     for w in right])
    return rows


def assignment_instance(g: Graph, x: int, y: int):
    """Moving sets S1(x)\\B1(y) and S1(y)\\B1(x) with their cost matrix."""
    inst = _edge(g, x, y).instance
    return list(inst.left), list(inst.right), [list(row) for row in inst.cost]


def zero_assignment_instance(g: Graph, x: int, y: int):
    """Moving sets S1(x)\\S1(y) and S1(y)\\S1(x) (these include y and x)."""
    inst = _edge(g, x, y).zero_instance
    return list(inst.left), list(inst.right), [list(row) for row in inst.cost]


def kappa_lly_assignment(g: Graph, x: int, y: int) -> Fraction:
    """Assignment route for kappa, valid on equal-degree edges only:
    kappa = (d + 1 - C*)/d with C* the optimal assignment cost between
    S1(x)\\B1(y) and S1(y)\\B1(x)."""
    e = _edge(g, x, y)
    return Fraction(e.d + 1 - e.instance.solution[0], e.d)


def kappa_zero_assignment(g: Graph, x: int, y: int) -> Fraction:
    """Assignment route for kappa_0 on equal-degree edges:
    kappa_0 = (d - C*)/d over bijections S1(x)\\S1(y) -> S1(y)\\S1(x)."""
    e = _edge(g, x, y)
    return Fraction(e.d - e.zero_instance.solution[0], e.d)


def _check_routes(name: str, x: int, y: int, value: Fraction, alt: Fraction) -> None:
    if alt != value:
        raise ConsistencyError(
            f"{name}({x},{y}): transport route {value} != assignment route {alt}")


def kappa_lly(g: Graph, x: int, y: int) -> Fraction:
    """Lin-Lu-Yau curvature: the idleness function is linear on
    [1/(D+1), 1] with endpoint value 0, so kappa equals
    kappa_alpha / (1 - alpha) evaluated at alpha = 1/(D+1), D = max degree.

    On equal-degree edges the independent assignment route is computed as
    well and must agree exactly.
    """
    e = _edge(g, x, y)
    a = Fraction(1, max(e.dx, e.dy) + 1)
    value = kappa_alpha(g, x, y, a) / (1 - a)
    if e.dx == e.dy:
        _check_routes("kappa", x, y, value, kappa_lly_assignment(g, x, y))
    return value


def kappa_zero(g: Graph, x: int, y: int) -> Fraction:
    """Curvature at idleness 0, cross-checked against the assignment route
    whenever both endpoints have the same degree."""
    e = _edge(g, x, y)
    value = kappa_alpha(g, x, y, Fraction(0))
    if e.dx == e.dy:
        _check_routes("kappa_0", x, y, value, kappa_zero_assignment(g, x, y))
    return value


def is_bone_idle_edge(g: Graph, x: int, y: int) -> bool:
    """An edge is bone-idle when its curvature vanishes for every idleness,
    which happens exactly when kappa_0 = 0 and kappa = 0."""
    return kappa_zero(g, x, y) == 0 and kappa_lly(g, x, y) == 0


def is_bone_idle(g: Graph) -> bool:
    return all(is_bone_idle_edge(g, x, y) for x, y in g.edges())


def is_ricci_flat(g: Graph) -> bool:
    return all(kappa_lly(g, x, y) == 0 for x, y in g.edges())


def is_zero_ricci_flat(g: Graph) -> bool:
    return all(kappa_zero(g, x, y) == 0 for x, y in g.edges())


@dataclass(frozen=True)
class LocalStructure:
    """Assignment statistics of an equal-degree edge.

    For any assignment with N_c pairs at distance c, the total cost is
    N1 + 2*N2 + 3*N3 and the pair count is k, so 2*N1 + N2 = 3k - cost is
    the same for every optimal assignment. A pair at distance 1 closes a
    4-cycle through the edge, a pair at distance 2 a 5-cycle.
    """

    k: int
    optimal_cost: int
    two_n1_plus_n2: int
    bone_idle: bool


def local_structure(g: Graph, x: int, y: int) -> LocalStructure:
    """Assignment statistics of an equal-degree edge; whether some optimal
    assignment uses distance 3 is read off the optimal-pair support."""
    e = _edge(g, x, y)
    d, k, c_star = e.d, len(e.instance.left), e.instance.solution[0]
    two_n1 = 3 * k - c_star
    bone = (2 * d - 4 - 3 * e.nxy == two_n1) and e.instance.supsup == 3
    return LocalStructure(k, c_star, two_n1, bone)


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Piecewise linear function on [0, 1]: breakpoints with values,
    linear in between. Construction enforces the shape facts used here:
    at most 3 segments, concave, value 0 at the right end."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        bp, vals = self.breakpoints, self.values
        if len(bp) != len(vals) or len(bp) < 2:
            raise ValueError("need matching breakpoints and values, at least two")
        if bp[0] != 0 or bp[-1] != 1:
            raise ValueError("breakpoints must span [0, 1]")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must strictly increase")
        if len(bp) - 1 > 3:
            raise ConsistencyError("more than 3 linear segments")
        slopes = tuple((v2 - v1) / (b2 - b1)
                       for b1, b2, v1, v2 in zip(bp, bp[1:], vals, vals[1:]))
        if any(s1 <= s2 for s1, s2 in zip(slopes, slopes[1:])):
            raise ConsistencyError("segments not strictly concave")
        if vals[-1] != 0:
            raise ConsistencyError("value at idleness 1 must be 0")
        object.__setattr__(self, "_slopes", slopes)  # not a field: equality and repr ignore it

    def slopes(self) -> tuple[Fraction, ...]:
        return self._slopes

    @property
    def segments(self) -> int:
        return len(self.breakpoints) - 1

    def value_at(self, alpha) -> Fraction:
        alpha = Fraction(alpha)
        if not (0 <= alpha.numerator <= alpha.denominator):
            raise ValueError("alpha outside [0, 1]")
        bp = self.breakpoints
        for i in range(len(bp) - 1):
            if alpha <= bp[i + 1]:
                return self.values[i] + self._slopes[i] * (alpha - bp[i])
        raise AssertionError("unreachable")


_PROBE_BUDGET = 64


def idleness_function(g: Graph, x: int, y: int) -> PiecewiseLinearFn:
    """Exact reconstruction of alpha -> kappa_alpha(x, y), from kappa_0 at 0.

    The function is concave and piecewise linear with at most 3 parts, and
    is linear on [1/(D+1), 1] with slope -kappa. For a concave piecewise
    linear f, f((a+b)/2) == (f(a)+f(b))/2 certifies linearity on all of
    [a, b], so bisection on rational midpoints pins each slope down exactly,
    the first from 1/(lcm(d_x, d_y) + 1) (arXiv:1704.04398). One loop walks
    the pieces left to right: the current piece meets the last line
    kappa*(1 - alpha) at c. If f(c) lies on the piece, c is the last
    breakpoint; otherwise the slope read at c must lie strictly between the
    piece's slope and -kappa, and the next piece starts where the two lines
    meet. Every breakpoint value is re-checked
    against a direct evaluation, and a piece of slope -kappa must pass
    through (1, 0). More than 64 new evaluations would contradict the
    3-piece structure and raise ConsistencyError.
    """
    e = _edge(g, x, y)
    limit = len(e.kappas) + _PROBE_BUDGET
    a_star = Fraction(1, max(e.dx, e.dy) + 1)
    kap, f0 = kappa_lly(g, x, y), kappa_zero(g, x, y)

    def f(a: Fraction) -> Fraction:
        value = kappa_alpha(g, x, y, a)
        if len(e.kappas) > limit:
            raise ConsistencyError(f"idleness_function({x},{y}) did not stabilize "
                                   f"within {_PROBE_BUDGET} evaluations")
        return value

    def slope_from(a: Fraction, width: Fraction) -> Fraction:
        """Slope of f on [a, a + width], the width halved until f is linear there."""
        while 2 * f(a + width / 2) != f(a) + f(a + width):
            width /= 2
        return (f(a + width) - f(a)) / width

    bp, vals = [Fraction(0)], [f0]
    s = slope_from(bp[0], Fraction(1, e.lcm + 1))
    while s != -kap:
        a, v = bp[-1], vals[-1]
        c = (kap - v + s * a) / (s + kap)  # where this piece meets kappa*(1 - alpha)
        fc = f(c)
        if fc == v + s * (c - a):  # c starts the last piece
            bp.append(c)
            vals.append(fc)
            break
        if not s > (s_next := slope_from(c, (a_star - c) / 2)) > -kap:
            raise ConsistencyError(f"idleness_function({x},{y}): no slope strictly between "
                                   f"{s} and {-kap} after {c}")
        b = (fc - s_next * c - v + s * a) / (s - s_next)  # where this piece meets the next
        bp.append(b)
        vals.append(f(b))
        if vals[-1] != v + s * (b - a):
            raise ConsistencyError("reconstructed breakpoint disagrees with direct evaluation")
        s = s_next
    if vals[-1] != kap * (1 - bp[-1]):
        raise ConsistencyError(f"idleness_function({x},{y}): last piece misses (1, 0)")
    return PiecewiseLinearFn((*bp, Fraction(1)), (*vals, Fraction(0)))


def prove_idleness(g: Graph, x: int, y: int, fn: PiecewiseLinearFn) -> None:
    """Prove fn(alpha) == kappa_alpha(x, y, alpha) on all of [0, 1], or
    raise ConsistencyError naming the edge and the alpha where the proof
    fails. No point of [0, 1] is left to sampling.

    At alpha = p/q, the instance that kappa_alpha solves (_Edge.sliced)
    has the optimal cost q*L*W1, so the claim is that this cost equals
    q*L*(1 - fn(alpha)). Both bounds below read only the edge's transport
    table and the memoized solves of the instances cut from it.

    Upper bound: at each breakpoint, 0 and 1 included, the solve's plan is
    feasible (positive cells, row and column sums equal to the supplies and
    demands) and costs q*L*(1 - fn). Both measures are affine in alpha, so
    W1 is convex in alpha and W1 <= 1 - fn on [0, 1], which is linear
    between the breakpoints.

    Lower bound: on each piece, the potentials u of the solve at its
    midpoint (transport._potentials) give a price psi on every vertex of
    the table: psi(t) = min_i (u_i + cost[i][t]) over the midpoint's
    sources for each take vertex t, then psi(s) = max_t (psi(t) -
    cost[s][t]) for each send vertex s, so psi(t) - psi(s) <= cost[s][t]
    on every cell. x and y can be in both lists, at cost 0 from
    themselves, and must get one price. Then -sum_v psi(v)*(p*a_v +
    (q-p)*b_v) is at most the optimal cost at every alpha (weak LP
    duality) and is q times a linear function of alpha. Where it equals
    q*L*(1 - fn) at both ends of the piece, W1 >= 1 - fn on the piece.
    """
    e = _edge(g, x, y)
    _, _, table = e.table
    same = [(s, t) for s, row in enumerate(table) for t, c in enumerate(row) if c == 0]
    bp = fn.breakpoints
    ends = []  # per breakpoint: rows, cols, supply, demand and q*L*(1 - fn)
    for b, v in zip(bp, fn.values):
        rows, cols, supply, demand, cost = e.sliced(b.numerator, b.denominator)
        target = b.denominator * e.lcm * (1 - v)
        value, plan = transport._transport_cost(supply, demand, cost)
        sent, taken, spent = [0] * len(supply), [0] * len(demand), 0
        for i, j, units in plan or ():
            if not (0 <= i < len(sent) and 0 <= j < len(taken) and units > 0):
                raise ConsistencyError(f"idleness proof ({x},{y}) at alpha {b}: "
                                       f"plan cell {(i, j, units)} is not a positive cell")
            sent[i] += units
            taken[j] += units
            spent += units * cost[i][j]
        if plan is None or tuple(sent) != supply or tuple(taken) != demand:
            raise ConsistencyError(f"idleness proof ({x},{y}) at alpha {b}: "
                                   "plan does not move the supplies to the demands")
        if not value == spent == target:
            raise ConsistencyError(f"idleness proof ({x},{y}) at alpha {b}: plan costs "
                                   f"{spent}, solver value {value}, 1 - fn gives {target}")
        ends.append((rows, cols, supply, demand, target))
    for k in range(fn.segments):
        m = (bp[k] + bp[k + 1]) / 2
        rows, _, supply, demand, cost = e.sliced(m.numerator, m.denominator)
        _, plan = transport._transport_cost(supply, demand, cost)
        try:
            u, _ = transport._potentials(cost, plan or ())
        except ConsistencyError as exc:
            raise ConsistencyError(f"idleness proof ({x},{y}) at alpha {m}: {exc}") from None
        psi_take = [min((ui + table[i][t] for i, ui in zip(rows, u)), default=0)
                    for t in range(len(table[0]))]
        psi_send = [max(pt - c for pt, c in zip(psi_take, row)) for row in table]
        for s, t in same:
            if psi_send[s] != psi_take[t]:
                raise ConsistencyError(f"idleness proof ({x},{y}) at alpha {m}: a vertex "
                                       f"gets the prices {psi_send[s]} and {psi_take[t]}")
        for b, (rows, cols, supply, demand, target) in zip(bp[k:k + 2], ends[k:k + 2]):
            dual = (sum(psi_take[t] * n for t, n in zip(cols, demand))
                    - sum(psi_send[s] * n for s, n in zip(rows, supply)))
            if dual != target:
                raise ConsistencyError(f"idleness proof ({x},{y}) at alpha {b}: dual bound "
                                       f"{dual} of the piece [{bp[k]}, {bp[k + 1]}], "
                                       f"1 - fn gives {target}")


@dataclass(frozen=True)
class EdgeCurvatureRecord:
    """Per-edge curvature bundle as reported by curvature_profile."""

    x: int
    y: int
    dx: int
    dy: int
    nxy: int
    kappa0: Fraction
    kappa_lly: Fraction
    gap_c: Optional[int]      # d*(kappa - kappa_0), present iff dx == dy
    supsup: Optional[int]     # largest optimal pair distance, present iff dx == dy and nxy < d-1
    bone_idle: bool


def edge_record(g: Graph, x: int, y: int) -> EdgeCurvatureRecord:
    """Record of x ~ y. Where dx == dy == d, kappa - kappa_0 = gap_c/d with gap_c = 3 - supsup,
    so kappa == kappa_0 iff supsup == 3; if nxy == d-1, supsup is None and gap_c 2; if dx != dy
    both None. Raises ConsistencyError if gap_c/d != kappa - kappa_0 or gap_c is not 0, 1, 2."""
    e = _edge(g, x, y)
    k = kappa_lly(g, x, y)
    k0 = kappa_zero(g, x, y)
    gap_c: Optional[int] = None
    supsup: Optional[int] = None
    if e.dx == e.dy:
        supsup = e.instance.supsup
        gap_c = 2 if supsup is None else 3 - supsup
        if (gap := Fraction(gap_c, e.dx)) != k - k0:
            raise ConsistencyError(f"gap({x},{y}): formula {gap} != direct difference {k - k0}")
        if gap_c not in (0, 1, 2):
            raise ConsistencyError(f"gap class {gap_c} outside {{0,1,2}} on edge ({x},{y})")
    return EdgeCurvatureRecord(x, y, e.dx, e.dy, e.nxy, k0, k, gap_c, supsup,
                               bone_idle=(k0 == 0 and k == 0))


def curvature_profile(g: Graph) -> list[EdgeCurvatureRecord]:
    """One record per edge, in sorted edge order."""
    edges = g.edges()
    if not edges:
        warnings.warn("graph has no edges; curvature profile is empty", stacklevel=2)
    return [edge_record(g, x, y) for x, y in edges]
