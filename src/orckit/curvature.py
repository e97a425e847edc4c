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
    rows and columns with positive supply and demand are sliced out as
    tuples, the memo key of the solve, so the table's distances are built
    once per edge and serve every alpha. The edge context keeps each value;
    it reads no matrix or solve of the assignment route, to stay
    independent of it.
    """
    e = _edge(g, x, y)
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    if not (0 <= p <= q):
        raise ValueError("idleness must lie in [0, 1]")
    if (p, q) not in e.kappas:  # keyed by (p, q): hashing a Fraction costs a modular inverse
        send, take, table = e.table
        r = q - p
        supply, rows = [], []
        for (a, b), row in zip(send, table):
            if (m := p * a + r * b) > 0:
                supply.append(m)
                rows.append(row)
        demand, cols = [], []
        for j, (a, b) in enumerate(take):
            if (m := p * a + r * b) < 0:
                demand.append(-m)
                cols.append(j)
        cost = transport._transport_cost(tuple(supply), tuple(demand),
                                         tuple(tuple(row[j] for j in cols) for row in rows))
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


def gap_formula(g: Graph, x: int, y: int) -> tuple[Fraction, Optional[int]]:
    """Closed form for kappa - kappa_0 on an equal-degree edge.

    With k = |S1(x)\\B1(y)| = 0 (the endpoints share d-1 neighbors) the gap
    is 2/d and no pair statistic exists. Otherwise the gap is
    (3 - supsup)/d where supsup is the largest pair distance realized by
    any optimal assignment.
    """
    e = _edge(g, x, y)
    d, supsup = e.d, e.instance.supsup
    return Fraction(2 if supsup is None else 3 - supsup, d), supsup


def curvature_gap(g: Graph, x: int, y: int) -> tuple[Fraction, Optional[int]]:
    """Gap between kappa and kappa_0 via the closed form, verified against
    the two curvatures computed independently (edge_record checks it)."""
    d = _edge(g, x, y).d  # unequal degrees raise ValueError
    rec = edge_record(g, x, y)
    return Fraction(rec.gap_c, d), rec.supsup


def equality_holds(g: Graph, x: int, y: int) -> bool:
    """Whether kappa == kappa_0, equivalently whether some optimal
    assignment moves a vertex across distance 3 (supsup == 3)."""
    return gap_formula(g, x, y)[1] == 3


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
    has_distance3_optimal: bool
    bone_idle: bool
    flat_case: Optional[str]  # triangle-free edges: "flat-distance3" / "flat-no-distance3" / "not-flat"


def local_structure(g: Graph, x: int, y: int) -> LocalStructure:
    """Assignment statistics of an equal-degree edge; whether some optimal
    assignment uses distance 3 is read off the optimal-pair support."""
    e = _edge(g, x, y)
    d, k, c_star = e.d, len(e.instance.left), e.instance.solution[0]
    two_n1 = 3 * k - c_star
    has3 = e.instance.supsup == 3
    bone = (2 * d - 4 - 3 * e.nxy == two_n1) and has3
    flat_case = None
    if e.nxy == 0:
        if c_star == d + 1:  # kappa == 0
            flat_case = "flat-distance3" if has3 else "flat-no-distance3"
        else:
            flat_case = "not-flat"
    return LocalStructure(k, c_star, two_n1, has3, bone, flat_case)


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
    e = _edge(g, x, y)
    k = kappa_lly(g, x, y)
    k0 = kappa_zero(g, x, y)
    gap_c: Optional[int] = None
    supsup: Optional[int] = None
    if e.dx == e.dy:
        gap, supsup = gap_formula(g, x, y)
        if gap != k - k0:
            raise ConsistencyError(f"gap({x},{y}): formula {gap} != direct difference {k - k0}")
        scaled = gap * e.dx
        if scaled.denominator != 1 or scaled not in (0, 1, 2):
            raise ConsistencyError(f"gap class {scaled} outside {{0,1,2}} on edge ({x},{y})")
        gap_c = int(scaled)
    return EdgeCurvatureRecord(x, y, e.dx, e.dy, e.nxy, k0, k, gap_c, supsup,
                               bone_idle=(k0 == 0 and k == 0))


def curvature_profile(g: Graph) -> list[EdgeCurvatureRecord]:
    """One record per edge, in sorted edge order."""
    edges = g.edges()
    if not edges:
        warnings.warn("graph has no edges; curvature profile is empty", stacklevel=2)
    return [edge_record(g, x, y) for x, y in edges]
