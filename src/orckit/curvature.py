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
edge does not grow with the size of the graph. An edge's context reads
its neighbourhood once and derives from it the one transport table, which
serves every idleness, each solved once, and both assignment matrices,
each with one certified Hungarian solve, which gives C* and, through its
potentials, supsup: the largest distance that some optimal assignment
uses, found by a search that stops at the first hit. kappa, kappa_0 and
the idleness function read the context's solves directly; kappa_alpha
serves an idleness a caller gives.

The idleness function alpha -> kappa_alpha is built from the dual lines of
a few solves, one strictly inside each linear piece, and the same pass
proves it exact on all of [0, 1]: the certified values at its breakpoints
bound W1 from above and each piece's dual line bounds it from below.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn, Optional

from . import transport
from .graphs import Graph
from .transport import ConsistencyError


class _lazy:
    """A method read as an attribute, computed on the first read and stored
    in the instance's __dict__, where later reads find it before this
    non-data descriptor. functools.cached_property does the same, but
    before Python 3.12 it takes a lock on every first read."""

    def __init__(self, fn) -> None:
        self.func, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _Instance:
    """Moving sets of one assignment instance with their cost matrix, and
    the matrix's one certified Hungarian solve (optimum, row_of, u, v) on
    first use."""

    def __init__(self, g: Graph, left: list[int], right: list[int]) -> None:
        self.left, self.right, self.cost = left, right, _cost_matrix(g, left, right)

    @_lazy
    def solution(self) -> tuple[int, list[int], list[int], list[int]]:
        return transport._hungarian(self.cost)

    @_lazy
    def supsup(self) -> Optional[int]:
        """Largest pair distance used by some optimal assignment, read off
        the same solve's certified potentials; None for the empty instance."""
        return transport._supsup(self.cost, *self.solution[1:])


class _Edge:
    """The edge x ~ y of g, checked once: its degrees, L = lcm(d_x, d_y),
    the set of its common neighbours (nxy of them) and the sorted lists
    x_only = N(x)\\N(y), holding y, and y_only = N(y)\\N(x), holding x,
    the one read of its adjacency; and the transport instances solved so
    far, keyed by (p, q) for alpha = p/q. The transport table and the kappa
    and kappa_0 assignment instances are derived from those on first
    use, so an edge pays only for what its callers read."""

    def __init__(self, g: Graph, x: int, y: int) -> None:
        if not g.has_edge(x, y):
            raise ValueError(f"({x}, {y}) is not an edge")
        self.g, self.x, self.y = g, x, y
        nx, ny = set(g.adj[x]), set(g.adj[y])
        self.dx, self.dy = len(nx), len(ny)
        self.lcm = math.lcm(self.dx, self.dy)
        self.common = nx & ny
        self.nxy = len(self.common)
        self.x_only, self.y_only = sorted(nx - ny), sorted(ny - nx)
        self.solves: dict[tuple[int, int], tuple] = {}

    @property
    def d(self) -> int:
        if self.dx != self.dy:
            raise ValueError(f"vertices {self.x} and {self.y} have unequal degrees "
                             f"{self.dx} != {self.dy}")
        return self.dx

    @_lazy
    def table(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]], transport.CostMatrix]:
        """The transport table of every alpha: (send, take, cost).

        Each vertex v of B1(x) | B1(y) gets an integer pair (a_v, b_v): a_v
        from the centre masses (+L at x, -L at y), b_v from the neighbour
        shares (+L/d_x on N(x), -L/d_y on N(y)). At alpha = p/q its excess
        mu_x^alpha - mu_y^alpha, scaled by q*L, is p*a_v + (q-p)*b_v. `send`
        holds the pairs of the vertices that can have positive excess, all
        in B1(x); `take` those that can have negative excess, all in B1(y);
        cost[i][j] is the distance between the i-th and the j-th of them.
        x and y lie in both lists, but at any one alpha no vertex both
        sends and takes."""
        x, y, lcm, common = self.x, self.y, self.lcm, self.common
        bx, by = lcm // self.dx, lcm // self.dy
        # the pairs of x, y, a common neighbour, and one of N(x) or N(y) alone
        px, py, pc, only_x, only_y = (lcm, -by), (-lcm, bx), (0, bx - by), (0, bx), (0, -by)
        send = sorted([x, *self.x_only, *(common if bx > by else ())])
        take = sorted([y, *self.y_only, *(common if by > bx else ())])
        return ([px if v == x else py if v == y else pc if v in common else only_x for v in send],
                [py if v == y else px if v == x else pc if v in common else only_y for v in take],
                _cost_matrix(self.g, send, take))

    def solved(self, p: int, q: int) -> tuple:
        """(rows, kappa, u): the solve of alpha = p/q, kept per (p, q)
        (hashing a Fraction costs a modular inverse). rows index the send
        vertices with positive supply at alpha, kappa is kappa_alpha and u
        the solve's certified potentials on the rows."""
        if (p, q) not in self.solves:
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
            cost = tuple(tuple(table[i][j] for j in cols) for i in rows)
            value, u = transport._transport_cost(tuple(supply), tuple(demand), cost)
            self.solves[p, q] = (rows, Fraction(q * self.lcm - value, q * self.lcm), u)
        return self.solves[p, q]

    @_lazy
    def instance(self) -> _Instance:  # S1(x)\B1(y) -> S1(y)\B1(x)
        return _Instance(self.g, [v for v in self.x_only if v != self.y],
                         [v for v in self.y_only if v != self.x])

    @_lazy
    def zero_instance(self) -> _Instance:  # S1(x)\S1(y) -> S1(y)\S1(x), holding y and x
        return _Instance(self.g, self.x_only, self.y_only)


_last: Optional[_Edge] = None


def _edge(g: Graph, x: int, y: int) -> _Edge:
    """Context of the ordered edge (x, y). The last one is reused only for
    the identical graph object: Graph equality and hashing cost O(n + m)."""
    global _last
    last = _last
    if last is None or last.g is not g or last.x != x or last.y != y:
        last = _last = _Edge(g, x, y)
    return last


def kappa_alpha(g: Graph, x: int, y: int, alpha: int | Fraction) -> Fraction:
    """Transport curvature 1 - W1(mu_x^alpha, mu_y^alpha) of the edge x ~ y.

    With alpha = p/q and L = lcm(d_x, d_y), both measures become integers
    when scaled by q*L. Mass the two share stays in place, and the rest
    moves from B1(x) to B1(y) by transport._transport_cost, on the instance
    that _Edge.solved slices out of the edge's one transport table and
    keeps. It reads no matrix or solve of the assignment route, to stay
    independent of it.
    """
    alpha = transport._idleness(alpha)
    return _edge(g, x, y).solved(alpha.numerator, alpha.denominator)[1]


def _cost_matrix(g: Graph, left: list[int], right: list[int]) -> transport.CostMatrix:
    """Hop distances from vertices `left` of B1(x) to vertices `right` of
    B1(y), x ~ y; the two lists may share vertices. Such a distance is at
    most 3 (z - x - y - w), so adjacency tests decide it: 0 for z == w, 1
    for adjacent vertices, 2 for vertices with a common neighbor, 3
    otherwise. No search leaves the two 1-balls."""
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
    """Lin-Lu-Yau curvature: the idleness function is kappa*(1 - alpha) on
    [1/(D+1), 1], D = max degree, so kappa is kappa_alpha/(1 - alpha) at
    alpha = 1/(D+1). On equal-degree edges the independent assignment
    route is computed as well and must agree exactly."""
    e = _edge(g, x, y)
    d = max(e.dx, e.dy)
    k = e.solved(1, d + 1)[1]
    value = Fraction(k.numerator * (d + 1), k.denominator * d)  # k / (1 - 1/(d+1))
    if e.dx == e.dy:
        _check_routes("kappa", x, y, value, kappa_lly_assignment(g, x, y))
    return value


def kappa_zero(g: Graph, x: int, y: int) -> Fraction:
    """Curvature at idleness 0, cross-checked against the assignment route
    whenever both endpoints have the same degree."""
    e = _edge(g, x, y)
    value = e.solved(0, 1)[1]
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
    assignment uses distance 3 is read off supsup."""
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

    def value_at(self, alpha: int | Fraction) -> Fraction:
        alpha = transport._idleness(alpha)
        bp = self.breakpoints
        i = next(i for i in range(len(bp) - 1) if alpha <= bp[i + 1])  # bp[-1] is 1
        return self.values[i] + self._slopes[i] * (alpha - bp[i])


def _fail(e: _Edge, alpha: Fraction, why) -> NoReturn:
    raise ConsistencyError(f"idleness proof ({e.x},{e.y}) at alpha {alpha}: {why}")


def _dual_line(e: _Edge, a: Fraction) -> tuple[Fraction, Fraction]:
    """(value at 0, slope) of the dual line of the solve at a: a line that
    lies on or above kappa_alpha at every alpha and meets it at a.

    The solve's certified potentials u price every vertex of the table:
    psi(t) = min_i (u_i + cost[i][t]) over the solve's sources for each
    take vertex t, then psi(s) = max_t (psi(t) - cost[s][t]) for each send
    vertex s, so psi(t) - psi(s) <= cost[s][t] on every cell. x and y lie
    in both lists, at cost 0 from themselves, and must get one price. Then
    -sum_v psi(v)*(p*a_v + (q-p)*b_v) is at most q*L*W1 at every alpha =
    p/q (weak LP duality), and at a at least the dual value of u, which is
    q*L*W1 there by u's certificate.
    """
    rows, _, u = e.solved(a.numerator, a.denominator)
    send, take, table = e.table
    psi_take = [min((ui + table[i][t] for i, ui in zip(rows, u)), default=0)
                for t in range(len(take))]
    psi_send = [max(pt - c for pt, c in zip(psi_take, row)) for row in table]
    same = [(s, t) for s, row in enumerate(table) for t, c in enumerate(row) if c == 0]
    for s, t in same:
        if psi_send[s] != psi_take[t]:
            _fail(e, a, f"a vertex gets the prices {psi_send[s]} and {psi_take[t]}")
    shared = {t for _, t in same}
    priced = [*zip(psi_send, send), *(pair for t, pair in enumerate(zip(psi_take, take))
                                      if t not in shared)]  # one price per vertex
    return (1 + Fraction(sum(psi * pb for psi, (_, pb) in priced), e.lcm),
            Fraction(sum(psi * (pa - pb) for psi, (pa, pb) in priced), e.lcm))


def _prove(e: _Edge, breakpoints, values, lines) -> None:
    """Prove that the function through (breakpoints, values), linear in
    between, is kappa_alpha on all of [0, 1], lines[k] being the dual line
    of its k-th piece, or raise ConsistencyError naming the edge and the
    alpha where the proof fails. No point of [0, 1] is left to sampling.

    From below: each value is the kappa_alpha that transport._certify
    proved at its breakpoint, 0 and 1 included, as idleness_function reads
    it from the edge's solves, and kappa_alpha is concave
    (both measures are affine in alpha, so W1 is convex), so kappa_alpha >=
    fn. From above: each line lies on or above kappa_alpha (_dual_line) and
    meets fn at both ends of its piece, so kappa_alpha <= fn on the piece.
    """
    for k, (b, v) in enumerate(zip(breakpoints, values)):
        for v0, slope in lines[max(k - 1, 0):k + 1]:
            if v0 + slope * b != v:
                _fail(e, b, f"dual line {v0} + {slope}*alpha misses fn = {v}")


def idleness_function(g: Graph, x: int, y: int) -> PiecewiseLinearFn:
    """alpha -> kappa_alpha(x, y), built from the dual lines of its solves
    and proven exact on all of [0, 1].

    The function is concave with at most 3 linear pieces, linear on
    [0, 1/(lcm(d_x, d_y) + 1)] (arXiv:1704.04398) and equal to
    kappa*(1 - alpha) on [1/(D+1), 1], D = max(d_x, d_y). A dual line
    (_dual_line) lies on or above it and meets it where it was solved, so
    the dual line of a solve strictly inside a piece is that piece's line.
    The first line comes from 1/(2(lcm + 1)); if it is kappa*(1 - alpha),
    there is one piece. Otherwise the line from (1 + 1/(D+1))/2 must be
    kappa*(1 - alpha), and the two lines meet at c. If the function meets
    them there, c is the one inner breakpoint. Otherwise it lies below both
    at c, so c is strictly inside a middle piece, whose line is the dual
    line at c, and the breakpoints are where that line meets the other
    two. The values are kappa_0 at 0 and the solved kappa_alpha at the
    other breakpoints, and _prove proves the result. Any failure raises
    ConsistencyError "idleness proof (x,y) at alpha ...".
    """
    e = _edge(g, x, y)
    kap = kappa_lly(g, x, y)
    last = (kap, -kap)  # kappa*(1 - alpha)

    def meet(l1, l2, a: Fraction) -> Fraction:  # a concave corner in (0, 1); l2 solved at a
        if l1[1] > l2[1] and 0 < (m := (l2[0] - l1[0]) / (l1[1] - l2[1])) < 1:
            return m
        _fail(e, a, f"the dual line {l2[0]} + {l2[1]}*alpha makes no concave corner "
                    f"inside (0, 1) with {l1[0]} + {l1[1]}*alpha")

    first = _dual_line(e, Fraction(1, 2 * (e.lcm + 1)))
    if first == last:
        bp, lines = (Fraction(0), Fraction(1)), [first]
    else:
        a = (1 + Fraction(1, max(e.dx, e.dy) + 1)) / 2
        if _dual_line(e, a) != last:
            _fail(e, a, f"the dual line is not kappa*(1 - alpha), kappa = {kap}")
        c = meet(first, last, a)
        if first[0] + first[1] * c == e.solved(c.numerator, c.denominator)[1]:
            bp, lines = (Fraction(0), c, Fraction(1)), [first, last]
        else:
            middle = _dual_line(e, c)
            bp = (Fraction(0), meet(first, middle, c), meet(middle, last, c), Fraction(1))
            lines = [first, middle, last]
    values = (kappa_zero(g, x, y), *(e.solved(b.numerator, b.denominator)[1] for b in bp[1:]))
    _prove(e, bp, values, lines)
    return PiecewiseLinearFn(bp, values)


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
