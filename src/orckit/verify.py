"""Mechanical verification suites.

Each suite checks a classification or a per-edge identity over an
enumerable graph class or a fixed corpus and returns a VerificationReport:
zero failures means the suite passed. Suites are deterministic for fixed
seed parameters, so reports are reproducible run to run.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Optional

from . import curvature
from .curvature import ConsistencyError
from .families import (bi_antiprism, cocktail_party, complete, complete_bipartite, cycle,
                       dodecahedral, enumerate_graphs, hypercube, icosidodecahedron,
                       klein_bottle, near_cocktail, path, petersen, random_regular, star,
                       torus_grid, twisted_torus)
from .formats import write_graph6
from .graphs import (Graph, cartesian_product, common_neighbors, diameter, is_connected,
                     is_regular, min_degree)


@dataclass(frozen=True)
class Failure:
    graph: str
    edge: Optional[tuple[int, int]]
    check: str
    expected: str
    actual: str


@dataclass
class VerificationReport:
    suite: str
    instances: int
    failures: list[Failure]
    elapsed: float
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        # elapsed varies run to run, so the machine report leaves it out to
        # keep serialized reports byte-identical; summary() prints it
        return {
            "suite": self.suite,
            "instances": self.instances,
            "passed": self.passed,
            "failures": [
                {"graph": f.graph, "edge": list(f.edge) if f.edge is not None else None,
                 "check": f.check, "expected": f.expected, "actual": f.actual}
                for f in self.failures
            ],
            "notes": self.notes,
        }

    def summary(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (f"[{state}] {self.suite}: {self.instances} instances "
                f"in {self.elapsed:.2f}s")


def _label(graph: str | Graph) -> str:
    """A Failure's graph text: a Graph is named by its graph6, written only
    when a check on it fails."""
    return graph if isinstance(graph, str) else write_graph6(graph)


class _Run:
    """Failure collector shared by all suites."""

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.failures: list[Failure] = []
        self.notes: list[str] = []
        self.instances = 0
        self._t0 = time.perf_counter()

    def check(self, graph: str | Graph, edge, name: str, expected, actual) -> None:
        if expected != actual:
            self.failures.append(Failure(_label(graph), edge, name, str(expected), str(actual)))

    def guard(self, graph: str | Graph, edge, name: str) -> "_Guard":
        return _Guard(self.failures, graph, edge, name)

    def report(self) -> VerificationReport:
        return VerificationReport(self.suite, self.instances, self.failures,
                                  time.perf_counter() - self._t0, self.notes)


class _Guard:
    """Context manager that records a ConsistencyError or ValueError raised
    in its block as a Failure of check `name` and ends the block there;
    `failed` tells the caller whether it did."""

    def __init__(self, failures: list[Failure], graph: str | Graph, edge, name: str) -> None:
        self.failures, self.graph, self.edge, self.name = failures, graph, edge, name
        self.failed = False

    def __enter__(self) -> "_Guard":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.failed = isinstance(exc, (ConsistencyError, ValueError))
        if self.failed:
            self.failures.append(Failure(_label(self.graph), self.edge, self.name, "no error",
                                         f"{type(exc).__name__}: {exc}"))
        return self.failed


def _named(builder, *args, **kwargs) -> tuple[str, Graph]:
    """(label, graph) of one builder call, labelled as the call is written:
    petersen, torus_grid(6,6), random_regular(20,3,seed=7)."""
    params = [str(a) for a in args] + [f"{k}={v}" for k, v in kwargs.items()]
    label = f"{builder.__name__}({','.join(params)})" if params else builder.__name__
    return label, builder(*args, **kwargs)


def _check_edges(run: _Run, label: str, g: Graph, guard: str, checks) -> None:
    """Count g as one instance and, on each edge inside one guard named
    `guard`, run each (check name, expected, value of (g, x, y)) in `checks`
    whose expected value is not None."""
    run.instances += 1
    for x, y in g.edges():
        with run.guard(label, (x, y), guard):
            for name, expected, value in checks:
                if expected is not None:
                    run.check(label, (x, y), name, expected, value(g, x, y))


def _kappa_bound(g: Graph, x: int, y: int) -> Fraction:
    """Upper bound (|Nxy| + 2)/max(d_x, d_y) on kappa of the edge x ~ y."""
    return Fraction(len(common_neighbors(g, x, y)) + 2, max(len(g.adj[x]), len(g.adj[y])))


def check_main_theorem(n_max: int) -> VerificationReport:
    """Exhaustive check over connected labeled graphs on up to n_max
    vertices: every edge has kappa >= 1 iff the minimum degree is at least
    n - 2."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > 7:
        raise ValueError("n_max > 7 exceeds the desk-scale enumeration bound")
    run = _Run(f"main-theorem(n<={n_max})")
    run.notes.append("connected labeled graphs only; the disconnected case is out of scope")
    for n in range(1, n_max + 1):
        for g in enumerate_graphs(n, connected_only=True):
            run.instances += 1
            rhs = min_degree(g) >= n - 2
            with run.guard(g, None, "min-kappa-scan"):  # labelled only on failure
                run.check(g, None, "ric-ge-1-iff-min-degree", rhs,
                          all(curvature.kappa_lly(g, x, y) >= 1 for x, y in g.edges()))
    return run.report()


def check_ric_one_classification() -> VerificationReport:
    """Cocktail party graphs and the odd near-cocktail graphs carry
    curvature exactly 1 on every edge; complete graphs carry n/(n-1)."""
    run = _Run("ric-one-classification")
    cases = [(_named(cocktail_party, k), Fraction(1)) for k in (2, 3, 4, 5)]
    cases += [(_named(near_cocktail, n), Fraction(1)) for n in (5, 7, 9)]
    cases += [(_named(complete, n), Fraction(n, n - 1)) for n in range(4, 11)]
    for (label, g), expected in cases:
        _check_edges(run, label, g, "kappa-value",
                     [("kappa-value", expected, curvature.kappa_lly)])
    return run.report()


def check_family_values() -> VerificationReport:
    """Closed-form curvature table for the named families."""
    run = _Run("family-values")
    # (label, graph), kappa, kappa_0; None leaves that value unchecked
    table = []
    for k in range(2, 7):
        table += [(_named(hypercube, k), Fraction(2, k), Fraction(0)),
                  (_named(complete_bipartite, k, k), Fraction(2, k), Fraction(0))]
    table += [(_named(cycle, m), Fraction(0), Fraction(0)) for m in range(6, 13)]
    table += [(_named(cycle, 5), Fraction(1, 2), Fraction(0)),
              (_named(petersen), Fraction(0), None), (_named(dodecahedral), Fraction(0), None)]
    table += [(_named(star, n), None, Fraction(0)) for n in range(3, 7)]
    table += [(_named(path, n), None, Fraction(0)) for n in range(2, 9)]
    for (label, g), kappa, kappa0 in table:
        _check_edges(run, label, g, "family-value", [("kappa", kappa, curvature.kappa_lly),
                                                     ("kappa0", kappa0, curvature.kappa_zero)])
    return run.report()


def bone_idle_family_instances() -> list[tuple[str, Graph]]:
    return ([_named(icosidodecahedron)] + [_named(bi_antiprism, n) for n in range(6, 11)]
            + [_named(torus_grid, n, m) for n in (6, 7, 8) for m in (6, 7, 8)]
            + [_named(twisted_torus, *nml) for nml in ((7, 5, 2), (8, 4, 2), (6, 6, 3))]
            + [_named(klein_bottle, n, 6) for n in (6, 7)])


def check_bone_idle_families() -> VerificationReport:
    """The 4-regular families are bone-idle on every edge; hypercubes and
    complete bipartite graphs are not (positive kappa, vanishing kappa_0)."""
    run = _Run("bone-idle-families")
    for label, g in bone_idle_family_instances():
        _check_edges(run, label, g, "bone-idle", [(
            "bone-idle", "0,0",
            lambda g, x, y: f"{curvature.kappa_zero(g, x, y)},{curvature.kappa_lly(g, x, y)}")])
    for k in range(2, 7):
        for label, g in (_named(hypercube, k), _named(complete_bipartite, k, k)):
            _check_edges(run, label, g, "not-bone-idle", [
                ("not-bone-idle-kappa-positive", True,
                 lambda g, x, y: curvature.kappa_lly(g, x, y) > 0),
                ("not-bone-idle-kappa0-zero", Fraction(0), curvature.kappa_zero)])
    return run.report()


def cubic_corpus(corpus_seed: int, trials: int) -> list[tuple[str, Graph]]:
    items = [_named(complete, 4), _named(complete_bipartite, 3, 3), _named(hypercube, 3),
             _named(petersen), _named(dodecahedral)]
    items += [(f"prism({m})", cartesian_product(cycle(m), complete(2))) for m in range(3, 9)]
    items += [_named(random_regular, n, 3, seed=corpus_seed * 100_000 + n * 100 + t)
              for n in (8, 10, 12, 14) for t in range(trials)]
    return items


def check_no_cubic_bone_idle(corpus_seed: int, trials: int) -> VerificationReport:
    """Falsification attempt: every 3-regular graph in the corpus must
    expose at least one edge that is not bone-idle. Not exhaustive; the
    classification claim covers all cubic graphs, this samples it."""
    if not 1 <= trials <= 1000:  # 1000 trials, 4,000 random graphs: about 1.5 s on a 2-core Xeon
        raise ValueError(f"trials must be from 1 to 1000, got {trials}")
    run = _Run("no-cubic-bone-idle")
    run.notes.append("sampling suite: falsification over a fixed corpus plus random cubic graphs")
    for label, g in cubic_corpus(corpus_seed, trials):
        run.instances += 1
        with run.guard(label, None, "witness-scan"):
            for x, y in g.edges():
                k0 = curvature.kappa_zero(g, x, y)
                k = curvature.kappa_lly(g, x, y)
                if k0 != 0 or k != 0:
                    run.notes.append(f"{label}: witness edge ({x},{y}) kappa0={k0} kappa={k}")
                    break
            else:  # every edge is bone-idle
                run.check(label, None, "has-non-bone-idle-edge", True, False)
    return run.report()


def check_girth5_bone_idle() -> VerificationReport:
    """Girth-5 flat graphs are not bone-idle: Petersen and the dodecahedral
    graph are flat but not 0-flat; cycles C_n are bone-idle from n = 6 on
    but C_5 is not."""
    run = _Run("girth5-bone-idle")
    for label, g in (_named(petersen), _named(dodecahedral)):
        run.instances += 1
        with run.guard(label, None, "girth5"):
            run.check(label, None, "ricci-flat", True, curvature.is_ricci_flat(g))
            run.check(label, None, "not-zero-ricci-flat", False, curvature.is_zero_ricci_flat(g))
    for n in (*range(6, 13), 5):
        label, g = _named(cycle, n)
        check = "bone-idle" if n >= 6 else "not-bone-idle"
        run.instances += 1
        with run.guard(label, None, check):
            run.check(label, None, check, n >= 6, curvature.is_bone_idle(g))
    return run.report()


def default_product_pairs() -> list[tuple[str, Graph, str, Graph]]:
    return [(*_named(cycle, 6), *_named(cycle, 6)),
            (*_named(cycle, 6), *_named(complete, 2)),
            (*_named(petersen), *_named(cycle, 6)),
            (*_named(complete, 4), *_named(complete, 4)),
            (*_named(hypercube, 3), *_named(cycle, 6))]


def check_product_formula(pairs=None) -> VerificationReport:
    """Every edge of a box product of regular graphs carries the factor
    curvature scaled by d_factor/(d_G + d_H), for kappa and kappa_0 both."""
    run = _Run("product-formula")
    for g_label, g, h_label, h in (pairs if pairs is not None else default_product_pairs()):
        dg, dh = is_regular(g), is_regular(h)
        if dg is None or dh is None:
            raise ValueError("product formula requires regular factors")
        if not (is_connected(g) and is_connected(h)):
            raise ValueError("product formula requires connected factors")
        label = f"{g_label} x {h_label}"
        g_vals = {e: (curvature.kappa_lly(g, *e), curvature.kappa_zero(g, *e)) for e in g.edges()}
        h_vals = {e: (curvature.kappa_lly(h, *e), curvature.kappa_zero(h, *e)) for e in h.edges()}
        prod = cartesian_product(g, h)
        for i, j in prod.edges():
            run.instances += 1
            a1, b1 = divmod(i, h.n)
            a2, b2 = divmod(j, h.n)
            if b1 == b2:
                base = g_vals[(min(a1, a2), max(a1, a2))]
                factor = Fraction(dg, dg + dh)
            else:
                base = h_vals[(min(b1, b2), max(b1, b2))]
                factor = Fraction(dh, dg + dh)
            with run.guard(label, (i, j), "product"):
                run.check(label, (i, j), "product-kappa",
                          factor * base[0], curvature.kappa_lly(prod, i, j))
                run.check(label, (i, j), "product-kappa0",
                          factor * base[1], curvature.kappa_zero(prod, i, j))
    return run.report()


def default_corpus(seed: int) -> list[tuple[str, Graph]]:
    """Named corpus: all family generators at small parameters plus 50
    seeded random regular graphs."""
    table = ([(complete, n) for n in range(3, 9)] + [(cycle, n) for n in range(3, 13)]
             + [(path, n) for n in range(2, 9)] + [(star, n) for n in range(1, 7)]
             + [(complete_bipartite, m, n)
                for m, n in ((2, 2), (2, 3), (3, 3), (3, 5), (4, 4), (5, 5), (6, 6))]
             + [(hypercube, k) for k in range(1, 6)] + [(cocktail_party, k) for k in range(2, 7)]
             + [(near_cocktail, n) for n in (3, 5, 7, 9)]
             + [(petersen,), (dodecahedral,), (icosidodecahedron,)]
             + [(bi_antiprism, n) for n in range(6, 11)]
             + [(torus_grid, n, m) for n, m in ((6, 6), (7, 6), (7, 7), (8, 6), (8, 8))]
             + [(twisted_torus, *nml) for nml in ((7, 5, 2), (8, 4, 2), (6, 6, 3), (9, 4, 2))]
             + [(klein_bottle, n, m) for n, m in ((6, 6), (7, 6), (8, 6))])
    items = [_named(*call) for call in table]
    # degree capped at 5: the pairing model's restart bound makes denser
    # graphs unreliable to sample
    shapes = [(20, 3), (24, 3), (28, 3), (32, 3), (22, 4), (26, 4), (30, 4), (34, 4),
              (24, 5), (28, 5), (32, 5), (36, 5)]
    for i in range(50):
        n, d = shapes[i % len(shapes)]
        items.append(_named(random_regular, n, d, seed=seed + i))
    labels = [label for label, _ in items]
    assert len(labels) == len(set(labels)), "corpus labels must be unique"
    return items


_PROBES = 16  # idleness probes per edge


def _probe_alphas(label: str, x: int, y: int) -> list[Fraction]:
    rng = random.Random(f"{label}|{x}|{y}|idleness-probes")
    out = []
    for _ in range(_PROBES):
        q = rng.randint(2, 48)
        p = rng.randint(1, q - 1)
        out.append(Fraction(p, q))
    return out


def check_edge_properties(corpus) -> VerificationReport:
    """Every per-edge invariant over the corpus: route agreement, the gap
    formula and its range, the upper curvature bound, the equality
    condition and its sufficient condition, the assignment identity
    2*N1 + N2 = 3k - C*, the idleness function shape (its first piece
    reaching 1/(lcm(d_x, d_y) + 1), arXiv:1704.04398), and the diameter
    bound on positively curved graphs."""
    run = _Run("edge-properties")
    for label, g in corpus:
        min_kappa = None
        for x, y in g.edges():
            run.instances += 1
            with run.guard(label, (x, y), "route-agreement") as routes:
                k = curvature.kappa_lly(g, x, y)      # cross-checks the assignment route
                k0 = curvature.kappa_zero(g, x, y)    # likewise
            if routes.failed:
                continue
            if min_kappa is None or k < min_kappa:
                min_kappa = k
            dx, dy = len(g.adj[x]), len(g.adj[y])
            run.check(label, (x, y), "upper-bound", True, k <= _kappa_bound(g, x, y))
            if dx == dy:
                with run.guard(label, (x, y), "gap-formula") as closed_form:
                    gap, supsup = curvature.gap_formula(g, x, y)
                if closed_form.failed:
                    continue
                run.check(label, (x, y), "gap-formula", k - k0, gap)
                run.check(label, (x, y), "gap-range", True, dx * (k - k0) in (0, 1, 2))
                if supsup is not None:
                    run.check(label, (x, y), "supsup-range", True, supsup in (1, 2, 3))
                run.check(label, (x, y), "equality-condition",
                          k == k0, curvature.equality_holds(g, x, y))
                if k < -1 + Fraction(2 * len(common_neighbors(g, x, y)) + 3, dx):
                    run.check(label, (x, y), "sufficient-equality", k, k0)
                ls = curvature.local_structure(g, x, y)
                run.check(label, (x, y), "bone-idle-local",
                          k == 0 and k0 == 0, ls.bone_idle)
                if ls.k <= 5:
                    cost = curvature.assignment_instance(g, x, y)[2]
                    for perm in permutations(range(ls.k)):
                        dists = [cost[i][perm[i]] for i in range(ls.k)]
                        if sum(dists) == ls.optimal_cost:
                            run.check(label, (x, y), "assignment-identity",
                                      ls.two_n1_plus_n2, 2 * dists.count(1) + dists.count(2))
            with run.guard(label, (x, y), "idleness-reconstruction") as reconstruction:
                fn = curvature.idleness_function(g, x, y)
            if reconstruction.failed:
                continue
            run.check(label, (x, y), "idleness-final-zero", Fraction(0), fn.values[-1])
            run.check(label, (x, y), "idleness-segments", True, fn.segments <= 3)
            slopes = fn.slopes()
            run.check(label, (x, y), "idleness-concave", True,
                      all(a > b for a, b in zip(slopes, slopes[1:])))
            a_star = Fraction(1, max(dx, dy) + 1)
            run.check(label, (x, y), "idleness-last-slope", -k, slopes[-1])
            run.check(label, (x, y), "idleness-last-piece-start", True,
                      fn.breakpoints[-2] <= a_star)
            run.check(label, (x, y), "idleness-first-piece", True,
                      fn.breakpoints[1] >= Fraction(1, math.lcm(dx, dy) + 1))
            for a in _probe_alphas(label, x, y):
                run.check(label, (x, y), "idleness-probe",
                          curvature.kappa_alpha(g, x, y, a), fn.value_at(a))
        if min_kappa is not None and min_kappa > 0 and is_connected(g):
            run.check(label, None, "bonnet-myers", True,
                      diameter(g) <= Fraction(2) / min_kappa)
    return run.report()


def check_rf72(g: Graph) -> VerificationReport:
    """User-supplied 72-vertex 5-regular flat graph: must be 5-regular,
    flat, and carry kappa_0 = -1/5 on every edge."""
    run = _Run("rf72")
    run.check("rf72", None, "order", 72, g.n)
    run.check("rf72", None, "regular-degree", 5, is_regular(g))
    _check_edges(run, "rf72", g, "rf72", [("kappa", Fraction(0), curvature.kappa_lly),
                                         ("kappa0", Fraction(-1, 5), curvature.kappa_zero)])
    return run.report()
