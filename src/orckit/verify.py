"""Mechanical verification suites.

Each suite checks a classification or a per-edge identity over an
enumerable graph class or a fixed corpus and returns a VerificationReport:
zero failures means the suite passed. Every orckit.curvature call a suite
makes runs under a guard that records a ConsistencyError or ValueError as
a Failure, so a solver fault fails the report instead of ending the run.
Suites are deterministic for fixed seed parameters, so reports are
reproducible run to run.
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
from .graphs import Graph, cartesian_product, diameter, is_connected, is_regular, min_degree


@dataclass(frozen=True)
class Failure:
    graph: str
    edge: Optional[tuple[int, int]]
    check: str
    expected: str
    actual: str


@dataclass
class VerificationReport:
    """One suite's result, collected as the suite runs: its instance count,
    failures and notes; `done` stamps the elapsed time."""

    suite: str
    instances: int = 0
    failures: list[Failure] = field(default_factory=list)
    elapsed: float = 0.0
    notes: list[str] = field(default_factory=list)
    _t0: float = field(default_factory=time.perf_counter, init=False, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, graph: str | Graph, edge, name: str, expected, actual) -> None:
        if expected != actual:
            self.failures.append(Failure(_label(graph), edge, name, str(expected), str(actual)))

    def guard(self, graph: str | Graph, edge, name: str) -> "_Guard":
        return _Guard(self.failures, graph, edge, name)

    def done(self) -> "VerificationReport":
        self.elapsed = time.perf_counter() - self._t0
        return self

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


def _check_edges(report: VerificationReport, label: str, g: Graph, guard: str, checks) -> None:
    """Count g as one instance and, on each edge inside one guard named
    `guard`, run each (check name, expected, value of (g, x, y)) in `checks`
    whose expected value is not None."""
    report.instances += 1
    for x, y in g.edges():
        with report.guard(label, (x, y), guard):
            for name, expected, value in checks:
                if expected is not None:
                    report.check(label, (x, y), name, expected, value(g, x, y))


def check_main_theorem(n_max: int) -> VerificationReport:
    """Exhaustive check over connected labeled graphs on up to n_max
    vertices: every edge has kappa >= 1 iff the minimum degree is at least
    n - 2."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > 7:
        raise ValueError("n_max > 7 exceeds the desk-scale enumeration bound")
    report = VerificationReport(f"main-theorem(n<={n_max})")
    report.notes.append("connected labeled graphs only; the disconnected case is out of scope")
    for n in range(1, n_max + 1):
        for g in enumerate_graphs(n, connected_only=True):
            report.instances += 1
            rhs = min_degree(g) >= n - 2
            with report.guard(g, None, "min-kappa-scan"):  # labelled only on failure
                report.check(g, None, "ric-ge-1-iff-min-degree", rhs,
                             all(curvature.kappa_lly(g, x, y) >= 1 for x, y in g.edges()))
    return report.done()


def check_ric_one_classification() -> VerificationReport:
    """Cocktail party graphs and the odd near-cocktail graphs carry
    curvature exactly 1 on every edge; complete graphs carry n/(n-1)."""
    report = VerificationReport("ric-one-classification")
    cases = [(_named(cocktail_party, k), Fraction(1)) for k in (2, 3, 4, 5)]
    cases += [(_named(near_cocktail, n), Fraction(1)) for n in (5, 7, 9)]
    cases += [(_named(complete, n), Fraction(n, n - 1)) for n in range(4, 11)]
    for (label, g), expected in cases:
        _check_edges(report, label, g, "kappa-value",
                     [("kappa-value", expected, curvature.kappa_lly)])
    return report.done()


def check_family_values() -> VerificationReport:
    """Closed-form curvature table for the named families."""
    report = VerificationReport("family-values")
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
        _check_edges(report, label, g, "family-value", [("kappa", kappa, curvature.kappa_lly),
                                                     ("kappa0", kappa0, curvature.kappa_zero)])
    return report.done()


def bone_idle_family_instances() -> list[tuple[str, Graph]]:
    return ([_named(icosidodecahedron)] + [_named(bi_antiprism, n) for n in range(6, 11)]
            + [_named(torus_grid, n, m) for n in (6, 7, 8) for m in (6, 7, 8)]
            + [_named(twisted_torus, *nml) for nml in ((7, 5, 2), (8, 4, 2), (6, 6, 3))]
            + [_named(klein_bottle, n, 6) for n in (6, 7)])


def check_bone_idle_families() -> VerificationReport:
    """The 4-regular families are bone-idle on every edge; hypercubes and
    complete bipartite graphs are not (positive kappa, vanishing kappa_0)."""
    report = VerificationReport("bone-idle-families")
    for label, g in bone_idle_family_instances():
        _check_edges(report, label, g, "bone-idle", [(
            "bone-idle", "0,0",
            lambda g, x, y: f"{curvature.kappa_zero(g, x, y)},{curvature.kappa_lly(g, x, y)}")])
    for k in range(2, 7):
        for label, g in (_named(hypercube, k), _named(complete_bipartite, k, k)):
            _check_edges(report, label, g, "not-bone-idle", [
                ("not-bone-idle-kappa-positive", True,
                 lambda g, x, y: curvature.kappa_lly(g, x, y) > 0),
                ("not-bone-idle-kappa0-zero", Fraction(0), curvature.kappa_zero)])
    return report.done()


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
    report = VerificationReport("no-cubic-bone-idle", notes=[
        "sampling suite: falsification over a fixed corpus plus random cubic graphs"])
    for label, g in cubic_corpus(corpus_seed, trials):
        report.instances += 1
        with report.guard(label, None, "witness-scan"):
            for x, y in g.edges():
                k0 = curvature.kappa_zero(g, x, y)
                k = curvature.kappa_lly(g, x, y)
                if k0 != 0 or k != 0:
                    report.notes.append(f"{label}: witness edge ({x},{y}) kappa0={k0} kappa={k}")
                    break
            else:  # every edge is bone-idle
                report.check(label, None, "has-non-bone-idle-edge", True, False)
    return report.done()


def check_girth5_bone_idle() -> VerificationReport:
    """Girth-5 flat graphs are not bone-idle: Petersen and the dodecahedral
    graph are flat but not 0-flat; cycles C_n are bone-idle from n = 6 on
    but C_5 is not."""
    report = VerificationReport("girth5-bone-idle")
    for label, g in (_named(petersen), _named(dodecahedral)):
        report.instances += 1
        with report.guard(label, None, "girth5"):
            report.check(label, None, "ricci-flat", True, curvature.is_ricci_flat(g))
            report.check(label, None, "not-zero-ricci-flat", False, curvature.is_zero_ricci_flat(g))
    for n in (*range(6, 13), 5):
        label, g = _named(cycle, n)
        check = "bone-idle" if n >= 6 else "not-bone-idle"
        report.instances += 1
        with report.guard(label, None, check):
            report.check(label, None, check, n >= 6, curvature.is_bone_idle(g))
    return report.done()


def default_product_pairs() -> list[tuple[str, Graph, str, Graph]]:
    return [(*_named(cycle, 6), *_named(cycle, 6)),
            (*_named(cycle, 6), *_named(complete, 2)),
            (*_named(petersen), *_named(cycle, 6)),
            (*_named(complete, 4), *_named(complete, 4)),
            (*_named(hypercube, 3), *_named(cycle, 6))]


def check_product_formula(pairs=None) -> VerificationReport:
    """Every edge of a box product of regular graphs carries the factor
    curvature scaled by d_factor/(d_G + d_H), for kappa and kappa_0 both. A
    fault in a factor's curvature fails as product-factor, on that factor's
    label and edge, and skips the checks of that product edge."""
    report = VerificationReport("product-formula")
    for g_label, g, h_label, h in (pairs if pairs is not None else default_product_pairs()):
        dg, dh = is_regular(g), is_regular(h)
        if dg is None or dh is None:
            raise ValueError("product formula requires regular factors")
        if not (is_connected(g) and is_connected(h)):
            raise ValueError("product formula requires connected factors")
        label = f"{g_label} x {h_label}"
        prod = cartesian_product(g, h)
        for i, j in prod.edges():
            report.instances += 1
            (a1, b1), (a2, b2) = divmod(i, h.n), divmod(j, h.n)
            # the factor edge under (i, j), ordered as i < j orders it
            f_label, f, u, v, df = ((g_label, g, a1, a2, dg) if b1 == b2
                                    else (h_label, h, b1, b2, dh))
            with report.guard(f_label, (u, v), "product-factor") as factor:
                k, k0 = curvature.kappa_lly(f, u, v), curvature.kappa_zero(f, u, v)
            if factor.failed:
                continue
            with report.guard(label, (i, j), "product"):
                scale = Fraction(df, dg + dh)
                report.check(label, (i, j), "product-kappa",
                             scale * k, curvature.kappa_lly(prod, i, j))
                report.check(label, (i, j), "product-kappa0",
                             scale * k0, curvature.kappa_zero(prod, i, j))
    return report.done()


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
    """Every per-edge invariant over the corpus: route agreement and the
    gap formula, which the one curvature.edge_record per edge (the record
    `orckit curvature` prints) checks by raising; the upper curvature
    bound, the sufficient condition for equality, the assignment identity
    2*N1 + N2 = 3k - C*, the idleness function shape (its first piece
    reaching 1/(lcm(d_x, d_y) + 1), arXiv:1704.04398, and its value at 16
    probes), and the diameter bound on positively curved graphs.

    Each edge's curvature calls run under the guards route-agreement,
    local-structure, idleness-reconstruction and idleness-probe: a fault
    inside one is a Failure of that check, and the suite goes on with the
    next edge. PiecewiseLinearFn refuses a function that is nonzero at 1,
    has more than 3 pieces or is not strictly concave, so such a shape
    fails as idleness-reconstruction."""
    report = VerificationReport("edge-properties")
    for label, g in corpus:
        min_kappa = None
        for edge in g.edges():
            x, y = edge
            report.instances += 1
            with report.guard(label, edge, "route-agreement") as routes:
                rec = curvature.edge_record(g, x, y)
            if routes.failed:
                continue
            k, k0, dx, dy, nxy = rec.kappa_lly, rec.kappa0, rec.dx, rec.dy, rec.nxy
            if min_kappa is None or k < min_kappa:
                min_kappa = k
            report.check(label, edge, "upper-bound", True, k <= Fraction(nxy + 2, max(dx, dy)))
            if dx == dy:
                if k < -1 + Fraction(2 * nxy + 3, dx):
                    report.check(label, edge, "sufficient-equality", k, k0)
                with report.guard(label, edge, "local-structure") as local:
                    ls = curvature.local_structure(g, x, y)
                    report.check(label, edge, "bone-idle-local", k == 0 and k0 == 0, ls.bone_idle)
                    if ls.k <= 5:
                        cost = curvature.assignment_instance(g, x, y)[2]
                        for perm in permutations(range(ls.k)):
                            dists = [cost[i][perm[i]] for i in range(ls.k)]
                            if sum(dists) == ls.optimal_cost:
                                report.check(label, edge, "assignment-identity", ls.two_n1_plus_n2,
                                             2 * dists.count(1) + dists.count(2))
                if local.failed:
                    continue
            with report.guard(label, edge, "idleness-reconstruction"):
                fn = curvature.idleness_function(g, x, y)
                slopes = fn.slopes()
                report.check(label, edge, "idleness-last-slope", -k, slopes[-1])
                report.check(label, edge, "idleness-last-piece-start", True,
                             fn.breakpoints[-2] <= Fraction(1, max(dx, dy) + 1))
                report.check(label, edge, "idleness-first-piece", True,
                             fn.breakpoints[1] >= Fraction(1, math.lcm(dx, dy) + 1))
                with report.guard(label, edge, "idleness-probe"):
                    for a in _probe_alphas(label, x, y):
                        report.check(label, edge, "idleness-probe",
                                     curvature.kappa_alpha(g, x, y, a), fn.value_at(a))
        if min_kappa is not None and min_kappa > 0 and is_connected(g):
            report.check(label, None, "bonnet-myers", True,
                         diameter(g) <= Fraction(2) / min_kappa)
    return report.done()


def check_rf72(g: Graph) -> VerificationReport:
    """User-supplied 72-vertex 5-regular flat graph: must be 5-regular,
    flat, and carry kappa_0 = -1/5 on every edge."""
    report = VerificationReport("rf72")
    report.check("rf72", None, "order", 72, g.n)
    report.check("rf72", None, "regular-degree", 5, is_regular(g))
    _check_edges(report, "rf72", g, "rf72", [("kappa", Fraction(0), curvature.kappa_lly),
                                            ("kappa0", Fraction(-1, 5), curvature.kappa_zero)])
    return report.done()
