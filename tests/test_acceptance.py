"""Acceptance gate: every criterion below is checked at exact rational
equality (tolerance zero) unless a runtime budget is stated. Run with
`pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import hashlib
import json
import random
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import permutations

import pytest

from orckit.curvature import kappa_lly, kappa_zero
from orckit.families import (cocktail_party, complete, complete_bipartite, cycle,
                             dodecahedral, hypercube, near_cocktail, petersen)
from orckit.graphs import cartesian_product
from orckit.transport import _hungarian, _supsup
from orckit.verify import (check_bone_idle_families, check_edge_properties,
                           check_main_theorem, check_no_cubic_bone_idle,
                           check_product_formula, default_corpus)

from helpers import (brute_assignment_optimum, brute_optimal_permutations, brute_wasserstein1,
                     random_connected_graph, random_token_measure, wasserstein1)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{name}]: PASS")


@pytest.fixture(scope="session")
def edge_report():
    return check_edge_properties(default_corpus(2024))


@pytest.fixture(scope="session")
def corpus_stats():
    corpus = default_corpus(2024)
    equal_degree = sum(1 for _, g in corpus for x, y in g.edges()
                       if g.degree(x) == g.degree(y))
    return {"edges": sum(g.edge_count for _, g in corpus), "equal_degree": equal_degree}


def test_criterion_1_family_value_table():
    with criterion(1, "family value table"):
        for n in range(3, 11):
            g = complete(n)
            assert all(kappa_lly(g, x, y) == F(n, n - 1) for x, y in g.edges())
        for k in range(2, 7):
            g = cocktail_party(k)
            assert all(kappa_lly(g, x, y) == 1 for x, y in g.edges())
        for n in (5, 7, 9):
            g = near_cocktail(n)
            assert all(kappa_lly(g, x, y) == 1 for x, y in g.edges())
        for k in range(2, 7):
            for g in (hypercube(k), complete_bipartite(k, k)):
                assert all(kappa_lly(g, x, y) == F(2, k) for x, y in g.edges())
                assert all(kappa_zero(g, x, y) == 0 for x, y in g.edges())
        for m in range(6, 13):
            g = cycle(m)
            assert all(kappa_lly(g, x, y) == 0 and kappa_zero(g, x, y) == 0
                       for x, y in g.edges())
        c5 = cycle(5)
        assert all(kappa_lly(c5, x, y) == F(1, 2) and kappa_zero(c5, x, y) == 0
                   for x, y in c5.edges())
        for g in (petersen(), dodecahedral()):
            assert all(kappa_lly(g, x, y) == 0 for x, y in g.edges())


def test_criterion_2_main_theorem_exhaustive():
    with criterion(2, "theorem: Ric >= 1 iff min degree >= n-2, all connected n <= 6"):
        report = check_main_theorem(6)
        assert report.passed
        assert report.instances == 27476  # 1+1+4+38+728+26704 connected labeled graphs
        assert report.elapsed <= 600


def test_criterion_3_gap_formula(edge_report, corpus_stats):
    with criterion(3, "gap formula and gap class over the corpus"):
        assert corpus_stats["equal_degree"] >= 4000  # the advertised ~5k scale
        # edge_record raises on a gap off the closed form or outside {0, 1, 2}/d,
        # and the suite records that as route-agreement
        bad = [f for f in edge_report.failures if f.check == "route-agreement"]
        assert bad == []


def test_criterion_4_bone_idle_families():
    with criterion(4, "bone-idle families; hypercubes and K_nn are not"):
        report = check_bone_idle_families()
        assert report.passed
        assert report.instances >= 20


def test_criterion_5_no_cubic_bone_idle():
    with criterion(5, "no cubic graph in the corpus is bone-idle"):
        report = check_no_cubic_bone_idle(corpus_seed=0, trials=15)
        assert report.passed
        assert report.instances >= 60
        witnesses = [n for n in report.notes if "witness edge" in n]
        assert len(witnesses) == report.instances


def test_criterion_6_product_formula():
    with criterion(6, "box product scaling for kappa and kappa_0, five pairs"):
        report = check_product_formula()
        assert report.passed
        assert report.instances == 72 + 18 + 150 + 48 + 120  # edges of the five products
        # spot value: Petersen-direction edges of Petersen x C_6
        prod = cartesian_product(petersen(), cycle(6))
        p = petersen()
        x1, x2 = p.edges()[0]
        assert kappa_zero(prod, x1 * 6 + 0, x2 * 6 + 0) == F(-1, 5)
        assert kappa_lly(prod, x1 * 6 + 0, x2 * 6 + 0) == 0


def test_criterion_7_oracle_equivalence():
    with criterion(7, "solver equals brute force: 200 transport + 500 assignment instances"):
        rng = random.Random(20240810)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(2, 8))
            tokens = rng.randint(1, 8)
            mu = random_token_measure(rng, g, tokens)
            nu = random_token_measure(rng, g, tokens)
            assert wasserstein1(g, mu, nu) == brute_wasserstein1(g, mu, nu)
        for _ in range(500):
            k = rng.randint(0, 5)
            cost = [[rng.randint(1, 3) for _ in range(k)] for _ in range(k)]
            assert _hungarian(cost)[0] == brute_assignment_optimum(cost)
            optimal = brute_optimal_permutations(cost)
            assert _supsup(cost, *_hungarian(cost)[1:]) == max(
                (cost[i][p[i]] for p in optimal for i in range(k)), default=None)


def test_criterion_8_idleness_structure(edge_report):
    with criterion(8, "idleness functions: concave, <= 3 parts, f(1)=0, slope -kappa, proof"):
        bad = [f for f in edge_report.failures if f.check.startswith("idleness")]
        assert bad == []


def test_criterion_9_property_suite(edge_report):
    with criterion(9, "upper bound, Bonnet-Myers, equality conditions, 2N1+N2 identity"):
        bad = [f for f in edge_report.failures
               if f.check in ("upper-bound", "bonnet-myers", "sufficient-equality",
                              "assignment-identity", "bone-idle-local")]
        assert bad == []
        assert edge_report.passed  # nothing else failed either


def test_edge_report_bytes(edge_report):
    # the whole report, pinned like the suites in test_golden.py; it reuses
    # the session fixture so the ~12 s suite runs once
    text = json.dumps(edge_report.to_dict(), indent=2)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "8264a4888de88be25a1adee74a365002f207ae852e8f50003102a954fab839b9")


def test_criterion_7b_assignment_identity_brute():
    # part of criterion 7's brute-force family: the largest cost in the
    # optimal-pair support (_supsup) agrees with full enumeration of the
    # forced assignments on dense checks
    with criterion("7b", "supsup equals the forced-pair support's largest cost on k <= 4 grids"):
        rng = random.Random(4711)
        for _ in range(120):
            k = rng.randint(1, 4)
            cost = [[rng.randint(1, 3) for _ in range(k)] for _ in range(k)]
            best = brute_assignment_optimum(cost)
            used = [cost[i][j] for i in range(k) for j in range(k)
                    if min(sum(cost[r][p[r]] for r in range(k))
                           for p in permutations(range(k)) if p[i] == j) == best]
            assert _supsup(cost, *_hungarian(cost)[1:]) == max(used)
