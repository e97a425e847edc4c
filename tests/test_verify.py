import hashlib
import json
from fractions import Fraction as F

import pytest

from orckit import curvature
from orckit.curvature import ConsistencyError, PiecewiseLinearFn
from orckit.families import (cocktail_party, complete, cycle, enumerate_graphs, path, petersen,
                             torus_grid)
from orckit.verify import (VerificationReport, _kappa_bound, _min_edge_kappa_at_least_one,
                           check_bone_idle_families,
                           check_edge_properties, check_family_values,
                           check_girth5_bone_idle, check_main_theorem,
                           check_no_cubic_bone_idle, check_product_formula,
                           check_ric_one_classification, check_rf72, cubic_corpus,
                           default_corpus)

from helpers import corrupt_assignment_optimum


def test_main_theorem_small():
    report = check_main_theorem(4)
    assert report.passed
    assert report.instances == 1 + 1 + 4 + 38  # connected labeled graphs, n <= 4
    with pytest.raises(ValueError):
        check_main_theorem(8)
    with pytest.raises(ValueError):
        check_main_theorem(1)


def test_main_theorem_n5_counts():
    report = check_main_theorem(5)
    assert report.passed and report.instances == 772


def test_witness_order_is_the_kappa_bound_order(monkeypatch):
    # with every kappa at 1 the scan tries all edges: in the order, ties
    # included, of the stable sort by the Fraction bound
    tried = []
    monkeypatch.setattr(curvature, "kappa_lly", lambda g, x, y: tried.append((x, y)) or F(1))
    for n in range(1, 6):
        for g in enumerate_graphs(n, connected_only=True):
            tried.clear()
            assert _min_edge_kappa_at_least_one(g)
            assert tried == sorted(g.edges(), key=lambda e: _kappa_bound(g, *e))


def test_main_theorem_failure_bytes(monkeypatch):
    # Triangles get kappa - 1, and on 4 vertices the third edge tried raises
    # a ConsistencyError that names it, so the digest pins both kinds of
    # Failure, their graph6 labels and the witness order.
    exact = curvature.kappa_lly
    tried = []

    def corrupted(g, x, y):
        if not tried or tried[0] is not g:
            tried[:] = [g]
        tried.append((x, y))
        if g.n == 3:
            return exact(g, x, y) - 1
        if len(tried) == 4:
            raise ConsistencyError(f"kappa({x}, {y}) corrupted on the third edge tried")
        return exact(g, x, y)

    monkeypatch.setattr(curvature, "kappa_lly", corrupted)
    report = check_main_theorem(4)
    assert len(report.failures) == 17
    text = json.dumps(report.to_dict(), indent=2)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        "cb1067004ec06954d1b869f936d216d1168d008fd3fe7b20b9fdf0f8155aba69"


def test_ric_one_classification():
    assert check_ric_one_classification().passed


def test_family_values():
    assert check_family_values().passed


def test_girth5():
    assert check_girth5_bone_idle().passed


def test_bone_idle_families():
    assert check_bone_idle_families().passed


def test_no_cubic_bone_idle_small():
    report = check_no_cubic_bone_idle(corpus_seed=1, trials=2)
    assert report.passed
    # witnesses recorded per instance
    witness_notes = [n for n in report.notes if "witness edge" in n]
    assert len(witness_notes) == report.instances
    assert len(cubic_corpus(1, 2)) == 5 + 6 + 4 * 2


def test_product_formula_small_pairs():
    pairs = [("cycle(6)", cycle(6), "complete(2)", complete(2)),
             ("complete(4)", complete(4), "complete(4)", complete(4))]
    report = check_product_formula(pairs)
    assert report.passed
    with pytest.raises(ValueError, match="regular"):
        from orckit.families import star
        check_product_formula([("star(3)", star(3), "cycle(6)", cycle(6))])


def test_edge_properties_small_corpus():
    corpus = [("petersen", petersen()), ("cocktail_party(3)", cocktail_party(3)),
              ("cycle(5)", cycle(5)), ("torus_grid(6,6)", torus_grid(6, 6))]
    report = check_edge_properties(corpus)
    assert report.passed
    assert report.instances == sum(g.edge_count for _, g in corpus)


def test_edge_properties_checks_the_first_idleness_piece(monkeypatch):
    # K2 has lcm(d_x, d_y) = 1, so its first piece must reach 1/2. This
    # function keeps kappa_0 = 0, the last piece from 1/2 and its slope
    # -kappa = -2, but breaks at 1/4; without probes only the first-piece
    # check sees it.
    corpus = [("path(2)", path(2))]
    assert check_edge_properties(corpus).passed
    early = PiecewiseLinearFn((F(0), F(1, 4), F(1, 2), F(1)), (F(0), F(3, 4), F(1), F(0)))
    monkeypatch.setattr(curvature, "idleness_function", lambda g, x, y: early)
    report = check_edge_properties(corpus, probes=0)
    assert [(f.edge, f.check) for f in report.failures] == [((0, 1), "idleness-first-piece")]


def test_default_corpus_shape():
    corpus = default_corpus()
    labels = [label for label, _ in corpus]
    assert len(labels) == len(set(labels))
    assert sum(1 for label in labels if label.startswith("random_regular")) == 50
    total = sum(g.edge_count for _, g in corpus)
    assert 4000 <= total <= 6500  # the advertised "~5k edges" scale


def test_reports_deterministic():
    a = check_girth5_bone_idle().to_dict()
    b = check_girth5_bone_idle().to_dict()
    assert a == b
    report = check_no_cubic_bone_idle(corpus_seed=3, trials=1)
    again = check_no_cubic_bone_idle(corpus_seed=3, trials=1)
    assert report.to_dict() == again.to_dict()
    assert "elapsed_seconds" not in report.to_dict()


def test_rf72_checker_rejects_wrong_graph():
    report = check_rf72(petersen())
    assert not report.passed
    checks = {f.check for f in report.failures}
    assert "order" in checks and "regular-degree" in checks


def test_corrupted_assignment_caught_by_suites(monkeypatch):
    # an off-by-one in the assignment optimum must surface as failures,
    # not as silently wrong numbers
    corrupt_assignment_optimum(monkeypatch)
    family_report = check_family_values()
    assert not family_report.passed
    corpus = [("cocktail_party(3)", cocktail_party(3)), ("petersen", petersen())]
    edge_report = check_edge_properties(corpus)
    assert not edge_report.passed


def test_report_summary_format():
    report = check_girth5_bone_idle()
    assert isinstance(report, VerificationReport)
    text = report.summary()
    assert "PASS" in text and "girth5" in text
