import hashlib
import inspect
import json
import re
import sys
from fractions import Fraction as F

import pytest

from orckit import curvature, families, verify
from orckit.curvature import ConsistencyError, PiecewiseLinearFn
from orckit.families import cocktail_party, complete, cycle, path, petersen, torus_grid
from orckit.formats import parse_graph6
from orckit.verify import (VerificationReport, bone_idle_family_instances,
                           check_bone_idle_families, check_edge_properties,
                           check_family_values, check_girth5_bone_idle, check_main_theorem,
                           check_no_cubic_bone_idle, check_product_formula,
                           check_ric_one_classification, check_rf72, cubic_corpus,
                           default_corpus, default_product_pairs)

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


def test_main_theorem_failure_bytes(monkeypatch):
    # Triangles get kappa - 1, and on 4 vertices the third edge tried raises
    # a ConsistencyError that names it, so the digest pins both kinds of
    # Failure, their graph6 labels and the order the edges are scanned in.
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
    scans = [f for f in report.failures if f.check == "min-kappa-scan"]
    assert len(scans) == 13
    for f in scans:  # edges are scanned in g.edges() order
        assert f"kappa{parse_graph6(f.graph).edges()[2]} " in f.actual, f
    text = json.dumps(report.to_dict(), indent=2)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        "8bb9bafa331f8db74ee468be537966ad932288908a645d46ec0da8c48640baba"


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
    for trials in (0, 1001):  # refused before the corpus is built
        with pytest.raises(ValueError, match=f"trials must be from 1 to 1000, got {trials}"):
            check_no_cubic_bone_idle(corpus_seed=1, trials=trials)


def test_product_formula_small_pairs():
    pairs = [("cycle(6)", cycle(6), "complete(2)", complete(2)),
             ("complete(4)", complete(4), "complete(4)", complete(4))]
    report = check_product_formula(pairs)
    assert report.passed
    with pytest.raises(ValueError, match="regular"):
        from orckit.families import star
        check_product_formula([("star(3)", star(3), "cycle(6)", cycle(6))])


def test_factor_fault_names_the_factor_edge(monkeypatch):
    # a fault in a factor's curvature is the factor's: its label, its edge
    # in its own numbering, and no product check of that product edge
    corrupt_assignment_optimum(monkeypatch)
    report = check_product_formula([("cycle(6)", cycle(6), "complete(2)", complete(2))])
    assert report.instances == len(report.failures) == 18
    assert {f.check for f in report.failures} == {"product-factor"}
    assert {(f.graph, f.edge) for f in report.failures} == \
        {("cycle(6)", edge) for edge in cycle(6).edges()} | {("complete(2)", (0, 1))}


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
    monkeypatch.setattr(verify, "_PROBES", 0)
    report = check_edge_properties(corpus)
    assert [(f.edge, f.check) for f in report.failures] == [((0, 1), "idleness-first-piece")]


@pytest.mark.parametrize("breakpoints, values", [
    ((F(0), F(1)), (F(1), F(1))),                                          # nonzero at 1
    ((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)), (F(0), F(1), F(1), F(1), F(0))),  # 4 pieces
    ((F(0), F(1, 2), F(1)), (F(1), F(1, 2), F(0))),                        # not strictly concave
])
def test_wrong_idleness_shape_fails_reconstruction(monkeypatch, breakpoints, values):
    # PiecewiseLinearFn refuses each of these shapes, so every edge records
    # one idleness-reconstruction Failure and no other
    corpus = [("cycle(5)", cycle(5)), ("path(3)", path(3))]
    monkeypatch.setattr(curvature, "idleness_function",
                        lambda g, x, y: PiecewiseLinearFn(breakpoints, values))
    report = check_edge_properties(corpus)
    assert [(f.graph, f.edge, f.check) for f in report.failures] == \
        [(label, edge, "idleness-reconstruction") for label, g in corpus for edge in g.edges()]


@pytest.mark.parametrize("fault", ["gap off by 1/d", "supsup 4", "supsup 2 for 3"])
def test_wrong_gap_fails_route_agreement(monkeypatch, fault):
    # edge_record raises unless gap_formula's gap equals kappa - kappa_0, so
    # a wrong gap or a wrong supsup (the gap is (3 - supsup)/d) fails each
    # equal-degree edge once, as route-agreement; every edge of cycle(6) and
    # torus_grid(6,6) has supsup 3, and path(3) has no equal-degree edge
    exact = curvature.gap_formula

    def wrong(g, x, y):
        gap, supsup = exact(g, x, y)
        d = g.degree(x)
        return {"gap off by 1/d": (gap + F(1, d), supsup),
                "supsup 4": (F(3 - 4, d), 4),
                "supsup 2 for 3": (F(3 - 2, d), 2) if supsup == 3 else (gap, supsup)}[fault]

    corpus = [("cycle(6)", cycle(6)), ("torus_grid(6,6)", torus_grid(6, 6)), ("path(3)", path(3))]
    monkeypatch.setattr(curvature, "gap_formula", wrong)
    report = check_edge_properties(corpus)
    assert [(f.graph, f.edge, f.check) for f in report.failures] == \
        [(label, (x, y), "route-agreement") for label, g in corpus for x, y in g.edges()
         if g.degree(x) == g.degree(y)]
    assert all("gap(" in f.actual for f in report.failures)


# suite -> a small run of it
SMALL_SUITES = {
    "main-theorem": lambda: check_main_theorem(3),
    "ric-one": check_ric_one_classification,
    "family-values": check_family_values,
    "bone-idle-families": check_bone_idle_families,
    "no-cubic-bone-idle": lambda: check_no_cubic_bone_idle(corpus_seed=1, trials=1),
    "girth5": check_girth5_bone_idle,
    "product-formula": lambda: check_product_formula(
        [("cycle(5)", cycle(5), "complete(2)", complete(2))]),
    "edge-properties": lambda: check_edge_properties([("cycle(5)", cycle(5)),
                                                      ("path(3)", path(3))]),
    "rf72": lambda: check_rf72(petersen()),
}

# orckit.curvature function -> the suites that call it
CALLERS = {
    "kappa_lly": [name for name in SMALL_SUITES if name not in ("girth5", "edge-properties")],
    "kappa_zero": ["family-values", "bone-idle-families", "no-cubic-bone-idle",
                   "product-formula", "rf72"],
    "kappa_alpha": ["edge-properties"],
    "edge_record": ["edge-properties"],
    "local_structure": ["edge-properties"],
    "assignment_instance": ["edge-properties"],
    "idleness_function": ["edge-properties"],
    "is_ricci_flat": ["girth5"],
    "is_zero_ricci_flat": ["girth5"],
    "is_bone_idle": ["girth5"],
}


def test_callers_name_every_curvature_call_of_verify():
    assert set(re.findall(r"\bcurvature\.(\w+)", inspect.getsource(verify))) == set(CALLERS)


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_every_curvature_call_is_guarded(monkeypatch, name):
    # the patched function raises only when verify itself calls it, so each
    # call site of `name` in verify must turn the error into a Failure
    exact = getattr(curvature, name)
    message = f"ConsistencyError: {name} fault"

    def faulty(*args):
        if sys._getframe(1).f_globals["__name__"] == verify.__name__:
            raise ConsistencyError(f"{name} fault")
        return exact(*args)

    monkeypatch.setattr(curvature, name, faulty)
    for suite in CALLERS[name]:
        report = SMALL_SUITES[suite]()
        assert any(f.actual == message for f in report.failures), suite


def test_default_corpus_shape():
    corpus = default_corpus(2024)
    labels = [label for label, _ in corpus]
    assert len(labels) == len(set(labels))
    assert sum(1 for label in labels if label.startswith("random_regular")) == 50
    total = sum(g.edge_count for _, g in corpus)
    assert 4000 <= total <= 6500  # the advertised "~5k edges" scale


def test_every_label_names_its_graph():
    # a label is the call that builds its graph: a builder of orckit.families
    # with integer arguments and seed=; prism(m) alone is not a builder
    named = default_corpus(2024) + bone_idle_family_instances() + cubic_corpus(0, 2)
    named += [item for a, g, b, h in default_product_pairs() for item in ((a, g), (b, h))]
    rebuilt = 0
    for label, g in named:
        if label.startswith("prism("):
            continue
        name, params = re.fullmatch(r"(\w+)(?:\((.*)\))?", label).groups()
        args, kwargs = [], {}
        for param in params.split(",") if params else []:
            key, _, value = param.rpartition("=")
            if key:
                kwargs[key] = int(value)
            else:
                args.append(int(value))
        assert getattr(families, name)(*args, **kwargs) == g, label
        rebuilt += 1
    assert rebuilt == len(named) - 6


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
