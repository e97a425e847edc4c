import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from orckit import cli, families, formats, graphs
from orckit.cli import decimal_str, main, rational_str, read_graph
from orckit.families import bi_antiprism, complete, cycle, petersen
from orckit.formats import parse_edge_list, parse_graph6, write_edge_list, write_graph6
from orckit.graphs import EDGE_LIMIT, VERTEX_LIMIT

from helpers import child_env, corrupt_assignment_optimum


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_graph6(tmp_path, capsys):
    out = tmp_path / "p.g6"
    code, _, _ = run_cli(["gen", "--family", "petersen", "--out", str(out)], capsys)
    assert code == 0
    assert parse_graph6(out.read_text()) == petersen()


def test_gen_edgelist_stdout(capsys):
    code, stdout, _ = run_cli(["gen", "--family", "bi", "--n", "6", "--format", "edgelist"], capsys)
    assert code == 0
    assert parse_edge_list(stdout) == bi_antiprism(6)


def test_gen_icosidodecahedron(capsys):
    code, stdout, _ = run_cli(["gen", "--family", "icosidodecahedron"], capsys)
    assert code == 0
    assert parse_graph6(stdout).n == 30


def test_gen_twisted_torus(capsys):
    code, stdout, _ = run_cli(
        ["gen", "--family", "twisted-torus", "--n", "7", "--m", "5", "--l", "2"], capsys)
    assert code == 0
    assert parse_graph6(stdout).n == 35


def test_gen_errors(capsys):
    code, _, stderr = run_cli(["gen", "--family", "cycle", "--n", "2"], capsys)
    assert code == 2 and "error" in stderr
    code, _, stderr = run_cli(["gen", "--family", "nonsense", "--n", "3"], capsys)
    assert code == 2 and "unknown family" in stderr
    code, _, stderr = run_cli(["gen", "--family", "cycle"], capsys)
    assert code == 2 and "requires --n" in stderr


def test_curvature_json_petersen(tmp_path, capsys):
    graph_file = tmp_path / "p.g6"
    graph_file.write_text(write_graph6(petersen()) + "\n")
    code, stdout, _ = run_cli(["curvature", str(graph_file)], capsys)
    assert code == 0
    rows = json.loads(stdout)
    assert len(rows) == 15
    assert all(row["kappaLLY"] == "0/1" and row["kappa0"] == "-1/3" for row in rows)
    assert all(not row["bone_idle"] for row in rows)


def test_curvature_bone_idle_cycle(tmp_path, capsys):
    graph_file = tmp_path / "c6.el"
    graph_file.write_text(write_edge_list(cycle(6)))
    code, stdout, _ = run_cli(["curvature", str(graph_file)], capsys)
    assert code == 0
    rows = json.loads(stdout)
    assert all(row["bone_idle"] for row in rows)


def test_curvature_complete4(tmp_path, capsys):
    graph_file = tmp_path / "k4.g6"
    graph_file.write_text(write_graph6(complete(4)))
    code, stdout, _ = run_cli(["curvature", str(graph_file)], capsys)
    assert code == 0
    rows = json.loads(stdout)
    assert all(row["kappaLLY"] == "4/3" for row in rows)


def test_curvature_csv_json_consistency(tmp_path, capsys):
    graph_file = tmp_path / "p.g6"
    graph_file.write_text(write_graph6(petersen()))
    flags = ["--alpha", "0,1/2", "--decimals", "4"]
    code, json_text, _ = run_cli(["curvature", str(graph_file), *flags], capsys)
    assert code == 0
    code, csv_text, _ = run_cli(["curvature", str(graph_file), *flags, "--format", "csv"], capsys)
    assert code == 0
    json_rows = json.loads(json_text)
    csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert len(json_rows) == len(csv_rows)
    for jr, cr in zip(json_rows, csv_rows):
        assert str(jr["u"]) == cr["u"] and str(jr["v"]) == cr["v"]
        assert jr["kappa0"] == cr["kappa0"] and jr["kappaLLY"] == cr["kappaLLY"]
        assert (("" if jr["gap_c"] is None else str(jr["gap_c"])) == cr["gap_c"])
        assert (("" if jr["supsup"] is None else str(jr["supsup"])) == cr["supsup"])
        assert str(jr["bone_idle"]).lower() == cr["bone_idle"]
        for a in ("0", "1/2"):
            assert jr["kappa_alpha"][a] == cr[f"kappa_alpha[{a}]"]
        assert jr["kappa0_decimal"] == cr["kappa0_decimal"] == "-0.3333"
        assert jr["kappaLLY_decimal"] == cr["kappaLLY_decimal"] == "0.0000"


def test_curvature_deterministic_output(tmp_path, capsys):
    graph_file = tmp_path / "b.el"
    graph_file.write_text(write_edge_list(bi_antiprism(7)))
    _, first, _ = run_cli(["curvature", str(graph_file)], capsys)
    _, second, _ = run_cli(["curvature", str(graph_file)], capsys)
    assert first == second


def test_curvature_autodetect_edgelist_without_extension(tmp_path, capsys):
    graph_file = tmp_path / "graphdata"
    graph_file.write_text("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    code, stdout, _ = run_cli(["curvature", str(graph_file)], capsys)
    assert code == 0
    assert len(json.loads(stdout)) == 6


def test_curvature_autodetect_graph6_without_extension(tmp_path, capsys):
    graph_file = tmp_path / "graphdata"
    graph_file.write_text(write_graph6(petersen()) + "\n")
    code, stdout, _ = run_cli(["curvature", str(graph_file)], capsys)
    assert code == 0
    assert len(json.loads(stdout)) == 15


def test_read_graph_format_comes_from_the_text(tmp_path):
    # the file name plays no part: either text under any name gives the
    # graph of its own parser
    texts = {"graph6": (write_graph6(petersen()) + "\n", parse_graph6),
             "edge list": (write_edge_list(bi_antiprism(6)), parse_edge_list)}
    for kind, (text, parse) in texts.items():
        for name in ("graph.g6", "graph.el", "graph"):
            path = tmp_path / name
            path.write_text(text)
            assert read_graph(str(path)) == parse(text), (kind, name)


def test_curvature_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("C")  # truncated body
    code, _, stderr = run_cli(["curvature", str(bad)], capsys)
    assert code == 2 and stderr.count("\n") == 1
    # the one error line names why each format refused the text
    assert stderr.startswith(f"error: {bad} is neither graph6 (graph6: n=4 needs 1 body bytes")
    assert "nor an edge list (edge list line 1: expected 'u v', got 'C')" in stderr


def test_curvature_bad_alpha_exits_2(tmp_path):
    # run as a child, so an uncaught exception shows as a traceback on stderr
    graph_file = tmp_path / "k3.g6"
    graph_file.write_text(write_graph6(complete(3)))
    long_alpha = "1/" + "3" * 10 ** 5
    for bad in ("1/0", "abc", "3/2", "1e-1000000", long_alpha):
        proc = subprocess.run(
            [sys.executable, "-m", "orckit.cli", "curvature", str(graph_file), "--alpha", bad],
            capture_output=True, text=True, env=child_env(), timeout=30)
        assert proc.returncode == 2 and proc.stdout == "", (bad, proc.stderr)
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        shown = bad if bad != long_alpha else bad[:64] + "..."
        assert len(lines) == 1 and lines[0].startswith("error: ") and shown in lines[0]
        assert len(lines[0]) < 200


def test_bad_flags_exit_2_before_the_graph_is_read(tmp_path):
    # the input file does not exist, so a flag checked after reading it would
    # report the missing file instead of the flag
    missing = str(tmp_path / "missing.g6")
    cases = [(["curvature", missing, "--decimals", d], "--decimals")
             for d in ("-1", "65", "10000000")]
    cases += [(["idleness", missing, "--edge", e], "--edge") for e in ("0", "a,b", "0,1,2")]
    for args, flag in cases:
        proc = subprocess.run([sys.executable, "-m", "orckit.cli", *args],
                              capture_output=True, text=True, env=child_env(), timeout=30)
        assert proc.returncode == 2 and proc.stdout == "", (args, proc.stderr)
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0], args


def test_repeated_alpha_exits_2(tmp_path):
    # "0" and "0/1" are the same idleness: JSON would key it once and CSV
    # would write its column twice, so a value given twice is refused
    graph_file = tmp_path / "k3.g6"
    graph_file.write_text(write_graph6(complete(3)))
    for fmt in ("json", "csv"):
        for alphas, texts in (("0,0/1", ("0/1", "0")), ("1/3,1/2,2/6", ("2/6", "1/3"))):
            proc = subprocess.run(
                [sys.executable, "-m", "orckit.cli", "curvature", str(graph_file),
                 "--alpha", alphas, "--format", fmt],
                capture_output=True, text=True, env=child_env(), timeout=30)
            assert proc.returncode == 2 and proc.stdout == "", (alphas, proc.stderr)
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
            assert all(text in lines[0] for text in texts), lines[0]


def test_non_integer_option_gives_one_error_line(tmp_path):
    graph_file = tmp_path / "k3.g6"
    graph_file.write_text(write_graph6(complete(3)))
    cases = [["curvature", str(graph_file), "--decimals", "abc"],
             ["verify", "--suite", "main-theorem", "--nmax", "x"],
             ["verify", "--suite", "no-cubic-bone-idle", "--seed", "1.5"],
             ["verify", "--suite", "no-cubic-bone-idle", "--trials", ""]]
    cases += [["gen", "--family", "torus", "--n", "6", "--m", "6", f"--{flag}", "six"]
              for flag in ("n", "m", "l", "d", "seed")]
    for args in cases:
        proc = subprocess.run([sys.executable, "-m", "orckit.cli", *args],
                              capture_output=True, text=True, env=child_env(), timeout=30)
        assert proc.returncode == 2 and proc.stdout == "", (args, proc.stderr)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (args, proc.stderr)
        assert "usage:" not in proc.stderr and "invalid int value" in lines[0], args


def test_decimals_accepts_0_to_64(tmp_path, capsys):
    graph_file = tmp_path / "k3.g6"
    graph_file.write_text(write_graph6(complete(3)))
    for decimals, shown in (("0", "2"), ("64", "1.5" + "0" * 63)):
        code, stdout, _ = run_cli(["curvature", str(graph_file), "--decimals", decimals], capsys)
        assert code == 0 and json.loads(stdout)[0]["kappaLLY_decimal"] == shown


def test_decimal_columns_are_exact(tmp_path, capsys):
    # the digits are the Fraction's own, rounded half to even; a float's
    # digits after the 16th would be noise
    graph_file = tmp_path / "k4.g6"
    graph_file.write_text(write_graph6(complete(4)))
    code, stdout, _ = run_cli(["curvature", str(graph_file), "--format", "csv",
                               "--decimals", "30"], capsys)
    row = next(csv.DictReader(io.StringIO(stdout)))
    assert code == 0 and row["kappa0_decimal"] == "0." + "6" * 29 + "7"
    assert decimal_str(F(1, 80), 3) == "0.012"  # a tie; the float 0.0125 lies just above it
    assert decimal_str(F(-1, 3000), 2) == "0.00"  # no minus sign on a value that rounds to zero


def test_verify_reads_rf72_before_any_suite(tmp_path, capsys, monkeypatch):
    def not_run(args):
        raise AssertionError("a suite ran before --rf72 was read")

    monkeypatch.setattr(cli, "_SUITES", {name: not_run for name in cli._SUITES})
    missing = str(tmp_path / "missing.g6")
    code, stdout, stderr = run_cli(["verify", "--suite", "all", "--rf72", missing], capsys)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and missing in stderr and stderr.count("\n") == 1


def test_worker_count_is_capped(tmp_path, capsys, monkeypatch):
    # a fake fork context records each pool's size and maps serially, so no
    # process starts; the cap is min(RICCI_THREADS, edges, CPUs)
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, items):
            return [fn(*item) for item in items]

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: type("Context", (), {"Pool": SerialPool}))
    graph_file = tmp_path / "p.g6"
    graph_file.write_text(write_graph6(petersen()))  # 15 edges
    _, serial, _ = run_cli(["curvature", str(graph_file)], capsys)
    monkeypatch.setenv("RICCI_THREADS", "100000")
    for cpus, pool_sizes in ((4, [4]), (64, [15]), (1, []), (None, [])):
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, stdout, _ = run_cli(["curvature", str(graph_file)], capsys)
        assert code == 0 and stdout == serial
        assert sizes == pool_sizes, cpus


def test_curvature_oversized_edge_list_exits_2(tmp_path, capsys, monkeypatch):
    def no_graph(n, edges):
        raise AssertionError("an oversized edge list reached Graph")

    monkeypatch.setattr(formats, "Graph", no_graph)
    big = tmp_path / "big.txt"
    for text in ("n 1000000000\n0 1\n", "0 999999999\n"):
        big.write_text(text)
        code, stdout, stderr = run_cli(["curvature", str(big)], capsys)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error:") and "limit of 2000000" in stderr


def test_idleness_cycle6(tmp_path, capsys):
    graph_file = tmp_path / "c6.el"
    graph_file.write_text(write_edge_list(cycle(6)))
    code, stdout, _ = run_cli(["idleness", str(graph_file), "--edge", "0,1"], capsys)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[1].startswith("0,0/1")
    assert lines[-1].startswith("1,0/1")


def test_idleness_k2_final_slope(tmp_path, capsys):
    graph_file = tmp_path / "k2.el"
    graph_file.write_text(write_edge_list(complete(2)))
    code, stdout, _ = run_cli(["idleness", str(graph_file), "--edge", "0,1"], capsys)
    assert code == 0
    rows = stdout.strip().splitlines()[1:]
    assert rows[-1].startswith("1,0/1")
    assert rows[1].startswith("1/2,1/1")  # peak of the tent; slope -2 afterwards


def test_idleness_non_edge_exits_2(tmp_path, capsys):
    graph_file = tmp_path / "c6.el"
    graph_file.write_text(write_edge_list(cycle(6)))
    code, _, stderr = run_cli(["idleness", str(graph_file), "--edge", "0,2"], capsys)
    assert code == 2 and "error" in stderr


def test_verify_single_suite(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, stderr = run_cli(["verify", "--suite", "family-values", "--out", str(out)], capsys)
    assert code == 0
    assert "PASS" in stderr
    reports = json.loads(out.read_text())
    assert reports[0]["suite"] == "family-values" and reports[0]["passed"]


def test_verify_unknown_suite(capsys):
    code, _, stderr = run_cli(["verify", "--suite", "bogus"], capsys)
    assert code == 2 and "unknown suite" in stderr


def test_verify_rf72_failure_exit_code(tmp_path, capsys):
    graph_file = tmp_path / "fake.g6"
    graph_file.write_text(write_graph6(petersen()))
    code, stdout, _ = run_cli(
        ["verify", "--suite", "girth5", "--rf72", str(graph_file)], capsys)
    assert code == 1  # the supplied graph is not the 5-regular flat graph
    reports = json.loads(stdout)
    assert any(not r["passed"] for r in reports)


def test_verify_solver_fault_fails_reports(capsys, monkeypatch):
    # a fault inside a suite fails that suite's report, exit 1, and
    # --suite all still prints every report
    corrupt_assignment_optimum(monkeypatch)
    code, stdout, _ = run_cli(["verify", "--suite", "product-formula"], capsys)
    assert code == 1 and not json.loads(stdout)[0]["passed"]
    code, stdout, _ = run_cli(["verify", "--suite", "all", "--nmax", "4", "--trials", "1"], capsys)
    reports = json.loads(stdout)
    assert code == 1 and len(reports) == len(cli._SUITES) == 8
    assert not any(r["passed"] for r in reports)


def test_verify_trials_bound_exits_2_before_building():
    # the corpus is refused before any graph is built; at 100 million trials
    # building it would outlast the timeout
    proc = subprocess.run([sys.executable, "-m", "orckit.cli", "verify", "--suite",
                           "no-cubic-bone-idle", "--trials", "100000000"],
                          capture_output=True, text=True, env=child_env(), timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr == "error: trials must be from 1 to 1000, got 100000000\n"


def test_rational_str():
    from fractions import Fraction as F
    assert rational_str(F(0)) == "0/1"
    assert rational_str(F(-1, 3)) == "-1/3"
    assert rational_str(F(4, 3)) == "4/3"


def test_threads_env_gives_identical_output(tmp_path):
    graph_file = tmp_path / "p.g6"
    graph_file.write_text(write_graph6(petersen()))
    runs = {}
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "orckit.cli", "curvature", str(graph_file)],
            capture_output=True, text=True, env=child_env(RICCI_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        runs[threads] = proc.stdout
    assert len(json.loads(runs["1"])) == 15  # one row per Petersen edge
    assert runs["1"] == runs["2"]


def test_threads_env_rejects_bad_values(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "k3.g6"
    graph_file.write_text(write_graph6(complete(3)))
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("RICCI_THREADS", bad)
        code, stdout, stderr = run_cli(["curvature", str(graph_file)], capsys)
        assert code == 2 and stdout == ""
        assert "RICCI_THREADS" in stderr and repr(bad) in stderr
    monkeypatch.setenv("RICCI_THREADS", "")  # empty means serial, like unset
    code, stdout, _ = run_cli(["curvature", str(graph_file)], capsys)
    assert code == 0 and len(json.loads(stdout)) == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["curvature"])  # missing input
    assert exc.value.code == 2


def test_gen_oversized_family_exits_2(capsys, monkeypatch):
    # closed-form counts are checked before any graph is built: with Graph
    # replaced by a tripwire, each request must still exit 2 naming the limit.
    # These builders reach Graph before allocating much, so the cases stay
    # cheap even without the check; test_family_size_checks_use_exact_counts
    # covers the other families.
    def no_graph(*args, **kwargs):
        raise AssertionError("an oversized family reached Graph")

    monkeypatch.setattr(families, "Graph", no_graph)
    monkeypatch.setattr(graphs, "Graph", no_graph)
    cases = [
        (["--family", "complete", "--n", "100000"], "4999950000 edges", EDGE_LIMIT),
        (["--family", "hypercube", "--n", "40"], "vertices", VERTEX_LIMIT),
        (["--family", "hypercube", "--n", "21"], "2097152 vertices", VERTEX_LIMIT),
        (["--family", "hypercube", "--n", "20"], "10485760 edges", EDGE_LIMIT),
        (["--family", "hypercube", "--n", "1000000000000"], "vertices", VERTEX_LIMIT),
    ]
    for args, count, limit in cases:
        code, stdout, stderr = run_cli(["gen", *args], capsys)
        assert code == 2 and stdout == "", args
        assert stderr.startswith("error:") and count in stderr, (args, stderr)
        assert f"desk-scale limit of {limit}\n" in stderr, (args, stderr)


def test_family_size_checks_use_exact_counts(monkeypatch):
    # each builder's closed-form counts are those of the graph it builds, so
    # the limits hold exactly: a family at the limit is built, one past it is not
    checked = []
    monkeypatch.setattr(families, "check_size", lambda label, n, m: checked.append((n, m)))
    for name, params in [("complete", (5,)), ("cycle", (7,)), ("path", (5,)), ("star", (4,)),
                         ("complete_bipartite", (2, 3)), ("hypercube", (3,)),
                         ("cocktail_party", (3,)), ("near_cocktail", (7,)),
                         ("bi_antiprism", (6,)), ("torus_grid", (6, 7)),
                         ("twisted_torus", (7, 5, 2)), ("klein_bottle", (6, 6)),
                         ("random_regular", (12, 3, 5))]:
        checked.clear()
        g = getattr(families, name)(*params)
        assert checked[0] == (g.n, g.edge_count), name
    graphs.check_size("at the limits", VERTEX_LIMIT, EDGE_LIMIT)
    for n, m in ((VERTEX_LIMIT + 1, 0), (0, EDGE_LIMIT + 1)):
        with pytest.raises(ValueError, match="desk-scale limit"):
            graphs.check_size("past a limit", n, m)
