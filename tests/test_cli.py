import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from orckit import cli, curvature, families, formats, graphs, transport
from orckit.cli import decimal_str, main, rational_str, read_graph
from orckit.families import (bi_antiprism, complete, complete_bipartite, cycle, petersen,
                             torus_grid)
from orckit.formats import parse_edge_list, parse_graph6, write_edge_list, write_graph6
from orckit.graphs import EDGE_LIMIT, VERTEX_LIMIT, Graph

from helpers import PROOF_FAULTS, child_env, corrupt_assignment_optimum, corrupt_proof_input


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
    # the error names the family asked for, not the one it is built from
    code, _, stderr = run_cli(["gen", "--family", "torus", "--n", "5", "--m", "6"], capsys)
    assert code == 2 and stderr == "error: torus_grid requires n, m >= 6\n"


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


def test_non_ascii_file_names_the_file(tmp_path, capsys):
    # neither format has a byte outside ASCII; the error line names the file
    bad = tmp_path / "bad.el"
    bad.write_bytes(b"0 \xc2 1\n")
    for argv in (["curvature", str(bad)], ["verify", "--suite", "girth5", "--rf72", str(bad)]):
        code, stdout, stderr = run_cli(argv, capsys)
        assert code == 2 and stdout == "" and stderr.count("\n") == 1
        assert stderr.startswith(f"error: {bad} is neither graph6 (")
        assert "byte 0xc2 in position 2" in stderr and ") nor an edge list (" in stderr


def test_curvature_bad_alpha_exits_2(tmp_path):
    # run as a child, so an uncaught exception shows as a traceback on stderr
    graph_file = tmp_path / "k3.g6"
    graph_file.write_text(write_graph6(complete(3)))
    long_alpha = "1/" + "3" * 10 ** 5
    # only ASCII digits as p/q or a decimal: Fraction would read each of
    # the five after long_alpha as 1/3 or 0
    for bad in ("1/0", "abc", "3/2", "1e-1000000", long_alpha,
                "\u0661/\u0663", "1_0/3_0", "+1/3", " 1/3", "-0"):
        proc = subprocess.run(
            [sys.executable, "-m", "orckit.cli", "curvature", str(graph_file), "--alpha", bad],
            capture_output=True, text=True, env=child_env(), timeout=30)
        assert proc.returncode == 2 and proc.stdout == "", (bad, proc.stderr)
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        shown = bad if bad != long_alpha else bad[:64] + "..."
        assert len(lines) == 1 and lines[0].startswith("error: ") and shown in lines[0]
        assert len(lines[0]) < 200
    assert cli._parse_alphas("0,1/3,0.5,.25,1.") == [0, F(1, 3), F(1, 2), F(1, 4), 1]


def test_bad_flags_exit_2_before_the_graph_is_read(tmp_path):
    # the input file does not exist, so a flag checked after reading it would
    # report the missing file instead of the flag
    missing = str(tmp_path / "missing.g6")
    cases = [(["curvature", missing, "--decimals", d], "--decimals")
             for d in ("-1", "65", "10000000")]
    cases += [(["idleness", missing, "--edge", e], "--edge")
              for e in ("0", "a,b", "0,1,2", "0,1_0", "\u0660,+1", " 0 , 1 ", "0,-1", "",
                        "12345678,0", "0," + "9" * 5000)]
    for args, flag in cases:
        proc = subprocess.run([sys.executable, "-m", "orckit.cli", *args],
                              capture_output=True, text=True, env=child_env(), timeout=30)
        assert proc.returncode == 2 and proc.stdout == "", (args, proc.stderr)
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0], args
        assert len(lines[0]) < 200, args


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
    # w = min(RICCI_THREADS, edges, usable CPUs) shares, so a run makes
    # w - 1 forks (counted by a wrapper around the real os.fork) and gives
    # the serial bytes. Usable CPUs are the affinity mask where the platform
    # has one: an affinity of one CPU, as under `taskset -c 0` on a 64-CPU
    # host, forks nothing. Without affinity masks os.cpu_count() caps.
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    graph_file = tmp_path / "p.g6"
    graph_file.write_text(write_graph6(petersen()))  # 15 edges
    monkeypatch.delenv("RICCI_THREADS", raising=False)  # a serial baseline in any environment
    _, serial, _ = run_cli(["curvature", str(graph_file)], capsys)
    assert forks == []
    monkeypatch.setenv("RICCI_THREADS", "100000")
    for cpus, count in ((4, 3), (64, 14), (1, 0)):
        forks.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        code, stdout, _ = run_cli(["curvature", str(graph_file)], capsys)
        assert code == 0 and stdout == serial
        assert len(forks) == count, cpus
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus, count in ((4, 3), (None, 0)):
        forks.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, stdout, _ = run_cli(["curvature", str(graph_file)], capsys)
        assert code == 0 and stdout == serial
        assert len(forks) == count, cpus


def test_fan_out_is_generic_over_items(monkeypatch):
    # _fan_out maps any function over any list; here plain integers, each
    # mapped to a tuple, so a share's results are never read as its error.
    # 4 usable CPUs are faked, so it forks even on a 1-CPU host. Under 1, 2
    # and 3 shares the results come back in item order; with failures at
    # positions 5, 6 and 7, in three different shares when w = 3, position
    # 5's error is raised; every forked pid has been reaped; and an unset
    # RICCI_THREADS forks nothing
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def mapped(*bad):
        def fn(i):
            if i in bad:
                raise ValueError(f"item {i}")
            return i, -i
        return fn

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    items = list(range(10))
    expected = [(i, -i) for i in items]
    monkeypatch.delenv("RICCI_THREADS", raising=False)
    assert cli._fan_out(items, mapped()) == expected and pids == []
    for threads, forks in (("1", 0), ("2", 1), ("3", 2)):
        monkeypatch.setenv("RICCI_THREADS", threads)
        pids.clear()
        assert cli._fan_out(items, mapped()) == expected
        with pytest.raises(ValueError, match="^item 5$"):
            cli._fan_out(items, mapped(5, 6, 7))
        assert len(pids) == 2 * forks, threads
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
    assert cli._fan_out([], mapped()) == []


def test_serial_fan_out_imports_no_process_module():
    # pickle and signal are imported only on the forked path, so a serial
    # run, RICCI_THREADS unset or 1, pays for neither
    script = ("import sys\n"
              "from orckit import cli\n"
              "assert cli._fan_out([1, 2, 3], str) == ['1', '2', '3']\n"
              "print(sorted({'pickle', 'signal'} & set(sys.modules)))\n")
    env = child_env()
    for threads in (None, "1"):
        env.pop("RICCI_THREADS", None)
        if threads:
            env["RICCI_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", ""), threads


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


@pytest.mark.parametrize("fault", sorted(PROOF_FAULTS))
def test_curvature_alpha_refuses_a_corrupted_solve(tmp_path, capsys, monkeypatch, fault):
    # a corrupted solve (helpers.corrupt_proof_input) ends `curvature
    # --alpha` with exit 2 and one error line naming the broken fact, on a
    # regular graph and on one with no equal-degree edge
    monkeypatch.delenv("RICCI_THREADS", raising=False)
    graph_file = tmp_path / "g.g6"
    for g in (petersen(), complete_bipartite(2, 3)):
        graph_file.write_text(write_graph6(g))
        with monkeypatch.context() as m:
            corrupt_proof_input(m, fault)
            code, stdout, stderr = run_cli(["curvature", str(graph_file), "--alpha", "0,1/2"],
                                           capsys)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: transport certificate: " + PROOF_FAULTS[fault][1])
        assert stderr.count("\n") == 1


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


def test_curvature_rows_are_invariant_under_relabelling(tmp_path, capsys, monkeypatch):
    # G(n, p) graphs with n <= 10 and a permutation of their vertices: the
    # relabelled graph's `curvature` rows, mapped back through the
    # permutation (du and dv swapped where that reverses the edge), give the
    # original rows byte for byte. Permuted tables are new memo keys, so
    # each relabelling also runs the certificate check on fresh instances.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.delenv("RICCI_THREADS", raising=False)
    graph_file = tmp_path / "g.el"

    def rows(g: Graph) -> str:
        graph_file.write_text(write_edge_list(g))
        code, stdout, stderr = run_cli(["curvature", str(graph_file), "--alpha", "0,1/3,1/2",
                                        "--decimals", "4"], capsys)
        assert code == 0, stderr
        return stdout

    @hypothesis.settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @hypothesis.given(st.integers(2, 10).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2), st.permutations(range(n)))))
    def invariant(graph):
        n, bits, perm = graph
        g = Graph(n, [e for e, bit in zip(combinations(range(n), 2), bits) if bit])
        back = {perm[v]: v for v in range(n)}
        mapped = []
        for row in json.loads(rows(Graph(n, [(perm[u], perm[v]) for u, v in g.edges()]))):
            row["u"], row["v"] = back[row["u"]], back[row["v"]]
            if row["u"] > row["v"]:
                row["u"], row["v"], row["du"], row["dv"] = row["v"], row["u"], row["dv"], row["du"]
            mapped.append(row)
        mapped.sort(key=lambda row: (row["u"], row["v"]))
        assert json.dumps(mapped, indent=2) + "\n" == rows(g), (g.edges(), perm)

    invariant()


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


def test_curvature_on_an_edgeless_graph(tmp_path):
    # no edge gives no row: JSON is the empty list and CSV the header
    # alone, the header a one-edge graph's CSV starts with, serial and with
    # 2 workers, and no warning is raised (the child runs under -W error)
    k2 = tmp_path / "k2.g6"
    k2.write_text(write_graph6(complete(2)))
    header = subprocess.run(
        [sys.executable, "-m", "orckit.cli", "curvature", str(k2), "--format", "csv"],
        capture_output=True, env=child_env(), timeout=30).stdout.splitlines(True)[0]
    assert header.startswith(b"u,v,")
    inputs = [tmp_path / "n3.txt", tmp_path / "empty.g6"]
    inputs[0].write_text("n 3\n")
    inputs[1].write_text("?\n")  # graph6 of the graph on 0 vertices
    for path in inputs:
        for fmt, expected in (("json", b"[]\n"), ("csv", header)):
            for threads in ("1", "2"):
                proc = subprocess.run(
                    [sys.executable, "-W", "error", "-m", "orckit.cli", "curvature", str(path),
                     "--format", fmt],
                    capture_output=True, env=child_env(RICCI_THREADS=threads), timeout=30)
                assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b""), \
                    (path.name, fmt, threads)


@pytest.mark.parametrize("g", [complete_bipartite(14, 14), complete_bipartite(30, 30),
                               torus_grid(30, 30), families.near_cocktail(9)],
                         ids=["K14,14", "K30,30", "torus 30x30", "near-cocktail 9"])
def test_shares_give_serial_bytes(tmp_path, capsys, monkeypatch, g):
    # 2 and 3 shares (4 usable CPUs faked) give the serial stdout; the
    # memo is cleared before each run, so every share solves its own edges
    graph_file = tmp_path / "g.g6"
    graph_file.write_text(write_graph6(g))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    runs = set()
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("RICCI_THREADS", threads)
        transport._transport_cost.cache_clear()
        runs.add(run_cli(["curvature", str(graph_file), "--alpha", "0,1/3"], capsys))
    (code, _, stderr), = runs
    assert code == 0 and stderr == ""


@pytest.mark.parametrize("faulty", [(), (0,), (1,), (5, 6, 7)])
def test_shares_fail_as_serial_and_reap_every_child(tmp_path, capsys, monkeypatch, faulty):
    # edge_record raises ConsistencyError on the Petersen edges at the
    # positions `faulty`: none, one in the parent's share (0), one in a
    # child's (1), and 5, 6 and 7, where under 2 shares a child's 5 precedes
    # the parent's 6 and under 3 shares 5 is in share 2, read after share
    # 1's 7. Each run gives the serial exit code, stdout and stderr, so the
    # first edge's error wins; and every forked pid has been reaped.
    g = petersen()
    bad = [g.edges()[i] for i in faulty]
    exact = curvature.edge_record

    def faulty_record(g, x, y):
        if (x, y) in bad:
            raise curvature.ConsistencyError(f"fault injected at ({x},{y})")
        return exact(g, x, y)

    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(curvature, "edge_record", faulty_record)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    graph_file = tmp_path / "p.g6"
    graph_file.write_text(write_graph6(g))
    runs = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("RICCI_THREADS", threads)
        runs[threads] = run_cli(["curvature", str(graph_file)], capsys)
    if bad:
        assert runs["1"] == (2, "", "error: fault injected at ({},{})\n".format(*bad[0]))
    else:
        assert runs["1"][0] == 0 and len(json.loads(runs["1"][1])) == 15
    assert runs["2"] == runs["3"] == runs["1"]
    assert len(pids) == 1 + 2
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("death, status", [("os._exit(3)", "exited with status 3"),
                                           ("os.kill(os.getpid(), 9)", "was killed by signal 9")])
def test_dead_worker_exits_2(tmp_path, death, status):
    # a child that dies before it writes its rows ends the run with exit 2
    # and one error line naming the worker and its status: no traceback and
    # no hang (a multiprocessing pool waits for such a worker forever)
    graph_file = tmp_path / "p.g6"
    graph_file.write_text(write_graph6(petersen()))
    script = ("import os, sys\n"
              "from orckit import cli, curvature\n"
              "parent, exact = os.getpid(), curvature.edge_record\n"
              "def dying(g, x, y):\n"
              f"    if os.getpid() != parent: {death}\n"
              "    return exact(g, x, y)\n"
              "curvature.edge_record = dying\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "sys.exit(cli.main(['curvature', sys.argv[1]]))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(graph_file)], capture_output=True,
                          text=True, env=child_env(RICCI_THREADS="2"), timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: curvature worker 1 {status} before sending its rows\n"


def test_children_flush_no_inherited_stdout(tmp_path):
    # text waiting in the stdout buffer at the fork is written once, by the
    # parent: a child leaves by os._exit without flushing its copy
    graph_file = tmp_path / "p.g6"
    graph_file.write_text(write_graph6(petersen()))
    script = ("import os, sys\n"
              "from orckit import cli\n"
              "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
              "sys.stdout.write('before the fork\\n')\n"
              "sys.exit(cli.main(['curvature', sys.argv[1]]))\n")
    runs = [subprocess.run([sys.executable, "-c", script, str(graph_file)], capture_output=True,
                           text=True, env=child_env(RICCI_THREADS=threads), timeout=30)
            for threads in ("1", "3")]
    assert [(p.returncode, p.stderr) for p in runs] == [(0, "")] * 2
    assert runs[0].stdout.startswith("before the fork\n[") and runs[1].stdout == runs[0].stdout


def test_threads_env_rejects_bad_values(tmp_path, capsys, monkeypatch):
    # only ASCII digits count, as in every other count; int() would read
    # "+2", " 2", "2_0" and a full-width digit, and refuse 5,000 digits
    # with its own message. Each is refused before any fork.
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    graph_file = tmp_path / "k3.g6"
    graph_file.write_text(write_graph6(complete(3)))
    for bad in ("abc", "0", "-2", "1.5", "+2", " 2", "2_0", "\uff12", "9" * 5000):
        monkeypatch.setenv("RICCI_THREADS", bad)
        code, stdout, stderr = run_cli(["curvature", str(graph_file)], capsys)
        assert code == 2 and stdout == ""
        assert stderr == f"error: RICCI_THREADS must be an integer >= 1, got {formats._quoted(bad)}\n"
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


def test_gen_graph6_over_its_body_budget_exits_2(capsys):
    # the 500x500 torus is within the desk-scale limits, but its graph6 body
    # would be 5.2 GB: refused before it is allocated, in one line
    code, stdout, stderr = run_cli(["gen", "--family", "torus", "--n", "500", "--m", "500"],
                                   capsys)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: graph6: n=250000 needs 5208312500 body bytes")
    assert stderr.count("\n") == 1 and stderr.endswith("(--format edgelist)\n"), stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_gen_graph6_holds_at_most_two_bodies(tmp_path):
    # the 150x150 torus's graph6 body is 42,185,625 bytes. The edge-list
    # run of the same graph holds no body, so the graph6 run's peak RSS
    # above it is what its body-sized buffers cost: the writer's buffer and
    # the str decoded from it, about two bodies, where three copies or more
    # would exceed 2.5 bodies. Each peak is the child's, from os.wait4.
    def peak_rss(fmt):
        out = tmp_path / f"t.{fmt}"
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "orckit.cli", "gen",
                                              "--family", "torus", "--n", "150", "--m", "150",
                                              "--format", fmt, "--out", str(out)], child_env())
        _, status, usage = os.wait4(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0, fmt
        return usage.ru_maxrss * 1024, out.stat().st_size

    body = 150 * 150 * (150 * 150 - 1) // 12
    graph6_peak, size = peak_rss("graph6")
    edgelist_peak, _ = peak_rss("edgelist")
    assert size == 4 + body + 1  # '~' and three size bytes, then the body and a newline
    assert graph6_peak - edgelist_peak < 2.5 * body, (graph6_peak, edgelist_peak)


def test_read_graph6_holds_at_most_two_bodies(tmp_path):
    # the 100x100 torus's graph6 body is 8,332,500 bytes. read_graph holds
    # the file's bytes and, until the edge count is checked, the count of
    # each byte's set bits: two bodies, and less once the edges are built.
    # A decoded or stripped copy would add a third. Each peak is a child's,
    # from os.wait4, against a child that only imports the CLI.
    path = tmp_path / "t.g6"
    path.write_text(write_graph6(torus_grid(100, 100)) + "\n")

    def peak_rss(code):
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code, str(path)], child_env())
        _, status, usage = os.wait4(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0, code
        return usage.ru_maxrss * 1024

    body = 10_000 * 9_999 // 12
    read = peak_rss("import sys, orckit.cli; orckit.cli.read_graph(sys.argv[1])")
    imported = peak_rss("import sys, orckit.cli")
    assert read - imported < 2.5 * body, (read, imported)


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


def test_claims_table_names_every_suite():
    # the README's ledger of the paper's claims names each verify suite in
    # its suite column, and no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## The paper's claims", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| claim |")]
    assert len(rows) == 8
    assert {name for row in rows for name in re.findall(r"`([^`]+)`", row[2])} == set(cli._SUITES)
