"""Workload definitions for the orckit benchmark: the inputs each seed
gives, the command line each workload runs, the child processes that run
it, and the check of its output against the golden record
(bench/golden.json).

Profile workloads relabel a fixed graph by a permutation drawn from the
seed. Curvature is invariant under relabelling, so mapping the output rows
back through the permutation must reproduce the golden bytes exactly.
Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def torus_edges(n: int, m: int) -> tuple[int, list[tuple[int, int]]]:
    """Edges of the n x m torus with vertex (i, j) -> i*m + j, the labelling
    of orckit's torus_grid."""
    edges = []
    for i in range(n):
        for j in range(m):
            v = i * m + j
            edges.append((v, ((i + 1) % n) * m + j))
            edges.append((v, i * m + (j + 1) % m))
    return n * m, edges


def bipartite_edges(m: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Edges of K_{m,n} labelled as orckit's complete_bipartite."""
    return m + n, [(i, m + j) for i in range(m) for j in range(n)]


def encode_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 encoding written independently of orckit.formats, so the
    benchmark input does not depend on the code under test."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    adjacent = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adjacent else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return head + body


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]       # orckit.cli arguments; "{input}" and "{seed}" are filled in
    threads: int                # RICCI_THREADS, always set explicitly
    setup_code: str             # body of the set-up child (argv[1] is "{input}" or "{seed}")
    graph: Optional[Callable[[], tuple[int, list[tuple[int, int]]]]] = None


_PROFILE_SETUP = "import sys, orckit.cli; orckit.cli.read_graph(sys.argv[1])"

WORKLOADS = {w.name: w for w in (
    Workload("torus-profile", ("curvature", "{input}"), 1, _PROFILE_SETUP,
             graph=lambda: torus_edges(30, 30)),
    Workload("bipartite-profile-2w", ("curvature", "{input}"), 2, _PROFILE_SETUP,
             graph=lambda: bipartite_edges(14, 14)),
    Workload("main-theorem-6", ("verify", "--suite", "main-theorem", "--nmax", "6"), 1,
             "import orckit.cli"),
    Workload("edge-properties", ("verify", "--suite", "edge-properties", "--seed", "{seed}"), 1,
             "import sys, orckit.cli, orckit.verify; orckit.verify.default_corpus(int(sys.argv[1]))"),
)}


class OutputError(Exception):
    """A child's output differs from the recorded golden output."""


@dataclass
class Instance:
    """The inputs one run of a workload gets from its seed."""

    workload: Workload
    seed: int
    input_path: Optional[Path]
    perm: Optional[list[int]]   # vertex relabelling applied to the canonical graph

    @classmethod
    def build(cls, workload: Workload, seed: int, canonical: bool = False) -> "Instance":
        if workload.graph is None:
            return cls(workload, seed, None, None)
        n, edges = workload.graph()
        perm = list(range(n))
        if not canonical:
            random.Random(f"orckit-bench|{workload.name}|{seed}").shuffle(perm)
        WORK.mkdir(exist_ok=True)
        path = WORK / f"{workload.name}-{'canonical' if canonical else seed}.g6"
        path.write_text(encode_graph6(n, [(perm[u], perm[v]) for u, v in edges]) + "\n",
                        encoding="ascii")
        return cls(workload, seed, path, perm)

    def fill(self, arg: str) -> str:
        return arg.format(input=self.input_path, seed=self.seed)

    def cli_args(self) -> list[str]:
        return [self.fill(a) for a in self.workload.argv]

    def child_argv(self) -> list[str]:
        return ["-m", "orckit.cli", *self.cli_args()]

    def setup_argv(self) -> list[str]:
        arg = "{input}" if self.input_path is not None else "{seed}"
        return ["-c", self.workload.setup_code, self.fill(arg)]

    def canonical_output(self, raw: bytes) -> bytes:
        """Profile output mapped back to the canonical labelling, so that
        its digest can be compared with the golden one for every seed."""
        if self.perm is None:
            return raw
        rows = json.loads(raw)
        if raw != (json.dumps(rows, indent=2) + "\n").encode("ascii"):
            raise OutputError("output is not in the CLI's JSON layout")
        keys = [(r["u"], r["v"]) for r in rows]
        if keys != sorted(keys) or any(u >= v for u, v in keys):
            raise OutputError("rows are not in sorted edge order")
        inverse = [0] * len(self.perm)
        for old, new in enumerate(self.perm):
            inverse[new] = old
        for r in rows:
            u, v = inverse[r["u"]], inverse[r["v"]]
            if u > v:
                u, v, r["du"], r["dv"] = v, u, r["dv"], r["du"]
            r["u"], r["v"] = u, v
        rows.sort(key=lambda r: (r["u"], r["v"]))
        return (json.dumps(rows, indent=2) + "\n").encode("ascii")

    def check(self, rc: int, raw: bytes, golden: dict) -> int:
        """Raise OutputError unless the output matches the golden record;
        return the number of items (edges or graphs) the output covers."""
        if rc != golden["exit_code"]:
            raise OutputError(f"exit code {rc}, expected {golden['exit_code']}")
        digest = hashlib.sha256(self.canonical_output(raw)).hexdigest()
        if digest != golden["sha256"]:
            raise OutputError(f"stdout sha256 {digest[:16]}... differs from golden")
        if "instances" in golden:
            (report,) = json.loads(raw)
            if report["passed"] is not True or report["instances"] != golden["instances"]:
                raise OutputError(f"report passed={report['passed']} "
                                  f"instances={report['instances']}")
        return golden["items"]


def child_env(threads: int) -> dict[str, str]:
    """Everything a child sees: an inherited RICCI_THREADS or PYTHONPATH
    cannot change which code runs or whether the pool is used."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(SRC),
            "RICCI_THREADS": str(threads), "PYTHONHASHSEED": "0"}


@dataclass
class ChildResult:
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Child:
    """A running `python <argv>` child in its own process group, with its
    stdout and stderr going to files under WORK."""

    def __init__(self, argv: list[str], threads: int, tag: str = "child") -> None:
        WORK.mkdir(exist_ok=True)
        self.out_path, self.err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                       (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            self.t0 = time.perf_counter()
            self.pid = os.posix_spawn(sys.executable, [sys.executable, *argv],
                                      child_env(threads), file_actions=actions, setpgroup=0)

    def reap(self, timeout: float) -> ChildResult:
        """Wait for the child (killing its group after `timeout` seconds) and
        reap it with os.wait4, whose rusage covers the child and the workers
        it waited for."""
        pidfd = os.pidfd_open(self.pid)
        try:
            if not select.select([pidfd], [], [], max(timeout, 1.0))[0]:
                os.killpg(self.pid, signal.SIGKILL)
            _, status, usage = os.wait4(self.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - self.t0
        try:  # leftovers of the group (none unless a pool worker was orphaned)
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        return ChildResult(os.waitstatus_to_exitcode(status), self.out_path.read_bytes(),
                           self.err_path.read_bytes(), wall, usage.ru_utime + usage.ru_stime,
                           usage.ru_maxrss / 1024)


def run_child(argv: list[str], threads: int, timeout: float) -> ChildResult:
    return Child(argv, threads).reap(timeout)
