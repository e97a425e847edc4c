#!/usr/bin/env python3
"""Checked-in benchmark for orckit: end-to-end and per-module metrics.

Run from the repository root:

    python3 bench/run.py --workload torus-profile --seed 1 --seconds 15 --trace 0

With --trace 0 the workload runs as child `python -m orckit.cli ...`
processes, one at a time (a closed loop with one request in flight), for
--seconds seconds. Each child's stdout is checked against the digests in
bench/golden.json, and each child's wall time, CPU time and peak RSS come
from os.wait4. Set-up time is measured by its own children, interleaved
with the workload runs. With --trace 1 the workload runs in-process with
the public functions of every orckit module wrapped (bench/tracer.py),
giving per-module counts and self-times; that is a fixed amount of work,
so --seconds does not apply to it.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it records the environment (Python,
cores, CPU model, git SHA, load average) and the per-metric quartiles with
their sample counts.

`python3 bench/run.py --record-golden` re-records bench/golden.json from
the code in src/. Do that only on a commit whose outputs are known good:
the digests are the correctness gate for every later run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

from harness import ROOT, SRC, WORKLOADS, Instance, OutputError, run_child

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# The whole run must end within 180 s; children are killed after this.
RUN_DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 5


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def calibration_s() -> float:
    """Time of a fixed 10M-add loop: machine speed at the time of the run,
    since co-tenant load can shift it by tens of percent within minutes."""
    t0 = time.perf_counter()
    total = 0
    for i in range(10_000_000):
        total += i
    return time.perf_counter() - t0


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "git_sha": git_sha(), "loadavg": list(os.getloadavg()),
            "calib_10m_add_s": [calibration_s()]}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(inst: Instance, golden: dict, seconds: float, started: float) -> dict:
    """Closed loop: set-up child, workload child, repeated until `seconds`
    have passed (at least one workload run; a run that would end after
    1.5 * seconds is not started), then set-up children until there are
    MIN_SETUP_SAMPLES of them."""
    w = inst.workload
    run_child(inst.setup_argv(), w.threads, 60)  # warm-up: writes the .pyc files
    samples: dict[str, list[float]] = {k: [] for k in
                                       ("wall_s", "items_per_s", "cpu_s", "peak_rss_mb", "setup_s")}
    attempted = failed = 0
    errors = []
    loop_start = time.perf_counter()

    def left() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    last = 0.0

    def another() -> bool:
        elapsed = time.perf_counter() - loop_start
        return attempted == 0 or (elapsed < seconds and elapsed + last < 1.5 * seconds
                                  and left() > last)

    while another():
        setup = run_child(inst.setup_argv(), w.threads, left())
        if setup.rc == 0:
            samples["setup_s"].append(setup.wall_s)
        else:
            errors.append(f"set-up child exited {setup.rc}")
        attempted += 1
        res = run_child(inst.child_argv(), w.threads, left())
        last = res.wall_s
        try:
            items = inst.check(res.rc, res.stdout, golden)
        except (OutputError, ValueError, KeyError, TypeError) as exc:
            failed += 1
            errors.append(f"{exc}; stderr tail: {res.stderr[-300:].decode(errors='replace')}")
            continue
        samples["wall_s"].append(res.wall_s)
        samples["items_per_s"].append(items / res.wall_s)
        samples["cpu_s"].append(res.cpu_s)
        samples["peak_rss_mb"].append(res.peak_rss_mb)
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES and left() > 10:
        setup = run_child(inst.setup_argv(), w.threads, left())
        if setup.rc != 0:
            errors.append(f"set-up child exited {setup.rc}")
            break
        samples["setup_s"].append(setup.wall_s)
    return {"attempted": attempted, "failed": failed, "errors": errors, "samples": samples}


UNITS = {"wall_s": "s", "items_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def run_end_to_end(inst: Instance, golden: dict, seconds: float, started: float) -> tuple[dict, dict]:
    m = measure(inst, golden, seconds, started)
    stats = {k: quartiles(v) for k, v in m["samples"].items() if v}
    detail = {"samples": stats, "failed_frac": m["failed"] / m["attempted"], "errors": m["errors"]}
    result = {"correct": m["failed"] == 0 and len(stats) == len(UNITS),
              "attempted": m["attempted"], "failed": m["failed"],
              "metrics": {k: {"value": s["median"], "unit": UNITS[k]} for k, s in stats.items()}}
    return result, detail


def record_golden() -> None:
    """Record each workload's canonical output digest from serial runs; a
    multi-worker workload must give the same bytes under its own setting."""
    golden = {}
    for w in WORKLOADS.values():
        inst = Instance.build(w, 2024, canonical=True)
        serial = run_child(inst.child_argv(), 1, 600)
        entry = {"exit_code": serial.rc, "sha256": hashlib.sha256(serial.stdout).hexdigest()}
        if w.graph is not None:
            entry["items"] = len(json.loads(serial.stdout))
        else:
            (report,) = json.loads(serial.stdout)
            entry["items"] = entry["instances"] = report["instances"]
        if w.threads > 1:
            pooled = run_child(inst.child_argv(), w.threads, 600)
            if pooled.stdout != serial.stdout or pooled.rc != serial.rc:
                raise SystemExit(f"{w.name}: {w.threads}-worker output differs from serial output")
        golden[w.name] = entry
        print(w.name, entry, file=sys.stderr)
    golden["recorded_at"] = git_sha()
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="ascii")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "orckit" / "__init__.py").is_file():
        print(f"error: no orckit sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))[args.workload]
    env = environment()
    inst = Instance.build(WORKLOADS[args.workload], args.seed)
    if args.trace:
        import tracer

        result, detail = tracer.run_traced(inst, golden, started + RUN_DEADLINE_S)
    else:
        result, detail = run_end_to_end(inst, golden, args.seconds, started)
    env["calib_10m_add_s"].append(calibration_s())  # at start and at end
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": env, **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
