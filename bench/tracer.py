"""Per-module tracing for the orckit benchmark, done from the benchmark's
own files: nothing under src/ is changed.

Tracer wraps every public function of the traced orckit modules, plus
Graph construction, and rebinds the wrapper in every orckit module that
holds the function under any name (transport and curvature import
distances_from by name, verify imports write_graph6 by name, and the
package re-exports most of them). Each call is a span; a span's self time
is its duration minus the time of the traced spans it called. Spans are
aggregated as they close, so memory stays bounded on millions of calls.

run_traced() runs a workload in-process twice, traced; the count metrics
of the two passes must be identical. An untraced child runs alongside the
first pass as the reference for the tracing overhead. A multi-worker
workload also runs after each traced pass under its own worker count,
with only the pickling counters installed. Last, the scaling probe times
edge_record, untraced, on three tori.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import os
import sys
import time
from collections import Counter, defaultdict
from multiprocessing.reduction import ForkingPickler

from harness import SRC, Child, Instance

MODULES = ("graphs", "families", "formats", "transport", "curvature", "verify", "cli")
SCALING_SIDES = (10, 20, 40)    # tori with n = 100, 400, 1600
SCALING_EDGES = 400


def _import_orckit():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import orckit.cli  # noqa: F401  (loads every traced module)

    return {name: sys.modules[f"orckit.{name}"] for name in MODULES}


class Tracer:
    """Call counts and self-times per span name, plus the counters the
    per-layer metrics need."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.child_calls: Counter = Counter()   # (parent span, child span) -> calls
        self.extra: Counter = Counter()
        self.eq_edges: set = set()
        self._graphs: dict = {}                 # keeps graphs alive so id() stays unique
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn, observe=None):
        stack, calls, self_s, child_calls = self._stack, self.calls, self.self_s, self.child_calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, name]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if parent is not None:
                    parent[0] += dur
                    child_calls[parent[1], name] += 1
            if observe is not None:
                t1 = clock()
                observe(args, kwargs, result)
                if parent is not None:  # the caller is not charged for observing
                    parent[0] += clock() - t1
            return result

        @functools.wraps(fn)
        def generator_span(*args, **kwargs):
            # a generator's span is each next(): that is where it does work
            it = fn(*args, **kwargs)
            calls[name] += 1
            while True:
                frame = [0.0, name]
                parent = stack[-1] if stack else None
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = clock() - t0
                    stack.pop()
                    self_s[name] += dur - frame[0]
                    if parent is not None:
                        parent[0] += dur
                yield item

        return generator_span if inspect.isgeneratorfunction(fn) else span

    def _observers(self, modules) -> dict:
        infinity = modules["graphs"].INFINITY
        extra = self.extra

        def distances_from(args, kwargs, result):
            cap = args[2] if len(args) > 2 else kwargs.get("cap")
            extra["distances_from.reached"] += len(result) - result.count(infinity)
            extra["distances_from.uncapped"] += cap is None

        def assignment_cost(args, kwargs, result):
            extra["assignment_cost.k"] += len(args[0])

        def cross_checked(route):
            def observe(args, kwargs, result):
                g, x, y = args[:3]
                if len(g.adj[x]) == len(g.adj[y]):
                    extra[route + ".eq_calls"] += 1
                    self._graphs[id(g)] = g
                    self.eq_edges.add((id(g), min(x, y), max(x, y)))
            return observe

        return {"graphs.distances_from": distances_from,
                "transport.assignment_cost": assignment_cost,
                "curvature.kappa_lly": cross_checked("kappa_lly"),
                "curvature.kappa_zero": cross_checked("kappa_zero")}

    def install(self, modules) -> None:
        observers = self._observers(modules)
        wrappers = {}
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{mod_name}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, observers.get(name))
        for mod in [m for n, m in sys.modules.items() if n == "orckit" or n.startswith("orckit.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        graph_cls = modules["graphs"].Graph
        self._patched.append((graph_cls, "__init__", graph_cls.__init__))
        graph_cls.__init__ = self._wrap("graphs.Graph", graph_cls.__init__)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict:
        return {"calls": dict(self.calls), "child_calls": sorted(self.child_calls.items()),
                "extra": dict(self.extra), "eq_edges": len(self.eq_edges)}


@contextlib.contextmanager
def pickle_counters(graph_cls, counter: Counter):
    """Count Graph pickles and the bytes multiprocessing pickles in this
    process (the tasks sent to pool workers)."""
    plain_dumps = ForkingPickler.__dict__["dumps"]

    def reduce_ex(g, protocol):
        counter["graph_pickles"] += 1
        return object.__reduce_ex__(g, protocol)

    def dumps(cls, obj, protocol=None):
        buf = plain_dumps.__func__(cls, obj, protocol)
        counter["pickled_bytes"] += len(buf)
        return buf

    graph_cls.__reduce_ex__ = reduce_ex
    ForkingPickler.dumps = classmethod(dumps)
    try:
        yield
    finally:
        del graph_cls.__reduce_ex__
        ForkingPickler.dumps = plain_dumps


def run_cli(cli, inst: Instance, golden: dict, threads: int) -> tuple[float, int]:
    """One in-process CLI run with its output checked; returns its CPU time
    in this process and the item count."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("RICCI_THREADS")
    os.environ["RICCI_THREADS"] = str(threads)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.process_time()
            rc = cli.main(inst.cli_args())
            cpu = time.process_time() - t0
    finally:
        if saved is None:
            del os.environ["RICCI_THREADS"]
        else:
            os.environ["RICCI_THREADS"] = saved
    return cpu, inst.check(rc, out.getvalue().encode("ascii"), golden)


def scaling_probe(modules) -> dict:
    """ms per edge_record over the first edges of tori of growing n."""
    families, curvature = modules["families"], modules["curvature"]
    out = {}
    for side in SCALING_SIDES:
        g = families.torus_grid(side, side)
        edges = g.edges()[:SCALING_EDGES]
        t0 = time.perf_counter()
        for x, y in edges:
            curvature.edge_record(g, x, y)
        out[side * side] = (time.perf_counter() - t0) * 1000 / len(edges)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, items: int) -> dict:
    c, s, cc, x = t.calls, t.self_s, t.child_calls, t.extra
    m = {}

    def calls_self(name):
        m[f"{name}.calls"] = (c[name], "count")
        m[f"{name}.self_s"] = (s[name], "s")

    for name in ("graphs.distances_from", "graphs.Graph", "formats.write_graph6",
                 "transport.mu_alpha", "transport.validate_measure", "transport.wasserstein1",
                 "transport.assignment_cost", "transport.optimal_pair_support",
                 "curvature.edge_record", "curvature.assignment_instance",
                 "curvature.idleness_function"):
        calls_self(name)
    bfs = c["graphs.distances_from"]
    m["graphs.distances_from.reached_mean"] = (_ratio(x["distances_from.reached"], bfs), "vertices")
    m["graphs.distances_from.uncapped_frac"] = (_ratio(x["distances_from.uncapped"], bfs), "frac")
    m["families.enumerate_graphs.self_s"] = (s["families.enumerate_graphs"], "s")
    m["formats.parse_graph6.self_s"] = (s["formats.parse_graph6"], "s")
    m["transport.assignment_cost.k_mean"] = (
        _ratio(x["assignment_cost.k"], c["transport.assignment_cost"]), "k")
    m["transport.forced_assignment_cost.calls"] = (c["transport.forced_assignment_cost"], "count")
    m["curvature.kappa_alpha.per_item"] = (_ratio(c["curvature.kappa_alpha"], items), "calls/item")
    m["curvature.idleness_function.probes_mean"] = (
        _ratio(cc["curvature.idleness_function", "curvature.kappa_alpha"],
               c["curvature.idleness_function"]), "probes")
    m["curvature.route_checks.per_eq_edge"] = (
        _ratio(c["curvature.kappa_lly_assignment"] + c["curvature.kappa_zero_assignment"],
               len(t.eq_edges)), "checks/edge")
    for mod in MODULES:
        names = [n for n in c if n.startswith(mod + ".")]
        m[f"{mod}.calls"] = (sum(c[n] for n in names), "count")
        m[f"{mod}.self_s"] = (sum(s[n] for n in names), "s")
    return m


def route_coverage_errors(t: Tracer) -> list[str]:
    """The promise that both routes run: every kappa_lly / kappa_zero call on
    an equal-degree edge must have called its assignment route."""
    errors = []
    for route in ("kappa_lly", "kappa_zero"):
        checked = t.child_calls[f"curvature.{route}", f"curvature.{route}_assignment"]
        if checked != t.extra[route + ".eq_calls"]:
            errors.append(f"{route}: {t.extra[route + '.eq_calls']} equal-degree calls, "
                          f"{checked} assignment-route checks")
    return errors


def run_traced(inst: Instance, golden: dict, deadline: float) -> tuple[dict, dict]:
    """Traced run of one workload; `deadline` is the perf_counter() time by
    which the untraced child must have ended."""
    modules = _import_orckit()
    cli, graph_cls = modules["cli"], modules["graphs"].Graph
    threads = inst.workload.threads
    errors, attempted = [], 0

    def checked(fn, *args):
        nonlocal attempted
        attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing run is reported, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def traced_pass():
        tracer, pool = Tracer(), Counter()
        tracer.install(modules)
        try:
            with pickle_counters(graph_cls, pool):
                run = checked(run_cli, cli, inst, golden, 1)
        finally:
            tracer.uninstall()
        if threads > 1:
            # spans in pool workers die with them, so the multi-worker pass
            # only counts what the parent pickles for the workers
            pool = Counter()
            with pickle_counters(graph_cls, pool):
                checked(run_cli, cli, inst, golden, threads)
        return tracer, pool, run

    # The untraced reference runs as a child alongside the first traced
    # pass, so both see the same machine speed; the second traced pass runs
    # alone and gives the per-layer times. The child is reaped only after
    # the pass, so the overhead compares CPU times (both runs are serial).
    child = Child(inst.child_argv(), 1, tag="untraced")
    t1, pool1, traced = traced_pass()
    untraced = child.reap(deadline - time.perf_counter())
    checked(inst.check, untraced.rc, untraced.stdout, golden)
    t2, pool2, _ = traced_pass()
    attempted += 2
    if (t1.counts(), pool1) != (t2.counts(), pool2):
        errors.append("count metrics differ between two traced passes")
    coverage = route_coverage_errors(t2)
    if coverage:
        errors.append("; ".join(coverage))
    metrics = layer_metrics(t2, golden["items"])
    metrics["cli.pool.graph_pickles"] = (pool2["graph_pickles"], "count")
    metrics["cli.pool.pickled_bytes"] = (pool2["pickled_bytes"], "bytes")
    scaling = scaling_probe(modules)
    for n, ms in scaling.items():
        metrics[f"curvature.edge_ms.n{n}"] = (ms, "ms")
    metrics["curvature.edge_scaling"] = (scaling[1600] / scaling[100], "ratio")
    if traced:
        metrics["trace.overhead_frac"] = (traced[0] / untraced.cpu_s - 1, "frac")
    spans = {n: {"calls": t2.calls[n], "self_s": t2.self_s[n]} for n in sorted(t2.calls)}
    detail = {"untraced_child_cpu_s": untraced.cpu_s, "traced_cpu_s": traced and traced[0],
              "errors": errors, "spans": spans}
    result = {"correct": not errors and "trace.overhead_frac" in metrics,
              "attempted": attempted, "failed": len(errors),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    return result, detail
