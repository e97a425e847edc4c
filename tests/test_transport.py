import ast
import pathlib
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest

import orckit
from orckit import graphs, transport
from orckit.families import complete, complete_bipartite, cycle, path, petersen, torus_grid
from orckit.graphs import Graph
from orckit.transport import (ConsistencyError, _certify_assignment, _hungarian, _supsup,
                              _transport_cost)

from helpers import (brute_assignment_optimum, brute_optimal_permutations, brute_transport_cost,
                     brute_wasserstein1, child_env, disjoint_union, forced_cost, mu_alpha,
                     random_connected_graph, random_token_measure, validate_measure,
                     wasserstein1)


def test_mu_alpha_examples():
    g = complete(3)
    assert mu_alpha(g, 0, 1) == {0: F(1)}
    assert mu_alpha(g, 0, 0) == {1: F(1, 2), 2: F(1, 2)}
    c4 = cycle(4)
    assert mu_alpha(c4, 0, F(1, 3)) == {0: F(1, 3), 1: F(1, 3), 3: F(1, 3)}


def test_mu_alpha_errors():
    g = Graph(2, [(0, 1)])
    isolated = Graph(2)
    with pytest.raises(ValueError):
        mu_alpha(g, 0, F(3, 2))
    with pytest.raises(ValueError):
        mu_alpha(g, 0, -1)
    with pytest.raises(ValueError):
        mu_alpha(isolated, 0, F(1, 2))
    assert mu_alpha(isolated, 0, 1) == {0: F(1)}  # point mass is fine


def test_measure_validation():
    g = path(3)
    with pytest.raises(ValueError):
        validate_measure(g, {})
    with pytest.raises(ValueError):
        validate_measure(g, {0: F(1, 2)})
    with pytest.raises(ValueError):
        validate_measure(g, {0: F(1, 2), 1: F(-1, 2), 2: F(1)})
    with pytest.raises(ValueError):
        wasserstein1(g, {0: F(1, 2)}, {0: F(1)})
    # masses are ints or Fractions: a float is refused, naming its vertex
    validate_measure(g, {1: 1})
    with pytest.raises(ValueError, match="vertex 1"):
        validate_measure(g, {0: F(1, 2), 1: 0.5})
    with pytest.raises(ValueError, match="vertex 2 is not an int or a Fraction"):
        wasserstein1(g, {0: F(1, 2), 1: F(1, 2)}, {2: 1.0})


def test_wasserstein_basics():
    g = cycle(5)
    mu = mu_alpha(g, 0, F(1, 3))
    assert wasserstein1(g, mu, mu) == 0
    assert wasserstein1(g, {0: F(1)}, {2: F(1)}) == 2
    assert wasserstein1(g, mu_alpha(g, 0, 0), mu_alpha(g, 1, 0)) == 1


def test_wasserstein_searches_each_source_once(monkeypatch):
    # one search per source with mass to send, plus one per connected
    # component: 14 + 1 on an edge of K14,14 and 4 + 1 on the 8x8 torus, at
    # idleness 0, and 2 + 2 on two paths
    searches = []
    real = graphs.distances_from
    monkeypatch.setattr(graphs, "distances_from",
                        lambda g, u: searches.append(u) or real(g, u))
    k, torus = complete_bipartite(14, 14), torus_grid(8, 8)
    two_paths = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    for g, mu, nu, value, count in (
            (k, mu_alpha(k, 0, 0), mu_alpha(k, 14, 0), 1, 15),
            (torus, mu_alpha(torus, 0, 0), mu_alpha(torus, 1, 0), 1, 5),
            (two_paths, {0: F(1, 2), 3: F(1, 2)}, {2: F(1, 2), 5: F(1, 2)}, 2, 4)):
        searches.clear()
        assert wasserstein1(g, mu, nu) == value
        assert len(searches) == count


def test_wasserstein_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="reachable"):
        wasserstein1(g, {0: F(1)}, {3: F(1)})
    with pytest.raises(ValueError, match="reachable"):
        brute_wasserstein1(g, {0: F(1)}, {3: F(1)})
    # shared mass on separate components is fine: nothing has to move
    mu = {0: F(1, 2), 2: F(1, 2)}
    assert wasserstein1(g, mu, mu) == 0


def test_oracle_examples():
    c4 = cycle(4)
    assert brute_wasserstein1(c4, mu_alpha(c4, 0, 0), mu_alpha(c4, 1, 0)) == 1
    g = path(4)
    assert brute_wasserstein1(g, {0: F(1)}, {3: F(1)}) == 3
    with pytest.raises(ValueError, match="token"):
        brute_wasserstein1(g, {0: F(1, 16), 1: F(15, 16)}, {0: F(1)})


def test_wasserstein_matches_oracle_on_random_instances():
    rng = random.Random(17)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 8))
        tokens = rng.randint(1, 8)
        mu = random_token_measure(rng, g, tokens)
        nu = random_token_measure(rng, g, tokens)
        expected = brute_wasserstein1(g, mu, nu)
        assert wasserstein1(g, mu, nu) == expected
    # disjoint unions of 2-3 connected graphs: the moving mass of each
    # component must balance within it, or the distance is infinite. Half
    # the nu move each mass of mu within its component, so they balance.
    spanning = refused = 0
    for _ in range(300):
        g, part = disjoint_union([random_connected_graph(rng, rng.randint(1, 4))
                                  for _ in range(rng.randint(2, 3))])
        tokens = rng.randint(1, 8)
        mu, nu = (random_token_measure(rng, g, tokens) for _ in range(2))
        if rng.random() < 0.5:
            nu = {}
            for v, m in mu.items():
                w = rng.choice([w for w in range(g.n) if part[w] == part[v]])
                nu[w] = nu.get(w, 0) + m
        try:
            expected = brute_wasserstein1(g, mu, nu)
        except ValueError as exc:
            assert "reachable" in str(exc)
            with pytest.raises(ValueError, match="reachable"):
                wasserstein1(g, mu, nu)
            refused += 1
            continue
        assert wasserstein1(g, mu, nu) == expected, (g.edges(), mu, nu)
        moving = {part[v] for v in set(mu) | set(nu) if mu.get(v, 0) != nu.get(v, 0)}
        spanning += len(moving) >= 2
    assert spanning >= 20 and refused >= 50, (spanning, refused)


def test_wasserstein_matches_linprog():
    # scipy's LP over networkx distances shares no code with wasserstein1.
    # Masses are multiples of 1/tokens, up to 30 tokens, beyond the reach of
    # brute_wasserstein1. Scaled by tokens, the LP moves integer units
    # between the whole supports, shared mass included, and none along an
    # unreachable pair, so it is infeasible exactly when W1 is infinite.
    optimize = pytest.importorskip("scipy.optimize")
    nx = pytest.importorskip("networkx")
    rng = random.Random(61)
    finite = refused = 0
    for case in range(150):
        g, _ = disjoint_union([random_connected_graph(rng, rng.randint(1, 6))
                               for _ in range(1 + case % 3)])
        tokens = rng.randint(9, 30)
        mu, nu = (random_token_measure(rng, g, tokens) for _ in range(2))
        graph = nx.Graph(g.edges())
        graph.add_nodes_from(range(g.n))
        dist = {u: nx.shortest_path_length(graph, source=u) for u in mu}
        pairs = [(u, v) for u in mu for v in nu]
        lp = optimize.linprog([dist[u].get(v, 0) for u, v in pairs],
                              A_eq=[[int(a == u) for a, _ in pairs] for u in mu]
                              + [[int(b == v) for _, b in pairs] for v in nu],
                              b_eq=[int(m * tokens) for m in (*mu.values(), *nu.values())],
                              bounds=[(0, None if v in dist[u] else 0) for u, v in pairs],
                              method="highs")
        if lp.status == 2:
            with pytest.raises(ValueError, match="reachable"):
                wasserstein1(g, mu, nu)
            refused += 1
        else:
            assert lp.status == 0 and abs(lp.fun - round(lp.fun)) < 1e-6, lp
            assert wasserstein1(g, mu, nu) == F(round(lp.fun), tokens), (g.edges(), mu, nu)
            finite += 1
    assert finite >= 40 and refused >= 40, (finite, refused)


def test_wasserstein_is_metric_on_walk_measures():
    rng = random.Random(3)
    for g in (petersen(), cycle(7)):
        for _ in range(25):
            a = F(rng.randint(0, 6), 6)
            u, v, w = (rng.randrange(g.n) for _ in range(3))
            mu, nu, rho = (mu_alpha(g, z, a) for z in (u, v, w))
            assert wasserstein1(g, mu, nu) == wasserstein1(g, nu, mu)
            assert wasserstein1(g, mu, rho) <= wasserstein1(g, mu, nu) + wasserstein1(g, nu, rho)
            assert (wasserstein1(g, mu, nu) == 0) == (mu == nu)


def test_transport_cost_pinned_cases():
    # (value, u). The optimum 0 -> 1, 1 -> 0 needs the first greedy unit
    # sent back, and the last round's source distances prove it.
    assert _transport_cost((1, 1), (1, 1), ((1, 2), (1, 9))) == (3, (0, 0))
    assert _transport_cost((3,), (1, 2), ((1, 2),)) == (5, (0,))
    # the greedy fill meets every demand, no round runs: u is 0
    assert _transport_cost((1,), (1,), ((1,),)) == (1, (0,))
    # nothing to move, as on an edge of a complete graph at alpha = 1/n
    assert _transport_cost((), (), ()) == (0, ())


def test_transport_cost_raises_on_a_negative_cycle():
    # Liar's __eq__ always holds, so the greedy fill also takes the cost-3
    # cell: the start is not min-cost and the residual table has a negative
    # cycle, which Bellman-Ford would relax forever. A child process with a
    # timeout turns such a hang into a failure instead of a stuck suite.
    # The solve that raised leaves nothing in the memo.
    code = textwrap.dedent("""
        from orckit.transport import ConsistencyError, _transport_cost
        class Liar(int):
            __hash__ = int.__hash__
            def __eq__(self, other):
                return True
        try:
            _transport_cost((3, 1, 2), (2, 4), ((Liar(3), 2), (1, 1), (1, 3)))
        except ConsistencyError as exc:
            print("raised:", exc)
        print("cached:", _transport_cost.cache_info().currsize)
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=child_env())
    assert proc.returncode == 0 and proc.stdout.startswith("raised:"), proc.stderr
    assert "negative cycle" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "cached: 0"


def test_transport_memo_solves_each_instance_once():
    # the memo keys on the exact instance and never grows past its bound (a solve that raises stores nothing: see
    # test_transport_cost_raises_on_a_negative_cycle)
    _transport_cost.cache_clear()
    for _ in range(2):
        assert _transport_cost((1, 1), (1, 1), ((1, 2), (1, 9)))[0] == 3
        assert _transport_cost((3,), (1, 2), ((1, 2),))[0] == 5
    assert _transport_cost((1, 1), (1, 1), ((1, 2), (1, 8)))[0] == 3
    info = _transport_cost.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 2, 3)

    for k in range(transport._MEMO_SIZE + 100):
        assert _transport_cost((k + 1,), (k + 1,), ((1,),)) == (k + 1, (0,))
    assert _transport_cost.cache_info().currsize == transport._MEMO_SIZE
    _transport_cost.cache_clear()


def test_public_api():
    assert [name for name in orckit.__all__ if not hasattr(orckit, name)] == []
    for gone in ("Assignment", "min_cost_assignment", "forced_assignment_cost",
                 "wasserstein1_oracle", "gap_formula", "curvature_gap", "equality_holds",
                 "_potentials", "_scaled_supplies", "assignment_cost", "optimal_pair_support",
                 "_support", "_check_square", "distance", "sphere", "ball", "common_neighbors",
                 "zero_assignment_instance", "mu_alpha", "validate_measure", "wasserstein1",
                 "girth", "curvature_profile"):
        assert not any(hasattr(m, gone) for m in (orckit, transport, orckit.curvature,
                                                  orckit.graphs)), gone
    assert not hasattr(orckit.graphs.Graph, "neighbors")
    assert orckit.ConsistencyError is orckit.curvature.ConsistencyError is transport.ConsistencyError


def _src_trees():
    """(module name, parsed source) of each module of the package."""
    src = pathlib.Path(orckit.__file__).parent
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(src.glob("*.py"))]


def test_every_public_definition_has_a_caller():
    # some other code of the package names each public top-level function or
    # class; an export alone is no caller, so anything else is a side door
    # that only tests reach
    defined, named = {}, set()
    for module, tree in _src_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = module
        if module != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    unused = {name: module for name, module in defined.items() if name not in named}
    assert unused == {}


def _orckit_imports(tree) -> set[str]:
    """The orckit modules a module imports anywhere in its source, relative
    or absolute: `from . import m`, `from .m import x`, `from orckit import
    m`, `from orckit.m import x` and `import orckit.m` all name m."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "orckit"
                                                 or node.module.startswith("orckit.")):
            parts = (node.module or "").split(".")
            inner = parts[1:] if parts[0] == "orckit" else parts
            found |= {inner[0]} if inner and inner[0] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("orckit.")}
    return found


def test_transport_is_reached_through_curvature_alone():
    # the solvers take integer tables and know nothing of graphs or
    # measures: transport imports no orckit module, and curvature, which
    # poses every instance, is the only module that imports transport
    imports = {name: _orckit_imports(tree) for name, tree in _src_trees()}
    assert imports["transport"] == set()
    assert [name for name, found in imports.items() if "transport" in found] == ["curvature"]
    assert _orckit_imports(ast.parse("from . import a, b\nfrom .c import x\n"
                                     "from orckit import d\nfrom orckit.e import y\n"
                                     "import orckit.f\nimport os\n")) == set("abcdef")


def test_processes_are_handled_in_one_function():
    # cli._fan_out holds every process concern: no other code in src
    # forks, pipes, waits for or kills a process, imports pickle or signal,
    # or reads the worker count or the CPU cap
    calls = {"fork", "pipe", "waitpid", "kill"}
    helpers, modules = {"_worker_count", "_usable_cpus"}, {"pickle", "signal"}
    sites = set()
    for module, tree in _src_trees():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in calls
                        and isinstance(node.value, ast.Name) and node.value.id == "os"
                        or isinstance(node, ast.Name) and node.id in helpers
                        and isinstance(node.ctx, ast.Load)
                        or isinstance(node, ast.Import)
                        and any(a.name in modules for a in node.names)
                        or isinstance(node, ast.ImportFrom) and node.module in modules):
                    sites.add(f"{module}.{getattr(top, 'name', '<module>')}")
    assert sites == {"cli._fan_out"}


def test_every_module_level_import_is_read():
    # a stdlib lint: each name a module binds by a top-level import (other
    # than __future__'s) is read as a Name somewhere in that module; the
    # package's __init__ only re-exports, so it is left out
    unread = {}
    for name, tree in _src_trees():
        if name == "__init__":
            continue
        bound = {alias.asname or alias.name.split(".")[0]
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if bound - read:
            unread[name] = sorted(bound - read)
    assert unread == {}


def test_src_holds_no_floats():
    # the promise that no float enters orckit's arithmetic, as far as the
    # source can show it: no float literal, no float(...) call and no math
    # function but lcm and isqrt, except at the sites named here (a
    # sentinel, a wall-clock time and an order-of-magnitude work estimate),
    # each of which must still be there
    allowed = {"graphs.INFINITY", "verify.VerificationReport.elapsed",
               "families.random_regular"}
    sites = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            scope = (*scope, *(t.id for t in targets if isinstance(t, ast.Name)))
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "math" and node.attr not in ("lcm", "isqrt")
                or isinstance(node, ast.ImportFrom) and node.module == "math"
                and any(a.name not in ("lcm", "isqrt") for a in node.names)):
            sites.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for module, tree in _src_trees():
        visit(tree, (module,))
    assert sites == allowed


def _split(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _greedy_start(supply, demand, cost):
    """The solver's starting flow: every cell at the table's least entry
    filled in row-major order. Returns its cost and what it leaves of the
    supply and the demand."""
    supply, demand = list(supply), list(demand)
    least = min(c for row in cost for c in row)
    filled = 0
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            if c == least:
                push = min(supply[i], demand[j])
                supply[i] -= push
                demand[j] -= push
                filled += push * c
    return filled, supply, demand


def test_transport_cost_matches_token_brute_force():
    # The solver starts from a greedy fill of the table's least-cost cells.
    # Three kinds of table: least entry 0, no entry below 2, and cheap cells
    # that tempt the fill where the optimum must send some of it back
    # through a backward arc. On every instance the returned potentials u,
    # with w[j] = min_i (u[i] + cost[i][j]), must prove the value. That the
    # value is the cost of a feasible flow is checked inside every solve, by
    # transport._certify, which returns that cost as the value.
    rng = random.Random(53)
    undone = 0
    for kind, entries in (("least-zero", [0, 1, 2, 3, 4]),
                          ("no-entry-below-2", [2, 3, 4, 5]),
                          ("greedy-undone", [1, 1, 2, 3, 9])):
        for _ in range(300):
            total = rng.randint(1, 7)
            supply = _split(rng, total, rng.randint(1, min(4, total)))
            demand = _split(rng, total, rng.randint(1, min(4, total)))
            cost = [[rng.choice(entries) for _ in demand] for _ in supply]
            if kind == "least-zero":
                cost[rng.randrange(len(supply))][rng.randrange(len(demand))] = 0
            expected = brute_transport_cost(supply, demand, cost)
            value, u = _transport_cost(tuple(supply), tuple(demand), tuple(map(tuple, cost)))
            assert value == expected, (kind, supply, demand, cost)
            w = [min(ui + row[j] for ui, row in zip(u, cost)) for j in range(len(demand))]
            dual = sum(wj * dj for wj, dj in zip(w, demand)) - sum(
                ui * si for ui, si in zip(u, supply))
            assert dual == value, (supply, demand, cost, u, w)
            if kind == "greedy-undone":
                filled, rest_supply, rest_demand = _greedy_start(supply, demand, cost)
                undone += filled + brute_transport_cost(rest_supply, rest_demand, cost) > expected
    assert undone >= 20, undone


def test_transport_cost_matches_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(59)
    for _ in range(60):
        supply = [rng.randint(1, 10 ** 6) for _ in range(rng.randint(1, 6))]
        demand = _split(rng, sum(supply), rng.randint(1, 6))
        cost = [[rng.randint(1, 3) for _ in demand] for _ in supply]
        ns, nd = len(supply), len(demand)
        rows = [[int(k // nd == i) for k in range(ns * nd)] for i in range(ns)]
        cols = [[int(k % nd == j) for k in range(ns * nd)] for j in range(nd)]
        lp = optimize.linprog([c for row in cost for c in row], A_eq=rows + cols,
                              b_eq=supply + demand, bounds=(0, None), method="highs")
        assert lp.status == 0
        assert _transport_cost(tuple(supply), tuple(demand), tuple(map(tuple, cost)))[0] \
            == round(lp.fun), (supply, demand, cost)


def test_assignment_examples():
    assert _hungarian([])[0] == 0
    assert _supsup([], *_hungarian([])[1:]) is None
    swap = [[1, 2], [2, 1]]
    assert _hungarian(swap)[0] == 2
    assert _supsup(swap, *_hungarian(swap)[1:]) == 1
    ones = [[1] * 3 for _ in range(3)]
    assert _supsup(ones, *_hungarian(ones)[1:]) == 1
    # both assignments cost 6, so every pair is in the support
    even = [[1, 3], [3, 5]]
    assert _hungarian(even)[0] == 6 and _supsup(even, *_hungarian(even)[1:]) == 5
    # both assignments cost 4; the solve matches the 2s, so only the search
    # finds the 3 of the other
    hidden = [[2, 3], [1, 2]]
    assert _hungarian(hidden)[:2] == (4, [0, 1]) and _supsup(hidden, *_hungarian(hidden)[1:]) == 3


def _brute_supsup(cost):
    """The largest cost of a pair that some optimal assignment uses, by enumeration."""
    return max((cost[i][p[i]] for p in brute_optimal_permutations(cost) for i in range(len(cost))),
               default=None)


def test_assignment_against_brute_force():
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(0, 5)
        cost = [[rng.randint(1, 3) for _ in range(k)] for _ in range(k)]
        assert _hungarian(cost)[0] == brute_assignment_optimum(cost)
        assert _supsup(cost, *_hungarian(cost)[1:]) == _brute_supsup(cost)


@pytest.mark.parametrize("top", [3, 9])
def test_warm_start_and_supsup_property(top):
    # the warm start leaves rows to the augmentation on 143 and 145 of these
    # 250 matrices; the optimum, certified potentials and supsup must match
    # full enumeration, at k up to 7 and costs 0..3 (curvature's) or 0..9
    rng = random.Random(top)
    for _ in range(250):
        k = rng.randint(0, 7)
        cost = [[rng.randint(0, top) for _ in range(k)] for _ in range(k)]
        optimum, row_of, u, v = _hungarian(cost)
        assert optimum == brute_assignment_optimum(cost) == sum(u) + sum(v), cost
        assert sorted(row_of) == list(range(k))
        assert all(cost[i][j] >= u[i] + v[j] for i in range(k) for j in range(k))
        assert all(cost[i][j] == u[i] + v[j] for j, i in enumerate(row_of))
        assert _supsup(cost, row_of, u, v) == _brute_supsup(cost), cost


def test_assignment_certificate_names_the_broken_fact():
    cost = [[1, 3], [3, 1]]
    assert _hungarian(cost) == (2, [0, 1], [1, 1], [0, 0])
    for solve, why in (((2, [0, 0], [1, 1], [0, 0]), "row_of [0, 0] is not a permutation"),
                       ((2, [0, 1], [1], [0, 0]), "u has 1 and v 2 entries, not 2"),
                       ((3, [0, 1], [2, 1], [0, 0]), "cell (0, 0) costs less"),
                       ((2, [1, 0], [1, 1], [0, 0]), "matched cell (1, 0) is not tight"),
                       ((1, [0, 1], [0, 1], [0, 0]), "matched cell (0, 0) is not tight"),
                       ((3, [0, 1], [1, 1], [0, 0]), "the potentials' value 2 is not the optimum")):
        with pytest.raises(ConsistencyError, match="^assignment certificate: " + re.escape(why)):
            _certify_assignment(cost, *solve)


def test_assignment_cost_invariant_under_permutation():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(1, 5)
        cost = [[rng.randint(0, 3) for _ in range(k)] for _ in range(k)]
        rows = list(range(k))
        cols = list(range(k))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = [[cost[i][j] for j in cols] for i in rows]
        assert _hungarian(shuffled)[0] == _hungarian(cost)[0]


def test_forced_cost_definition():
    rng = random.Random(9)
    for _ in range(50):
        k = rng.randint(1, 4)
        cost = [[rng.randint(1, 3) for _ in range(k)] for _ in range(k)]
        best = _hungarian(cost)[0]
        used = set()  # the costs of the pairs some optimal assignment uses
        for i in range(k):
            for j in range(k):
                forced = forced_cost(cost, i, j)
                assert forced >= best
                if forced == best:
                    used.add(cost[i][j])
        assert _supsup(cost, *_hungarian(cost)[1:]) == max(used)


def test_support_matches_forced_resolves():
    # the definition: (i, j) is in the support iff forcing i -> j and
    # re-solving the minor still reaches the unforced optimum, and supsup
    # is the largest cost in the support
    rng = random.Random(41)
    for _ in range(300):
        k = rng.randint(0, 8)
        cost = [[rng.randint(0, 20) for _ in range(k)] for _ in range(k)]
        best = _hungarian(cost)[0]
        expected = max((cost[i][j] for i in range(k) for j in range(k)
                        if forced_cost(cost, i, j) == best), default=None)
        assert _supsup(cost, *_hungarian(cost)[1:]) == expected, cost


def test_hungarian_potentials_are_optimal_duals():
    # feasible potentials that are tight on a perfect matching certify it
    # optimal by weak duality, with no second solver involved
    rng = random.Random(43)
    for _ in range(300):
        k = rng.randint(0, 8)
        cost = [[rng.randint(0, 20) for _ in range(k)] for _ in range(k)]
        optimum, row_of, u, v = _hungarian(cost)
        assert sorted(row_of) == list(range(k))
        assert all(cost[i][j] >= u[i] + v[j] for i in range(k) for j in range(k))
        assert all(cost[i][j] == u[i] + v[j] for j, i in enumerate(row_of))
        assert optimum == sum(u) + sum(v) == sum(cost[i][j] for j, i in enumerate(row_of))


def test_assignment_identity_2n1_plus_n2():
    # for costs in {1,2,3}: 2*N1 + N2 = 3k - total, for every assignment
    rng = random.Random(31)
    from itertools import permutations
    for _ in range(50):
        k = rng.randint(1, 5)
        cost = [[rng.randint(1, 3) for _ in range(k)] for _ in range(k)]
        for perm in permutations(range(k)):
            dists = [cost[i][perm[i]] for i in range(k)]
            n1 = dists.count(1)
            n2 = dists.count(2)
            assert 2 * n1 + n2 == 3 * k - sum(dists)
