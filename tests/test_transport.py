import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest

import orckit
from orckit import transport
from orckit.families import complete, cycle, path, petersen
from orckit.graphs import Graph
from orckit.transport import (ConsistencyError, _hungarian, _transport_cost, assignment_cost,
                              mu_alpha, optimal_pair_support, validate_measure, wasserstein1)

from helpers import (brute_assignment_optimum, brute_optimal_permutations, brute_transport_cost,
                     brute_wasserstein1, child_env, forced_cost, random_connected_graph,
                     random_token_measure)


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


def test_wasserstein_basics():
    g = cycle(5)
    mu = mu_alpha(g, 0, F(1, 3))
    assert wasserstein1(g, mu, mu) == 0
    assert wasserstein1(g, {0: F(1)}, {2: F(1)}) == 2
    assert wasserstein1(g, mu_alpha(g, 0, 0), mu_alpha(g, 1, 0)) == 1


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
    # the optimum 0 -> 1, 1 -> 0 needs the first greedy unit sent back
    assert _transport_cost([1, 1], [1, 1], [[1, 2], [1, 9]]) == 3
    assert _transport_cost([2, 1], [1, 2], [[1, None], [None, 1]]) is None
    assert _transport_cost([3], [1, 2], [[1, 2]]) == 5


def test_transport_cost_raises_on_a_negative_cycle():
    # Liar's __eq__ always holds, so the greedy fill also takes the cost-3
    # cell: the start is not min-cost and the residual table has a negative
    # cycle, which Bellman-Ford would relax forever. A child process with a
    # timeout turns such a hang into a failure instead of a stuck suite.
    code = textwrap.dedent("""
        from orckit.transport import ConsistencyError, _transport_cost
        class Liar(int):
            def __eq__(self, other):
                return True
        try:
            _transport_cost([3, 1, 2], [2, 4], [[Liar(3), 2], [1, 1], [1, 3]])
        except ConsistencyError as exc:
            print("raised:", exc)
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=child_env())
    assert proc.returncode == 0 and proc.stdout.startswith("raised:"), proc.stderr
    assert "negative cycle" in proc.stdout


def test_transport_memo_solves_each_instance_once(monkeypatch):
    # the memo keys on the exact instance, keeps None results, stores
    # nothing for a solve that raises, and never grows past its bound
    solves = []
    exact = transport._solve
    monkeypatch.setattr(transport, "_solve", lambda *key: solves.append(key) or exact(*key))
    transport._solve_memo.cache_clear()
    for _ in range(2):
        assert _transport_cost([1, 1], [1, 1], [[1, 2], [1, 9]]) == 3
        assert _transport_cost((1, 1), (1, 1), ((1, 2), (1, 9))) == 3
        assert _transport_cost([2, 1], [1, 2], [[1, None], [None, 1]]) is None
    assert _transport_cost([1, 1], [1, 1], [[1, 2], [1, 8]]) == 3
    assert len(solves) == 3
    assert transport._solve_memo.cache_info().currsize == 3

    def broken(*key):
        raise ConsistencyError("solver fault")

    monkeypatch.setattr(transport, "_solve", broken)
    for _ in range(2):
        with pytest.raises(ConsistencyError, match="solver fault"):
            _transport_cost([5], [5], [[2]])
    assert transport._solve_memo.cache_info().currsize == 3

    monkeypatch.setattr(transport, "_solve", exact)
    for k in range(transport._MEMO_SIZE + 100):
        assert _transport_cost([k + 1], [k + 1], [[1]]) == k + 1
    assert transport._solve_memo.cache_info().currsize == transport._MEMO_SIZE
    transport._solve_memo.cache_clear()


def test_public_api():
    assert [name for name in orckit.__all__ if not hasattr(orckit, name)] == []
    for gone in ("Assignment", "min_cost_assignment", "forced_assignment_cost",
                 "wasserstein1_oracle"):
        assert not hasattr(orckit, gone) and not hasattr(transport, gone), gone
    assert orckit.ConsistencyError is orckit.curvature.ConsistencyError is transport.ConsistencyError


def _split(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _greedy_start(supply, demand, cost):
    """The solver's starting flow: every cell at the table's least entry
    filled in row-major order. Returns its cost and what it leaves of the
    supply and the demand."""
    supply, demand = list(supply), list(demand)
    least = min((c for row in cost for c in row if c is not None), default=0)
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
    # through a backward arc. None entries make some instances infeasible.
    rng = random.Random(53)
    undone = infeasible = 0
    for kind, entries in (("least-zero", [None, 0, 1, 2, 3, 4]),
                          ("no-entry-below-2", [None, 2, 3, 4, 5]),
                          ("greedy-undone", [None, 1, 1, 2, 3, 9])):
        for _ in range(300):
            total = rng.randint(1, 7)
            supply = _split(rng, total, rng.randint(1, min(4, total)))
            demand = _split(rng, total, rng.randint(1, min(4, total)))
            cost = [[rng.choice(entries) for _ in demand] for _ in supply]
            if kind == "least-zero":
                cost[rng.randrange(len(supply))][rng.randrange(len(demand))] = 0
            expected = brute_transport_cost(supply, demand, cost)
            assert _transport_cost(supply, demand, cost) == expected, (kind, supply, demand, cost)
            infeasible += expected is None
            if kind == "greedy-undone" and expected is not None:
                filled, rest_supply, rest_demand = _greedy_start(supply, demand, cost)
                rest = brute_transport_cost(rest_supply, rest_demand, cost)
                undone += rest is None or filled + rest > expected
    assert undone >= 20 and infeasible >= 20, (undone, infeasible)


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
        assert _transport_cost(supply, demand, cost) == round(lp.fun), (supply, demand, cost)


def test_assignment_examples():
    assert assignment_cost([]) == 0
    assert assignment_cost([[1, 2], [2, 1]]) == 2
    assert optimal_pair_support([[1, 2], [2, 1]]) == {(0, 0), (1, 1)}
    ones = [[1] * 3 for _ in range(3)]
    assert optimal_pair_support(ones) == {(i, j) for i in range(3) for j in range(3)}


def test_assignment_validation():
    with pytest.raises(ValueError):
        assignment_cost([[1, 2]])
    with pytest.raises(ValueError):
        assignment_cost([[1, -2], [1, 1]])


def test_assignment_against_brute_force():
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randint(0, 5)
        cost = [[rng.randint(1, 3) for _ in range(k)] for _ in range(k)]
        assert assignment_cost(cost) == brute_assignment_optimum(cost)
        optimal = brute_optimal_permutations(cost)
        assert optimal_pair_support(cost) == {(i, p[i]) for p in optimal for i in range(k)}


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
        assert assignment_cost(shuffled) == assignment_cost(cost)


def test_forced_cost_definition():
    rng = random.Random(9)
    for _ in range(50):
        k = rng.randint(1, 4)
        cost = [[rng.randint(1, 3) for _ in range(k)] for _ in range(k)]
        best = assignment_cost(cost)
        support = optimal_pair_support(cost)
        for i in range(k):
            for j in range(k):
                forced = forced_cost(cost, i, j)
                assert forced >= best
                assert ((i, j) in support) == (forced == best)


def test_support_matches_forced_resolves():
    # the definition: (i, j) is in the support iff forcing i -> j and
    # re-solving the minor still reaches the unforced optimum
    rng = random.Random(41)
    for _ in range(300):
        k = rng.randint(0, 8)
        cost = [[rng.randint(0, 20) for _ in range(k)] for _ in range(k)]
        best = assignment_cost(cost)
        expected = {(i, j) for i in range(k) for j in range(k)
                    if forced_cost(cost, i, j) == best}
        assert optimal_pair_support(cost) == expected, cost


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
