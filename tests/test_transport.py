import random
from fractions import Fraction as F

import pytest

from orckit.families import complete, cycle, path, petersen
from orckit.graphs import Graph
from orckit.transport import (Assignment, _hungarian, assignment_cost, forced_assignment_cost,
                              min_cost_assignment, mu_alpha, optimal_pair_support,
                              validate_measure, wasserstein1, wasserstein1_oracle)

from helpers import (brute_assignment_optimum, brute_optimal_permutations,
                     random_connected_graph, random_token_measure)


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
        wasserstein1_oracle(g, {0: F(1)}, {3: F(1)})
    # shared mass on separate components is fine: nothing has to move
    mu = {0: F(1, 2), 2: F(1, 2)}
    assert wasserstein1(g, mu, mu) == 0


def test_oracle_examples():
    c4 = cycle(4)
    assert wasserstein1_oracle(c4, mu_alpha(c4, 0, 0), mu_alpha(c4, 1, 0)) == 1
    g = path(4)
    assert wasserstein1_oracle(g, {0: F(1)}, {3: F(1)}) == 3
    with pytest.raises(ValueError, match="token"):
        wasserstein1_oracle(g, {0: F(1, 16), 1: F(15, 16)}, {0: F(1)})


def test_wasserstein_matches_oracle_on_random_instances():
    rng = random.Random(17)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 8))
        tokens = rng.randint(1, 8)
        mu = random_token_measure(rng, g, tokens)
        nu = random_token_measure(rng, g, tokens)
        expected = wasserstein1_oracle(g, mu, nu)
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


def test_assignment_examples():
    assert min_cost_assignment([]) == Assignment((), 0)
    assert min_cost_assignment([[1, 2], [2, 1]]) == Assignment((0, 1), 2)
    assert optimal_pair_support([[1, 2], [2, 1]]) == {(0, 0), (1, 1)}
    ones = [[1] * 3 for _ in range(3)]
    assert optimal_pair_support(ones) == {(i, j) for i in range(3) for j in range(3)}


def test_assignment_validation():
    with pytest.raises(ValueError):
        assignment_cost([[1, 2]])
    with pytest.raises(ValueError):
        assignment_cost([[1, -2], [1, 1]])
    with pytest.raises(ValueError):
        Assignment((0, 0), 2)


def test_assignment_against_brute_force():
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randint(0, 5)
        cost = [[rng.randint(1, 3) for _ in range(k)] for _ in range(k)]
        best = brute_assignment_optimum(cost)
        result = min_cost_assignment(cost)
        assert result.cost == best == assignment_cost(cost)
        optimal = brute_optimal_permutations(cost)
        if optimal:
            assert result.perm == min(optimal)  # lexicographic tie-break
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
                forced = forced_assignment_cost(cost, i, j)
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
                    if forced_assignment_cost(cost, i, j) == best}
        assert optimal_pair_support(cost) == expected, cost


def test_hungarian_potentials_are_optimal_duals():
    # feasible potentials that are tight on a perfect matching certify it
    # optimal by weak duality, with no second solver involved
    rng = random.Random(43)
    for _ in range(300):
        k = rng.randint(0, 8)
        cost = [[rng.randint(0, 20) for _ in range(k)] for _ in range(k)]
        row_of, u, v = _hungarian(cost)
        assert sorted(row_of) == list(range(k))
        assert all(cost[i][j] >= u[i] + v[j] for i in range(k) for j in range(k))
        assert all(cost[i][j] == u[i] + v[j] for j, i in enumerate(row_of))
        assert sum(u) + sum(v) == assignment_cost(cost)


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
