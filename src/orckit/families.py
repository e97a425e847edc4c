"""Generators for named graph families, random regular graphs, and
exhaustive enumeration of small labeled graphs. Every parametrized family
checks its closed-form vertex and edge counts against the desk-scale
limits of graphs.check_size before it allocates anything."""

from __future__ import annotations

import math
import random
from itertools import combinations, product
from typing import Iterator

from .graphs import Graph, check_size


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete(n) requires n >= 1")
    check_size(f"complete({n})", n, n * (n - 1) // 2)
    return Graph(n, combinations(range(n), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle(n) requires n >= 3")
    check_size(f"cycle({n})", n, n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path(n) requires n >= 1")
    check_size(f"path({n})", n, n - 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """Hub vertex 0 plus n leaves."""
    if n < 1:
        raise ValueError("star(n) requires n >= 1")
    check_size(f"star({n})", n + 1, n)
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("complete_bipartite(m, n) requires m, n >= 1")
    check_size(f"complete_bipartite({m},{n})", m + n, m * n)
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def hypercube(k: int) -> Graph:
    """k-dimensional cube on the bit strings 0..2^k - 1: v ~ v ^ (1 << b)."""
    if k < 1:
        raise ValueError("hypercube(k) requires k >= 1")
    n = 2 ** min(k, 64)  # 2**64 is past both limits, and 2**k for huge k is slow to build
    check_size(f"hypercube({k})", n, k * n // 2)
    return Graph(n, [(v, v ^ (1 << b)) for v in range(n) for b in range(k) if not v >> b & 1])


def cocktail_party(k: int) -> Graph:
    """2k vertices, (2k-2)-regular: vertex 2i is non-adjacent only to 2i+1."""
    if k < 2:
        raise ValueError("cocktail_party(k) requires k >= 2")
    check_size(f"cocktail_party({k})", 2 * k, 2 * k * (k - 1))
    n = 2 * k
    edges = [(u, v) for u, v in combinations(range(n), 2) if not (u // 2 == v // 2)]
    return Graph(n, edges)


def near_cocktail(n: int) -> Graph:
    """Degree sequence (n-1, n-2, ..., n-2): one dominating vertex, the
    rest paired so each misses exactly its partner. Exists only for odd n."""
    if n < 3 or n % 2 == 0:
        raise ValueError("near_cocktail(n) requires odd n >= 3")
    check_size(f"near_cocktail({n})", n, (n - 1) ** 2 // 2)
    edges = [(0, v) for v in range(1, n)]
    for u, v in combinations(range(1, n), 2):
        if not (u % 2 == 1 and v == u + 1):  # (1,2), (3,4), ... are the missing pairs
            edges.append((u, v))
    return Graph(n, edges)


def petersen() -> Graph:
    """Kneser graph K(5,2): the 2-subsets of a 5-set, adjacent iff disjoint."""
    pairs = list(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = []
    for p, q in combinations(pairs, 2):
        if not (set(p) & set(q)):
            edges.append((index[p], index[q]))
    return Graph(10, edges)


def dodecahedral() -> Graph:
    """Generalized Petersen graph GP(10, 2): outer 10-cycle 0..9, inner
    vertices 10..19 with spokes and step-2 inner cycle."""
    edges = []
    for i in range(10):
        edges.append((i, (i + 1) % 10))
        edges.append((i, 10 + i))
        edges.append((10 + i, 10 + (i + 2) % 10))
    return Graph(20, edges)


# 4-regular polyhedron: 30 vertices, 60 edges, 20 triangular and 12
# pentagonal faces, every edge on exactly one of each. Shipped as a vetted
# constant edge list; the face counts are asserted by the test suite.
_ICOSIDODECAHEDRON_EDGES = (
    (1, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 6), (2, 6), (2, 7), (4, 7),
    (1, 8), (3, 8), (3, 9), (5, 9), (5, 10), (4, 10), (11, 12), (12, 13),
    (11, 14), (14, 16), (13, 15), (15, 17), (16, 18), (18, 19), (17, 20),
    (19, 20), (19, 6), (20, 6), (12, 9), (13, 9), (11, 10), (14, 10),
    (15, 8), (17, 8), (18, 7), (16, 7), (11, 21), (12, 21), (13, 22),
    (15, 22), (22, 23), (23, 24), (21, 23), (21, 24), (24, 25), (25, 16),
    (25, 14), (22, 26), (23, 26), (24, 27), (25, 27), (27, 28), (26, 28),
    (28, 29), (27, 29), (29, 19), (30, 20), (30, 28), (30, 26), (29, 18),
    (30, 17),
)


def icosidodecahedron() -> Graph:
    return Graph(30, [(u - 1, v - 1) for u, v in _ICOSIDODECAHEDRON_EDGES])


def bi_antiprism(n: int) -> Graph:
    """Two concentric n-cycles; outer vertex y_k joins inner x_{k-1} and
    x_{k+1} (indices mod n). 4-regular on 2n vertices."""
    if n < 6:
        raise ValueError("bi_antiprism(n) requires n >= 6")
    check_size(f"bi_antiprism({n})", 2 * n, 4 * n)
    edges = []
    for k in range(n):
        edges.append((k, (k + 1) % n))              # inner cycle
        edges.append((n + k, n + (k + 1) % n))      # outer cycle
        edges.append((n + k, (k - 1) % n))
        edges.append((n + k, (k + 1) % n))
    return Graph(2 * n, edges)


def _wrapped_grid(n: int, m: int, seam: list[tuple[int, int]]) -> Graph:
    """n x m grid with the i-direction closed into a cycle plus the given
    seam edges joining column 0 to column m-1. Vertex (i, j) -> i*m + j."""
    edges = []
    for i in range(n):
        for j in range(m):
            edges.append((i * m + j, ((i + 1) % n) * m + j))
            if j + 1 < m:
                edges.append((i * m + j, i * m + j + 1))
    edges.extend(seam)
    return Graph(n * m, edges)


def twisted_torus(n: int, m: int, l: int) -> Graph:
    """Cyclic n x m grid whose final column wraps back to column 0 with a
    shift of l rows. l = 0 gives the plain torus."""
    if n < 6:
        raise ValueError("twisted_torus requires n >= 6")
    if not (0 <= 2 * l <= n):
        raise ValueError("twisted_torus requires 0 <= l <= n/2")
    if m + l < 6:
        raise ValueError("twisted_torus requires m + l >= 6")
    check_size(f"twisted_torus({n},{m},{l})", n * m, 2 * n * m)
    seam = [(i * m + 0, ((i + l) % n) * m + (m - 1)) for i in range(n)]
    return _wrapped_grid(n, m, seam)


def torus_grid(n: int, m: int) -> Graph:
    """Plain n x m torus (twist 0); isomorphic to C_n box C_m."""
    if n < 6 or m < 6:
        raise ValueError("torus_grid requires n, m >= 6")
    check_size(f"torus_grid({n},{m})", n * m, 2 * n * m)
    return _wrapped_grid(n, m, [(i * m, i * m + m - 1) for i in range(n)])


def klein_bottle(n: int, m: int) -> Graph:
    """Cyclic n x m grid whose final column wraps back reflected."""
    if n < 6 or m < 6:
        raise ValueError("klein_bottle requires n, m >= 6")
    check_size(f"klein_bottle({n},{m})", n * m, 2 * n * m)
    seam = [(i * m + 0, (n - 1 - i) * m + (m - 1)) for i in range(n)]
    return _wrapped_grid(n, m, seam)


# stub placements one call may make, up front in expectation and then in
# fact: a pairing places and checks a stub in 0.15 to 0.2 us on a 2-core
# Xeon under CPython 3.11, so 15 to 20 s
_PAIRING_BUDGET = 10**8


def random_regular(n: int, d: int, seed: int) -> Graph:
    """d-regular simple graph from the pairing model: pair up n*d stubs at
    random and restart on any loop or repeated edge. A pairing conditioned
    on being simple is uniform over the simple labelled d-regular graphs on
    n vertices. Deterministic for a fixed seed. A pairing is simple with
    probability about exp(-(d*d - 1)/4), so the expected work is
    n*d*exp((d*d - 1)/4) stub placements: ValueError before any pairing
    when that exceeds _PAIRING_BUDGET, and once the placements made reach
    it."""
    if d < 0 or d >= n:
        raise ValueError("random_regular requires 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("random_regular requires n*d even")
    check_size(f"random_regular({n},{d})", n, n * d // 2)
    if n * d and math.log(n * d) + (d * d - 1) / 4 > math.log(_PAIRING_BUDGET):
        raise ValueError(f"random_regular({n},{d}): the pairing model's expected work "
                         f"n*d*exp((d*d-1)/4) exceeds {_PAIRING_BUDGET:.0e} stub placements")
    getrandbits = random.Random(seed).getrandbits
    stubs = [v for v in range(n) for _ in range(d)]
    # random.Random(seed).shuffle(stubs) draw for draw: randbelow(i + 1)
    # redraws getrandbits(k) until it is at most i, then swaps
    steps = [(i, (i + 1).bit_length()) for i in range(len(stubs) - 1, 0, -1)]
    for _ in range(0, _PAIRING_BUDGET, max(len(stubs), 1)):  # the placements made so far
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        seen = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                ok = False
                break
            seen.add(key)
        if ok:
            return Graph(n, seen)
    raise ValueError(f"random_regular({n},{d}): the pairing model found no simple pairing "
                     f"in {_PAIRING_BUDGET:.0e} stub placements")


def _mask_connected(n: int, nbr: list[int]) -> bool:
    reach = 1
    while True:
        grown = reach
        rest = reach
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            grown |= nbr[v]
        if grown == reach:
            break
        reach = grown
    return reach == (1 << n) - 1


def _row_masks(n: int, u: int) -> list[int]:
    """Row u of the edge mask, the pairs (u, v) for v = u+1..n-1, as the
    neighbour bitmasks each of its values adds: vertex i's mask sits in bits
    n*i .. n*i+n-1 of one integer, and the rows add disjoint bits."""
    masks = []
    for r in range(1 << n - 1 - u):
        up = [v for v in range(u + 1, n) if r >> v - u - 1 & 1]  # bit i of r is the pair (u, u+1+i)
        masks.append(sum(1 << n * u + v for v in up) + sum(1 << n * v + u for v in up))
    return masks


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled simple graphs on n vertices in ascending
    edge-mask order, optionally filtered to connected ones. Refuses n > 7.

    Bit b of an edge mask is the b-th pair of combinations(range(n), 2), so
    row u's pairs fill one run of bits and a mask is its tuple of row
    values, the last row most significant: the product of the rows' value
    ranges, last row first, is ascending mask order. The neighbour bitmasks
    of a graph are the sum of its rows' entries in _row_masks; the
    connectivity test reads them, and a table of each bitmask's ascending
    bits turns them into the graph's adjacency tuples."""
    if not (1 <= n <= 7):
        raise ValueError("enumerate_graphs supports 1 <= n <= 7")
    full, shifts = (1 << n) - 1, range(0, n * n, n)
    bits_of = [tuple(v for v in range(n) if m >> v & 1) for m in range(1 << n)]
    for rows in product(*(_row_masks(n, u) for u in reversed(range(n - 1)))):
        packed = sum(rows)
        nbr = [packed >> s & full for s in shifts]
        if connected_only and not _mask_connected(n, nbr):
            continue
        yield Graph._from_adjacency(tuple([bits_of[m] for m in nbr]))
