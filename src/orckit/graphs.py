"""Immutable finite simple graphs and their metric queries.

Vertices are dense integer indices 0..n-1; any external labelling belongs
to the I/O layer. The BFS distances from a vertex (distances_from), the
diameter and connectivity are derived from breadth-first search. Values
that would be infinite (no path) are reported as the INFINITY sentinel.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

INFINITY = float("inf")  # sentinel only; never enters exact arithmetic


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Construction validates and normalizes the edge set (no self-loops,
    set semantics, symmetric adjacency). Instances are value objects:
    every query afterwards is pure, so graphs may be shared freely
    between concurrent workers.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)

    @classmethod
    def _from_adjacency(cls, adj: tuple[tuple[int, ...], ...]) -> "Graph":
        """The graph whose adjacency is `adj`, taken as it is: none of the
        checks of __init__ run. Precondition: adj[u] is sorted ascending,
        loop-free (u not in adj[u]) and in range (every entry in 0..n-1,
        n = len(adj)), and symmetric (v in adj[u] exactly when u in
        adj[v]). Only families.enumerate_graphs calls it, on adjacency it
        read off its own edge masks."""
        g = object.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        return g

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def distances_from(g: Graph, source: int) -> list:
    """BFS hop distances from source to every vertex; vertices with no
    path from source get INFINITY."""
    g.check_vertex(source)
    dist: list = [INFINITY] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adj[u]:
            if dist[w] is INFINITY:
                dist[w] = du + 1
                queue.append(w)
    return dist


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("min_degree undefined on the empty vertex set")
    return min(len(a) for a in g.adj)


def is_regular(g: Graph) -> Optional[int]:
    """The common degree d if every vertex has degree d, else None."""
    if g.n == 0:
        return None
    degs = {len(a) for a in g.adj}
    return degs.pop() if len(degs) == 1 else None


def diameter(g: Graph):
    """Maximum pairwise distance; INFINITY when disconnected."""
    if g.n <= 1:
        return 0
    best = 0
    for v in range(g.n):
        dist = distances_from(g, v)
        far = max(dist)
        if far is INFINITY:
            return INFINITY
        if far > best:
            best = far
    return best


# desk-scale bounds on graphs built from families, products or input files;
# the edge bound leaves room for a 4-regular graph at the vertex bound
VERTEX_LIMIT = 2_000_000
EDGE_LIMIT = 2 * VERTEX_LIMIT


def check_size(label: str, n: int, m: int) -> None:
    """Refuse a graph of n vertices and m edges beyond the desk-scale
    limits; callers pass closed-form counts before building anything."""
    if n > VERTEX_LIMIT:
        raise ValueError(f"{label}: {n} vertices exceed the desk-scale limit of {VERTEX_LIMIT}")
    if m > EDGE_LIMIT:
        raise ValueError(f"{label}: {m} edges exceed the desk-scale limit of {EDGE_LIMIT}")


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: (x1,y1) ~ (x2,y2) iff equal in one coordinate and
    adjacent in the other. Vertex (x, y) maps to index x*h.n + y."""
    if g.n == 0 or h.n == 0:
        raise ValueError("cartesian_product requires non-empty factors")
    check_size("product", g.n * h.n, g.n * h.edge_count + g.edge_count * h.n)
    edges = []
    for x in range(g.n):
        base = x * h.n
        for y1, y2 in h.edges():
            edges.append((base + y1, base + y2))
    for x1, x2 in g.edges():
        for y in range(h.n):
            edges.append((x1 * h.n + y, x2 * h.n + y))
    return Graph(g.n * h.n, edges)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return all(d is not INFINITY for d in distances_from(g, 0))
