"""Immutable finite simple graphs and their metric queries.

Vertices are dense integer indices 0..n-1; any external labelling belongs
to the I/O layer. Distances, spheres, balls, girth and diameter are all
derived from breadth-first search. Values that would be infinite (no path,
no cycle) are reported as the INFINITY sentinel.
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

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self.adj[v]

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


def distances_from(g: Graph, source: int, cap: Optional[int] = None) -> list:
    """BFS hop distances from source to every vertex.

    Unreached vertices (no path, or beyond the optional cap) get INFINITY.
    The cap bounds traversal depth; curvature instances only ever need
    distances up to 3.
    """
    g.check_vertex(source)
    dist: list = [INFINITY] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if cap is not None and du >= cap:
            continue
        for w in g.adj[u]:
            if dist[w] is INFINITY:
                dist[w] = du + 1
                queue.append(w)
    return dist


def distance(g: Graph, u: int, v: int, cap: Optional[int] = None):
    """Shortest-path hop count between u and v; INFINITY when disconnected
    or farther than the optional cap."""
    g.check_vertex(u)
    g.check_vertex(v)
    return distances_from(g, u, cap)[v]


def sphere(g: Graph, x: int, r: int) -> set[int]:
    """The set of vertices at hop distance exactly r from x."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    dist = distances_from(g, x, cap=r)
    return {v for v, d in enumerate(dist) if d == r}


def ball(g: Graph, x: int, r: int) -> set[int]:
    """The set of vertices at hop distance at most r from x."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    dist = distances_from(g, x, cap=r)
    return {v for v, d in enumerate(dist) if d is not INFINITY and d <= r}


def common_neighbors(g: Graph, x: int, y: int) -> set[int]:
    """Vertices adjacent to both x and y."""
    g.check_vertex(x)
    g.check_vertex(y)
    if x == y:
        raise ValueError("common_neighbors requires two distinct vertices")
    return set(g.adj[x]) & set(g.adj[y])


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


def girth(g: Graph):
    """Length of a shortest cycle; INFINITY for forests.

    BFS from every root: each non-tree edge (u, w) closes a walk of length
    dist[u] + dist[w] + 1 containing a cycle no longer than that, and for a
    root on a shortest cycle the walk is the cycle itself, so the minimum
    over all roots is exact.
    """
    best = INFINITY
    for s in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    length = dist[u] + dist[w] + 1
                    if length < best:
                        best = length
    return best


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


VERTEX_LIMIT = 2_000_000  # desk-scale bound on graphs built from products or input files


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: (x1,y1) ~ (x2,y2) iff equal in one coordinate and
    adjacent in the other. Vertex (x, y) maps to index x*h.n + y."""
    if g.n == 0 or h.n == 0:
        raise ValueError("cartesian_product requires non-empty factors")
    if g.n * h.n > VERTEX_LIMIT:
        raise ValueError(f"product on {g.n * h.n} vertices exceeds the desk-scale limit")
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
