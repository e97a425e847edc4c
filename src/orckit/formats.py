"""graph6 and plain edge-list serialization.

graph6 follows the standard 6-bit encoding bit-exactly: header byte(s)
63+k, then the upper adjacency triangle read column by column, packed
big-endian six bits per byte. The edge-list format is one "u v" pair per
line, '#' comments, and an optional "n <count>" header line that declares
the vertex count (needed for isolated vertices). The vertex and edge
counts may not exceed graphs.VERTEX_LIMIT and graphs.EDGE_LIMIT; larger
input is rejected before any graph is built.
"""

from __future__ import annotations

from math import isqrt

from .graphs import Graph, check_size

_G6_MAX_SMALL = 62
_G6_MAX = 258047  # 3-byte extended size header
_QUOTE_MAX = 64  # longest input line quoted whole in an error message
_SET_BITS = {b: bin(b - 63).count("1") for b in range(63, 127)}  # graph6 byte -> set bits


def _triangle_bits(g: Graph) -> list[int]:
    bits = []
    for j in range(1, g.n):
        row = set(g.adj[j])
        for i in range(j):
            bits.append(1 if i in row else 0)
    return bits


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= _G6_MAX_SMALL:
        head = chr(n + 63)
    elif n <= _G6_MAX:
        head = "~" + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    else:
        raise ValueError(f"graph6 writer supports n <= {_G6_MAX}")
    bits = _triangle_bits(g)
    while len(bits) % 6 != 0:
        bits.append(0)
    chunks = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        chunks.append(chr(val + 63))
    return head + "".join(chunks)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("graph6: empty input")
    for pos, c in enumerate(s):  # an edge list fails here, within its first two characters
        if not "?" <= c <= "~":
            raise ValueError(f"graph6: byte {ord(c)} at position {pos} outside 63..126")
    data = s.encode("ascii")
    if data[0] == 126:  # '~': extended size
        if len(data) < 4:
            raise ValueError("graph6: truncated extended size header")
        if data[1] == 126:
            raise ValueError("graph6: 8-byte sizes not supported")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        body_at = 4
    else:
        n = data[0] - 63
        body = data[1:]
        body_at = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6: n={n} needs {need} body bytes, got {len(body)}")
    if body and (body[-1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise ValueError(f"graph6: nonzero padding bit at byte {body_at + need - 1}")
    # the edge count is the number of set body bits: refuse an oversized
    # graph before its edge list is built
    check_size("graph6", n, sum(_SET_BITS[b] for b in body))
    edges = []
    for t, b in enumerate(body):
        v = b - 63
        while v:  # set bits only, most significant first
            top = v.bit_length() - 1
            v ^= 1 << top
            k = 6 * t + 5 - top  # bit k is the pair (i, j), i < j, with k = j(j-1)/2 + i
            j = (1 + isqrt(1 + 8 * k)) // 2
            edges.append((k - j * (j - 1) // 2, j))
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _quoted(line: str) -> str:
    """A line for an error message, cut to its first _QUOTE_MAX characters."""
    return repr(line) if len(line) <= _QUOTE_MAX else repr(line[:_QUOTE_MAX]) + "..."


def parse_edge_list(text: str) -> Graph:
    declared = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_v = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError(f"edge list line {lineno}: malformed header {_quoted(line)}")
            if declared is not None:
                raise ValueError(f"edge list line {lineno}: duplicate header")
            declared = int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"edge list line {lineno}: expected 'u v', got {_quoted(line)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"edge list line {lineno}: non-integer vertex in {_quoted(line)}") from None
        if u < 0 or v < 0:
            raise ValueError(f"edge list line {lineno}: negative vertex in {_quoted(line)}")
        if u == v:
            raise ValueError(f"edge list line {lineno}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"edge list line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
        max_v = max(max_v, u, v)
    n = max_v + 1
    if declared is not None:
        if declared < n:
            raise ValueError(f"edge list: header declares {declared} vertices but edges reach vertex {max_v}")
        n = declared
    check_size("edge list", n, len(edges))
    return Graph(n, edges)
