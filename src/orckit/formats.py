"""graph6 and plain edge-list serialization.

graph6 follows the standard 6-bit encoding bit-exactly: header byte(s)
63+k, then the upper adjacency triangle read column by column, packed
big-endian six bits per byte. The edge-list format is one "u v" pair per
line, '#' comments, and an optional "n <count>" header line that declares
the vertex count (needed for isolated vertices). The vertex and edge
counts may not exceed graphs.VERTEX_LIMIT and graphs.EDGE_LIMIT; larger
input is rejected before any graph is built. write_graph6 refuses a body
of more than _G6_BODY_BUDGET bytes before it allocates one.
"""

from __future__ import annotations

import re
from math import isqrt

from .graphs import VERTEX_LIMIT, Graph, check_size

_G6_MAX_SMALL = 62
_G6_MAX = 258047  # 3-byte extended size header
_QUOTE_MAX = 64  # longest input line quoted whole in an error message
_BIT_COUNT = bytes(bin(max(b - 63, 0)).count("1") for b in range(256))  # graph6 byte -> set bits
_DIGITS = len(str(VERTEX_LIMIT))  # a longer count or vertex is refused before int() reads it
# per input type: the whitespace str.strip() removes (for bytes, its ASCII
# part), a byte outside the graph6 range and the optional header
_G6_TEXT = (re.compile(r"\s*"), re.compile("[^?-~]"), ">>graph6<<")
_G6_BYTES = (re.compile(rb"[\t-\r\x1c- ]*"), re.compile(rb"[^?-~]"), b">>graph6<<")
_G6_SET = re.compile(rb"[^?]")  # a body byte with a bit set: '?' is 63, no bit

# most graph6 body bytes write_graph6 allocates: a body has n(n-1)/12
# bytes whatever the edge count, so graphs within the desk-scale limits
# could ask for gigabytes (5.2 GB for the 500x500 torus) and end in a
# MemoryError. 2**27 admits n <= 40,132, the 200x200 torus (133,330,000
# bytes) included; the edge-list format is linear in the edges.
_G6_BODY_BUDGET = 1 << 27


def write_graph6(g: Graph) -> str:
    """The graph6 text of g, without a newline. The header and body are
    built as graph6 bytes in one buffer, which the decode copies once into
    the returned str: at most two body-sized buffers are alive at once."""
    n = g.n
    if n <= _G6_MAX_SMALL:
        head = bytes([n + 63])
    elif n <= _G6_MAX:
        head = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError(f"graph6 writer supports n <= {_G6_MAX}")
    size = (n * (n - 1) // 2 + 5) // 6
    if size > _G6_BODY_BUDGET:
        raise ValueError(f"graph6: n={n} needs {size} body bytes, over the budget of "
                         f"{_G6_BODY_BUDGET}; write the edge-list format (--format edgelist)")
    at = len(head)
    data = bytearray(b"?") * (at + size)  # '?' is 63, a body byte with no bit set
    data[:at] = head
    for i, j in g.edges():  # set bits only: the pair (i, j), i < j, is bit k = j(j-1)/2 + i
        k = j * (j - 1) // 2 + i
        data[at + k // 6] += 32 >> k % 6  # each bit once, so adding sets it
    return data.decode("ascii")


def parse_graph6(text: str | bytes) -> Graph:
    """The graph of a graph6 text, given as a str or as the ASCII bytes of a
    file. Bytes are read in place, with no stripped or decoded copy: the
    only body-sized buffer made is the count of each byte's set bits.
    Leading and trailing whitespace, as str.strip() finds it, and a leading
    ">>graph6<<" are skipped; positions in error messages count from the
    first byte after them."""
    space, outside, prefix = _G6_TEXT if isinstance(text, str) else _G6_BYTES
    start = space.match(text).end()
    if text.startswith(prefix, start):
        start += len(prefix)
    end = len(text)
    bad = outside.search(text, start)  # an edge list fails here, within its first two characters
    if bad and space.match(text, bad.start()).end() == end:  # the trailing whitespace
        end, bad = bad.start(), None
    if start == end:
        raise ValueError("graph6: empty input")
    if bad:
        raise ValueError(f"graph6: byte {ord(bad.group())} at position {bad.start() - start} "
                         "outside 63..126")
    if isinstance(text, str):  # only bytes are read in place
        data, start, end = text[start:end].encode("ascii"), 0, end - start
    else:
        data = text
    if data[start] == 126:  # '~': extended size
        if end - start < 4:
            raise ValueError("graph6: truncated extended size header")
        if data[start + 1] == 126:
            raise ValueError("graph6: 8-byte sizes not supported")
        n = ((data[start + 1] - 63) << 12) | ((data[start + 2] - 63) << 6) | (data[start + 3] - 63)
        at = start + 4  # where the body starts
    else:
        n = data[start] - 63
        at = start + 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if end - at != need:
        raise ValueError(f"graph6: n={n} needs {need} body bytes, got {end - at}")
    if need and (data[end - 1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise ValueError(f"graph6: nonzero padding bit at byte {end - 1 - start}")
    # the edge count is the number of set body bits: refuse an oversized
    # graph before its edge list is built
    counts = data.translate(_BIT_COUNT)  # each byte replaced by its number of set bits
    m = sum(k * counts.count(k, at, end) for k in range(1, 7))
    del counts  # a body-sized buffer, not kept while the edges are built
    check_size("graph6", n, m)
    edges = []
    for byte in _G6_SET.finditer(data, at, end):
        t, v = byte.start(), ord(byte[0]) - 63
        while v:  # set bits only, most significant first
            top = v.bit_length() - 1
            v ^= 1 << top
            k = 6 * (t - at) + 5 - top  # bit k is the pair (i, j), i < j, with k = j(j-1)/2 + i
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


def _is_number(token: str) -> bool:
    """Whether a count or vertex is plain ASCII digits, the only text int()
    is given: int() would also read '+3', '1_0' and non-ASCII digits."""
    return token.isascii() and token.isdigit()


def _is_vertex(token: str) -> bool:
    """Whether a count or vertex is a number (_is_number) of at most _DIGITS digits."""
    return _is_number(token) and len(token) <= _DIGITS


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
            if len(parts) != 2 or not _is_number(parts[1]):
                raise ValueError(f"edge list line {lineno}: malformed header {_quoted(line)}")
            if declared is not None:
                raise ValueError(f"edge list line {lineno}: duplicate header")
            if not _is_vertex(parts[1]):
                raise ValueError(f"edge list line {lineno}: a count of more than {_DIGITS} digits "
                                 f"would exceed the desk-scale limit of {VERTEX_LIMIT}")
            declared = int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"edge list line {lineno}: expected 'u v', got {_quoted(line)}")
        if not all(_is_number(t) or t[:1] == "-" and _is_number(t[1:]) for t in parts):
            raise ValueError(f"edge list line {lineno}: non-integer vertex in {_quoted(line)}")
        if not all(_is_number(t) for t in parts):
            raise ValueError(f"edge list line {lineno}: negative vertex in {_quoted(line)}")
        if not all(map(_is_vertex, parts)):
            raise ValueError(f"edge list line {lineno}: a vertex of more than {_DIGITS} digits "
                             f"would exceed the desk-scale limit of {VERTEX_LIMIT}")
        u, v = int(parts[0]), int(parts[1])
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
