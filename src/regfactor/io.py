"""Text formats for multigraphs.

* ``mgf`` — native edge-list format: header line ``mgf <n> <m>`` followed by
  m lines ``<u> <v>`` (0-indexed, ``u == v`` for a loop).  Round-trips
  bit-exactly.
* ``graph6`` — the standard packed format for simple graphs; refuses loops
  and parallel edges.
* ``dot`` — export only, for visualization.
"""

from __future__ import annotations

from math import isqrt

from .multigraph import Multigraph

_MAX_N = 258047  # the most vertices graph6 can encode; the mgf reader and writer refuse more too


def to_mgf(g: Multigraph) -> str:
    if g.n > _MAX_N:  # from_mgf would refuse the text
        raise ValueError(f"mgf export supports at most {_MAX_N} vertices, got {g.n}")
    lines = [f"mgf {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for _, u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_mgf(text: str) -> Multigraph:
    lines = text.splitlines()
    if not lines:
        raise ValueError("mgf parse error (line 1): empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "mgf":
        raise ValueError("mgf parse error (line 1): expected header 'mgf <n> <m>'")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise ValueError("mgf parse error (line 1): n and m must be integers") from None
    if n < 0 or m < 0:
        raise ValueError("mgf parse error (line 1): n and m must be non-negative")
    if n > _MAX_N:  # checked before Multigraph(n) allocates n incidence lists
        raise ValueError(f"mgf parse error (line 1): n must be at most {_MAX_N}, got {n}")
    if n == 0 and m > 0:  # no endpoint could be in range 0..n-1
        raise ValueError("mgf parse error (line 1): the graph has no vertices, so no edge line can be read")
    body = [ln for ln in lines[1:]]
    # Tolerate trailing blank lines only.
    while body and not body[-1].strip():
        body.pop()
    if len(body) != m:
        where = min(len(body), m) + 2  # first missing or first surplus line
        raise ValueError(
            f"mgf parse error (line {where}): header promises {m} edges, found {len(body)}"
        )
    g = Multigraph(n)
    for i, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"mgf parse error (line {i}): expected '<u> <v>'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"mgf parse error (line {i}): endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"mgf parse error (line {i}): endpoint out of range 0..{n - 1}")
        g.add_edge(u, v)
    return g


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= _MAX_N:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError(f"graph6 export supports at most {_MAX_N} vertices, got {n}")


def _g6_decode_n(data: str) -> tuple[int, str]:
    if not data:
        raise ValueError("graph6 parse error: empty input")
    if data[0] != "~":
        return ord(data[0]) - 63, data[1:]
    if len(data) < 4 or data[1] == "~":
        raise ValueError("graph6 parse error: unsupported size prefix")
    n = 0
    for ch in data[1:4]:
        n = (n << 6) | (ord(ch) - 63)
    return n, data[4:]


def to_graph6(g: Multigraph) -> str:
    """Encode a simple graph; loops or parallel edges are an error.

    Pair (u, v) with u < v is bit v(v-1)/2 + u of the upper triangle, read
    column by column, six bits to a character, high bit first.
    """
    if not g.is_simple():
        raise ValueError("graph6 supports simple graphs only (no loops, no parallel edges)")
    n = g.n
    head = _g6_encode_n(n)  # rejects a too-large n before the packed bytes are allocated
    data = bytearray(b"?") * ((n * (n - 1) // 2 + 5) // 6)
    for _, u, v in g.edges():  # simple, so each bit is added once
        p = v * (v - 1) // 2 + u
        data[p // 6] += 32 >> (p % 6)
    return head + data.decode("ascii")


def from_graph6(text: str) -> Multigraph:
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<") :]
    bad = [ch for ch in data if not "?" <= ch <= "~"]
    if bad:
        raise ValueError(f"graph6 parse error: invalid character {bad[0]!r}")
    n, rest = _g6_decode_n(data)
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(rest) != need:
        raise ValueError(f"graph6 parse error: expected {need} data characters, got {len(rest)}")
    g = Multigraph(n)
    for c, ch in enumerate(rest):
        val = ord(ch) - 63
        while val:  # set bits, high bit first, so edges come column by column
            high = val.bit_length() - 1
            val ^= 1 << high
            p = 6 * c + 5 - high
            if p >= pairs:  # padding bits are ignored
                break
            j = (1 + isqrt(8 * p + 1)) // 2
            g.add_edge(p - j * (j - 1) // 2, j)
    return g


def to_dot(g: Multigraph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for _, u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
