"""Text formats for multigraphs.

* ``mgf`` — native edge-list format: header line ``mgf <n> <m>`` followed by
  m lines ``<u> <v>`` (0-indexed, ``u == v`` for a loop).  Round-trips
  bit-exactly.
* ``graph6`` — the standard packed format for simple graphs; refuses loops
  and parallel edges.
* ``dot`` — export only, for visualization.
"""

from __future__ import annotations

from .multigraph import Multigraph


def to_mgf(g: Multigraph) -> str:
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
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError(f"graph6 export supports at most 258047 vertices, got {n}")


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
    """Encode a simple graph; loops or parallel edges are an error."""
    if not g.is_simple():
        raise ValueError("graph6 supports simple graphs only (no loops, no parallel edges)")
    n = g.n
    head = _g6_encode_n(n)  # rejects a too-large n before the n(n-1)/2 bits are built
    adj = set()
    for _, u, v in g.edges():
        adj.add((u, v))
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return head + "".join(chars)


def from_graph6(text: str) -> Multigraph:
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<") :]
    bad = [ch for ch in data if not "?" <= ch <= "~"]
    if bad:
        raise ValueError(f"graph6 parse error: invalid character {bad[0]!r}")
    n, rest = _g6_decode_n(data)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(rest) != need:
        raise ValueError(f"graph6 parse error: expected {need} data characters, got {len(rest)}")
    bits = []
    for ch in rest:
        val = ord(ch) - 63
        bits.extend((val >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    g = Multigraph(n)
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                g.add_edge(i, j)
            idx += 1
    return g


def to_dot(g: Multigraph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for _, u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
