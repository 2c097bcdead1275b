"""Known-answer checks written independently of the code under test.

Only the graph's edge list is read from regfactor (``Multigraph.edges`` /
``Multigraph.edge``); degrees, components and criterion counts are
recomputed here from scratch, so a defect in regfactor's own counting
primitives, ``FactorResult.validate`` or ``tutte_deficiency`` cannot hide
itself.
"""

from __future__ import annotations


def factor_error(g, ell: int, edge_ids) -> str | None:
    """None if `edge_ids` is an ell-factor of g, else what is wrong with it."""
    deg = [0] * g.n
    seen = set()
    for eid in edge_ids:
        if eid in seen:
            return f"edge {eid} used twice"
        seen.add(eid)
        u, v = g.edge(eid)
        deg[u] += 1
        deg[v] += 1
    bad = [v for v, d in enumerate(deg) if d != ell]
    if bad:
        return f"not a {ell}-factor: vertex {bad[0]} has factor degree {deg[bad[0]]}"
    return None


def criterion_counts(g, ell: int, s, t) -> tuple[int, int, int]:
    """(q, d, deficiency) of the disjoint pair (S, T) in the ell-factor criterion.

    q counts components Q of G-S-T with cross(Q, T) + ell|Q| odd; d is the
    degree sum of T in G-S (a loop at a T-vertex adds 2);
    deficiency = q - d - ell(|S| - |T|).
    """
    s_set, t_set = set(s), set(t)
    if s_set & t_set:
        raise ValueError(f"S and T overlap: {sorted(s_set & t_set)}")
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = [(u, v) for _, u, v in g.edges()]
    rest = [v for v in range(g.n) if v not in s_set and v not in t_set]
    rest_set = set(rest)
    for u, v in edges:
        if u in rest_set and v in rest_set:
            parent[find(u)] = find(v)
    size: dict[int, int] = {}
    to_t: dict[int, int] = {}
    for v in rest:
        root = find(v)
        size[root] = size.get(root, 0) + 1
        to_t.setdefault(root, 0)
    d = 0
    for u, v in edges:
        if u == v:
            if u in t_set:
                d += 2
            continue
        for a, b in ((u, v), (v, u)):
            if a in t_set and b not in s_set:
                d += 1
            if a in t_set and b in rest_set:
                to_t[find(b)] += 1
    q = sum(1 for root in size if (to_t[root] + ell * size[root]) % 2 == 1)
    return q, d, q - d - ell * (len(s_set) - len(t_set))
