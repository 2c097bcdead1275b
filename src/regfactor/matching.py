"""Maximum cardinality matching in general simple graphs.

Classic blossom algorithm: alternating BFS from each exposed vertex, with
odd cycles contracted by rebasing vertices onto the cycle's base.  Each
search, and each contraction within it, starts from freshly allocated
state.  The implementation is deterministic — vertices are seeded in id
order, adjacency is scanned in edge-insertion order, and augmenting paths
are taken first-found — so equal inputs give equal matchings.
"""

from __future__ import annotations

from collections import deque

from .multigraph import Multigraph


def max_matching(g: Multigraph) -> set[int]:
    """A maximum matching of a simple graph, as a set of edge ids."""
    if not g.is_simple():
        raise ValueError("maximum matching requires a simple graph")
    edges = g.edges()
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for _, u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    match = maximum_matching_adjacency(g.n, adj)
    return {eid for eid, u, v in edges if match[u] == v}


def maximum_matching_adjacency(n: int, adj: list[list[int]]) -> list[int]:
    """Blossom matching on adjacency lists; returns the mate array (-1 = exposed)."""
    match = [-1] * n
    for v in range(n):  # greedy seed keeps augmentation phases rare
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    def find_path(root: int) -> bool:
        used = [False] * n
        p = [-1] * n
        base = list(range(n))

        def lca(a: int, b: int) -> int:
            seen = set()
            while True:
                a = base[a]
                seen.add(a)
                if match[a] == -1:
                    break
                a = p[match[a]]
            while True:
                b = base[b]
                if b in seen:
                    return b
                b = p[match[b]]

        def mark_path(v: int, b: int, child: int) -> None:
            while base[v] != b:
                blossom[base[v]] = True
                blossom[base[match[v]]] = True
                p[v] = child
                child = match[v]
                v = p[match[v]]

        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract it onto its base
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        # augment along the alternating path back to root
                        while to != -1:
                            pv = p[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return match
