"""Cut-edges and connectivity of multigraphs.

Bridge detection is DFS low-link adapted to multigraphs: the traversal
remembers the edge id (not the parent vertex) used to enter a vertex, so a
parallel copy of the entry edge correctly cancels bridge status.  Loops are
never bridges.

Edge and vertex connectivity are computed by maximum flow.  Parallel edges
act as capacity multiplicity for edge connectivity.  Vertex connectivity
uses the usual vertex-splitting construction over non-adjacent pairs, with
the complete-graph convention K_n -> n - 1; parallel edges collapse to one
adjacency.  Following Even (SIAM J. Comput. 1975), flow sources stop at the
running minimum, so at most kappa + 1 vertices serve as sources instead of
all n.
"""

from __future__ import annotations

from collections import deque

from .multigraph import Multigraph


def bridges(g: Multigraph) -> list[int]:
    """Sorted ids of all cut-edges of g."""
    disc = [-1] * g.n
    low = [0] * g.n
    out: list[int] = []
    for root in range(g.n):
        if disc[root] != -1:
            continue
        timer = 0
        # stack entries: (vertex, entry edge id, index into incidence list)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, entry, i = stack.pop()
            inc = g._inc[v]
            advanced = False
            while i < len(inc):
                eid = inc[i]
                i += 1
                if eid == entry:
                    continue
                a, b = g.edge(eid)
                w = b if a == v else a
                if w == v:  # loop
                    continue
                if disc[w] == -1:
                    stack.append((v, entry, i))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, 0))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced and entry != -1:
                # returning from v to its parent through `entry`
                a, b = g.edge(entry)
                parent = b if disc[b] < disc[a] else a
                low[parent] = min(low[parent], low[v])
                if low[v] > disc[parent]:
                    out.append(entry)
    out.sort()
    return out


def is_connected(g: Multigraph) -> bool:
    """True if g has at most one component (the empty graph counts)."""
    if g.n == 0:
        return True
    return len(g.components()) == 1


def _bfs_augment(cap: dict[int, dict[int, int]], s: int, t: int) -> int:
    """One shortest augmenting path; returns the pushed amount (0 if none)."""
    parent = {s: -1}
    q = deque([s])
    while q:
        v = q.popleft()
        if v == t:
            break
        for w, c in cap[v].items():
            if c > 0 and w not in parent:
                parent[w] = v
                q.append(w)
    if t not in parent:
        return 0
    path = []
    v = t
    while v != s:
        path.append((parent[v], v))
        v = parent[v]
    pushed = min(cap[u][w] for u, w in path)
    for u, w in path:
        cap[u][w] -= pushed
        cap[w].setdefault(u, 0)
        cap[w][u] += pushed
    return pushed


def _max_flow(cap: dict[int, dict[int, int]], s: int, t: int, limit: int) -> int:
    """Max flow value, stopping early once `limit` is reached."""
    flow = 0
    while flow < limit:
        pushed = _bfs_augment(cap, s, t)
        if pushed == 0:
            break
        flow += pushed
    return flow


def edge_connectivity(g: Multigraph) -> int:
    """Minimum number of edges whose removal disconnects g."""
    if g.n < 2:
        raise ValueError("edge connectivity requires at least 2 vertices")
    if not is_connected(g):
        return 0

    def build() -> dict[int, dict[int, int]]:
        cap: dict[int, dict[int, int]] = {v: {} for v in range(g.n)}
        for _, u, v in g.edges():
            if u == v:
                continue
            cap[u][v] = cap[u].get(v, 0) + 1
            cap[v][u] = cap[v].get(u, 0) + 1
        return cap

    best = min(g.degree(v) for v in range(g.n))
    for t in range(1, g.n):
        flow = _max_flow(build(), 0, t, best)
        best = min(best, flow)
        if best == 0:
            break
    return best


def vertex_connectivity(g: Multigraph) -> int:
    """Minimum vertex cut size of a loop-free graph; K_n gives n - 1.

    Parallel edges are collapsed into one adjacency, so a multigraph has the
    vertex connectivity of its underlying simple graph.

    Flow sources run s = 0, 1, ... while s < best (Even's "i <= k", counted
    from 1), each against every non-adjacent target t > s.  This is exact:
    take a minimum cut C with |C| = kappa.  Some vertex among the first
    kappa + 1 is not in C; let i <= kappa be the smallest such index.  Every
    vertex below i is in C, so the other side of G - C holds a vertex j > i
    not adjacent to i, and the flow for (i, j) is at most kappa.  No flow
    between non-adjacent vertices is below kappa, so best >= kappa
    throughout.  While best > kappa the loop still runs at s = i < best, and
    once best == kappa there is nothing left to find.
    """
    if any(u == v for _, u, v in g.edges()):
        raise ValueError("vertex connectivity is defined for loop-free graphs")
    if g.n < 2:
        raise ValueError("vertex connectivity requires at least 2 vertices")
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for _, u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    n = g.n
    if all(len(adj[v]) == n - 1 for v in range(n)):
        return n - 1
    if not is_connected(g):
        return 0

    big = n  # enough: any vertex cut has size < n
    def split_flow(s: int, t: int, limit: int) -> int:
        # node 2v = "in", 2v+1 = "out"; internal capacity 1 except s, t
        cap: dict[int, dict[int, int]] = {i: {} for i in range(2 * n)}
        for v in range(n):
            cap[2 * v][2 * v + 1] = big if v in (s, t) else 1
        for u in range(n):
            for w in adj[u]:
                cap[2 * u + 1][2 * w] = big
        return _max_flow(cap, 2 * s + 1, 2 * t, limit)

    best = n - 1
    s = 0
    while s < best:
        for t in range(s + 1, n):
            if t in adj[s]:
                continue
            best = min(best, split_flow(s, t, best))
            if best == 0:
                return 0
        s += 1
    return best
