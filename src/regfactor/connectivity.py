"""Cut-edges and connectivity of multigraphs.

Bridge detection is DFS low-link adapted to multigraphs: the traversal
remembers the edge id (not the parent vertex) used to enter a vertex, so a
parallel copy of the entry edge correctly cancels bridge status.  Loops are
never bridges.

Edge and vertex connectivity are computed by maximum flow on one residual
network per call, made of unit arcs: arc a and its reverse a ^ 1 sit side
by side, and each (s, t) flow uses up a fresh copy of the capacities.  For
edge connectivity each parallel copy of an edge is its own unit arc in each
direction.  Vertex connectivity uses the usual vertex-splitting
construction, with the complete-graph convention K_n -> n - 1; parallel
edges collapse to one adjacency.  Following Esfahanian and Hakimi
(Networks 1984), flows run only from one vertex v of minimum degree and
between non-adjacent neighbours of v, not between all non-adjacent pairs.
"""

from __future__ import annotations

from itertools import combinations

from .multigraph import Multigraph


def bridges(g: Multigraph) -> list[int]:
    """Sorted ids of all cut-edges of g."""
    ends = g.edges()
    disc = [-1] * g.n
    low = [0] * g.n
    out: list[int] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # one frame per vertex on the DFS path: (vertex, entry edge id, its unread edge ids)
        stack = [(root, -1, iter(g.incident(root)))]
        while stack:
            v, entry, unread = stack[-1]
            for eid in unread:
                _, a, b = ends[eid]
                w = b if a == v else a
                if eid == entry or w == v:  # the entry edge itself, or a loop
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(g.incident(w))))
                    break
                low[v] = min(low[v], disc[w])
            else:
                # returning from v to its parent through `entry`
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        out.append(entry)
    return sorted(out)


def is_connected(g: Multigraph) -> bool:
    """True if g has at most one component (the empty graph counts)."""
    if g.n == 0:
        return True
    return len(g.components()) == 1


def _network(size: int, arcs: list[tuple[int, int]]) -> tuple[list[list[int]], list[int], list[int]]:
    """Residual network on nodes 0..size-1 with one unit arc per (u, w).

    Returns `out` (arc ids leaving each node), `head` and `cap`.  Arc a
    leads to head[a]; its reverse is a ^ 1, with capacity 0.
    """
    out: list[list[int]] = [[] for _ in range(size)]
    head: list[int] = []
    for u, w in arcs:
        out[u].append(len(head))
        out[w].append(len(head) + 1)
        head += (w, u)
    return out, head, [1, 0] * len(arcs)


def _max_flow(out: list[list[int]], head: list[int], cap: list[int], s: int, t: int, limit: int) -> int:
    """Max flow from s to t by shortest augmenting paths, stopping once
    `limit` is reached.  Uses up `cap`."""
    flow = 0
    while flow < limit:
        via = [-1] * len(out)  # the arc that reached each node
        via[s] = len(head)  # reached; the walk back stops before reading it
        queue = [s]
        for v in queue:
            for a in out[v]:
                w = head[a]
                if cap[a] and via[w] < 0:
                    via[w] = a
                    queue.append(w)
            if via[t] >= 0:
                break
        else:
            return flow
        v = t
        while v != s:
            a = via[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = head[a ^ 1]
        flow += 1
    return flow


def edge_connectivity(g: Multigraph) -> int:
    """Minimum number of edges whose removal disconnects g."""
    if g.n < 2:
        raise ValueError("edge connectivity requires at least 2 vertices")
    arcs = [arc for _, u, v in g.edges() if u != v for arc in ((u, v), (v, u))]
    out, head, cap = _network(g.n, arcs)
    best = min(g.degree(v) for v in range(g.n))
    for t in range(1, g.n):
        best = min(best, _max_flow(out, head, cap[:], 0, t, best))
    return best


def vertex_connectivity(g: Multigraph) -> int:
    """Minimum vertex cut size of a loop-free graph; K_n gives n - 1.

    Parallel edges are collapsed into one adjacency, so a multigraph has the
    vertex connectivity of its underlying simple graph.  Vertex v becomes
    the arc 2v -> 2v+1 and each adjacency u-w the arcs 2u+1 -> 2w and
    2w+1 -> 2u.  A flow from 2s+1 to 2t passes at most one unit through any
    other vertex, so unit arcs count vertex-disjoint s-t paths.

    Flows run from v, the vertex of fewest neighbours with the lowest id,
    to each non-neighbour, then between each non-adjacent pair of v's
    neighbours (Esfahanian and Hakimi).  This is exact: take a minimum
    separator C.  If v is not in C, some vertex on the far side of G - C is
    not adjacent to v, and the flow from v to it is at most |C|.  If v is in
    C, then v has a neighbour on each side of G - C, or C - v would separate
    too; those two neighbours are not adjacent, and C separates them.  No
    flow between non-adjacent vertices is below kappa, so `best` never
    drops below it and `limit = best` cuts no flow short of kappa.
    """
    n = g.n
    adj: list[set[int]] = [set() for _ in range(n)]
    for _, u, v in g.edges():
        if u == v:
            raise ValueError("vertex connectivity is defined for loop-free graphs")
        adj[u].add(v)
        adj[v].add(u)
    if n < 2:
        raise ValueError("vertex connectivity requires at least 2 vertices")
    arcs = [(2 * v, 2 * v + 1) for v in range(n)]
    arcs += [(2 * u + 1, 2 * w) for u in range(n) for w in adj[u]]
    out, head, cap = _network(2 * n, arcs)
    v = min(range(n), key=lambda u: len(adj[u]))
    pairs = [(v, t) for t in range(n) if t != v and t not in adj[v]]
    pairs += [(a, b) for a, b in combinations(sorted(adj[v]), 2) if b not in adj[a]]
    best = n - 1
    for s, t in pairs:
        best = min(best, _max_flow(out, head, cap[:], 2 * s + 1, 2 * t, best))
    return best
