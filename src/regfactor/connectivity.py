"""Cut-edges and connectivity of multigraphs.

Bridge detection is DFS low-link adapted to multigraphs: the traversal
remembers the edge id (not the parent vertex) used to enter a vertex, so a
parallel copy of the entry edge correctly cancels bridge status.  Loops are
never bridges.

Edge and vertex connectivity are computed by maximum flow on one residual
network per call, held as bitmasks: bit w of succ[u] and bit u of pred[w]
are set while the arc u -> w has residual capacity, and each (s, t) flow
works on fresh copies.  A BFS layer is one mask, expanded by OR-ing the
successor masks of its nodes, and the augmenting path is found by walking
the layers back from t.  For edge connectivity, k parallel copies of an
edge give residual counts of k in each direction.  Vertex connectivity
uses the usual vertex-splitting construction, with the complete-graph
convention K_n -> n - 1; parallel edges collapse to one adjacency.
Following Esfahanian and Hakimi (Networks 1984), flows run only from one
vertex v of minimum degree and between non-adjacent neighbours of v, not
between all non-adjacent pairs.
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


# (succ, pred, res, bulk); see _residual_network
_Network = tuple[list[int], list[int], dict[tuple[int, int], int], int]


def _residual_network(succ: list[int], res: dict[tuple[int, int], int]) -> _Network:
    """The network whose arcs are the bits of `succ`, with its predecessor
    masks and its bulk mask.  With `res` empty every arc has capacity 1;
    otherwise `res` holds the residual count of every arc.  `bulk` holds
    every node whose one residual successor is the next node, so one shift
    of a BFS layer expands them all.
    """
    pred = [0] * len(succ)
    for u, out in enumerate(succ):
        while out:
            w = out.bit_length() - 1
            pred[w] |= 1 << u
            out ^= 1 << w
    bulk = sum(1 << x for x, out in enumerate(succ) if out == 2 << x)
    return succ, pred, res, bulk


def _max_flow(network: _Network, s: int, t: int, limit: int) -> int:
    """Max flow from s to t by shortest augmenting paths on a fresh copy of
    `network`, stopping once `limit` is reached.  The path back from t takes
    the highest-numbered predecessor in each BFS layer.  Augmenting sets or
    clears the bulk bit of each node on the path from its new successors,
    so a vertex whose flow a later path cancels is expanded in bulk again."""
    succ, pred, res, bulk = network
    succ, pred, res = succ[:], pred[:], dict(res)
    flow = 0
    while flow < limit:
        frontier = seen = 1 << s
        layers = [frontier]
        while not frontier >> t & 1:
            reach = (frontier & bulk) << 1
            rest = frontier & ~bulk
            while rest:
                x = rest.bit_length() - 1
                reach |= succ[x]
                rest ^= 1 << x
            frontier = reach & ~seen
            if not frontier:
                return flow
            seen |= frontier
            layers.append(frontier)
        w = t
        for layer in layers[-2::-1]:
            u = (pred[w] & layer).bit_length() - 1
            if res:
                res[u, w] -= 1
                res[w, u] += 1
            if not res or not res[u, w]:  # the arc u -> w is spent
                succ[u] ^= 1 << w
                pred[w] ^= 1 << u
            succ[w] |= 1 << u
            pred[u] |= 1 << w
            bulk = bulk | 1 << w if succ[w] == 2 << w else bulk & ~(1 << w)
            w = u
        bulk = bulk | 1 << s if succ[s] == 2 << s else bulk & ~(1 << s)  # w is s now
        flow += 1
    return flow


def edge_connectivity(g: Multigraph) -> int:
    """Minimum number of edges whose removal disconnects g."""
    if g.n < 2:
        raise ValueError("edge connectivity requires at least 2 vertices")
    succ = [0] * g.n
    res: dict[tuple[int, int], int] = {}
    for _, u, v in g.edges():
        if u != v:
            succ[u] |= 1 << v
            succ[v] |= 1 << u
            res[u, v] = res[v, u] = res.get((u, v), 0) + 1
    network = _residual_network(succ, res)
    best = min(g.degree(v) for v in range(g.n))
    for t in range(1, g.n):
        best = min(best, _max_flow(network, 0, t, best))
    return best


def _split_network(g: Multigraph) -> tuple[list[set[int]], _Network]:
    """The neighbour sets of a loop-free g, and its vertex-split network:
    vertex v becomes the arc 2v -> 2v+1 and each adjacency u-w the arcs
    2u+1 -> 2w and 2w+1 -> 2u, all of capacity 1."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for _, u, v in g.edges():
        if u == v:
            raise ValueError("vertex connectivity is defined for loop-free graphs")
        adj[u].add(v)
        adj[v].add(u)
    succ = [0] * (2 * g.n)
    for v in range(g.n):
        succ[2 * v] = 1 << (2 * v + 1)
        succ[2 * v + 1] = sum(1 << (2 * w) for w in adj[v])
    return adj, _residual_network(succ, {})


def vertex_connectivity(g: Multigraph) -> int:
    """Minimum vertex cut size of a loop-free graph; K_n gives n - 1.

    Parallel edges are collapsed into one adjacency, so a multigraph has the
    vertex connectivity of its underlying simple graph.  In the split
    network (`_split_network`) a flow from 2s+1 to 2t passes at most one
    unit through any other vertex, so it counts vertex-disjoint s-t paths.
    While vertex v carries no flow, in-node 2v's one residual successor is
    2v+1, so one shift of a BFS layer expands the in-nodes of all such
    vertices; only out-nodes, and in-nodes on a path, are expanded alone.

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
    adj, network = _split_network(g)
    if n < 2:
        raise ValueError("vertex connectivity requires at least 2 vertices")
    v = min(range(n), key=lambda u: len(adj[u]))
    pairs = [(v, t) for t in range(n) if t != v and t not in adj[v]]
    pairs += [(a, b) for a, b in combinations(sorted(adj[v]), 2) if b not in adj[a]]
    best = n - 1
    for s, t in pairs:
        best = min(best, _max_flow(network, 2 * s + 1, 2 * t, best))
    return best
