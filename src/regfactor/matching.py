"""Maximum cardinality matching in general simple graphs.

Classic blossom algorithm: alternating BFS from each exposed vertex, with
odd cycles contracted by rebasing vertices onto the cycle's base.  The
search state (`used`, `p`, `base`, and `members[b]`, the nodes whose base is
b) is allocated once per call, and every search runs in the one loop of
`maximum_matching_adjacency`, with no per-search closures.  Each search
records in `tree` every node whose entries it sets — the root, every node
that gets a parent and every mate of such a node — and resets exactly those
entries when it ends.

A neighbour is outer exactly when `used` marks it: the root, a mate queued
when its partner got a parent, or a node a contraction absorbed.  The usual
test, `to == root or p[match[to]] != -1`, picks the same nodes, because an
inner node's mate gets a parent only on a contraction's walk, and that
contraction absorbs the inner node too.  Nor does v's own mate need a test
of its own: it shares v's base if a contraction absorbed it, and has a
parent if not, so neither branch takes it.  The two walks' lowest common base
is found with a stamp array.  A contraction re-bases the members of the
cycle's bases (Gabow, JACM 1976), which are exactly the nodes a scan of all
n would: only tree nodes have another base, and every base on the cycle is
a tree node.  Sorted by id, they are queued in the scan's order.  The new
base is never on the cycle (a blossom holds its base's mate only through
the base, where the walk up each side stops), so its members keep their
base.  An absorbed base's list goes stale, but it is never read again,
because that node is no longer a base.  The dequeued node's base is read
again after a contraction that moved it; with the stale base, its other
neighbours in the new blossom would each run a contraction that absorbs
nothing.  Seeding in id order, adjacency in edge order and first-found
paths make equal inputs give equal matchings.

A search that fails leaves a Hungarian tree, which no augmenting path of
this or any later matching meets (Edmonds 1965), so its outer nodes stay
those an even alternating path reaches from its root.  Every node exposed
at the end roots such a tree, so the failed trees' outer nodes make up D,
the nodes some maximum matching leaves exposed (Gallai–Edmonds;
Lovász–Plummer, *Matching Theory*, §3.2).
"""

from __future__ import annotations

from .multigraph import Multigraph


def max_matching(g: Multigraph) -> set[int]:
    """A maximum matching of a simple graph, as a set of edge ids."""
    if not g.is_simple():
        raise ValueError("maximum matching requires a simple graph")
    adj: list[list[int]] = [[] for _ in range(g.n)]  # neighbours in edge-id order
    for _, u, v in g.edges():
        adj[u].append(v)
        adj[v].append(u)
    match, _ = maximum_matching_adjacency(adj)
    return {eid for eid, u, v in g.edges() if match[u] == v}


def maximum_matching_adjacency(
    adj: list[list[int]], stop_at_failure: bool = False
) -> tuple[list[int], list[int]]:
    """Blossom matching on adjacency lists; returns the mate array (-1 =
    exposed) and the failed searches' outer nodes, which make up D, each
    once (a later search can walk through an earlier failed tree again).
    ``stop_at_failure`` returns at the first failed search, which proves no
    perfect matching; the mate array is then not maximum, the outer list partial."""
    n = len(adj)
    match = [-1] * n
    for v in range(n):  # greedy seed keeps augmentation phases rare
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    used = [False] * n
    p = [-1] * n
    base = list(range(n))
    members = [[v] for v in range(n)]  # members[b]: the nodes whose base is b
    stamp = [0] * n  # stamp[b] == mark: base b is on the current contraction's walk from v
    mark = 0
    outer: list[int] = []

    for root in range(n):
        if match[root] != -1:
            continue
        tree = [root]  # every node whose used/p/base/members entries this search sets
        used[root] = True
        queue = [root]
        augmented = False
        for v in queue:
            bv = base[v]
            for to in adj[v]:
                if used[to]:
                    if bv == base[to]:
                        continue
                    # to is outer too, so there is an odd cycle: contract it onto
                    # its base, the two walks' lowest common base
                    mark += 1
                    a = v
                    while True:
                        a = base[a]
                        stamp[a] = mark
                        if match[a] == -1:
                            break
                        a = p[match[a]]
                    curbase = base[to]
                    while stamp[curbase] != mark:
                        curbase = base[p[match[curbase]]]
                    blossom = set()
                    for x, child in ((v, to), (to, v)):  # each side of the cycle up to curbase
                        while base[x] != curbase:
                            blossom.add(base[x])
                            blossom.add(base[match[x]])
                            p[x] = child
                            child = match[x]
                            x = p[child]
                    # id order fixes the queue order, and so the mates
                    inner = []
                    for b in blossom:
                        inner += members[b]
                    inner.sort()
                    members[curbase] += inner
                    for i in inner:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
                    bv = base[v]  # v may lie on the cycle just contracted
                elif p[to] == -1:
                    p[to] = v
                    tree.append(to)
                    mt = match[to]
                    if mt == -1:
                        # augment along the alternating path back to root
                        while to != -1:
                            pv = p[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        augmented = True
                        break
                    used[mt] = True
                    tree.append(mt)
                    queue.append(mt)
            if augmented:
                break
        else:
            outer.extend(v for v in tree if used[v])
        for v in tree:
            used[v] = False
            p[v] = -1
            base[v] = v
            members[v] = [v]
        if not augmented and stop_at_failure:
            break
    return match, list(dict.fromkeys(outer))
