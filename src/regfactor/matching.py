"""Maximum cardinality matching in general simple graphs.

Classic blossom algorithm: alternating BFS from each exposed vertex, with
odd cycles contracted by rebasing vertices onto the cycle's base.  The
search state (`used`, `p`, `base`, and `members[b]`, the nodes whose base is
b) is allocated once per call.  Each search records in `tree` every node
whose entries it sets — the root, every node that gets a parent and every
mate of such a node — and resets exactly those entries when it ends.  A
contraction re-bases the members of the cycle's bases (Gabow, JACM 1976),
which are exactly the nodes a scan of all n would: only tree nodes have
another base, and every base on the cycle is a tree node.  Sorted by id,
they are queued in the scan's order.  The new base is never on the cycle (a
blossom holds its base's mate only through the base, where `mark_path`
stops), so its members keep their base.  An absorbed base's list goes
stale, but it is never read again, because that node is no longer a base.
Seeding in id order, adjacency in edge order and first-found paths make
equal inputs give equal matchings.

A search that fails leaves a Hungarian tree, which no augmenting path of
this or any later matching meets (Edmonds 1965), so its outer nodes stay
those an even alternating path reaches from its root.  Every node exposed
at the end roots such a tree, so the failed trees' outer nodes make up D,
the nodes some maximum matching leaves exposed (Gallai–Edmonds;
Lovász–Plummer, *Matching Theory*, §3.2).
"""

from __future__ import annotations

from collections import deque

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
    outer: list[int] = []

    def find_path(root: int) -> bool:
        tree = [root]  # every node whose used/p/base/members entries this search sets

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
                blossom.add(base[v])
                blossom.add(base[match[v]])
                p[v] = child
                child = match[v]
                v = p[match[v]]

        used[root] = True
        q = deque([root])
        try:
            while q:
                v = q.popleft()
                for to in adj[v]:
                    if base[v] == base[to] or match[v] == to:
                        continue
                    if to == root or (match[to] != -1 and p[match[to]] != -1):
                        # odd cycle: contract it onto its base
                        curbase = lca(v, to)
                        blossom = set()
                        mark_path(v, curbase, to)
                        mark_path(to, curbase, v)
                        # id order fixes the queue order, and so the mates
                        inner = sorted(i for b in blossom for i in members[b])
                        members[curbase] += inner
                        for i in inner:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                    elif p[to] == -1:
                        p[to] = v
                        tree.append(to)
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
                        tree.append(match[to])
                        q.append(match[to])
            outer.extend(v for v in tree if used[v])
            return False
        finally:
            for v in tree:
                used[v] = False
                p[v] = -1
                base[v] = v
                members[v] = [v]

    for v in range(n):
        if match[v] == -1 and not find_path(v) and stop_at_failure:
            break
    return match, list(dict.fromkeys(outer))
