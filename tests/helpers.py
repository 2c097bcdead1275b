"""Shared strategies and independent reference oracles for the test suite.

The oracles here are deliberately naive (full rescans, exponential
enumeration) so they stay independent of the library code paths they
check.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from itertools import combinations, product
from pathlib import Path

from hypothesis import strategies as st

from regfactor.factor import TutteWitness, q_count, tutte_deficiency
from regfactor.generators import BswParams, bsw_graph, random_connected_regular_multigraph
from regfactor.matching import max_matching
from regfactor.multigraph import Multigraph
from regfactor.verifier import RK_PAIRS, RT_PAIRS, main_sweep_tasks


@st.composite
def multigraphs(draw, max_n: int = 8, max_m: int = 16, allow_loops: bool = True):
    n = draw(st.integers(min_value=1, max_value=max_n))
    if allow_loops:
        endpoint_pairs = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)
        )
    else:
        endpoint_pairs = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)
        ).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(endpoint_pairs, max_size=max_m))
    return Multigraph.from_edges(n, edges)


@st.composite
def simple_graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Multigraph.from_edges(n, chosen)


@st.composite
def disjoint_pairs(draw, max_n: int = 8, max_m: int = 16):
    g = draw(multigraphs(max_n=max_n, max_m=max_m))
    roles = draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    s = {v for v, role in enumerate(roles) if role == 1}
    t = {v for v, role in enumerate(roles) if role == 2}
    return g, s, t


@st.composite
def bridged_blocks(draw, max_blocks: int = 6):
    """Small blocks (a vertex, a looped vertex, a doubled edge, a triangle or
    a K4) joined by single edges into a star or a path, sometimes beside a
    separate triangle, with the vertices shuffled.  Random multigraphs
    rarely have an orientable cut-edge; these often do."""
    sizes = {"vertex": 1, "loop": 1, "double": 2, "triangle": 3, "k4": 4}
    kinds = draw(st.lists(st.sampled_from(sorted(sizes)), min_size=1, max_size=max_blocks))
    blocks: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    n = 0
    for kind in kinds:
        block = list(range(n, n + sizes[kind]))
        n += len(block)
        blocks.append(block)
        if kind == "loop":
            edges.append((block[0], block[0]))
        elif kind == "double":
            edges += [(block[0], block[1])] * 2
        else:
            edges += list(combinations(block, 2))
    star = draw(st.booleans())
    for i in range(1, len(blocks)):
        hub = blocks[0] if star else blocks[i - 1]
        edges.append((draw(st.sampled_from(hub)), draw(st.sampled_from(blocks[i]))))
    if draw(st.booleans()):
        edges += [(n, n + 1), (n + 1, n + 2), (n, n + 2)]
        n += 3
    perm = draw(st.permutations(range(n)))
    return Multigraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def without_edge(g: Multigraph, eid: int) -> Multigraph:
    """G minus one edge; of parallel copies only `eid` goes."""
    return Multigraph.from_edges(g.n, [(u, v) for fid, u, v in g.edges() if fid != eid])


def naive_bridges(g: Multigraph) -> list[int]:
    """Remove each edge in turn and recount components."""
    base = len(g.components())
    out = []
    for eid, u, v in g.edges():
        if u == v:
            continue
        if len(without_edge(g, eid).components()) > base:
            out.append(eid)
    return out


def naive_bridge_orientation(g: Multigraph, cut: list[int]):
    """Orient each cut-edge by walking both sides of it: the pendant side is
    the side holding no other cut-edge.  Returns the anchor vertices, or None
    when some cut-edge cannot be oriented or an anchor lies on a pendant
    side."""
    bridge_pairs = [g.edge(eid) for eid in cut]
    anchors: set[int] = set()
    pendant: set[int] = set()

    def side(eid: int, start: int) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for fid in g.incident(v):
                if fid == eid:
                    continue
                a, b = g.edge(fid)
                w = b if a == v else a
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    for eid in cut:
        u, v = g.edge(eid)
        side_u = side(eid, u)
        u_holds = any(
            other != eid and a in side_u and b in side_u
            for other, (a, b) in zip(cut, bridge_pairs)
        )
        side_v = side(eid, v)
        v_holds = any(
            other != eid and a in side_v and b in side_v
            for other, (a, b) in zip(cut, bridge_pairs)
        )
        if u_holds and not v_holds:
            anchors.add(u)
            pendant |= side_v
        elif v_holds and not u_holds:
            anchors.add(v)
            pendant |= side_u
        else:
            return None
    if anchors & pendant:
        return None
    return anchors


def naive_component_counts(g: Multigraph, s: set[int], t: set[int]):
    """Components of G-S-T, each vertex's component index (-1 on S and T),
    per component one full ``cross_edge_count`` rescan toward T and toward
    S, and [inside S, between S and T, inside T] from three more rescans."""
    comps = g.components(exclude=s | t)
    label = [next((i for i, c in enumerate(comps) if v in c), -1) for v in range(g.n)]
    to_t = [g.cross_edge_count(set(c), t) for c in comps]
    to_s = [g.cross_edge_count(set(c), s) for c in comps]
    among = [g.induced_edge_count(s), g.cross_edge_count(s, t), g.induced_edge_count(t)]
    return comps, label, to_t, to_s, among


def naive_conditions(g: Multigraph, r: int, k: int, r_set: set[int], s_set: set[int], t_set: set[int]):
    """Verdicts of conditions (a)-(f) for the partition (R, S, T), as a dict.

    Condition (a) rescans the edge list for edges inside S and inside T;
    (c) walks every edge at every S-vertex; component counts come from
    ``naive_component_counts``."""
    deg = 2 * r + 1
    cut = naive_bridges(g)
    comps, comp_of, to_t, to_s, _ = naive_component_counts(g, s_set, t_set)

    cond_a = (
        g.induced_edge_count(s_set) == 0
        and g.induced_edge_count(t_set) == 0
        and len(t_set) > len(s_set)
    )

    cond_b = True
    bridge_comps = []
    for eid in cut:
        u, v = g.edge(eid)
        in_t = [x for x in (u, v) if x in t_set]
        in_r = [x for x in (u, v) if x in r_set]
        if len(in_t) != 1 or len(in_r) != 1:
            cond_b = False
            break
        bridge_comps.append(comp_of[in_r[0]])
    cond_b = cond_b and len(set(bridge_comps)) == len(bridge_comps)

    patch_like = {ci for ci in range(len(comps)) if to_s[ci] == 1 and to_t[ci] == 1}
    cond_c = True
    for s in s_set:
        for eid in g.incident(s):
            u, v = g.edge(eid)
            other = v if u == s else u
            if other in t_set:
                continue
            if other not in r_set or comp_of[other] not in patch_like:
                cond_c = False
                break
        if not cond_c:
            break

    cond_d = sum(1 for x in to_t if x == 3) == k * (len(t_set) - len(s_set)) - 1

    referenced = set(bridge_comps) | patch_like | {ci for ci in range(len(comps)) if to_t[ci] == 3}
    cond_e = True
    for ci, comp in enumerate(comps):
        if ci in referenced:
            continue
        if to_t[ci] or to_s[ci]:
            cond_e = False
            break
        if any(g.degree(v) != deg for v in comp):
            cond_e = False
            break
        cset = set(comp)
        if any(g.edge(eid)[0] in cset for eid in cut):
            cond_e = False
            break

    cond_f = 3 * k == 2 * r + 1 or len(t_set) - len(s_set) == 1

    return {"a": cond_a, "b": cond_b, "c": cond_c, "d": cond_d, "e": cond_e, "f": cond_f}


def naive_oracle(g: Multigraph, ell: int) -> TutteWitness | None:
    """Score all 3^n role assignments (R, S or T per vertex) with
    ``tutte_deficiency``; keep the maximum deficiency, ties going to the
    lexicographically smallest (S, T)."""
    best = None
    for roles in product(range(3), repeat=g.n):
        s = tuple(v for v, role in enumerate(roles) if role == 1)
        t = tuple(v for v, role in enumerate(roles) if role == 2)
        deficiency = tutte_deficiency(g, ell, s, t)
        if deficiency > 0 and (best is None or (-deficiency, s, t) < best):
            best = (-deficiency, s, t)
    if best is None:
        return None
    neg_deficiency, s, t = best
    return TutteWitness(s, t, q_count(g, ell, s, t), g.degree_sum_minus(s, t), -neg_deficiency)


def _reached(adj: list[set[int]], rest: set[int], start: int) -> set[int]:
    """The vertices of `rest` that a walk from `start` within `rest` reaches."""
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()] & rest - seen:
            seen.add(w)
            stack.append(w)
    return seen


def _neighbour_sets(g: Multigraph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for _, u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_vertex_connectivity(g: Multigraph) -> int:
    """Smallest C with G - C disconnected, by size-ordered subset search;
    n - 1 when no such C exists (complete graphs)."""
    adj = _neighbour_sets(g)
    for size in range(g.n - 1):
        for cut in combinations(range(g.n), size):
            rest = set(range(g.n)) - set(cut)
            if _reached(adj, rest, min(rest)) != rest:
                return size
    return g.n - 1


def brute_separator(g: Multigraph, s: int, t: int) -> int:
    """Fewest vertices other than s and t whose removal leaves no s-t path,
    by size-ordered subset search; s and t must not be adjacent."""
    adj = _neighbour_sets(g)
    others = [v for v in range(g.n) if v not in (s, t)]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            if t not in _reached(adj, set(range(g.n)) - set(cut), s):
                return size
    raise ValueError("s and t are adjacent")


def brute_edge_connectivity(g: Multigraph) -> int:
    """Fewest edges crossing a bipartition of the vertices into two
    non-empty sides; parallel edges count once each and loops never cross."""
    best = g.m
    for mask in range(1, 2 ** (g.n - 1)):  # vertex n - 1 stays on side 0
        best = min(best, sum((mask >> u & 1) != (mask >> v & 1) for _, u, v in g.edges()))
    return best


def brute_max_matching_size(g: Multigraph) -> int:
    """Exponential search over non-loop edge subsets."""
    edges = [(u, v) for _, u, v in g.edges() if u != v]
    best = 0

    def rec(i: int, used: set[int], size: int) -> None:
        nonlocal best
        best = max(best, size)
        if i == len(edges) or size + (len(edges) - i) <= best:
            return
        rec(i + 1, used, size)
        u, v = edges[i]
        if u not in used and v not in used:
            used |= {u, v}
            rec(i + 1, used, size + 1)
            used -= {u, v}

    rec(0, set(), 0)
    return best


@st.composite
def blossom_graphs(draw, max_n: int = 40):
    """(n, adj) for a simple graph of several components — odd cycles with a
    tail and pendant vertices, and random blocks — plus a few edges across
    them, with shuffled ids and edge order.  Pendants are numbered last and
    their edges come last in every adjacency list, so the greedy seed
    matches the cycles first and leaves pendants exposed: exits from a
    contracted blossom, taken in the order the contraction queued the
    blossom's nodes.  The search runs often, contracts often and often fails."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges: list[tuple[int, int]] = []
    exits: list[tuple[int, int]] = []
    n = 0
    for _ in range(draw(st.integers(1, 8))):
        if n >= max_n - 2:
            break
        if draw(st.integers(0, 2)):
            cycle = min(draw(st.sampled_from([5, 7])), max_n - n)
            size = min(cycle + draw(st.integers(0, 4)), max_n - n)
            edges += [(n + i, n + i + 1) for i in range(size - 1)] + [(n, n + cycle - 1)]
            for v in range(n, n + cycle):
                if n + size < max_n and rng.random() < 0.5:
                    exits.append((v, n + size))
                    size += 1
        else:
            size = min(draw(st.integers(2, 10)), max_n - n)
            density = draw(st.sampled_from([0.2, 0.5, 0.8]))
            edges += [pair for pair in combinations(range(n, n + size), 2) if rng.random() < density]
        n += size
    for _ in range(draw(st.integers(0, 4))):
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in edges and (a, b) not in exits:
            edges.append((a, b))
    pendants = [x for _, x in exits]
    core = sorted(set(range(n)) - set(pendants))
    for part in (core, pendants, edges, exits):
        rng.shuffle(part)
    label = [0] * n
    for new_id, v in enumerate(core + pendants):
        label[v] = new_id
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges + exits:
        adj[label[u]].append(label[v])
        adj[label[v]].append(label[u])
    return n, adj


def reference_blossom_mates(n: int, adj: list[list[int]]) -> list[int]:
    """The blossom matching with fresh state for every search and a relabel
    scan over all n nodes per contraction; returns the mate array."""
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


def factor_degrees(g: Multigraph, edge_ids) -> list[int]:
    deg = [0] * g.n
    for eid in edge_ids:
        u, v = g.edge(eid)
        deg[u] += 1
        deg[v] += 1
    return deg


def adjacency_lists(g: Multigraph) -> list[list[int]]:
    """Each vertex's neighbours in edge-id order, the order the blossom search scans."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for _, u, v in g.edges():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def reference_gadget(g: Multigraph, ell: int) -> tuple[Multigraph, list[int]]:
    """The degree gadget as a ``Multigraph``, one ``add_edge`` per gadget edge:
    g's edges first, each joining the next free external node of each end,
    then every internal node of v joined to each of v's external nodes.
    ``build_factor_gadget`` must give the same ``start``, ``n`` and ``m``, and
    ``adjacency_lists`` of this graph as its ``adj``."""
    if ell < 1:
        raise ValueError(f"factor degree must be >= 1, got {ell}")
    degs = [g.degree(v) for v in range(g.n)]
    short = [v for v, d in enumerate(degs) if d < ell]
    if short:
        raise ValueError(f"no {ell}-factor: vertex {short[0]} has degree {degs[short[0]]}")

    start = [0]
    for d in degs:
        start.append(start[-1] + 2 * d - ell)
    gadget = Multigraph(start[-1])

    slot = start[:-1]
    for _, u, v in g.edges():
        a = slot[u]
        slot[u] += 1
        b = slot[v]
        slot[v] += 1
        gadget.add_edge(a, b)
    for v in range(g.n):
        ext = range(start[v], start[v] + degs[v])
        for i in range(ext.stop, start[v + 1]):
            for x in ext:
                gadget.add_edge(i, x)
    return gadget, start


def gadget_factor_reference(g: Multigraph, ell: int) -> tuple[int, ...] | None:
    """The factor by matching the reference gadget through ``max_matching``:
    the matched edge ids below g.m, sorted, or None when the gadget cannot be
    built (a vertex of degree < ℓ) or its matching leaves a node exposed."""
    if any(g.degree(v) < ell for v in range(g.n)):
        return None
    gadget, _ = reference_gadget(g, ell)
    matched = max_matching(gadget)
    if 2 * len(matched) < gadget.n:
        return None
    return tuple(sorted(e for e in matched if e < g.m))


def hashed_line(key: str, name: str, text: str) -> str:
    """The pinned line of an output too large to keep in tests/data: its
    name under ``key`` and the sha256 of its text."""
    return json.dumps({key: name, "sha256": hashlib.sha256(text.encode()).hexdigest()})


def assert_lines_pinned(lines: list[str], data_file: str, key: str) -> None:
    """Compare JSON lines byte for byte and in order with tests/data/<data_file>,
    first naming every ``key`` whose line changed, appeared or disappeared,
    with the pinned and the new line of the first five of them."""
    expected = (Path(__file__).parent / "data" / data_file).read_text().splitlines()
    got = {json.loads(line)[key]: line for line in lines}
    want = {json.loads(line)[key]: line for line in expected}
    assert len(got) == len(lines) and len(want) == len(expected)  # one line per key
    moved = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    diff = "".join(f"\n{name}\n  pinned: {want.get(name)}\n  new:    {got.get(name)}" for name in moved[:5])
    assert not moved, f"lines changed, appeared or disappeared: {moved}{diff}"
    assert lines == expected  # and in the same order


def pinned_hosts():
    """(label, g, ℓ) for the battery's hosts at n = 30: five seed-0 guarantee
    graphs per (r, k) cell with ℓ = 2k, then each sharpness host with every
    ℓ = 2k, k = 1..r; 47 in all, labelled as the battery names its instances."""
    for r, k in RK_PAIRS:
        for _, a in main_sweep_tasks(r, k, 5, 0, (30,)):
            g = random_connected_regular_multigraph(a["n"], 2 * r + 1, a["seed"])
            yield f"main-r{r}-k{k}-n{a['n']}-i{a['index']}", g, 2 * k
    for r, t in RT_PAIRS:
        host = bsw_graph(BswParams(r, t))
        for k in range(1, r + 1):
            yield f"bsw-r{r}-t{t}-k{k}", host, 2 * k
