"""Graph families: extremal constructions with blistered S-T edges,
clique-block sharpness graphs, and random multigraphs.

The extremal builder produces (2r+1)-regular multigraphs with exactly
2r+4-3k cut-edges and no 2k-factor, for 3k <= 2r+1.  It starts from a
bipartite skeleton with parts T and R+S in which T- and S-vertices have
degree 2r+1 while the R side has 2r+4-3k degree-1 stubs and
k(|T|-|S|)-1 degree-3 stubs, then expands each R-stub into a bridgeless
component whose attachment vertex is short by exactly the stub degree.
Optionally, S-T edges are blistered and disjoint regular bridgeless
components appended; neither changes the cut-edge count or creates a
2k-factor.

Deficiency components here are the smallest convenient realization: three
vertices with parallel edges (a single vertex for the degree-3 stub when
r = 1).  Any connected bridgeless component with one vertex short by d and
the rest (2r+1)-regular would do; small ones keep the exhaustive factor
oracle within reach.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

from .connectivity import bridges, is_connected
from .factor import tutte_deficiency
from .multigraph import Multigraph

# Pairing-model samples drawn before the connected sampler gives up.
MAX_TRIES = 2000


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters of the extremal family.

    Requires 1 <= k and 3k <= 2r+1; size_t - size_s >= 1, with equality
    forced when 3k < 2r+1.  At most (2r+1)·size_s blisters, one per S-T edge.
    size_t = 1 (so size_s = 0) is the one-hub (Sylvester-type) graph.
    """

    r: int
    k: int
    size_t: int
    size_s: int = 0
    blister_count: int = 0
    extra_components: int = 0

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.k < 1 or 3 * self.k > 2 * self.r + 1:
            raise ValueError(f"k must satisfy 1 <= k <= (2r+1)/3, got k={self.k}, r={self.r}")
        if self.size_t < 1 or self.size_s < 0:
            raise ValueError("need size_t >= 1 and size_s >= 0")
        diff = self.size_t - self.size_s
        if diff < 1:
            raise ValueError(f"size_t - size_s must be >= 1, got {diff}")
        if 3 * self.k < 2 * self.r + 1 and diff != 1:
            raise ValueError(f"size_t - size_s must equal 1 when 3k < 2r+1, got {diff}")
        if self.blister_count < 0 or self.extra_components < 0:
            raise ValueError("blister_count and extra_components must be >= 0")
        limit = (2 * self.r + 1) * self.size_s  # blisters patch S-T edges, 2r+1 per S-vertex
        if self.blister_count > limit:
            raise ValueError(f"blister_count must be <= (2r+1)*size_s = {limit}, got {self.blister_count}")

    @property
    def cut_edges(self) -> int:
        return 2 * self.r + 4 - 3 * self.k

    @property
    def triple_components(self) -> int:
        return self.k * (self.size_t - self.size_s) - 1


@dataclass(frozen=True)
class BswParams:
    """Parameters of the clique-block sharpness construction: 1 <= t < r."""

    r: int
    t: int

    def __post_init__(self) -> None:
        if not 1 <= self.t < self.r:
            raise ValueError(f"need 1 <= t < r, got t={self.t}, r={self.r}")


# -- building blocks ---------------------------------------------------------


def deficiency_component(r: int, d: int) -> tuple[Multigraph, int]:
    """A connected bridgeless piece, (2r+1)-regular except one vertex short by d.

    Returns the component and its attachment vertex (degree 2r+1-d inside).
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if d not in (1, 3):
        raise ValueError(f"deficiency must be 1 or 3, got {d}")
    if r == 1 and d == 3:
        # attachment degree 2r+1-3 = 0: the component is a lone vertex
        return Multigraph(1), 0
    h = (d - 1) // 2  # vertex 0 ends with degree 2(r-h) = 2r+1-d, the others 2r+1
    g = Multigraph(3)
    for _ in range(r - h):
        g.add_edge(0, 1)
        g.add_edge(0, 2)
    for _ in range(r + 1 + h):
        g.add_edge(1, 2)
    return g, 0


def _interior_block(r: int) -> tuple[Multigraph, int, int]:
    """Bridgeless block with two attachment vertices each short by 1."""
    g = Multigraph(4)
    for a in (0, 1):
        for b in (2, 3):
            for _ in range(r):
                g.add_edge(a, b)
    g.add_edge(2, 3)
    return g, 0, 1


def _append(g: Multigraph, other: Multigraph) -> int:
    """Add a disjoint copy of `other` into g; returns the vertex offset."""
    offset = g.n
    g.add_vertices(other.n)
    for _, u, v in other.edges():
        g.add_edge(u + offset, v + offset)
    return offset


# -- the extremal family ------------------------------------------------------


class _Rejected(Exception):
    pass


def _allocate(params: ExtremalParams, rot: int, concentrated: bool, segregated: bool):
    """Distribute triple-stub edges, S-edges, and pendant stubs over T.

    Returns (q3_targets, s_alloc, pendants): target t-indices for each
    triple component, the S-T multiplicity matrix, and pendant counts per
    t-vertex.  Every t ends with degree exactly 2r+1.  The triple edges
    either cycle over T from t-vertex rot (gluing the t-vertices together)
    or go three at a time to the fullest t; S-edges either spread one at a
    time or land on a single t.

    The triples are placed first, so every capacity starts at D = 2r+1, and
    with diff = |T| - |S| they take 3(k·diff - 1) < diff·D <= |T|·D edges.
    Cycling therefore gives no t-vertex more than D.  Concentrating keeps
    every capacity ≡ D (mod 3), so a fullest capacity below 3 would mean
    3|T|⌊D/3⌋ edges placed already, more than the triples hold because
    k <= ⌊D/3⌋.  Only the segregated placement can be rejected: spreading
    S's D|S| edges always finds room, because the capacity left after them,
    D·diff - 3(k·diff - 1) = diff·(2r+1-3k) + 3, is at least 3.  By
    condition (f) it is 2r+4-3k: exactly one pendant per cut-edge.
    """
    deg = 2 * params.r + 1
    n_t = params.size_t
    caps = [deg] * n_t

    def fullest() -> int:
        return max(range(n_t), key=lambda i: (caps[i], -i))

    q3_targets: list[list[int]] = []
    for j in range(params.triple_components):
        targets = [fullest()] * 3 if concentrated else [(rot + 3 * j + e) % n_t for e in range(3)]
        for ti in targets:
            caps[ti] -= 1
        q3_targets.append(targets)

    s_alloc = [[0] * n_t for _ in range(params.size_s)]
    chunk = deg if segregated else 1
    for row in s_alloc:
        for _ in range(deg // chunk):
            ti = fullest()
            if caps[ti] < chunk:
                raise _Rejected("no single t-vertex can absorb a full S-vertex")
            caps[ti] -= chunk
            row[ti] += chunk
    return q3_targets, s_alloc, caps


def _build_extremal(params: ExtremalParams, rot: int, concentrated: bool, segregated: bool):
    r = params.r
    q3_targets, s_alloc, pendants = _allocate(params, rot, concentrated, segregated)
    n_t, n_s = params.size_t, params.size_s
    g = Multigraph(n_t + n_s)
    held = []  # (t, s) ends of the S-T edges to blister
    for si in range(n_s):
        for ti in range(n_t):
            for _ in range(s_alloc[si][ti]):
                if len(held) < params.blister_count:
                    held.append((ti, n_t + si))
                else:
                    g.add_edge(n_t + si, ti)
    triple, triple_attach = deficiency_component(r, 3)
    for targets in q3_targets:
        offset = _append(g, triple)
        for ti in targets:
            g.add_edge(offset + triple_attach, ti)
    pendant, pendant_attach = deficiency_component(r, 1)
    for ti in range(n_t):
        for _ in range(pendants[ti]):
            g.add_edge(_append(g, pendant) + pendant_attach, ti)

    # The first blister_count S-T edges each become a K_{2r+2} minus its
    # edge (0, 1), with t joined to vertex 0 and s to vertex 1.
    if held:
        opened = complement(Multigraph.from_edges(2 * r + 2, [(0, 1)]))
        for t, s in held:
            offset = _append(g, opened)
            g.add_edge(t, offset)
            g.add_edge(s, offset + 1)
    if params.extra_components:
        patch = complete_graph(2 * r + 2)
        for _ in range(params.extra_components):
            _append(g, patch)
    return g, tuple(range(n_t, n_t + n_s)), tuple(range(n_t))


def _extremal_audit(g: Multigraph, params: ExtremalParams, s_verts, t_verts) -> str | None:
    """Check the construction hit its contract; returns a defect or None."""
    deg = 2 * params.r + 1
    if g.regular_degree() != deg:
        return f"not {deg}-regular"
    found = len(bridges(g))
    if found != params.cut_edges:
        return f"expected {params.cut_edges} cut-edges, built {found}"
    slack = tutte_deficiency(g, 2 * params.k, s_verts, t_verts)
    if slack != 2:
        return f"criterion slack at the defining (S,T) is {slack}, expected 2"
    return None


def general_extremal_with_partition(
    params: ExtremalParams, seed: int = 0
) -> tuple[Multigraph, tuple[int, ...], tuple[int, ...]]:
    """Build an extremal graph and return it with its defining (S, T).

    The remaining vertices form R.  The seed rotates which t-vertices
    receive which stubs, giving structural variety across seeds.
    """
    rot = seed % params.size_t
    defects = []
    for concentrated in (False, True):
        for segregated in (False, True):
            try:
                g, s_verts, t_verts = _build_extremal(params, rot, concentrated, segregated)
            except _Rejected as exc:
                defects.append(str(exc))
                continue
            defect = _extremal_audit(g, params, s_verts, t_verts)
            if defect is None:
                return g, s_verts, t_verts
            defects.append(defect)
    raise ValueError(f"cannot realize {params}: {'; '.join(defects)}")


def general_extremal(params: ExtremalParams, seed: int = 0) -> Multigraph:
    """A (2r+1)-regular graph with exactly 2r+4-3k cut-edges and no 2k-factor."""
    g, _, _ = general_extremal_with_partition(params, seed)
    return g


def extremal_parameter_grid(r: int, k: int) -> list[ExtremalParams]:
    """Every parameter bundle exercised for a given (r, k)."""
    diffs = [1] if 3 * k < 2 * r + 1 else [1, 2]
    grid = []
    for diff in diffs:
        for size_s in (0, 1):
            for b in (0, 1, 2) if size_s else (0,):
                for x in (0, 1):
                    grid.append(ExtremalParams(r, k, size_s + diff, size_s, b, x))
    return grid


def bridged_chain(r: int, num_bridges: int) -> Multigraph:
    """(2r+1)-regular graph with exactly `num_bridges` cut-edges on a path.

    Unlike the extremal family this graph keeps all its 2k-factors
    (k <= r): every block has an internal factor, so the bridges are
    simply never used.  Useful as a control with a prescribed cut-edge
    count.
    """
    if r < 1 or num_bridges < 1:
        raise ValueError("need r >= 1 and num_bridges >= 1")
    g = Multigraph(0)
    comp, attach = deficiency_component(r, 1)
    block, entry, exit_ = _interior_block(r)
    previous = _append(g, comp) + attach
    for _ in range(num_bridges - 1):
        offset = _append(g, block)
        g.add_edge(previous, offset + entry)
        previous = offset + exit_
    g.add_edge(previous, _append(g, comp) + attach)
    return g


# -- clique-block sharpness construction --------------------------------------


def h_rt(r: int, t: int) -> Multigraph:
    """Complement of a (2t+1)-cycle plus r-t+1 disjoint edges, on 2r+3 vertices.

    The 2t+1 cycle vertices end with degree 2r, all others 2r+1.
    """
    BswParams(r, t)  # validates 1 <= t < r
    cyc = 2 * t + 1
    ring = [(i, (i + 1) % cyc) for i in range(cyc)]
    pairs = [(cyc + 2 * j, cyc + 2 * j + 1) for j in range(r - t + 1)]
    return complement(Multigraph.from_edges(2 * r + 3, ring + pairs))


def bsw_graph(params: BswParams) -> Multigraph:
    """Simple (2r+1)-regular, (2t+1)-connected graph with no 2k-factor for
    any k with 2k(2t+1) > 2t(2r+1).

    2r+1 copies of h_rt(r, t) plus an independent hub set of 2t+1 vertices,
    each copy joined to the hub by a perfect matching on its degree-2r
    vertices.
    """
    r, t = params.r, params.t
    block = h_rt(r, t)
    hub = 2 * t + 1
    g = Multigraph(hub)
    for _ in range(2 * r + 1):
        offset = _append(g, block)
        for j in range(hub):
            g.add_edge(j, offset + j)
    return g


# -- random and named graphs ---------------------------------------------------


def _pairing_samples(n: int, d: int, seed: int) -> Iterator[Multigraph]:
    """Pairing-model samples, each a reshuffle of one stub list by one Random(seed)."""
    if n < 1 or d < 0 or (n * d) % 2 == 1:
        raise ValueError(f"need n >= 1, d >= 0 and n*d even, got n={n}, d={d}")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]

    def draw() -> Multigraph:
        rng.shuffle(stubs)
        g = Multigraph(n)
        for i in range(0, len(stubs), 2):
            g.add_edge(stubs[i], stubs[i + 1])
        return g
    return iter(draw, None)  # endless, and n and d are checked before the first draw


def random_regular_multigraph(n: int, d: int, seed: int) -> Multigraph:
    """Uniform pairing model: d stubs per vertex, matched at random.

    Loops and parallel edges are kept; the result is d-regular for every
    seed and identical across runs with the same seed.
    """
    return next(_pairing_samples(n, d, seed))


def random_connected_regular_multigraph(n: int, d: int, seed: int) -> Multigraph:
    """Resample the pairing model until the graph is connected."""
    samples = _pairing_samples(n, d, seed)  # checks n and d first
    if n * d < 2 * (n - 1):  # d = 0 with n > 1, or d = 1 with n > 2
        raise ValueError(f"no connected {d}-regular graph on {n} vertices: it has fewer than n - 1 edges")
    for _, g in zip(range(MAX_TRIES), samples):
        if is_connected(g):
            return g
    raise ValueError(f"no connected {d}-regular sample on {n} vertices after {MAX_TRIES} tries")


def random_multigraph(n: int, m: int, seed: int) -> Multigraph:
    """m independent uniformly random edges; loops and parallel edges are kept."""
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    rng = random.Random(seed)
    g = Multigraph(n)
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        g.add_edge(u, v)
    return g


def complete_graph(n: int) -> Multigraph:
    return complement(Multigraph(n))


def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    g = Multigraph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def petersen_graph() -> Multigraph:
    g = Multigraph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
        g.add_edge(5 + i, 5 + (i + 2) % 5)
        g.add_edge(i, 5 + i)
    return g


def complement(g: Multigraph) -> Multigraph:
    if not g.is_simple():
        raise ValueError("complement is defined for simple graphs only")
    adj = {(u, v) for _, u, v in g.edges()}
    out = Multigraph(g.n)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (i, j) not in adj:
                out.add_edge(i, j)
    return out
