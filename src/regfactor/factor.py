"""Deciding and constructing ℓ-factors in multigraphs.

An ℓ-factor is a spanning sub-multigraph in which every vertex has degree
exactly ℓ (loops counting 2).  Existence is governed by the classical
f-factor criterion specialized to constant ℓ: G has an ℓ-factor if and
only if, for all disjoint vertex sets S and T,

    q(S,T) - d_{G-S}(T)  <=  ℓ (|S| - |T|),

where q(S,T) counts the components Q of G-S-T for which
``cross(Q,T) + ℓ|Q|`` is odd.  For even ℓ the parity term drops and a
component counts exactly when it sends an odd number of edges to T
("T-odd").

Two independent routes are provided and cross-checked in the test suite:

* ``exhaustive_tutte_oracle`` — evaluates the criterion over all 3^n
  disjoint (S,T) pairs and returns a maximum-deficiency witness if any
  pair violates it.  It visits each rest V - S∪T once, depth first, adding
  one vertex at a time and merging the components it touches, so the
  components, their parity masks, e(v, R) and the union's T-gain are kept
  incrementally and never relabelled.  For each union S∪T it places the
  members in S or T depth first, largest T-gain first, cutting every branch
  whose exact bound is below the best so far or whose pairs lose to moving
  one member into the rest (dominance); ties are never cut and go to the
  lexicographically smallest (S,T), so the witness depends on neither the
  union order nor the member order;
* ``find_factor`` — constructs a factor via the standard degree-gadget
  reduction to perfect matching (Tutte 1954), reading it off the matching's
  mate array.  The gadget is built straight as the blossom search's
  read-only adjacency lists, in gadget edge-id order, not as a Multigraph.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass

from .matching import maximum_matching_adjacency
from .multigraph import Multigraph

# The oracle's scan is 3^n, so it refuses graphs above this many vertices.
ORACLE_CAP = 14


@dataclass(frozen=True)
class TutteWitness:
    """A disjoint pair (S,T) violating the ℓ-factor criterion.

    ``deficiency = q - d - ℓ(|S| - |T|) > 0`` certifies that no ℓ-factor
    exists.
    """

    S: tuple[int, ...]
    T: tuple[int, ...]
    q: int
    d: int
    deficiency: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OddComponentProfile:
    """Classification of the T-odd components of G-S-T.

    q1 counts T-odd components with one edge to T and none to S, q2 those
    with one edge to T and at least one to S, q3 those with at least three
    edges to T.  Components with an even edge count to T are not counted.
    """

    q1: int
    q2: int
    q3: int

    @classmethod
    def from_counts(cls, to_t: list[int], to_s: list[int]) -> "OddComponentProfile":
        """Classify from per-component edge counts to T and to S."""
        pairs = list(zip(to_t, to_s))
        return cls(
            q1=sum(1 for x, y in pairs if x == 1 and y == 0),
            q2=sum(1 for x, y in pairs if x == 1 and y > 0),
            q3=sum(1 for x, _ in pairs if x % 2 == 1 and x > 1),
        )


@dataclass(frozen=True)
class FactorResult:
    """An ℓ-factor given as a sub-multiset of edge ids."""

    edge_ids: tuple[int, ...]
    ell: int

    def validate(self, g: Multigraph) -> None:
        """Raise unless every vertex has degree exactly ℓ in the factor."""
        deg = [0] * g.n
        for eid in self.edge_ids:
            for v in g.edge(eid):  # a loop's vertex twice
                deg[v] += 1
        bad = [v for v, d in enumerate(deg) if d != self.ell]
        if bad:
            raise ValueError(f"not a {self.ell}-factor: wrong degree at vertices {bad[:5]}")

    def to_json(self) -> dict:
        return {"edges": sorted(self.edge_ids), "ell": self.ell}


def component_edge_counts(
    g: Multigraph, s: Iterable[int], t: Iterable[int]
) -> tuple[list[list[int]], list[int], list[int], list[int], list[int]]:
    """Label G-S-T once and classify every edge by the roles of its two ends.

    Returns ``(comps, label, to_t, to_s, among)``: the components of G-S-T
    in the order of ``Multigraph.components``, each vertex's component index
    (-1 for vertices of S and T), per component the number of edges to T
    and to S, and ``among = [inside S, between S and T, inside T]``.  As in
    ``Multigraph.induced_edge_count`` and ``cross_edge_count``, a loop
    counts once inside its own set and never across, and parallel edges
    count with their multiplicity.  S and T must be disjoint.
    """
    ss = set(s)
    st = set(t)
    if ss & st:
        raise ValueError(f"vertex sets overlap: {sorted(ss & st)}")
    comps = g.components(exclude=ss | st)
    label = [-1] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            label[v] = ci
    to_t = [0] * len(comps)
    to_s = [0] * len(comps)
    among = [0, 0, 0]
    for _, u, v in g.edges():
        cu, cv = label[u], label[v]
        if cu < 0 and cv < 0:
            # both ends in S∪T: the number of ends in T picks the slot
            among[(u in st) + (v in st)] += 1
        elif cu < 0:
            (to_t if u in st else to_s)[cv] += 1
        elif cv < 0:
            (to_t if v in st else to_s)[cu] += 1
    return comps, label, to_t, to_s, among


def t_odd_profile(g: Multigraph, s: Iterable[int], t: Iterable[int]) -> OddComponentProfile:
    """Classify the T-odd components of G-S-T by their edge counts to T and S."""
    _, _, to_t, to_s, _ = component_edge_counts(g, s, t)
    return OddComponentProfile.from_counts(to_t, to_s)


def _criterion_terms(g: Multigraph, ell: int, s: set[int], t: set[int]) -> tuple[int, int]:
    """q(S,T) and d_{G-S}(T) = Σ_{v∈T} deg(v) - e(S,T), from one labelling."""
    if ell < 1:
        raise ValueError(f"factor degree must be >= 1, got {ell}")
    comps, _, to_t, _, (_, s_to_t, _) = component_edge_counts(g, s, t)
    q = sum((x + ell * len(c)) % 2 for c, x in zip(comps, to_t))
    return q, sum(g.degree(v) for v in t) - s_to_t


def q_count(g: Multigraph, ell: int, s: Iterable[int], t: Iterable[int]) -> int:
    """Number of components Q of G-S-T with cross(Q,T) + ℓ|Q| odd."""
    return _criterion_terms(g, ell, set(s), set(t))[0]


def tutte_deficiency(g: Multigraph, ell: int, s: Iterable[int], t: Iterable[int]) -> int:
    """q(S,T) - d_{G-S}(T) - ℓ(|S| - |T|); positive means (S,T) is a witness."""
    ss = set(s)
    st = set(t)
    q, d = _criterion_terms(g, ell, ss, st)
    return q - d - ell * (len(ss) - len(st))


def exhaustive_tutte_oracle(g: Multigraph, ell: int) -> TutteWitness | None:
    """Scan all disjoint (S,T) pairs for a criterion violation.

    Returns the maximum-deficiency witness whose ``(S, T)`` tuple is
    lexicographically smallest, or None when no pair violates the criterion
    (i.e. an ℓ-factor exists).  The rests R = V - S∪T are visited once each,
    depth first, a child adding a vertex h above R's highest; the components
    of G[R + h] are h merged with the components h touches, so G[R] is never
    relabelled.  Each component carries its neighbour mask and its parity
    mask, whose bit v is e(v, Q) mod 2 (the XOR of the odd-multiplicity
    neighbour masks over Q), so a member's a(v) and the components it flips
    are mask reads; e(v, R) and the root T-gain are updated from h's
    neighbours alone, with their multiplicities.  For each union U = S∪T a
    depth-first search then puts U's members in S or T, updating q and d by
    v's terms alone as v joins T.  With members j.. undecided it cuts the
    branch when ``popcount(odd | sflip[j]) + slack + sgain[j] - lost``,
    rounded down to the parity of ℓn, is below the best so far, where lost
    counts min(2, T-gain) over the undecided T candidates with a neighbour in
    T already; U is skipped when that holds at its root with every component
    odd and no T cap, before its members are sorted.  That bounds every
    completion: a component no undecided member flips keeps its parity; v
    joining T changes slack by ``-step[v] - 2·e(v, T) <= max(0, -step[v])``,
    and by at most ``max(0, -step[v]) - min(2, max(0, -step[v]))`` once T
    holds a neighbour of v, as T only grows along a branch; every deficiency
    is ≡ ℓn (mod 2) (Lovász 1970).

    Dominance cuts: moving v into R merges the a(v) components of G[R] that
    v touches, so q falls by at most a(v).  From T, d falls by deg_{G-S}(v) =
    e(v, R) + e(v, T) + 2·loops(v) and ℓ|T| by ℓ, so the deficiency rises by
    at least deg_{G-S}(v) - ℓ - a(v); from S, d rises by e(v, T) and ℓ|S|
    falls by ℓ, so it rises by at least ℓ - e(v, T) - a(v).  By parity a rise
    of 1 is one of 2, so in a maximum pair both bounds are <= 0.  So v joins T
    only while ``e(v, T so far) <= tcap = ℓ + a(v) - e(v, R) - 2·loops(v)``
    (if tcap < 0 it never does, and adds nothing to sflip and sgain), and v
    in S ends its branch when ``e(v, T ∪ later T candidates) < ℓ - a(v)``.
    A cut pair is strictly beaten, so no tie with the witness is cut.  Order:
    ascending ``step`` (largest T-gain first), then id.  Every cut needs a
    bound strictly below the best so far, so every pair of maximum
    deficiency reaches a leaf whatever the order of unions and members, and
    leaves compare (S, T) lexicographically: the witness is the full scan's.
    Memory is O(n²): the depth-first stack holds one state per level.  The
    scan is 3^n, so graphs above ``ORACLE_CAP`` vertices are refused.
    """
    if ell < 1:
        raise ValueError(f"factor degree must be >= 1, got {ell}")
    n = g.n
    if n > ORACLE_CAP:
        raise ValueError(f"oracle refuses {n} vertices (cap {ORACLE_CAP}; the scan is 3^n)")

    loops = [0] * n
    mult: dict[tuple[int, int], int] = {}
    for _, u, v in g.edges():
        if u == v:
            loops[u] += 1
        else:
            mult[u, v] = mult.get((u, v), 0) + 1
    # layers[j][v]: the neighbours joined to v by more than j parallel edges
    # (nbr = layers[0]; deep[v] keeps v's non-empty deeper masks); oddnbr[v]:
    # those joined to v by an odd number; wired[v]: (w, multiplicity) per
    # neighbour w
    layers = [[0] * n]
    oddnbr = [0] * n
    wired: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), c in mult.items():
        while len(layers) < c:
            layers.append([0] * n)
        for layer in layers[:c]:
            layer[u] |= 1 << v
            layer[v] |= 1 << u
        if c & 1:
            oddnbr[u] ^= 1 << v
            oddnbr[v] ^= 1 << u
        wired[u].append((v, c))
        wired[v].append((u, c))
    nbr = layers[0]
    deep = [tuple(layer[v] for layer in layers[1:] if layer[v]) for v in range(n)]
    full = (1 << n) - 1
    parity = ell * n & 1

    best: TutteWitness | None = None
    best_def = 1
    thr = best_def + ((best_def ^ parity) & 1)  # a bound below thr rounds below best_def
    # The rests R = V - S∪T, each once, depth first: R's children add a
    # vertex h above R's highest, and the components of G[R + h] are h merged
    # with those it touches.  A state is (R, its lowest possible child vertex,
    # comps, oddsize, the members of U = V - R, steps, gain): comps holds per
    # component of G[R] its highest vertex's bit, which names it in the
    # masks below, the mask of its neighbours, and the mask of vertices with
    # an odd number of edges into it (the XOR of ``oddnbr`` over it);
    # oddsize names the components of odd size; steps[v] = e(v, R) +
    # 2·loops(v) - 2ℓ for v in U; gain = Σ max(0, -steps[v]) over U.  The
    # stack holds (state, next child vertex), one entry per level, so it
    # keeps O(n) states of O(n) each.
    steps0 = [2 * (loops[v] - ell) for v in range(n)]
    stack = [((0, 0, [], 0, list(range(n)), steps0, sum(-s for s in steps0 if s < 0)), 0)]
    while stack:
        state, h = stack.pop()
        rest, lo, comps, oddsize, members, steps, gain = state
        if h < n:
            if h + 1 < n:
                stack.append((state, h + 1))
            bh = 1 << h
            kids = []
            merged = 0
            nm, pm = nbr[h], oddnbr[h]
            for comp in comps:
                if comp[1] & bh:
                    merged |= comp[0]
                    nm |= comp[1]
                    pm ^= comp[2]
                else:
                    kids.append(comp)
            kids.append((bh, nm, pm))
            odd_h = (1 + (oddsize & merged).bit_count()) & 1
            child = rest | bh
            cm = members[:]
            cm.remove(h)
            cs = steps[:]
            cg = gain - (-steps[h] if steps[h] < 0 else 0)
            for w, c in wired[h]:  # e(w, R) grows by w's edges to h
                if not child >> w & 1:
                    s = cs[w]
                    if s < 0:
                        cg -= c if c < -s else -s
                    cs[w] = s + c
            stack.append(((child, h + 1, kids, oddsize & ~merged | odd_h << h, cm, cs, cg), h + 1))
        if h != lo:
            continue  # R's union was scored when R was first popped

        union = full ^ rest
        m = len(members)
        # the root bound: every component odd, every member's T-gain
        if len(comps) - ell * m + gain < thr:
            continue
        order = sorted(members, key=steps.__getitem__)  # stable: ties by id

        # rows[j - 1], j members undecided: sflip, sgain, those that may join T,
        # and those of them whose T-gain is at least 1 and at least 2; the next
        # one's step, bit, flip (the components it flips), tcap, S need, and its
        # neighbour masks
        rows = []
        sf = sg = later = gain1 = gain2 = 0
        for v in reversed(order):
            step = steps[v]
            a_v = flp = 0
            if nbr[v] & rest:
                for top, cn, cp in comps:
                    if cn >> v & 1:
                        a_v += 1
                        if cp >> v & 1:
                            flp |= top
            tcap = a_v - step - ell  # ℓ + a(v) - e(v, R) - 2·loops(v)
            if tcap >= 0:
                sf |= flp
                sg += -step if step < 0 else 0
                later |= 1 << v
                if step < 0:
                    gain1 |= 1 << v
                    if step < -1:
                        gain2 |= 1 << v
            rows.append((sf, sg, later, gain1, gain2, step, 1 << v, flp, tcap, ell - a_v, nbr[v], deep[v]))
        # slack = -d - ℓ(|S| - |T|); t_nbrs: the vertices with a neighbour in T
        stack_t = [(m, oddsize if ell & 1 else 0, 0, -ell * m, 0)]
        while stack_t:
            j, odd, t_mask, slack, t_nbrs = stack_t.pop()
            while j:  # the next member joins S here; its T branch waits on the stack
                j -= 1
                sf, sg, later, gain1, gain2, step, bv, flp, tcap, sneed, nb, dp = rows[j]
                lost = (gain1 & t_nbrs).bit_count() + (gain2 & t_nbrs).bit_count()
                if (odd | sf).bit_count() + slack + sg - lost < thr:
                    break
                c = (nb & t_mask).bit_count()
                for mk in dp:
                    c += (mk & t_mask).bit_count()
                if c <= tcap:
                    stack_t.append((j, odd ^ flp, t_mask | bv, slack - step - 2 * c, t_nbrs | nb))
                if sneed > 0:
                    reach = t_mask | later
                    c = (nb & reach).bit_count()
                    for mk in dp:
                        c += (mk & reach).bit_count()
                    if c < sneed:
                        break
            else:
                deficiency = odd.bit_count() + slack
                if deficiency >= best_def:
                    d = -slack - ell * (m - 2 * t_mask.bit_count())
                    cand = TutteWitness(_bits(union ^ t_mask), _bits(t_mask), odd.bit_count(), d, deficiency)
                    if best is None or deficiency > best_def or (cand.S, cand.T) < (best.S, best.T):
                        best, best_def = cand, deficiency
                        thr = best_def + ((best_def ^ parity) & 1)
    return best


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


@dataclass(frozen=True)
class FactorGadget:
    """The degree gadget as the blossom search reads it: ``adj[x]`` lists node
    x's neighbours in gadget edge-id order, ``m`` counts the gadget's edges,
    and ``ends[e]`` holds the two external nodes that carry g's edge e.
    Nodes share lists, so none may be mutated."""

    m: int
    adj: list[list[int]]
    ends: list[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.adj)


def build_factor_gadget(g: Multigraph, ell: int) -> tuple[FactorGadget, list[int]]:
    """Reduce ℓ-factor existence to perfect matching.

    Returns ``(gadget, start)``.  Vertex v's external nodes, one per
    edge-endpoint incidence (a loop yields two), are ``start[v] .. start[v]
    + deg(v) - 1``; its ``deg(v) - ℓ`` internal nodes follow, up to
    ``start[v + 1]``, each joined to all of v's external nodes.  Gadget edge
    e is g's edge e for e < g.m, joining one external node of each end; the
    internal–external edges follow by v, internal node, external node.  So
    an external node's list is its g-edge partner, then v's internal nodes,
    and v's internal nodes share one list of v's external nodes.  No list
    repeats a node or holds its own: the gadget is simple, as the blossom
    matching needs.  It has a perfect matching iff g has an ℓ-factor, whose
    edges are the e < g.m that the matching uses.
    """
    if ell < 1:
        raise ValueError(f"factor degree must be >= 1, got {ell}")
    degs = [g.degree(v) for v in range(g.n)]
    short = [v for v, d in enumerate(degs) if d < ell]
    if short:
        raise ValueError(f"no {ell}-factor: vertex {short[0]} has degree {degs[short[0]]}")

    start = [0]
    for d in degs:
        start.append(start[-1] + 2 * d - ell)
    partner = [0] * start[-1]

    slot = start[:-1]
    ends = []
    for _, u, v in g.edges():
        a = slot[u]
        slot[u] += 1
        b = slot[v]
        slot[v] += 1
        partner[a] = b
        partner[b] = a
        ends.append((a, b))
    adj: list[list[int]] = []
    m = g.m
    for v in range(g.n):
        ext = range(start[v], start[v] + degs[v])
        inner = list(range(ext.stop, start[v + 1]))
        adj.extend([partner[x], *inner] for x in ext)
        adj.extend([list(ext)] * len(inner))
        m += len(ext) * len(inner)
    return FactorGadget(m, adj, ends), start


def find_factor(g: Multigraph, ell: int) -> FactorResult | None:
    """An ℓ-factor of g if one exists, else None.  Gadget edge e < g.m is g's
    edge e, so the factor is read off the mate array at the gadget's ``ends``,
    in id order."""
    if ell < 1:
        raise ValueError(f"factor degree must be >= 1, got {ell}")
    if any(g.degree(v) < ell for v in range(g.n)):
        return None
    if (ell * g.n) % 2 == 1:
        return None
    gadget, _ = build_factor_gadget(g, ell)
    mate, _ = maximum_matching_adjacency(gadget.adj, stop_at_failure=True)
    if -1 in mate:  # a failed search: no perfect matching, so no factor
        return None
    result = FactorResult(tuple(e for e, (a, b) in enumerate(gadget.ends) if mate[a] == b), ell)
    result.validate(g)
    return result


def gadget_witness(g: Multigraph, ell: int) -> tuple[set[int], set[int]]:
    """The (S, T) pair of the barrier of the degree gadget's maximum matching.

    With D the gadget nodes some maximum matching leaves exposed, A = N(D)
    minus D, and ext(v), int(v) the external and internal nodes of v: S = {v :
    ext(v) ⊆ A} and T = {v ∉ S : int(v) ⊆ A if int(v) ≠ ∅, else ext(v) ⊆ D},
    the barrier ext(S) ∪ int(T) of Tutte's proof of the f-factor theorem
    (Tutte 1954).  The pair need not violate the criterion; callers re-check it.
    """
    gadget, start = build_factor_gadget(g, ell)
    in_d = set(maximum_matching_adjacency(gadget.adj)[1])
    in_a = {w for x in in_d for w in gadget.adj[x]} - in_d
    s, t = set(), set()
    for v in range(g.n):
        ext = range(start[v], start[v] + g.degree(v))
        inner = range(ext.stop, start[v + 1])
        if in_a.issuperset(ext):
            s.add(v)
        elif in_a.issuperset(inner) if inner else in_d.issuperset(ext):
            t.add(v)
    return s, t


def has_2k_factor(g: Multigraph, k: int) -> bool:
    """Whether g has a spanning subgraph that is 2k-regular."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return find_factor(g, 2 * k) is not None
