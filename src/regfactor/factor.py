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
  pair violates it.  For each union S∪T it places the members in S or T
  depth first, largest T-gain first, cutting every branch whose exact bound
  is below the best so far or whose pairs lose to moving one member into
  the rest (dominance); ties are never cut and go to the lexicographically
  smallest (S,T), so the witness does not depend on the search order;
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
    (i.e. an ℓ-factor exists).  For each union U = S∪T the components of the
    rest R are labelled once; a depth-first search then puts U's members in S
    or T, updating q and d by v's terms alone as v joins T.  With members j..
    undecided it cuts the branch when ``popcount(odd | sflip[j]) + slack +
    sgain[j]``, rounded down to the parity of ℓn, is below the best so far;
    U is skipped when that holds at its root with every component odd and
    no T cap.  That bounds every completion: a component no undecided member
    flips keeps its parity; v joining T changes slack by ``-step[v] - 2·e(v,
    T) <= max(0, -step[v])``; every deficiency is ≡ ℓn (mod 2) (Lovász 1970).

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
    ascending ``step`` (largest T-gain first), then id; leaves compare (S, T)
    lexicographically, so the witness does not depend on it.  The scan is
    3^n, so graphs above ``ORACLE_CAP`` vertices are refused.
    """
    if ell < 1:
        raise ValueError(f"factor degree must be >= 1, got {ell}")
    n = g.n
    if n > ORACLE_CAP:
        raise ValueError(f"oracle refuses {n} vertices (cap {ORACLE_CAP}; the scan is 3^n)")

    loops = [0] * n
    plain: list[tuple[int, int]] = []
    # layers[j][v]: the neighbours joined to v by more than j parallel
    # edges; oddnbr[v]: those joined to v by an odd number
    layers = [[0] * n]
    oddnbr = [0] * n
    for _, u, v in g.edges():
        if u == v:
            loops[u] += 1
            continue
        j = plain.count((u, v))
        plain.append((u, v))
        if j == len(layers):
            layers.append([0] * n)
        layers[j][u] |= 1 << v
        layers[j][v] |= 1 << u
        oddnbr[u] ^= 1 << v
        oddnbr[v] ^= 1 << u
    nbr, deeper = layers[0], layers[1:]
    full = (1 << n) - 1
    parity = ell * n & 1

    best: TutteWitness | None = None
    best_def = 1
    for union in range(full + 1):
        rest = full & ~union
        # label the components of the graph minus `union`; `odd` marks
        # those with cross(Q, T) + ℓ|Q| odd while T = ∅
        comps = []
        odd = 0
        remaining = rest
        while remaining:
            bit = remaining & -remaining
            seen = bit
            frontier = bit
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    nxt |= nbr[b.bit_length() - 1]
                frontier = nxt & rest & ~seen
                seen |= frontier
            odd |= (ell * seen.bit_count() & 1) << len(comps)
            comps.append(seen)
            remaining &= ~seen

        order = []  # (step, v, e(v, R)), step = e(v, R) + 2·loops(v) - 2ℓ
        gain = 0
        um = union
        while um:
            bv = um & -um
            um ^= bv
            v = bv.bit_length() - 1
            e_r = (nbr[v] & rest).bit_count()
            for layer in deeper:
                e_r += (layer[v] & rest).bit_count()
            step = e_r + 2 * (loops[v] - ell)
            gain += -step if step < 0 else 0
            order.append((step, v, e_r))
        m = len(order)
        bound = len(comps) - ell * m + gain
        if bound - ((bound ^ parity) & 1) < best_def:
            continue
        order.sort()

        # rows[j - 1], j members undecided: sflip, sgain, those that may join T;
        # the next one's step, id, flip (the components it flips), tcap, S need
        rows = []
        sf = sg = later = 0
        for step, v, e_r in reversed(order):
            a_v = flp = 0
            r_v = nbr[v] & rest
            for i, cm in enumerate(comps):
                if not r_v:
                    break
                if r_v & cm:
                    a_v += 1
                    if (oddnbr[v] & cm).bit_count() & 1:
                        flp |= 1 << i
                    r_v &= ~cm
            tcap = ell + a_v - e_r - 2 * loops[v]
            if tcap >= 0:
                sf |= flp
                sg += -step if step < 0 else 0
                later |= 1 << v
            rows.append((sf, sg, later, step, v, flp, tcap, ell - a_v))
        stack = [(m, odd, 0, -ell * m)]  # slack = -d - ℓ(|S| - |T|)
        while stack:
            j, odd, t_mask, slack = stack.pop()
            while j:  # the next member joins S here; its T branch waits on the stack
                j -= 1
                sf, sg, later, step, v, flp, tcap, sneed = rows[j]
                bound = (odd | sf).bit_count() + slack + sg
                if bound - ((bound ^ parity) & 1) < best_def:
                    break
                c = (nbr[v] & t_mask).bit_count()
                for layer in deeper:
                    c += (layer[v] & t_mask).bit_count()
                if c <= tcap:
                    stack.append((j, odd ^ flp, t_mask | 1 << v, slack - step - 2 * c))
                if sneed > 0:
                    reach = t_mask | later
                    c = (nbr[v] & reach).bit_count()
                    for layer in deeper:
                        c += (layer[v] & reach).bit_count()
                    if c < sneed:
                        break
            else:
                deficiency = odd.bit_count() + slack
                if deficiency >= best_def:
                    d = -slack - ell * (m - 2 * t_mask.bit_count())
                    cand = TutteWitness(_bits(union ^ t_mask), _bits(t_mask), odd.bit_count(), d, deficiency)
                    if best is None or deficiency > best_def or (cand.S, cand.T) < (best.S, best.T):
                        best, best_def = cand, deficiency
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
