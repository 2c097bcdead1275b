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
  pair violates it;
* ``find_factor`` — constructs a factor via the standard degree-gadget
  reduction to perfect matching.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .matching import max_matching
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
        return {
            "S": list(self.S),
            "T": list(self.T),
            "q": self.q,
            "d": self.d,
            "deficiency": self.deficiency,
        }


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

    @property
    def q(self) -> int:
        return self.q1 + self.q2 + self.q3


@dataclass(frozen=True)
class FactorResult:
    """An ℓ-factor given as a sub-multiset of edge ids."""

    edge_ids: tuple[int, ...]
    ell: int

    def factor_degrees(self, g: Multigraph) -> list[int]:
        deg = [0] * g.n
        for eid in self.edge_ids:
            u, v = g.edge(eid)
            deg[u] += 1
            deg[v] += 1
        return deg

    def validate(self, g: Multigraph) -> None:
        """Raise unless every vertex has degree exactly ℓ in the factor."""
        deg = self.factor_degrees(g)
        bad = [v for v, d in enumerate(deg) if d != self.ell]
        if bad:
            raise ValueError(f"not a {self.ell}-factor: wrong degree at vertices {bad[:5]}")

    def to_json(self) -> dict:
        return {"edges": sorted(self.edge_ids), "ell": self.ell}


def component_edge_counts(
    g: Multigraph, s: Iterable[int], t: Iterable[int]
) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """Label G-S-T once and count each component's edges to T and to S.

    Returns ``(comps, label, to_t, to_s)``: the components of G-S-T in the
    order of ``Multigraph.components``, each vertex's component index (-1
    for vertices of S and T), and per component the number of edges to T
    and to S.  As in ``Multigraph.cross_edge_count``, loops never count and
    parallel edges count with their multiplicity.  S and T must be disjoint.
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
    for _, u, v in g.edges():
        cu, cv = label[u], label[v]
        if cu >= 0 and cv < 0:
            (to_t if v in st else to_s)[cu] += 1
        elif cv >= 0 and cu < 0:
            (to_t if u in st else to_s)[cv] += 1
    return comps, label, to_t, to_s


def t_odd_profile(g: Multigraph, s: Iterable[int], t: Iterable[int]) -> OddComponentProfile:
    """Classify the T-odd components of G-S-T by their edge counts to T and S."""
    _, _, to_t, to_s = component_edge_counts(g, s, t)
    pairs = list(zip(to_t, to_s))
    return OddComponentProfile(
        q1=sum(1 for x, y in pairs if x == 1 and y == 0),
        q2=sum(1 for x, y in pairs if x == 1 and y > 0),
        q3=sum(1 for x, _ in pairs if x % 2 == 1 and x > 1),
    )


def q_count(g: Multigraph, ell: int, s: Iterable[int], t: Iterable[int]) -> int:
    """Number of components Q of G-S-T with cross(Q,T) + ℓ|Q| odd."""
    if ell < 1:
        raise ValueError(f"factor degree must be >= 1, got {ell}")
    comps, _, to_t, _ = component_edge_counts(g, s, t)
    return sum((x + ell * len(c)) % 2 for c, x in zip(comps, to_t))


def tutte_deficiency(g: Multigraph, ell: int, s: Iterable[int], t: Iterable[int]) -> int:
    """q(S,T) - d_{G-S}(T) - ℓ(|S| - |T|); positive means (S,T) is a witness."""
    ss = set(s)
    st = set(t)
    q = q_count(g, ell, ss, st)
    d = g.degree_sum_minus(ss, st)
    return q - d - ell * (len(ss) - len(st))


def exhaustive_tutte_oracle(g: Multigraph, ell: int, cap: int = ORACLE_CAP) -> TutteWitness | None:
    """Scan all disjoint (S,T) pairs for a criterion violation.

    Returns the lexicographically first maximum-deficiency witness, or None
    when no pair violates the criterion (i.e. an ℓ-factor exists).  The
    scan is 3^n, so graphs above `cap` vertices are refused.
    """
    if ell < 1:
        raise ValueError(f"factor degree must be >= 1, got {ell}")
    n = g.n
    if n > cap:
        raise ValueError(f"oracle refuses {n} vertices (cap {cap}; the scan is 3^n)")

    nbr = [0] * n  # adjacency masks, loops dropped
    loops = [0] * n
    plain: list[tuple[int, int]] = []
    for _, u, v in g.edges():
        if u == v:
            loops[u] += 1
        else:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            plain.append((u, v))
    full = (1 << n) - 1
    ell_odd = ell % 2 == 1

    best: TutteWitness | None = None
    for union in range(full + 1):
        rest = full & ~union
        # components of the graph minus `union`, as bitmasks
        comp_of = [-1] * n
        comps: list[int] = []
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
            idx = len(comps)
            comps.append(seen)
            cm = seen
            while cm:
                b = cm & -cm
                cm ^= b
                comp_of[b.bit_length() - 1] = idx
            remaining &= ~seen
        size_parity = [c.bit_count() & 1 for c in comps]

        # per-component parity masks over `union`, per-vertex edge counts
        # into the rest, and the list of edges inside `union`
        pmask = [0] * len(comps)
        to_rest = [0] * n
        intra: list[tuple[int, int]] = []
        for u, v in plain:
            ub, vb = 1 << u, 1 << v
            u_in = ub & union
            v_in = vb & union
            if u_in and v_in:
                intra.append((ub, vb))
            elif u_in:
                pmask[comp_of[v]] ^= ub
                to_rest[u] += 1
            elif v_in:
                pmask[comp_of[u]] ^= vb
                to_rest[v] += 1

        t_mask = union
        while True:
            s_mask = union ^ t_mask
            q = 0
            for i, pm in enumerate(pmask):
                odd = (pm & t_mask).bit_count() & 1
                if ell_odd:
                    odd ^= size_parity[i]
                q += odd
            d = 0
            tm = t_mask
            while tm:
                b = tm & -tm
                tm ^= b
                v = b.bit_length() - 1
                d += to_rest[v] + 2 * loops[v]
            for ub, vb in intra:
                if ub & t_mask and vb & t_mask:
                    d += 2
            deficiency = q - d - ell * (s_mask.bit_count() - t_mask.bit_count())
            if deficiency > 0:
                if best is None or deficiency > best.deficiency:
                    best = _witness(s_mask, t_mask, q, d, deficiency)
                elif deficiency == best.deficiency:
                    cand = _witness(s_mask, t_mask, q, d, deficiency)
                    if (cand.S, cand.T) < (best.S, best.T):
                        best = cand
            if t_mask == 0:
                break
            t_mask = (t_mask - 1) & union
    return best


def _witness(s_mask: int, t_mask: int, q: int, d: int, deficiency: int) -> TutteWitness:
    return TutteWitness(_bits(s_mask), _bits(t_mask), q, d, deficiency)


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


def build_factor_gadget(g: Multigraph, ell: int) -> tuple[Multigraph, dict[int, int]]:
    """Reduce ℓ-factor existence to perfect matching.

    For each vertex v: one external node per edge-endpoint incidence (a
    loop yields two) plus ``degree(v) - ℓ`` internal nodes joined to all of
    v's external nodes.  Each original edge becomes a single gadget edge
    between one external node of each endpoint.  The gadget has a perfect
    matching iff g has an ℓ-factor, and the factor consists of the original
    edges whose gadget edge is matched.

    Returns the gadget and the map from gadget edge id to original edge id
    (edge-gadget edges only).
    """
    if ell < 1:
        raise ValueError(f"factor degree must be >= 1, got {ell}")
    degs = [g.degree(v) for v in range(g.n)]
    short = [v for v, d in enumerate(degs) if d < ell]
    if short:
        raise ValueError(f"no {ell}-factor: vertex {short[0]} has degree {degs[short[0]]}")

    ext_base = [0] * g.n
    int_base = [0] * g.n
    total = 0
    for v in range(g.n):
        ext_base[v] = total
        total += degs[v]
        int_base[v] = total
        total += degs[v] - ell
    gadget = Multigraph(total)

    slot = [0] * g.n
    edge_map: dict[int, int] = {}
    for eid, u, v in g.edges():
        a = ext_base[u] + slot[u]
        slot[u] += 1
        b = ext_base[v] + slot[v]
        slot[v] += 1
        edge_map[gadget.add_edge(a, b)] = eid
    for v in range(g.n):
        for i in range(degs[v] - ell):
            for s in range(degs[v]):
                gadget.add_edge(int_base[v] + i, ext_base[v] + s)
    return gadget, edge_map


def find_factor(g: Multigraph, ell: int) -> FactorResult | None:
    """An ℓ-factor of g if one exists, else None."""
    if ell < 1:
        raise ValueError(f"factor degree must be >= 1, got {ell}")
    if g.n == 0:
        return FactorResult((), ell)
    if min(g.degree(v) for v in range(g.n)) < ell:
        return None
    if (ell * g.n) % 2 == 1:
        return None
    gadget, edge_map = build_factor_gadget(g, ell)
    matched = max_matching(gadget)
    if 2 * len(matched) < gadget.n:
        return None
    chosen = tuple(sorted(edge_map[ge] for ge in matched if ge in edge_map))
    result = FactorResult(chosen, ell)
    result.validate(g)
    return result


def has_2k_factor(g: Multigraph, k: int) -> bool:
    """Whether g has a spanning subgraph that is 2k-regular."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return find_factor(g, 2 * k) is not None
