"""Undirected multigraph with loops, parallel edges, and stable edge ids.

Vertices are dense integers ``0..n-1``.  Edges carry integer ids
``0..m-1`` assigned in insertion order and never renumbered, so parallel
copies stay individually addressable.  Edges are only ever added.

Counting conventions, used consistently by every operation:

* a loop contributes 2 to the degree of its vertex,
* a loop is listed once in the incidence of its vertex,
* a loop counts once toward the number of edges induced by a vertex set,
* a loop never counts toward any cross count between disjoint sets.

With these conventions, for any partition of the vertices into disjoint
sets A, B, C:  ``degree_sum(A) = 2*induced_edge_count(A)
+ cross_edge_count(A, B) + cross_edge_count(A, C)``.

Graphs are mutable while being built and should be treated as immutable
afterwards; all query methods are read-only.
"""

from __future__ import annotations

from collections.abc import Iterable


class Multigraph:
    """Vertex/edge incidence structure permitting loops and parallel edges."""

    __slots__ = ("_n", "_edges", "_inc", "_deg")

    def __init__(self, n: int = 0):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._n = n
        self._edges: list[tuple[int, int]] = []
        self._inc: list[list[int]] = [[] for _ in range(n)]
        self._deg: list[int] = [0] * n

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Multigraph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def add_vertices(self, count: int) -> list[int]:
        if count < 0:
            raise ValueError(f"vertex count must be non-negative, got {count}")
        new = list(range(self._n, self._n + count))
        self._inc.extend([] for _ in new)
        self._deg.extend(0 for _ in new)
        self._n += len(new)
        return new

    def add_edge(self, u: int, v: int) -> int:
        """Add an edge (u == v makes a loop) and return its id."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u > v:
            u, v = v, u
        eid = len(self._edges)
        self._edges.append((u, v))
        self._inc[u].append(eid)
        if u != v:
            self._inc[v].append(eid)
        self._deg[u] += 1
        self._deg[v] += 1
        return eid

    def edge(self, eid: int) -> tuple[int, int]:
        """Endpoints of an edge (equal endpoints mean a loop)."""
        if not (0 <= eid < len(self._edges)):
            raise ValueError(f"unknown edge id {eid}")
        return self._edges[eid]

    def edges(self) -> list[tuple[int, int, int]]:
        """Edges as (eid, u, v), in id order."""
        return [(i, u, v) for i, (u, v) in enumerate(self._edges)]

    def incident(self, v: int) -> list[int]:
        """Ids of edges incident to v, loops listed once."""
        self._check_vertex(v)
        return list(self._inc[v])

    def __eq__(self, other: object) -> bool:
        """Same vertex count and same edge multiset (insertion order ignored)."""
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._n == other._n and sorted(self._edges) == sorted(other._edges)

    def __repr__(self) -> str:
        return f"Multigraph(n={self._n}, m={self.m})"

    # -- counting primitives -----------------------------------------------

    def degree(self, v: int) -> int:
        """Edge-endpoint incidences at v; each loop contributes 2."""
        self._check_vertex(v)
        return self._deg[v]

    def degree_sum(self, vertices: Iterable[int]) -> int:
        """Sum of degrees over a vertex set."""
        t = self._as_set(vertices)
        return sum(self._deg[v] for v in t)

    def induced_edge_count(self, vertices: Iterable[int]) -> int:
        """Number of edges with both endpoints in the set (loops count once)."""
        t = self._as_set(vertices)
        return sum(1 for u, v in self._edges if u in t and v in t)

    def cross_edge_count(self, a: Iterable[int], b: Iterable[int]) -> int:
        """Number of edges with one endpoint in a and the other in b.

        The sets must be disjoint; loops never cross.
        """
        sa = self._as_set(a)
        sb = self._as_set(b)
        if sa & sb:
            raise ValueError(f"vertex sets overlap: {sorted(sa & sb)}")
        count = 0
        for u, v in self._edges:
            if (u in sa and v in sb) or (u in sb and v in sa):
                count += 1
        return count

    def degree_sum_minus(self, s: Iterable[int], t: Iterable[int]) -> int:
        """Degree sum of the set t in the graph with s deleted.

        Equals ``cross(R, t) + 2*induced(t)`` where R is everything else.
        """
        ss = self._as_set(s)
        st = self._as_set(t)
        if ss & st:
            raise ValueError(f"vertex sets overlap: {sorted(ss & st)}")
        return self.degree_sum(st) - self.cross_edge_count(st, ss)

    # -- components and subgraphs -------------------------------------------

    def components(self, exclude: Iterable[int] = ()) -> list[list[int]]:
        """Connected components of the graph induced on V minus `exclude`.

        Each component is a sorted vertex list; components are ordered by
        their minimum vertex id.
        """
        ex = self._as_set(exclude)
        seen = [False] * self._n
        out: list[list[int]] = []
        for start in range(self._n):
            if seen[start] or start in ex:
                continue
            comp = [start]
            seen[start] = True
            stack = [start]
            while stack:
                v = stack.pop()
                for eid in self._inc[v]:
                    u, w = self._edges[eid]
                    nxt = w if u == v else u
                    if not seen[nxt] and nxt not in ex:
                        seen[nxt] = True
                        comp.append(nxt)
                        stack.append(nxt)
            comp.sort()
            out.append(comp)
        return out

    def induced_subgraph(self, keep: Iterable[int]) -> "Multigraph":
        """Subgraph on `keep`, vertices renumbered in sorted order."""
        ks = sorted(self._as_set(keep))
        index = {v: i for i, v in enumerate(ks)}
        g = Multigraph(len(ks))
        for u, v in self._edges:
            if u in index and v in index:
                g.add_edge(index[u], index[v])
        return g

    # -- convenience --------------------------------------------------------

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        if self._n == 0:
            return None
        d = self._deg[0]
        return d if all(x == d for x in self._deg) else None

    def is_simple(self) -> bool:
        """True if the graph has no loop and no parallel pair."""
        seen: set[tuple[int, int]] = set()
        for e in self._edges:
            if e[0] == e[1] or e in seen:
                return False
            seen.add(e)
        return True

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise ValueError(f"unknown vertex {v} (graph has {self._n} vertices)")

    def _as_set(self, vertices: Iterable[int]) -> set[int]:
        s = set(vertices)
        for v in s:
            self._check_vertex(v)
        return s
