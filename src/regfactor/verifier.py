"""Desk-scale verification of the factor guarantees and the extremal
characterization.

Three claims are checked computationally, instance by instance:

* guarantee — every (2r+1)-regular multigraph with at most 2r-3(k-1)
  cut-edges has a 2k-factor (for 3k <= 2r+1);
* characterization — a (2r+1)-regular graph with exactly 2r+4-3k
  cut-edges has no 2k-factor iff its vertices partition into R, S, T
  satisfying the six structural conditions (a)-(f) below, and in that case
  five counting equalities hold at (S, T);
* sharpness — the clique-block construction is (2t+1)-connected,
  (2r+1)-regular, and loses its 2k-factors exactly when
  2k(2t+1) > 2t(2r+1).

Conditions (a)-(f) for a partition R, S, T of V(G):
  (a) S and T are independent sets with |T| > |S|;
  (b) all cut-edges join T to distinct components of G[R];
  (c) all edges at S lead to T, possibly through a patch component of
      G[R] sending exactly one edge to S and one to T;
  (d) exactly k(|T|-|S|)-1 components of G[R] send exactly three edges
      to T;
  (e) every remaining component of G[R] is a full (2r+1)-regular
      bridgeless component;
  (f) if 3k < 2r+1 then |T|-|S| = 1.

A certificate is re-checked, never searched for: ``characterization_check``
tries at most three candidate partitions, the last one the barrier of the
degree gadget's maximum matching (``factor.gadget_witness``).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import asdict, dataclass, field

from .connectivity import bridges, vertex_connectivity
from .factor import (
    ORACLE_CAP,
    component_edge_counts,
    exhaustive_tutte_oracle,
    find_factor,
    gadget_witness,
    tutte_deficiency,
    FactorResult,
    OddComponentProfile,
    TutteWitness,
)
from .generators import (
    BswParams,
    ExtremalParams,
    bridged_chain,
    bsw_graph,
    extremal_parameter_grid,
    general_extremal_with_partition,
    random_connected_regular_multigraph,
)
from .multigraph import Multigraph


@dataclass(frozen=True)
class PartitionCertificate:
    """An (R, S, T) partition with per-condition verdicts and the equality ledger."""

    R: tuple[int, ...]
    S: tuple[int, ...]
    T: tuple[int, ...]
    conditions: dict[str, bool]
    equalities: tuple[bool, bool, bool, bool, bool]

    @property
    def all_conditions_hold(self) -> bool:
        return all(self.conditions.values())

    @property
    def all_equalities_hold(self) -> bool:
        return all(self.equalities)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    """One instance-level verdict, serializable as a JSON object.

    ``run_task`` sets ``millis`` to the wall time of the task's graph build
    and verdict; a verifier called directly leaves it at 0.0."""

    instance: str
    r: int
    k: int
    p: int
    hypothesis_met: bool
    factor_found: bool
    passed: bool
    millis: float = 0.0
    witness: TutteWitness | None = None
    certificate: PartitionCertificate | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "instance": self.instance,
            "r": self.r,
            "k": self.k,
            "p": self.p,
            "hypothesisMet": self.hypothesis_met,
            "factorFound": self.factor_found,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.details:
            out["details"] = self.details
        out["pass"] = self.passed
        out["millis"] = self.millis
        return out


def check_conditions_a_f(g: Multigraph, r: int, k: int, s, t, cut: list[int]) -> dict[str, bool]:
    """Evaluate conditions (a)-(f) literally for R = V - S - T, the vertices
    ``component_edge_counts`` labels; `cut` is g's cut-edge list,
    ``bridges(g)``.  S and T must be disjoint sets of vertices of g."""
    s_set, t_set = set(s), set(t)
    deg = 2 * r + 1
    comps, comp_of, to_t, to_s, (inside_s, _, inside_t) = component_edge_counts(g, s_set, t_set)

    cond_a = inside_s == 0 and inside_t == 0 and len(t_set) > len(s_set)

    cond_b = True
    bridge_comps = []
    for eid in cut:
        u, v = g.edge(eid)
        in_t = [x for x in (u, v) if x in t_set]
        in_r = [x for x in (u, v) if comp_of[x] >= 0]
        if len(in_t) != 1 or len(in_r) != 1:
            cond_b = False
            break
        bridge_comps.append(comp_of[in_r[0]])
    cond_b = cond_b and len(set(bridge_comps)) == len(bridge_comps)

    patch_like = {ci for ci in range(len(comps)) if to_s[ci] == 1 and to_t[ci] == 1}
    cond_c = inside_s == 0 and all(ci in patch_like for ci in range(len(comps)) if to_s[ci])

    cond_d = sum(1 for x in to_t if x == 3) == k * (len(t_set) - len(s_set)) - 1

    referenced = set(bridge_comps) | patch_like | {ci for ci in range(len(comps)) if to_t[ci] == 3}
    cut_comps = {comp_of[g.edge(eid)[0]] for eid in cut}
    cond_e = all(
        not (to_t[ci] or to_s[ci] or ci in cut_comps)
        and all(g.degree(v) == deg for v in comp)
        for ci, comp in enumerate(comps)
        if ci not in referenced
    )

    cond_f = 3 * k == 2 * r + 1 or len(t_set) - len(s_set) == 1

    return {"a": cond_a, "b": cond_b, "c": cond_c, "d": cond_d, "e": cond_e, "f": cond_f}


def check_extremal_equalities(g, k, s, t, cut) -> tuple[bool, bool, bool, bool, bool]:
    """The five counting equalities that hold with the defining (S, T) of an
    extremal graph: q1 = p, q2 = cross(R,S), q1+q2+3q3 = d_{G-S}(T),
    (2r+1)|S| = cross(T,S)+cross(R,S), and the |T|-|S| size rule; `cut` is
    g's cut-edge list, ``bridges(g)``."""
    deg = g.regular_degree()
    if deg is None or deg % 2 == 0 or deg < 3:
        raise ValueError("equality ledger requires a (2r+1)-regular graph")
    s_set, t_set = set(s), set(t)
    _, _, to_t, to_s, (_, ts, _) = component_edge_counts(g, s_set, t_set)
    profile = OddComponentProfile.from_counts(to_t, to_s)
    rs = sum(to_s)
    d = deg * len(t_set) - ts
    diff = len(t_set) - len(s_set)
    return (
        profile.q1 == len(cut),
        profile.q2 == rs,
        profile.q1 + profile.q2 + 3 * profile.q3 == d,
        deg * len(s_set) == ts + rs,
        diff >= 1 and (3 * k == deg or diff == 1),
    )


def _certificate(g: Multigraph, r: int, k: int, s, t, cut: list[int]) -> PartitionCertificate:
    """The partition R = V - S - T with its verdicts (a)-(f) and equality ledger."""
    s, t = set(s), set(t)
    conditions = check_conditions_a_f(g, r, k, s, t, cut)
    r_part = tuple(v for v in range(g.n) if v not in s and v not in t)
    equalities = check_extremal_equalities(g, k, s, t, cut)
    return PartitionCertificate(r_part, tuple(sorted(s)), tuple(sorted(t)), conditions, equalities)


def _orient_bridges(g: Multigraph, cut: list[int]) -> set[int] | None:
    """Orient each cut-edge by the blocks of G minus its cut-edges: the end
    in a block holding no other cut-edge end is pendant, the end in a block
    holding two or more is the anchor.

    Returns the anchors, or None when a cut-edge has two ends of one kind.
    """
    cut_set = set(cut)
    rest = ((u, v) for eid, u, v in g.edges() if eid not in cut_set)
    blocks = Multigraph.from_edges(g.n, rest).components()
    block_of = [0] * g.n
    for b, block in enumerate(blocks):
        for v in block:
            block_of[v] = b
    ends = [0] * len(blocks)
    for eid in cut:
        for v in g.edge(eid):
            ends[block_of[v]] += 1

    anchors: set[int] = set()
    for eid in cut:
        u, v = g.edge(eid)
        u_pendant, v_pendant = ends[block_of[u]] == 1, ends[block_of[v]] == 1
        if u_pendant == v_pendant:
            return None
        anchors.add(v if u_pendant else u)
    return anchors


def _candidate_partitions(g: Multigraph, k: int, cut: list[int]):
    """Candidate (S, T) pairs for the certificate search, in the order given
    in ``characterization_check``."""
    if g.n <= ORACLE_CAP:
        witness = exhaustive_tutte_oracle(g, 2 * k)
        if witness is not None:
            yield set(witness.S), set(witness.T)
    anchors = _orient_bridges(g, cut)
    if anchors is not None:
        yield set(), anchors
    yield gadget_witness(g, 2 * k)


def _check_rk(r: int, k: int) -> None:
    if k < 1 or 3 * k > 2 * r + 1:
        raise ValueError(f"k must satisfy 1 <= k <= (2r+1)/3, got k={k}")


def characterization_check(g: Multigraph, r: int, k: int) -> PartitionCertificate | None:
    """Both directions of the extremal characterization on one graph.

    Requires 1 <= k <= (2r+1)/3 and exactly 2r+4-3k cut-edges.  Returns
    None when the graph has a 2k-factor; otherwise returns the first
    candidate (S, T) that passes (a)-(f), with the equality ledger attached:
    the oracle's witness (n <= 14), then S = ∅ with T the anchors of the
    oriented cut-edges, then the degree gadget's barrier.
    """
    _check_rk(r, k)
    deg = 2 * r + 1
    if g.regular_degree() != deg:
        raise ValueError(f"characterization applies to {deg}-regular graphs")
    expected = 2 * r + 4 - 3 * k
    cut = bridges(g)
    if len(cut) != expected:
        raise ValueError(f"expected exactly {expected} cut-edges, found {len(cut)}")
    if find_factor(g, 2 * k) is not None:
        return None

    for s_set, t_set in _candidate_partitions(g, k, cut):
        cert = _certificate(g, r, k, s_set, t_set, cut)
        if cert.all_conditions_hold:
            return cert
    raise ValueError("graph has no 2k-factor but no candidate partition passed (a)-(f)")


# -- single-instance verifications ---------------------------------------------


def verify_main_theorem(g: Multigraph, r: int, k: int, instance: str) -> VerificationReport:
    """Check the cut-edge guarantee on one (2r+1)-regular multigraph.

    When the graph has at most 2r-3(k-1) cut-edges the report passes iff a
    2k-factor is found; with more cut-edges no claim is made and the report
    passes vacuously, marked hypothesis_met=False.
    """
    deg = 2 * r + 1
    if g.regular_degree() != deg:
        raise ValueError(f"graph is not {deg}-regular")
    _check_rk(r, k)
    p = len(bridges(g))
    hypothesis = p <= 2 * r - 3 * (k - 1)
    factor = find_factor(g, 2 * k) if hypothesis else None
    passed = (not hypothesis) or factor is not None
    witness = None
    if hypothesis and factor is None and g.n <= ORACLE_CAP:
        witness = exhaustive_tutte_oracle(g, 2 * k)
    return VerificationReport(
        instance=instance,
        r=r,
        k=k,
        p=p,
        hypothesis_met=hypothesis,
        factor_found=factor is not None,
        passed=passed,
        witness=witness,
        details={"n": g.n, "m": g.m, "cutEdgeBound": 2 * r - 3 * (k - 1)},
    )


def verify_bsw(params: BswParams, k: int) -> VerificationReport:
    """Build the clique-block graph and check regularity, connectivity, and
    the 2k-factor boundary 2k(2t+1) <= 2t(2r+1)."""
    r, t = params.r, params.t
    if not 1 <= k <= r:
        # a (2r+1)-regular host has no factor of degree 2k > 2r+1
        raise ValueError(f"need 1 <= k <= r, got k={k}, r={r}")
    g = bsw_graph(params)
    deg_ok = g.regular_degree() == 2 * r + 1
    kappa = vertex_connectivity(g)
    connectivity_ok = kappa >= 2 * t + 1
    expect_factor = 2 * k * (2 * t + 1) <= 2 * t * (2 * r + 1)
    factor = find_factor(g, 2 * k)
    details: dict = {
        "n": g.n,
        "vertexConnectivity": kappa,
        "expectFactor": expect_factor,
        "hubEdgesNeeded": 2 * k * (2 * t + 1),
        "hubEdgeCapacity": 2 * t * (2 * r + 1),
    }
    if factor is not None:
        # each copy is tied to the hub by a (2t+1)-edge cut, so an even
        # factor can use at most 2t of those edges
        crossings = _hub_crossings(g, factor, 2 * t + 1)
        details["copyCrossings"] = crossings
        crossings_ok = all(c % 2 == 0 and c <= 2 * t for c in crossings)
    else:
        crossings_ok = True
    passed = deg_ok and connectivity_ok and crossings_ok and (expect_factor == (factor is not None))
    return VerificationReport(
        instance=f"bsw-r{r}-t{t}-k{k}",
        r=r,
        k=k,
        p=0,
        hypothesis_met=True,
        factor_found=factor is not None,
        passed=passed,
        details=details,
    )


def _hub_crossings(g: Multigraph, factor: FactorResult, hub: int) -> list[int]:
    """The factor's edges from the hub, vertices 0..hub-1, to each component of
    G - hub, in ``component_edge_counts`` order: by least vertex, so copy by copy."""
    comps, label, _, _, _ = component_edge_counts(g, (), range(hub))
    counts = [0] * len(comps)
    for eid in factor.edge_ids:
        lo, hi = sorted(label[x] for x in g.edge(eid))
        if lo < 0:  # a hub end; the hub is independent, so `hi` labels a copy
            counts[hi] += 1
    return counts


def parity_audit(g: Multigraph, k: int, trials: int, seed: int) -> VerificationReport:
    """Sample random disjoint (S, T) and confirm q(S,T) and d_{G-S}(T)
    always share a parity (even target degree 2k)."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        s_set, t_set = set(), set()
        for v in range(g.n):
            roll = rng.randrange(3)
            if roll == 1:
                s_set.add(v)
            elif roll == 2:
                t_set.add(v)
        # for ℓ = 2k the deficiency has the parity of q - d
        if tutte_deficiency(g, 2 * k, s_set, t_set) % 2:
            violations += 1
    deg = g.regular_degree()
    return VerificationReport(
        instance=f"parity-n{g.n}-m{g.m}-k{k}",
        r=((deg - 1) // 2) if deg is not None and deg % 2 == 1 else -1,
        k=k,
        p=len(bridges(g)),
        hypothesis_met=True,
        factor_found=False,
        passed=violations == 0,
        details={"trials": trials, "violations": violations},
    )


def verify_extremal_instance(params: ExtremalParams, seed: int = 0) -> VerificationReport:
    """One extremal construction: exact cut-edge count, no 2k-factor, a
    passing certificate at the construction partition, full equality ledger."""
    g, s_verts, t_verts = general_extremal_with_partition(params, seed)
    cut = bridges(g)
    p = len(cut)
    p_ok = p == params.cut_edges
    factor = find_factor(g, 2 * params.k)
    cert = _certificate(g, params.r, params.k, s_verts, t_verts, cut)
    passed = p_ok and factor is None and cert.all_conditions_hold and cert.all_equalities_hold
    return VerificationReport(
        instance=f"extremal-r{params.r}-k{params.k}-t{params.size_t}-s{params.size_s}"
        f"-b{params.blister_count}-x{params.extra_components}",
        r=params.r,
        k=params.k,
        p=p,
        hypothesis_met=True,
        factor_found=factor is not None,
        passed=passed,
        certificate=cert,
        details={"n": g.n, "m": g.m, "expectedCutEdges": params.cut_edges},
    )


def verify_control_instance(r: int, k: int) -> VerificationReport:
    """Converse control: same cut-edge count, but a 2k-factor exists, so the
    characterization must produce no certificate."""
    p = 2 * r + 4 - 3 * k
    g = bridged_chain(r, p)
    # characterization_check raises unless g has exactly p cut-edges
    cert = characterization_check(g, r, k)
    factor = find_factor(g, 2 * k)
    passed = cert is None and factor is not None
    return VerificationReport(
        instance=f"control-chain-r{r}-k{k}",
        r=r,
        k=k,
        p=p,
        hypothesis_met=True,
        factor_found=factor is not None,
        passed=passed,
        details={"n": g.n, "certificateReturned": cert is not None},
    )


# -- batch sweeps (task lists keep them picklable for --jobs) -------------------

RK_PAIRS = [(1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]  # the battery's (r, k) cells
RT_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 1)]  # and its (r, t) sharpness cells


def main_sweep_tasks(r: int, k: int, trials: int, seed: int, sizes=(6, 8, 10, 12, 14)) -> list[tuple]:
    _check_rk(r, k)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return [
        ("main", {"r": r, "k": k, "n": sizes[i % len(sizes)], "seed": seed * 1_000_003 + i, "index": i})
        for i in range(trials)
    ]


def charzn_sweep_tasks(r: int, k: int) -> list[tuple]:
    tasks: list[tuple] = [("extremal", {**asdict(p), "seed": 0}) for p in extremal_parameter_grid(r, k)]
    tasks.append(("control", {"r": r, "k": k}))
    return tasks


def bsw_sweep_tasks(r: int, t: int, k: int | None = None) -> list[tuple]:
    BswParams(r, t)  # raises unless 1 <= t < r, before an empty task list can pass
    boundary = (t * (2 * r + 1)) // (2 * t + 1)  # 1 <= t < r puts it in 1..r-1
    ks = [k] if k is not None else [boundary, boundary + 1]
    return [("bsw", {"r": r, "t": t, "k": kk}) for kk in ks]


def battery_tasks(trials: int, seed: int) -> list[tuple]:
    """All three claims at every battery cell: charzn over ``RK_PAIRS``, bsw
    over ``RT_PAIRS``, then ``trials`` main tasks per ``RK_PAIRS`` cell."""
    tasks = [task for r, k in RK_PAIRS for task in charzn_sweep_tasks(r, k)]
    tasks += [task for r, t in RT_PAIRS for task in bsw_sweep_tasks(r, t)]
    return tasks + [task for r, k in RK_PAIRS for task in main_sweep_tasks(r, k, trials, seed)]


def run_task(task: tuple) -> VerificationReport:
    """Build the task's graph, run its verifier, and time both into ``millis``."""
    kind, a = task
    start = time.perf_counter()
    if kind == "main":
        g = random_connected_regular_multigraph(a["n"], 2 * a["r"] + 1, a["seed"])
        instance = f"main-r{a['r']}-k{a['k']}-n{a['n']}-i{a['index']}"
        report = verify_main_theorem(g, a["r"], a["k"], instance=instance)
    elif kind == "extremal":
        fields = {key: value for key, value in a.items() if key != "seed"}
        report = verify_extremal_instance(ExtremalParams(**fields), a["seed"])
    elif kind == "control":
        report = verify_control_instance(a["r"], a["k"])
    elif kind == "bsw":
        report = verify_bsw(BswParams(a["r"], a["t"]), a["k"])
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    report.millis = (time.perf_counter() - start) * 1000.0
    return report


def run_tasks(tasks: list[tuple], jobs: int = 1) -> list[VerificationReport]:
    """Execute sweep tasks, optionally across processes; output order is the
    task order regardless of completion order.  At most one worker process
    per task and per CPU is started.  Tasks go to the workers in chunks of
    about a quarter of each worker's share, since one task takes less time
    than sending it."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [run_task(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_task, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
