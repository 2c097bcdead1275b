"""Acceptance battery: one test per top-level claim, exact combinatorial
checks, fixed seeds.  Each test prints a single PASS line with its headline
numbers (run pytest with -s to see them)."""

import json
import random
import time

from regfactor.connectivity import bridges, vertex_connectivity
from regfactor.factor import (
    exhaustive_tutte_oracle,
    find_factor,
    has_2k_factor,
    q_count,
    t_odd_profile,
    tutte_deficiency,
)
from regfactor.generators import (
    BswParams,
    ExtremalParams,
    bridged_chain,
    bsw_graph,
    complete_graph,
    extremal_parameter_grid,
    general_extremal,
    general_extremal_with_partition,
    random_multigraph,
    random_regular_multigraph,
)
from regfactor.verifier import (
    RK_PAIRS,
    characterization_check,
    main_sweep_tasks,
    run_tasks,
    verify_bsw,
    verify_extremal_instance,
)

from helpers import assert_lines_pinned, factor_degrees


def _announce(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_sylvester_reproduction():
    start = time.perf_counter()
    g = general_extremal(ExtremalParams(1, 1, size_t=1))
    assert g.regular_degree() == 3
    cut = bridges(g)
    assert len(cut) == 3
    assert find_factor(g, 2) is None
    witness = exhaustive_tutte_oracle(g, 2)
    assert witness is not None and witness.deficiency > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, f"sylvester(1,1): 3-regular, 3 cut-edges, no 2-factor by solver and oracle ({elapsed:.2f}s)")


def test_criterion_2_main_theorem_sweep():
    start = time.perf_counter()
    checked = 0
    hypothesis_met = 0
    failures = []
    for r, k in RK_PAIRS:
        reports = run_tasks(main_sweep_tasks(r, k, trials=200, seed=1))
        for rep in reports:
            checked += 1
            hypothesis_met += rep.hypothesis_met
            if not rep.passed:
                failures.append(rep.instance)
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert checked == 1400
    assert elapsed < 300.0
    _announce(
        2,
        f"guarantee sweep: {checked} random connected odd-regular multigraphs over {len(RK_PAIRS)} "
        f"(r,k) pairs, {hypothesis_met} within the cut-edge bound, 0 failures ({elapsed:.1f}s)",
    )


def test_criterion_3_oracle_solver_equivalence():
    start = time.perf_counter()
    disagreements = 0
    trials = 0
    # every instance's witness (null where a factor exists) is pinned in
    # tests/data/criterion3_witnesses.jsonl, which pins the maximum-deficiency
    # tie-break at n = 2-12 and names each instance whose witness moved
    lines = []
    for i in range(2020):
        ell = (1, 2, 3, 4, 6)[i % 5]
        if i % 101 == 100:
            n = 11 + (i // 101) % 2
        elif i % 13 == 12:
            n = 9 + (i // 13) % 2
        else:
            n = 2 + i % 7
        if i % 3 == 0:
            d = 2 + i % 4
            if (n * d) % 2 == 1:
                d += 1
            g = random_regular_multigraph(n, d, seed=10_000 + i)
        else:
            g = random_multigraph(n, (i * 13) % (2 * n + 3), seed=20_000 + i)
        witness = exhaustive_tutte_oracle(g, ell)
        factor = find_factor(g, ell)
        trials += 1
        lines.append(json.dumps({"i": i, "n": n, "ell": ell, "witness": None if witness is None else witness.to_json()}))
        if (witness is None) != (factor is not None):
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert trials >= 2000
    assert disagreements == 0
    assert_lines_pinned(lines, "criterion3_witnesses.jsonl", "i")
    _announce(3, f"oracle/solver equivalence: {trials} instances, ell in {{1,2,3,4,6}}, 0 disagreements ({elapsed:.1f}s)")


def test_criterion_4_characterization_both_directions():
    start = time.perf_counter()
    extremal_count = 0
    for r, k in RK_PAIRS:
        for params in extremal_parameter_grid(r, k):
            rep = verify_extremal_instance(params)
            assert rep.passed, (params, rep.to_json())
            assert rep.p == 2 * r + 4 - 3 * k
            assert not rep.factor_found
            assert rep.certificate.all_conditions_hold
            assert rep.certificate.all_equalities_hold
            extremal_count += 1
        # converse: same cut-edge count, factor exists, no certificate
        control = bridged_chain(r, 2 * r + 4 - 3 * k)
        assert characterization_check(control, r, k) is None
        assert has_2k_factor(control, k)
    elapsed = time.perf_counter() - start
    _announce(
        4,
        f"characterization: {extremal_count} extremal instances certified, {len(RK_PAIRS)} "
        f"factor-bearing controls rejected ({elapsed:.1f}s)",
    )


def test_criterion_5_figure_fixture():
    g, s, t = general_extremal_with_partition(ExtremalParams(1, 1, size_t=3, size_s=1, blister_count=1))
    profile = t_odd_profile(g, s, t)
    assert (profile.q1, profile.q2, profile.q3) == (3, 1, 1)
    assert g.degree_sum_minus(s, t) == 7
    assert tutte_deficiency(g, 2, s, t) == 2
    _announce(5, "blistered fixture: (q1,q2,q3)=(3,1,1), d_{G-S}(T)=7, criterion slack +2")


def test_criterion_6_bsw_sharpness():
    start = time.perf_counter()
    g = bsw_graph(BswParams(2, 1))
    assert g.n == 38
    assert g.regular_degree() == 5
    assert vertex_connectivity(g) == 3
    rep_no = verify_bsw(BswParams(2, 1), k=2)
    rep_yes = verify_bsw(BswParams(2, 1), k=1)
    assert rep_no.passed and not rep_no.factor_found
    assert rep_yes.passed and rep_yes.factor_found
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(6, f"sharpness graph: 38 vertices, 5-regular, 3-connected, no 4-factor, has 2-factor ({elapsed:.1f}s)")


def test_criterion_7_parity_audit():
    start = time.perf_counter()
    rng = random.Random(99)
    violations = 0
    trials = 0
    graph = None
    for i in range(10_000):
        if i % 25 == 0:
            n = rng.randrange(3, 12)
            if rng.random() < 0.4:
                d = rng.choice([3, 5])
                if (n * d) % 2 == 1:
                    n += 1
                graph = random_regular_multigraph(n, d, seed=rng.randrange(1 << 30))
            else:
                graph = random_multigraph(n, rng.randrange(0, 2 * n + 4), seed=rng.randrange(1 << 30))
        k = rng.randrange(1, 4)
        s_set, t_set = set(), set()
        for v in range(graph.n):
            roll = rng.randrange(3)
            if roll == 1:
                s_set.add(v)
            elif roll == 2:
                t_set.add(v)
        q = q_count(graph, 2 * k, s_set, t_set)
        d_val = graph.degree_sum_minus(s_set, t_set)
        trials += 1
        if (q - d_val) % 2 != 0:
            violations += 1
    elapsed = time.perf_counter() - start
    assert trials == 10_000
    assert violations == 0
    _announce(7, f"parity audit: 10000 random (G,S,T,k) trials, q(S,T) = d_{{G-S}}(T) mod 2 throughout ({elapsed:.1f}s)")


def test_criterion_8_factor_validity_and_even_cuts():
    start = time.perf_counter()
    rng = random.Random(512)
    emitted = []
    emitted.append((complete_graph(4), find_factor(complete_graph(4), 2)))
    emitted.append((bsw_graph(BswParams(2, 1)), find_factor(bsw_graph(BswParams(2, 1)), 2)))
    for r, k in RK_PAIRS:
        chain = bridged_chain(r, 2 * r + 4 - 3 * k)
        emitted.append((chain, find_factor(chain, 2 * k)))
    for i in range(6):
        n = 6 + 2 * (i % 3)
        d = (3, 5, 7)[i % 3]
        g = random_regular_multigraph(n, d, seed=7_000 + i)
        factor = find_factor(g, 2)
        if factor is not None:
            emitted.append((g, factor))
    assert len(emitted) >= 10
    for g, factor in emitted:
        assert factor is not None
        degs = factor_degrees(g, factor.edge_ids)
        assert degs == [factor.ell] * g.n  # exact degree everywhere, loops twice
        chosen_pairs = [g.edge(eid) for eid in factor.edge_ids]
        for _ in range(1000):
            side = {v for v in range(g.n) if rng.random() < 0.5}
            crossing = sum(1 for u, v in chosen_pairs if (u in side) != (v in side))
            assert crossing % 2 == 0
    elapsed = time.perf_counter() - start
    _announce(
        8,
        f"factor validity: {len(emitted)} factors, exact target degree at every vertex, "
        f"1000 random bipartitions each crossed evenly ({elapsed:.1f}s)",
    )
