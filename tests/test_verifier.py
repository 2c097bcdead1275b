import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regfactor import cli, verifier
from regfactor.connectivity import bridges
from regfactor.factor import TutteWitness, exhaustive_tutte_oracle, has_2k_factor
from regfactor.generators import (
    BswParams,
    ExtremalParams,
    bridged_chain,
    complete_graph,
    extremal_parameter_grid,
    general_extremal,
    petersen_graph,
    random_regular_multigraph,
)
from regfactor.multigraph import Multigraph
from regfactor.verifier import (
    RK_PAIRS,
    RT_PAIRS,
    _orient_bridges,
    bsw_sweep_tasks,
    characterization_check,
    charzn_sweep_tasks,
    check_conditions_a_f,
    check_extremal_equalities,
    main_sweep_tasks,
    parity_audit,
    run_task,
    run_tasks,
    verify_bsw,
    verify_control_instance,
    verify_extremal_instance,
    verify_main_theorem,
)

from helpers import assert_lines_pinned, bridged_blocks, multigraphs, naive_bridge_orientation, naive_conditions


# -- guarantee -------------------------------------------------------------------


def test_main_theorem_k4(k4):
    rep = verify_main_theorem(k4, 1, 1, "k4")
    assert rep.hypothesis_met and rep.factor_found and rep.passed
    assert rep.p == 0


def test_main_theorem_sylvester_hypothesis_not_met():
    rep = verify_main_theorem(general_extremal(ExtremalParams(1, 1, size_t=1)), 1, 1, "sylvester")
    assert not rep.hypothesis_met  # 3 cut-edges > 2
    assert rep.passed  # no claim made


def test_main_theorem_rejects_irregular(k4):
    with pytest.raises(ValueError, match="regular"):
        verify_main_theorem(Multigraph.from_edges(3, [(0, 1)]), 1, 1, "irregular")
    with pytest.raises(ValueError, match="k must"):
        verify_main_theorem(k4, 1, 2, "k4")


def test_main_theorem_small_batch():
    reports = run_tasks(main_sweep_tasks(2, 1, trials=25, seed=3))
    assert len(reports) == 25
    assert all(rep.passed for rep in reports)
    assert any(rep.hypothesis_met for rep in reports)


# -- structural conditions ---------------------------------------------------------


def test_conditions_figure1(figure1):
    g, s, t = figure1
    conditions = check_conditions_a_f(g, 1, 1, s, t, bridges(g))
    assert all(conditions.values())


def test_conditions_swapped_sets_fail_a(figure1):
    g, s, t = figure1
    conditions = check_conditions_a_f(g, 1, 1, t, s, bridges(g))
    assert not conditions["a"]  # |T| > |S| violated


def test_conditions_k4_fail_d(k4):
    conditions = check_conditions_a_f(k4, 1, 1, set(), {0}, bridges(k4))
    assert not conditions["d"]
    assert not all(conditions.values())


def test_conditions_require_partition(k4):
    # R is what S and T leave, so S and T alone must be disjoint vertex sets
    for s, t, match in [({1}, {1, 2}, "overlap"), (set(), {4}, "unknown vertex"), ({-1}, {0, 1}, "unknown vertex")]:
        with pytest.raises(ValueError, match=match):
            check_conditions_a_f(k4, 1, 1, s, t, bridges(k4))


@settings(max_examples=300)
@given(st.one_of(multigraphs(max_n=10, max_m=14), bridged_blocks()), st.data())
def test_conditions_match_naive(g, data):
    # every verdict, failing partitions included: verify_extremal_instance
    # reports all six
    roles = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    r = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, (2 * r + 1) // 3))
    r_set, s_set, t_set = ({v for v, role in enumerate(roles) if role == i} for i in range(3))
    conditions = check_conditions_a_f(g, r, k, s_set, t_set, bridges(g))
    assert conditions == naive_conditions(g, r, k, r_set, s_set, t_set)


# -- equality ledger ----------------------------------------------------------------


def test_equalities_figure1(figure1):
    g, s, t = figure1
    assert check_extremal_equalities(g, 1, s, t, bridges(g)) == (True, True, True, True, True)


def test_equalities_k4_single_vertex(k4):
    # q1 = p = 0 holds; K_4-{v} is one triple-attached component, so the
    # remaining counts balance too: the ledger alone does not certify
    # extremality (the criterion slack does)
    assert check_extremal_equalities(k4, 1, set(), {0}, bridges(k4)) == (True, True, True, True, True)


def test_equalities_k4_two_vertices(k4):
    eqs = check_extremal_equalities(k4, 1, set(), {0, 1}, bridges(k4))
    assert eqs[2] is False  # q1+q2+3q3 = 0 but d_{G-S}(T) = 6


def test_equalities_require_regular():
    g = Multigraph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="regular"):
        check_extremal_equalities(g, 1, set(), {0}, bridges(g))


def test_equalities_overlap_rejected(k4):
    with pytest.raises(ValueError, match="overlap"):
        check_extremal_equalities(k4, 1, {0, 1}, {1}, bridges(k4))


# -- characterization, both directions ------------------------------------------------


def test_characterization_sylvester():
    cert = characterization_check(general_extremal(ExtremalParams(1, 1, size_t=1)), 1, 1)
    assert cert is not None
    assert cert.S == () and len(cert.T) == 1
    assert cert.all_conditions_hold and cert.all_equalities_hold


def test_characterization_figure1(figure1):
    g, _, _ = figure1
    cert = characterization_check(g, 1, 1)  # n=18, beyond the oracle cap
    assert cert is not None
    assert cert.all_conditions_hold and cert.all_equalities_hold


def test_characterization_hand_example_r4_k3():
    # ROADMAP item 13's hand example, in the (4, 3) cell that no sampler
    # reaches: a hub; three leaves with 4 loops and one edge to the hub; two
    # vertices with 3 loops and a triple edge to the hub.  9-regular, 3
    # cut-edges, no 6-factor; its loops and triple edges reach the oracle's
    # loop and parallel-edge terms.
    edges = []
    for leaf in (1, 2, 3):
        edges += [(leaf, leaf)] * 4 + [(0, leaf)]
    for v in (4, 5):
        edges += [(v, v)] * 3 + [(0, v)] * 3
    g = Multigraph.from_edges(6, edges)
    assert g.regular_degree() == 9 and len(bridges(g)) == 3
    assert not has_2k_factor(g, 3)
    assert exhaustive_tutte_oracle(g, 6) == TutteWitness((), (0,), 5, 9, 2)
    cert = characterization_check(g, 4, 3)
    assert (cert.R, cert.S, cert.T) == ((1, 2, 3, 4, 5), (), (0,))
    assert cert.all_conditions_hold and cert.all_equalities_hold


def test_characterization_wrong_bridge_count(k4):
    with pytest.raises(ValueError, match="cut-edges"):
        characterization_check(k4, 1, 1)


@pytest.mark.parametrize(
    "g, r",
    [(complete_graph(4), 2), (Multigraph.from_edges(3, [(0, 1), (1, 2)]), 1)],
    ids=["k4-as-5-regular", "path"],
)
def test_characterization_rejects_wrong_degree(g, r):
    with pytest.raises(ValueError, match=f"characterization applies to {2 * r + 1}-regular graphs"):
        characterization_check(g, r, 1)


@pytest.mark.parametrize(
    "g, r, k",
    [(complete_graph(4), 1, 2), (petersen_graph(), 1, 2), (complete_graph(6), 2, 3)],
    ids=["k4", "petersen", "k6"],
)
def test_characterization_rejects_k_out_of_range(g, r, k):
    with pytest.raises(ValueError, match=r"k must satisfy 1 <= k <= \(2r\+1\)/3"):
        characterization_check(g, r, k)


# certificates pinned from the search's candidate order
_PINNED_CERTIFICATES = [
    # the oracle's maximum-deficiency witness (n = 10)
    (ExtremalParams(1, 1, size_t=1, size_s=0), range(1, 10), [], [0]),
    # the gadget's barrier (n = 24), after the cut-edge anchors fail (a)-(f)
    (ExtremalParams(2, 1, size_t=2, size_s=1, blister_count=1), range(3, 24), [2], [0, 1]),
    # the gadget's barrier (n = 26), after the cut-edge anchors fail (a)-(f)
    (ExtremalParams(3, 2, size_t=2, size_s=1, blister_count=1), range(3, 26), [2], [0, 1]),
]


@pytest.mark.parametrize(
    "params, r_set, s_set, t_set", _PINNED_CERTIFICATES, ids=["oracle", "r2-gadget", "r3-gadget"]
)
def test_characterization_certificates_pinned(params, r_set, s_set, t_set):
    cert = characterization_check(general_extremal(params), params.r, params.k)
    expected = {
        "R": list(r_set),
        "S": s_set,
        "T": t_set,
        "conditions": dict.fromkeys("abcdef", True),
        "equalities": [True] * 5,
    }
    assert json.dumps(cert.to_json()) == json.dumps(expected)


def test_every_grid_cell_certified():
    # every r <= 4 cell at seed 0, the blistered b2, the r4k3 t3s1 and the
    # two n = 14 cells (whose first candidate is the oracle's 3^14 scan)
    # included
    certs = []
    for r, k in RK_PAIRS:
        for params in extremal_parameter_grid(r, k):
            cert = characterization_check(general_extremal(params), r, k)
            assert cert.all_conditions_hold and cert.all_equalities_hold, params
            certs.append(cert.to_json())
    assert len(certs) == 72
    # the exact (S, T) of every cell, in grid order
    digest = hashlib.sha256(json.dumps(certs).encode()).hexdigest()
    assert digest == "2975db240240495aee5b807be2324b98069d841183b849bfd86c2df6f872e369"


def test_certificate_search_finds_cut_edges_once(monkeypatch):
    calls = {"bridges": 0, "candidates": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(verifier, "bridges", counted("bridges", verifier.bridges))
    monkeypatch.setattr(
        verifier, "check_conditions_a_f", counted("candidates", verifier.check_conditions_a_f)
    )
    params = _PINNED_CERTIFICATES[1][0]
    assert characterization_check(general_extremal(params), params.r, params.k) is not None
    # the search's own call, not one per candidate or per equality ledger;
    # the anchors, then the gadget's barrier
    assert calls == {"bridges": 1, "candidates": 2}


@settings(max_examples=200)
@given(st.one_of(multigraphs(max_n=10, max_m=14), bridged_blocks()))
def test_orient_bridges_matches_naive(g):
    cut = bridges(g)
    assert _orient_bridges(g, cut) == naive_bridge_orientation(g, cut)


def test_orient_bridges_fixed_cases():
    g = general_extremal(ExtremalParams(1, 1, size_t=1))
    cut = bridges(g)
    (hub,) = set.intersection(*(set(g.edge(eid)) for eid in cut))
    assert _orient_bridges(g, cut) == {hub}
    chain = bridged_chain(1, 3)
    assert _orient_bridges(chain, bridges(chain)) is None


def test_characterization_control_returns_none():
    chain = bridged_chain(1, 3)
    assert characterization_check(chain, 1, 1) is None
    assert has_2k_factor(chain, 1)


def test_extremal_and_control_reports():
    rep = verify_extremal_instance(ExtremalParams(2, 1, size_t=2, size_s=1, blister_count=1))
    assert rep.passed
    assert rep.certificate is not None and rep.certificate.all_equalities_hold
    ctrl = verify_control_instance(2, 1)
    assert ctrl.passed and ctrl.factor_found


# -- sharpness construction ------------------------------------------------------------


def test_bsw_no_4_factor():
    rep = verify_bsw(BswParams(2, 1), k=2)
    assert rep.passed and not rep.factor_found
    assert rep.details["vertexConnectivity"] >= 3
    assert rep.details["hubEdgesNeeded"] > rep.details["hubEdgeCapacity"]


@pytest.mark.parametrize("r, t", [*RT_PAIRS, (4, 3), (5, 2)])
def test_bsw_2_factor_exists(r, t):
    # the sweep's first k is the factor side of the boundary.  Each of the
    # 2r+1 copies is tied to the hub by a (2t+1)-edge cut, which an even
    # factor crosses an even number of times, at most 2t; the hub is
    # independent, so each of its 2k(2t+1) factor edges crosses to a copy
    (_, a), _ = bsw_sweep_tasks(r, t)
    rep = verify_bsw(BswParams(r, t), a["k"])
    assert rep.passed and rep.factor_found
    crossings = rep.details["copyCrossings"]
    assert len(crossings) == 2 * r + 1
    assert all(c % 2 == 0 and c <= 2 * t for c in crossings)
    assert sum(crossings) == rep.details["hubEdgesNeeded"]


def test_bsw_r3_no_6_factor():
    rep = verify_bsw(BswParams(3, 1), k=3)  # 3 > 7/3
    assert rep.passed and not rep.factor_found


@pytest.mark.parametrize(
    "r, t, ks", [(2, 1, [1, 2]), (3, 1, [2, 3]), (3, 2, [2, 3]), (4, 1, [3, 4])]
)
def test_bsw_sweep_tasks_default_k_straddles_boundary(r, t, ks):
    assert bsw_sweep_tasks(r, t) == [("bsw", {"r": r, "t": t, "k": k}) for k in ks]


def test_bsw_sweep_tasks_default_k_straddles_boundary_every_cell():
    # the default pair is the last k with a 2k-factor, 2k(2t+1) <= 2t(2r+1),
    # and the first without one, both within 1..r for every 1 <= t < r
    for r in range(2, 31):
        for t in range(1, r):
            below, above = (a["k"] for _, a in bsw_sweep_tasks(r, t))
            assert 1 <= below and above == below + 1 and above <= r, (r, t)
            assert below * (2 * t + 1) <= t * (2 * r + 1) < above * (2 * t + 1), (r, t)


# -- parity audit ------------------------------------------------------------------------


def test_parity_audit_batch():
    g = random_regular_multigraph(8, 3, seed=2)
    rep = parity_audit(g, k=1, trials=1000, seed=5)
    assert rep.passed
    assert rep.details == {"trials": 1000, "violations": 0}


def test_parity_audit_counts_every_violation(monkeypatch):
    # an odd deficiency on every sampled pair must be counted once per trial
    monkeypatch.setattr(verifier, "tutte_deficiency", lambda g, ell, s, t: 1)
    rep = parity_audit(random_regular_multigraph(8, 3, seed=2), k=1, trials=7, seed=5)
    assert rep.passed is False
    assert rep.details == {"trials": 7, "violations": 7}


# -- report serialization -------------------------------------------------------------------


def test_report_json_schema(k4):
    rep = verify_main_theorem(k4, 1, 1, instance="unit")
    data = rep.to_json()
    assert data["instance"] == "unit"
    for key in ("r", "k", "p", "hypothesisMet", "factorFound", "pass", "millis"):
        assert key in data


def test_main_theorem_failure_carries_oracle_witness(k4, monkeypatch):
    # the hypothesis holds but the solver finds no factor: the report fails
    # and its JSON carries the oracle's witness
    witness = TutteWitness(S=(), T=(0,), q=3, d=3, deficiency=2)
    monkeypatch.setattr(verifier, "find_factor", lambda g, ell: None)
    monkeypatch.setattr(verifier, "exhaustive_tutte_oracle", lambda g, ell: witness)
    rep = verify_main_theorem(k4, 1, 1, "k4")
    assert rep.hypothesis_met and not rep.factor_found
    assert rep.passed is False
    assert rep.witness == witness
    data = rep.to_json()
    assert data["witness"] == witness.to_json()
    assert data["pass"] is False


@pytest.mark.parametrize(
    "tasks",
    [main_sweep_tasks(1, 1, trials=8, seed=9), charzn_sweep_tasks(1, 1), bsw_sweep_tasks(2, 1)],
    ids=["main", "charzn", "bsw"],
)
def test_run_tasks_parallel_matches_serial(tasks):
    serial = [rep.to_json() for rep in run_tasks(tasks, jobs=1)]
    parallel = [rep.to_json() for rep in run_tasks(tasks, jobs=2)]
    for a, b in zip(serial, parallel):
        a.pop("millis")
        b.pop("millis")
    assert serial == parallel


def test_battery_verify_lines_pinned(capsys):
    # every battery cell's `verify` JSON line, millis removed, five main trials
    # per cell at seed 0: byte for byte and in order as tests/data/battery_verify_lines.jsonl
    assert cli.main(["verify", "battery", "--trials", "5", "--seed", "0"]) == 0
    lines = []
    for line in capsys.readouterr().out.splitlines():
        data = json.loads(line)
        data.pop("millis")
        lines.append(json.dumps(data))
    assert_lines_pinned(lines, "battery_verify_lines.jsonl", "instance")
    assert len(lines) == 122


def test_run_task_owns_the_clock(k4):
    tasks = [
        main_sweep_tasks(1, 1, trials=1, seed=0)[0],
        *charzn_sweep_tasks(1, 1)[-2:],  # the last extremal task and the control
        bsw_sweep_tasks(2, 1, k=1)[0],
    ]
    assert [kind for kind, _ in tasks] == ["main", "extremal", "control", "bsw"]
    assert all(run_task(task).millis > 0 for task in tasks)
    assert verify_main_theorem(k4, 1, 1, "k4").millis == 0.0


def test_run_tasks_starts_no_more_workers_than_tasks(monkeypatch):
    import concurrent.futures

    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    tasks = main_sweep_tasks(1, 1, trials=2, seed=9)
    pooled = [rep.to_json() for rep in run_tasks(tasks, jobs=64)]
    assert started == [2]
    serial = [rep.to_json() for rep in run_tasks(tasks, jobs=1)]
    for a, b in zip(pooled, serial):
        a.pop("millis")
        b.pop("millis")
    assert pooled == serial
    run_tasks(tasks[:1], jobs=64)
    run_tasks([], jobs=64)
    assert started == [2]  # one task or none runs in-process
    # nor more than one per CPU: `--jobs 5000` must not fork 5,000 processes
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run_tasks(main_sweep_tasks(1, 1, trials=6, seed=9), jobs=5000)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: in-process
    run_tasks(tasks, jobs=5000)
    assert started == [2, 4]
