"""The per-layer tracer in perfbench/ wraps regfactor functions by name and
reads their results in hooks; a name it lists that regfactor no longer has,
or a return shape a hook no longer understands, must fail here, not in a
traced benchmark run.  perfbench/workloads.py keeps its own copy of the
battery cells, which must stay the package's."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import ModuleType

import regfactor
from regfactor.verifier import RK_PAIRS, RT_PAIRS

from helpers import reference_gadget

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name: str, path: Path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_package_root_binds_only_modules(monkeypatch):
    # each name has one import path, its module's; the tracer reaches names through seven modules
    tracing = _load(monkeypatch, "perfbench_tracing", PERFBENCH / "tracing.py")
    public = {name: value for name, value in vars(regfactor).items() if not name.startswith("_")}
    assert all(isinstance(value, ModuleType) for value in public.values()), sorted(public)
    traced = {*tracing.LAYER_FUNCTIONS, "generators", "multigraph"}
    assert traced == {"connectivity", "factor", "generators", "io", "matching", "multigraph", "verifier"}
    assert traced <= set(public)
    assert regfactor.__version__ == "0.1.0"


def test_tracer_installs_and_restores(monkeypatch):
    tracing = _load(monkeypatch, "perfbench_tracing", PERFBENCH / "tracing.py")

    bridges = regfactor.verifier.bridges
    find_factor = regfactor.factor.find_factor
    count = vars(regfactor.multigraph.Multigraph)["cross_edge_count"]
    tracer = tracing.Tracer()
    try:
        tracer.install(regfactor)
        assert regfactor.verifier.bridges is not bridges
        assert regfactor.factor.find_factor is not find_factor
        assert vars(regfactor.multigraph.Multigraph)["cross_edge_count"] is not count
    finally:
        tracer.restore()
    assert regfactor.verifier.bridges is bridges
    assert regfactor.factor.find_factor is find_factor
    assert vars(regfactor.multigraph.Multigraph)["cross_edge_count"] is count


def test_every_hook_reads_a_real_result(monkeypatch):
    tracing = _load(monkeypatch, "perfbench_tracing", PERFBENCH / "tracing.py")
    # the one-hub graph: 10 vertices, 3 cut-edges, no 2-factor
    g = regfactor.generators.general_extremal(regfactor.generators.ExtremalParams(1, 1, size_t=1))
    cert = regfactor.verifier.characterization_check(g, 1, 1)
    # max_matching takes a simple Multigraph; build_factor_gadget returns adjacency lists
    gadget = reference_gadget(regfactor.generators.complete_graph(4), 2)[0]
    # hooked name -> (arguments of one real call, the caller the hook is told of)
    calls = {
        "max_matching": ((gadget,), None),
        "build_factor_gadget": ((g, 2), None),
        "find_factor": ((g, 2), None),
        "exhaustive_tutte_oracle": ((g, 2), None),
        "vertex_connectivity": ((g,), None),
        "check_conditions_a_f": ((g, 1, 1, cert.S, cert.T, regfactor.connectivity.bridges(g)), "characterization_check"),
        "characterization_check": ((g, 1, 1), None),
    }
    assert set(calls) == set(tracing._HOOKS)
    layer_of = {fname: layer for layer, fnames in tracing.LAYER_FUNCTIONS.items() for fname in fnames}
    for fname, (args, parent) in calls.items():
        fn = getattr(getattr(regfactor, layer_of[fname]), fname)
        counts = Counter()
        tracing._HOOKS[fname](counts, args, fn(*args), None, parent)
        assert counts, fname


def test_workloads_battery_cells_match_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its siblings by name
    before = set(sys.modules)
    try:
        workloads = _load(monkeypatch, "perfbench_workloads", PERFBENCH / "workloads.py")
    finally:
        for name in {"checks", "tracing"} - before:
            sys.modules.pop(name, None)
    assert workloads.RK_PAIRS == RK_PAIRS
    assert workloads.RT_PAIRS == RT_PAIRS
