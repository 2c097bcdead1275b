"""The per-layer tracer in perfbench/ wraps regfactor functions by name; a
name it lists that regfactor no longer has must fail here, not in a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

import regfactor

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    bridges = regfactor.verifier.bridges
    find_factor = regfactor.factor.find_factor
    count = vars(regfactor.Multigraph)["cross_edge_count"]
    tracer = tracing.Tracer()
    try:
        tracer.install(regfactor)
        assert regfactor.verifier.bridges is not bridges
        assert regfactor.factor.find_factor is not find_factor
        assert vars(regfactor.Multigraph)["cross_edge_count"] is not count
    finally:
        tracer.restore()
    assert regfactor.verifier.bridges is bridges
    assert regfactor.factor.find_factor is find_factor
    assert vars(regfactor.Multigraph)["cross_edge_count"] is count
