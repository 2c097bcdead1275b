"""Per-layer tracing of regfactor from outside the package.

The traced run replaces each layer's public functions with a wrapper that
records one span per call: name, start, end, parent span and the operation
(instance) it belongs to.  A function is replaced at every module
attribute through which callers reach it, so ``regfactor.verifier.bridges``
is traced as well as ``regfactor.connectivity.bridges``; ``Multigraph``
counting methods are replaced on the class.  Nothing under ``src/`` is
modified, and the originals are put back by ``restore``.

Self time is computed as each span closes: its duration minus the time its
direct child spans covered.  Spans stay in memory (flat arrays) and are
written out once, at the end of the run.

Functions not listed here (``Multigraph.edge``, ``incident``, ...) are too
fine-grained to wrap without distorting the run; their time lands in the
self time of the listed caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYER_FUNCTIONS = {
    "matching": ("max_matching", "maximum_matching_adjacency"),
    "factor": (
        "build_factor_gadget",
        "find_factor",
        "has_2k_factor",
        "exhaustive_tutte_oracle",
        "q_count",
        "t_odd_profile",
        "tutte_deficiency",
    ),
    "connectivity": ("bridges", "is_connected", "edge_connectivity", "vertex_connectivity"),
    "io": ("from_mgf", "to_mgf", "from_graph6", "to_graph6", "to_dot"),
    "verifier": (
        "characterization_check",
        "check_conditions_a_f",
        "check_extremal_equalities",
        "verify_main_theorem",
        "verify_bsw",
        "verify_extremal_instance",
        "verify_control_instance",
        "parity_audit",
        "run_task",
        "run_tasks",
    ),
}
MULTIGRAPH_METHODS = (
    "cross_edge_count",
    "induced_edge_count",
    "degree_sum",
    "degree_sum_minus",
    "components",
    "induced_subgraph",
    "regular_degree",
    "is_simple",
)
COUNT_METHODS = ("cross_edge_count", "induced_edge_count", "degree_sum", "degree_sum_minus")
LAYERS = ("matching", "factor", "connectivity", "multigraph", "verifier", "generators", "io")


def patch_everywhere(rf, target, replacement) -> list[tuple[object, str, object]]:
    """Point every regfactor module attribute that is `target` at `replacement`.

    Returns (owner, attribute, previous value) triples for ``unpatch``.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == rf.__name__ or name.startswith(rf.__name__ + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)
    return undo


def unpatch(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


class Tracer:
    """Span recorder and per-layer accumulator for one traced loop."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.span_id = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_keys: list[str] = []
        self.tag = ""
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._undo: list = []
        self.origin = perf_counter()

    # -- installation ------------------------------------------------------

    def install(self, rf) -> None:
        for layer, fnames in LAYER_FUNCTIONS.items():
            module = getattr(rf, layer)
            for fname in fnames:
                self._wrap_function(rf, layer, fname, getattr(module, fname))
        gen = rf.generators
        for fname, fn in inspect.getmembers(gen, inspect.isfunction):
            if fn.__module__ == gen.__name__ and not fname.startswith("_"):
                self._wrap_function(rf, "generators", fname, fn)
        cls = rf.multigraph.Multigraph
        for fname in MULTIGRAPH_METHODS:
            original = vars(cls)[fname]
            self._undo.append((cls, fname, original))
            setattr(cls, fname, self._wrapper("multigraph", fname, original))

    def _wrap_function(self, rf, layer: str, fname: str, fn) -> None:
        self._undo.extend(patch_everywhere(rf, fn, self._wrapper(layer, fname, fn)))

    def restore(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def begin_op(self, key: str, tag: str) -> None:
        """Spans from here on belong to the operation on instance `key`."""
        self.op_keys.append(key)
        self.tag = tag

    # -- recording ---------------------------------------------------------

    def _wrapper(self, layer: str, fname: str, fn):
        self.layer_of[fname] = layer
        name_id = len(self.names)
        self.names.append(fname)
        hook = _HOOKS.get(fname)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span, fname, 0.0]
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.self_s[(fname, self.tag)] += duration - frame[2]
                self.calls[fname] += 1
                self.span_id.append(span)
                self.span_name.append(name_id)
                self.span_start.append(start - self.origin)
                self.span_end.append(end - self.origin)
                self.span_parent.append(parent[0] if parent is not None else -1)
                self.span_op.append(len(self.op_keys) - 1)
                if hook is not None:
                    hook(self.counts, args, result, error, parent[1] if parent else None)

        return traced

    # -- results -----------------------------------------------------------

    def self_time(self, fnames, tag: str | None = None) -> float:
        return sum(
            secs
            for (fname, t), secs in self.self_s.items()
            if fname in fnames and (tag is None or t == tag)
        )

    def metrics(self, wall_s: float, matching_bands, oracle_sizes) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; the layer self times plus the residual sum to `wall_s`.

        Matching and oracle self time are also split by the size tag of the
        operation, for the sizes `guarantee` and `oracle` use.
        """
        st = self.self_time
        calls = self.calls
        counts = self.counts
        out: dict[str, tuple[float, str]] = {}
        matching = ("max_matching", "maximum_matching_adjacency")
        out["matching.max_matching.self_s"] = (st(matching), "s")
        for band in matching_bands:
            out[f"matching.max_matching.self_s.n{band}"] = (st(matching, f"n{band}"), "s")
        out["matching.exposed"] = (counts["exposed"], "count")
        out["factor.gadget.self_s"] = (st(("build_factor_gadget",)), "s")
        out["factor.gadget.nodes"] = (counts["gadget_nodes"], "count")
        out["factor.gadget.edges"] = (counts["gadget_edges"], "count")
        out["factor.find_factor.calls"] = (calls["find_factor"], "count")
        out["factor.find_factor.self_s"] = (st(("find_factor",)), "s")
        out["factor.find_factor.found_frac"] = (_ratio(counts["found"], calls["find_factor"]), "ratio")
        oracle = ("exhaustive_tutte_oracle",)
        out["factor.oracle.calls"] = (calls["exhaustive_tutte_oracle"], "count")
        out["factor.oracle.self_s"] = (st(oracle), "s")
        for n in oracle_sizes:
            out[f"factor.oracle.self_s.n{n}"] = (st(oracle, f"n{n}"), "s")
        out["factor.oracle.pairs"] = (counts["oracle_pairs"], "count")
        out["factor.oracle.witness_frac"] = (
            _ratio(counts["witnesses"], calls["exhaustive_tutte_oracle"]),
            "ratio",
        )
        out["connectivity.vertex_connectivity.self_s"] = (st(("vertex_connectivity",)), "s")
        out["connectivity.flow_pairs"] = (counts["flow_pairs"], "count")
        out["connectivity.bridges.calls"] = (calls["bridges"], "count")
        out["connectivity.bridges.self_s"] = (st(("bridges",)), "s")
        out["multigraph.count.calls"] = (sum(calls[f] for f in COUNT_METHODS), "count")
        out["multigraph.count.self_s"] = (st(COUNT_METHODS), "s")
        out["multigraph.components.self_s"] = (st(("components",)), "s")
        out["verifier.certificate.self_s"] = (st(("characterization_check",)), "s")
        out["verifier.certificate.candidates"] = (counts["candidates"], "count")
        out["verifier.certificate.hit_frac"] = (
            _ratio(counts["certificates"], counts["candidates"]),
            "ratio",
        )
        out["verifier.certificate.budget_exhausted"] = (counts["budget_exhausted"], "count")
        out["verifier.conditions.self_s"] = (
            st(("check_conditions_a_f", "check_extremal_equalities")),
            "s",
        )
        out["verifier.report.self_s"] = (
            st(
                (
                    "verify_main_theorem",
                    "verify_bsw",
                    "verify_extremal_instance",
                    "verify_control_instance",
                    "run_task",
                )
            ),
            "s",
        )
        out["io.parse.self_s"] = (st(("from_mgf",)), "s")
        layered = 0.0
        for layer in LAYERS:
            secs = st({f for f, lay in self.layer_of.items() if lay == layer})
            layered += secs
            out[f"{layer}.self_s"] = (secs, "s")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.residual_s"] = (wall_s - layered, "s")
        out["trace.spans"] = (len(self.span_id), "count")
        return out

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line (gzip), in closing order;
        `instance` is the key of the operation the span belongs to."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tinstance\n")
            names, keys = self.names, self.op_keys
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{keys[self.span_op[i]]}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- counters recorded where the work happens ---------------------------------


def _max_matching(counts, args, result, error, parent) -> None:
    if result is not None:
        counts["exposed"] += args[0].n - 2 * len(result)


def _gadget(counts, args, result, error, parent) -> None:
    if result is not None:
        gadget, _ = result
        counts["gadget_nodes"] += gadget.n
        counts["gadget_edges"] += gadget.m


def _find_factor(counts, args, result, error, parent) -> None:
    counts["found"] += result is not None


def _oracle(counts, args, result, error, parent) -> None:
    if error is None:
        counts["oracle_pairs"] += 3 ** args[0].n
        counts["witnesses"] += result is not None


def _vertex_connectivity(counts, args, result, error, parent) -> None:
    g = args[0]
    adjacent = {(u, v) for _, u, v in g.edges() if u != v}
    counts["flow_pairs"] += g.n * (g.n - 1) // 2 - len(adjacent)


def _conditions(counts, args, result, error, parent) -> None:
    if parent == "characterization_check":
        counts["candidates"] += 1


def _certificate(counts, args, result, error, parent) -> None:
    if result is not None:
        counts["certificates"] += 1
    if error is not None and "search budget" in str(error):
        counts["budget_exhausted"] += 1


_HOOKS = {
    "max_matching": _max_matching,
    "build_factor_gadget": _gadget,
    "find_factor": _find_factor,
    "exhaustive_tutte_oracle": _oracle,
    "vertex_connectivity": _vertex_connectivity,
    "check_conditions_a_f": _conditions,
    "characterization_check": _certificate,
}
