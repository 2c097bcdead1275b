"""The workloads and their four instance families: what one operation is,
how inputs are built from the seed, which answers are known in advance,
and what goes into the digest.

Every operation brings one instance to a verdict through the same
regfactor entry points that ``regfactor verify`` / ``regfactor check``
use, in one process with one closed-loop caller (``jobs=1``, no pool).
Each family is built so that one layer does most of its work while the
other families barely touch that layer.  A workload runs two families:
`guarantee-sharpness` the solver's and max-flow's, `oracle-certify` the
witness searches' (the 3^n oracle and the certificate search).  No layer
does most of its work in both workloads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from checks import criterion_counts, factor_error
from tracing import patch_everywhere, unpatch

# the battery's (r, k) and (r, t) cells, as in scripts/run_verification.py
RK_PAIRS = [(1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
RT_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 1)]


@dataclass
class Op:
    key: str  # names the instance; equal keys must give equal outputs
    tag: str  # size label used to split per-layer time ("n240", "n11")
    payload: object
    family: "Family | None" = None  # set by Workload.build


@dataclass
class Outcome:
    passed: bool = True
    error: str | None = None
    report: object = None
    witness: object = None
    certificate: object = None
    graph: object = None
    ell: int = 0
    factors: list = field(default_factory=list)  # (g, ell, result) of each find_factor call


class FactorCapture:
    """Records every ``find_factor`` call, so that factors the verifiers
    compute but do not return can be re-validated and digested."""

    def __init__(self, rf) -> None:
        self.calls: list = []
        original = rf.factor.find_factor

        @functools.wraps(original)
        def find_factor(g, ell):
            result = original(g, ell)
            self.calls.append((g, ell, result))
            return result

        self._undo = patch_everywhere(rf, original, find_factor)

    def restore(self) -> None:
        unpatch(self._undo)


def _report_json(report) -> dict:
    out = report.to_json()
    del out["millis"]
    return out


def _factor_json(factors) -> list:
    return [None if res is None else sorted(res.edge_ids) for _, _, res in factors]


def _factor_errors(factors) -> list[str]:
    out = []
    for g, ell, res in factors:
        if res is not None:
            err = factor_error(g, ell, res.edge_ids)
            if err:
                out.append(err)
    return out


class Family:
    """One kind of instance and its verdict; perfbench/README.md says why
    each was chosen."""

    name = ""

    def build(self, rf, seed: int) -> list[Op]:
        """The family's instances for a seed, from the seed alone."""
        raise NotImplementedError

    def warmup(self, rf) -> Op:
        raise NotImplementedError

    def execute(self, rf, op: Op) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, out: Outcome) -> list[str]:
        """Known-answer mismatches of one successful operation."""
        raise NotImplementedError

    def canonical(self, op: Op, out: Outcome) -> dict:
        raise NotImplementedError

    def reference(self, rf) -> list[Op]:
        """The seed-independent instances whose outputs the digest pins."""
        return self.build(rf, 0)


class Guarantee(Family):
    name = "guarantee"
    bands = (30, 80, 240)
    sizes = bands[:1] * 5 + bands[1:]  # per (r,k) cell: 5 x n30, 1 x n80, 1 x n240

    def build(self, rf, seed):
        ops = []
        for r, k in RK_PAIRS:
            for kind, a in rf.verifier.main_sweep_tasks(r, k, len(self.sizes), seed * 1000, self.sizes):
                key = f"s{seed}p0/r{r}k{k}n{a['n']}i{a['index']}"
                ops.append(Op(key, f"n{a['n']}", (kind, a)))
        return ops

    def warmup(self, rf):
        return Op("warmup", "", ("main", {"r": 2, "k": 1, "n": 30, "seed": 0, "index": 0}))

    def execute(self, rf, op):
        report = rf.verifier.run_task(op.payload)
        return Outcome(passed=report.passed, report=report)

    def check(self, op, out):
        errors = _factor_errors(out.factors)
        if out.report.factor_found and not any(res for _, _, res in out.factors):
            errors.append("report claims a factor that find_factor never returned")
        return errors

    def canonical(self, op, out):
        return {"report": _report_json(out.report), "factors": _factor_json(out.factors)}


class Sharpness(Family):
    name = "sharpness"

    def build(self, rf, seed):
        ops = []
        for r, t in RT_PAIRS:
            n = 2 * t + 1 + (2 * r + 1) * (2 * r + 3)
            for kind, a in rf.verifier.bsw_sweep_tasks(r, t):
                ops.append(Op(f"bsw-r{r}-t{t}-k{a['k']}", f"n{n}", (kind, a)))
        return ops

    def warmup(self, rf):
        return Op("warmup", "", ("bsw", {"r": 2, "t": 1, "k": 2}))

    def execute(self, rf, op):
        report = rf.verifier.run_task(op.payload)
        return Outcome(passed=report.passed, report=report)

    def check(self, op, out):
        a = op.payload[1]
        r, t, k = a["r"], a["t"], a["k"]
        errors = _factor_errors(out.factors)
        expect = 2 * k * (2 * t + 1) <= 2 * t * (2 * r + 1)
        if out.report.factor_found != expect:
            errors.append(f"factor presence {out.report.factor_found}, expected {expect}")
        return errors

    def canonical(self, op, out):
        return {"report": _report_json(out.report), "factors": _factor_json(out.factors)}


class Oracle(Family):
    name = "oracle"
    slots = (9,) * 6 + (10,) * 6 + (11,) * 2 + (12,)  # n of each instance for a seed
    sizes = tuple(sorted(set(slots)))
    ells = (1, 2, 3, 4, 6)

    def _op(self, rf, seed: int, j: int, n: int) -> Op:
        # criterion 3's recipe (tests/test_acceptance.py) applied to slot j:
        # every third graph regular, the others with m = 13j mod (2n+3)
        # uniform random edges.  Slot j has the same n, ell and shape for
        # every seed, so seeds differ only in the random wiring.
        ell = self.ells[j % 5]
        gseed = seed * 1_000_000 + j
        if j % 3 == 0:
            d = 2 + j % 4
            if (n * d) % 2 == 1:
                d += 1
            g = rf.generators.random_regular_multigraph(n, d, gseed)
        else:
            g = rf.generators.random_multigraph(n, (j * 13) % (2 * n + 3), gseed)
        return Op(f"s{seed}p0j{j}", f"n{n}", (rf.io.to_mgf(g), ell))

    def build(self, rf, seed):
        return [self._op(rf, seed, j, n) for j, n in enumerate(self.slots)]

    def warmup(self, rf):
        return self._op(rf, 0, 1, 9)

    def execute(self, rf, op):
        text, ell = op.payload
        g = rf.io.from_mgf(text)
        rf.factor.find_factor(g, ell)
        witness = rf.factor.exhaustive_tutte_oracle(g, ell)
        return Outcome(witness=witness, graph=g, ell=ell)

    def check(self, op, out):
        errors = _factor_errors(out.factors)
        factor = out.factors[0][2]
        w = out.witness
        if (w is None) == (factor is None):
            errors.append(f"solver found factor={factor is not None}, oracle witness={w is not None}")
        if w is not None:
            counts = criterion_counts(out.graph, out.ell, w.S, w.T)
            if counts != (w.q, w.d, w.deficiency) or counts[2] <= 0:
                errors.append(f"witness scores {counts}, reported {(w.q, w.d, w.deficiency)}")
        return errors

    def canonical(self, op, out):
        g = out.graph
        return {
            "n": g.n,
            "m": g.m,
            "ell": out.ell,
            "factors": _factor_json(out.factors),
            "witness": None if out.witness is None else out.witness.to_json(),
        }


def _certify_excluded(a: dict, n: int) -> bool:
    # too slow for a run, or raising; costs in perfbench/README.md.  At
    # n = 14 the certificate search is the oracle's 3^14 scan (≈12 s), which
    # the `oracle` family measures at n = 9-12; n = 10 and 12 stay here.
    # r=4 k=3 t=2 s=1 b=1 keeps x=0 (≈4.8 s, 11,001 assign candidates); its
    # x=1 twin repeats that enumeration with one more component.
    cell = (a["r"], a["k"], a["size_t"], a["size_s"])
    return (
        a["blister_count"] == 2
        or cell == (4, 3, 3, 1)
        or (cell == (4, 3, 2, 1) and a["blister_count"] == 1 and a["extra_components"] == 1)
        or n == 14
    )


class Certify(Family):
    name = "certify"

    def build(self, rf, seed):
        ops = []
        for r, k in RK_PAIRS:
            for kind, a in rf.verifier.charzn_sweep_tasks(r, k):
                if kind == "extremal":
                    if _certify_excluded(a, self._graph(rf, a).n):
                        continue
                    key = (
                        f"extremal-r{r}-k{k}-t{a['size_t']}-s{a['size_s']}"
                        f"-b{a['blister_count']}-x{a['extra_components']}"
                    )
                else:
                    key = f"control-r{r}-k{k}"
                ops.append(Op(key, "", (kind, a)))
        return ops

    def warmup(self, rf):
        a = {"r": 2, "k": 1, "size_t": 1, "size_s": 0, "blister_count": 0, "extra_components": 0, "seed": 0}
        return Op("warmup", "", ("extremal", a))

    @staticmethod
    def _graph(rf, a):
        params = rf.generators.ExtremalParams(
            a["r"], a["k"], a["size_t"], a["size_s"], a["blister_count"], a["extra_components"]
        )
        return rf.generators.general_extremal(params, a["seed"])

    def execute(self, rf, op):
        kind, a = op.payload
        report = rf.verifier.run_task(op.payload)
        if kind == "control":
            return Outcome(passed=report.passed, report=report)
        g = self._graph(rf, a)
        cert = rf.verifier.characterization_check(g, a["r"], a["k"])
        passed = (
            report.passed
            and cert is not None
            and cert.all_conditions_hold
            and cert.all_equalities_hold
        )
        return Outcome(passed=passed, report=report, certificate=cert, graph=g, ell=2 * a["k"])

    def check(self, op, out):
        errors = _factor_errors(out.factors)
        if op.payload[0] == "control":
            if not out.report.factor_found or not any(res for _, _, res in out.factors):
                errors.append("control graph lost its 2k-factor")
            return errors
        if out.report.factor_found:
            errors.append("extremal graph reported a 2k-factor")
        if out.certificate is None:
            errors.append("extremal graph got no certificate")
        for cert in (out.report.certificate, out.certificate):
            if cert is not None:
                q, d, deficiency = criterion_counts(out.graph, out.ell, cert.S, cert.T)
                if deficiency <= 0:
                    errors.append(f"certificate (S,T) has deficiency {deficiency}")
        return errors

    def canonical(self, op, out):
        cert = out.certificate
        return {
            "report": _report_json(out.report),
            "certificate": None if cert is None else cert.to_json(),
            "factors": _factor_json(out.factors),
        }


FAMILIES = {f.name: f for f in (Guarantee(), Sharpness(), Oracle(), Certify())}


class Workload:
    """The instances of a run: each family's reference instances, which the
    digest pins, and its instances for the run's seed (for `sharpness` and
    `certify` these are the same fixed instances).  BENCHMARK.json says why
    each workload was chosen."""

    def __init__(self, name: str, families: tuple[str, ...]) -> None:
        self.name = name
        self.families = [FAMILIES[f] for f in families]

    def build(self, rf, seed: int) -> list[Op]:
        ops: dict[str, Op] = {}
        for fam in self.families:
            for op in fam.reference(rf) + fam.build(rf, seed):
                op.family = fam
                ops.setdefault(op.key, op)
        return list(ops.values())

    def warmup(self, rf) -> list[Op]:
        ops = [fam.warmup(rf) for fam in self.families]
        for fam, op in zip(self.families, ops):
            op.family = fam
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("guarantee-sharpness", ("guarantee", "sharpness")),
        Workload("oracle-certify", ("oracle", "certify")),
    )
}
