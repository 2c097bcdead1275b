#!/usr/bin/env python3
"""regfactor benchmark: one workload, one process, one closed-loop caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload guarantee-sharpness --seed 1 --seconds 55 --trace 0

A run imports regfactor from ``src/`` of the checkout this file sits in,
builds the workload's inputs from ``--seed`` and warms up (set-up, repeated
SETUP_REPEATS times and reported as the median), then runs rounds over the
run's instances until ``--seconds`` have elapsed; each instance's verdict
time is the slowest of its rounds.  Every output is checked as it arrives,
outside the verdict's timing, against answers known independently of
regfactor; after the loop the digest of each family's seed-independent
reference instances (part of every run) is checked against
``perfbench/digests.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the same rounds run untraced and then traced, for half
of ``--seconds`` each, and it carries the per-layer metrics (see
tracing.py).  A results file with the run record goes to
``perfbench/out/``; a traced run also writes its spans there.  Exit status: 0 if every check held, 1 on a known-answer or digest
mismatch, 2 on a usage error or when ``src/regfactor`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import FAMILIES, WORKLOADS, FactorCapture, Outcome  # noqa: E402


def fresh_import():
    """Import regfactor from SRC, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "regfactor" or m.startswith("regfactor.")]:
        del sys.modules[name]
    rf = importlib.import_module("regfactor")
    if Path(rf.__file__).resolve().parent != SRC / "regfactor":
        raise ImportError(f"regfactor was imported from {rf.__file__}, not from {SRC}")
    return rf


def execute(rf, op, capture) -> Outcome:
    """Run one operation; an exception is a failed operation, not an abort."""
    capture.calls = []
    try:
        out = op.family.execute(rf, op)
    except Exception as exc:  # counted in `failed` with its reason
        out = Outcome(passed=False, error=f"{type(exc).__name__}: {exc}")
    out.factors = capture.calls
    return out


class Checker:
    """Checks each output as it arrives, so that no output is kept: known
    answers, equal outputs for equal keys, failure reasons, and the hash of
    every instance's canonical output for the digest."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.mismatches: list[str] = []
        self.failures: Counter = Counter()
        self.attempted = 0
        self._hashes: dict[str, str] = {}

    def record(self, op, out: Outcome) -> None:
        self.attempted += 1
        if not out.passed:
            self.failures[out.error or "pass: false"] += 1
        if out.error is None:
            self.mismatches.extend(f"{op.key}: {msg}" for msg in op.family.check(op, out))
        body = {"error": out.error} if out.error else op.family.canonical(op, out)
        line = json.dumps({"key": op.key, **body}, sort_keys=True)
        digest = hashlib.sha256(line.encode()).hexdigest()
        if self._hashes.setdefault(op.key, digest) != digest:
            self.mismatches.append(f"{op.key}: output differs from an earlier run of it")

    def digest(self, rf, capture) -> dict[str, str]:
        """Digest of each family's reference instances, running those not
        seen yet; a mismatch with digests.json is recorded."""
        expected = json.loads(DIGESTS.read_text())
        digests = {}
        for fam in self.wl.families:
            hashes = []
            for op in fam.reference(rf):
                op.family = fam
                if op.key not in self._hashes:
                    self.record(op, execute(rf, op, capture))
                hashes.append(self._hashes[op.key])
            digest = hashlib.sha256("\n".join(sorted(hashes)).encode()).hexdigest()
            if digest != expected.get(fam.name):
                self.mismatches.append(
                    f"{fam.name} digest {digest} differs from the recorded {expected.get(fam.name)}"
                )
            digests[fam.name] = digest
        return digests


def timed_rounds(rf, ops, seconds, capture, checker, seed, tracer=None):
    """Rounds over the run's instances, closed loop, each round in a fresh
    order drawn from the seed, until `seconds` have elapsed; the first round
    always completes.  Returns the verdict times of each instance, in `ops`
    order, and the wall time."""
    samples: dict[str, list[float]] = {op.key: [] for op in ops}
    rng = random.Random(seed)
    start = perf_counter()
    deadline = start + seconds
    first = True
    while first or perf_counter() < deadline:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            if not first and perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.begin_op(op.key, op.tag)
            t0 = perf_counter()
            out = execute(rf, op, capture)
            samples[op.key].append(perf_counter() - t0)
            checker.record(op, out)
        first = False
    return [samples[op.key] for op in ops], perf_counter() - start


def median(values) -> float:
    """Harrell-Davis estimate of the median: the mean of all order statistics
    weighted by the Beta((n+1)/2, (n+1)/2) distribution.  Unlike the sample
    median it does not jump when two instances of different cost trade
    places around the middle, as the fixed instances of `certify` and
    `sharpness` do from run to run."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a = (n + 1) / 2
    steps = 64 * n
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)
    density = [0.0] * (steps + 1)
    for k in range(1, steps):
        x = k / steps
        density[k] = math.exp((a - 1) * (math.log(x) + math.log1p(-x)) - log_beta)
    weights = [sum(density[(i - 1) * 64 : i * 64 + 1]) - (density[(i - 1) * 64] + density[i * 64]) / 2
               for i in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def instance_times(samples) -> list[float]:
    """Each instance's verdict time: the slowest of its samples.  On a
    shared host the machine moves between a fast and a slow state (about
    1.45x apart, in phases from seconds to minutes), and a 55-second run
    visits the slow state far more reliably than the fast one, so the
    slowest sample taken in different rounds is the steadiest figure from
    run to run (perfbench/README.md has the measurements)."""
    return [max(xs) for xs in samples]


def verdict_rate(samples) -> float:
    """Verdicts per second of verdict time, one verdict per instance at its
    slowest."""
    return len(samples) / sum(instance_times(samples))


def run_record(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "regfactor" / "__init__.py").is_file():
        print(f"error: no regfactor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        rf = fresh_import()
        capture = FactorCapture(rf)
        ops = wl.build(rf, args.seed)
        for op in wl.warmup(rf):
            execute(rf, op, capture)
        setup_times.append(perf_counter() - t0)

    checker = Checker(wl)
    # a traced run splits its time: untraced first, for the overhead, then traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    samples, _ = timed_rounds(rf, ops, seconds, capture, checker, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts_per_s = verdict_rate(samples)

    if args.trace:
        tracer = Tracer()
        tracer.install(rf)
        try:
            t_samples, t_wall = timed_rounds(rf, ops, seconds, capture, checker, args.seed, tracer)
        finally:
            tracer.restore()
        metrics = tracer.metrics(t_wall, FAMILIES["guarantee"].bands, FAMILIES["oracle"].sizes)
        traced_rate = verdict_rate(t_samples)
        metrics["trace.verdicts_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_verdicts_per_s"] = (traced_rate - verdicts_per_s, "1/s")
        if metrics["trace.residual_s"][0] < 0:
            checker.mismatches.append("layer self times exceed the traced wall time")
    else:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "verdicts_per_s": (verdicts_per_s, "1/s"),
            "verdict_ms_p50": (median(instance_times(samples)) * 1000.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    digest = checker.digest(rf, capture)
    capture.restore()
    mismatches, failures = checker.mismatches, checker.failures
    attempted, failed = checker.attempted, sum(failures.values())

    times = [t for xs in samples for t in xs]
    info = {
        "instances": len(ops),
        "verdicts": len(times),
        "failed_frac": failed / attempted,
    }
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        info["verdict_ms_p90"] = statistics.quantiles(times, n=10)[-1] * 1000.0
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(OUT / f"{stem}-spans.tsv.gz")
    record = {
        "workload": wl.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "run": run_record(args.seed),
        "setup_s_samples": setup_times,
        "verdict_ms": {op.key: [t * 1000.0 for t in xs] for op, xs in zip(ops, samples)},
        **info,
        "failures": dict(failures),
        "digest": digest,
        "mismatches": mismatches,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in {**metrics, **{k: (v, "") for k, v in info.items()}}.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}".rstrip())
    for reason, count in failures.items():
        print(f"{wl.name} failed x{count}: {reason}")
    for msg in mismatches[:20]:
        print(f"{wl.name} MISMATCH {msg}")
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
