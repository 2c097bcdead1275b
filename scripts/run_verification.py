#!/usr/bin/env python3
"""Run the full desk-scale verification battery and print a summary table.

Usage: python scripts/run_verification.py [--trials N] [--seed S] [--jobs J]

Covers the guarantee sweep over all supported (r, k) pairs, the extremal
characterization grid with factor-bearing controls, and the sharpness
boundary for small (r, t).  Exit code 0 iff everything passed.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from regfactor.verifier import (  # noqa: E402
    RK_PAIRS,
    RT_PAIRS,
    bsw_sweep_tasks,
    charzn_sweep_tasks,
    main_sweep_tasks,
    run_tasks,
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=200, help="random instances per (r,k) cell")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    print(f"{'battery':<28} {'instances':>9} {'passed':>7} {'hyp-met':>8} {'secs':>7}")
    failures = 0

    def row(name, reports, t0):
        nonlocal failures
        ok = sum(r.passed for r in reports)
        met = sum(r.hypothesis_met for r in reports)
        failures += len(reports) - ok
        print(f"{name:<28} {len(reports):>9} {ok:>7} {met:>8} {time.perf_counter() - t0:>7.1f}")

    for r, k in RK_PAIRS:
        t0 = time.perf_counter()
        reports = run_tasks(main_sweep_tasks(r, k, args.trials, args.seed), jobs=args.jobs)
        row(f"guarantee r={r} k={k}", reports, t0)

    for r, k in RK_PAIRS:
        t0 = time.perf_counter()
        reports = run_tasks(charzn_sweep_tasks(r, k), jobs=args.jobs)
        row(f"characterization r={r} k={k}", reports, t0)

    for r, t in RT_PAIRS:
        t0 = time.perf_counter()
        reports = run_tasks(bsw_sweep_tasks(r, t), jobs=args.jobs)
        row(f"sharpness r={r} t={t}", reports, t0)

    print(f"\n{'ALL PASSED' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
