#!/usr/bin/env python3
"""Run every workload of the regfactor benchmark and print each metric by name.

Usage (from the repository root):

    python3 perfbench/run_all.py [--seed 1] [--seconds 55] [--traced]

Each workload runs in its own process through perfbench/run.py, untraced;
with ``--traced`` a traced run follows and its per-layer metrics are
printed too, including the tracing overhead (traced minus untraced
verdicts_per_s).  Exit status 0 only if every run exited 0, i.e. no
known-answer or digest mismatch anywhere.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if " MISMATCH " in line or " failed x" in line:
            print(line)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 1, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--traced", action="store_true", help="also run each workload traced")
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1) if args.traced else (0,):
            code, result = run(name, args.seed, args.seconds, trace)
            status |= code != 0
            if result is None:
                print(f"{name} trace={trace}: no result (exit {code})")
                continue
            print(
                f"{name} trace={trace}: correct={result['correct']} attempted={result['attempted']}"
                f" failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.4g}"
            )
            for metric, m in result["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
