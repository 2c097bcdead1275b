"""Command-line front end.

Subcommands:
  generate  — write a graph from one of the built-in families
  check     — analyze a graph file: regularity, cut-edges, 2k-factor
  verify    — run theorem sweeps, one JSON report per line

Exit codes: 0 success / all checks passed, 1 a theorem check failed,
2 usage or parse error.

Examples:
  regfactor generate sylvester --r 1 --k 1 --out g.mgf
  regfactor generate bsw --r 2 --t 1 --format dot
  regfactor check --input g.mgf --k 1 --oracle
  regfactor verify main --r 2 --k 1 --trials 200 --seed 1
  regfactor verify charzn --r 1 --k 1
  regfactor verify bsw --r 2 --t 1 --k 2
  regfactor verify parity --trials 1000 --seed 0
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as gio
from .connectivity import bridges
from .factor import ORACLE_CAP, exhaustive_tutte_oracle, find_factor
from .generators import (
    BswParams,
    ExtremalParams,
    bsw_graph,
    general_extremal,
    named_graphs,
    random_connected_regular_multigraph,
    random_regular_multigraph,
    sylvester_extremal,
)
from .multigraph import Multigraph
from .verifier import (
    bsw_sweep_tasks,
    charzn_sweep_tasks,
    main_sweep_tasks,
    parity_sweep_tasks,
    run_tasks,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _write_graph(g: Multigraph, fmt: str, out: str | None) -> None:
    if fmt == "mgf":
        text = gio.to_mgf(g)
    elif fmt == "dot":
        text = gio.to_dot(g)
    elif fmt == "graph6":
        text = gio.to_graph6(g) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    summary = json.dumps(
        {"n": g.n, "m": g.m, "regular": g.regular_degree(), "bridges": len(bridges(g))}
    )
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)


def _read_graph(path: str, fmt: str) -> Multigraph:
    with open(path) as fh:
        text = fh.read()
    if fmt == "auto":
        fmt = "graph6" if path.endswith((".g6", ".graph6")) else "mgf"
    return gio.from_graph6(text) if fmt == "graph6" else gio.from_mgf(text)


def cmd_generate(args: argparse.Namespace) -> int:
    family = args.family
    if family == "sylvester":
        g = sylvester_extremal(args.r, args.k)
    elif family == "extremal":
        params = ExtremalParams(
            args.r, args.k, args.size_t, args.size_s, args.blisters, args.extra
        )
        g = general_extremal(params, args.seed)
    elif family == "bsw":
        g = bsw_graph(BswParams(args.r, args.t))
    elif family == "random-regular":
        if args.connected:
            g = random_connected_regular_multigraph(args.n, args.d, args.seed)
        else:
            g = random_regular_multigraph(args.n, args.d, args.seed)
    elif family == "named":
        catalog = named_graphs()
        builder = catalog[args.name]
        g = builder() if args.name == "petersen" else builder(args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(family)
    _write_graph(g, args.format, args.out)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    g = _read_graph(args.input, args.format)
    report: dict = {
        "input": args.input,
        "n": g.n,
        "m": g.m,
        "regular": g.regular_degree(),
        "bridges": len(bridges(g)),
        "k": args.k,
    }
    factor = find_factor(g, 2 * args.k)
    report["factorFound"] = factor is not None
    if factor is not None:
        report["factor"] = factor.to_json()
    if args.oracle:
        witness = exhaustive_tutte_oracle(g, 2 * args.k, cap=args.oracle_cap)
        report["oracleUsed"] = True
        report["oracleAgrees"] = (witness is None) == (factor is not None)
        if witness is not None:
            report["witness"] = witness.to_json()
    print(json.dumps(report))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.mode == "main":
        tasks = main_sweep_tasks(args.r, args.k, args.trials, args.seed)
    elif args.mode == "charzn":
        tasks = charzn_sweep_tasks(args.r, args.k, args.seed)
    elif args.mode == "bsw":
        tasks = bsw_sweep_tasks(args.r, args.t, args.k)
    else:
        tasks = parity_sweep_tasks(args.trials, args.seed)
    reports = run_tasks(tasks, jobs=args.jobs)
    all_passed = True
    for rep in reports:
        print(json.dumps(rep.to_json()))
        all_passed &= rep.passed
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regfactor",
        description="Even-degree factors in odd-regular multigraphs: generate, check, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph from a built-in family")
    gen_sub = gen.add_subparsers(dest="family", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["mgf", "dot", "graph6"], default="mgf")
        p.add_argument("--out", help="output path (default: stdout)")

    p = gen_sub.add_parser("sylvester", help="one-hub extremal graph")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_output(p)

    p = gen_sub.add_parser("extremal", help="general extremal family")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size-t", type=int, required=True, dest="size_t")
    p.add_argument("--size-s", type=int, default=0, dest="size_s")
    p.add_argument("--blisters", type=int, default=0)
    p.add_argument("--extra", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = gen_sub.add_parser("bsw", help="clique-block sharpness graph")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    add_output(p)

    p = gen_sub.add_parser("random-regular", help="pairing-model random regular multigraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    add_output(p)

    p = gen_sub.add_parser("named", help="catalog graphs")
    p.add_argument("--name", choices=sorted(named_graphs()), required=True)
    p.add_argument("--n", type=int, default=5)
    add_output(p)

    chk = sub.add_parser("check", help="analyze a graph file")
    chk.add_argument("--input", required=True)
    chk.add_argument("--format", choices=["auto", "mgf", "graph6"], default="auto")
    chk.add_argument("--k", type=int, required=True)
    chk.add_argument("--oracle", action="store_true", help="also run the exhaustive criterion scan")
    chk.add_argument("--oracle-cap", type=int, default=ORACLE_CAP, dest="oracle_cap")

    ver = sub.add_parser("verify", help="theorem sweeps, one JSON report per line")
    ver_sub = ver.add_subparsers(dest="mode", required=True)

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1)

    p = ver_sub.add_parser("main", help="cut-edge guarantee on random regular multigraphs")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    add_jobs(p)

    p = ver_sub.add_parser("charzn", help="extremal characterization, both directions")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_jobs(p)

    p = ver_sub.add_parser("bsw", help="clique-block sharpness boundary")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    add_jobs(p)

    p = ver_sub.add_parser("parity", help="q(S,T) vs d_{G-S}(T) parity audit")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    add_jobs(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_verify(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
