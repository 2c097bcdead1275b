"""Command-line front end.

Subcommands:
  generate  — write a graph from one of the built-in families
  check     — analyze an mgf or graph6 file: regularity, cut-edges, 2k-factor
  verify    — run theorem sweeps, one JSON report per line

Exit codes: 0 success / all checks passed, 1 a theorem check failed,
2 usage or parse error.

Examples:
  regfactor generate extremal --r 1 --k 1 --size-t 1 --out g.mgf
  regfactor generate bsw --r 2 --t 1 --format dot
  regfactor check --input g.mgf --k 1 --oracle
  regfactor verify main --r 2 --k 1 --trials 200 --seed 1
  regfactor verify charzn --r 1 --k 1
  regfactor verify bsw --r 2 --t 1 --k 2
  regfactor verify battery --trials 20 --seed 1 --jobs 2
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as gio
from .connectivity import bridges
from .factor import exhaustive_tutte_oracle, find_factor
from .generators import (
    BswParams,
    ExtremalParams,
    bsw_graph,
    complete_graph,
    cycle_graph,
    general_extremal,
    petersen_graph,
    random_connected_regular_multigraph,
    random_regular_multigraph,
)
from .verifier import (
    battery_tasks,
    bsw_sweep_tasks,
    charzn_sweep_tasks,
    main_sweep_tasks,
    run_tasks,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


WRITERS = {"mgf": gio.to_mgf, "dot": gio.to_dot, "graph6": lambda g: gio.to_graph6(g) + "\n"}


def cmd_generate(args: argparse.Namespace) -> int:
    g = args.build(args)
    text = WRITERS[args.format](g)
    summary = json.dumps(
        {"n": g.n, "m": g.m, "regular": g.regular_degree(), "bridges": len(bridges(g))}
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    with open(args.input) as fh:
        text = fh.read()
    # every mgf text opens with the token "mgf", and no graph6 text is that one token
    g = gio.from_mgf(text) if text.split(maxsplit=1)[:1] == ["mgf"] else gio.from_graph6(text)
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
        witness = exhaustive_tutte_oracle(g, 2 * args.k)
        report["oracleUsed"] = True
        report["oracleAgrees"] = (witness is None) == (factor is not None)
        if witness is not None:
            report["witness"] = witness.to_json()
    print(json.dumps(report))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_tasks(args.tasks(args), jobs=args.jobs)
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
    gen.set_defaults(run=cmd_generate)
    gen_sub = gen.add_subparsers(dest="family", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=list(WRITERS), default="mgf")
        p.add_argument("--out", help="output path (default: stdout)")

    p = gen_sub.add_parser("extremal", help="general extremal family")
    p.set_defaults(
        build=lambda a: general_extremal(
            ExtremalParams(a.r, a.k, a.size_t, a.size_s, a.blisters, a.extra), a.seed
        )
    )
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size-t", type=int, required=True, dest="size_t", help="1: one-hub (Sylvester-type) graph")
    p.add_argument("--size-s", type=int, default=0, dest="size_s")
    p.add_argument("--blisters", type=int, default=0)
    p.add_argument("--extra", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = gen_sub.add_parser("bsw", help="clique-block sharpness graph")
    p.set_defaults(build=lambda a: bsw_graph(BswParams(a.r, a.t)))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    add_output(p)

    p = gen_sub.add_parser("random-regular", help="pairing-model random regular multigraph")
    p.set_defaults(build=lambda a: a.sampler(a.n, a.d, a.seed))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--connected",
        action="store_const",
        const=random_connected_regular_multigraph,
        default=random_regular_multigraph,
        dest="sampler",
    )
    add_output(p)

    for name, graph in (("complete", complete_graph), ("cycle", cycle_graph)):
        p = gen_sub.add_parser(name, help=f"{name} graph on --n vertices")
        p.set_defaults(build=lambda a, graph=graph: graph(a.n))
        p.add_argument("--n", type=int, default=5)
        add_output(p)

    p = gen_sub.add_parser("petersen", help="the Petersen graph, 10 vertices")
    p.set_defaults(build=lambda a: petersen_graph())
    add_output(p)

    chk = sub.add_parser("check", help="analyze a graph file")
    chk.set_defaults(run=cmd_check)
    chk.add_argument("--input", required=True, help="an mgf or graph6 file, told apart by its first token")
    chk.add_argument("--k", type=int, required=True)
    chk.add_argument("--oracle", action="store_true", help="also run the exhaustive criterion scan")

    ver = sub.add_parser("verify", help="theorem sweeps, one JSON report per line")
    ver.set_defaults(run=cmd_verify)
    ver_sub = ver.add_subparsers(dest="mode", required=True)

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1)

    p = ver_sub.add_parser("main", help="cut-edge guarantee on random regular multigraphs")
    p.set_defaults(tasks=lambda a: main_sweep_tasks(a.r, a.k, a.trials, a.seed))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    add_jobs(p)

    p = ver_sub.add_parser("charzn", help="extremal characterization, both directions")
    p.set_defaults(tasks=lambda a: charzn_sweep_tasks(a.r, a.k))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_jobs(p)

    p = ver_sub.add_parser("bsw", help="clique-block sharpness boundary")
    p.set_defaults(tasks=lambda a: bsw_sweep_tasks(a.r, a.t, a.k))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    add_jobs(p)

    p = ver_sub.add_parser("battery", help="all three claims at every (r, k) and (r, t) cell")
    p.set_defaults(tasks=lambda a: battery_tasks(a.trials, a.seed))
    p.add_argument("--trials", type=int, default=200, help="main tasks per (r, k) cell")
    p.add_argument("--seed", type=int, default=0)
    add_jobs(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
