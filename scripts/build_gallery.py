#!/usr/bin/env python3
"""Write every built-in graph family to disk, in mgf and DOT form.

Usage: python scripts/build_gallery.py [--out DIR]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
from regfactor import (  # noqa: E402
    BswParams,
    ExtremalParams,
    bridged_chain,
    bridges,
    bsw_graph,
    general_extremal,
    petersen_graph,
    sylvester_extremal,
    to_dot,
    to_mgf,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="gallery")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    gallery = {
        "sylvester_r1_k1": sylvester_extremal(1, 1),
        "sylvester_r2_k1": sylvester_extremal(2, 1),
        "extremal_r1_k1_blistered": general_extremal(
            ExtremalParams(1, 1, size_t=3, size_s=1, blister_count=1)
        ),
        "extremal_r4_k3": general_extremal(ExtremalParams(4, 3, size_t=2, size_s=1)),
        "bsw_r2_t1": bsw_graph(BswParams(2, 1)),
        "chain_r1_p3": bridged_chain(1, 3),
        "petersen": petersen_graph(),
    }
    for name, g in gallery.items():
        (out / f"{name}.mgf").write_text(to_mgf(g))
        (out / f"{name}.dot").write_text(to_dot(g))
        print(f"{name:<28} n={g.n:<4} m={g.m:<4} cut-edges={len(bridges(g))}")


if __name__ == "__main__":
    main()
