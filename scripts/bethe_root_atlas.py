#!/usr/bin/env python3
"""Map out where the Bethe roots live.

Solves the Bethe equations for every window level over a grid of (K, L) and
prints each accepted root set with its matched eigenvalue.  Useful for
spotting the root geometry (real roots, imaginary-axis strings, boundary-line
strings) across the parameter space.

Usage:
    python scripts/bethe_root_atlas.py --n 8 --ansatz second [--max-dim 5]
"""

import argparse
import sys

from tblim.bethe import AnsatzVariant, solve_bethe
from tblim.core_model import ModelParams


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--ansatz", choices=["first", "second", "plus"], default="first")
    ap.add_argument("--max-dim", type=int, default=5, help="largest window block to solve")
    args = ap.parse_args()

    variant = AnsatzVariant(args.ansatz)
    n = args.n
    l_range = range(0, n) if variant is AnsatzVariant.PLUS else range(1, n)
    print("K,L,ell,t,residual,u_spread,roots")
    incomplete = 0
    for L in l_range:
        for K in range(n + 1):
            p = ModelParams(n, K, L, variant.parity)
            if p.time_rank == 0 or p.time_rank > args.max_dim:
                continue
            result = solve_bethe(p, variant)
            if not result.complete:
                incomplete += 1
                print(f"# UNDER-RESOLVED K={K} L={L}: missing levels {result.missing_levels}",
                      file=sys.stderr)
            for rs in result.root_sets:
                roots = ";".join(f"{x.real:.6g}{x.imag:+.6g}j" for x in rs.roots)
                print(f"{K},{L},{rs.level},{rs.eigenvalue.real:.12g},"
                      f"{rs.residual:.3g},{rs.u_spread:.3g},{roots}")
    return 1 if incomplete else 0


if __name__ == "__main__":
    sys.exit(main())
