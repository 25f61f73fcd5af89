#!/usr/bin/env python3
"""Sweep the band and window limits of one problem size and tabulate how
well-conditioned reconstruction is.

For every (K, L) pair this prints the largest concentration eigenvalue, the
smallest window-mode singular value, and the resulting verdict, per parity.
The output is a CSV stream, so pipe it to a file for plotting.

Usage:
    python scripts/concentration_sweep.py --n 12 [--parity minus]
"""

import argparse
import sys

import numpy as np

from tblim.core_model import ModelParams, Parity
from tblim.recon import reconstruction_verdict
from tblim.spectral import svd_E


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--parity", choices=["plus", "minus", "both"], default="both")
    args = ap.parse_args()

    parities = [Parity.PLUS, Parity.MINUS] if args.parity == "both" else [Parity(args.parity)]
    print("parity,K,L,window_rank,band_rank,q_max,sigma_min,condition,verdict")
    for parity in parities:
        for L in range(args.n + 1):
            for K in range(args.n + 1):
                p = ModelParams(args.n, K, L, parity)
                if p.time_rank == 0:
                    continue
                window = svd_E(p)[: p.time_rank]
                verdict, _kept = reconstruction_verdict(window, p.time_rank)
                smin = window.min()
                smax = window.max()
                # the top concentration is sigma_max^2; the joint spectrum
                # would raise on a full symmetric window (L = n)
                q_max = smax**2
                cond = smax / smin if smin > 0 else np.inf
                print(f"{parity.value},{K},{L},{p.time_rank},{p.band_rank},"
                      f"{q_max:.12g},{smin:.12g},{cond:.6g},{verdict.value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
