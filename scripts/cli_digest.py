#!/usr/bin/env python3
"""Digest the output of every CLI command over a grid of instances.

Runs ``tblim build``, ``spectrum``, ``spectrum --sweep``, ``reconstruct`` and
``verify --seed 0`` in-process over every (n, K, L) with 1 <= n <= --max-n,
in each parity where the command takes one; ``spectrum`` also runs over a
coarse (K, L) grid, plus one K sweep per parity, at each size given to
--spectrum-n.  Writes one JSON line per invocation to --out: the argv (the
signal file of ``reconstruct`` named relative to the working directory of
the run, ``--out`` left off), the exit code, and the sha256 of the file the
command wrote to ``--out`` (null if it wrote none).  Two versions of the
program give byte-identical outputs on the grid when their files are equal
line by line.

Usage:
    python scripts/cli_digest.py --max-n 16 --spectrum-n 64 97 128 256 --out digests.jsonl
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from tblim.cli import main as tblim_main


def _parities(n):
    return ("plus", "minus") if n >= 2 else ("plus",)


def _instance(cmd, n, K, L, parity=None):
    argv = [cmd, "--n", str(n), "--K", str(K), "--L", str(L)]
    return argv + ["--parity", parity] if parity else argv


def _signal_file(n, L):
    """A random complex signal on {0..2n-1} (seeded by n and L), nonzero only
    on the window j <= L and its mirror 2n - j, in the CSV form
    ``reconstruct`` reads; returns its name."""
    name = f"signal_n{n}_L{L}.csv"
    rng = np.random.default_rng([n, L])
    pos = np.arange(2 * n)
    keep = (pos <= L) | (pos >= 2 * n - L)
    values = np.where(keep, rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n), 0)
    with open(name, "w") as fh:
        fh.write("index,re,im\n")
        for j, z in enumerate(values):
            fh.write(f"{j},{float(z.real)!r},{float(z.imag)!r}\n")
    return name


def invocations(max_n, spectrum_n):
    """Every argv of the grid, in a fixed order."""
    for n in range(1, max_n + 1):
        for L in range(n + 1):
            signal = _signal_file(n, L)
            for K in range(n + 1):
                for parity in _parities(n):
                    yield _instance("build", n, K, L, parity)
                    yield _instance("spectrum", n, K, L, parity)
                    yield _instance("verify", n, K, L, parity) + ["--seed", "0"]
                yield _instance("reconstruct", n, K, L) + ["--signal", signal]
        for parity in _parities(n):
            for fixed in range(n + 1):
                yield _instance("spectrum", n, 0, fixed, parity) + ["--sweep", "K=0..n"]
                yield _instance("spectrum", n, fixed, 0, parity) + ["--sweep", "L=0..n"]
    for n in spectrum_n:
        labels = sorted(set(range(0, n + 1, max(1, n // 8))) | {n - 1, n})
        for K in labels:
            for L in labels:
                for parity in _parities(n):
                    yield _instance("spectrum", n, K, L, parity)
        for parity in _parities(n):
            yield _instance("spectrum", n, 0, n // 2, parity) + ["--sweep", "K=0..n"]


def digest(argv, out):
    """Run one command with ``--out out``; its exit code and the sha256 of
    what it wrote there.  Console output is discarded."""
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = tblim_main(argv + ["--out", out])
    if not os.path.exists(out):
        return code, None
    with open(out, "rb") as fh:
        return code, hashlib.sha256(fh.read()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max-n", type=int, required=True, help="largest n of the full grid")
    ap.add_argument("--spectrum-n", type=int, nargs="*", default=[],
                    help="further sizes at which only spectrum runs, on a coarse (K, L) grid")
    ap.add_argument("--out", required=True, help="JSON-lines file, one record per invocation")
    args = ap.parse_args()

    path = os.path.abspath(args.out)
    count = 0
    home = os.getcwd()
    with open(path, "w") as fh, tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv in invocations(args.max_n, args.spectrum_n):
                code, sha = digest(argv, "out.json")
                fh.write(json.dumps({"argv": argv, "exit": code, "sha256": sha}) + "\n")
                count += 1
        finally:
            os.chdir(home)
    print(f"invocations {count}")


if __name__ == "__main__":
    main()
