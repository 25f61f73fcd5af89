#!/usr/bin/env python3
"""Count the window levels the Bethe solver leaves unmatched.

Runs ``solve_bethe`` for all three ansaetze over every (n, K, L) with
2 <= n <= --max-n and window rank 1..--max-rank, and writes one JSON record
per instance, one per line, to --out: the instance, its window rank, the
missing levels, the extra matches, the seeds used and the largest accepted
u-spread, or the error it raised.  A summary line goes to standard output.
Comparing the files of two versions shows which levels each one matches.

Usage:
    python scripts/bethe_completeness.py --max-n 16 --max-rank 10 --out bethe.jsonl
"""

import argparse
import json
import sys

from tblim.bethe import AnsatzVariant, solve_bethe
from tblim.core_model import ModelParams
from tblim.errors import TblimError


def records(max_n, max_rank):
    for n in range(2, max_n + 1):
        for variant in AnsatzVariant:
            for K in range(n + 1):
                for L in range(n + 1):
                    p = ModelParams(n, K, L, variant.parity)
                    if not 0 < p.time_rank <= max_rank:
                        continue
                    rec = {"n": n, "K": K, "L": L, "ansatz": variant.value, "rank": p.time_rank}
                    try:
                        res = solve_bethe(p, variant)
                    except TblimError as exc:
                        rec["error"] = f"{type(exc).__name__}: {exc}"
                    else:
                        rec.update(missing=res.missing_levels, extra_matches=res.extra_matches,
                                   starts=res.starts_used,
                                   max_u_spread=max((rs.u_spread for rs in res.root_sets),
                                                    default=None))
                    yield rec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=16)
    ap.add_argument("--max-rank", type=int, default=10, help="largest window rank to solve")
    ap.add_argument("--out", required=True, help="JSON-lines file, one record per instance")
    args = ap.parse_args()

    solved = errors = incomplete = missing = 0
    with open(args.out, "w") as fh:
        for rec in records(args.max_n, args.max_rank):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            if "error" in rec:
                errors += 1
                continue
            solved += 1
            incomplete += bool(rec["missing"])
            missing += len(rec["missing"])
    print(f"instances {solved + errors}, raised {errors}, incomplete {incomplete}, "
          f"missing levels {missing}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
