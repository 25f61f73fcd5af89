#!/usr/bin/env python3
"""Benchmark record: the end-to-end metrics of two checkouts, side by side.

Runs ``perfbench/run.py --trace 0`` of each checkout from its own root, for
every workload in alternating pairs (the base first in even pairs, the
change first in odd ones, so that drift on a shared machine falls on both
sides alike), one run at a time, and then one ``--trace 1`` run of each
side.  Writes one JSON file with, per workload and side, the median and
quartiles of every end-to-end metric named in BENCHMARK.json, each run's
values, the operations attempted and failed, in how many pairs the change
was better, and the per-layer metrics of the traced run; plus the core
count, the Python, numpy and mpmath versions, and a sha256 of each side's
src/tblim.  A traced run writes its spans under the checkout's
perfbench/out/.  Every run gets its own empty PYTHONPYCACHEPREFIX, so both
sides compile from source alike, whatever __pycache__ a checkout holds.

Usage:
    python scripts/bench_record.py --base ../parent --change . --pairs 10 \\
        --seconds 10 --out BENCH_<n>.json
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np


def program_digest(root):
    """sha256 over the names and bytes of the checkout's src/tblim/*.py."""
    h = hashlib.sha256()
    for path in sorted((Path(root) / "src" / "tblim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(root, workload, seed, seconds, trace=0, pycache=None):
    """One benchmark run; its result object (the last stdout line).  With
    ``pycache`` set, Python keeps its bytecode under that directory only, so
    a stale __pycache__ in the checkout cannot change the measured import."""
    env = dict(os.environ, **({"PYTHONPYCACHEPREFIX": pycache} if pycache else {}))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_record: {workload} in {root} printed no result:\n{out.stderr}")
    return json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def record(base, change, workloads, metrics, pairs, seconds, seed):
    sides = {"base": base, "change": change}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        # each run of each side starts from its own empty bytecode cache
        caches = (os.path.join(scratch, str(i)) for i in itertools.count())
        return _record(sides, workloads, metrics, pairs, seconds, seed, caches)


def _record(sides, workloads, metrics, pairs, seconds, seed, caches):
    out = {}
    for workload in workloads:
        runs = {side: [] for side in sides}
        for i in range(pairs):
            for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                runs[side].append(run_once(sides[side], workload, seed, seconds,
                                            pycache=next(caches)))
                print(f"bench_record: {workload} pair {i + 1}/{pairs} {side} done", file=sys.stderr)
        entry = {}
        for side, results in runs.items():
            entry[side] = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
                            for m in metrics},
            }
        entry["change_better_in_pairs"] = {
            m["name"]: sum((c > b) if m["better"] == "higher" else (c < b)
                           for b, c in zip(entry["base"]["metrics"][m["name"]]["runs"],
                                           entry["change"]["metrics"][m["name"]]["runs"]))
            for m in metrics}
        entry["traced"] = {}
        for side, root in sides.items():
            result = run_once(root, workload, seed, seconds, trace=1, pycache=next(caches))
            entry["traced"][side] = {name: metric["value"]
                                     for name, metric in result["metrics"].items()}
            print(f"bench_record: {workload} traced {side} done", file=sys.stderr)
        out[workload] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="root of the base checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(Path(args.change) / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    workloads = args.workloads or [w["name"] for w in contract["workloads"]]
    doc = {
        "environment": {
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mpmath": mpmath.__version__,
        },
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "order": "alternating, base first in even pairs"},
        "program_sha256": {"base": program_digest(args.base),
                           "change": program_digest(args.change)},
        "workloads": record(args.base, args.change, workloads, contract["end_to_end"],
                            args.pairs, args.seconds, args.seed),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
