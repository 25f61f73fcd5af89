"""tblim benchmark: one workload, in one process, for a fixed time.

Run from the root of a tblim checkout:

    python3 perfbench/run.py --workload spectrum-large --seed 1 --seconds 30 --trace 0

The program is imported from ./src.  Set-up (import, inputs, warm-up; three
times, the median reported) comes first; then whole rounds of the workload's
operations run for about --seconds, each operation timed on its own and its
output checked against values computed apart from tblim.  The last line of
standard output is one JSON object: correct, attempted, failed, and the
end-to-end metrics (--trace 0) or the per-layer metrics of BENCHMARK.json
(--trace 1).
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3


def _import_program(root):
    """Import tblim from the checkout's src/, never from elsewhere; returns
    that directory."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tblim", "cli.py")):
        raise SystemExit(f"perfbench: no src/tblim under {root}; run from the root of a tblim checkout")
    sys.path.insert(0, src)
    import tblim.cli
    if not os.path.abspath(tblim.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: tblim was imported from {tblim.cli.__file__}, not {src}")
    return src


def _time_fresh_import(src, name):
    """Seconds to import a fresh copy of the tblim package (all its modules)
    under another name, so that the import can be timed more than once in
    one process; the copy is dropped again."""
    pkg = os.path.join(src, "tblim")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        t0 = time.perf_counter()
        spec.loader.exec_module(module)
        return time.perf_counter() - t0
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]


def _run_op(op, index, tracer, tally, sink):
    """Run, time and check one operation; returns (seconds, failed, errors)."""
    if op.out is not None and os.path.exists(op.out):
        os.remove(op.out)           # never check the previous round's file
    if op.before is not None:
        op.before()
    span = tracer.op(index, op.kind) if tracer else contextlib.nullcontext()
    try:
        with contextlib.redirect_stdout(sink), span:
            t0 = time.perf_counter()
            out = op.execute()
            seconds = time.perf_counter() - t0
    except Exception:  # the program raised: record it, keep measuring
        return time.perf_counter() - t0, True, [f"{op.label} raised:\n{traceback.format_exc()}"]
    finally:
        sink.seek(0)
        sink.truncate()
    if out.path is not None and os.path.exists(out.path):
        tally["bytes_written"] += os.path.getsize(out.path)
    try:
        failed, errors = op.check(out, tally)
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        failed, errors = True, [f"{op.label}: unreadable output\n{traceback.format_exc()}"]
    return seconds, failed, [f"{op.label}: {e}" for e in errors]


def _throughput_and_p50(groups, samples):
    """Operations per second of one round, and the median time of one
    operation, with each operation timed by its median over the run: a burst
    of load on a shared machine then moves one sample, not the figure, and
    the median does not hop between operations of different cost."""
    typical = {key: statistics.median(v) for key, v in samples.items()}
    round_ops = [id(op) for group in groups for op in group]
    return (len(round_ops) / sum(typical[key] for key in round_ops),
            statistics.median(typical.values()))


def _layer_metrics(names, tracer, tally, rounds, ops_per_s, op_p50_s):
    """Per-layer metrics, per round of the workload: `<span>.self_s` and
    `<span>.calls` from the spans, the rest from the outputs and timings."""
    totals = tracer.self_times()
    derived = {
        "bethe.starts_used": tally["bethe_starts"] / rounds,
        "bethe.levels_per_start":
            tally["bethe_levels"] / tally["bethe_starts"] if tally["bethe_starts"] else 0.0,
        "serialize.bytes_written": tally["bytes_written"] / rounds,
        "traced.ops_per_s": ops_per_s,
        "traced.op_p50_s": op_p50_s,
    }
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif stat in ("self_s", "calls"):
            self_s, calls = totals.get(span, (0.0, 0))
            out[name] = (self_s if stat == "self_s" else calls) / rounds
        else:
            raise SystemExit(f"perfbench: no rule for per-layer metric {name!r}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = _import_program(root)
    import spans
    import workloads

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    sink = io.StringIO()
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{args.workload}-") as workdir:
        # set-up, repeated; the median is reported
        setups = []
        for k in range(SETUP_REPEATS):
            seconds = _time_fresh_import(src, f"_tblim_setup_{k}")
            t0 = time.perf_counter()
            groups = make(np.random.default_rng(args.seed), workdir)
            with contextlib.redirect_stdout(sink):
                workloads.warmup(args.workload, workdir)
            setups.append(seconds + time.perf_counter() - t0)
        sink.seek(0)
        sink.truncate()

        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        tally = Counter()
        samples = defaultdict(list)     # id(op) -> seconds
        errors = []
        attempted = failed = rounds = 0
        started = time.perf_counter()
        try:
            # whole rounds, as long as the next one is expected to end in time
            while True:
                for group in groups:
                    for op in group:
                        seconds, op_failed, op_errors = _run_op(op, attempted, tracer, tally, sink)
                        samples[id(op)].append(seconds)
                        attempted += 1
                        failed += op_failed
                        errors += op_errors
                rounds += 1
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / rounds > args.seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()

    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    ops_per_s, op_p50_s = _throughput_and_p50(groups, samples)
    if tracer:
        names = [m["name"] for m in contract["per_layer"]]
        values = _layer_metrics(names, tracer, tally, rounds, ops_per_s, op_p50_s)
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        print(f"perfbench: {len(tracer.spans)} spans written to {trace_path}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_s": op_p50_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds, {attempted} operations, "
          f"{failed} failed; set-ups {[round(x, 3) for x in setups]} s",
          file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
