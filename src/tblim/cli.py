"""Command-line surface: build operators, print spectra, run the
verification suite, solve Bethe equations, and reconstruct signals.

All outputs are deterministic for a fixed configuration and seed (canonical
key order, %.17g floats).  Exit codes: 0 success, 1 verification or matching
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import logging
import os
import re
import sys
import time

import numpy as np

from .bethe import AnsatzVariant, solve_bethe
from .core_model import ModelParams, Parity
from .errors import TblimError, check_tolerance
from .operators import operator_set
from .recon import reconstruct_signal
from .serialize import canonical_json, csv_lines, pack_operator
from .spectral import joint_spectra
from .verify import run_suite

log = logging.getLogger("tblim")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2


def _params(args, parity=None):
    return ModelParams(n=args.n, K=args.K, L=args.L, parity=parity or Parity(args.parity))


def _params_dict(args):
    """The instance settings echoed in every output document; ``seed`` only
    where the command reads it."""
    doc = {"n": args.n, "K": args.K, "L": args.L,
           "parity": getattr(args, "parity", None) or "both"}
    if hasattr(args, "seed"):
        doc["seed"] = args.seed
    return doc


def _setup_logging():
    level = os.environ.get("TBLIM_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr, level=levels.get(level, logging.ERROR),
                        format="tblim %(levelname)s: %(message)s")


def _write(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args):
    payloads = {name: pack_operator(op) for name, op in operator_set(_params(args)).dense.items()}
    doc = {"command": "build", "params": _params_dict(args), "operators": payloads}
    _write(args, canonical_json(doc))
    return EXIT_OK


# bytes of window eigenvectors that one stacked ``joint_spectra`` call holds
_STACK_BYTES = 1 << 20


def _spectrum_rows(settings):
    """Per instance, given as ModelParams keywords of one n and parity, its
    (ell, t, q, residual) rows or the message of its TblimError.  Instances
    of one window rank m share ``joint_spectra`` calls of at most
    _STACK_BYTES // (8 m^2) instances."""
    out, ranks = {}, {}
    for i, kw in enumerate(settings):
        try:
            p = ModelParams(**kw)
            ranks.setdefault(p.time_rank, []).append((i, p))
        except TblimError as exc:
            out[i] = str(exc)
    for m, members in ranks.items():
        size = max(1, _STACK_BYTES // (8 * m * m or 1))
        for chunk in (members[lo:lo + size] for lo in range(0, len(members), size)):
            t, q, r, _, errors = joint_spectra([p for _, p in chunk])
            for (i, _), *cols, err in zip(chunk, t.tolist(), q.tolist(), r.tolist(), errors):
                out[i] = err or list(zip(range(m), *cols))
    return [out[i] for i in range(len(settings))]


def _parse_sweep(expr, n):
    m = re.fullmatch(r"([KL])=(\d+)\.\.(\d+|n)", expr)
    if not m:
        raise TblimError(f"bad sweep expression {expr!r}; expected K=a..b or L=a..b")
    lo = int(m.group(2))
    hi = n if m.group(3) == "n" else int(m.group(3))
    return m.group(1), list(range(lo, hi + 1))


def cmd_spectrum(args):
    base = {"n": args.n, "K": args.K, "L": args.L, "parity": Parity(args.parity)}
    if args.sweep:
        var, values = _parse_sweep(args.sweep, args.n)
        results = dict(zip(values, _spectrum_rows([{**base, var: v} for v in values])))
        errors = {v: rows for v, rows in results.items() if isinstance(rows, str)}
        for v, msg in errors.items():
            log.error("sweep %s=%d: %s", var, v, msg)
        if args.fmt == "csv":
            rows = [(v, *row) for v in values if v not in errors for row in results[v]]
            _write(args, csv_lines([var, "ell", "t", "q", "residual"], rows))
        else:
            entries = [{"value": v, "error": errors[v]} if v in errors else
                       {"value": v, "modes": [{"ell": e, "t": t, "q": q, "residual": r}
                                              for e, t, q, r in results[v]]}
                       for v in values]
            doc = {"command": "spectrum_sweep", "params": _params_dict(args), "sweep": args.sweep,
                   "results": entries}
            _write(args, canonical_json(doc))
        return EXIT_INPUT if errors else EXIT_OK
    (rows,) = _spectrum_rows([base])
    if isinstance(rows, str):
        raise TblimError(rows)
    if args.fmt == "csv":
        _write(args, csv_lines(["ell", "t", "q", "residual"], rows))
    else:
        doc = {"command": "spectrum", "params": _params_dict(args),
               "modes": [{"ell": e, "t": t, "q": q, "residual": r} for e, t, q, r in rows]}
        _write(args, canonical_json(doc))
    return EXIT_OK


def _stored_payloads(path):
    """The operator payloads of a built file, by name."""
    paused = gc.isenabled()
    gc.disable()        # the parsed document holds no cycles to collect
    try:
        with open(path) as fh:
            payloads = json.load(fh)["operators"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise TblimError(f"cannot read operator file {path!r}: {exc}") from exc
    finally:
        if paused:
            gc.enable()
    if not isinstance(payloads, dict):
        raise TblimError(f"cannot read operator file {path!r}: 'operators' is not an object")
    return payloads


def cmd_verify(args):
    stored = _stored_payloads(args.operators) if args.operators else None
    checks = run_suite(_params(args), np.random.default_rng(args.seed), stored)
    for c in checks:
        if c.skipped:
            print(f"SKIP {c.name} ({c.note})")
        else:
            word = "PASS" if c.passed else "FAIL"
            print(f"{word} {c.name} residual={c.residual:.3e} tol={c.tolerance:.1e}")
    payload = {
        "command": "verify",
        "params": _params_dict(args),
        "checks": [
            {"name": c.name, "residual": c.residual, "tolerance": c.tolerance,
             "passed": c.passed, "skipped": c.skipped, "note": c.note}
            for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }
    if args.out:
        _write(args, canonical_json(payload))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_FAILURE


def cmd_bethe(args):
    if args.ansatz is None:
        raise TblimError("bethe requires --ansatz {first,second,plus}")
    variant = AnsatzVariant(args.ansatz)
    p = _params(args, variant.parity)
    if args.parity not in (None, variant.parity.value):
        raise TblimError(f"ansatz {args.ansatz!r} lives on parity {variant.parity.value}")
    result = solve_bethe(p, variant) if args.tol is None \
        else solve_bethe(p, variant, residual_tol=args.tol)
    if args.fmt == "csv":
        rows = [(rs.level, rs.eigenvalue.real, rs.t_spectral,
                 abs(rs.eigenvalue.real - rs.t_spectral), rs.residual, rs.u_spread,
                 ";".join(f"{x.real:.17g}{x.imag:+.17g}j" for x in rs.roots))
                for rs in result.root_sets]
        _write(args, csv_lines(
            ["ell", "t_bethe", "t_spectral", "abs_dt", "residual", "u_spread", "roots"], rows))
    else:
        doc = {
            "command": "bethe", "params": _params_dict(args), "ansatz": variant.value,
            "levels": [
                {"ell": rs.level, "t_bethe": rs.eigenvalue.real, "t_spectral": rs.t_spectral,
                 "abs_dt": abs(rs.eigenvalue.real - rs.t_spectral),
                 "residual": rs.residual, "u_spread": rs.u_spread,
                 "roots": [[x.real, x.imag] for x in rs.roots]}
                for rs in result.root_sets
            ],
            "missing_levels": result.missing_levels,
            "extra_matches": result.extra_matches,
            "starts_used": result.starts_used,
        }
        _write(args, canonical_json(doc))
    if result.missing_levels:
        log.error("unmatched window levels: %s", result.missing_levels)
        return EXIT_FAILURE
    return EXIT_OK


def _read_signal_csv(path, n):
    """The 2n complex samples of a signal file: rows index,re,im after an
    optional header, blank lines skipped, the last row of an index winning.
    The rows are checked in order and the first bad one is named."""
    try:
        with open(path) as fh:
            lines = [ln for ln in map(str.strip, fh) if ln]
    except OSError as exc:
        raise TblimError(f"cannot read signal file {path!r}: {exc}") from exc
    start = 1 if lines and lines[0].lower().replace(" ", "").startswith("index") else 0
    index, re_v, im_v = [], [], []
    for ln in lines[start:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise TblimError(f"malformed signal row {ln!r}; expected index,re,im")
        try:
            idx = int(parts[0])
            re_v.append(float(parts[1]))
            im_v.append(float(parts[2]))
        except ValueError as exc:
            raise TblimError(f"malformed signal row {ln!r}: {exc}") from exc
        if not 0 <= idx < 2 * n:
            raise TblimError(f"signal index {idx} outside 0..{2 * n - 1}")
        index.append(idx)
    # the last row of each index, found as the first in reversed order
    where, last = np.unique(np.array(index[::-1], dtype=int), return_index=True)
    if where.size < 2 * n:
        raise TblimError(f"signal file misses {2 * n - where.size} of {2 * n} samples")
    values = np.zeros(2 * n, dtype=complex)
    values.real[where] = np.array(re_v[::-1])[last]
    values.imag[where] = np.array(im_v[::-1])[last]
    return values


def cmd_reconstruct(args):
    if not args.signal:
        raise TblimError("reconstruct requires --signal PATH")
    values = _read_signal_csv(args.signal, args.n)
    rep_plus, rep_minus, f_hat = reconstruct_signal(values, args.n, args.K, args.L, args.tol)

    def report_doc(rep):
        return {
            "verdict": rep.verdict.value,
            "singular_values": [float(s) for s in rep.singular_values],
            "kept_modes": rep.kept_modes,
            "discarded_modes": rep.discarded_modes,
            "worst_kept_sigma": rep.worst_kept_sigma,
        }

    err = float(np.linalg.norm(f_hat - values))
    nrm = float(np.linalg.norm(values))
    doc = {
        "command": "reconstruct",
        "params": _params_dict(args),
        "plus": report_doc(rep_plus),
        "minus": report_doc(rep_minus),
        "f_hat": np.stack((f_hat.real, f_hat.imag), -1),
        "residual_norm": err,
        "relative_error": err / nrm if nrm else 0.0,
    }
    _write(args, canonical_json(doc))
    return EXIT_OK


def _tolerance(text):
    """Argument type of ``--tol``: a finite float >= 0 (``check_tolerance``)."""
    try:
        return check_tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite tolerance >= 0, got {text!r}") from None


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser; built once per process, since parsing leaves it
    unchanged."""
    ap = argparse.ArgumentParser(prog="tblim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    handlers = {"build": cmd_build, "spectrum": cmd_spectrum, "verify": cmd_verify,
                "bethe": cmd_bethe, "reconstruct": cmd_reconstruct}
    for name, handler in handlers.items():
        sp = sub.add_parser(name)
        sp.set_defaults(handler=handler)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--K", type=int, required=True)
        sp.add_argument("--L", type=int, required=True)
        if name != "reconstruct":
            sp.add_argument("--parity", choices=["plus", "minus"], required=name != "bethe")
        if name == "bethe":
            sp.add_argument("--ansatz", choices=["first", "second", "plus"])
        if name in ("spectrum", "bethe"):
            sp.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
        sp.add_argument("--out", default=None)
        if name in ("bethe", "reconstruct"):
            sp.add_argument("--tol", type=_tolerance, default=None)
        if name == "spectrum":
            sp.add_argument("--sweep", default=None, help="K=a..b or L=a..b")
        if name == "verify":
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--operators", default=None, help="built operator file to re-check")
        if name == "reconstruct":
            sp.add_argument("--signal", default=None, help="CSV signal file: index,re,im")
    return ap


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.handler(args)
    except TblimError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    log.info("%s n=%d K=%d L=%d %s: exit %d, %.3f s", args.command, args.n, args.K, args.L,
             _params_dict(args)["parity"], code, time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
