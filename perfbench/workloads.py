"""The four benchmark workloads and the checks on their outputs.

A workload is a list of groups; a group is a list of operations that run in
that order (a build before the verify that reads its file).  One round runs
the groups of the list in order, so every round attempts the same
operations; a group listed twice runs twice.  An operation is one ``tblim``
command run in-process through ``tblim.cli.main`` with ``--out`` set, or one
library call where the CLI has no command.  Both are looked up on the module
at call time, so the traced run sees them through its wrappers.

Every check compares against ``reference`` (closed forms, numpy and SciPy),
never against another tblim function.  A check returns ``(failed, errors)``:
``failed`` counts the operation as failed, ``errors`` make the run incorrect.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from tblim import cli, core_model, polymap, recon

import reference as ref

T_TOL = 1e-10        # Heun eigenvalues, relative to the largest
Q_TOL = 1e-10        # time-band eigenvalues, absolute (they lie in [0, 1])
BETHE_TOL = 1e-6     # t_bethe against the window eigenvalues
VERIFY_REPEATS = 3


@dataclass
class Outcome:
    rc: int | None = None      # CLI exit code
    value: object = None       # library return value
    path: str | None = None    # the --out file

    def doc(self):
        with open(self.path) as fh:
            return json.load(fh)


@dataclass
class Op:
    kind: str
    label: str
    check: Callable            # (Outcome, tally) -> (failed, errors)
    argv: list | None = None   # CLI arguments, without --out
    call: Callable | None = None
    before: Callable | None = None   # untimed preparation
    out: str | None = None

    def execute(self):
        """Run the operation; this is the timed part."""
        if self.argv is not None:
            return Outcome(rc=cli.main(self.argv + ["--out", self.out]), path=self.out)
        return Outcome(value=self.call())


def _cli(kind, argv, check, workdir, **kw):
    label = " ".join(argv)
    name = "_".join(a.strip("-") for a in argv if os.sep not in a and "." not in a)
    return Op(kind, f"tblim {label}", check, argv=argv,
              out=os.path.join(workdir, name + ".json"), **kw)


def _args(cmd, n, K, L, parity=None):
    argv = [cmd, "--n", str(n), "--K", str(K), "--L", str(L)]
    return argv + ["--parity", parity] if parity else argv


def _exit_ok(out):
    return [] if out.rc == 0 else [f"exit code {out.rc}"]


# ---------------------------------------------------------------------------
# spectrum-large


@functools.lru_cache(maxsize=None)
def _spectrum_ref(n, K, L, parity):
    e = ref.fourier_block(n, K, L, parity)
    return (ref.heun_window_eigenvalues(n, K, L, parity),
            ref.q_window_eigenvalues(n, K, L, parity),
            float(np.sum(e * e)))


def check_modes(modes, n, K, L, parity):
    """t against the tridiagonal window block, q against the dense window
    block of Q, the trace identity, and q in [0, 1]."""
    t_ref, q_ref, trace = _spectrum_ref(n, K, L, parity)
    where = f"n={n} K={K} L={L} {parity}"
    if len(modes) != t_ref.size:
        return [f"{where}: {len(modes)} modes for {t_ref.size} window rows"]
    if not modes:
        return []
    t = np.sort([m["t"] for m in modes])
    q = np.sort([m["q"] for m in modes])
    errs = []
    dt = float(np.max(np.abs(t - t_ref)))
    if dt > T_TOL * max(1.0, float(np.max(np.abs(t_ref)))):
        errs.append(f"{where}: t off the window eigenvalues by {dt:.2e}")
    dq = float(np.max(np.abs(q - q_ref)))
    if dq > Q_TOL:
        errs.append(f"{where}: q off the window eigenvalues of Q by {dq:.2e}")
    if abs(float(np.sum(q)) - trace) > 1e-9 * max(1.0, trace):
        errs.append(f"{where}: sum q = {np.sum(q):.17g}, sum F^2 = {trace:.17g}")
    if q[0] < -Q_TOL or q[-1] > 1.0 + Q_TOL:
        errs.append(f"{where}: q outside [0, 1]: [{q[0]:.3e}, {q[-1]:.17g}]")
    return errs


def spectrum_large(rng, workdir):
    """Spectra at n in the hundreds over small, half and near-full windows in
    both parities, and one K sweep.  The seed shifts each band limit K by
    0..3, which leaves the window ranks, and so the cost, unchanged; the
    sweep covers every K already and is fixed."""
    groups = []
    shapes = [(384, 24, 12), (640, 40, 16), (320, 80, 160), (320, 160, 160), (256, 192, 248)]
    for n, K, L in shapes:
        for parity in ("plus", "minus"):
            k = K + int(rng.integers(4))

            def check(out, tally, n=n, k=k, L=L, parity=parity):
                errs = _exit_ok(out)
                if errs:
                    return True, errs
                return False, check_modes(out.doc()["modes"], n, k, L, parity)

            groups.append([_cli("spectrum", _args("spectrum", n, k, L, parity), check, workdir)])

    n, L = 48, 24

    def check_sweep(out, tally):
        errs = _exit_ok(out)
        if errs:
            return True, errs
        results = out.doc()["results"]
        if [r["value"] for r in results] != list(range(n + 1)):
            return False, ["sweep values are not K = 0..n in order"]
        for r in results:
            errs += check_modes(r["modes"], n, r["value"], L, "plus")
        return False, errs

    groups.append([_cli("sweep", _args("spectrum", n, 0, L, "plus") + ["--sweep", "K=0..n"],
                        check_sweep, workdir)])
    return groups


# ---------------------------------------------------------------------------
# recon-large


def window_supported_signal(rng, n, L):
    """Random complex ambient signal whose both parity parts live on the
    window: nonzero only at j <= L and at the mirrored 2n - j."""
    values = np.zeros(2 * n, dtype=complex)
    pos = np.arange(2 * n)
    keep = (pos <= L) | (pos >= 2 * n - L)
    values[keep] = rng.normal(size=keep.sum()) + 1j * rng.normal(size=keep.sum())
    return values


def write_signal(path, values):
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        for j, z in enumerate(values):
            fh.write(f"{j},{float(z.real)!r},{float(z.imag)!r}\n")


@functools.lru_cache(maxsize=None)
def _sigmas(n, K, L, parity):
    return ref.window_singular_values(n, K, L, parity)


def check_reconstruction(doc, values, n, K, L):
    """Per parity: the reported singular values, a window-supported result
    that reproduces the band data, UNRECOVERABLE whenever K < L, and EXACT
    results equal to the input within 1e-8 sigma_max / sigma_min."""
    errs = []
    f_hat = np.array([complex(re, im) for re, im in doc["f_hat"]])
    for parity in ("plus", "minus"):
        where = f"n={n} K={K} L={L} {parity}"
        rep = doc[parity]
        sig = _sigmas(n, K, L, parity)
        s_max = float(sig[0])
        got = np.asarray(rep["singular_values"], dtype=float)
        if got.shape != sig.shape or np.max(np.abs(got - sig)) > 1e-10 * s_max:
            errs.append(f"{where}: singular values differ from the window block's")
        c = ref.parity_coefficients(values, n, parity)
        c_hat = ref.parity_coefficients(f_hat, n, parity)
        window = ref.labels(n, parity) <= L
        norm = float(np.linalg.norm(c))
        leak = float(np.linalg.norm(c_hat[~window]))
        if leak > 1e-10 * norm:
            errs.append(f"{where}: reconstruction leaks {leak:.2e} outside the window")
        e = ref.fourier_block(n, K, L, parity)
        miss = float(np.linalg.norm(e @ (c_hat[window] - c[window])))
        if miss > 1e-8 * s_max * norm:
            errs.append(f"{where}: band data reproduced only to {miss:.2e}")
        if K < L and rep["verdict"] != "unrecoverable":
            errs.append(f"{where}: K < L but verdict {rep['verdict']}")
        if rep["verdict"] == "exact":
            err = float(np.linalg.norm(c_hat - c))
            if err > 1e-8 * s_max / float(sig[-1]) * norm:
                errs.append(f"{where}: EXACT verdict but error {err:.2e}")
    return errs


def check_conditioning(value, n, K, L, parity):
    """Window eigenvalues of Q, and a near-zero count between the number of
    singular values below 1e-12 sigma_max (surely unrecoverable) and the
    number below 1e-5 sigma_max (surely resolved above that)."""
    eigs, near_zero = value
    where = f"n={n} K={K} L={L} {parity}"
    _t, q_ref, _tr = _spectrum_ref(n, K, L, parity)
    errs = []
    eigs = np.asarray(eigs, dtype=float)
    if eigs.shape != q_ref.shape or np.max(np.abs(eigs - q_ref)) > Q_TOL:
        errs.append(f"{where}: window eigenvalues differ from the reference")
    sig = _sigmas(n, K, L, parity)
    lo = int(np.sum(sig <= 1e-12 * sig[0]))
    hi = int(np.sum(sig <= 1e-5 * sig[0]))
    if not lo <= near_zero <= hi:
        errs.append(f"{where}: near-zero count {near_zero} outside [{lo}, {hi}]")
    return errs


def recon_large(rng, workdir):
    """Reconstruction of seeded window-supported signals at n up to 1000,
    recoverable and rank-deficient, plus conditioning reports."""
    groups = []
    for n, K, L in [(1000, 960, 48), (1000, 700, 300), (1000, 200, 400), (768, 640, 96)]:
        values = window_supported_signal(rng, n, L)
        signal = os.path.join(workdir, f"signal-{n}-{K}-{L}.csv")
        write_signal(signal, values)

        def check(out, tally, n=n, K=K, L=L, values=values):
            errs = _exit_ok(out)
            if errs:
                return True, errs
            return False, check_reconstruction(out.doc(), values, n, K, L)

        argv = _args("reconstruct", n, K, L) + ["--signal", signal]
        groups.append([_cli("reconstruct", argv, check, workdir)])

    for n, K, L, parity in [(512, 400, 128, "plus"), (512, 400, 128, "minus"),
                            (384, 96, 192, "plus")]:
        params = core_model.ModelParams(n, K, L, core_model.Parity(parity))

        def check(out, tally, n=n, K=K, L=L, parity=parity):
            return False, check_conditioning(out.value, n, K, L, parity)

        groups.append([Op("conditioning", f"conditioning_report n={n} K={K} L={L} {parity}",
                          check, call=lambda params=params: recon.conditioning_report(params))])
    return groups


# ---------------------------------------------------------------------------
# verify-link


def _verdicts(doc):
    fails = {c["name"] for c in doc["checks"] if not c["passed"] and not c["skipped"]}
    silent = [c["name"] for c in doc["checks"] if c["skipped"] and not c["note"]]
    return fails, [f"SKIP {name} gives no reason" for name in silent]


def verify_check(expected_fail=frozenset()):
    """Every check PASS or SKIP with a reason; a FAIL is allowed only on the
    named checks of a known fault, and then the operation counts as failed."""
    def check(out, tally):
        if out.rc not in (0, 1):
            return True, [f"exit code {out.rc}"]
        fails, errs = _verdicts(out.doc())
        if fails - expected_fail:
            errs.append(f"FAIL {sorted(fails - expected_fail)}")
        if (out.rc == 0) == bool(fails):
            errs.append(f"exit code {out.rc} with FAIL {sorted(fails)}")
        return out.rc != 0, errs
    return check


def check_built(doc, n, K, L, parity):
    """Matrix set and sizes, the window block of Q against E^T E (zero
    outside it), and the window block of T against the closed form."""
    ops = doc["operators"]
    want = {"A", "A_star", "pi1", "pi2", "Q", "T_position", "T_momentum"}
    if set(ops) != want:
        return [f"built matrices {sorted(ops)}"]
    dim = len(ref.labels(n, parity))
    if any(ops[name]["dim"] != dim for name in want):
        return ["built matrix of the wrong dimension"]
    q = np.asarray(ops["Q"]["rows"], dtype=float)[..., 0]
    t = np.asarray(ops["T_position"]["rows"], dtype=float)[..., 0]
    m = int(np.sum(ref.labels(n, parity) <= L))
    errs = []
    outside = q.copy()
    outside[:m, :m] = 0.0
    if np.max(np.abs(q[:m, :m] - ref.window_q_block(n, K, L, parity))) > 1e-13 \
            or np.max(np.abs(outside)) > 1e-13:
        errs.append("built Q differs from E^T E on the window")
    diag, off = ref.heun_window_block(n, K, L, parity)
    if np.max(np.abs(np.diag(t)[:m] - diag)) > 1e-13 \
            or np.max(np.abs(np.diag(t, 1)[: m - 1] - off), initial=0.0) > 1e-13:
        errs.append("built T differs from the closed form on the window")
    return errs


def verify_link(rng, workdir):
    """verify on plus instances whose link check escalates to 40 digits, one
    that does not, the two known faults, and a build / verify --operators
    round trip on a clean and on a perturbed file."""
    groups = []
    for n, K, L in [(24, 6, 18), (24, 12, 18), (32, 8, 24), (96, 24, 8), (96, 16, 16),
                    (96, 48, 12)]:
        groups.append([_cli("verify", _args("verify", n, K, L, "plus"), verify_check(), workdir)])
    faults = [
        # (a): the link residual needs more than 40 digits here
        [_cli("verify", _args("verify", 64, 16, 48, "plus"),
              verify_check(frozenset({"polymap_operator_identity", "polymap_interpolation"})),
              workdir)],
        # (b): the reduction-formula residual grows with n and L
        [_cli("verify", _args("verify", 32, 8, 10, "minus"),
              verify_check(frozenset({"reduction_formula"})), workdir)],
    ]

    n, K, L, parity = 96, 48, 12, "plus"
    built = os.path.join(workdir, "ops.json")
    perturbed = os.path.join(workdir, "ops-perturbed.json")
    names = ["A", "A_star", "Q", "T_momentum", "T_position", "pi1", "pi2"]
    name = names[int(rng.integers(len(names)))]
    # a diagonal entry: an off-diagonal one breaks Hermiticity, and the
    # infinite residual that verify then reports is written as bare `inf`,
    # which is not JSON
    row = int(rng.integers(n + 1))
    delta = float(rng.uniform(1e-9, 1e-6))

    def check_build(out, tally):
        errs = _exit_ok(out)
        if errs:
            return True, errs
        return False, check_built(out.doc(), n, K, L, parity)

    def perturb():
        with open(built) as fh:
            doc = json.load(fh)
        doc["operators"][name]["rows"][row][row][0] += delta
        with open(perturbed, "w") as fh:
            json.dump(doc, fh)

    def check_clean(out, tally):
        failed, errs = verify_check()(out, tally)
        stored = [c for c in out.doc()["checks"] if c["name"].startswith("stored_")]
        if len(stored) != len(names):
            errs.append(f"{len(stored)} stored_ checks for {len(names)} matrices")
        return failed, errs

    def check_perturbed(out, tally):
        fails, errs = _verdicts(out.doc())
        if out.rc != 1 or fails != {f"stored_{name}"}:
            errs.append(f"perturbed {name}[{row}][{row}]: exit {out.rc}, FAIL {sorted(fails)}")
        return False, errs

    build = Op("build", f"tblim build n={n} K={K} L={L} {parity}", check_build,
               argv=_args("build", n, K, L, parity), out=built)
    verify_args = _args("verify", n, K, L, parity)
    clean = Op("verify_operators", "tblim verify --operators (clean)", check_clean,
               argv=verify_args + ["--operators", built],
               out=os.path.join(workdir, "verify-clean.json"))
    dirty = Op("verify_operators", f"tblim verify --operators (perturbed {name})",
               check_perturbed, argv=verify_args + ["--operators", perturbed],
               out=os.path.join(workdir, "verify-perturbed.json"), before=perturb)
    groups.append([build, clean, dirty])
    # Fault (a) alone takes 12-16 s; every other group runs three times a
    # round, so that each of them is timed several times in one run.
    return groups * VERIFY_REPEATS + faults


# ---------------------------------------------------------------------------
# bethe-ranks


def bethe_check(n, K, L, ansatz, partner=None, store=None):
    """Every level matched, each t_bethe within 1e-6 of its own window
    eigenvalue, and (minus parity) the same eigenvalue set from both
    ansaetze."""
    parity = "plus" if ansatz == "plus" else "minus"

    def check(out, tally):
        where = f"n={n} K={K} L={L} {ansatz}"
        if out.rc not in (0, 1):
            return True, [f"{where}: exit code {out.rc}"]
        doc = out.doc()
        levels = doc["levels"]
        tally["bethe_starts"] += doc["starts_used"]
        tally["bethe_levels"] += len(levels)
        if out.rc != 0 or doc["missing_levels"]:
            return True, [f"{where}: exit {out.rc}, unmatched levels {doc['missing_levels']}"]
        t_ref = ref.heun_window_eigenvalues(n, K, L, parity)
        t_bethe = np.sort([lv["t_bethe"] for lv in levels])
        if t_bethe.size != t_ref.size:
            return False, [f"{where}: {t_bethe.size} levels for {t_ref.size} window rows"]
        errs = []
        nearest = [int(np.argmin(np.abs(t_ref - t))) for t in t_bethe]
        gap = float(np.max(np.abs(t_ref[nearest] - t_bethe), initial=0.0))
        if gap > BETHE_TOL or len(set(nearest)) != len(nearest):
            errs.append(f"{where}: t_bethe off the window eigenvalues by {gap:.2e}")
        if store is not None:
            store[(n, K, L)] = t_bethe
        if partner is not None:
            first = partner.get((n, K, L))
            if first is None or np.max(np.abs(first - t_bethe), initial=0.0) > 2 * BETHE_TOL:
                errs.append(f"{where}: first and second ansatz eigenvalues differ")
        return False, errs

    return check


def bethe_ranks(rng, workdir):
    """bethe for all three ansaetze at n in 12..24 and window ranks 2..9.
    Instances and the solver seed are fixed, so this workload does not use
    the benchmark seed: whether the multistart solver converges, and how
    fast, depends on both, and drawing them would make the cost a lottery."""
    groups = []
    first_ansatz = {}
    for n, K, L in [(16, 5, 2), (24, 8, 4), (12, 4, 5), (16, 5, 7), (20, 6, 8)]:
        groups.append([
            _cli("bethe", _args("bethe", n, K, L) + ["--ansatz", "first"],
                 bethe_check(n, K, L, "first", store=first_ansatz), workdir),
            _cli("bethe", _args("bethe", n, K, L) + ["--ansatz", "second"],
                 bethe_check(n, K, L, "second", partner=first_ansatz), workdir),
        ])
    for n, K, L in [(16, 5, 9), (24, 8, 9)]:
        groups.append([_cli("bethe", _args("bethe", n, K, L) + ["--ansatz", "second"],
                            bethe_check(n, K, L, "second"), workdir)])
    for n, K, L in [(24, 8, 2), (20, 6, 5), (12, 4, 6), (24, 8, 7), (16, 5, 8)]:
        groups.append([_cli("bethe", _args("bethe", n, K, L) + ["--ansatz", "plus"],
                            bethe_check(n, K, L, "plus"), workdir)])
    return groups


# ---------------------------------------------------------------------------
# warm-up: one small operation of every kind, so lazy set-up (first LAPACK
# calls, the mpmath constant caches) is not paid inside the timed phase


def warmup(workload, workdir):
    out = ["--out", os.path.join(workdir, "warmup.json")]
    if workload == "spectrum-large":
        cli.main(_args("spectrum", 16, 4, 8, "plus") + out)
        cli.main(_args("spectrum", 8, 0, 4, "minus") + ["--sweep", "K=0..n"] + out)
    elif workload == "recon-large":
        signal = os.path.join(workdir, "warmup.csv")
        write_signal(signal, window_supported_signal(np.random.default_rng(0), 16, 4))
        cli.main(_args("reconstruct", 16, 12, 4) + ["--signal", signal] + out)
        recon.conditioning_report(core_model.ModelParams(16, 12, 4, core_model.Parity.PLUS))
    elif workload == "verify-link":
        polymap.link_residuals_hp(core_model.ModelParams(8, 2, 5, core_model.Parity.PLUS))
        ops = os.path.join(workdir, "warmup-ops.json")
        cli.main(_args("build", 8, 2, 3, "minus") + ["--out", ops])
        cli.main(_args("verify", 8, 2, 3, "minus") + ["--operators", ops] + out)
    else:
        for ansatz in ("first", "second", "plus"):
            cli.main(_args("bethe", 8, 2, 3) + ["--ansatz", ansatz] + out)


WORKLOADS = {
    "spectrum-large": spectrum_large,
    "recon-large": recon_large,
    "verify-link": verify_link,
    "bethe-ranks": bethe_ranks,
}
