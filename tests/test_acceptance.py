"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from tblim.bethe import (
    AnsatzVariant,
    check_dynamical_relations,
    check_reduction_formula,
    check_T_decomposition,
    check_vacuum_action,
    solve_bethe,
)
from tblim.core_model import ModelParams, Parity, SignalVector, position_kind, trig_s
from tblim.operators import (
    check_askey_wilson,
    commutator_norm,
    heun_tb,
    leonard_pair,
    projector_band,
    projector_time,
    tb_operator,
    to_momentum_basis,
)
from tblim.polymap import eval_P_stable, verify_Q_equals_piP
from tblim.recon import Verdict, forward_observe, reconstruct
from tblim.spectral import eig_sym_dense, eig_sym_tridiag, joint_spectrum


def report(num, name, passed, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def both_parities():
    return (Parity.PLUS, Parity.MINUS)


def test_criterion_01_commutation_suite():
    t0 = time.time()
    worst = 0.0
    for n in range(2, 17):
        for parity in both_parities():
            for K in range(n + 1):
                for L in range(n + 1):
                    p = ModelParams(n, K, L, parity)
                    t_op = heun_tb(p).to_dense()
                    worst = max(
                        worst,
                        commutator_norm(t_op, projector_time(p)),
                        commutator_norm(t_op, projector_band(p)),
                        commutator_norm(t_op, tb_operator(p)),
                    )
    elapsed = time.time() - t0
    report(1, "commutation-suite", worst < 1e-12 and elapsed < 30.0,
           f"max residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_askey_wilson_relations():
    worst = 0.0
    for n in range(2, 129):
        for parity in both_parities():
            r1, r2 = check_askey_wilson(ModelParams(n, 0, 0, parity))
            worst = max(worst, r1, r2)
    report(2, "askey-wilson-relations", worst < 1e-12, f"max residual {worst:.2e} over n <= 128")


def test_criterion_03_leonard_duality():
    worst = 0.0
    for n in range(2, 65):
        for parity in both_parities():
            p = ModelParams(n, 0, 0, parity)
            a, astar = leonard_pair(p)
            a_mom = to_momentum_basis(a.to_dense(), p).entries
            astar_mom = to_momentum_basis(astar.to_dense(), p).entries
            worst = max(
                worst,
                float(np.max(np.abs(a_mom - astar.to_dense().entries))) if a_mom.size else 0.0,
                float(np.max(np.abs(astar_mom - a.to_dense().entries))) if a_mom.size else 0.0,
            )
    report(3, "leonard-duality", worst < 1e-12, f"max residual {worst:.2e} over n <= 64")


def test_criterion_04_spectral_link_identity():
    # L = n is excluded: the window fills the space and the defining
    # recurrence coefficient vanishes identically there.  Instances whose
    # double-precision defect exceeds the escalation margin are re-verified
    # end to end in high precision, with the digits chosen per instance
    # (near-full windows make the link polynomial hypersensitive to its
    # eigenvalue inputs).
    from tblim.polymap import link_residuals_hp

    t0 = time.time()
    worst_op = 0.0
    worst_eig = 0.0
    count = escalated = 0
    digits = set()
    for n in range(2, 33):
        for parity in both_parities():
            for L in range(0, min(16, n - 1) + 1):
                for K in range(n + 1):
                    p = ModelParams(n, K, L, parity)
                    r_op = verify_Q_equals_piP(p)
                    r_eig = max((abs(eval_P_stable(p, m.t) - m.q) for m in joint_spectrum(p)),
                                default=0.0)
                    if r_op > 5e-8 or r_eig > 5e-9:
                        hp = link_residuals_hp(p)
                        r_op, r_eig = hp
                        digits.update(hp.digits)
                        escalated += 1
                    worst_op = max(worst_op, r_op)
                    worst_eig = max(worst_eig, r_eig)
                    count += 1
    elapsed = time.time() - t0
    report(4, "spectral-link-identity",
           worst_op < 1e-7 and worst_eig < 1e-8,
           f"operator {worst_op:.2e}, eigenbasis {worst_eig:.2e}, {count} instances "
           f"({escalated} re-verified at {min(digits, default=0)}-{max(digits, default=0)} "
           f"digits), {elapsed:.1f} s")


def test_criterion_05_dynamical_operator_identities():
    rng = np.random.default_rng(2024)
    params = {4: (1, 2), 6: (2, 3), 8: (3, 4)}
    worst = {"BB": 0.0, "DB": 0.0, "T1": 0.0, "T2": 0.0, "DV_plus": 0.0, "DV_minus": 0.0}
    for n, (K, L) in params.items():
        for parity in both_parities():
            p = ModelParams(n, K, L, parity)
            pts = 0
            while pts < 20:
                u = complex(rng.uniform(0.15, 0.9), rng.uniform(-0.5, 0.5))
                v = complex(rng.uniform(1.0, 1.9), rng.uniform(-0.4, 0.4))
                m = int(rng.choice([3, -4, -5]))
                if abs(trig_s(p, 2 * m)) < 1e-6 or abs(trig_s(p, 2 * (m - 1))) < 1e-6:
                    continue
                r_bb, r_db = check_dynamical_relations(p, u, v, m)
                t1, t2 = check_T_decomposition(p, u)
                worst["BB"] = max(worst["BB"], r_bb)
                worst["DB"] = max(worst["DB"], r_db)
                worst["T1"] = max(worst["T1"], t1)
                worst["T2"] = max(worst["T2"], t2)
                if abs(trig_s(p, m + 1)) > 1e-6:
                    key = "DV_plus" if parity is Parity.PLUS else "DV_minus"
                    worst[key] = max(worst[key], check_vacuum_action(p, u, m))
                pts += 1
    bad = {k: v for k, v in worst.items() if v >= 1e-9}
    report(5, "dynamical-operator-identities", not bad,
           "max residuals " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_06_reduction_formula():
    rng = np.random.default_rng(99)
    worst = 0.0
    for L in (2, 3, 4):
        p = ModelParams(8, 3, L, Parity.MINUS)
        done = 0
        while done < 10:
            ys = rng.normal(1.0, 0.6, L) + 1j * rng.normal(0.0, 0.25, L)
            if any(abs(trig_s(p, 2 * y)) < 1e-2 for y in ys):
                continue
            if any(abs(trig_s(p, ys[i] + ys[j])) < 1e-2 or abs(trig_s(p, ys[i] - ys[j])) < 1e-2
                   for i in range(L) for j in range(i + 1, L)):
                continue
            worst = max(worst, check_reduction_formula(p, ys))
            done += 1
    report(6, "reduction-formula", worst < 1e-9, f"max residual {worst:.2e}, n=8, L in {{2,3,4}}")


def _bethe_sweep_instances():
    for n in (4, 6, 8):
        for K in range(n + 1):
            for L in range(1, n):
                if ModelParams(n, K, L, Parity.MINUS).time_rank <= 5:
                    yield n, K, L, AnsatzVariant.MINUS_FIRST
                    yield n, K, L, AnsatzVariant.MINUS_SECOND
            for L in range(0, n):
                if ModelParams(n, K, L, Parity.PLUS).time_rank <= 5:
                    yield n, K, L, AnsatzVariant.PLUS


@pytest.fixture(scope="module")
def bethe_sweep():
    t0 = time.time()
    results = {}
    for n, K, L, variant in _bethe_sweep_instances():
        p = ModelParams(n, K, L, variant.parity)
        results[(n, K, L, variant)] = solve_bethe(p, variant)
    return results, time.time() - t0


def test_criterion_07_bethe_completeness(bethe_sweep):
    results, elapsed = bethe_sweep
    missing = []
    worst_res = worst_spread = worst_dt = 0.0
    for key, res in results.items():
        if not res.complete:
            missing.append((key[0], key[1], key[2], key[3].value, res.missing_levels))
        for rs in res.root_sets:
            worst_res = max(worst_res, rs.residual)
            worst_spread = max(worst_spread, rs.u_spread)
            worst_dt = max(worst_dt, abs(rs.eigenvalue.real - rs.t_spectral))
    ok = (not missing and worst_res < 1e-9 and worst_spread < 1e-8
          and worst_dt < 1e-6 and elapsed < 600.0)
    report(7, "bethe-completeness", ok,
           f"{len(results)} instances, residual {worst_res:.1e}, spread {worst_spread:.1e}, "
           f"|dt| {worst_dt:.1e}, {elapsed:.1f} s"
           + (f", UNDER-RESOLVED {missing}" if missing else ""))


def test_criterion_08_cross_ansatz_agreement(bethe_sweep):
    results, _ = bethe_sweep
    worst = 0.0
    pairs = 0
    for (n, K, L, variant), res in results.items():
        if variant is not AnsatzVariant.MINUS_FIRST:
            continue
        other = results[(n, K, L, AnsatzVariant.MINUS_SECOND)]
        t1 = np.sort([rs.eigenvalue.real for rs in res.root_sets])
        t2 = np.sort([rs.eigenvalue.real for rs in other.root_sets])
        if t1.size != t2.size:
            report(8, "cross-ansatz-agreement", False,
                   f"n={n} K={K} L={L}: eigenvalue multisets differ in size")
        worst = max(worst, float(np.max(np.abs(t1 - t2))) if t1.size else 0.0)
        pairs += 1
    report(8, "cross-ansatz-agreement", worst < 1e-6,
           f"max multiset gap {worst:.2e} over {pairs} instances")


def test_criterion_09_reconstruction_round_trip():
    rng = np.random.default_rng(7)
    n = 8
    worst_ratio = 0.0
    exact_cases = unrec_cases = 0
    for parity in both_parities():
        for L in range(n + 1):
            for K in range(n + 1):
                p = ModelParams(n, K, L, parity)
                if p.time_rank == 0:
                    continue
                coeffs = np.zeros(p.dim, dtype=complex)
                for r, j in enumerate(p.indices):
                    if j <= L:
                        coeffs[r] = rng.normal() + 1j * rng.normal()
                f_sig = SignalVector(coeffs, position_kind(parity))
                rep = reconstruct(forward_observe(f_sig, p))
                if p.band_rank < p.time_rank:
                    if rep.verdict is not Verdict.UNRECOVERABLE:
                        report(9, "reconstruction-round-trip", False,
                               f"rank-deficient n={n} K={K} L={L} {parity.value} "
                               f"not flagged unrecoverable")
                    unrec_cases += 1
                if K >= L and rep.verdict is Verdict.EXACT:
                    err = np.linalg.norm(rep.f_hat.coeffs - coeffs) / np.linalg.norm(coeffs)
                    sig = rep.singular_values
                    bound = 1e-8 * sig[0] / sig[rep.kept_modes - 1]
                    worst_ratio = max(worst_ratio, err / bound)
                    exact_cases += 1
    report(9, "reconstruction-round-trip", worst_ratio < 1.0 and exact_cases and unrec_cases,
           f"{exact_cases} exact round trips (worst error/bound {worst_ratio:.2e}), "
           f"{unrec_cases} unrecoverable flagged")


def test_criterion_10_eigensolver_oracle_equivalence():
    worst = 0.0
    blocks = 0
    for n in range(2, 65):
        for parity in both_parities():
            for K, L in {(n // 3, n // 2), (1, max(1, n - 1)), (n, n // 4)}:
                p = ModelParams(n, K, L, parity)
                t = heun_tb(p)
                tri = eig_sym_tridiag(t)
                dense = eig_sym_dense(t.to_dense())
                worst = max(worst, float(np.max(np.abs(tri.values - dense.values))) if len(tri) else 0.0)
                blocks += 1
                cut = p.time_rank
                if 0 < cut:
                    top = t.block(cut)
                    tri_b = eig_sym_tridiag(top)
                    dense_b = eig_sym_dense(top.to_dense())
                    worst = max(worst, float(np.max(np.abs(tri_b.values - dense_b.values))))
                    blocks += 1
    report(10, "eigensolver-oracle-equivalence", worst < 1e-11,
           f"max eigenvalue gap {worst:.2e} over {blocks} blocks, n <= 64")
