"""Instance-level verification suite: every structural identity the package
relies on, each reduced to a residual with a pass threshold.

Checks that are ill-posed for a given instance (a dynamical parameter hitting
a pole, an empty window) are reported as skipped with the reason rather than
silently dropped or failed.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .bethe import (
    check_dynamical_relations,
    check_reduction_formula,
    check_T_decomposition,
    check_vacuum_action,
)
from .core_model import Parity, fourier_matrix, momentum_basis, position_basis, trig_c, trig_s
from .errors import PoleError
from .operators import (
    check_askey_wilson,
    commutator_norm,
    heun_general,
    heun_tb,
    heun_tb_momentum,
    leonard_pair,
    projector_band,
    projector_time,
    tb_operator,
    to_momentum_basis,
)
from .polymap import eval_P_stable, link_residuals_hp, verify_Q_equals_piP
from .spectral import eig_sym_dense, eigvals_sym_tridiag, joint_spectrum, svd_E

__all__ = ["CheckResult", "basis_checks", "run_suite"]

log = logging.getLogger("tblim")


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""


def _check(name, residual, tol):
    return CheckResult(name, float(residual), tol, bool(residual < tol))


def _skip(name, note):
    return CheckResult(name, 0.0, 0.0, True, skipped=True, note=note)


def _mx(m):
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def basis_checks(p):
    """Orthonormal position and momentum bases, a unitary Fourier matrix,
    and its entries equal to the inner products of the two bases."""
    pos = position_basis(p)
    mom = momentum_basis(p)
    f = fourier_matrix(p).entries
    return [
        _check("position_gram", _mx(pos @ pos.T - np.eye(p.dim)), 1e-13),
        _check("momentum_gram", _mx(mom @ mom.T - np.eye(p.dim)), 1e-13),
        _check("fourier_unitarity", _mx(f.conj().T @ f - np.eye(p.dim)), 1e-13),
        _check("fourier_vs_inner_products", _mx(f - mom @ pos.T), 1e-13),
    ]


def run_suite(p, rng=None):
    """Run the full residual suite on one instance; returns CheckResult list."""
    rng = rng or np.random.default_rng(0)
    out = basis_checks(p)

    # commutation of the Heun operator with the limiting operators
    t_dense = heun_tb(p).to_dense()
    p1 = projector_time(p)
    p2 = projector_band(p)
    q = tb_operator(p)
    out.append(_check("commutator_T_window", commutator_norm(t_dense, p1), 1e-12))
    out.append(_check("commutator_T_band", commutator_norm(t_dense, p2), 1e-12))
    out.append(_check("commutator_T_Q", commutator_norm(t_dense, q), 1e-12))

    # Askey-Wilson relations and Leonard duality
    r1, r2 = check_askey_wilson(p)
    out.append(_check("askey_wilson_1", r1, 1e-12))
    out.append(_check("askey_wilson_2", r2, 1e-12))
    a, astar = leonard_pair(p)
    a_mom = to_momentum_basis(a.to_dense(), p).entries
    astar_mom = to_momentum_basis(astar.to_dense(), p).entries
    out.append(_check("leonard_duality_diag",
                      _mx(a_mom - astar.to_dense().entries), 1e-12))
    out.append(_check("leonard_duality_tridiag",
                      _mx(astar_mom - a.to_dense().entries), 1e-12))

    # Heun operator: general form, momentum mirror, exact decoupling
    general = heun_general(a, astar, 1.0 / (4 * trig_c(p, 1)), 0.0,
                           -trig_c(p, 2 * p.K + 1), -trig_c(p, 2 * p.L + 1), 0.0)
    out.append(_check("heun_vs_general", _mx(t_dense.entries - general.entries), 1e-13))
    t_mom = heun_tb_momentum(p).to_dense().entries
    out.append(_check("heun_momentum_conjugation",
                      _mx(to_momentum_basis(t_dense, p).entries - t_mom), 1e-12))
    cut = p.time_rank
    if 0 < cut < p.dim:
        out.append(_check("window_edge_decoupling", abs(heun_tb(p).offdiag[cut - 1]), 0.0 + 1e-300))

    # spectra: hand-rolled vs dense, SVD vs eigenvalues
    tri = eigvals_sym_tridiag(heun_tb(p))
    dense = eig_sym_dense(t_dense)
    out.append(_check("tridiag_vs_dense_eigenvalues", _mx(tri - dense.values), 1e-11))
    qs = np.sort(eig_sym_dense(q).values)[::-1]
    out.append(_check("svd_sq_vs_Q_spectrum", _mx(svd_E(p) ** 2 - np.clip(qs, 0.0, None)), 1e-10))
    out.append(_check("Q_spectrum_in_unit_interval",
                      max(0.0, float(np.max(qs)) - 1.0, float(-np.min(qs))), 1e-12))

    # spectral link polynomial
    if p.L >= p.n:
        out.append(_skip("polymap_operator_identity", "L = n: no window edge, link degenerates"))
    else:
        r_op = verify_Q_equals_piP(p)
        modes = joint_spectrum(p)
        ts = np.array([m.t for m in modes])
        qs = np.array([m.q for m in modes])
        r_eig = float(np.max(np.abs(eval_P_stable(p, ts) - qs), initial=0.0))
        note = ""
        if r_op > 1e-8 or r_eig > 1e-9:
            t0 = time.perf_counter()
            hp = link_residuals_hp(p)
            log.info("polymap escalation n=%d K=%d L=%d %s: double operator %.3e, "
                     "eigenbasis %.3e; %s; %.3f s",
                     p.n, p.K, p.L, p.parity.value, r_op, r_eig,
                     ", ".join(f"{d} digits operator {o:.3e} eigenbasis {e:.3e}"
                               for d, o, e in hp.trials),
                     time.perf_counter() - t0)
            r_op, r_eig = hp
            note = f"re-verified at {' and '.join(map(str, hp.digits))} digits"
        res_op = _check("polymap_operator_identity", r_op, 1e-7)
        res_eig = _check("polymap_interpolation", r_eig, 1e-8)
        res_op.note = res_eig.note = note
        out.extend([res_op, res_eig])

    # dynamical operators at sampled points
    us = rng.uniform(0.21, 0.8, 3) + 1j * rng.uniform(-0.4, 0.4, 3)
    vs = rng.uniform(0.9, 1.7, 3) + 1j * rng.uniform(-0.3, 0.3, 3)
    ms = [m for m in (3, -4, 2) if abs(trig_s(p, 2 * m)) > 1e-9 and abs(trig_s(p, 2 * (m - 1))) > 1e-9]
    if ms:
        r_bb = r_db = 0.0
        for u, v in zip(us, vs):
            bb, db = check_dynamical_relations(p, u, v, ms[0])
            r_bb, r_db = max(r_bb, bb), max(r_db, db)
        out.append(_check("exchange_relation_BB", r_bb, 1e-10))
        out.append(_check("exchange_relation_DB", r_db, 1e-9))
    else:
        out.append(_skip("exchange_relation_BB", "no admissible dynamical parameter"))

    if abs(trig_s(p, 2 * p.L)) > 1e-9 and abs(trig_s(p, 2 * (p.L + 1))) > 1e-9:
        rt1 = rt2 = 0.0
        for u in us:
            a1, a2 = check_T_decomposition(p, u)
            rt1, rt2 = max(rt1, a1), max(rt2, a2)
        out.append(_check("heun_decomposition_m_L", rt1, 1e-10))
        out.append(_check("heun_decomposition_m_negL1", rt2, 1e-10))
    else:
        out.append(_skip("heun_decomposition", f"dynamical parameter pole at L={p.L}, n={p.n}"))

    vac_ms = [m for m in (3, -5, 1) if abs(trig_s(p, 2 * m)) > 1e-9 and abs(trig_s(p, m + 1)) > 1e-9]
    if vac_ms:
        rv = max(check_vacuum_action(p, u, vac_ms[0]) for u in us)
        out.append(_check("vacuum_action", rv, 1e-11))
    else:
        out.append(_skip("vacuum_action", "no admissible dynamical parameter"))

    # reduction identity (antisymmetric subspace only)
    if p.parity is Parity.MINUS and 2 <= p.L:
        slots_ok = all(abs(trig_s(p, 2 * m)) > 1e-9 for m in range(-2 * p.L + 1, -p.L))
        if slots_ok:
            ys = rng.normal(0.9, 0.4, p.L) + 1j * rng.normal(0.0, 0.2, p.L)
            try:
                out.append(_check("reduction_formula", check_reduction_formula(p, ys), 1e-9))
            except PoleError as exc:
                out.append(_skip("reduction_formula", f"sampled roots hit a pole: {exc.factor}"))
        else:
            out.append(_skip("reduction_formula", "creation slot hits a dynamical pole"))

    return out
