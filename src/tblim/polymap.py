"""The polynomial link between the Heun spectrum and the time-band spectrum.

A three-term recurrence driven by the Heun operator's tridiagonal action
builds polynomials whose values at a Heun eigenvalue reproduce eigenvector
component ratios; a weighted sum of them interpolates the time-band
eigenvalues and realizes the time-band operator as a window projector times a
polynomial of the Heun operator.

Coefficients are stored in the monomial basis, but tests and diagnostics can
evaluate through the recurrence directly, which is the numerically stable
path once degrees grow past ~20.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import DenseOperator, Parity
from .errors import DegeneracyError, DomainError
from .operators import heun_coefficients, tb_operator

__all__ = [
    "Polynomial",
    "recurrence_polys",
    "recurrence_values",
    "assemble_P",
    "eval_P_stable",
    "eval_poly_on_operator",
    "verify_Q_equals_piP",
    "link_residuals_hp",
]


@dataclass
class Polynomial:
    """Real polynomial in ascending monomial coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))

    @property
    def degree(self):
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else 0

    def __call__(self, x):
        out = np.zeros_like(np.asarray(x, dtype=complex))
        for c in self.coeffs[::-1]:
            out = out * x + c
        return out[()]


def _poly_count(p):
    # one polynomial per window-block row
    return p.time_rank


def _recurrence_abc(p, step):
    """Tridiagonal coefficients feeding recurrence step ``step``.

    On the symmetric subspace polynomial j attaches to position j and the
    step uses (a_{j+1}, b_j, c_{j-1}); on the antisymmetric one polynomial j
    attaches to position j+1, shifting every index up by one.
    """
    a, b, c = heun_coefficients(p, "position")
    off = 0 if p.parity is Parity.PLUS else 1
    j = step + off
    return a(j + 1), b(j), c(j - 1)


def recurrence_polys(p):
    """Polynomials R_0 .. R_{m-1} (m = window rank) with R_0 = 1, deg R_j = j.

    Each forward substitution divides by the leading coefficient a_{j+1},
    which is guaranteed nonzero inside the window for L < n; a vanishing
    leading coefficient raises a degeneracy error.
    """
    count = _poly_count(p)
    if count == 0:
        return []
    polys = [Polynomial(np.array([1.0]))]
    for step in range(count - 1):
        a_next, b_cur, c_prev = _recurrence_abc(p, step)
        if abs(a_next) < 1e-14:
            raise DegeneracyError(
                f"vanishing leading recurrence coefficient at step {step} "
                f"(n={p.n}, L={p.L}, parity={p.parity.value})"
            )
        cur = polys[step].coeffs
        new = np.zeros(step + 2)
        new[1:] += cur                      # x * R_j
        new[: step + 1] -= b_cur * cur
        if step >= 1:
            new[: step] -= c_prev * polys[step - 1].coeffs
        polys.append(Polynomial(new / a_next))
    return polys


def recurrence_values(p, x):
    """Values R_j(x) for j = 0 .. window rank - 1, by running the recurrence
    at the point x directly (stable evaluation path)."""
    count = _poly_count(p)
    vals = np.zeros(count, dtype=complex)
    if count == 0:
        return vals
    vals[0] = 1.0
    prev = 0.0
    for step in range(count - 1):
        a_next, b_cur, c_prev = _recurrence_abc(p, step)
        if abs(a_next) < 1e-14:
            raise DegeneracyError(f"vanishing leading recurrence coefficient at step {step}")
        vals[step + 1] = ((x - b_cur) * vals[step] - c_prev * prev) / a_next
        prev = vals[step]
    return vals


def _anchor_weights(p):
    """Weights <anchor| Q |j> pairing the recurrence polynomials;
    the anchor is the first window position (0 or 1 by parity)."""
    q = tb_operator(p).entries
    count = _poly_count(p)
    return np.real(q[0, :count])


def assemble_P(p):
    """The spectral-link polynomial: P(t_l) = q_l on every window mode.

    Built as the anchor-row weighted sum of the recurrence polynomials;
    degree is at most the window rank minus one.
    """
    polys = recurrence_polys(p)
    if not polys:
        return Polynomial(np.array([0.0]))
    w = _anchor_weights(p)
    coeffs = np.zeros(len(polys))
    for j, poly in enumerate(polys):
        coeffs[: poly.coeffs.size] += w[j] * poly.coeffs
    return Polynomial(coeffs)


def eval_P_stable(p, x):
    """Evaluate the spectral-link polynomial at scalar x through the
    recurrence (monomial-free path)."""
    count = _poly_count(p)
    if count == 0:
        return 0.0j
    w = _anchor_weights(p)
    return w @ recurrence_values(p, x)


def eval_poly_on_operator(poly, t):
    """Horner evaluation of a polynomial at a dense operator."""
    if not isinstance(t, DenseOperator):
        raise DomainError("expected a DenseOperator")
    out = np.zeros((t.dim, t.dim), dtype=complex)
    eye = np.eye(t.dim)
    for c in poly.coeffs[::-1]:
        out = out @ t.entries + c * eye
    return DenseOperator(out, t.basis)


def verify_Q_equals_piP(p):
    """Max-norm defect of the identity: time-band operator equals window
    projector times the link polynomial of the Heun operator.

    Computed in double precision.  Near-full windows (L close to n) make the
    link polynomial's value at the spectrum hypersensitive to the eigenvalue
    inputs, so the double-precision defect there reflects input rounding,
    not the identity; ``link_residuals_hp`` resolves those cases.
    """
    from .operators import heun_tb, projector_time

    q = tb_operator(p).entries
    poly = assemble_P(p)
    t_dense = heun_tb(p).to_dense()
    pt = eval_poly_on_operator(poly, t_dense).entries
    p1 = projector_time(p).entries
    diff = q - p1 @ pt
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def link_residuals_hp(p, dps=40):
    """(operator, eigenbasis) residuals of the spectral-link identity,
    recomputed end to end in ``dps``-digit arithmetic.

    The derivative of the link polynomial at its own interpolation nodes can
    exceed 1e10 when the window nearly fills the subspace, so any pipeline
    consuming double-precision eigenvalues bottoms out near 1e-6 there.
    Rebuilding the window block, its spectrum, the anchor weights, and the
    recurrence at high precision verifies the identity itself, independent
    of that sensitivity.  Off-window entries of both sides vanish exactly by
    the window-edge decoupling and are checked in double precision.
    """
    import mpmath as mp

    from .operators import heun_tb, projector_time

    count = _poly_count(p)
    if count == 0:
        return 0.0, 0.0

    # exact-zero structure outside the window block (double precision is exact here)
    q64 = tb_operator(p).entries
    p1 = projector_time(p).entries
    t64 = heun_tb(p)
    window = count
    off_block = max(
        float(np.max(np.abs(q64[window:, :]))) if window < p.dim else 0.0,
        float(np.max(np.abs(q64[:, window:]))) if window < p.dim else 0.0,
        abs(t64.offdiag[window - 1]) if 0 < window < p.dim else 0.0,
    )

    with mp.workdps(dps):
        n = p.n
        pi = mp.pi

        def cos_g(x):
            return mp.cos(pi * x / (2 * n))

        def rho_mp(j):
            if j in (0, n):
                return mp.sqrt(2)
            return mp.mpf(1) if 1 <= j <= n - 1 else mp.mpf(0)

        plus = p.parity is Parity.PLUS
        idx = p.indices
        band = [k for k in idx if k <= p.K]
        win = [j for j in idx if j <= p.L]

        # band x window block of the Fourier matrix; Q window block = M^T M
        m_mat = mp.zeros(len(band), len(win))
        for r, k in enumerate(band):
            for c_i, j in enumerate(win):
                if plus:
                    m_mat[r, c_i] = mp.sqrt(mp.mpf(2) / n) * mp.cos(pi * k * j / n) \
                        / (rho_mp(k) * rho_mp(j))
                else:
                    m_mat[r, c_i] = mp.sqrt(mp.mpf(2) / n) * mp.sin(pi * k * j / n)
        q_top = m_mat.T * m_mat

        weight = rho_mp if plus else (lambda j: mp.mpf(1))
        ck = cos_g(2 * p.K + 1)
        cl = cos_g(2 * p.L + 1)

        def a_mp(j):
            return weight(j - 1) * weight(j) * (cos_g(2 * j - 1) - cl)

        def b_mp(j):
            return -2 * ck * cos_g(2 * j)

        t_top = mp.zeros(count, count)
        for r, j in enumerate(win):
            t_top[r, r] = b_mp(j)
            if r + 1 < count:
                t_top[r, r + 1] = t_top[r + 1, r] = a_mp(j + 1)

        off = 0 if plus else 1

        # monomial coefficients of the link polynomial
        polys = [[mp.mpf(1)]]
        for step in range(count - 1):
            j = step + off
            cur = polys[step]
            new = [mp.mpf(0)] * (step + 2)
            for i, ci in enumerate(cur):
                new[i + 1] += ci
                new[i] -= b_mp(j) * ci
            if step >= 1:
                c_prev = weight(j - 1) * weight(j) * (cos_g(2 * j - 1) - cl)
                for i, ci in enumerate(polys[step - 1]):
                    new[i] -= c_prev * ci
            a_next = a_mp(j + 1)
            polys.append([x / a_next for x in new])
        coeffs = [mp.mpf(0)] * count
        for j in range(count):
            for i, ci in enumerate(polys[j]):
                coeffs[i] += q_top[0, j] * ci

        # operator form on the window block (Horner)
        acc = mp.zeros(count, count)
        eye = mp.eye(count)
        for c_coef in coeffs[::-1]:
            acc = acc * t_top + c_coef * eye
        op_res = max(abs(q_top[i, j] - acc[i, j]) for i in range(count) for j in range(count))

        # eigenbasis form
        evals, evecs = mp.eigsy(t_top)
        eig_res = mp.mpf(0)
        for l in range(count):
            t_val = evals[l]
            v = evecs[:, l]
            q_val = (v.T * q_top * v)[0, 0]
            p_val = mp.mpf(0)
            for c_coef in coeffs[::-1]:
                p_val = p_val * t_val + c_coef
            eig_res = max(eig_res, abs(p_val - q_val))

        return max(float(op_res), off_block), float(eig_res)
