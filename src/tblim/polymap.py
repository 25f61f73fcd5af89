"""The polynomial link between the Heun spectrum and the time-band spectrum.

A three-term recurrence driven by the Heun operator's tridiagonal action
builds polynomials whose values at a Heun eigenvalue reproduce eigenvector
component ratios; a weighted sum of them interpolates the time-band
eigenvalues and realizes the time-band operator as a window projector times a
polynomial of the Heun operator.

Everything happens on the m x m window block (m the window rank): the Heun
operator decouples exactly at the window edge, and there the time-band
operator is E^T E for the band x window Fourier block E.  The link polynomial
is P = sum_j w_j R_j with anchor weights w = E^T E[:, 0], and it is always
evaluated through the recurrence (on a scalar, or on the tridiagonal block
itself), never from monomial coefficients, whose Horner evaluation loses most
digits once degrees pass ~20.

Near-full windows make the link hypersensitive to rounding, so
``link_residuals_hp`` re-checks the identity in mpmath.  It reuses the model's
builders (``heun_coefficients`` and ``band_window_block`` in an mpmath
context), refines the double-precision eigenvalues of the window block by
Newton's method and confirms them with Sturm counts, and takes each
eigenvector from the recurrence: O(band rank * m^2) high-precision
operations.  The number of digits follows a conditioning estimate (the digits
the same check loses in double precision) and the result is confirmed at a
second, higher precision; disagreement doubles the digits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core_model import band_window_block
from .errors import ConvergenceError, DegeneracyError, DomainError
from .operators import heun_coefficients

__all__ = [
    "LinkResiduals",
    "recurrence_values",
    "eval_P_stable",
    "verify_Q_equals_piP",
    "refine_eigenvalues",
    "link_residuals_hp",
]

# digits kept beyond the conditioning estimate at the first precision, and
# added for the confirming one
_SPARE_DIGITS = 30
_CONFIRM_DIGITS = 20
_MAX_DIGITS = 2000
# two precisions agree when both residuals are below this, or equal to 1 %
_AGREE_FLOOR = 1e-20
_AGREE_REL = 1e-2
_NEWTON_STEPS = 40


def _window_coefficients(p, ctx=None):
    """Diagonal b_j and couplings a_{j+1} of the Heun operator on the window
    rows, j = 0 .. m-1 in recurrence order (m = window rank).

    On the symmetric subspace polynomial j attaches to position j; on the
    antisymmetric one to position j+1.  Step j of the recurrence uses
    (a_{j+1}, b_j, c_{j-1}) with c_{j-1} = a_j, so the couplings are the
    off-diagonal of the window block; the last one is the window-edge
    coupling, which vanishes identically.  An interior coupling below 1e-14
    (L = n on the symmetric subspace) raises a degeneracy error.
    ``ctx`` is the numeric context of ``heun_coefficients``; in double
    precision (``ctx=None``) the result is a pair of read-only arrays built
    once per instance.
    """
    if ctx is None:
        return _double_window_coefficients(p)
    return _window_rows(p, ctx)


@functools.lru_cache(maxsize=32)
def _double_window_coefficients(p):
    return tuple(_read_only(np.array(values, dtype=float)) for values in _window_rows(p))


def _read_only(a):
    a.flags.writeable = False
    return a


def _window_rows(p, ctx=None):
    """The lists behind ``_window_coefficients``, in the arithmetic of
    ``ctx``."""
    a, b, _ = heun_coefficients(p, "position", ctx)
    window = p.indices[: p.time_rank]
    diag = [b(j) for j in window]
    couplings = [a(j + 1) for j in window]
    for step, a_next in enumerate(couplings[:-1]):
        if abs(float(a_next)) < 1e-14:
            raise DegeneracyError(
                f"vanishing leading recurrence coefficient at step {step} "
                f"(n={p.n}, L={p.L}, parity={p.parity.value})"
            )
    return diag, couplings


def _recurrence(diag, couplings, x):
    """R_0(x) .. R_{m-1}(x) with R_0 = 1 and
    R_{j+1} = ((x - b_j) R_j - a_j R_{j-1}) / a_{j+1}, in the arithmetic of x
    (a numpy array or an mpf)."""
    vals = [x * 0 + 1]
    for j in range(len(diag) - 1):
        nxt = (x - diag[j]) * vals[j]
        if j:
            nxt = nxt - couplings[j - 1] * vals[j - 1]
        vals.append(nxt / couplings[j])
    return vals


def recurrence_values(p, x):
    """Values R_j(x) for j = 0 .. window rank - 1, by running the recurrence
    at x directly (stable evaluation path).  For an array x the result has
    shape (window rank,) + x.shape."""
    x = np.asarray(x, dtype=complex)
    if p.time_rank == 0:
        return np.zeros((0,) + x.shape, dtype=complex)
    diag, couplings = _window_coefficients(p)
    return np.array(_recurrence(diag, couplings, x))


@functools.lru_cache(maxsize=32)
def _anchor_weights(p):
    """Weights <anchor| Q |j> pairing the recurrence polynomials, where the
    anchor is the first window position: column 0 of E^T E for the
    band x window Fourier block E.  A read-only array, built once per
    instance."""
    e = band_window_block(p)
    return _read_only(e.T @ e[:, 0])


def eval_P_stable(p, x):
    """Evaluate the spectral-link polynomial at x (a scalar or an array)
    through the recurrence."""
    if p.time_rank == 0:
        return np.zeros_like(np.asarray(x, dtype=complex))[()]
    return (_anchor_weights(p) @ recurrence_values(p, x))[()]


def _link_on_window(diag, couplings, w):
    """P(T) = sum_j w_j R_j(T) on the tridiagonal window block T, with
    R_0 = I and R_{j+1} = ((T - b_j) R_j - a_j R_{j-1}) / a_{j+1}."""
    m = len(diag)
    d = np.asarray(diag, dtype=float)
    off = np.asarray(couplings[: m - 1], dtype=float)[:, None]
    r_prev, r = np.zeros((m, m)), np.eye(m)
    out = w[0] * r
    for j in range(m - 1):
        nxt = (d[:, None] - diag[j]) * r
        nxt[:-1] += off * r[1:]
        nxt[1:] += off * r[:-1]
        if j:
            nxt -= couplings[j - 1] * r_prev
        r_prev, r = r, nxt / couplings[j]
        out += w[j + 1] * r
    return out


def verify_Q_equals_piP(p):
    """Max-norm defect of the identity: time-band operator equals window
    projector times the link polynomial of the Heun operator.

    Computed in double precision on the window block, where Q = E^T E and
    P(T) comes from the three-term recurrence on the tridiagonal block; off
    the window both sides vanish once the window-edge coupling does, which
    enters the defect.  Near-full windows make the link polynomial
    hypersensitive to rounding, so the double-precision defect there
    reflects rounding, not the identity; ``link_residuals_hp`` resolves
    those cases.
    """
    if p.time_rank == 0:
        return 0.0
    diag, couplings = _window_coefficients(p)
    e = band_window_block(p)
    pt = _link_on_window(diag, couplings, e.T @ e[:, 0])
    return float(max(np.max(np.abs(e.T @ e - pt)), abs(couplings[-1])))


@dataclass(frozen=True)
class LinkResiduals:
    """High-precision residuals of the spectral link at the highest
    precision tried: ``operator`` = ||Q - P(T)||_F on the window (at least
    the max-norm defect), ``eigenbasis`` = max_l |P(t_l) - q_l|.

    ``trials`` lists (digits, operator, eigenbasis) for every precision
    tried, lowest first.  Unpacks as the pair (operator, eigenbasis).
    """

    operator: float
    eigenbasis: float
    trials: tuple = ()

    def __iter__(self):
        return iter((self.operator, self.eigenbasis))

    @property
    def digits(self):
        return tuple(trial[0] for trial in self.trials)


def _charpoly(diag, e2, x):
    """Characteristic polynomial of a symmetric tridiagonal matrix (squared
    off-diagonal ``e2``) and its derivative at x, by the three-term
    recurrence."""
    f_prev, f = 1, x - diag[0]
    d_prev, d = 0, 1
    for k in range(1, len(diag)):
        f_prev, f, d_prev, d = (
            f, (x - diag[k]) * f - e2[k - 1] * f_prev,
            d, f + (x - diag[k]) * d - e2[k - 1] * d_prev,
        )
    return f, d


def _count_below(diag, e2, x, tiny):
    """Sturm count: the number of eigenvalues below x, read off the signs of
    the pivots of T - x I = L D L^T (a zero pivot is replaced by ``tiny``)."""
    count, u = 0, None
    for k in range(len(diag)):
        u = diag[k] - x - (e2[k - 1] / u if k else 0)
        if not u:
            u = tiny
        if u < 0:
            count += 1
    return count


def refine_eigenvalues(diag, off, guesses, ctx):
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal ``diag``
    and off-diagonal ``off`` in the precision of the mpmath context ``ctx``,
    refined from ``guesses`` (one per eigenvalue: double-precision values, or
    the roots of a lower precision) by Newton's method on the characteristic
    polynomial.

    Returned ascending once confirmed to be m distinct roots: with h_i a
    quarter of the distance from root x_i to its nearest neighbour, a Sturm
    count finds exactly i eigenvalues below x_i - h_i and i + 1 below
    x_i + h_i, so every root brackets its own eigenvalue and none is counted
    twice.  Otherwise ConvergenceError.
    """
    m = len(diag)
    if len(guesses) != m:
        raise DomainError(f"{len(guesses)} guesses for {m} eigenvalues")
    diag = [ctx.mpf(d) for d in diag]
    e2 = [ctx.mpf(e) ** 2 for e in off[: m - 1]]
    scale = 1 + max(abs(d) for d in diag) + 2 * max((abs(ctx.mpf(e)) for e in off[: m - 1]), default=0)
    tol = 4 * ctx.eps * scale
    roots = []
    for guess in guesses:
        x, last = ctx.mpf(guess), None
        for _ in range(_NEWTON_STEPS):
            f, df = _charpoly(diag, e2, x)
            if not df:
                break
            step = f / df
            x -= step
            if abs(step) <= tol or (last is not None and abs(step) > last / 2):
                break
            last = abs(step)
        roots.append(x)
    roots.sort()
    for i, x in enumerate(roots):
        h = min((abs(roots[k] - x) for k in (i - 1, i + 1) if 0 <= k < m), default=scale) / 4
        if _count_below(diag, e2, x - h, ctx.eps) != i \
                or _count_below(diag, e2, x + h, ctx.eps) != i + 1:
            raise ConvergenceError(
                f"refined eigenvalue {i} of {m} does not bracket its own eigenvalue "
                f"at {ctx.dps} digits"
            )
    return roots


def _link_residuals_at(p, guesses, ctx):
    """(operator, eigenbasis) residuals of the link in the current precision
    of ``ctx`` (see ``link_residuals_hp``), and the refined eigenvalues."""
    diag, couplings = _window_coefficients(p, ctx)
    e_rows = band_window_block(p, ctx)
    e_cols = [[row[c] for row in e_rows] for c in range(len(diag))]
    w = [ctx.fdot(col, e_cols[0]) for col in e_cols]
    op_sq = eig = ctx.mpf(0)
    roots = refine_eigenvalues(diag, couplings, guesses, ctx)
    for t in roots:
        r = _recurrence(diag, couplings, t)
        norm = ctx.sqrt(ctx.fdot(r, r))
        v = [x / norm for x in r]
        ev = [ctx.fdot(row, v) for row in e_rows]
        p_t = ctx.fdot(w, r)
        eig = max(eig, abs(p_t - ctx.fdot(ev, ev)))
        defect = [ctx.fdot(col, ev) - p_t * vi for col, vi in zip(e_cols, v)]
        op_sq += ctx.fdot(defect, defect)
    return max(float(ctx.sqrt(op_sq)), abs(float(couplings[-1]))), float(eig), roots


def _starting_digits(p, diag, couplings, ts):
    """Digits for the first high-precision pass: those the eigenbasis form
    of the check loses in double precision (log10 of its double defect over
    the unit roundoff), plus a margin."""
    with np.errstate(all="ignore"):
        vals = np.array(_recurrence(diag, couplings, ts))
        e = band_window_block(p)
        v = vals / np.linalg.norm(vals, axis=0)
        defect = float(np.max(np.abs((e.T @ e[:, 0]) @ vals - np.sum((e @ v) ** 2, axis=0))))
    eps = np.finfo(float).eps / 2
    lost = math.log10(max(defect, eps) / eps) if defect < 1e300 else 300.0
    return _SPARE_DIGITS + math.ceil(lost)


def _agree(first, second):
    return all(max(x, y) <= _AGREE_FLOOR or abs(x - y) <= _AGREE_REL * max(x, y)
               for x, y in zip(first, second))


def link_residuals_hp(p):
    """Residuals of the spectral-link identity recomputed in mpmath, as a
    ``LinkResiduals`` that unpacks as (operator, eigenbasis).

    The derivative of the link polynomial at its own interpolation nodes can
    exceed 1e10 when the window nearly fills the subspace, so any pipeline
    consuming double-precision eigenvalues bottoms out far above rounding
    there.  This rebuilds the window block of the Heun operator and the
    band x window block E at high precision, refines the window eigenvalues
    t_l (``refine_eigenvalues``), and takes the eigenvectors v_l from the
    recurrence, v_l proportional to (R_0(t_l), .., R_{m-1}(t_l)).  With
    q_l = ||E v_l||^2 (unit v_l) it reports

        eigenbasis = max_l |P(t_l) - q_l|
        operator   = (sum_l ||E^T E v_l - P(t_l) v_l||^2)^(1/2) = ||Q - P(T)||_F

    on the window (Q and P1 P(T) vanish outside it once the window-edge
    coupling does, which is included).  The first precision is the digits
    the double-precision check loses plus a margin; a second, higher
    precision confirms it, and while the two disagree the digits double.
    """
    m = p.time_rank
    if m == 0:
        return LinkResiduals(0.0, 0.0)
    import mpmath

    diag, couplings = _window_coefficients(p)
    block = np.diag(diag) + np.diag(couplings[: m - 1], 1) + np.diag(couplings[: m - 1], -1)
    guesses = np.linalg.eigvalsh(block)
    dps = _starting_digits(p, diag, couplings, guesses)
    trials = []
    while True:
        with mpmath.workdps(dps):
            r_op, r_eig, guesses = _link_residuals_at(p, guesses, mpmath.mp)
        trials.append((dps, r_op, r_eig))
        if len(trials) > 1 and _agree(trials[-2][1:], trials[-1][1:]) or dps >= _MAX_DIGITS:
            break
        dps = dps + _CONFIRM_DIGITS if len(trials) == 1 else 2 * dps
    _, r_op, r_eig = trials[-1]
    return LinkResiduals(r_op, r_eig, tuple(trials))
