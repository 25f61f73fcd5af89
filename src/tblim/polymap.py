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
``link_residuals_hp`` re-checks the identity in high precision.  It builds
the window block and E with the model's own builders (``heun_coefficients``
and ``band_window_block`` in an mpmath context, from one table of cosines
per precision), then converts them once to fixed point: Python integers
scaled by 2**P, P the context's precision plus guard bits, in numpy object
arrays, so that each step is one pass over all m window eigenvalues instead
of one mpf object per operation.  The quantities
it forms (eigenvalues, unit eigenvectors, E v and the defects) are O(1), so
an absolute 2**-P error per operation is as good as floating point at that
precision.  It refines the double-precision eigenvalues of the window block
by Newton's method, confirms them with Sturm counts, and takes each
eigenvector from the recurrence: O(band rank * m^2) integer operations.  The
number of digits follows a conditioning estimate (the digits the same check
loses in double precision) and the result is confirmed at a second, higher
precision; disagreement doubles the digits.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core_model import band_window_block, grid_cos
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

log = logging.getLogger("tblim")

# digits kept beyond the conditioning estimate at the first precision, and
# added for the confirming one
_SPARE_DIGITS = 30
_CONFIRM_DIGITS = 20
_MAX_DIGITS = 2000
# two precisions agree when both residuals are below this, or equal to 1 %
_AGREE_FLOOR = 1e-20
_AGREE_REL = 1e-2
_NEWTON_STEPS = 40
# bits kept beyond the context's precision by the fixed-point arithmetic
_GUARD_BITS = 16


def _window_rows(p, ctx=None, cos=None):
    """Diagonal b_j and couplings a_{j+1} of the Heun operator on the window
    rows, j = 0 .. m-1 in recurrence order (m = window rank).

    On the symmetric subspace polynomial j attaches to position j; on the
    antisymmetric one to position j+1.  Step j of the recurrence uses
    (a_{j+1}, b_j, c_{j-1}) with c_{j-1} = a_j, so the couplings are the
    off-diagonal of the window block; the last one is the window-edge
    coupling, which vanishes identically.  An interior coupling below 1e-14
    (L = n on the symmetric subspace) raises a degeneracy error.
    ``ctx`` and ``cos`` are passed to ``heun_coefficients``: in double
    precision (``ctx=None``) the result is a pair of float arrays, in an
    mpmath context a pair of object arrays of mpf.
    """
    a, b, _ = heun_coefficients(p, "position", ctx, cos)
    window = np.array(p.indices)[: p.time_rank]
    diag, couplings = b(window), a(window + 1)
    vanishing = np.flatnonzero(np.abs(couplings[:-1].astype(float)) < 1e-14)
    if vanishing.size:
        raise DegeneracyError(
            f"vanishing leading recurrence coefficient at step {vanishing[0]} "
            f"(n={p.n}, L={p.L}, parity={p.parity.value})"
        )
    return diag, couplings


@functools.lru_cache(maxsize=32)
def _window_coefficients(p):
    """``_window_rows`` in double precision, read-only, built once per
    instance."""
    return tuple(_read_only(values) for values in _window_rows(p))


def _read_only(a):
    a.flags.writeable = False
    return a


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


def _fixed(values, bits, ctx):
    """Real values (mpf or float) as integers scaled by 2**bits, rounded down,
    in a numpy object array."""
    from mpmath.libmp import to_fixed

    return np.array([to_fixed(ctx.convert(v)._mpf_, bits) for v in values], dtype=object)


def _pivots(diag, e2s, x, tiny):
    """The pivots u_0 .. u_{m-1} of T - x I = L D L^T, in turn, for every x of
    the array at once, with the quotients e_k^2 / u_k that form them; a zero
    pivot is replaced by ``tiny``.  ``e2s`` holds the squared off-diagonal
    scaled by 2**(2 bits), so e2s // u is again scaled by 2**bits."""
    quotient = None
    for k, d in enumerate(diag):
        u = d - x if quotient is None else d - x - quotient
        u[u == 0] = tiny
        yield u, quotient
        if k < len(e2s):
            quotient = e2s[k] // u


def _newton(diag, e2s, x, bits, tol):
    """Newton's method on det(T - x I) for every root of the array at once,
    with the step f/f' = 1 / sum_k u_k'/u_k taken from the pivots u_k and
    their derivatives u_k' = -1 + (e_{k-1}^2 / u_{k-1}) u_{k-1}' / u_{k-1}.
    Each root stops once its step is at most ``tol`` or fails to halve.
    Returns the roots and the number of passes over them."""
    one = 1 << bits
    x = x.copy()
    last = np.full(len(x), -1, dtype=object)
    active = np.arange(len(x))
    passes = 0
    while active.size and passes < _NEWTON_STEPS:
        passes += 1
        xa = x[active]
        total = np.zeros(len(xa), dtype=object)
        du = np.full(len(xa), -one, dtype=object)
        for u, quotient in _pivots(diag, e2s, xa, 1):
            if quotient is not None:
                du = quotient * du // u_prev - one
            total += (du << bits) // u
            u_prev = u
        moves = total != 0
        step = np.zeros(len(xa), dtype=object)
        step[moves] = (one << bits) // total[moves]
        x[active] = xa - step
        size = np.abs(step)
        prev = last[active]
        done = (size <= tol) | ((prev >= 0) & (2 * size > prev))
        last[active] = size
        active = active[~done]
    return x, passes


def _count_below(diag, e2s, x, tiny):
    """Sturm counts: the number of eigenvalues below each x of the array, read
    off the signs of the pivots of T - x I."""
    count = np.zeros(len(x), dtype=int)
    for u, _ in _pivots(diag, e2s, x, tiny):
        count += u < 0
    return count


def _refine(d, e, guesses, bits, ctx):
    """``refine_eigenvalues`` in fixed point, on the diagonal ``d`` and the
    off-diagonal ``e`` as integers scaled by 2**bits: the roots, so scaled
    and ascending; then the number of Newton passes and a boolean array that
    is true for each root that brackets its own eigenvalue."""
    m = len(d)
    one = 1 << bits
    e2s = e * e
    eps = int(_fixed([ctx.eps], bits, ctx)[0])
    scale = one + max(abs(v) for v in d) + 2 * max((abs(v) for v in e), default=0)
    x, passes = _newton(d, e2s, _fixed(guesses, bits, ctx), bits, (4 * eps * scale) >> bits)
    x = np.array(sorted(x), dtype=object)
    if m > 1:
        gap = x[1:] - x[:-1]
        h = np.concatenate([gap[:1], np.minimum(gap[:-1], gap[1:]), gap[-1:]]) // 4
    else:
        h = np.array([scale // 4], dtype=object)
    below = _count_below(d, e2s, np.concatenate([x - h, x + h]), eps)
    ranks = np.arange(m)
    bracketed = (below[:m] == ranks) & (below[m:] == ranks + 1)
    return x, passes, bracketed


def _require_bracketed(bracketed, ctx):
    if not bracketed.all():
        raise ConvergenceError(
            f"refined eigenvalue {int(np.argmin(bracketed))} of {len(bracketed)} does not "
            f"bracket its own eigenvalue at {ctx.dps} digits"
        )


def refine_eigenvalues(diag, off, guesses, ctx):
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal ``diag``
    and off-diagonal ``off`` in the precision of the mpmath context ``ctx``,
    refined from ``guesses`` (one per eigenvalue: double-precision values, or
    the roots of a lower precision) by Newton's method.

    The arithmetic is fixed point: every value is an integer scaled by 2**P,
    P the context's precision plus guard bits, and each step is one pass
    over all roots at once.  Newton's step f/f' is taken from the pivots u_k
    of T - x I = L D L^T as 1 / sum_k u_k'/u_k, which is free of the scale
    of f: where eigenvalues cluster, f and f' are tiny, and the absolute
    2**-P error of a fixed-point f divided by a tiny f' would cost about ten
    digits.

    Returned ascending, as mpf in the precision of ``ctx``, once confirmed to
    be m distinct roots: with h_i a quarter of the distance from root x_i to
    its nearest neighbour, a Sturm count finds exactly i eigenvalues below
    x_i - h_i and i + 1 below x_i + h_i, so every root brackets its own
    eigenvalue and none is counted twice.  Otherwise ConvergenceError.
    """
    m = len(diag)
    if len(guesses) != m:
        raise DomainError(f"{len(guesses)} guesses for {m} eigenvalues")
    bits = ctx.prec + _GUARD_BITS
    x, _, bracketed = _refine(_fixed(diag, bits, ctx), _fixed(off[: m - 1], bits, ctx),
                              guesses, bits, ctx)
    _require_bracketed(bracketed, ctx)
    return [ctx.ldexp(t, -bits) for t in x]


def _link_residuals_at(p, guesses, ctx):
    """(operator, eigenbasis) residuals of the link in the current precision
    of ``ctx`` (see ``link_residuals_hp``), and the refined eigenvalues.
    The cosine table and the fixed-point inputs are built once per call."""
    cos = grid_cos(p, ctx)
    diag, couplings = _window_rows(p, ctx, cos)
    m = len(diag)
    bits = ctx.prec + _GUARD_BITS
    d, c = _fixed(diag, bits, ctx), _fixed(couplings, bits, ctx)
    x, passes, bracketed = _refine(d, c[: m - 1], guesses, bits, ctx)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("polymap link n=%d K=%d L=%d %s: %d digits, %d working bits, "
                  "%d Newton passes, %d of %d roots bracketed",
                  p.n, p.K, p.L, p.parity.value, ctx.dps, bits, passes,
                  int(bracketed.sum()), m)
    _require_bracketed(bracketed, ctx)
    one = 1 << bits
    e_mp = band_window_block(p, ctx, cos)
    e = _fixed(e_mp.ravel(), bits, ctx).reshape(e_mp.shape)
    # R_j(t_l) for every root at once, then unit columns v_l
    r = np.empty((m, m), dtype=object)
    r[0] = one
    for j in range(m - 1):
        nxt = (x - d[j]) * r[j]
        if j:
            nxt -= c[j - 1] * r[j - 1]
        r[j + 1] = nxt // c[j]
    norms = np.array([math.isqrt(s) for s in (r * r).sum(axis=0)], dtype=object)
    v = (r << bits) // norms
    ev = e.dot(v) >> bits
    q = (ev * ev).sum(axis=0) >> bits
    p_t = (e.T.dot(e[:, 0]) >> bits).dot(r) >> bits
    defect = (e.T.dot(ev) >> bits) - (v * p_t >> bits)
    # exact int / int divisions: float(2**P) overflows past ~300 digits
    r_op = math.isqrt(int((defect * defect).sum())) / one
    r_eig = int(np.abs(p_t - q).max()) / one
    roots = [ctx.ldexp(t, -bits) for t in x]
    return max(r_op, abs(float(couplings[-1]))), r_eig, roots


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
    """Residuals of the spectral-link identity recomputed in high precision,
    as a ``LinkResiduals`` that unpacks as (operator, eigenbasis).

    The derivative of the link polynomial at its own interpolation nodes can
    exceed 1e10 when the window nearly fills the subspace, so any pipeline
    consuming double-precision eigenvalues bottoms out far above rounding
    there.  This rebuilds the window block of the Heun operator and the
    band x window block E in an mpmath context, refines the window
    eigenvalues t_l (``refine_eigenvalues``), and takes the eigenvectors v_l
    from the recurrence, v_l proportional to (R_0(t_l), .., R_{m-1}(t_l)).

    The arithmetic is fixed point: integers scaled by 2**P, P the context's
    precision plus guard bits.  R is one m x m integer array, each column is
    normalised by an integer square root, and E v and E^T (E v) are
    object-array products, so each step is one pass over all l.  On unit
    vectors the error is an absolute 2**-P per operation.  The residuals
    leave as exact integer quotients, since 2**P overflows a float past
    about 300 digits.  With q_l = ||E v_l||^2 (unit v_l) it reports

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
