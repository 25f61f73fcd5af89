"""Bethe-ansatz diagonalization of the Heun operator.

Dynamical operators built from the Leonard pair obey exchange relations that
turn ordered products of creation-like factors into candidate eigenvectors
("Bethe states") of the Heun operator.  Three ansatz variants are
implemented:

* ``MINUS_FIRST``   - antisymmetric subspace, homogeneous equations,
                      L-1 roots for the L window modes;
* ``MINUS_SECOND``  - antisymmetric subspace, inhomogeneous equations,
                      L-1 roots;
* ``PLUS``          - symmetric subspace, inhomogeneous equations,
                      L roots for the L+1 window modes.

Roots live in grid units.  Times Baxter's Q(u) = prod_i (w_i - W(u)), where
w = cos(pi*x/n) and W(u) = cos(pi*u/n), the eigenvalue formula is a TQ
relation linear in Q, whose matrix on a Chebyshev basis in W is the window
block of T under a diagonal similarity; so a window eigenvector, scaled,
gives Q, and the roots follow as Q's zeros.  A damped Newton iteration
polishes a seed on the Bethe equations, whose residuals are evaluated in
cleared-denominator form (normalized by the magnitude of the cleared sides
so the defect stays meaningful for roots with large imaginary part).  A
candidate root set is accepted only if its eigenvalue formula is independent
of the spectral parameter and matches a still-unmatched window eigenvalue.

The solver takes all window levels of an instance together: one stacked
colleague eigenvalue call gives every seed, one residual call on the stack
of seeds picks the levels Newton must polish (the rest take no step), and
one pass over the polished root sets, and one over the moved seeds whose
polished sets fail, make the acceptance checks.  Only Newton runs level by
level.  The levels are then booked in order, as a level-by-level solve would
book them.

The dynamical operators D(u, m) and B(u, m) are combinations of the Leonard
pair A, A*, {A, A*}, [A, A*] and I, all tridiagonal: each is held as a band
(diagonal, upper, lower), and one routine applies an ordered list of band
factors to the vacuum, at O(dim) per factor.  The exchange relations compare
products of two such operators, pentadiagonal bands formed in O(dim); no
dense matrix is built.

The equations and the eigenvalue formula are numpy array expressions over
the roots: the pair factors s(x_i -+ x_j -+ 1) form m x m arrays, the
residuals take a stack of root sets (one call gives all 2m points of a
finite-difference Jacobian, or the first residuals of every seed), and the
eigenvalue takes an array of spectral parameters, or a stack of root sets
each with its own.  The public functions on one root set
(``bethe_residuals``, ``bethe_eigenvalue``, ``canonicalize_roots``) wrap
these stack-aware kernels and keep their checks and raises.
"""

from __future__ import annotations

import enum
import functools
import logging
import time
from dataclasses import dataclass

import numpy as np

from .core_model import (
    Parity,
    SignalVector,
    position_kind,
    trig_c,
    trig_s,
)
from .errors import DomainError, PoleError, check_tolerance
from .operators import leonard_pair
from .spectral import joint_spectrum

__all__ = [
    "AnsatzVariant",
    "BetheRootSet",
    "BetheSolveResult",
    "delta_fn",
    "f_fn",
    "g_fn",
    "check_dynamical_relations",
    "check_T_decomposition",
    "check_vacuum_action",
    "check_offshell_action",
    "check_reduction_formula",
    "bethe_state",
    "bethe_slots",
    "bethe_residuals",
    "bethe_eigenvalue",
    "solve_bethe",
    "canonicalize_roots",
]

log = logging.getLogger("tblim")

_POLE_TOL = 1e-12
_EXCLUSION = 1e-6
_NEWTON_MAX_ITER = 200
_NEWTON_TOL = 1e-13
_MATCH_TOL = 1e-6


class AnsatzVariant(enum.Enum):
    MINUS_FIRST = "first"
    MINUS_SECOND = "second"
    PLUS = "plus"

    @property
    def parity(self):
        return Parity.PLUS if self is AnsatzVariant.PLUS else Parity.MINUS

    def root_count(self, L):
        return L if self is AnsatzVariant.PLUS else L - 1


@dataclass
class BetheRootSet:
    """An accepted solution: canonical roots, diagnostics, and the window
    eigenvalue it reproduces."""

    variant: AnsatzVariant
    roots: np.ndarray
    residual: float
    eigenvalue: complex
    level: int
    t_spectral: float
    u_spread: float


@dataclass
class BetheSolveResult:
    """Outcome of a solve: one root set per matched window level, plus an
    explicit list of unmatched levels (never a silent partial success) and a
    count of distinct extra solutions that re-hit already matched levels."""

    variant: AnsatzVariant
    root_sets: list
    missing_levels: list
    extra_matches: int
    starts_used: int

    @property
    def complete(self):
        return not self.missing_levels


# ---------------------------------------------------------------------------
# scalar building blocks


def delta_fn(p, u):
    """cos-product prefactor tying the spectral parameter to both limits:
    c(u + L - K - 1/2) * c(u + L + K + 1/2) in grid units."""
    return trig_c(p, u + p.L - p.K - 0.5) * trig_c(p, u + p.L + p.K + 0.5)


def _require(p, value, name):
    if abs(value) < _POLE_TOL:
        raise PoleError(name, value)
    return value


def _require_each(values, name):
    """``_require`` over an array: PoleError at the first vanishing entry."""
    hit = np.abs(values) < _POLE_TOL
    if np.any(hit):
        raise PoleError(name, values[hit][0])
    return values


def f_fn(p, u, v):
    """Exchange amplitude s(u+v-1) s(u-v-1) / (s(u+v) s(u-v)); even in v,
    vanishing at v = u - 1."""
    den1 = _require(p, trig_s(p, u + v), f"s(u+v) at u={u}, v={v}")
    den2 = _require(p, trig_s(p, u - v), f"s(u-v) at u={u}, v={v}")
    return trig_s(p, u + v - 1) * trig_s(p, u - v - 1) / (den1 * den2)


def g_fn(p, u, v, m):
    """Off-diagonal exchange amplitude
    s(1) s(2v-1) s(2m+v-u) / (s(2m) s(2u) s(u-v))."""
    den1 = _require(p, trig_s(p, 2 * m), f"s(2m) at m={m}")
    den2 = _require(p, trig_s(p, 2 * u), f"s(2u) at u={u}")
    den3 = _require(p, trig_s(p, u - v), f"s(u-v) at u={u}, v={v}")
    return trig_s(p, 1) * trig_s(p, 2 * v - 1) * trig_s(p, 2 * m + v - u) / (den1 * den2 * den3)


# ---------------------------------------------------------------------------
# dynamical operators


@functools.lru_cache(maxsize=1)
def _pair_bands(p):
    """The Leonard pair as a read-only (4, dim) array, built once per
    instance: the couplings of A, the diagonal of A*, and the upper
    couplings of {A, A*} and [A, A*], each coupling row padded by a zero.

    A has a zero diagonal and A* is diagonal, so both products are
    tridiagonal with a zero diagonal: with couplings a_j and diagonal s_j,
    the entry (j, j+1) is a_j s_{j+1} + s_j a_j of the anticommutator and
    a_j s_{j+1} - s_j a_j of the commutator, whose entry (j+1, j) is the
    negative.  They are formed in that order, which gives the same numbers
    as the dense matrix products.
    """
    a, astar = leonard_pair(p)
    hop, s = a.offdiag.astype(complex), astar.diag.astype(complex)
    right, left = hop * s[1:], s[:-1] * hop     # (A A*)_{j,j+1}, (A* A)_{j,j+1}
    bands = np.zeros((4, p.dim), dtype=complex)
    bands[0, :-1], bands[1], bands[2, :-1], bands[3, :-1] = hop, s, right + left, right - left
    bands.flags.writeable = False
    return bands


def _pair_couplings(p, x, z, w=None):
    """Upper (j, j+1) and lower (j+1, j) couplings of
    x A + z {A, A*} / (4 c(1)) + w [A, A*] / (4 s(1)), each row padded by a
    zero; without ``w`` the commutator term is left out.  A and both
    products have a zero diagonal, so adding y A* + c to such a combination
    sets its diagonal and leaves these rows alone.

    The terms are summed in this order, and each product divided after it
    is formed, which gives the same numbers as the dense matrix expression.
    """
    hop, _s, anti, comm = _pair_bands(p)
    xa, za = x * hop, z * anti / (4 * trig_c(p, 1))
    if w is None:
        return xa + za, xa + za
    wc = w * comm / (4 * trig_s(p, 1))
    return xa + wc + za, xa - wc + za


def _create(p, factors):
    """Ordered product of band factors, first factor first, applied to the
    vacuum: position 0 (symmetric) or position 1 (antisymmetric)."""
    v = np.zeros(p.dim, dtype=complex)
    v[0] = 1.0
    for diag, upper, lower in reversed(factors):
        out = diag * v
        out[:-1] += upper[:-1] * v[1:]
        out[1:] += lower[:-1] * v[:-1]
        v = out
    return v


def _D_couplings(p, m):
    """Coupling rows of s(2u) s(2m) D(u, m), the same for every u."""
    return _pair_couplings(p, trig_c(p, 2 * m + 1), -1.0)


def _D_band(p, u, m, couplings=None):
    """Band of D(u, m); ``couplings`` are the slot's ``_D_couplings``, for a
    caller that builds them once per slot."""
    den_u = _require(p, trig_s(p, 2 * u), f"s(2u) at u={u}")
    den_m = _require(p, trig_s(p, 2 * m), f"s(2m) at m={m}")
    s = _pair_bands(p)[1]
    upper, lower = _D_couplings(p, m) if couplings is None else couplings
    diag = -trig_c(p, 2 * u - 2 * m) * s + 2 * trig_c(p, 2 * u)
    return np.array([diag, upper, lower]) / (den_u * den_m)


def _B_linear_parts(p, m):
    """Bands (M0, M1) with s(2m) B(u, m) = M0 + cos(pi*u/n) M1 for the slot
    m, so that a caller with several arguments u builds the slot's parts
    once.

    M0 = c(1) A - c(2m) {A, A*} / (4 c(1)) + s(2m) [A, A*] / (4 s(1)) has a
    zero diagonal and M1 = 2 c(2m) - A* zero couplings; the coupling rows of
    A are nonnegative, so these zeros are +0, as the general combination
    with zero coefficients gives them.
    """
    c2m = trig_c(p, 2 * m)
    m0 = np.zeros((3, p.dim), dtype=complex)
    m1 = np.zeros((3, p.dim), dtype=complex)
    m0[1], m0[2] = _pair_couplings(p, trig_c(p, 1), -c2m, trig_s(p, 2 * m))
    m1[0] = -1.0 * _pair_bands(p)[1] + 2 * c2m
    return m0, m1


def _B_band(p, u, m, scaled=False, parts=None):
    """Band of B(u, m), undefined when s(2m) vanishes; with ``scaled`` that
    of s(2m) B(u, m), entire in m, for a slot that degenerates.  Rescaling a
    creation factor only rescales the Bethe state, so the scaled form serves
    wherever only the state's direction matters.  ``parts`` are the slot's
    ``_B_linear_parts``, for a caller that builds them once per slot."""
    m0, m1 = _B_linear_parts(p, m) if parts is None else parts
    band = m0 + trig_c(p, 2 * u) * m1
    if scaled:
        return band
    return band / _require(p, trig_s(p, 2 * m), f"s(2m) at m={m}")


def _band_product(x, y):
    """The product of two (3, dim) bands as a (5, dim) pentadiagonal band:
    the diagonal, the couplings (j, j+1) and (j+1, j), then (j, j+2) and
    (j+2, j), each coupling row padded by zeros at its end.  Each entry sums
    its terms in ascending order of the inner index."""
    xd, xu, xl = x
    yd, yu, yl = y
    out = np.zeros((5, xd.size), dtype=np.result_type(x, y))
    out[0] = xd * yd
    out[0, 1:] = xl[:-1] * yu[:-1] + out[0, 1:]
    out[0] += xu * yl
    out[1, :-1] = xd[:-1] * yu[:-1] + xu[:-1] * yd[1:]
    out[2, :-1] = xl[:-1] * yd[:-1] + xd[1:] * yl[:-1]
    out[3, :-2] = xu[:-2] * yu[1:-1]
    out[4, :-2] = xl[1:-1] * yl[:-2]
    return out


def check_dynamical_relations(p, u, v, m):
    """Max-norm residuals of the two exchange relations, evaluated on bands:

        B(u,m) B(v,m-1) = B(v,m) B(u,m-1)
        D(u,m) B(v,m)   = f(u,v) B(v,m) D(u,m-1)
                          + B(u,m) [g(u,v,m) D(v,m-1) + g(u,-v,m) D(-v,m-1)]
    """
    now, before = _B_linear_parts(p, m), _B_linear_parts(p, m - 1)
    b_um, b_vm = _B_band(p, u, m, parts=now), _B_band(p, v, m, parts=now)
    r_bb = (_band_product(b_um, _B_band(p, v, m - 1, parts=before))
            - _band_product(b_vm, _B_band(p, u, m - 1, parts=before)))
    d_before = _D_couplings(p, m - 1)
    r_db = (
        _band_product(_D_band(p, u, m), b_vm)
        - f_fn(p, u, v) * _band_product(b_vm, _D_band(p, u, m - 1, d_before))
        - _band_product(b_um, g_fn(p, u, v, m) * _D_band(p, v, m - 1, d_before)
                        + g_fn(p, u, -v, m) * _D_band(p, -v, m - 1, d_before))
    )
    return float(np.max(np.abs(r_bb), initial=0.0)), float(np.max(np.abs(r_db), initial=0.0))


def check_T_decomposition(p, u):
    """Max-norm residuals of the two dynamical decompositions of the Heun
    operator, at dynamical parameters L and -L-1, compared band by band:

        T = 2 c(2u) + Delta(u)   D(u, L)    + Delta(-u)  D(-u, L)
        T = 2 c(2u) + Delta(1-u) D(u, -L-1) + Delta(1+u) D(-u, -L-1)
    """
    from .operators import heun_tb

    t = heun_tb(p)
    want = np.zeros((3, p.dim), dtype=complex)
    want[0], want[1:, :-1] = t.diag - 2 * trig_c(p, 2 * u), t.offdiag

    def residual(m, c_plus, c_minus):
        return float(np.max(np.abs(want - c_plus * _D_band(p, u, m) - c_minus * _D_band(p, -u, m))))

    return (residual(p.L, delta_fn(p, u), delta_fn(p, -u)),
            residual(-p.L - 1, delta_fn(p, 1 - u), delta_fn(p, 1 + u)))


def check_vacuum_action(p, u, m):
    """2-norm residual of the known action of D(u, m) on the vacuum vector:

        symmetric:      D(u,m)|0> = -2|0> - B(u,m)|0> / s(2u)
        antisymmetric:  D(u,m)|1> = 2 s(2-2u)/s(2u) |1>
                                    - s(m-1)/(s(m+1) s(2u)) B(u,m)|1>
    """
    vac = _create(p, [])
    dv = _create(p, [_D_band(p, u, m)])
    bv = _create(p, [_B_band(p, u, m)])
    s2u = _require(p, trig_s(p, 2 * u), f"s(2u) at u={u}")
    if p.parity is Parity.PLUS:
        rhs = -2.0 * vac - bv / s2u
    else:
        smp1 = _require(p, trig_s(p, m + 1), f"s(m+1) at m={m}")
        rhs = 2.0 * trig_s(p, 2 - 2 * u) / s2u * vac - trig_s(p, m - 1) / (smp1 * s2u) * bv
    return float(np.linalg.norm(dv - rhs))


# ---------------------------------------------------------------------------
# Bethe states


def bethe_slots(variant, L):
    """Dynamical parameters of the ordered creation product, first factor
    first."""
    if variant is AnsatzVariant.MINUS_FIRST:
        return [L - i for i in range(L - 1)]            # L, L-1, ..., 2
    if variant is AnsatzVariant.MINUS_SECOND:
        return [-L - 1 - i for i in range(L - 1)]       # -L-1, ..., -2L+1
    return [-L - 1 - i for i in range(L)]               # -L-1, ..., -2L


def _check_roots(variant, L, roots):
    roots = np.asarray(roots, dtype=complex).ravel()
    want = variant.root_count(L)
    if roots.size != want:
        raise DomainError(
            f"{variant.value} ansatz at L={L} takes {want} roots, got {roots.size}"
        )
    return roots


def _creation_factors(p, variant, roots):
    """The B bands of a Bethe state, first factor first."""
    return [_B_band(p, x, m) for x, m in zip(roots, bethe_slots(variant, p.L))]


def bethe_state(p, variant, roots):
    """Ordered product of creation factors applied to the vacuum.

    The result lies in the window subspace.  Any factor whose dynamical slot
    or argument hits a pole raises; the solver falls back to a uniformly
    rescaled product in that case, which spans the same direction.
    """
    if variant.parity is not p.parity:
        raise DomainError(f"{variant.value} ansatz requires parity {variant.parity.value}")
    roots = _check_roots(variant, p.L, roots)
    return SignalVector(_create(p, _creation_factors(p, variant, roots)), position_kind(p.parity))


def check_offshell_action(p, u, roots):
    """Residual of the explicit off-shell expansion of D(u, L) acting on a
    first-ansatz Bethe state (valid for arbitrary roots, not only
    solutions)."""
    if p.parity is not Parity.MINUS:
        raise DomainError("off-shell expansion applies to the antisymmetric ansatz")
    roots = _check_roots(AnsatzVariant.MINUS_FIRST, p.L, roots)
    factors = _creation_factors(p, AnsatzVariant.MINUS_FIRST, roots)
    vstate = _create(p, factors)
    lhs = _create(p, [_D_band(p, u, p.L)] + factors)
    s = lambda x: trig_s(p, x)
    rhs = 2 * s(2 - 2 * u) / s(2 * u) * np.prod([f_fn(p, u, x) for x in roots]) * vstate
    for j in range(roots.size):
        for eps in (1.0, -1.0):
            xj = eps * roots[j]
            coef = (
                2 * s(2 - 2 * xj) / s(2 * xj)
                * g_fn(p, u, xj, p.L)
                * np.prod([f_fn(p, xj, roots[i]) for i in range(roots.size) if i != j])
            )
            swapped = roots.copy()
            swapped[j] = u
            rhs = rhs + coef * bethe_state(p, AnsatzVariant.MINUS_FIRST, swapped).coeffs
    return float(np.linalg.norm(lhs - rhs))


def check_reduction_formula(p, ybar, u_slot_last=True):
    """Relative residual of the length-L reduction identity on the
    antisymmetric subspace.

    The product of L creation factors at slots -L-1 .. -2L collapses to an
    explicit combination of the L omit-one states.  With ``u_slot_last`` the
    last entry of ``ybar`` occupies the final (-2L) slot; otherwise the first
    entry is rotated there, exercising the exchange symmetry.  When s(4L)
    vanishes (n divides 2L) both sides carry the same singular prefactor and
    the comparison is made in cleared form.
    """
    if p.parity is not Parity.MINUS:
        raise DomainError("the reduction formula lives on the antisymmetric subspace")
    ys = np.asarray(ybar, dtype=complex).ravel()
    if ys.size != p.L:
        raise DomainError(f"expected {p.L} entries, got {ys.size}")
    for i in range(ys.size):
        for j in range(i + 1, ys.size):
            for sgn, nm in ((1, "s(y_i + y_j)"), (-1, "s(y_i - y_j)")):
                _require(p, trig_s(p, ys[i] + sgn * ys[j]), nm)
    order = ys if u_slot_last else np.concatenate([ys[1:], ys[:1]])
    s = lambda x: trig_s(p, x)
    s4l = s(4 * p.L)
    cleared = abs(s4l) < _POLE_TOL

    slots = [-p.L - 1 - i for i in range(p.L)]
    v = _create(p, [_B_band(p, x, m, scaled=cleared and i == p.L - 1)
                    for i, (x, m) in enumerate(zip(order, slots))])

    total = np.zeros_like(v)
    for j in range(p.L):
        coef = s(2 * ys[j] * (p.L + 1)) / _require(p, s(2 * ys[j]), "s(2 y_j)")
        for i in range(p.L):
            if i != j:
                coef = coef / (4 * s(ys[i] + ys[j]) * s(ys[i] - ys[j]))
        rest = np.array([ys[i] for i in range(p.L) if i != j])
        total = total + coef * bethe_state(p, AnsatzVariant.MINUS_SECOND, rest).coeffs
    pref = 2 * s(2 * p.L - 1) * s(2 * p.L + 1)
    rhs = (-pref if cleared else pref / s4l) * total
    return float(np.linalg.norm(v - rhs) / max(1.0, np.linalg.norm(v)))


# ---------------------------------------------------------------------------
# Bethe equations and eigenvalue formulas


def _residuals(p, variant, x):
    """``bethe_residuals`` over a stack of root sets x of shape (..., m).

    The pair factors s(x_i -+ x_j -+ 1) are m x m arrays; the products over
    j != i run along the rows with the diagonal set to 1.
    """
    s = lambda x: trig_s(p, x)
    c = lambda x: trig_c(p, x)
    dl = lambda x: delta_fn(p, x)
    xi, xj = x[..., :, None], x[..., None, :]
    off = ~np.eye(x.shape[-1], dtype=bool)
    others = lambda pair: np.prod(np.where(off, pair, 1.0), axis=-1)
    if variant is AnsatzVariant.MINUS_FIRST:
        lhs = dl(x) * s(2 - 2 * x) * s(1 - 2 * x) * others(s(xi - xj - 1) * s(xi + xj - 1))
        rhs = dl(-x) * s(2 + 2 * x) * s(1 + 2 * x) * others(s(xi - xj + 1) * s(xi + xj + 1))
    else:
        num = others(s(xi - xj + 1) * s(xi + xj + 1))
        den = others(s(xi - xj - 1) * s(xi + xj - 1))
        ipr = np.prod(4 * s(xj - xi + 1) * s(xj + xi - 1), axis=-1)
        if variant is AnsatzVariant.MINUS_SECOND:
            g1 = dl(1 - x) * s(2 - 2 * x) * s(1 - 2 * x)
            g2 = dl(1 + x) * s(2 + 2 * x) * s(1 + 2 * x)
            inh = s(2 * p.L + 1) ** 2 * s(2 * x * (p.L + 1)) * s(2 * x - 1)
            lhs = g1 * den * ipr + inh * den
            rhs = num * g2 * ipr
        else:
            g1 = dl(1 - x) * s(2 * x - 1)
            g2 = dl(1 + x) * s(2 * x + 1)
            inh = s(4 * p.L + 2) * s(2 * p.L + 1) * c(2 * x * (p.L + 1)) * s(2 * x - 1)
            lhs = c(2 * p.L + 1) * g1 * den * ipr + inh * den
            rhs = c(2 * p.L + 1) * num * g2 * ipr
    return (lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def bethe_residuals(p, variant, roots):
    """Cleared-denominator defects of the Bethe equations, one per root.

    Every displayed denominator is multiplied through, so no pole is
    amplified; each component is then normalized by the magnitude of the
    cleared sides, keeping the defect comparable across root scales.  The
    zero vector is returned exactly when the roots solve the system.
    """
    return _residuals(p, variant, _check_roots(variant, p.L, roots))


def _eigenvalue_denominators(p, roots, u):
    """s(2u), s(u + x_i) and s(u - x_i), the denominators of the eigenvalue
    formula, with u[..., None] broadcast against the roots."""
    uu = u[..., None]
    return trig_s(p, 2 * u), trig_s(p, uu + roots), trig_s(p, uu - roots)


def _eigenvalue(p, variant, roots, u, s2u, spx, smx):
    """The eigenvalue formula at u, from the ``_eigenvalue_denominators`` of
    these roots and u; the roots broadcast against u[..., None] as there, so
    a stack (N, 1, m) of root sets takes its own samples u of shape (N, k)."""
    s = lambda x: trig_s(p, x)
    c = lambda x: trig_c(p, x)
    dl = lambda x: delta_fn(p, x)
    uu = u[..., None]
    den = spx * smx
    f_plus = np.prod(s(uu + roots - 1) * s(uu - roots - 1) / den, axis=-1)     # f(u, x_i)
    f_minus = np.prod(s(uu - roots + 1) * s(uu + roots + 1) / den, axis=-1)    # f(-u, x_i)
    if variant is AnsatzVariant.MINUS_FIRST:
        return (
            2 * c(2 * u)
            + 2 * dl(u) * s(2 - 2 * u) / s2u * f_plus
            - 2 * dl(-u) * s(2 + 2 * u) / s2u * f_minus
        )
    if variant is AnsatzVariant.MINUS_SECOND:
        return (
            2 * c(2 * u)
            + 2 * dl(1 - u) * s(2 - 2 * u) / s2u * f_plus
            - 2 * dl(1 + u) * s(2 + 2 * u) / s2u * f_minus
            - 2 * s(2 * p.L + 1) ** 2 * s(2 * u * (p.L + 1)) / s2u
            * np.prod(1.0 / (4 * spx * s(roots - uu)), axis=-1)
        )
    return (
        2 * c(2 * u)
        - 2 * dl(1 - u) * f_plus
        - 2 * dl(1 + u) * f_minus
        - 2 * s(4 * p.L + 2) * s(2 * p.L + 1) * c(2 * u * (p.L + 1)) / c(2 * p.L + 1)
        * np.prod(1.0 / (4 * spx * s(roots - uu)), axis=-1)
    )


def bethe_eigenvalue(p, variant, roots, u):
    """Candidate Heun eigenvalue produced by a root set, evaluated at
    spectral parameter u (a scalar, or an array giving an array of the same
    shape); constant in u exactly on solutions of the Bethe equations."""
    roots = _check_roots(variant, p.L, roots)
    u = np.asarray(u, dtype=complex)
    s2u, spx, smx = _eigenvalue_denominators(p, roots, u)
    _require_each(s2u, "s(2u)")
    _require_each(spx, "s(u + x_i)")
    _require_each(smx, "s(u - x_i)")
    return _eigenvalue(p, variant, roots, u, s2u, spx, smx)[()]


# ---------------------------------------------------------------------------
# numerical solution


def _canonical(p, roots):
    """``canonicalize_roots`` over the rows of a stack (..., m).  The sort
    keys are Python's round(., 9), as a list sort of (Re, Im) tuples would
    use, and the sort is stable, as that one is."""
    re, im = np.remainder(roots.real, 2 * p.n), roots.imag
    re = np.where(re > p.n + 1e-12, re - 2 * p.n, re)
    flip = re < 0.0
    re, im = np.where(flip, -re, re), np.where(flip, -im, im)
    im = np.where((re <= 1e-9) | (np.abs(re - p.n) <= 1e-9), np.abs(im), im)
    key = lambda part: np.reshape([round(v, 9) for v in part.ravel().tolist()], part.shape)
    order = np.lexsort((key(im), key(re)), axis=-1)
    out = np.empty(roots.shape, dtype=complex)
    out.real, out.imag = np.take_along_axis(re, order, -1), np.take_along_axis(im, order, -1)
    return out


def canonicalize_roots(p, roots):
    """Reduce roots to canonical representatives and sort them.

    The equations and states depend on a root only through cos(pi*x/n), so x
    is defined modulo 2n and up to sign.  The real part is folded into
    (-n, n], the sign is fixed to make it nonnegative, and then, on the
    boundary lines Re = 0 and Re = n (within 1e-9), the imaginary part is
    made nonnegative.  The boundary rule reads the real part that is
    returned, so a second pass changes nothing.  Roots are then sorted
    lexicographically by (Re, Im), each rounded to 9 decimals.
    """
    return _canonical(p, np.asarray(roots, dtype=complex).ravel())


def _roots_admissible(p, roots):
    """Exclusion zone: no root at a pole of the equations, no coincident
    pair (coincidence makes the system degenerate).  Over a stack (..., m)
    of root sets, one verdict per set."""
    i, j = np.triu_indices(roots.shape[-1], 1)
    a, b = roots[..., i], roots[..., j]
    near = np.concatenate([
        np.abs(trig_s(p, 2 * roots)), np.abs(a - b),
        np.abs(trig_s(p, a + b)), np.abs(trig_s(p, a - b)),
    ], axis=-1)
    return ~np.any(near < _EXCLUSION, axis=-1)


def _newton(fun, x0, max_iter, tol=_NEWTON_TOL, fd_step=1e-6):
    """Damped Newton for a square holomorphic system, central-difference
    Jacobian.  ``fun`` maps a stack of points (..., m) to their residuals, so
    the 2m perturbed points of a Jacobian take one call.  Returns the last
    point, whether it converged, and the number of Newton steps taken."""
    x = np.asarray(x0, dtype=complex).copy()
    m = x.size
    steps = fd_step * np.eye(m)
    for it in range(max_iter):
        try:
            fx = fun(x)
        except (PoleError, FloatingPointError):
            return x, False, it
        n0 = float(np.linalg.norm(fx))
        if not np.isfinite(n0):
            return x, False, it
        if n0 < tol:
            return x, True, it
        try:
            fs = fun(np.concatenate([x + steps, x - steps]))
            jac = ((fs[:m] - fs[m:]) / (2 * fd_step)).T
            step = np.linalg.solve(jac, -fx)
        except (np.linalg.LinAlgError, PoleError, FloatingPointError):
            return x, False, it
        lam = 1.0
        moved = False
        for _ in range(30):
            xn = x + lam * step
            try:
                fn = float(np.linalg.norm(fun(xn)))
            except (PoleError, FloatingPointError):
                fn = np.inf
            if fn < (1.0 - 0.25 * lam) * n0 or fn < tol:
                moved = True
                break
            lam *= 0.5
        if not moved:
            return x, n0 < tol, it
        x = xn
    try:
        return x, float(np.linalg.norm(fun(x))) < tol, max_iter
    except (PoleError, FloatingPointError):
        return x, False, max_iter


_U_PROBES = np.array(
    [0.3137 + 0.2718j, 0.8771 - 0.1543j, 1.4142 + 0.3333j, 0.2712 - 0.4141j,
     1.7321 + 0.1013j, 0.5774 + 0.5051j, 2.2361 - 0.2871j]
)


def _u_samples(p, roots, count=7):
    """Generic spectral-parameter samples, nudged off any pole of the
    eigenvalue formula for these roots; over a stack (..., m) of root sets,
    each set gets its own samples (..., count).

    The probes sit 0.25 n up the imaginary axis, away from the strings of
    roots near the real axis, among which every factor of the formula nearly
    vanishes and a root error of 1e-10 reads as a u-spread above 1e-8.  Each
    probe moves by the same step, at most 12 times, until s(2u) and every
    s(u -+ x_i) is at least 1e-4."""
    x = np.asarray(roots)[..., None, :]
    u = np.broadcast_to(_U_PROBES[:count] + 0.25j * p.n, x.shape[:-2] + (count,)).copy()
    for _ in range(12):
        near = np.minimum(np.abs(trig_s(p, u[..., None] + x)),
                          np.abs(trig_s(p, u[..., None] - x)))
        bad = (np.abs(trig_s(p, 2 * u)) < 1e-4) | np.any(near < 1e-4, axis=-1)
        if not np.any(bad):
            break
        u[bad] += 0.0731 + 0.0179j
    return u


def _eigenvalue_profile(p, variant, roots):
    """(mean eigenvalue, u-spread incl. imaginary size, pole) over the
    generic u of ``_u_samples``, per root set of a stack (..., m); ``pole``
    marks a set whose samples meet a vanishing denominator of the formula,
    where ``bethe_eigenvalue`` raises, and its other two entries are then
    meaningless."""
    u = _u_samples(p, roots)
    x = roots[..., None, :]
    s2u, spx, smx = _eigenvalue_denominators(p, x, u)
    pole = np.any(np.abs(s2u) < _POLE_TOL, axis=-1) \
        | np.any((np.abs(spx) < _POLE_TOL) | (np.abs(smx) < _POLE_TOL), axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = _eigenvalue(p, variant, x, u, s2u, spx, smx)
    spread = np.ptp(ts.real, axis=-1) + np.max(np.abs(ts.imag), axis=-1)
    return np.mean(ts.real, axis=-1), spread, pole


def _q_coefficients(p, variant, vectors):
    """Baxter's Q on the Chebyshev basis B_k = T_k(W) (plus) or U_k(W)
    (first, second), W = cos(pi*u/n), for each row v of a stack (N, m + 1)
    of window eigenvectors cut to m + 1 entries.

    Times Q(u) = prod_i (w_i - W(u)) the eigenvalue formula is Baxter's TQ
    relation, whose matrix on this basis is the window block of T under the
    diagonal similarity q_k = r_k v_k, with r_0 = 1 and r_(k+1)/r_k equal to
    sqrt(2)^[k=0] s(L+1+k)/s(L-k) (plus), s(L+2+k)/s(L-1-k) (second) or
    s(L-1-k)/s(L+2+k) (first).  A ratio at a zero of s is exactly 0: s(2L)
    of the plus ansatz at L = n, where Q loses degree.
    """
    k = np.arange(vectors.shape[-1] - 1)
    if variant is AnsatzVariant.PLUS:
        num, den = trig_s(p, p.L + 1 + k) * np.where(k == 0, np.sqrt(2), 1.0), trig_s(p, p.L - k)
    elif variant is AnsatzVariant.MINUS_SECOND:
        num, den = trig_s(p, p.L + 2 + k), trig_s(p, p.L - 1 - k)
    else:
        num, den = trig_s(p, p.L - 1 - k), trig_s(p, p.L + 2 + k)
    ratios = np.where(np.abs(num) < _POLE_TOL, 0.0, num / den)
    return vectors * np.cumprod(np.concatenate([[1.0], ratios]))


def _q_seeds(p, variant, vectors):
    """Roots whose Q has the ``_q_coefficients`` of each row of ``vectors``
    (NaN where Q loses degree), and per row None or the reason there is none.
    The w's are the eigenvalues of the colleague matrices, in one stacked
    call: multiplication by W on B_0..B_(m-1), W B_k = (B_(k-1) + B_(k+1))/2
    and W T_0 = T_1, with B_m = -sum_(k<m) q_k B_k / q_m; x = (n/pi) arccos w.
    """
    q = _q_coefficients(p, variant, vectors)
    count, m = q.shape[0], q.shape[1] - 1
    roots = np.full((count, m), np.nan, dtype=complex)
    good = q[:, -1] != 0
    up = np.full(m, 0.5)
    if variant is AnsatzVariant.PLUS:
        up[0] = 1.0
    comp = np.zeros((np.count_nonzero(good), m, m), dtype=q.dtype)
    comp[:, np.arange(1, m), np.arange(m - 1)] = 0.5
    comp[:, np.arange(m - 1), np.arange(1, m)] = up[:-1]
    comp[:, -1] -= up[-1] * q[good, :m] / q[good, m:]
    roots[good] = p.n / np.pi * np.arccos(np.linalg.eigvals(comp).astype(complex))
    return roots, [None if g else "Q loses degree" for g in good.tolist()]


def _polish(p, variant, roots, why):
    """Newton on each seeded row of ``roots``, in place.  One stacked
    residual call gives every first residual; a row already below Newton's
    tolerance takes no step, as ``_newton`` would return it.  Returns per
    row whether it converged and its Newton steps, and the count of rows
    passed to ``_newton``."""
    seeded = [k for k, reason in enumerate(why) if reason is None]
    first = _residuals(p, variant, roots[seeded])
    ok = np.zeros(len(roots), dtype=bool)
    steps = np.zeros(len(roots), dtype=int)
    runs = 0
    system = lambda x: _residuals(p, variant, x)
    for k, fx in zip(seeded, first):
        if float(np.linalg.norm(fx)) < _NEWTON_TOL:
            ok[k] = True
        else:
            roots[k], ok[k], steps[k] = _newton(system, roots[k], _NEWTON_MAX_ITER)
            runs += 1
    return ok, steps, runs


def _acceptance(p, variant, roots, residual_tol, t_targets):
    """The acceptance checks of a stack (N, m) of polished root sets, each
    set on its own.  The roots are made canonical; then, in this order, a
    set fails on admissibility, on its cleared residual (above
    ``residual_tol``), on a pole of the eigenvalue formula at its u samples,
    on its u-spread (above 1e-8) or on its distance to the nearest window
    eigenvalue (above 1e-6).  Returns the canonical roots and, per set, the
    first check it fails ('' if none), its residual and u-spread (NaN where
    that check was not reached), its mean eigenvalue and its nearest level.
    """
    canon = _canonical(p, roots)
    admissible = _roots_admissible(p, canon)
    res = np.max(np.abs(_residuals(p, variant, canon)), axis=-1, initial=0.0)
    t_mean, spread, pole = _eigenvalue_profile(p, variant, canon)
    level = np.argmin(np.abs(t_targets - t_mean[:, None]), axis=-1)
    unreached = [~admissible, res > residual_tol, pole]
    outcome = np.select(
        unreached + [spread > 1e-8, np.abs(t_targets[level] - t_mean) > _MATCH_TOL],
        ["inadmissible roots", "rejected on residual", "pole in eigenvalue formula",
         "rejected on u-spread", "no match"], "")
    res = np.where(admissible, res, np.nan)
    spread = np.where(np.any(unreached, axis=0), np.nan, spread)
    return canon, outcome.tolist(), res.tolist(), spread.tolist(), t_mean.tolist(), level.tolist()


def solve_bethe(p, variant, residual_tol=1e-9):
    """Solve the Bethe equations and match every window eigenvalue.

    All window levels of the instance go through stacked passes.  Every
    window eigenvector, cut to m + 1 entries and scaled in closed form, gives
    Baxter's Q, and one stacked colleague eigenvalue call gives every seed
    (``_q_seeds``).  One residual call on the stack of seeds finds the levels
    Newton must polish on the cleared equations; the rest take no step
    (``_polish``).  One pass checks every polished root set
    (``_acceptance``): a candidate is accepted when its cleared residual is
    at most ``residual_tol``, its eigenvalue is u-independent, and it
    matches an unmatched window eigenvalue within 1e-6.  Newton can move a
    seed that passes onto a set that fails, so one more pass checks the
    moved seeds whose polished sets fail.  The levels are then booked in
    order, as a level-by-level solve would book them: a level already
    matched by an earlier seed is skipped, and a second root set for a
    matched level counts as an extra match.  A level whose seed fails (Q
    loses degree, Newton fails, or a check rejects both the polished set and
    the seed) is reported in ``missing_levels``; the solve is deterministic.
    At log level DEBUG each window level logs its outcome, Newton steps,
    residual and u-spread, and the solve logs its counts and the seconds
    spent seeding, in Newton and in the checks.
    """
    check_tolerance(residual_tol)
    if variant.parity is not p.parity:
        raise DomainError(f"{variant.value} ansatz requires parity {variant.parity.value}")
    if variant is not AnsatzVariant.PLUS and p.L < 1:
        raise DomainError("antisymmetric ansaetze need L >= 1")
    m = variant.root_count(p.L)
    if m + 1 > p.time_rank:
        raise DomainError(
            f"{variant.value} ansatz at L={p.L} needs {m + 1} window components for "
            f"{m} roots, but the window rank is {p.time_rank}"
        )
    modes = joint_spectrum(p)
    t_targets = np.array([mode.t for mode in modes])

    clock = [time.perf_counter()]
    if m == 0:
        # one rootless candidate, with nothing to seed or polish
        roots, why = np.zeros((1, 0), dtype=complex), [None]
    else:
        vectors = np.array([mode.vector.coeffs[: m + 1] for mode in modes])
        roots, why = _q_seeds(p, variant, vectors)
    seeds = roots.copy()
    clock.append(time.perf_counter())
    ok, steps, runs = _polish(p, variant, roots, why)
    clock.append(time.perf_counter())
    checked = np.flatnonzero(ok)
    verdicts = dict(zip(checked.tolist(), zip(*_acceptance(
        p, variant, roots[checked], residual_tol, t_targets))))
    # Newton can move a seed that passes every check onto a set that fails
    # one, so a moved seed whose polished set fails is checked as seeded
    moved = [k for k in np.flatnonzero(steps).tolist() if not ok[k] or verdicts[k][1]]
    on_seed = {}
    if moved:                           # an empty pass costs as much as a small one
        checks = _acceptance(p, variant, seeds[moved], residual_tol, t_targets)
        on_seed = {k: verdict for k, verdict in zip(moved, zip(*checks)) if not verdict[1]}

    debug = log.isEnabledFor(logging.DEBUG)

    def report(k, n_steps, outcome, res=np.nan, spread=np.nan):
        if debug:
            log.debug("bethe n=%d K=%d L=%d %s level %d: %s, %d Newton steps, "
                      "residual %.3e, u-spread %.3e", p.n, p.K, p.L, variant.value,
                      k, outcome, n_steps, res, spread)

    matched = {}
    extra = starts = 0
    for k, reason in enumerate(why):
        if k in matched:
            report(k, 0, "matched by an earlier seed")
            continue
        starts += 1
        if reason is not None:
            report(k, 0, reason)
            continue
        verdict = on_seed.get(k, verdicts.get(k))
        if verdict is None:
            report(k, steps[k], "Newton failed")
            continue
        canon, outcome, res, spread, t_mean, j = verdict
        how = " on its seed" if k in on_seed else ""
        if outcome:
            report(k, steps[k], outcome, res, spread)
        elif j in matched:
            if np.max(np.abs(matched[j].roots - canon)) > 1e-6:
                extra += 1
            report(k, steps[k], f"re-hit matched level {j}{how}", res, spread)
        else:
            matched[j] = BetheRootSet(
                variant=variant, roots=canon, residual=res,
                eigenvalue=complex(t_mean), level=j,
                t_spectral=float(t_targets[j]), u_spread=spread,
            )
            report(k, steps[k], f"accepted as level {j}{how}", res, spread)
    clock.append(time.perf_counter())

    if not m:
        starts = 0                      # the rootless level needs no seed
    missing = [k for k in range(len(modes)) if k not in matched]
    if debug:
        seed_s, newton_s, check_s = np.diff(clock)
        log.debug("solve_bethe n=%d K=%d L=%d %s: %d levels, %d seeds, %d Newton runs, "
                  "%d with steps, %d seed checks after Newton, %d accepted, %d missing; "
                  "seeding %.3e s, Newton %.3e s, checks %.3e s", p.n, p.K, p.L,
                  variant.value, len(modes), starts, runs, np.count_nonzero(steps), len(moved),
                  len(matched), len(missing), seed_s, newton_s, check_s)
    return BetheSolveResult(
        variant,
        [matched[k] for k in sorted(matched)],
        missing,
        extra,
        starts,
    )
