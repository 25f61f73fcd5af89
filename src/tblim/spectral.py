"""Eigendecomposition backbone: the joint spectrum of the Heun and time-band
operators, a symmetric tridiagonal solver by Sturm-count bisection and
inverse iteration, a dense Hermitian solver, and the singular values of
the band x window block of the Fourier matrix.

The joint spectrum diagonalizes the window blocks of the Heun operator, a
stack of instances per LAPACK call, and reads each concentration off the
band x window Fourier block; the
singular values are those of that same block, computed without singular
vectors, so no n x n matrix is formed on either route.
The bisection solver, which calls no LAPACK eigensolver, and the dense
solver are kept as independent oracles that the tests and the verification
suite compare the production route against.  The bisection solver's values
stage is also a function of its own, for callers that compare eigenvalues
only and so need no inverse iteration.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core_model import (
    DenseOperator,
    SignalVector,
    TridiagonalOperator,
    band_window_block,
    position_kind,
)
from .errors import ConvergenceError, DegeneracyError, DomainError
from .operators import heun_tb

__all__ = [
    "Spectrum",
    "JointMode",
    "eig_sym_tridiag",
    "eigvals_sym_tridiag",
    "eig_sym_dense",
    "svd_E",
    "joint_spectrum",
    "joint_spectra",
]

log = logging.getLogger("tblim")


@dataclass
class Spectrum:
    """Eigenpairs ordered ascending by eigenvalue.

    ``vectors[:, i]`` is the unit eigenvector of ``values[i]``;
    ``residuals[i]`` is the 2-norm defect ||M v - lambda v||.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    basis: object

    def __len__(self):
        return self.values.size


@dataclass
class JointMode:
    """One simultaneous eigenvector of the Heun and time-band operators."""

    t: float
    q: float
    vector: SignalVector
    residual: float


# intervals per bracket and bisection step (8: three bits per step)
_SECTIONS = 8
# solves per eigenvector: with eigenvalues exact to the unit roundoff the
# first one converges from a random start and the second polishes
_INVERSE_ITERATIONS = 2
# eigenvalues closer than this fraction of the block's 1-norm share a cluster
# whose inverse-iteration vectors are re-orthogonalized (dstein's ORTOL)
_CLUSTER_GAP = 1e-3


def _bisect_block(d, e):
    """Every eigenvalue of one unreduced symmetric tridiagonal block,
    ascending, by bisection on Sturm counts (Barth, Martin & Wilkinson 1967;
    LAPACK dstebz).

    The count of eigenvalues below x is the number of negative pivots of
    T - x I = L D L^T, read off the sign bits.  The squared couplings are
    floored at dstebz's ``pivmin`` (the smallest normal number times
    max(1, max e_j^2)), so that e_j^2 / pivot is never 0/0: a zero pivot
    then divides to an infinity, and IEEE arithmetic carries on with the
    count of a matrix perturbed by less than pivmin, as LAPACK's dlaneg
    relies on, without a test per pivot.  Eigenvalue i is bracketed by
    [lo_i, hi_i] with count(lo_i) <= i < count(hi_i), starting from the
    Gershgorin interval.  All brackets shrink together, each step counting
    at _SECTIONS - 1 interior points of every bracket (plain bisection when
    _SECTIONS is 2), for as many steps as take the Gershgorin width down to
    the unit roundoff times the block's norm.
    """
    k = d.size
    eps = np.finfo(float).eps
    e2 = e * e
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e2)))
    e2 = np.maximum(e2, pivmin)
    radius = np.zeros(k)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    gl, gu = float(np.min(d - radius)), float(np.max(d + radius))
    bnorm = max(abs(gl), abs(gu))
    pad = 2.0 * eps * bnorm * k + 2.0 * pivmin
    lo, hi = np.full(k, gl - pad), np.full(k, gu + pad)
    steps = math.ceil(math.log((gu - gl + 2.0 * pad) / (eps * bnorm + pivmin), _SECTIONS))
    frac = np.arange(_SECTIONS + 1) / _SECTIONS
    index = np.arange(k)
    ratio = np.empty((k, _SECTIONS - 1))
    for _ in range(steps):
        points = lo[:, None] + (hi - lo)[:, None] * frac
        # row j of ``pivots`` turns from d_j - x into the j-th pivot
        pivots = d[:, None, None] - points[:, 1:-1]
        with np.errstate(divide="ignore"):
            for j in range(1, k):
                np.divide(e2[j - 1], pivots[j - 1], out=ratio)
                np.subtract(pivots[j], ratio, out=pivots[j])
        count = np.count_nonzero(np.signbit(pivots), axis=0)
        below = np.sum(count <= index[:, None], axis=1)
        lo, hi = points[index, below], points[index, below + 1]
    return 0.5 * (lo + hi)


def _inverse_iteration(d, e, values):
    """Unit eigenvectors of one unreduced block for its ascending eigenvalues
    ``values``, by inverse iteration vectorized over the shifts (LAPACK
    dstein).

    T - lambda_i I is factored once per shift by Gaussian elimination with
    partial pivoting (LAPACK dgttrf): row i is swapped with row i+1 where
    the coupling e_i beats the pivot, leaving the upper triangle (u0, u1,
    u2) and the multipliers ``low``; a pivot below eps times the block's
    1-norm is raised to that size.  Shifts that coincide to rounding are
    pushed apart so that each solve sees its own matrix, and after every
    solve the vectors of a cluster (consecutive eigenvalues closer than
    _CLUSTER_GAP times the 1-norm) are re-orthogonalized in order.
    """
    k = d.size
    eps = np.finfo(float).eps
    ae = np.abs(e)
    onenrm = float(np.max(np.abs(d) + np.append(ae, 0.0) + np.append(0.0, ae)))
    # shifts_i = max(values_i, shifts_{i-1} + pert), as a running maximum
    pert = 10.0 * eps * onenrm * np.arange(k)
    shifts = pert + np.maximum.accumulate(values - pert)

    u0 = d[:, None] - shifts
    u1 = np.repeat(e[:, None], k, axis=1)
    u2 = np.zeros((k - 2, k))
    low = np.empty((k - 1, k))
    swap = np.empty((k - 1, k), dtype=bool)
    for i in range(k - 1):
        s = swap[i] = ae[i] > np.abs(u0[i])
        piv = np.where(s, e[i], u0[i])
        low[i] = np.where(s, u0[i], e[i]) / piv
        head, tail = np.where(s, u0[i + 1], u1[i]), np.where(s, u1[i], u0[i + 1])
        u0[i], u1[i], u0[i + 1] = piv, head, tail - low[i] * head
        if i < k - 2:
            u2[i] = s * e[i + 1]
            u1[i + 1] = np.where(s, -low[i], 1.0) * e[i + 1]
    u0 = np.copysign(np.maximum(np.abs(u0), eps * onenrm), u0)

    gaps = np.diff(values) >= _CLUSTER_GAP * onenrm
    clusters = [c for c in np.split(np.arange(k), np.flatnonzero(gaps) + 1) if c.size > 1]
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (k, k))
    for _ in range(_INVERSE_ITERATIONS):
        b = x / np.max(np.abs(x), axis=0)
        for i in range(k - 1):
            head, tail = np.where(swap[i], b[i + 1], b[i]), np.where(swap[i], b[i], b[i + 1])
            b[i], b[i + 1] = head, tail - low[i] * head
        x[k - 1] = b[k - 1] / u0[k - 1]
        x[k - 2] = (b[k - 2] - u1[k - 2] * x[k - 1]) / u0[k - 2]
        for i in range(k - 3, -1, -1):
            x[i] = (b[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
        x /= np.linalg.norm(x, axis=0)
        for c in clusters:
            q, r = np.linalg.qr(x[:, c])
            x[:, c] = q * np.copysign(1.0, np.diag(r))
    if not np.all(np.isfinite(x)):
        raise ConvergenceError(f"inverse iteration overflowed on a block of size {k}")
    return x


def _sturm_values(t):
    """The values stage of ``eig_sym_tridiag``: the split at exactly zero
    couplings, every eigenvalue by bisection (``_bisect_block``), and the
    simplicity check.  Returns the eigenvalues in the order of the diagonal
    (each block's ascending), the ascending permutation and the unreduced
    blocks as (lo, hi) ranges."""
    if not isinstance(t, TridiagonalOperator):
        raise DomainError("expected a TridiagonalOperator")
    d, off = t.diag, t.offdiag
    values = d.copy()
    bounds = np.concatenate(([0], np.flatnonzero(off == 0.0) + 1, [t.dim]))
    blocks = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi - lo > 1]
    for lo, hi in blocks:
        values[lo:hi] = _bisect_block(d[lo:hi], off[lo:hi - 1])
    order = np.argsort(values, kind="stable")
    error = _gap_error(t, values[order])
    if error:
        raise DegeneracyError(error)
    return values, order, blocks


def eigvals_sym_tridiag(t):
    """Ascending eigenvalues of a symmetric tridiagonal operator by bisection
    on Sturm counts: ``eig_sym_tridiag`` without the eigenvectors."""
    values, order, _ = _sturm_values(t)
    return values[order]


def eig_sym_tridiag(t):
    """Full spectrum of a symmetric tridiagonal operator by bisection on
    Sturm counts and inverse iteration.

    The matrix is split at couplings that are exactly zero (the Heun operator
    always splits at the window edge); each unreduced block gets its
    eigenvalues by bisection (``_bisect_block``) and its eigenvectors by
    inverse iteration (``_inverse_iteration``), so no LAPACK eigensolver is
    involved and the dense solver stays an independent oracle.  Eigenvalues
    come back ascending with orthonormal eigenvectors and residuals
    ||T v - lambda v||.  If the input is unreduced (every off-diagonal
    nonzero) its eigenvalues are mathematically simple; that simplicity is
    asserted and a degenerate numerical spectrum raises.
    """
    values, order, blocks = _sturm_values(t)
    d, off = t.diag, t.offdiag
    vectors = np.eye(t.dim)
    for lo, hi in blocks:
        vectors[lo:hi, lo:hi] = _inverse_iteration(d[lo:hi], off[lo:hi - 1], values[lo:hi])
    values, vectors = values[order], vectors[:, order]
    tv = d[:, None] * vectors
    tv[:-1] += off[:, None] * vectors[1:]
    tv[1:] += off[:, None] * vectors[:-1]
    residuals = np.linalg.norm(tv - vectors * values, axis=0)
    return Spectrum(values, vectors, residuals, t.basis)


def _gap_error(t, values):
    """The DegeneracyError message when an unreduced tridiagonal operator
    (every off-diagonal nonzero, so mathematically simple spectrum) has
    numerically coincident ascending eigenvalues ``values``, else None."""
    if t.dim > 1 and np.all(np.abs(t.offdiag) > 0.0):
        scale = max(np.max(np.abs(values)), 1.0)
        gap = np.min(np.diff(values))
        if gap <= 1e-12 * scale:
            return f"unreduced tridiagonal block produced eigenvalue gap {gap:.3e}"
    return None


def eig_sym_dense(m):
    """Full spectrum of a Hermitian dense operator (LAPACK); the brute-force
    oracle for every other solver in the package."""
    if not isinstance(m, DenseOperator):
        raise DomainError("expected a DenseOperator")
    if not m.hermitian:
        raise DomainError("eig_sym_dense requires the hermitian flag")
    values, vectors = np.linalg.eigh(m.entries)
    residuals = np.linalg.norm(m.entries @ vectors - vectors * values, axis=0)
    return Spectrum(values, vectors, residuals, m.basis)


def svd_E(p):
    """Singular values of the band x window block E, without singular
    vectors (LAPACK dgesdd).

    E maps window coordinates to band coordinates.  Returns the singular
    values descending, zero-padded to the subspace dimension, so only the
    first min(band rank, window rank) can be nonzero; their squares are the
    spectrum of the time-band operator.  An empty band or window gives all
    zeros.
    """
    s = np.linalg.svd(band_window_block(p), compute_uv=False)
    sigmas = np.zeros(p.dim)
    sigmas[: s.size] = s
    return sigmas


def joint_spectra(ps):
    """Simultaneous eigenpairs (t, q) on the window subspace of instances
    sharing n, parity and window rank m, in one stacked pass.

    The Heun operator decouples exactly at the window edge; the leading
    blocks are made dense and diagonalized by one LAPACK call.  On the window
    the time-band operator is E^T E for the band x window Fourier block E,
    so q = ||E v||^2 (exact because the block spectrum is simple), and the
    residual ||E^T E v - q v|| guards that assumption.  Each E is a row
    prefix of one E at the largest band rank, multiplied at its own shape
    (rows of a larger product can differ in the last bit).  Returns t, q and
    residuals as (g, m) arrays, each row by descending q, ties by ascending
    t; the (g, m, m) eigenvectors, one per row in that order; and per
    instance its DegeneracyError message or None.
    """
    m = ps[0].time_rank
    blocks = [heun_tb(p).block(m) for p in ps]
    i = np.arange(m)
    dense = np.zeros((len(ps), m, m))
    # adding 0.0 reads -0.0 as 0.0, as a sum of np.diag matrices does
    dense[:, i, i] = [b.diag + 0.0 for b in blocks]
    dense[:, i[1:], i[:-1]] = dense[:, i[:-1], i[1:]] = [b.offdiag + 0.0 for b in blocks]
    values, vectors = np.linalg.eigh(dense)
    e_full = band_window_block(max(ps, key=lambda p: p.band_rank))
    qs, residuals = np.zeros_like(values), np.zeros_like(values)
    errors = [_gap_error(b, t) for b, t in zip(blocks, values)]
    for k, (p, v) in enumerate(zip(ps, vectors)):
        if errors[k]:
            continue
        e = e_full[: p.band_rank]
        ev = e @ v
        qs[k] = np.sum(ev * ev, axis=0)
        residuals[k] = np.linalg.norm(e.T @ ev - qs[k] * v, axis=0)
        worst = float(np.max(residuals[k], initial=0.0))
        if m and log.isEnabledFor(logging.DEBUG):
            gap = float(np.min(np.diff(values[k]))) if m > 1 else float("inf")
            log.debug("joint_spectrum n=%d K=%d L=%d %s: window rank %d, "
                      "min eigenvalue gap %.3e, max joint residual %.3e",
                      p.n, p.K, p.L, p.parity.value, m, gap, worst)
        if worst > 1e-10:
            errors[k] = (f"joint eigenvector residual {worst:.3e} exceeds 1e-10; "
                         "the Heun block spectrum is not resolving the time-band operator")
    g, order = np.arange(len(ps))[:, None], np.lexsort((values, -qs))
    return values[g, order], qs[g, order], residuals[g, order], vectors[g, :, order], errors


def joint_spectrum(p):
    """``joint_spectra`` of one instance as JointMode objects, each window
    eigenvector zero-padded to the subspace; raises its DegeneracyError."""
    (t,), (q,), (residuals,), (vectors,), (error,) = joint_spectra([p])
    if error:
        raise DegeneracyError(error)
    padded = np.zeros((t.size, p.dim), dtype=complex)
    padded[:, : t.size] = vectors
    return [JointMode(t=a, q=b, vector=SignalVector(v, position_kind(p.parity)), residual=r)
            for a, b, v, r in zip(t.tolist(), q.tolist(), padded, residuals.tolist())]
