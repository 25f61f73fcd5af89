"""Eigendecomposition backbone: the joint spectrum of the Heun and time-band
operators, a hand-rolled symmetric tridiagonal QL solver, a dense Hermitian
solver, and the singular value decomposition of the band x window block of
the Fourier matrix.

The joint spectrum diagonalizes the window block of the Heun operator with
LAPACK and reads each concentration off the band x window Fourier block; the
SVD factors that same block, so no n x n matrix is formed on either route.
The implicit-shift QL iteration and the dense solver are kept as independent
oracles that the tests and the verification suite compare the production
route against.
"""

from __future__ import annotations

import logging
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
    "SingularTriplets",
    "JointMode",
    "eig_sym_tridiag",
    "eig_sym_dense",
    "svd_E",
    "joint_spectrum",
    "top_block_dim",
]

_QL_MAX_SWEEPS = 50  # per eigenvalue; total is bounded by 50 * dim

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

    def pairs(self):
        for i in range(len(self)):
            yield self.values[i], SignalVector(self.vectors[:, i], self.basis), self.residuals[i]


@dataclass
class SingularTriplets:
    """Singular triplets (sigma, left, right), descending sigma.

    ``lefts[:, i]`` is in band coordinates (the first band rank momentum
    labels) and ``rights[:, i]`` in window coordinates (the first window rank
    position labels); ``sigmas`` is zero-padded to the subspace dimension, so
    only its first min(band rank, window rank) entries have vectors.
    """

    sigmas: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray

    def __len__(self):
        return self.sigmas.size


@dataclass
class JointMode:
    """One simultaneous eigenvector of the Heun and time-band operators."""

    t: float
    q: float
    vector: SignalVector
    residual: float


def _ql_implicit(diag, off, rotate=None):
    """Implicit-shift QL sweep on a symmetric tridiagonal matrix.

    ``rotate(i, c, s)`` is called for every Givens rotation applied to the
    (i, i+1) plane, letting the caller accumulate eigenvectors.  Returns the
    eigenvalues unsorted on the mutated diagonal.
    """
    d = np.asarray(diag, dtype=float).copy()
    n = d.size
    e = np.zeros(n)
    e[: n - 1] = off
    scale = max(np.max(np.abs(d)) if n else 0.0, np.max(np.abs(e)) if n else 0.0, 1.0)
    eps = np.finfo(float).eps
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                # split when zeroing e[m] is a backward perturbation at
                # machine level, relative to the local diagonal or the norm
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * (dd + scale):
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _QL_MAX_SWEEPS:
                raise ConvergenceError(
                    f"QL iteration exceeded {_QL_MAX_SWEEPS} sweeps on block "
                    f"[{l}, {m}] of size {n}"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = np.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s = c = 1.0
            p_acc = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = np.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p_acc
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p_acc
                r = (d[i] - g) * s + 2.0 * c * b
                p_acc = s * r
                d[i + 1] = g + p_acc
                g = c * r - b
                if rotate is not None:
                    rotate(i, c, s)
            if underflow:
                continue
            d[l] -= p_acc
            e[l] = g
            e[m] = 0.0
    return d


def eig_sym_tridiag(t):
    """Full spectrum of a symmetric tridiagonal operator by implicit-shift QL.

    Eigenvalues come back ascending with orthonormal eigenvectors.  If the
    input is unreduced (every off-diagonal nonzero) its eigenvalues are
    mathematically simple; that simplicity is asserted and a degenerate
    numerical spectrum raises.
    """
    if not isinstance(t, TridiagonalOperator):
        raise DomainError("expected a TridiagonalOperator")
    n = t.dim
    if n == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 0)), np.zeros(0), t.basis)
    z = np.eye(n)

    def rotate(i, c, s):
        zi = z[:, i].copy()
        z[:, i] = c * zi - s * z[:, i + 1]
        z[:, i + 1] = s * zi + c * z[:, i + 1]

    d = _ql_implicit(t.diag, t.offdiag, rotate)
    order = np.argsort(d, kind="stable")
    values = d[order]
    vectors = z[:, order]
    residuals = np.array(
        [float(np.linalg.norm(t.apply(vectors[:, i]) - values[i] * vectors[:, i])) for i in range(n)]
    )
    _check_simple(t, values)
    return Spectrum(values, vectors, residuals, t.basis)


def _check_simple(t, values):
    """Raise when an unreduced tridiagonal operator (every off-diagonal
    nonzero, so mathematically simple spectrum) has numerically coincident
    ascending eigenvalues ``values``."""
    if t.dim > 1 and np.all(np.abs(t.offdiag) > 0.0):
        scale = max(np.max(np.abs(values)), 1.0)
        gap = np.min(np.diff(values))
        if gap <= 1e-12 * scale:
            raise DegeneracyError(
                f"unreduced tridiagonal block produced eigenvalue gap {gap:.3e}"
            )


def eig_sym_dense(m):
    """Full spectrum of a Hermitian dense operator (LAPACK); the brute-force
    oracle for every other solver in the package."""
    if not isinstance(m, DenseOperator):
        raise DomainError("expected a DenseOperator")
    if not m.hermitian:
        raise DomainError("eig_sym_dense requires the hermitian flag")
    values, vectors = np.linalg.eigh(m.entries)
    residuals = np.array(
        [float(np.linalg.norm(m.entries @ vectors[:, i] - values[i] * vectors[:, i]))
         for i in range(m.dim)]
    )
    return Spectrum(values, vectors, residuals, m.basis)


def svd_E(p):
    """Thin singular value decomposition of the band x window block E.

    E maps window coordinates to band coordinates; the squared singular
    values, zero-padded to the subspace dimension, are the spectrum of the
    time-band operator.  An empty band or window gives no triplets and all
    sigmas zero.
    """
    u, s, vh = np.linalg.svd(band_window_block(p), full_matrices=False)
    sigmas = np.zeros(p.dim)
    sigmas[: s.size] = s
    return SingularTriplets(sigmas=sigmas, lefts=u, rights=vh.T)


def top_block_dim(p):
    """Dimension of the window-supported block of the Heun operator."""
    return p.time_rank


def joint_spectrum(p):
    """Simultaneous eigenpairs (t, q) on the window subspace.

    The Heun operator decouples exactly at the window edge; its leading block
    is made dense and diagonalized by LAPACK, and eigenvectors are
    zero-padded.  The time-band operator vanishes outside the window, where
    it equals E^T E for the band x window Fourier block E, so each mode's
    concentration is q = ||E v||^2 (exact because the block spectrum is
    simple).  The residual ||E^T E v - q v|| guards that assumption.  Modes
    come back sorted by descending q, ties broken by ascending t.
    """
    dim = top_block_dim(p)
    if dim == 0:
        return []
    block = heun_tb(p).block(dim)
    dense = np.diag(block.diag) + np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
    values, vectors = np.linalg.eigh(dense)
    _check_simple(block, values)
    e = band_window_block(p)
    ev = e @ vectors
    qs = np.sum(ev * ev, axis=0)
    residuals = np.linalg.norm(e.T @ ev - qs * vectors, axis=0)
    worst = float(np.max(residuals))
    if log.isEnabledFor(logging.DEBUG):
        gap = float(np.min(np.diff(values))) if dim > 1 else float("inf")
        log.debug("joint_spectrum n=%d K=%d L=%d %s: window rank %d, "
                  "min eigenvalue gap %.3e, max joint residual %.3e",
                  p.n, p.K, p.L, p.parity.value, dim, gap, worst)
    if worst > 1e-10:
        raise DegeneracyError(
            f"joint eigenvector residual {worst:.3e} exceeds 1e-10; "
            "the Heun block spectrum is not resolving the time-band operator"
        )
    modes = []
    for i in range(dim):
        v = np.zeros(p.dim, dtype=complex)
        v[:dim] = vectors[:, i]
        modes.append(
            JointMode(t=float(values[i]), q=float(qs[i]),
                      vector=SignalVector(v, position_kind(p.parity)),
                      residual=float(residuals[i]))
        )
    modes.sort(key=lambda m: (-m.q, m.t))
    return modes
