"""The reconstruction problem itself: observe the band-limited Fourier data
of a window-supported signal and invert by a truncated singular value
expansion.

Each parity branch is an ordinary finite-dimensional least-squares problem
(band rank observations against window rank unknowns); the verdict reports
whether the window subspace is fully resolved, numerically fragile, or
genuinely unrecoverable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core_model import (
    ModelParams,
    Parity,
    SignalVector,
    coefficients_of,
    fourier_matrix,
    grid_values,
    position_kind,
)
from .errors import DomainError, SupportError
from .spectral import eig_sym_dense, svd_E
from .operators import tb_operator

__all__ = [
    "Verdict",
    "ObservedData",
    "ReconstructionReport",
    "forward_observe",
    "reconstruct",
    "conditioning_report",
    "reconstruct_signal",
    "reconstruction_verdict",
]

DEFAULT_ZERO_TOL_REL = 1e-10
ILL_CONDITION_RATIO = 1e8


class Verdict(enum.Enum):
    EXACT = "exact"
    ILL_CONDITIONED = "ill_conditioned"
    UNRECOVERABLE = "unrecoverable"


@dataclass
class ObservedData:
    """Band-limited Fourier coefficients of a window-supported signal."""

    values: np.ndarray
    params: ModelParams

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.size != self.params.band_rank:
            raise DomainError(
                f"expected {self.params.band_rank} band coefficients, got {self.values.size}"
            )


@dataclass
class ReconstructionReport:
    f_hat: SignalVector
    singular_values: np.ndarray
    kept_modes: int
    discarded_modes: int
    verdict: Verdict
    worst_kept_sigma: float


def _window_rows(p):
    return [r for r, j in enumerate(p.indices) if j <= p.L]


def _band_rows(p):
    return [r for r, k in enumerate(p.indices) if k <= p.K]


def _observation_matrix(p):
    """Band coefficients of each window basis vector (band rank x window
    rank)."""
    f = fourier_matrix(p).entries
    return f[np.ix_(_band_rows(p), _window_rows(p))]


def forward_observe(f, p):
    """Project a window-supported position-basis signal onto the band.

    Raises when the signal leaks outside the time window; the observation is
    only defined for window-supported inputs.
    """
    if not isinstance(f, SignalVector) or f.basis is not position_kind(p.parity):
        raise DomainError("expected a position-basis signal of matching parity")
    if f.coeffs.size != p.dim:
        raise DomainError(f"expected {p.dim} coefficients, got {f.coeffs.size}")
    window = _window_rows(p)
    mask = np.ones(p.dim, dtype=bool)
    mask[window] = False
    leak = float(np.linalg.norm(f.coeffs[mask]))
    if leak > 1e-10 * max(1.0, f.norm()):
        raise SupportError(f"signal leaks outside the time window (norm {leak:.3e})")
    m = _observation_matrix(p)
    return ObservedData(m @ f.coeffs[window], p)


def reconstruction_verdict(sigmas, window_rank, zero_tol=None):
    """Verdict and kept-mode count for descending singular values ``sigmas``
    of the band x window block, whose window has rank ``window_rank``.

    Singular directions with sigma <= zero_tol (default: 1e-10 times the top
    sigma) are discarded.  The verdict is UNRECOVERABLE exactly when some
    window mode falls below that threshold (a window wider than the band
    always leaves some), ILL_CONDITIONED when everything is kept but the
    spread of kept sigmas exceeds 1e8, and EXACT otherwise.
    """
    s = np.asarray(sigmas, dtype=float)
    sigma_max = float(s[0]) if s.size else 0.0
    tol = zero_tol if zero_tol is not None else DEFAULT_ZERO_TOL_REL * sigma_max
    kept = int(np.sum(s > tol))
    if kept < window_rank:
        return Verdict.UNRECOVERABLE, kept
    if kept and s[0] / s[kept - 1] > ILL_CONDITION_RATIO:
        return Verdict.ILL_CONDITIONED, kept
    return Verdict.EXACT, kept


def reconstruct(data, zero_tol=None):
    """Truncated pseudo-inverse reconstruction from band observations, with
    the discarding rule and verdict of ``reconstruction_verdict``."""
    p = data.params
    window = _window_rows(p)
    m = _observation_matrix(p)
    wdim = len(window)
    u, s, vh = np.linalg.svd(m) if min(m.shape) else (np.zeros((m.shape[0], 0)), np.zeros(0), np.zeros((0, m.shape[1])))
    verdict, kept = reconstruction_verdict(s, wdim, zero_tol)
    padded = np.zeros(wdim)
    padded[: s.size] = s
    coeffs = np.zeros(p.dim, dtype=complex)
    window_coeffs = np.zeros(wdim, dtype=complex)
    for i in range(kept):
        window_coeffs += (np.vdot(u[:, i], data.values) / s[i]) * vh[i].conj()
    coeffs[window] = window_coeffs
    return ReconstructionReport(
        f_hat=SignalVector(coeffs, position_kind(p.parity)),
        singular_values=padded,
        kept_modes=kept,
        discarded_modes=wdim - kept,
        verdict=verdict,
        worst_kept_sigma=float(s[kept - 1]) if kept else 0.0,
    )


def conditioning_report(p, zero_tol=None):
    """Window-restricted spectrum of the time-band operator and the count of
    eigenvalues indicating unrecoverable directions (sqrt below zero_tol).

    Eigenvalues of the squared operator carry O(eps) absolute noise, so the
    count clamps the threshold at the sqrt(eps)-scale noise floor; below that
    the singular value route (reconstruct) is the resolving one.
    """
    window = _window_rows(p)
    q = tb_operator(p).entries[np.ix_(window, window)]
    eigs = np.sort(np.linalg.eigvalsh(q)) if len(window) else np.zeros(0)
    trips = svd_E(p)
    sigma_max = float(trips.sigmas[0]) if len(trips) else 0.0
    tol = zero_tol if zero_tol is not None else DEFAULT_ZERO_TOL_REL * sigma_max
    lam_max = float(eigs[-1]) if eigs.size else 0.0
    floor = math.sqrt(len(window) * np.finfo(float).eps * max(lam_max, 0.0)) if eigs.size else 0.0
    eff = max(tol, floor)
    near_zero = int(np.sum(np.sqrt(np.clip(eigs, 0.0, None)) <= eff))
    return eigs, near_zero


def _reflect(values):
    out = np.empty_like(values)
    out[0] = values[0]
    out[1:] = values[:0:-1]
    return out


def reconstruct_signal(values, n, K, L, zero_tol=None):
    """Full-signal convenience wrapper: parity-split an ambient length-2n
    signal, observe and reconstruct each branch, and merge.

    Returns (report_plus, report_minus, merged ambient reconstruction).
    """
    values = np.asarray(values, dtype=complex)
    if values.size != 2 * n:
        raise DomainError(f"expected 2n = {2 * n} samples, got {values.size}")
    merged = np.zeros(2 * n, dtype=complex)
    reports = {}
    for parity in (Parity.PLUS, Parity.MINUS):
        p = ModelParams(n=n, K=K, L=L, parity=parity)
        part = 0.5 * (values + _reflect(values)) if parity is Parity.PLUS \
            else 0.5 * (values - _reflect(values))
        sv = coefficients_of(part, p, position_kind(parity))
        report = reconstruct(forward_observe(sv, p), zero_tol)
        reports[parity] = report
        merged += grid_values(report.f_hat, p)
    return reports[Parity.PLUS], reports[Parity.MINUS], merged
