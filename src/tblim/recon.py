"""The reconstruction problem itself: observe the band-limited Fourier data
of a window-supported signal and invert by a truncated singular value
expansion.

Each parity branch is an ordinary finite-dimensional least-squares problem
(band rank observations against window rank unknowns) posed on the band x
window Fourier block E; observation, reconstruction and the conditioning
report all work from E and its one SVD (``svd_E``).  The verdict reports
whether the window subspace is fully resolved, numerically fragile, or
genuinely unrecoverable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core_model import (
    ModelParams,
    Parity,
    SignalVector,
    band_window_block,
    coefficients_of,
    grid_values,
    position_kind,
)
from .errors import DomainError, SupportError
from .spectral import svd_E

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


def forward_observe(f, p):
    """Project a window-supported position-basis signal onto the band.

    Raises when the signal leaks outside the time window; the observation is
    only defined for window-supported inputs.
    """
    if not isinstance(f, SignalVector) or f.basis is not position_kind(p.parity):
        raise DomainError("expected a position-basis signal of matching parity")
    if f.coeffs.size != p.dim:
        raise DomainError(f"expected {p.dim} coefficients, got {f.coeffs.size}")
    leak = float(np.linalg.norm(f.coeffs[p.time_rank:]))
    if leak > 1e-10 * max(1.0, f.norm()):
        raise SupportError(f"signal leaks outside the time window (norm {leak:.3e})")
    return ObservedData(band_window_block(p) @ f.coeffs[: p.time_rank], p)


def reconstruction_verdict(sigmas, window_rank, zero_tol=None):
    """Verdict and kept-mode count for descending singular values ``sigmas``
    of the band x window block, whose window has rank ``window_rank``.

    Singular directions with sigma <= zero_tol (default: 1e-10 times the top
    sigma) are discarded, and a zero sigma always is, whatever zero_tol.  The
    verdict is UNRECOVERABLE exactly when some window mode falls below that
    threshold (a window wider than the band always leaves some),
    ILL_CONDITIONED when everything is kept but the spread of kept sigmas
    exceeds 1e8, and EXACT otherwise.
    """
    s = np.asarray(sigmas, dtype=float)
    sigma_max = float(s[0]) if s.size else 0.0
    tol = max(zero_tol, 0.0) if zero_tol is not None else DEFAULT_ZERO_TOL_REL * sigma_max
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
    trips = svd_E(p)
    s = trips.sigmas[: p.time_rank]
    verdict, kept = reconstruction_verdict(s, p.time_rank, zero_tol)
    u, v = trips.lefts[:, :kept], trips.rights[:, :kept]
    coeffs = np.zeros(p.dim, dtype=complex)
    coeffs[: p.time_rank] = v @ ((u.T @ data.values) / s[:kept])
    return ReconstructionReport(
        f_hat=SignalVector(coeffs, position_kind(p.parity)),
        singular_values=s,
        kept_modes=kept,
        discarded_modes=p.time_rank - kept,
        verdict=verdict,
        worst_kept_sigma=float(s[kept - 1]) if kept else 0.0,
    )


def conditioning_report(p, zero_tol=None):
    """Window-restricted spectrum of the time-band operator, ascending, and
    the count of unrecoverable window directions.

    Both come from the SVD of the band x window block: the eigenvalues are
    the squared singular values, and the count is the number of window modes
    ``reconstruction_verdict`` discards, i.e. ``reconstruct``'s
    ``discarded_modes``.
    """
    s = svd_E(p).sigmas[: p.time_rank]
    _verdict, kept = reconstruction_verdict(s, p.time_rank, zero_tol)
    return s[::-1] ** 2, p.time_rank - kept


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
