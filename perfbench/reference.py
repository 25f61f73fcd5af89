"""Reference values computed from closed forms, apart from tblim.

Nothing here imports tblim.  The checks in ``workloads.py`` compare the
program's outputs against these values, so a fault shared by two tblim
modules cannot hide itself by agreeing with its own copy.

Labels follow the model: on the symmetric (plus) subspace positions and
momenta run over 0..n, on the antisymmetric (minus) one over 1..n-1.  The
window keeps labels j <= L, the band keeps labels k <= K.
"""

from __future__ import annotations

import numpy as np


def labels(n, parity):
    return np.arange(0, n + 1) if parity == "plus" else np.arange(1, n)


def _rho(n, j):
    """Boundary weight: sqrt(2) at labels 0 and n, 1 inside."""
    return np.where((j == 0) | (j == n), np.sqrt(2.0), 1.0)


def fourier_block(n, K, L, parity):
    """Band x window block E of the Fourier matrix:
    sqrt(2/n) cos(pi k j / n) / (rho_k rho_j) on plus parity,
    sqrt(2/n) sin(pi k j / n) on minus parity."""
    idx = labels(n, parity)
    k = idx[idx <= K][:, None].astype(float)
    j = idx[idx <= L][None, :].astype(float)
    if parity == "plus":
        return np.sqrt(2.0 / n) * np.cos(np.pi * k * j / n) / (_rho(n, k) * _rho(n, j))
    return np.sqrt(2.0 / n) * np.sin(np.pi * k * j / n)


def window_q_block(n, K, L, parity):
    """Window block of the time-band operator: E^T E."""
    e = fourier_block(n, K, L, parity)
    return e.T @ e


def heun_window_block(n, K, L, parity):
    """Diagonal and off-diagonal of the window block of the Heun operator

        T = {A, A*} / (4 cos(pi/2n)) - cos(pi(2K+1)/2n) A* - cos(pi(2L+1)/2n) A

    where A hops j -> j+1 with weight rho_j rho_{j+1} (1 on minus parity) and
    A* = diag 2 cos(pi j / n).  {A, A*} has off-diagonal
    w_j w_{j+1} (2 cos(pi j/n) + 2 cos(pi (j+1)/n)), which is
    4 w_j w_{j+1} cos(pi/2n) cos(pi (2j+1)/2n).
    """
    idx = labels(n, parity)
    j = idx[idx <= L].astype(float)
    w = _rho(n, j) if parity == "plus" else np.ones_like(j)
    diag = -2.0 * np.cos(np.pi * (2 * K + 1) / (2 * n)) * np.cos(np.pi * j / n)
    jj = j[:-1]
    w_next = _rho(n, jj + 1) if parity == "plus" else np.ones_like(jj)
    off = w[:-1] * w_next * (np.cos(np.pi * (2 * jj + 1) / (2 * n))
                             - np.cos(np.pi * (2 * L + 1) / (2 * n)))
    return diag, off


def heun_window_eigenvalues(n, K, L, parity):
    """Ascending eigenvalues of the Heun window block (LAPACK, through SciPy)."""
    # imported here so that SciPy, which tblim itself never loads, stays out
    # of the benchmark's set-up time
    from scipy.linalg import eigvalsh_tridiagonal

    diag, off = heun_window_block(n, K, L, parity)
    if diag.size == 0:
        return diag
    return eigvalsh_tridiagonal(diag, off)


def q_window_eigenvalues(n, K, L, parity):
    """Ascending eigenvalues of the window block of the time-band operator."""
    q = window_q_block(n, K, L, parity)
    return np.linalg.eigvalsh(q) if q.size else np.zeros(0)


def window_singular_values(n, K, L, parity):
    """Descending singular values of E, padded with zeros to the window rank
    (a band narrower than the window leaves that many exact zeros)."""
    e = fourier_block(n, K, L, parity)
    s = np.linalg.svd(e, compute_uv=False) if e.size else np.zeros(0)
    out = np.zeros(e.shape[1])
    out[: s.size] = s
    return out


def parity_coefficients(values, n, parity):
    """Position-basis coefficients of the parity part of an ambient signal
    on {0..2n-1}: the overlap with (delta_j +/- delta_{2n-j}) / (rho_j sqrt 2)."""
    values = np.asarray(values, dtype=complex)
    j = labels(n, parity)
    mirror = values[(2 * n - j) % (2 * n)]
    if parity == "plus":
        return (values[j] + mirror) / (_rho(n, j) * np.sqrt(2.0))
    return (values[j] - mirror) / np.sqrt(2.0)
