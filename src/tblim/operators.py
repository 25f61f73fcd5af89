"""Projectors, the time-band limiting operator, Leonard pairs, and the
commuting algebraic Heun operators.

``operator_set`` builds every operator of one instance once, for both
``tblim build`` and ``tblim verify``.

Operators live in the (n+1)- or (n-1)-dimensional parity coordinates:
the Leonard pair and the Heun operators as tridiagonal operators, the
projectors and the time-band operator as dense matrices, which keep every
algebraic identity directly checkable.  Their entries are built over whole
label arrays at once: ``heun_coefficients`` returns functions that take a
label or an integer array of labels, in double precision or in an mpmath
context.  Position-basis matrices index rows by the subspace labels (0..n
symmetric, 1..n-1 antisymmetric), momentum-basis matrices likewise.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core_model import (
    DenseOperator,
    Parity,
    SignalVector,
    TridiagonalOperator,
    fourier_matrix,
    grid_cos,
    momentum_kind,
    position_kind,
    rho,
    trig_c,
    trig_s,
)
from .errors import DomainError

__all__ = [
    "DenseOperator",
    "TridiagonalOperator",
    "OperatorSet",
    "operator_set",
    "projector_time",
    "projector_band",
    "tb_operator",
    "leonard_pair",
    "heun_general",
    "heun_tb",
    "heun_tb_momentum",
    "heun_coefficients",
    "to_momentum_basis",
    "check_askey_wilson",
    "concentration_ratio",
    "commutator_norm",
]


def _keep(p, limit):
    """0/1 over the subspace labels, 1 on labels <= limit."""
    return (np.array(p.indices) <= limit).astype(float)


def projector_time(p):
    """Time-window projector: diagonal 0/1 in the position basis, keeping
    labels j <= L."""
    return DenseOperator(np.diag(_keep(p, p.L)), position_kind(p.parity), hermitian=True)


def projector_band(p, f=None):
    """Band projector expressed in the position basis; ``f`` is the
    instance's Fourier matrix, built here when not given."""
    f = (fourier_matrix(p) if f is None else f).entries
    m = f.T @ (_keep(p, p.K)[:, None] * f)
    return DenseOperator(m, position_kind(p.parity), hermitian=True)


def tb_operator(p, projectors=None):
    """Time-band limiting operator: window projector, band projector, window
    projector, multiplied in the position basis.  ``projectors`` is the
    instance's pair (window projector, band projector), built here when not
    given.

    Hermitian, positive semidefinite, spectrum inside [0, 1], supported on the
    range of the window projector.
    """
    p1, p2 = projectors or (projector_time(p), projector_band(p))
    return DenseOperator(p1.entries @ p2.entries @ p1.entries, position_kind(p.parity),
                         hermitian=True)


def leonard_pair(p):
    """The pair (A, A*): A hops between neighbouring positions, A* multiplies
    by 2 cos(pi*j/n).

    Both act tridiagonally in each other's eigenbasis.  On the symmetric
    subspace the hopping weights carry the boundary factors
    rho(j) * rho(j+1); on the antisymmetric one they are all 1 with absorbing
    zero boundaries.  Returned in the position basis, where A* is diagonal.
    """
    idx = np.array(p.indices)
    diag_a = np.zeros(p.dim)
    if p.parity is Parity.PLUS:
        off_a = rho(p, idx[:-1]) * rho(p, idx[:-1] + 1)
    else:
        off_a = np.ones(p.dim - 1)
    a = TridiagonalOperator(diag_a, off_a, position_kind(p.parity))
    astar = TridiagonalOperator(2.0 * grid_cos(p)(2 * idx), np.zeros(p.dim - 1),
                                position_kind(p.parity))
    return a, astar


def heun_general(a, astar, r1, r2, r3, r4, r5):
    """Most general bilinear combination of a Leonard pair:

        r1*{A, A*} + r2*[A, A*] + r3*A* + r4*A + r5

    Acts tridiagonally on the eigenbases of both members of the pair.
    """
    if a.basis is not astar.basis or a.dim != astar.dim:
        raise DomainError("operands must share basis and dimension")
    am = a.to_dense().entries
    sm = astar.to_dense().entries
    out = (
        r1 * (am @ sm + sm @ am)
        + r2 * (am @ sm - sm @ am)
        + r3 * sm
        + r4 * am
        + r5 * np.eye(a.dim)
    )
    return DenseOperator(out, a.basis)


def heun_coefficients(p, side="position", ctx=None, cos=None):
    """Tridiagonal action coefficients of the Heun operator, keyed by label.

    Returns functions (a, b, c) with a(j) the amplitude j -> j-1, b(j) the
    diagonal, c(j) the amplitude j -> j+1; a(j+1) == c(j).  Each takes a
    label or an integer array of labels and evaluates elementwise.
    ``side`` selects the position-basis coefficients (band limit K in the
    diagonal) or their momentum mirrors (roles of K and L exchanged).
    ``ctx`` selects the arithmetic: ``None`` for double precision, an mpmath
    context for its current precision, where an array of labels gives an
    object array of mpf (see ``core_model.grid_cos``).  ``cos`` is
    ``grid_cos(p, ctx)``, built here when not given.
    """
    if side == "position":
        kk, ll = p.K, p.L
    elif side == "momentum":
        kk, ll = p.L, p.K
    else:
        raise DomainError(f"side must be 'position' or 'momentum', got {side!r}")

    cos = grid_cos(p, ctx) if cos is None else cos
    cos_k, cos_l = cos(2 * kk + 1), cos(2 * ll + 1)
    weight = (lambda j: rho(p, j, ctx)) if p.parity is Parity.PLUS else (lambda j: 1.0)

    def a(j):
        return weight(j - 1) * weight(j) * (cos(2 * j - 1) - cos_l)

    # cos(2j) comes first: an mpf on the left of an object array would first
    # try, and fail, to convert the whole array, formatting it for the error
    def b(j):
        return cos(2 * j) * (-2.0 * cos_k)

    def c(j):
        return weight(j) * weight(j + 1) * (cos(2 * j + 1) - cos_l)

    return a, b, c


def _heun_tridiagonal(p, side):
    _, b, c = heun_coefficients(p, side)
    idx = np.array(p.indices)
    kind = position_kind(p.parity) if side == "position" else momentum_kind(p.parity)
    return TridiagonalOperator(b(idx), c(idx[:-1]), kind)


def heun_tb(p):
    """The Heun operator commuting with both projectors, in the position
    basis:

        {A, A*} / (4 cos(pi/2n)) - cos(pi(2K+1)/2n) A* - cos(pi(2L+1)/2n) A

    The off-diagonal coupling between labels L and L+1 is identically zero
    (the defining cancellation), so the matrix decouples exactly at the window
    edge.
    """
    return _heun_tridiagonal(p, "position")


def heun_tb_momentum(p):
    """Momentum-basis form of the Heun operator: same construction with the
    roles of the band and window limits exchanged.  Equals the Fourier
    conjugate of the position form."""
    return _heun_tridiagonal(p, "momentum")


class OperatorSet(NamedTuple):
    """F, the Leonard pair and the Heun operator (both tridiagonal), and the
    dense operators by the payload names of ``tblim build``."""

    fourier: DenseOperator
    pair: tuple
    heun: TridiagonalOperator
    dense: dict


def operator_set(p):
    """The operators of one instance, each built once: F; pi1; pi2 from that
    F; Q from that pi1 and pi2; A, A*, T and T_momentum, also dense."""
    f = fourier_matrix(p)
    a, astar = leonard_pair(p)
    t = heun_tb(p)
    projectors = projector_time(p), projector_band(p, f)
    dense = {"A": a.to_dense(), "A_star": astar.to_dense(),
             "pi1": projectors[0], "pi2": projectors[1], "Q": tb_operator(p, projectors),
             "T_position": t.to_dense(), "T_momentum": heun_tb_momentum(p).to_dense()}
    return OperatorSet(f, (a, astar), t, dense)


def to_momentum_basis(op, p, f=None):
    """Conjugate a position-basis dense operator into momentum coordinates;
    ``f`` is the instance's Fourier matrix, built here when not given."""
    f = (fourier_matrix(p) if f is None else f).entries
    if op.basis is not position_kind(p.parity):
        raise DomainError("expected a position-basis operator")
    return DenseOperator(f @ op.entries @ f.T, momentum_kind(p.parity), hermitian=op.hermitian)


def check_askey_wilson(p, pair=None):
    """Max-norm residuals of the two Askey-Wilson relations satisfied by the
    Leonard pair (``pair``, built here when not given):

        A^2 A*  - 2 cos(pi/n) A A* A   + A* A^2  = 4 sin(pi/n)^2 A*
        A*^2 A  - 2 cos(pi/n) A* A A*  + A A*^2  = 4 sin(pi/n)^2 A
    """
    a, astar = pair or leonard_pair(p)
    am = a.to_dense().entries.real
    sm = astar.to_dense().entries.real
    c2 = 2.0 * trig_c(p, 2)
    s2 = 4.0 * trig_s(p, 2) ** 2
    r1 = am @ am @ sm - c2 * (am @ sm @ am) + sm @ am @ am - s2 * sm
    r2 = sm @ sm @ am - c2 * (sm @ am @ sm) + am @ sm @ sm - s2 * am
    mx = lambda m: float(np.max(np.abs(m))) if m.size else 0.0
    return mx(r1), mx(r2)


def concentration_ratio(f, p):
    """Fraction of a window-supported signal's energy inside the band.

    The ratio ||band_projector f|| / ||f|| lies in [0, 1] and is maximized
    over the window subspace by the top eigenvector of the time-band
    operator, with maximum sqrt(largest eigenvalue).
    """
    if not isinstance(f, SignalVector) or f.basis is not position_kind(p.parity):
        raise DomainError("expected a position-basis signal of matching parity")
    nrm = f.norm()
    if nrm == 0.0:
        raise DomainError("concentration ratio undefined for the zero signal")
    p1 = projector_time(p).entries
    if np.linalg.norm(p1 @ f.coeffs - f.coeffs) > 1e-10 * nrm:
        raise DomainError("signal is not supported on the time window")
    p2 = projector_band(p).entries
    return float(np.linalg.norm(p2 @ f.coeffs) / nrm)


def commutator_norm(x, y):
    """Max-norm of the commutator of two same-basis dense operators."""
    if x.basis is not y.basis:
        raise DomainError("commutator requires matching bases")
    m = x.entries @ y.entries - y.entries @ x.entries
    return float(np.max(np.abs(m))) if m.size else 0.0
