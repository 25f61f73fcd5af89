"""Problem parameters, trigonometric kernels, and the orthonormal
position/momentum bases of the parity subspaces.

The ambient space is the set of complex functions on {0, ..., 2n-1} with the
plain sesquilinear scalar product.  Reflection j -> 2n-j splits it into a
symmetric part of dimension n+1 and an antisymmetric part of dimension n-1;
every computation in this package happens inside one of those two subspaces.

All trigonometric arguments are kept in *grid units*: ``trig_s(p, x)`` is
sin(pi*x/(2n)), so the formulas of the model can be transcribed verbatim.
Both kernels are 4n-periodic in grid units and accept complex arguments.

The builders of the model's numbers (``rho``, ``grid_cos``, ``fourier_block``)
take an optional numeric context: ``None`` computes in double precision with
numpy, an mpmath context (``mpmath.mp``) in its current precision, so the
high-precision checks reuse the very formulas of the double-precision ones.
``rho`` and ``grid_cos`` take a label (an integer) or an integer array of
labels in either context; with an mpmath context an array gives a numpy
object array of mpf, so the formulas built on them run unchanged over whole
label ranges.  In both arithmetics every cosine at an integer argument is
read from ``grid_cos``'s table over one period.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, DomainError

HERMITICITY_TOL = 1e-13


class Parity(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


class BasisKind(enum.Enum):
    POSITION_PLUS = "position_plus"
    POSITION_MINUS = "position_minus"
    MOMENTUM_PLUS = "momentum_plus"
    MOMENTUM_MINUS = "momentum_minus"

    @property
    def parity(self):
        return Parity.PLUS if self.value.endswith("plus") else Parity.MINUS

    @property
    def is_position(self):
        return self.value.startswith("position")


def position_kind(parity):
    return BasisKind.POSITION_PLUS if parity is Parity.PLUS else BasisKind.POSITION_MINUS


def momentum_kind(parity):
    return BasisKind.MOMENTUM_PLUS if parity is Parity.PLUS else BasisKind.MOMENTUM_MINUS


@dataclass(frozen=True)
class ModelParams:
    """Problem instance: half-dimension n, band limit K, time limit L, parity.

    The symmetric subspace has dimension n+1 (indices 0..n), the antisymmetric
    one n-1 (indices 1..n-1).  Both limits are inclusive: the time window keeps
    positions j <= L, the band keeps momenta k <= K.
    """

    n: int
    K: int
    L: int
    parity: Parity

    def __post_init__(self):
        for name in ("n", "K", "L"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not (0 <= self.K <= self.n):
            raise DomainError(f"K must satisfy 0 <= K <= n, got K={self.K}, n={self.n}")
        if not (0 <= self.L <= self.n):
            raise DomainError(f"L must satisfy 0 <= L <= n, got L={self.L}, n={self.n}")
        if self.parity is Parity.MINUS and self.n < 2:
            raise DomainError("antisymmetric subspace is zero-dimensional for n < 2")

    @property
    def dim(self):
        """Dimension of the chosen parity subspace."""
        return self.n + 1 if self.parity is Parity.PLUS else self.n - 1

    @property
    def indices(self):
        """Position/momentum labels of the subspace, in matrix-row order."""
        if self.parity is Parity.PLUS:
            return tuple(range(0, self.n + 1))
        return tuple(range(1, self.n))

    @property
    def time_rank(self):
        """Rank of the time-window projector: the number of labels j <= L."""
        return self.L + 1 if self.parity is Parity.PLUS else min(self.L, self.n - 1)

    @property
    def band_rank(self):
        """Rank of the band projector: the number of labels k <= K."""
        return self.K + 1 if self.parity is Parity.PLUS else min(self.K, self.n - 1)

    def row_of(self, j):
        """Matrix row of position/momentum label ``j``."""
        off = 0 if self.parity is Parity.PLUS else 1
        if j - off not in range(self.dim):
            raise DomainError(f"label {j} outside subspace indices {self.indices!r}")
        return j - off


def trig_s(p, x):
    """sin(pi*x/(2n)) for grid-unit argument x (real, complex, or array)."""
    return np.sin(np.pi * np.asarray(x) / (2 * p.n))[()]


def trig_c(p, x):
    """cos(pi*x/(2n)) for grid-unit argument x (real, complex, or array)."""
    return np.cos(np.pi * np.asarray(x) / (2 * p.n))[()]


def grid_cos(p, ctx=None):
    """The function x -> cos(pi*x/(2n)) for integer grid-unit x, a scalar or
    an integer array.

    x is reduced mod 4n and read from a table over one period, so no trig
    call is made per entry and no argument grows with x.  With ``ctx=None``
    the table is ``trig_c`` at r = 0..4n-1, so an x in [0, 4n) gets the bits
    of ``trig_c``.  With an mpmath context it is cos(pi*r/(2n)), r = 0..n, in
    the context's precision, unfolded over the period by the exact
    symmetries cos(-y) = cos(y) and cos(pi - y) = -cos(y); an array x then
    gives an object array of the same shape.
    """
    n = p.n
    if ctx is None:
        period = trig_c(p, np.arange(4 * n))
    else:
        quarter = [ctx.cospi(ctx.mpf(r) / (2 * n)) for r in range(n + 1)]
        half = quarter + [-v for v in quarter[-2::-1]]
        period = np.array(half + half[-2:0:-1], dtype=object)

    def cos(x):
        return period[np.asarray(x) % (4 * n)]

    return cos


def rho(p, j, ctx=None):
    """Boundary weight: sqrt(2) at j in {0, n}, 1 inside, 0 at j in {-1, n+1}.

    ``j`` is a label or an integer array of labels; a label outside
    -1..n+1 raises.  ``ctx`` is an mpmath context for sqrt(2) in its
    precision, or ``None``; with a context an array gives an object array.
    """
    j = np.asarray(j)
    outside = (j < -1) | (j > p.n + 1)
    if outside.any():
        raise DomainError(f"rho undefined for j={j[outside].flat[0]} (n={p.n})")
    root2 = math.sqrt(2.0) if ctx is None else ctx.sqrt(2)
    table = np.full(p.n + 3, 1.0, dtype=float if ctx is None else object)
    table[0] = table[-1] = 0.0
    table[1] = table[-2] = root2
    return table[j + 1]


@dataclass
class SignalVector:
    """Coefficient vector in one tagged basis of a parity subspace."""

    coeffs: np.ndarray
    basis: BasisKind

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 1:
            raise DomainError("SignalVector coefficients must be one-dimensional")

    def norm(self):
        return float(np.linalg.norm(self.coeffs))


@dataclass
class DenseOperator:
    """Square complex matrix acting on one tagged basis.

    With ``hermitian=True`` the entries are checked against the adjoint at
    tolerance 1e-13 and then symmetrized, so downstream eigensolves never see
    accumulated asymmetry.
    """

    entries: np.ndarray
    basis: BasisKind
    hermitian: bool = False

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise DomainError("DenseOperator entries must be a square matrix")
        if self.hermitian:
            drift = np.max(np.abs(self.entries - self.entries.conj().T)) if self.entries.size else 0.0
            if drift > HERMITICITY_TOL:
                raise DomainError(f"hermitian flag set but ||M - M^dag||_max = {drift:.3e}")
            self.entries = 0.5 * (self.entries + self.entries.conj().T)

    @property
    def dim(self):
        return self.entries.shape[0]

    def _check(self, other):
        if self.basis is not other.basis:
            raise BasisMismatchError(f"{self.basis.value} vs {other.basis.value}")

    def __matmul__(self, other):
        if isinstance(other, DenseOperator):
            self._check(other)
            return DenseOperator(self.entries @ other.entries, self.basis)
        if isinstance(other, SignalVector):
            if self.basis is not other.basis:
                raise BasisMismatchError(f"{self.basis.value} vs {other.basis.value}")
            return SignalVector(self.entries @ other.coeffs, self.basis)
        return NotImplemented


@dataclass
class TridiagonalOperator:
    """Real symmetric tridiagonal operator in one tagged basis.

    The subdiagonal equals the superdiagonal by construction, so only one
    off-diagonal vector is stored.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    basis: BasisKind

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        self.offdiag = np.asarray(self.offdiag, dtype=float)
        if self.offdiag.size != max(self.diag.size - 1, 0):
            raise DomainError("offdiag must have length dim - 1")

    @property
    def dim(self):
        return self.diag.size

    def to_dense(self):
        m = np.diag(self.diag.astype(complex))
        if self.dim > 1:
            m += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return DenseOperator(m, self.basis, hermitian=True)

    def block(self, size):
        """Leading principal block as a new operator."""
        return TridiagonalOperator(self.diag[:size], self.offdiag[: max(size - 1, 0)], self.basis)


def _position_support(p):
    """Where the position basis vectors live: for each row, the ambient
    points j and (2n - j) mod 2n and the values taken there (these coincide
    at j = 0 and j = n, where the two values add)."""
    js = np.array(p.indices)
    mirror = (2 * p.n - js) % (2 * p.n)
    if p.parity is Parity.PLUS:
        value = 1.0 / (rho(p, js) * math.sqrt(2.0))
        return js, mirror, value, value
    value = np.full(js.size, 1.0 / math.sqrt(2.0))
    return js, mirror, value, -value


def position_basis(p):
    """Rows = ambient values of the position basis vectors, in index order.

    Each row r is the function (delta_j +/- delta_{2n-j}) normalized to unit
    norm, for j = indices[r]; parity symmetry f(j) = +/- f(2n-j) holds
    entrywise.
    """
    js, mirror, value, mirror_value = _position_support(p)
    rows = np.zeros((p.dim, 2 * p.n))
    r = np.arange(p.dim)
    rows[r, js] += value
    rows[r, mirror] += mirror_value
    return rows


def momentum_basis(p):
    """Rows = ambient values of the momentum basis vectors, in index order.

    Row k is cos(pi*k*x/n) / (rho(k) sqrt(n)) or sin(pi*k*x/n) / sqrt(n),
    read from ``grid_cos`` at 2kx or 2kx - n.  The antisymmetric k = 0 and
    k = n vectors are identically zero and are excluded, so the returned
    family is genuinely orthonormal.
    """
    cos = grid_cos(p)
    x = np.arange(2 * p.n)
    ks = np.array(p.indices)[:, None]
    if p.parity is Parity.PLUS:
        return cos(2 * ks * x) / (rho(p, ks) * math.sqrt(p.n))
    return cos(2 * ks * x - p.n) / math.sqrt(p.n)


def fourier_block(p, ks, js, ctx=None, cos=None):
    """Real block of the Fourier matrix: rows momentum labels ``ks``, columns
    position labels ``js``.

    Entry (k, j) is the overlap of momentum vector k with position vector j:
    sqrt(2/n) * cos(pi*k*j/n) / (rho(k)*rho(j)) on the symmetric subspace and
    sqrt(2/n) * sin(pi*k*j/n) on the antisymmetric one, cos(pi*k*j/n) read
    from ``grid_cos`` at 2kj and sin(pi*k*j/n) at 2kj - n.  With an mpmath
    context the block is an object array of mpf.  ``cos`` is
    ``grid_cos(p, ctx)``, built here when not given.
    """
    ks = np.array(ks, dtype=int)[:, None]
    js = np.array(js, dtype=int)
    cos = grid_cos(p, ctx) if cos is None else cos
    scale = math.sqrt(2.0 / p.n) if ctx is None else ctx.sqrt(ctx.mpf(2) / p.n)
    # the array comes first: an mpf on the left would first try, and fail,
    # to convert the whole array, formatting it for the error
    if p.parity is Parity.PLUS:
        return cos(2 * ks * js) * scale / (rho(p, ks, ctx) * rho(p, js, ctx))
    return cos(2 * ks * js - p.n) * scale


def band_window_block(p, ctx=None, cos=None):
    """Band x window block E of the Fourier matrix (band rank x window rank).

    Labels ascend, so the band rows and the window columns are prefixes of
    the subspace labels.  On the window the time-band operator is E^T E.
    ``ctx`` and ``cos`` are passed to ``fourier_block``.
    """
    labels = p.indices
    return fourier_block(p, labels[: p.band_rank], labels[: p.time_rank], ctx, cos)


def fourier_matrix(p):
    """Unitary change of basis from position to momentum coordinates.

    Entries are those of ``fourier_block`` over all labels.  The matrix is
    real, symmetric, and involutive.  Rows are tagged momentum, columns
    position; the operator is returned in the position tag of its columns.
    """
    return DenseOperator(fourier_block(p, p.indices, p.indices), position_kind(p.parity),
                         hermitian=True)


def grid_values(sv, p):
    """Expand a tagged coefficient vector to ambient values on {0..2n-1}.

    A position vector is scattered onto its two support points per row; a
    momentum vector is summed over the dense momentum basis.
    """
    if sv.basis.parity is not p.parity:
        raise BasisMismatchError("signal parity does not match params parity")
    if not sv.basis.is_position:
        return sv.coeffs @ momentum_basis(p)
    js, mirror, value, mirror_value = _position_support(p)
    out = np.zeros(2 * p.n, dtype=complex)
    out[js] = sv.coeffs * value
    out[mirror] += sv.coeffs * mirror_value
    return out


def coefficients_of(values, p, kind):
    """Project ambient values onto a tagged basis (adjoint of grid_values).

    Position coefficients gather the two support points of each row.
    """
    if kind.parity is not p.parity:
        raise BasisMismatchError("basis parity does not match params parity")
    values = np.asarray(values, dtype=complex)
    if not kind.is_position:
        return SignalVector(momentum_basis(p) @ values, kind)
    js, mirror, value, mirror_value = _position_support(p)
    return SignalVector(value * values[js] + mirror_value * values[mirror], kind)
