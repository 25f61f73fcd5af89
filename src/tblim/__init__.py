"""Discrete time and band limiting toolkit.

Builds the limiting operators and their commuting algebraic Heun operators,
links the two spectra through an explicit polynomial, diagonalizes the Heun
operators both by direct tridiagonal eigensolvers and by numerically solving
Bethe equations, and solves the reconstruction problem by truncated singular
value expansion.
"""

from .bethe import (
    AnsatzVariant,
    BetheRootSet,
    BetheSolveResult,
    bethe_eigenvalue,
    bethe_residuals,
    bethe_state,
    check_reduction_formula,
    solve_bethe,
)
from .core_model import (
    BasisKind,
    DenseOperator,
    ModelParams,
    Parity,
    SignalVector,
    TridiagonalOperator,
    fourier_matrix,
    momentum_basis,
    position_basis,
    rho,
    trig_c,
    trig_s,
)
from .errors import (
    BasisMismatchError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    PoleError,
    SupportError,
    TblimError,
)
from .operators import (
    check_askey_wilson,
    concentration_ratio,
    heun_general,
    heun_tb,
    heun_tb_momentum,
    leonard_pair,
    projector_band,
    projector_time,
    tb_operator,
)
from .polymap import verify_Q_equals_piP
from .recon import (
    ObservedData,
    ReconstructionReport,
    Verdict,
    conditioning_report,
    forward_observe,
    reconstruct,
    reconstruct_signal,
)
from .spectral import (
    JointMode,
    Spectrum,
    eig_sym_dense,
    eig_sym_tridiag,
    eigvals_sym_tridiag,
    joint_spectrum,
    svd_E,
)

__version__ = "0.1.0"
