import numpy as np
import pytest

from tblim.core_model import (
    BasisKind,
    DenseOperator,
    ModelParams,
    Parity,
    TridiagonalOperator,
    fourier_matrix,
    position_kind,
)
from tblim.errors import DegeneracyError, DomainError
from tblim.operators import heun_tb, projector_time, tb_operator
from tblim.spectral import (
    eig_sym_dense,
    eig_sym_tridiag,
    eigvals_sym_tridiag,
    joint_spectra,
    joint_spectrum,
    svd_E,
)


def mx(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def make(n, K, L, parity):
    return ModelParams(n=n, K=K, L=L, parity=parity)


POS = BasisKind.POSITION_PLUS


class TestTridiagonalSolver:
    def test_diagonal_input(self):
        spec = eig_sym_tridiag(TridiagonalOperator([1.0, -1.0], [0.0], POS))
        assert np.allclose(spec.values, [-1.0, 1.0])

    def test_two_by_two_hopping(self):
        spec = eig_sym_tridiag(TridiagonalOperator([0.0, 0.0], [1.0], POS))
        assert np.allclose(spec.values, [-1.0, 1.0])
        v = spec.vectors
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-14)

    def test_orthonormal_vectors_and_residuals(self):
        rng = np.random.default_rng(2)
        t = TridiagonalOperator(rng.normal(size=12), rng.normal(size=11), POS)
        spec = eig_sym_tridiag(t)
        assert mx(spec.vectors.T @ spec.vectors - np.eye(12)) < 1e-11
        assert spec.residuals.max() < 1e-11
        assert np.all(np.diff(spec.values) >= 0)

    @pytest.mark.parametrize("n,K,L,parity", [(6, 2, 3, Parity.MINUS), (9, 4, 5, Parity.PLUS)])
    def test_matches_dense_oracle_on_heun(self, n, K, L, parity):
        p = make(n, K, L, parity)
        t = heun_tb(p)
        tri = eig_sym_tridiag(t)
        dense = eig_sym_dense(t.to_dense())
        assert mx(tri.values - dense.values) < 1e-11

    def test_empty_and_single(self):
        spec = eig_sym_tridiag(TridiagonalOperator(np.zeros(0), np.zeros(0), POS))
        assert len(spec) == 0
        spec = eig_sym_tridiag(TridiagonalOperator([3.0], np.zeros(0), POS))
        assert spec.values[0] == 3.0


def tridiag(d, e):
    return TridiagonalOperator(np.asarray(d, dtype=float), np.asarray(e, dtype=float), POS)


def dense_of(t):
    return np.diag(t.diag) + np.diag(t.offdiag, 1) + np.diag(t.offdiag, -1)


class TestBisectionSolver:
    """The Sturm-bisection solver against LAPACK's eigvalsh, to 1e-12 of the
    largest eigenvalue magnitude, with orthonormal vectors and small
    residuals."""

    def assert_matches_eigvalsh(self, t):
        spec = eig_sym_tridiag(t)
        assert np.array_equal(eigvals_sym_tridiag(t), spec.values)
        ref = np.linalg.eigvalsh(dense_of(t))
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert mx(spec.values - ref) < 1e-12 * scale
        assert mx(spec.vectors.T @ spec.vectors - np.eye(t.dim)) < 1e-12
        assert spec.residuals.max() < 1e-12 * scale
        resid = dense_of(t) @ spec.vectors - spec.vectors * spec.values
        assert mx(np.linalg.norm(resid, axis=0) - spec.residuals) < 1e-14 * scale
        return spec

    def test_random_200(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            self.assert_matches_eigvalsh(tridiag(rng.normal(size=200), rng.normal(size=199)))

    def test_graded_couplings(self):
        rng = np.random.default_rng(12)
        e = np.logspace(-8, 0, 149) * rng.choice([-1.0, 1.0], 149)
        self.assert_matches_eigvalsh(tridiag(rng.normal(size=150), e))
        self.assert_matches_eigvalsh(tridiag(np.zeros(150), e[::-1]))

    def test_wilkinson_top_pair_is_degenerate(self):
        # W21+: the top two eigenvalues agree to 7e-14 although the matrix is
        # unreduced, so the simplicity check rejects the spectrum
        w = tridiag(np.abs(np.arange(-10, 11)), np.ones(20))
        for solver in (eig_sym_tridiag, eigvals_sym_tridiag):
            with pytest.raises(DegeneracyError):
                solver(w)

    def test_exact_zero_couplings_give_block_diagonal_vectors(self):
        rng = np.random.default_rng(13)
        e = rng.normal(size=39)
        cuts = [4, 5, 17, 30]
        e[cuts] = 0.0
        spec = self.assert_matches_eigvalsh(tridiag(rng.normal(size=40), e))
        starts = [0] + [c + 1 for c in cuts] + [40]
        block_of = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        for i in range(40):
            support = np.flatnonzero(spec.vectors[:, i])
            assert np.unique(block_of[support]).size == 1

    def test_sizes_zero_and_one(self):
        spec = eig_sym_tridiag(tridiag([], []))
        assert spec.values.shape == (0,) and spec.vectors.shape == (0, 0)
        spec = eig_sym_tridiag(tridiag([-2.5], []))
        assert spec.values.tolist() == [-2.5]
        assert spec.vectors.tolist() == [[1.0]]
        assert spec.residuals.tolist() == [0.0]
        assert eigvals_sym_tridiag(tridiag([], [])).shape == (0,)
        assert eigvals_sym_tridiag(tridiag([-2.5], [])).tolist() == [-2.5]

    def test_calls_no_lapack_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eig_sym_tridiag called a LAPACK eigensolver")

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, refuse)
        t = heun_tb(make(96, 24, 8, Parity.PLUS))
        spec = eig_sym_tridiag(t)
        assert len(spec) == 97 and spec.residuals.max() < 1e-12
        assert np.array_equal(eigvals_sym_tridiag(t), spec.values)

    def test_rejects_a_dense_operator(self):
        dense = DenseOperator(np.eye(3), POS, hermitian=True)
        for solver in (eig_sym_tridiag, eigvals_sym_tridiag):
            with pytest.raises(DomainError):
                solver(dense)


class TestDenseSolver:
    def test_identity(self):
        spec = eig_sym_dense(DenseOperator(np.eye(4), POS, hermitian=True))
        assert np.allclose(spec.values, 1.0)

    def test_projector_spectrum(self):
        p = make(6, 2, 3, Parity.PLUS)
        spec = eig_sym_dense(projector_time(p))
        ones = int(np.sum(spec.values > 0.5))
        assert ones == p.time_rank
        assert np.allclose(np.sort(np.round(spec.values)), np.sort(spec.values), atol=1e-13)

    def test_requires_hermitian_flag(self):
        with pytest.raises(DomainError):
            eig_sym_dense(DenseOperator(np.eye(3), POS, hermitian=False))

    def test_tb_spectrum_unit_interval(self):
        spec = eig_sym_dense(tb_operator(make(6, 2, 3, Parity.MINUS)))
        assert spec.values.min() > -1e-12 and spec.values.max() < 1 + 1e-12


class TestSvd:
    def test_full_band_all_singular_values_one(self):
        p = make(5, 5, 3, Parity.PLUS)
        s = svd_E(p)
        assert int(np.sum(s > 1 - 1e-12)) == p.time_rank

    def test_values_in_unit_interval(self):
        s = svd_E(make(7, 3, 4, Parity.MINUS))
        assert s.min() > -1e-14 and s.max() < 1 + 1e-12

    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_squares_match_tb_spectrum(self, parity):
        cases = [(8, K, L) for K in range(9) for L in range(9)]
        if parity is Parity.MINUS:
            cases.append((2, 1, 1))
        for n, K, L in cases:
            p = make(n, K, L, parity)
            s = np.sort(svd_E(p) ** 2)
            q = np.sort(np.clip(eig_sym_dense(tb_operator(p)).values, 0, None))
            assert mx(s - q) < 1e-10

    @pytest.mark.parametrize("n,K,L,parity", [
        (8, 3, 5, Parity.PLUS), (8, 6, 2, Parity.MINUS), (8, 0, 4, Parity.PLUS),
        (8, 4, 0, Parity.MINUS), (2, 1, 1, Parity.MINUS),
    ])
    def test_padded_sigmas_match_block_svd(self, n, K, L, parity):
        p = make(n, K, L, parity)
        sigmas = svd_E(p)
        e = fourier_matrix(p).entries[: p.band_rank, : p.time_rank].real
        r = min(p.band_rank, p.time_rank)
        assert sigmas.size == p.dim
        assert np.all(sigmas[r:] == 0.0)
        want = np.linalg.svd(e, compute_uv=False) if e.size else np.zeros(0)
        assert mx(sigmas[:r] - want) < 1e-14


class TestJointSpectrum:
    def test_eigen_residuals(self):
        p = make(6, 2, 3, Parity.MINUS)
        q = tb_operator(p).entries
        for mode in joint_spectrum(p):
            v = mode.vector.coeffs
            assert np.linalg.norm(q @ v - mode.q * v) < 1e-10

    def test_trace_identity(self):
        p = make(8, 3, 4, Parity.PLUS)
        total = sum(m.q for m in joint_spectrum(p))
        assert total == pytest.approx(float(np.trace(tb_operator(p).entries).real), abs=1e-10)

    def test_t_values_subset_of_dense_spectrum(self):
        p = make(6, 2, 3, Parity.MINUS)
        dense_vals = eig_sym_dense(heun_tb(p).to_dense()).values
        for mode in joint_spectrum(p):
            assert np.min(np.abs(dense_vals - mode.t)) < 1e-10

    def test_sorted_descending_q(self):
        qs = [m.q for m in joint_spectrum(make(8, 3, 4, Parity.PLUS))]
        assert qs == sorted(qs, reverse=True)

    def test_padding_keeps_window_support(self):
        p = make(7, 2, 3, Parity.MINUS)
        cut = p.time_rank
        for mode in joint_spectrum(p):
            assert mx(mode.vector.coeffs[cut:]) == 0.0

    def test_empty_window(self):
        assert joint_spectrum(make(5, 2, 0, Parity.MINUS)) == []

    def test_mode_count(self):
        assert len(joint_spectrum(make(6, 2, 3, Parity.PLUS))) == 4
        assert len(joint_spectrum(make(6, 2, 3, Parity.MINUS))) == 3


class TestJointSpectrumOracles:
    """The LAPACK window-block route against the QL oracle (t) and the dense
    time-band operator (q), over every (K, L) of small n: the edges L = 0,
    L = n and K = 0, the pole cases n | 2L and near-full windows included."""

    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_ql_and_dense_oracles(self, n, parity):
        for L in range(n + 1):
            for K in range(n + 1):
                p = make(n, K, L, parity)
                dim = p.time_rank
                try:
                    modes = joint_spectrum(p)
                except DegeneracyError:
                    # a full symmetric window: the Heun block is not simple
                    assert parity is Parity.PLUS and L == n
                    continue
                assert len(modes) == dim
                if dim == 0:
                    continue
                t_ql = eig_sym_tridiag(heun_tb(p).block(dim)).values
                assert mx(np.sort([m.t for m in modes]) - t_ql) < 1e-11
                q_full = tb_operator(p).entries
                window = DenseOperator(q_full[:dim, :dim], position_kind(parity), hermitian=True)
                q_dense = eig_sym_dense(window).values
                assert mx(np.sort([m.q for m in modes]) - q_dense) < 1e-10
                for m in modes:  # each q belongs to its own t's vector
                    v = m.vector.coeffs
                    assert abs(np.vdot(v, q_full @ v).real - m.q) < 1e-10
                    assert np.linalg.norm(q_full @ v - m.q * v) < 1e-10


class TestJointSpectra:
    def test_stacks_equal_one_instance_calls_bitwise(self):
        # every (K, L) with n <= 12, both parities: a stack over all K at one
        # L against one call per instance, in values, vectors and messages
        for n in range(2, 13):
            for parity in Parity:
                for L in range(n + 1):
                    ps = [make(n, K, L, parity) for K in range(n + 1)]
                    stacked = joint_spectra(ps)
                    for k, p in enumerate(ps):
                        one = joint_spectra([p])
                        assert stacked[4][k] == one[4][0]
                        if one[4][0] is None:
                            for a, b in zip(stacked[:4], one[:4]):
                                assert a[k].tobytes() == b[0].tobytes()

    def test_joint_spectrum_reads_the_stack(self):
        p = make(10, 4, 6, Parity.PLUS)
        t, q, r, v, errors = joint_spectra([p])
        modes = joint_spectrum(p)
        assert errors == [None]
        assert [m.t for m in modes] == t[0].tolist() and [m.q for m in modes] == q[0].tolist()
        for mode, row in zip(modes, v[0]):
            assert np.array_equal(mode.vector.coeffs[:7], row)
            assert not np.any(mode.vector.coeffs[7:])
