import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tblim.core_model import (
    DenseOperator,
    ModelParams,
    Parity,
    SignalVector,
    momentum_basis,
    momentum_kind,
    position_basis,
    position_kind,
)
from tblim.errors import BasisMismatchError, DomainError
from tblim.operators import (
    check_askey_wilson,
    commutator_norm,
    concentration_ratio,
    heun_coefficients,
    heun_general,
    heun_tb,
    heun_tb_momentum,
    leonard_pair,
    projector_band,
    projector_time,
    tb_operator,
    to_momentum_basis,
)
from tblim.spectral import eig_sym_dense


def mx(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def make(n, K, L, parity):
    return ModelParams(n=n, K=K, L=L, parity=parity)


def admissible(n):
    for parity in (Parity.PLUS, Parity.MINUS):
        for K in range(n + 1):
            for L in range(n + 1):
                yield make(n, K, L, parity)


class TestProjectors:
    def test_full_window_is_identity(self):
        p = make(5, 2, 5, Parity.PLUS)
        assert mx(projector_time(p).entries - np.eye(6)) == 0.0

    def test_full_band_is_identity(self):
        p = make(5, 5, 2, Parity.PLUS)
        assert mx(projector_band(p).entries - np.eye(6)) < 1e-13

    def test_minus_window_diagonal(self):
        p = make(4, 1, 2, Parity.MINUS)
        assert np.allclose(np.diag(projector_time(p).entries).real, [1, 1, 0])

    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(2, 20), data=st.data())
    def test_idempotence(self, n, data):
        K = data.draw(st.integers(0, n))
        L = data.draw(st.integers(0, n))
        parity = data.draw(st.sampled_from([Parity.PLUS, Parity.MINUS]))
        p = make(n, K, L, parity)
        for proj in (projector_time(p).entries, projector_band(p).entries):
            assert mx(proj @ proj - proj) < 1e-14

    def test_band_rank_one_outer_product(self):
        p = make(4, 1, 2, Parity.MINUS)
        pos = position_basis(p)
        mom = momentum_basis(p)
        theta1 = mom[0] @ pos.T  # momentum vector 1 in position coordinates
        assert mx(projector_band(p).entries - np.outer(theta1, theta1)) < 1e-13

    def test_ranks(self):
        p = make(6, 2, 3, Parity.MINUS)
        assert round(np.trace(projector_time(p).entries).real) == 3
        assert round(np.trace(projector_band(p).entries).real) == 2


class TestTbOperator:
    def test_full_band_reduces_to_window(self):
        p = make(5, 5, 3, Parity.PLUS)
        assert mx(tb_operator(p).entries - projector_time(p).entries) < 1e-13

    def test_spectrum_in_unit_interval(self):
        p = make(7, 3, 4, Parity.MINUS)
        vals = eig_sym_dense(tb_operator(p)).values
        assert vals.min() > -1e-12 and vals.max() < 1 + 1e-12

    def test_matches_ambient_brute_force(self):
        # triple product of projectors assembled from ambient outer products
        p = make(4, 2, 2, Parity.MINUS)
        pos = position_basis(p)
        mom = momentum_basis(p)
        p1_amb = sum(np.outer(pos[r], pos[r]) for r, j in enumerate(p.indices) if j <= p.L)
        p2_amb = sum(np.outer(mom[r], mom[r]) for r, k in enumerate(p.indices) if k <= p.K)
        q_amb = p1_amb @ p2_amb @ p1_amb
        q = tb_operator(p).entries
        lifted = pos.T @ q.real @ pos
        assert mx(q_amb - lifted) < 1e-13


class TestLeonardPair:
    def test_minus_n3_matrices(self):
        a, astar = leonard_pair(make(3, 0, 0, Parity.MINUS))
        assert np.allclose(a.to_dense().entries, [[0, 1], [1, 0]])
        assert np.allclose(astar.to_dense().entries, np.diag([1.0, -1.0]))

    def test_minus_n3_hopping_spectrum(self):
        p = make(3, 0, 0, Parity.MINUS)
        a, _ = leonard_pair(p)
        vals = eig_sym_dense(a.to_dense()).values
        assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_plus_boundary_weight(self):
        a, _ = leonard_pair(make(4, 0, 0, Parity.PLUS))
        assert a.offdiag[0] == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("n", [3, 6, 17])
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_duality_under_fourier(self, n, parity):
        p = make(n, 0, 0, parity)
        a, astar = leonard_pair(p)
        a_mom = to_momentum_basis(a.to_dense(), p)
        astar_mom = to_momentum_basis(astar.to_dense(), p)
        assert mx(a_mom.entries - astar.to_dense().entries) < 1e-12
        assert mx(astar_mom.entries - a.to_dense().entries) < 1e-12


class TestHeun:
    def test_general_identity_component(self):
        p = make(5, 2, 3, Parity.PLUS)
        a, astar = leonard_pair(p)
        t = heun_general(a, astar, 0, 0, 0, 0, 1.0)
        assert mx(t.entries - np.eye(p.dim)) == 0.0

    def test_general_self_commutator_vanishes(self):
        p = make(5, 2, 3, Parity.PLUS)
        a, _ = leonard_pair(p)
        t = heun_general(a, a, 0, 1.0, 0, 0, 0)
        assert mx(t.entries) == 0.0

    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_specific_matches_general(self, parity):
        from tblim.core_model import trig_c

        p = make(6, 2, 3, parity)
        a, astar = leonard_pair(p)
        t = heun_general(a, astar, 1.0 / (4 * trig_c(p, 1)), 0.0,
                         -trig_c(p, 2 * p.K + 1), -trig_c(p, 2 * p.L + 1), 0.0)
        assert mx(t.entries - heun_tb(p).to_dense().entries) < 1e-13

    def test_diagonal_coefficient_value(self):
        # b at position 1 is -2 cos(3 pi / 8) cos(pi / 4) for n=4, K=1
        p = make(4, 1, 2, Parity.MINUS)
        _, b, _ = heun_coefficients(p)
        want = -2.0 * math.cos(3 * math.pi / 8) * math.cos(math.pi / 4)
        assert b(1) == pytest.approx(want, abs=1e-15)

    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(2, 16), data=st.data())
    def test_window_edge_coefficient_vanishes(self, n, data):
        K = data.draw(st.integers(0, n))
        L = data.draw(st.integers(0, n))
        parity = data.draw(st.sampled_from([Parity.PLUS, Parity.MINUS]))
        p = make(n, K, L, parity)
        _, _, c = heun_coefficients(p)
        assert c(L) == 0.0

    def test_block_decoupling_is_exact(self):
        p = make(9, 3, 4, Parity.MINUS)
        t = heun_tb(p)
        cut = p.time_rank
        assert t.offdiag[cut - 1] == 0.0

    def test_momentum_mirror_coefficient(self):
        p = make(4, 2, 1, Parity.MINUS)
        _, b, _ = heun_coefficients(p, "momentum")
        want = -2.0 * math.cos(3 * math.pi / 8) * math.cos(math.pi / 4)
        assert b(1) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("n", [3, 8, 33, 64])
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_momentum_form_is_fourier_conjugate(self, n, parity):
        p = make(n, n // 3, n // 2, parity)
        t_pos = heun_tb(p).to_dense()
        t_mom = heun_tb_momentum(p).to_dense().entries
        assert mx(to_momentum_basis(t_pos, p).entries - t_mom) < 1e-12

    def test_dimension_mismatch_rejected(self):
        a, astar = leonard_pair(make(5, 2, 3, Parity.PLUS))
        b, _ = leonard_pair(make(5, 2, 3, Parity.MINUS))
        with pytest.raises((DomainError, BasisMismatchError)):
            heun_general(a, b, 1, 0, 0, 0, 0)


class TestCommutation:
    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_heun_commutes_with_limiting_operators(self, n):
        for p in admissible(n):
            t = heun_tb(p).to_dense()
            assert commutator_norm(t, projector_time(p)) < 1e-12
            assert commutator_norm(t, projector_band(p)) < 1e-12
            assert commutator_norm(t, tb_operator(p)) < 1e-12


class TestAskeyWilson:
    @pytest.mark.parametrize("n", [3, 8, 128])
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_relations_hold(self, n, parity):
        r1, r2 = check_askey_wilson(make(n, 0, 0, parity))
        assert r1 < 1e-12 and r2 < 1e-12

    def test_one_dimensional_space_trivial(self):
        # every term carries a factor of cos(pi/2), zero up to float rounding
        r1, r2 = check_askey_wilson(make(2, 0, 0, Parity.MINUS))
        assert r1 < 1e-15 and r2 < 1e-15


class TestConcentrationRatio:
    def test_top_mode_attains_maximum(self):
        p = make(6, 2, 3, Parity.MINUS)
        spec = eig_sym_dense(tb_operator(p))
        v = SignalVector(spec.vectors[:, -1], position_kind(Parity.MINUS))
        got = concentration_ratio(v, p)
        assert got == pytest.approx(math.sqrt(spec.values[-1]), abs=1e-10)

    def test_full_band_ratio_is_one(self):
        p = make(5, 5, 3, Parity.PLUS)
        v = SignalVector(np.eye(p.dim)[0], position_kind(Parity.PLUS))
        assert concentration_ratio(v, p) == pytest.approx(1.0, abs=1e-12)

    def test_random_window_signals_bounded_by_max(self):
        p = make(8, 3, 4, Parity.PLUS)
        qmax = eig_sym_dense(tb_operator(p)).values[-1]
        proj = projector_time(p).entries
        rng = np.random.default_rng(1)
        for _ in range(100):
            raw = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
            v = SignalVector(proj @ raw, position_kind(Parity.PLUS))
            assert concentration_ratio(v, p) <= math.sqrt(qmax) + 1e-10

    def test_zero_signal_rejected(self):
        p = make(5, 2, 3, Parity.PLUS)
        with pytest.raises(DomainError):
            concentration_ratio(SignalVector(np.zeros(6), position_kind(Parity.PLUS)), p)

    def test_window_violation_rejected(self):
        p = make(5, 2, 1, Parity.PLUS)
        v = SignalVector(np.ones(6), position_kind(Parity.PLUS))
        with pytest.raises(DomainError):
            concentration_ratio(v, p)


class TestBasisDiscipline:
    def test_mixed_basis_product_rejected(self):
        p = make(5, 2, 3, Parity.PLUS)
        band = DenseOperator(np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), momentum_kind(p.parity))
        with pytest.raises(BasisMismatchError):
            projector_time(p) @ band


class TestHeunCoefficientsContext:
    @pytest.mark.parametrize("side", ["position", "momentum"])
    def test_mpmath_matches_double(self, side):
        import mpmath

        for p in (make(9, 3, 5, Parity.PLUS), make(9, 3, 5, Parity.MINUS),
                  make(16, 16, 0, Parity.PLUS)):
            dbl = heun_coefficients(p, side)
            with mpmath.workdps(50):
                hp = heun_coefficients(p, side, mpmath.mp)
                for j in p.indices:
                    for f_dbl, f_hp in zip(dbl, hp):
                        assert abs(f_hp(j) - f_dbl(j)) < 1e-14
                edge = p.L + 1 if side == "position" else p.K + 1
                assert hp[0](edge) == 0


def scalar_heun_rows(p, side):
    """Diagonal and off-diagonal of the Heun operator from the scalar
    formula, one numpy cosine per label: the reference for the array
    builder.  Side "leonard" gives the diagonal of A* and the off-diagonal
    of A."""
    kk, ll = (p.K, p.L) if side == "position" else (p.L, p.K)
    n = p.n

    def cos(x):
        return np.cos(np.pi * x / (2 * n))

    def weight(j):
        if p.parity is Parity.MINUS:
            return 1.0
        if j in (0, n):
            return math.sqrt(2.0)
        return 1.0 if 1 <= j <= n - 1 else 0.0

    if side == "leonard":
        return (np.array([2.0 * cos(2 * j) for j in p.indices], dtype=float),
                np.array([weight(j) * weight(j + 1) for j in p.indices[:-1]], dtype=float))
    cos_k, cos_l = cos(2 * kk + 1), cos(2 * ll + 1)
    diag = [-2.0 * cos_k * cos(2 * j) for j in p.indices]
    off = [weight(j) * weight(j + 1) * (cos(2 * j + 1) - cos_l) for j in p.indices[:-1]]
    return np.array(diag, dtype=float), np.array(off, dtype=float)


def array_rows(p, side):
    if side == "leonard":
        a, astar = leonard_pair(p)
        return astar.diag, a.offdiag
    t = heun_tb(p) if side == "position" else heun_tb_momentum(p)
    return t.diag, t.offdiag


class TestHeunCoefficientArrays:
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    @pytest.mark.parametrize("side", ["position", "momentum", "leonard"])
    def test_double_bitwise_equal_to_scalar_formula(self, parity, side):
        # the diagonal reads only the band limit of its side and the
        # off-diagonal only the window limit, so (K, L) = (x, n - x) covers
        # every value of each
        for n in range(1 if parity is Parity.PLUS else 2, 65):
            for x in range(n + 1):
                p = make(n, x, n - x, parity)
                got_diag, got_off = array_rows(p, side)
                diag, off = scalar_heun_rows(p, side)
                assert got_diag.tobytes() == diag.tobytes(), (n, x)
                assert got_off.tobytes() == off.tobytes(), (n, x)
