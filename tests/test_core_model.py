import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tblim.core_model import (
    BasisKind,
    ModelParams,
    Parity,
    SignalVector,
    coefficients_of,
    fourier_matrix,
    grid_values,
    momentum_basis,
    position_basis,
    position_kind,
    rho,
    trig_c,
    trig_s,
)
from tblim.errors import DomainError


def mx(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def make(n, K, L, parity):
    return ModelParams(n=n, K=K, L=L, parity=parity)


class TestModelParams:
    def test_dimensions(self):
        assert make(5, 2, 3, Parity.PLUS).dim == 6
        assert make(5, 2, 3, Parity.MINUS).dim == 4

    def test_rejects_bad_limits(self):
        with pytest.raises(DomainError):
            make(4, 5, 2, Parity.PLUS)
        with pytest.raises(DomainError):
            make(4, 2, -1, Parity.PLUS)
        with pytest.raises(DomainError):
            make(1, 0, 0, Parity.MINUS)
        with pytest.raises(DomainError):
            make(0, 0, 0, Parity.PLUS)

    def test_accepts_numpy_integers_as_plain_int(self):
        p = make(np.int64(8), np.int32(2), np.uint8(3), Parity.PLUS)
        assert p == make(8, 2, 3, Parity.PLUS)
        assert all(type(v) is int for v in (p.n, p.K, p.L))

    @pytest.mark.parametrize("n,K,L", [(8, 2.5, 3), (8, 2, 3.0), (8.0, 2, 3), (8, True, 3)])
    def test_rejects_non_integral_limits(self, n, K, L):
        with pytest.raises(DomainError):
            make(n, K, L, Parity.PLUS)

    def test_ranks(self):
        p = make(4, 1, 2, Parity.MINUS)
        assert p.time_rank == 2  # positions 1, 2
        assert p.band_rank == 1  # momentum 1

    def test_rank_closed_forms_count_labels(self):
        # time_rank reads only L and band_rank only K, so K = L = x covers
        # every value of each
        for n in range(1, 65):
            for parity in (Parity.PLUS, Parity.MINUS) if n >= 2 else (Parity.PLUS,):
                for x in range(n + 1):
                    p = make(n, x, x, parity)
                    assert p.time_rank == sum(1 for j in p.indices if j <= p.L)
                    assert p.band_rank == sum(1 for k in p.indices if k <= p.K)


class TestTrig:
    def test_s_quarter_period(self):
        p = make(2, 0, 0, Parity.PLUS)
        assert trig_s(p, 2) == pytest.approx(1.0)

    def test_s_zero(self):
        p = make(7, 0, 0, Parity.PLUS)
        assert trig_s(p, 0) == 0.0

    def test_s_periodic_zero(self):
        p = make(4, 0, 0, Parity.PLUS)
        assert abs(trig_s(p, 2 * 4)) < 1e-15

    def test_c_values(self):
        p = make(3, 0, 0, Parity.PLUS)
        assert trig_c(p, 0) == 1.0
        assert abs(trig_c(p, 3)) < 1e-15
        assert trig_c(p, 2) == pytest.approx(0.5)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 40),
        re=st.floats(-50, 50),
        im=st.floats(-3, 3),
    )
    def test_pythagoras_on_complex_grid(self, n, re, im):
        p = make(n, 0, 0, Parity.PLUS)
        z = complex(re, im)
        val = trig_s(p, z) ** 2 + trig_c(p, z) ** 2
        assert abs(val - 1.0) < 1e-12 * max(1.0, abs(trig_s(p, z)) ** 2)

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 30), x=st.floats(-20, 20))
    def test_parity_and_periodicity(self, n, x):
        p = make(n, 0, 0, Parity.PLUS)
        assert trig_s(p, -x) == pytest.approx(-trig_s(p, x), abs=1e-14)
        assert trig_c(p, -x) == pytest.approx(trig_c(p, x), abs=1e-14)
        assert trig_s(p, x + 4 * n) == pytest.approx(trig_s(p, x), abs=1e-12)


class TestRho:
    def test_boundary_and_interior(self):
        p = make(5, 0, 0, Parity.PLUS)
        assert rho(p, 0) == pytest.approx(math.sqrt(2))
        assert rho(p, 5) == pytest.approx(math.sqrt(2))
        assert rho(p, 3) == 1.0

    def test_conventional_zeros(self):
        p = make(5, 0, 0, Parity.PLUS)
        assert rho(p, -1) == 0.0
        assert rho(p, 6) == 0.0

    def test_out_of_range(self):
        p = make(5, 0, 0, Parity.PLUS)
        with pytest.raises(DomainError):
            rho(p, 7)
        with pytest.raises(DomainError):
            rho(p, -2)

    @pytest.mark.parametrize("labels", [[0, 3, 7], [-2, 0, 1], [[1, 2], [6, 8]]])
    def test_array_with_out_of_range_label_raises(self, labels):
        import mpmath

        p = make(5, 0, 0, Parity.PLUS)
        for ctx in (None, mpmath.mp):
            with pytest.raises(DomainError):
                rho(p, np.array(labels), ctx)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_array_matches_scalar(self, n):
        import mpmath

        p = make(n, 0, 0, Parity.PLUS)
        js = np.arange(-1, n + 2)
        assert rho(p, js).tolist() == [rho(p, int(j)) for j in js]
        with mpmath.workdps(30):
            assert list(rho(p, js, mpmath.mp)) == [rho(p, int(j), mpmath.mp) for j in js]


class TestBases:
    def test_position_plus_delta_at_origin(self):
        p = make(2, 0, 0, Parity.PLUS)
        rows = position_basis(p)
        assert np.allclose(rows[0], [1.0, 0.0, 0.0, 0.0])

    def test_position_minus_small(self):
        p = make(2, 0, 0, Parity.MINUS)
        rows = position_basis(p)
        assert np.allclose(rows[0], np.array([0.0, 1.0, 0.0, -1.0]) / math.sqrt(2))

    def test_momentum_minus_small(self):
        # sin(pi*x/2)/sqrt(2) at x = 0..3
        p = make(2, 0, 0, Parity.MINUS)
        rows = momentum_basis(p)
        assert np.allclose(rows[0], np.array([0.0, 1.0, 0.0, -1.0]) / math.sqrt(2))

    def test_momentum_plus_constant_mode(self):
        p = make(3, 0, 0, Parity.PLUS)
        rows = momentum_basis(p)
        assert np.allclose(rows[0], np.full(6, 1.0 / math.sqrt(6)))

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64, 256])
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_orthonormality(self, n, parity):
        p = make(n, 0, 0, parity)
        for rows in (position_basis(p), momentum_basis(p)):
            assert mx(rows @ rows.T - np.eye(p.dim)) < 1e-13

    @settings(deadline=None, max_examples=25)
    @given(n=st.integers(2, 40), plus=st.booleans())
    def test_parity_symmetry_entrywise(self, n, plus):
        p = make(n, 0, 0, Parity.PLUS if plus else Parity.MINUS)
        sign = 1.0 if plus else -1.0
        for rows in (position_basis(p), momentum_basis(p)):
            reflected = np.concatenate([rows[:, :1], rows[:, :0:-1]], axis=1)
            assert mx(rows - sign * reflected) < 1e-13


class TestFourier:
    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_unitarity(self, n, parity):
        f = fourier_matrix(make(n, 0, 0, parity)).entries
        assert mx(f.conj().T @ f - np.eye(f.shape[0])) < 1e-13

    def test_minus_one_dimensional(self):
        f = fourier_matrix(make(2, 0, 0, Parity.MINUS)).entries
        assert f.shape == (1, 1)
        assert f[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [4, 7, 12])
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_matches_brute_force_inner_products(self, n, parity):
        p = make(n, 0, 0, parity)
        f = fourier_matrix(p).entries
        gram = momentum_basis(p) @ position_basis(p).T
        assert mx(f - gram) < 1e-13

    def test_plus_corner_entry(self):
        p = make(4, 0, 0, Parity.PLUS)
        f = fourier_matrix(p).entries
        want = math.sqrt(2.0 / 4.0) / (math.sqrt(2) * math.sqrt(2))
        assert f[0, 0] == pytest.approx(want)


class TestGridRoundTrip:
    def test_coefficients_invert_expansion(self):
        p = make(5, 0, 0, Parity.MINUS)
        rng = np.random.default_rng(0)
        sv = SignalVector(rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim),
                          position_kind(Parity.MINUS))
        back = coefficients_of(grid_values(sv, p), p, position_kind(Parity.MINUS))
        assert mx(back.coeffs - sv.coeffs) < 1e-13

    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_position_gather_scatter_matches_dense_basis(self, parity):
        rng = np.random.default_rng(3)
        for n in (2, 3, 8, 33):
            p = make(n, 0, 0, parity)
            rows = position_basis(p)
            kind = position_kind(parity)
            coeffs = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
            values = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
            assert mx(grid_values(SignalVector(coeffs, kind), p) - coeffs @ rows) < 1e-15
            assert mx(coefficients_of(values, p, kind).coeffs - rows @ values) < 1e-15


class TestNumericContext:
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_mpmath_block_matches_double(self, parity):
        import mpmath

        from tblim.core_model import band_window_block, grid_cos

        for n, K, L in ((7, 3, 5), (16, 16, 9), (12, 0, 11), (64, 64, 64), (1024, 1024, 6)):
            p = make(n, K, L, parity)
            with mpmath.workdps(40):
                block = band_window_block(p, mpmath.mp)
                cos = grid_cos(p, mpmath.mp)
                for x in range(-5 * n, 5 * n):
                    assert abs(cos(x) - mpmath.cos(mpmath.pi * x / (2 * n))) < 1e-38
            dense = np.array(block, dtype=float).reshape(p.band_rank, p.time_rank)
            assert mx(dense - band_window_block(p)) < 4e-16


class TestGridCosArrays:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_array_matches_scalar(self, n):
        import mpmath

        from tblim.core_model import grid_cos

        p = make(n, 0, 0, Parity.PLUS)
        xs = np.arange(-5 * n, 5 * n + 1)
        cos = grid_cos(p)
        assert cos(xs).tobytes() == np.array([cos(int(x)) for x in xs]).tobytes()
        with mpmath.workdps(40):
            cos = grid_cos(p, mpmath.mp)
            values = cos(xs)
            assert values.dtype == object and values.shape == xs.shape
            assert list(values) == [cos(int(x)) for x in xs]
            assert cos(xs[1:].reshape(2, -1)).tolist() == values[1:].reshape(2, -1).tolist()


def scalar_fold_cos(n, ctx):
    """cos(pi*x/(2n)) for one integer x from a table over 0..n folded by the
    symmetries of the cosine, one label at a time: the reference for the
    object-array builders."""
    table = [ctx.cospi(ctx.mpf(r) / (2 * n)) for r in range(n + 1)]

    def cos(x):
        r = int(x) % (4 * n)
        if r > 2 * n:
            r = 4 * n - r
        return table[r] if r <= n else -table[2 * n - r]

    return cos


def scalar_rho(n, j, ctx):
    if j in (0, n):
        return ctx.sqrt(2)
    return 1.0 if 1 <= j <= n - 1 else 0.0


class TestObjectArrayBuilders:
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    @pytest.mark.parametrize("n,K,L", [(7, 3, 5), (12, 12, 11), (16, 0, 16)])
    def test_fourier_block_equals_scalar_mpf(self, n, K, L, parity):
        import mpmath

        from tblim.core_model import band_window_block

        p = make(n, K, L, parity)
        labels = p.indices
        with mpmath.workdps(35):
            ctx = mpmath.mp
            block = band_window_block(p, ctx)
            cos = scalar_fold_cos(n, ctx)
            scale = ctx.sqrt(ctx.mpf(2) / n)
            if parity is Parity.PLUS:
                want = [[scale * cos(2 * k * j) / (scalar_rho(n, k, ctx) * scalar_rho(n, j, ctx))
                         for j in labels[: p.time_rank]] for k in labels[: p.band_rank]]
            else:
                want = [[scale * cos(2 * k * j - n) for j in labels[: p.time_rank]]
                        for k in labels[: p.band_rank]]
            assert block.shape == (p.band_rank, p.time_rank)
            assert block.tolist() == want

    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    @pytest.mark.parametrize("side", ["position", "momentum"])
    def test_heun_coefficients_equal_scalar_mpf(self, parity, side):
        import mpmath

        from tblim.operators import heun_coefficients

        for n, K, L in ((2, 1, 2), (9, 3, 5), (16, 16, 0), (23, 7, 22)):
            p = make(n, K, L, parity)
            kk, ll = (K, L) if side == "position" else (L, K)
            labels = np.array(p.indices)
            with mpmath.workdps(30):
                ctx = mpmath.mp
                a, b, c = heun_coefficients(p, side, ctx)
                cos = scalar_fold_cos(n, ctx)
                weight = (lambda j: scalar_rho(n, j, ctx)) if parity is Parity.PLUS \
                    else (lambda j: 1.0)
                cos_k, cos_l = cos(2 * kk + 1), cos(2 * ll + 1)
                assert list(b(labels)) == [-2.0 * cos_k * cos(2 * j) for j in p.indices]
                assert list(a(labels)) == [weight(j - 1) * weight(j) * (cos(2 * j - 1) - cos_l)
                                           for j in p.indices]
                assert list(c(labels)) == [weight(j) * weight(j + 1) * (cos(2 * j + 1) - cos_l)
                                           for j in p.indices]
