import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as C

import tblim.bethe as bethe
from tblim.bethe import (
    AnsatzVariant,
    _B_band,
    _band_product,
    _canonical,
    _D_band,
    _eigenvalue_profile,
    _q_coefficients,
    _q_seeds,
    _residuals,
    _roots_admissible,
    _u_samples,
    bethe_eigenvalue,
    bethe_residuals,
    bethe_slots,
    bethe_state,
    _pair_bands,
    canonicalize_roots,
    check_dynamical_relations,
    check_offshell_action,
    check_reduction_formula,
    check_T_decomposition,
    check_vacuum_action,
    delta_fn,
    f_fn,
    g_fn,
    solve_bethe,
)
from tblim.core_model import ModelParams, Parity, trig_c, trig_s
from tblim.errors import DomainError, PoleError, TblimError
from tblim.operators import leonard_pair, projector_time
from tblim.spectral import joint_spectrum


def mx(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def make(n, K, L, parity):
    return ModelParams(n=n, K=K, L=L, parity=parity)


def dense_of(band):
    """The matrix of a (3, dim) band or a (5, dim) pentadiagonal band."""
    mat = np.diag(band[0])
    for k, (upper, lower) in enumerate(zip(band[1::2], band[2::2]), start=1):
        mat = mat + np.diag(upper[:-k], k) + np.diag(lower[:-k], -k)
    return mat


class TestScalars:
    def test_delta_zeros(self):
        p = make(6, 2, 3, Parity.MINUS)
        assert abs(delta_fn(p, p.n - p.L + p.K + 0.5)) < 1e-15
        assert abs(delta_fn(p, p.n - p.L - p.K - 0.5)) < 1e-15

    def test_delta_at_origin(self):
        p = make(6, 2, 3, Parity.MINUS)
        want = trig_c(p, p.L - p.K - 0.5) * trig_c(p, p.L + p.K + 0.5)
        assert delta_fn(p, 0.0) == pytest.approx(want, abs=1e-16)

    @settings(deadline=None, max_examples=40)
    @given(re=st.floats(0.2, 5.0), im=st.floats(-0.7, 0.7), v=st.floats(0.3, 4.0))
    def test_f_even_in_second_argument(self, re, im, v):
        p = make(6, 2, 3, Parity.MINUS)
        u = complex(re, im)
        if abs(trig_s(p, u - v)) < 1e-3 or abs(trig_s(p, u + v)) < 1e-3:
            return
        assert f_fn(p, u, v) == pytest.approx(f_fn(p, u, -v), rel=1e-12)

    def test_f_vanishes_at_shifted_diagonal(self):
        p = make(8, 3, 4, Parity.MINUS)
        for u in (0.7, 1.3 + 0.2j, 2.9 - 0.4j):
            assert abs(f_fn(p, u, u - 1)) < 1e-14

    def test_f_pole_on_diagonal(self):
        p = make(8, 3, 4, Parity.MINUS)
        with pytest.raises(PoleError):
            f_fn(p, 1.1, 1.1)

    def test_g_matches_independent_coding(self):
        p = make(6, 2, 3, Parity.MINUS)
        u, v, m = 0.3 + 0.1j, 1.2, 4
        s = lambda x: np.sin(np.pi * x / (2 * p.n))
        want = s(1) * s(2 * v - 1) * s(2 * m + v - u) / (s(2 * m) * s(2 * u) * s(u - v))
        assert g_fn(p, u, v, m) == pytest.approx(want, rel=1e-14)


class TestDynamicalOperators:
    def test_bands_padded_by_zero_couplings(self):
        p = make(7, 3, 4, Parity.MINUS)
        for band in (_B_band(p, 0.3 + 0.4j, -4), _D_band(p, 0.3 + 0.4j, -4)):
            assert band.shape == (3, p.dim)
            assert not np.any(band[1:, -1])

    def test_zero_dynamical_parameter_rejected(self):
        p = make(6, 2, 3, Parity.PLUS)
        with pytest.raises(PoleError):
            _D_band(p, 0.3, 0)

    def test_degenerate_slot_rejected(self):
        p = make(6, 2, 3, Parity.MINUS)
        with pytest.raises(PoleError):
            _B_band(p, 0.3, -6)  # sin(pi m / n) = 0

    def test_window_edge_matrix_element_vanishes(self):
        p = make(8, 3, 4, Parity.MINUS)
        b = dense_of(_B_band(p, 0.77 + 0.3j, -p.L - 1))
        # row of position L+1, column of position L
        assert abs(b[p.row_of(p.L + 1), p.row_of(p.L)]) < 1e-13

    @pytest.mark.parametrize(
        "n,K,L,parity,u,v,m",
        [
            (6, 2, 3, Parity.MINUS, 0.37, 1.21, 3),
            (6, 2, 3, Parity.PLUS, 0.2 + 0.3j, 0.9 - 0.1j, -4),
            (8, 3, 4, Parity.MINUS, 0.61 - 0.22j, 1.47 + 0.31j, 3),
        ],
    )
    def test_exchange_relations(self, n, K, L, parity, u, v, m):
        p = make(n, K, L, parity)
        r_bb, r_db = check_dynamical_relations(p, u, v, m)
        assert r_bb < 1e-10
        assert r_db < 1e-9

    def test_exchange_symmetric_in_swap(self):
        p = make(6, 2, 3, Parity.MINUS)
        r1, _ = check_dynamical_relations(p, 0.37, 1.21, 3)
        r2, _ = check_dynamical_relations(p, 1.21, 0.37, 3)
        assert r1 == pytest.approx(r2, abs=1e-12)


class TestBandProduct:
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_equals_dense_product(self, parity):
        rng = np.random.default_rng(23)
        for n in range(2, 41):
            p = make(n, 1, 1, parity)
            ms = [k for k in range(-2 * n, 2 * n)
                  if abs(trig_s(p, 2 * k)) > 1e-9 and abs(trig_s(p, 2 * k - 2)) > 1e-9]
            for _ in range(2 if ms else 0):
                u = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.4, 0.4))
                v = complex(rng.uniform(0.9, 1.7), rng.uniform(-0.3, 0.3))
                m = int(rng.choice(ms))
                noise = rng.normal(size=(2, 3, p.dim)) + 1j * rng.normal(size=(2, 3, p.dim))
                noise[:, 1:, -1] = 0.0
                for x, y in ((_B_band(p, u, m), _B_band(p, v, m - 1)),
                             (_D_band(p, u, m), _B_band(p, v, m)),
                             (_B_band(p, v, m), _D_band(p, u, m - 1)),
                             tuple(noise)):
                    got = _band_product(x, y)
                    assert got.shape == (5, p.dim)
                    assert not np.any(got[1:3, -1]) and not np.any(got[3:, -2:])
                    want = dense_of(x) @ dense_of(y)
                    assert mx(dense_of(got) - want) <= 1e-15 * mx(want)

    @pytest.mark.parametrize("n", [8, 32, 96, 256])
    @pytest.mark.parametrize("operator,row", [("B", 0), ("B", 1), ("D", 0), ("D", 2)])
    def test_perturbed_entry_fails(self, monkeypatch, n, operator, row):
        # a 1e-7 relative change in one entry of B(u, m) or D(u, m) must
        # break every relation it enters, far beyond the unchanged bounds and
        # the unperturbed residuals (at n = 256 the DB residual already
        # exceeds its bound without the change)
        p = make(n, n // 4, n // 2, Parity.PLUS)
        u, v, m = 0.43 + 0.2j, 1.31 - 0.1j, 3
        base = check_dynamical_relations(p, u, v, m)
        build = {"B": bethe._B_band, "D": bethe._D_band}[operator]

        def perturbed(p_, u_, m_, *args, **kwargs):
            band = build(p_, u_, m_, *args, **kwargs)
            if (u_, m_) == (u, m):
                band = band.copy()
                band[row, p.dim // 2] *= 1 + 1e-7
            return band

        monkeypatch.setattr(bethe, f"_{operator}_band", perturbed)
        r_bb, r_db = check_dynamical_relations(p, u, v, m)
        assert r_db > max(1e-9, 1e3 * base[1])
        if operator == "B":
            assert r_bb > max(1e-10, 1e3 * base[0])
        else:
            assert r_bb == base[0]


class TestHeunDecomposition:
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_residuals_small(self, parity):
        p = make(8, 3, 4, parity)
        r1, r2 = check_T_decomposition(p, 0.618)
        assert r1 < 1e-10 and r2 < 1e-10

    def test_residual_independent_of_u(self):
        p = make(8, 3, 4, Parity.MINUS)
        rs = [max(check_T_decomposition(p, u)) for u in (0.3, 0.71 + 0.2j, 1.9, 2.4 - 0.5j, 0.55j + 1.1)]
        assert max(rs) < 1e-9

    def test_pole_at_zero_spectral_parameter(self):
        p = make(8, 3, 4, Parity.MINUS)
        with pytest.raises(PoleError):
            check_T_decomposition(p, 0.0)


class TestVacuumAction:
    def test_minus_m_one_special_case(self):
        # at m = 1 the creation coefficient vanishes identically
        p = make(6, 2, 3, Parity.MINUS)
        assert trig_s(p, 0) == 0.0
        assert check_vacuum_action(p, 0.41, 1) < 1e-11

    def test_plus_generic(self):
        assert check_vacuum_action(make(6, 2, 3, Parity.PLUS), 0.41, 3) < 1e-11

    def test_minus_negative_parameter(self):
        assert check_vacuum_action(make(6, 2, 3, Parity.MINUS), 0.41, -5) < 1e-11

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            check_vacuum_action(make(6, 2, 3, Parity.MINUS), 0.41, -1)


class TestBetheStates:
    def test_slot_sequences(self):
        assert bethe_slots(AnsatzVariant.MINUS_FIRST, 4) == [4, 3, 2]
        assert bethe_slots(AnsatzVariant.MINUS_SECOND, 4) == [-5, -6, -7]
        assert bethe_slots(AnsatzVariant.PLUS, 3) == [-4, -5, -6]

    def test_empty_product_is_vacuum(self):
        p = make(6, 2, 1, Parity.MINUS)
        v = bethe_state(p, AnsatzVariant.MINUS_FIRST, np.zeros(0))
        want = np.zeros(p.dim)
        want[0] = 1.0
        assert mx(v.coeffs - want) == 0.0

    def test_wrong_root_count(self):
        p = make(6, 2, 3, Parity.MINUS)
        with pytest.raises(DomainError):
            bethe_state(p, AnsatzVariant.MINUS_FIRST, np.array([0.5]))

    @pytest.mark.parametrize("variant,n,K,L", [
        (AnsatzVariant.MINUS_FIRST, 8, 3, 4),
        (AnsatzVariant.MINUS_SECOND, 8, 3, 4),
        (AnsatzVariant.PLUS, 8, 3, 3),
    ])
    def test_window_containment(self, variant, n, K, L):
        p = make(n, K, L, variant.parity)
        rng = np.random.default_rng(5)
        proj = projector_time(p).entries
        for _ in range(4):
            roots = rng.normal(0.9, 0.4, variant.root_count(L)) + 1j * rng.normal(0, 0.3, variant.root_count(L))
            v = bethe_state(p, variant, roots).coeffs
            assert np.linalg.norm(proj @ v - v) < 1e-11 * max(1.0, np.linalg.norm(v))

    def test_permutation_invariance(self):
        p = make(8, 3, 4, Parity.MINUS)
        roots = np.array([0.8 + 0.2j, 1.7 - 0.1j, 2.6 + 0.3j])
        v1 = bethe_state(p, AnsatzVariant.MINUS_FIRST, roots).coeffs
        v2 = bethe_state(p, AnsatzVariant.MINUS_FIRST, roots[[1, 0, 2]]).coeffs
        assert mx(v1 - v2) < 1e-10 * np.linalg.norm(v1)

    def test_offshell_expansion(self):
        p = make(8, 3, 4, Parity.MINUS)
        rng = np.random.default_rng(7)
        roots = rng.normal(0.8, 0.4, 3) + 1j * rng.normal(0, 0.3, 3)
        assert check_offshell_action(p, 0.41 + 0.17j, roots) < 1e-9


class TestReductionFormula:
    @pytest.mark.parametrize("L", [2, 3])
    def test_generic_roots(self, L):
        p = make(8, 3, L, Parity.MINUS)
        rng = np.random.default_rng(11)
        ys = rng.normal(0.9, 0.5, L) + 1j * rng.normal(0, 0.25, L)
        assert check_reduction_formula(p, ys) < 1e-9

    def test_degenerate_final_slot_cleared_form(self):
        # n divides 2L: the closing slot and the prefactor share the same zero
        p = make(8, 3, 4, Parity.MINUS)
        rng = np.random.default_rng(13)
        ys = rng.normal(0.9, 0.5, 4) + 1j * rng.normal(0, 0.25, 4)
        assert check_reduction_formula(p, ys) < 1e-9

    def test_rotation_of_entries(self):
        p = make(8, 3, 3, Parity.MINUS)
        ys = np.array([0.9 + 0.2j, 1.6 - 0.3j, 2.4 + 0.1j])
        assert check_reduction_formula(p, ys, u_slot_last=False) < 1e-9

    def test_coincident_roots_rejected(self):
        p = make(8, 3, 3, Parity.MINUS)
        with pytest.raises(PoleError):
            check_reduction_formula(p, np.array([0.9, 0.9, 1.7]))


class TestEquationsAndEigenvalue:
    def test_empty_system_minus_first(self):
        p = make(6, 2, 1, Parity.MINUS)
        assert bethe_residuals(p, AnsatzVariant.MINUS_FIRST, np.zeros(0)).size == 0

    def test_random_roots_give_order_one_defects(self):
        p = make(6, 2, 3, Parity.MINUS)
        res = bethe_residuals(p, AnsatzVariant.MINUS_FIRST, np.array([0.713, 2.394]))
        assert np.max(np.abs(res)) > 1e-4

    @pytest.mark.parametrize("variant,L,expected", [
        (AnsatzVariant.MINUS_FIRST, 1, None),
        (AnsatzVariant.MINUS_SECOND, 1, None),
        (AnsatzVariant.PLUS, 0, None),
    ])
    def test_rootless_eigenvalue_matches_one_by_one_block(self, variant, L, expected):
        n, K = 6, 2
        p = make(n, K, L, variant.parity)
        want = -2 * trig_c(p, 2 * K + 1) * (trig_c(p, 2) if variant.parity is Parity.MINUS else 1.0)
        for u in (0.31 + 0.17j, 0.9 - 0.4j, 1.7 + 0.05j):
            t = bethe_eigenvalue(p, variant, np.zeros(0), u)
            assert abs(t - want) < 1e-12

    def test_pole_in_spectral_parameter(self):
        p = make(6, 2, 3, Parity.MINUS)
        with pytest.raises(PoleError):
            bethe_eigenvalue(p, AnsatzVariant.MINUS_FIRST, np.array([0.5, 1.5]), 0.0)


# Scalar transcriptions of the Bethe equations and the eigenvalue formula,
# one root and one spectral parameter at a time: the oracle for the array
# kernels of tblim.bethe.


def scalar_residuals(p, variant, roots):
    s = lambda x: trig_s(p, x)
    c = lambda x: trig_c(p, x)
    dl = lambda x: delta_fn(p, x)
    out = np.zeros(roots.size, dtype=complex)
    for j, x in enumerate(roots):
        others = np.delete(roots, j)
        if variant is AnsatzVariant.MINUS_FIRST:
            lhs = dl(x) * s(2 - 2 * x) * s(1 - 2 * x) \
                * np.prod([s(x - xi - 1) * s(x + xi - 1) for xi in others])
            rhs = dl(-x) * s(2 + 2 * x) * s(1 + 2 * x) \
                * np.prod([s(x - xi + 1) * s(x + xi + 1) for xi in others])
        else:
            num = np.prod([s(x - yi + 1) * s(x + yi + 1) for yi in others])
            den = np.prod([s(x - yi - 1) * s(x + yi - 1) for yi in others])
            ipr = np.prod([4 * s(yi - x + 1) * s(yi + x - 1) for yi in roots])
            if variant is AnsatzVariant.MINUS_SECOND:
                g1 = dl(1 - x) * s(2 - 2 * x) * s(1 - 2 * x)
                g2 = dl(1 + x) * s(2 + 2 * x) * s(1 + 2 * x)
                inh = s(2 * p.L + 1) ** 2 * s(2 * x * (p.L + 1)) * s(2 * x - 1)
                lhs = g1 * den * ipr + inh * den
                rhs = num * g2 * ipr
            else:
                g1 = dl(1 - x) * s(2 * x - 1)
                g2 = dl(1 + x) * s(2 * x + 1)
                inh = s(4 * p.L + 2) * s(2 * p.L + 1) * c(2 * x * (p.L + 1)) * s(2 * x - 1)
                lhs = c(2 * p.L + 1) * g1 * den * ipr + inh * den
                rhs = c(2 * p.L + 1) * num * g2 * ipr
        out[j] = (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return out


def scalar_eigenvalue(p, variant, roots, u):
    s = lambda x: trig_s(p, x)
    c = lambda x: trig_c(p, x)
    dl = lambda x: delta_fn(p, x)
    s2u = s(2 * u)
    fu = np.prod([f_fn(p, u, x) for x in roots])
    fmu = np.prod([f_fn(p, -u, x) for x in roots])
    inh = np.prod([1.0 / (4 * s(x + u) * s(x - u)) for x in roots])
    if variant is AnsatzVariant.MINUS_FIRST:
        return (2 * c(2 * u) + 2 * dl(u) * s(2 - 2 * u) / s2u * fu
                - 2 * dl(-u) * s(2 + 2 * u) / s2u * fmu)
    if variant is AnsatzVariant.MINUS_SECOND:
        return (2 * c(2 * u) + 2 * dl(1 - u) * s(2 - 2 * u) / s2u * fu
                - 2 * dl(1 + u) * s(2 + 2 * u) / s2u * fmu
                - 2 * s(2 * p.L + 1) ** 2 * s(2 * u * (p.L + 1)) / s2u * inh)
    return (2 * c(2 * u) - 2 * dl(1 - u) * fu - 2 * dl(1 + u) * fmu
            - 2 * s(4 * p.L + 2) * s(2 * p.L + 1) * c(2 * u * (p.L + 1)) / c(2 * p.L + 1) * inh)


def scalar_u_samples(p, roots, probes):
    out = []
    for u in probes:
        for _ in range(12):
            if not (abs(trig_s(p, 2 * u)) < 1e-4 or any(
                    abs(trig_s(p, u + x)) < 1e-4 or abs(trig_s(p, u - x)) < 1e-4
                    for x in roots)):
                break
            u += 0.0731 + 0.0179j
        out.append(u)
    return out


def scalar_admissible(p, roots):
    if any(abs(trig_s(p, 2 * x)) < 1e-6 for x in roots):
        return False
    return not any(
        abs(roots[i] - roots[j]) < 1e-6 or abs(trig_s(p, roots[i] + roots[j])) < 1e-6
        or abs(trig_s(p, roots[i] - roots[j])) < 1e-6
        for i in range(roots.size) for j in range(i + 1, roots.size))


KERNEL_CASES = [
    (variant, n, K, L)
    for variant in AnsatzVariant
    for n, K, L in [(6, 2, 3), (8, 3, 4), (12, 4, 5), (16, 5, 8), (24, 8, 9)]
]
PROBES = [0.3137 + 0.2718j, 0.8771 - 0.1543j, 1.4142 + 0.3333j, 0.2712 - 0.4141j,
          1.7321 + 0.1013j, 0.5774 + 0.5051j, 2.2361 - 0.2871j]


def random_roots(rng, p, variant):
    m = variant.root_count(p.L)
    return rng.uniform(0.1, p.n - 0.1, m) + 1j * rng.normal(0.0, 0.7, m)


class TestArrayKernels:
    @pytest.mark.parametrize("variant,n,K,L", KERNEL_CASES)
    def test_residuals_match_scalar_oracle(self, variant, n, K, L):
        p = make(n, K, L, variant.parity)
        rng = np.random.default_rng(n * 100 + L)
        for _ in range(10):
            roots = random_roots(rng, p, variant)
            assert mx(bethe_residuals(p, variant, roots)
                      - scalar_residuals(p, variant, roots)) < 1e-14

    @pytest.mark.parametrize("variant,n,K,L", KERNEL_CASES)
    def test_eigenvalue_matches_scalar_oracle(self, variant, n, K, L):
        p = make(n, K, L, variant.parity)
        rng = np.random.default_rng(n * 100 + L + 1)
        us = np.array(PROBES)
        for _ in range(10):
            roots = random_roots(rng, p, variant)
            want = np.array([scalar_eigenvalue(p, variant, roots, u) for u in us])
            got = bethe_eigenvalue(p, variant, roots, us)
            assert got.shape == us.shape
            assert mx((got - want) / want) < 1e-13
            one = bethe_eigenvalue(p, variant, roots, us[2])
            assert np.ndim(one) == 0 and abs(one - want[2]) < 1e-13 * abs(want[2])

    @pytest.mark.parametrize("variant", list(AnsatzVariant))
    def test_pole_at_zero_and_at_each_root(self, variant):
        p = make(8, 3, 4, variant.parity)
        roots = random_roots(np.random.default_rng(3), p, variant)
        for u in [0.0] + [sgn * x for x in roots for sgn in (1, -1)]:
            with pytest.raises(PoleError):
                bethe_eigenvalue(p, variant, roots, u)
            with pytest.raises(PoleError):
                bethe_eigenvalue(p, variant, roots, np.array([0.3 + 0.2j, u]))

    @pytest.mark.parametrize("variant,n,K,L", KERNEL_CASES)
    def test_u_samples_match_scalar_loop(self, variant, n, K, L):
        p = make(n, K, L, variant.parity)
        probes = [u + 0.25j * n for u in PROBES]
        rng = np.random.default_rng(n * 100 + L + 2)
        roots = random_roots(rng, p, variant)
        # roots on the first probes force nudges past s(u + x) = 0 and s(u - x) = 0
        roots[:2] = [-probes[0], probes[1] + 1e-6]
        for r in (roots, random_roots(rng, p, variant)):
            got = _u_samples(p, r)
            assert list(got) == scalar_u_samples(p, r, probes)
        assert _u_samples(p, roots)[0] != probes[0]

    @pytest.mark.parametrize("variant,n,K,L", KERNEL_CASES)
    def test_admissibility_matches_scalar_loop(self, variant, n, K, L):
        p = make(n, K, L, variant.parity)
        rng = np.random.default_rng(n * 100 + L + 3)
        roots = random_roots(rng, p, variant)
        near = [roots.copy() for _ in range(4)]
        near[1][0] = 0.0                        # s(2x) = 0
        near[2][-1] = near[2][0] + 5e-7         # coincident pair
        near[3][-1] = 2 * p.n - near[3][0]      # s(x_i + x_j) = 0
        for r in near:
            assert _roots_admissible(p, r) == scalar_admissible(p, r)
        assert [scalar_admissible(p, r) for r in near] == [True, False, False, False]


def scalar_canonical(p, roots):
    """The level-by-level canonicalization: one root at a time, then a list
    sort on Python-rounded (Re, Im) keys."""
    out = []
    for x in roots:
        re, im = float(np.real(x)) % (2 * p.n), float(np.imag(x))
        if re > p.n + 1e-12:
            re -= 2 * p.n
        if re < 0.0:
            re, im = -re, -im
        if re <= 1e-9 or abs(re - p.n) <= 1e-9:
            im = abs(im)
        out.append(complex(re, im))
    out.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return np.array(out, dtype=complex)


def scalar_seed(p, variant, vector):
    """One seed from Baxter's Q as a level-by-level solve might take it: Q's
    Chebyshev coefficients, converted from the U basis to the T basis for
    the minus ansaetze, then chebroots; None where Q loses degree."""
    q = _q_coefficients(p, variant, vector)
    if q[-1] == 0:
        return None
    if variant is not AnsatzVariant.PLUS:
        u_basis = [np.array([1.0]), np.array([0.0, 2.0])]       # U_0, U_1 on T
        while len(u_basis) < q.size:
            u_basis.append(C.chebsub(2 * C.chebmulx(u_basis[-1]), u_basis[-2]))
        q = functools.reduce(C.chebadd, [c * b for c, b in zip(q, u_basis)])
    return C.chebroots(q).astype(complex)


def seeded_instances(max_n):
    """(p, variant, vectors) of every instance with n <= max_n and at least
    one root whose window spectrum exists; the vectors are the window
    eigenvectors cut to m + 1 entries, one per row."""
    for n in range(2, max_n + 1):
        for variant in AnsatzVariant:
            for K in range(n + 1):
                for L in range(1, n + 1):
                    p = make(n, K, L, variant.parity)
                    m = variant.root_count(L)
                    if m < 1 or m + 1 > p.time_rank:
                        continue
                    try:
                        modes = joint_spectrum(p)
                    except TblimError:
                        continue
                    yield p, variant, np.array([mode.vector.coeffs[: m + 1] for mode in modes])


def hausdorff(a, b):
    """Largest distance from a point of either set to the other set."""
    d = np.abs(a[:, None] - b[None, :])
    return max(np.max(np.min(d, axis=0)), np.max(np.min(d, axis=1)))


class TestStackedPasses:
    """Each stacked pass of solve_bethe gives, row by row, the bytes of the
    level-by-level calls; the stacked colleague matrices give the zeros of Q
    that chebroots gives."""

    def test_equal_to_level_by_level_calls_up_to_n_12(self):
        counts = dict(instances=0, seeds=0, poles=0, inadmissible=0, unseeded=0)
        for p, variant, vectors in seeded_instances(12):
            counts["instances"] += 1
            roots, why = _q_seeds(p, variant, vectors)
            for k, reason in enumerate(why):
                want = scalar_seed(p, variant, vectors[k])
                assert (reason is None) == (want is not None)
                if want is None:
                    counts["unseeded"] += 1
                    assert reason == "Q loses degree" and np.all(np.isnan(roots[k]))
                    continue
                # the two eigenvalue routes agree to their backward error,
                # eps times the size of Q over its leading coefficient
                # (measured: at most 2.3e-13 of it up to n = 12)
                q = _q_coefficients(p, variant, vectors[k])
                w = np.cos(np.pi * roots[k] / p.n)
                assert w.size == want.size
                assert hausdorff(w, want) * abs(q[-1]) <= 1e-11 * np.linalg.norm(q), (p, variant, k)
            stack = roots[[reason is None for reason in why]]
            counts["seeds"] += len(stack)
            assert _residuals(p, variant, stack).tobytes() == \
                np.array([bethe_residuals(p, variant, r) for r in stack]).tobytes()
            canon = _canonical(p, stack)
            assert canon.tobytes() == np.array([scalar_canonical(p, r) for r in stack]).tobytes()
            admissible = _roots_admissible(p, canon)
            assert admissible.tolist() == [bool(_roots_admissible(p, r)) for r in canon]
            counts["inadmissible"] += int(np.count_nonzero(~admissible))
            u = _u_samples(p, canon)
            assert u.tobytes() == np.array([_u_samples(p, r) for r in canon]).tobytes()
            mean, spread, pole = _eigenvalue_profile(p, variant, canon)
            for i, r in enumerate(canon):
                if pole[i]:
                    counts["poles"] += 1
                    with pytest.raises(PoleError):
                        bethe_eigenvalue(p, variant, r, u[i])
                    continue
                ts = bethe_eigenvalue(p, variant, r, u[i])
                assert mean[i] == np.mean(ts.real)
                assert spread[i] == np.ptp(ts.real) + np.max(np.abs(ts.imag))
        assert counts["instances"] > 1000 and counts["seeds"] > 5000
        # only the full symmetric windows whose spectrum exists lose degree
        assert 0 < counts["unseeded"] < 100

    @pytest.mark.parametrize("K", [1, 4])
    def test_seed_with_root_at_quarter_period(self, K):
        # level 2 of (6, K, 4, second) has the root x = n/2 = 3, where w = 0
        p = make(6, K, 4, Parity.MINUS)
        variant = AnsatzVariant.MINUS_SECOND
        res = solve_bethe(p, variant)
        assert res.complete and res.starts_used == len(res.root_sets) == p.time_rank
        level = next(rs for rs in res.root_sets if rs.level == 2)
        assert np.min(np.abs(level.roots - 3.0)) <= 1e-12


def chebyshev_values(variant, m, w):
    """B_0..B_m at the points w, one row each: T_k for the plus ansatz, U_k
    for the minus ones."""
    rows = [np.ones_like(w), w * (1.0 if variant is AnsatzVariant.PLUS else 2.0)]
    while len(rows) <= m:
        rows.append(2 * w * rows[-1] - rows[-2])
    return np.array(rows[: m + 1])


def tq_defect(p, variant, q, t, u):
    """Relative defect of Baxter's TQ relation at the spectral parameters u,
    for Q = sum_k q_k B_k(W(u)) scaled so that Q(u) = prod_i (w_i - W(u)):
    the eigenvalue formula times Q (and times s(2u) for the minus ansaetze),
    minus t Q, over the same sum with every term, and every Chebyshev term
    of Q, taken in absolute value."""
    m = q.size - 1
    s, c, dl = (lambda x: trig_s(p, x)), (lambda x: trig_c(p, x)), (lambda x: delta_fn(p, x))
    lead = 2.0 ** max(m - 1, 0) if variant is AnsatzVariant.PLUS else 2.0 ** m
    q = q * (-1.0) ** m / (lead * q[-1])
    L = p.L
    if variant is AnsatzVariant.PLUS:
        terms = [(2 * c(2 * u) - t, u), (-2 * dl(1 - u), u - 1), (-2 * dl(1 + u), u + 1)]
        total = -2 * s(4 * L + 2) * s(2 * L + 1) * c(2 * u * (L + 1)) / c(2 * L + 1) * (-0.5) ** m
    else:
        first = variant is AnsatzVariant.MINUS_FIRST
        terms = [((2 * c(2 * u) - t) * s(2 * u), u),
                 (2 * dl(u if first else 1 - u) * s(2 - 2 * u), u - 1),
                 (-2 * dl(-u if first else 1 + u) * s(2 + 2 * u), u + 1)]
        total = 0 * u if first else -2 * s(2 * L + 1) ** 2 * s(2 * u * (L + 1)) * (-0.5) ** m
    size = np.abs(total)
    for coef, x in terms:
        b = chebyshev_values(variant, m, np.cos(np.pi * x / p.n))
        total = total + coef * (q @ b)
        size = size + np.abs(coef) * (np.abs(q) @ np.abs(b))
    return np.abs(total) / size


def tq_instances(max_n):
    """(p, variant, window modes) for n <= max_n and 1 <= L < n, wherever
    the ansatz fits the window and the window spectrum exists."""
    for n in range(2, max_n + 1):
        for variant in AnsatzVariant:
            for K in range(n + 1):
                for L in range(1, n):
                    p = make(n, K, L, variant.parity)
                    if variant.root_count(L) + 1 > p.time_rank:
                        continue
                    try:
                        yield p, variant, joint_spectrum(p)
                    except TblimError:
                        continue


class TestBaxterQ:
    """Q's coefficients are the window eigenvector scaled in closed form."""

    def test_tq_relation_up_to_n_12(self):
        rng = np.random.default_rng(5)
        checks, worst = 0, 0.0
        for p, variant, modes in tq_instances(12):
            m = variant.root_count(p.L)
            for mode in modes:
                q = _q_coefficients(p, variant, mode.vector.coeffs[: m + 1])
                u = rng.uniform(0, 2 * p.n, 3) + 1j * rng.uniform(-1, 1, 3)
                worst = max(worst, float(np.max(tq_defect(p, variant, q, mode.t, u))))
                checks += 3
        assert checks > 25000
        assert worst <= 1e-12

    @pytest.mark.parametrize("variant,n,K,L", [
        (AnsatzVariant.PLUS, 9, 3, 6), (AnsatzVariant.PLUS, 12, 5, 11),
        (AnsatzVariant.MINUS_FIRST, 10, 4, 7), (AnsatzVariant.MINUS_SECOND, 11, 2, 8),
    ])
    def test_each_perturbed_ratio_fails(self, variant, n, K, L):
        # false-PASS guard: a ratio r_(j+1)/r_j changed by 1e-6 scales
        # q_(j+1)..q_m, and the relation then fails on some level
        p = make(n, K, L, variant.parity)
        m = variant.root_count(L)
        modes = joint_spectrum(p)
        u = np.array([0.37 + 0.61j, 2.9 - 0.4j, 5.3 + 0.2j])
        qs = [_q_coefficients(p, variant, mode.vector.coeffs[: m + 1]) for mode in modes]

        def worst(scale):
            return max(float(np.max(tq_defect(p, variant, q * scale, mode.t, u)))
                       for q, mode in zip(qs, modes))

        assert worst(1.0) <= 1e-12
        for j in range(m):
            assert worst(np.where(np.arange(m + 1) > j, 1 + 1e-6, 1.0)) > 1e-12, j


def dense_pair(p):
    a, astar = leonard_pair(p)
    return a.to_dense().entries, astar.to_dense().entries


# The dense dynamical operators as the package formed them before they became
# bands: the reference for the D and B bands.


def reference_D(p, u, m):
    am, sm = dense_pair(p)
    anti = am @ sm + sm @ am
    return (
        trig_c(p, 2 * m + 1) * am
        - trig_c(p, 2 * u - 2 * m) * sm
        - anti / (4 * trig_c(p, 1))
        + 2 * trig_c(p, 2 * u) * np.eye(p.dim)
    ) / (trig_s(p, 2 * u) * trig_s(p, 2 * m))


def reference_B(p, u, m):
    am, sm = dense_pair(p)
    anti, comm = am @ sm + sm @ am, am @ sm - sm @ am
    m0 = trig_c(p, 1) * am + trig_s(p, 2 * m) * comm / (4 * trig_s(p, 1)) \
        - trig_c(p, 2 * m) * anti / (4 * trig_c(p, 1))
    m1 = -sm + 2 * trig_c(p, 2 * m) * np.eye(p.dim)
    return (m0 + trig_c(p, 2 * u) * m1) / trig_s(p, 2 * m)


class TestPairBands:
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_equal_to_dense_products(self, parity):
        # np.array_equal: a zero entry may carry either sign, as a dense sum
        # of zero products does
        for n in range(2, 41):
            p = make(n, 1, 1, parity)
            am, sm = dense_pair(p)
            bands = _pair_bands(p)
            assert not np.any(bands[[0, 2, 3], -1])
            hop, s, anti, comm = bands[0, :-1], bands[1], bands[2, :-1], bands[3, :-1]
            assert np.array_equal(np.diag(am, 1), hop) and np.array_equal(np.diag(am, -1), hop)
            assert np.array_equal(np.diag(sm), s)
            for dense, upper, lower in ((am @ sm + sm @ am, anti, anti),
                                        (am @ sm - sm @ am, comm, -comm)):
                assert np.array_equal(np.diag(dense, 1), upper)
                assert np.array_equal(np.diag(dense, -1), lower)
                assert not np.any(dense - np.diag(np.diag(dense, 1), 1)
                                  - np.diag(np.diag(dense, -1), -1))

    def test_read_only_and_built_once(self):
        p = make(9, 2, 3, Parity.MINUS)
        first = _pair_bands(p)
        assert not first.flags.writeable
        assert _pair_bands(p) is first

    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_dynamical_operators_match_dense_formula(self, parity):
        rng = np.random.default_rng(17)
        for n in range(2, 41):
            p = make(n, 1, 1, parity)
            for _ in range(3):
                u = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
                m = int(rng.choice([k for k in range(-2 * n, 2 * n) if abs(trig_s(p, 2 * k)) > 1e-9]))
                for got, want in ((dense_of(_D_band(p, u, m)), reference_D(p, u, m)),
                                  (dense_of(_B_band(p, u, m)), reference_B(p, u, m))):
                    assert mx(got - want) <= 1e-15 * mx(want)


class TestNoDenseMatrixOnTheBethePath:
    def test_bands_only_at_n_64(self, monkeypatch):
        from tblim.core_model import TridiagonalOperator

        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix formed")

        monkeypatch.setattr(TridiagonalOperator, "to_dense", refuse)
        for variant, L in ((AnsatzVariant.MINUS_FIRST, 4), (AnsatzVariant.MINUS_SECOND, 4),
                           (AnsatzVariant.PLUS, 3)):
            p = make(64, 16, L, variant.parity)
            res = solve_bethe(p, variant)
            assert res.complete and len(res.root_sets) == p.time_rank
            v = bethe_state(p, variant, res.root_sets[0].roots).coeffs
            assert np.linalg.norm(v[p.time_rank:]) < 1e-11 * np.linalg.norm(v)
        for parity in Parity:
            p = make(64, 16, 4, parity)
            assert check_vacuum_action(p, 0.41 + 0.1j, 3) < 1e-11
            assert max(check_T_decomposition(p, 0.618 + 0.2j)) < 1e-10
            r_bb, r_db = check_dynamical_relations(p, 0.43 + 0.2j, 1.31 - 0.1j, 3)
            assert r_bb < 1e-10 and r_db < 1e-9
        ys = np.array([0.7 + 0.1j, 3.1 - 0.2j, 9.6 + 0.3j, 20.2 - 0.1j])
        assert check_reduction_formula(make(64, 16, 4, Parity.MINUS), ys) < 1e-9


# The instances of the grid n <= 16, every K and L, all three ansaetze and
# window rank <= 10 on which the solver missed levels while it sampled the
# eigenvalue formula at Im u in [-0.41, 0.51], with the levels it missed:
# (ansatz, n, K, L) -> levels.
MISSED_NEAR_REAL_AXIS = {
    ("plus", 7, 7, 7): list(range(8)), ("plus", 8, 8, 8): list(range(9)),
    ("plus", 9, 0, 8): [3], ("plus", 9, 2, 8): [7], ("plus", 10, 0, 9): [7, 8],
    ("plus", 10, 1, 9): [5, 7], ("plus", 10, 2, 9): [4, 9], ("plus", 10, 3, 9): [9],
    ("plus", 10, 5, 9): [6],
    ("first", 12, 7, 9): [8], ("first", 13, 9, 9): [8], ("first", 13, 10, 8): [7],
    ("first", 13, 10, 9): [8], ("first", 14, 8, 9): [8], ("first", 14, 8, 10): [9],
    ("first", 14, 9, 9): [7], ("first", 14, 10, 7): [6], ("first", 14, 10, 8): [7],
    ("first", 14, 10, 9): [8], ("first", 14, 10, 10): [9], ("first", 14, 11, 9): [8],
    ("first", 14, 11, 10): [9], ("first", 15, 7, 10): [8], ("first", 15, 10, 9): [7],
    ("first", 15, 10, 10): [8], ("first", 15, 11, 6): [5], ("first", 15, 11, 7): [6],
    ("first", 15, 11, 8): [6, 7], ("first", 15, 11, 9): [8], ("first", 15, 11, 10): [8, 9],
    ("first", 15, 12, 6): [5], ("first", 15, 12, 7): [6], ("first", 15, 12, 8): [6, 7],
    ("first", 15, 12, 9): [8], ("first", 15, 12, 10): [9], ("first", 15, 13, 7): [6],
    ("first", 15, 13, 8): [7], ("first", 15, 13, 9): [8], ("first", 15, 13, 10): [9],
    ("first", 16, 9, 9): [7], ("first", 16, 10, 10): [8], ("first", 16, 11, 9): [7],
    ("first", 16, 11, 10): [7, 8], ("first", 16, 12, 7): [6], ("first", 16, 12, 8): [7],
    ("first", 16, 12, 9): [7, 8], ("first", 16, 12, 10): [8, 9], ("first", 16, 13, 6): [5],
    ("first", 16, 13, 7): [6], ("first", 16, 13, 8): [6, 7], ("first", 16, 13, 9): [7],
    ("first", 16, 13, 10): [8, 9], ("first", 16, 14, 6): [5], ("first", 16, 14, 8): [7],
    ("first", 16, 14, 9): [8], ("first", 16, 14, 10): [9],
}


class TestSpreadProbes:
    @pytest.fixture(scope="class")
    def solved(self):
        out = {}
        for (ansatz, n, K, L), levels in MISSED_NEAR_REAL_AXIS.items():
            variant = AnsatzVariant(ansatz)
            p = make(n, K, L, variant.parity)
            out[ansatz, n, K, L] = p, variant, solve_bethe(p, variant)
        return out

    def test_only_known_exceptions_remain(self, solved):
        # Q loses degree on the two full symmetric windows (every level
        # missing); a (10, K, 9, plus) instance may still miss one level
        for key, (p, _, res) in solved.items():
            if key in (("plus", 7, 7, 7), ("plus", 8, 8, 8)):
                assert res.missing_levels == list(range(p.time_rank))
            elif key[:2] == ("plus", 10) and key[3] == 9:
                assert len(res.missing_levels) <= 1
            else:
                assert res.missing_levels == [], key
            assert res.extra_matches == 0

    def test_recovered_levels_fail_when_roots_move(self, solved):
        # false-PASS guard: the residual of a recovered level can be as low
        # as 1e-16, so the u-spread alone rejects roots moved by 1e-6
        recovered = 0
        for key, (p, variant, res) in solved.items():
            for rs in res.root_sets:
                if rs.level in MISSED_NEAR_REAL_AXIS[key]:
                    recovered += 1
                    assert rs.u_spread <= 1e-8
                    assert _eigenvalue_profile(p, variant, rs.roots + 1e-6)[1] >= 1e-8
        assert recovered >= 61


class TestCanonicalization:
    @settings(deadline=None, max_examples=60)
    @given(
        re=st.floats(-30, 30),
        im=st.floats(-5, 5),
    )
    @example(re=-1e-12, im=1.0)
    @example(re=6.0000000000015, im=1.0)
    def test_fold_into_strip_and_idempotent(self, re, im):
        p = make(6, 2, 3, Parity.MINUS)
        out = canonicalize_roots(p, np.array([complex(re, im)]))
        z = out[0]
        assert -1e-9 <= z.real <= p.n + 1e-9
        again = canonicalize_roots(p, out)
        assert mx(again - out) < 1e-12

    def test_equivalent_roots_collapse(self):
        p = make(6, 2, 3, Parity.MINUS)
        x = 1.3 + 0.4j
        images = [x, -x, x + 2 * p.n, -(x - 2 * p.n)]
        canon = [canonicalize_roots(p, np.array([z]))[0] for z in images]
        assert max(abs(c - canon[0]) for c in canon) < 1e-12

    def test_boundary_line_sign_choice(self):
        p = make(6, 2, 3, Parity.MINUS)
        a = canonicalize_roots(p, np.array([6.0 - 2.5j]))[0]
        b = canonicalize_roots(p, np.array([6.0 + 2.5j]))[0]
        assert a == b
        assert a.imag >= 0

    def test_sorted_output(self):
        p = make(6, 2, 3, Parity.MINUS)
        out = canonicalize_roots(p, np.array([2.5 + 0.1j, 0.7 - 0.2j, 0.7 + 0.1j]))
        keys = [(z.real, z.imag) for z in out]
        assert keys == sorted(keys)


class TestSolver:
    def test_minus_first_full_match(self):
        p = make(6, 2, 3, Parity.MINUS)
        res = solve_bethe(p, AnsatzVariant.MINUS_FIRST)
        assert res.complete and len(res.root_sets) == 3
        for rs in res.root_sets:
            assert rs.residual < 1e-9
            assert rs.u_spread < 1e-8
            assert abs(rs.eigenvalue.real - rs.t_spectral) < 1e-6

    def test_minus_second_same_spectrum(self):
        p = make(6, 2, 3, Parity.MINUS)
        t1 = sorted(rs.t_spectral for rs in solve_bethe(p, AnsatzVariant.MINUS_FIRST).root_sets)
        t2 = sorted(rs.t_spectral for rs in solve_bethe(p, AnsatzVariant.MINUS_SECOND).root_sets)
        assert np.allclose(t1, t2, atol=1e-6)

    def test_plus_ansatz(self):
        p = make(6, 2, 2, Parity.PLUS)
        res = solve_bethe(p, AnsatzVariant.PLUS)
        assert res.complete and len(res.root_sets) == 3

    def test_degenerate_slot_instance(self):
        # creation slots include a pole of the unscaled operator; equations
        # and eigenvalue formulas still resolve the full block
        p = make(4, 2, 2, Parity.PLUS)
        res = solve_bethe(p, AnsatzVariant.PLUS)
        assert res.complete and len(res.root_sets) == 3

    def test_rootless_level(self):
        p = make(6, 2, 1, Parity.MINUS)
        res = solve_bethe(p, AnsatzVariant.MINUS_FIRST)
        assert res.complete and len(res.root_sets) == 1
        assert res.root_sets[0].roots.size == 0

    def test_reproducible(self):
        p = make(6, 3, 3, Parity.MINUS)
        a = solve_bethe(p, AnsatzVariant.MINUS_SECOND)
        b = solve_bethe(p, AnsatzVariant.MINUS_SECOND)
        assert len(a.root_sets) == len(b.root_sets) == 3
        for x, y in zip(a.root_sets, b.root_sets):
            assert mx(x.roots - y.roots) == 0.0

    def test_one_seed_per_level(self):
        p = make(8, 3, 5, Parity.MINUS)
        res = solve_bethe(p, AnsatzVariant.MINUS_FIRST)
        assert res.complete and res.starts_used == p.time_rank

    @pytest.mark.parametrize("variant", [AnsatzVariant.MINUS_FIRST, AnsatzVariant.MINUS_SECOND])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_more_roots_than_window_rows_rejected(self, n, variant):
        # L = n: n - 1 roots need n window components, the window has n - 1
        for K in range(n + 1):
            p = make(n, K, n, Parity.MINUS)
            with pytest.raises(DomainError, match="window rank"):
                solve_bethe(p, variant)

    @pytest.mark.parametrize("variant", list(AnsatzVariant))
    @pytest.mark.parametrize("n", [8, 12])
    def test_every_level_matched_up_to_rank_8(self, n, variant):
        l_range = range(0, n + 1) if variant is AnsatzVariant.PLUS else range(1, n)
        missing = []
        for K in range(n + 1):
            for L in l_range:
                p = make(n, K, L, variant.parity)
                if 0 < p.time_rank <= 8:
                    res = solve_bethe(p, variant)
                    if not res.complete:
                        missing.append((K, L, res.missing_levels))
        assert not missing

    def test_every_level_matched_at_rank_10(self):
        p = make(16, 5, 9, Parity.PLUS)
        res = solve_bethe(p, AnsatzVariant.PLUS)
        assert res.complete and len(res.root_sets) == 10

    def test_parity_mismatch_rejected(self):
        p = make(6, 2, 3, Parity.PLUS)
        with pytest.raises(DomainError):
            solve_bethe(p, AnsatzVariant.MINUS_FIRST)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN residual gate is never exceeded, so it would accept every level
        with pytest.raises(DomainError, match="finite tolerance >= 0"):
            solve_bethe(make(8, 3, 3, Parity.PLUS), AnsatzVariant.PLUS, residual_tol=tol)

    def test_solutions_verify_as_eigenvectors(self):
        from tblim.operators import heun_tb

        p = make(6, 2, 3, Parity.MINUS)
        t = heun_tb(p).to_dense().entries
        for rs in solve_bethe(p, AnsatzVariant.MINUS_FIRST).root_sets:
            v = bethe_state(p, AnsatzVariant.MINUS_FIRST, rs.roots).coeffs
            v = v / np.linalg.norm(v)
            assert np.linalg.norm(t @ v - rs.eigenvalue.real * v) < 1e-8

    def test_seed_kept_where_newton_moves_it_onto_a_failing_set(self, caplog):
        # level 3 of (9, 0, 8, plus): the seed's u-spread is 3.2e-9, and one
        # Newton step takes it above the 1e-8 bound
        p = make(9, 0, 8, Parity.PLUS)
        with caplog.at_level("DEBUG", logger="tblim"):
            res = solve_bethe(p, AnsatzVariant.PLUS)
        assert res.complete and res.extra_matches == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("bethe ")]
        kept = [ln for ln in lines if "on its seed" in ln]
        assert len(lines) == 9 and len(kept) == 1
        assert kept[0].startswith("bethe n=9 K=0 L=8 plus level 3: accepted as level 3 on its "
                                  "seed, 1 Newton steps, ")
        solve = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve_bethe")]
        assert ", 1 seed checks after Newton, 9 accepted, 0 missing;" in solve[0]
