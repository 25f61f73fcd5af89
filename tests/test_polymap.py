import numpy as np
import pytest

from tblim.core_model import ModelParams, Parity
from tblim.errors import ConvergenceError, DegeneracyError
from tblim.operators import heun_coefficients, heun_tb, projector_time, tb_operator
from tblim.polymap import (
    eval_P_stable,
    link_residuals_hp,
    recurrence_values,
    refine_eigenvalues,
    verify_Q_equals_piP,
)
from tblim.spectral import joint_spectrum


def mx(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def make(n, K, L, parity):
    return ModelParams(n=n, K=K, L=L, parity=parity)


def numpy_link(p):
    """The link built by numpy alone, sharing no code with tblim's: the
    nodes t_l and eigenvectors v_l from ``eigh`` of the dense window block of
    the Heun operator T, q_l = <v_l| Q |v_l> from the dense time-band
    operator, and the monomial coefficients of the interpolant of (t_l, q_l)
    by ``polyfit``.  Returns the nodes, the coefficients and the defect
    Q - P1 P(T), with P(T) by Horner's rule on the dense T."""
    m = p.time_rank
    t = heun_tb(p).to_dense().entries
    q = tb_operator(p).entries
    nodes, vs = np.linalg.eigh(t[:m, :m])
    qs = np.einsum("il,ij,jl->l", vs.conj(), q[:m, :m], vs).real
    coeffs = np.polynomial.polynomial.polyfit(nodes, qs, m - 1)
    pt = np.zeros_like(t)
    for c in coeffs[::-1]:
        pt = pt @ t + c * np.eye(p.dim)
    return nodes, coeffs, q - projector_time(p).entries @ pt


class TestRecurrence:
    def test_first_polynomial_is_one(self):
        for p in (make(6, 2, 3, Parity.MINUS), make(6, 2, 3, Parity.PLUS)):
            for x in (0.3, -1.2, 2.0 + 0.5j):
                assert recurrence_values(p, x)[0] == 1.0

    def test_first_step_symmetric_subspace(self):
        p = make(7, 3, 4, Parity.PLUS)
        a, b, _ = heun_coefficients(p)
        # R_1 = (x - b_0) / a_1
        for x in (0.3, -1.2, 2.0 + 0.5j):
            assert recurrence_values(p, x)[1] == pytest.approx((x - b(0)) / a(1))

    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_eigenvector_component_ratios(self, parity):
        p = make(6, 2, 3, parity)
        for mode in joint_spectrum(p):
            v = mode.vector.coeffs
            vals = recurrence_values(p, mode.t)
            for j in range(p.time_rank):
                assert abs(vals[j] - v[j] / v[0]) < 1e-8

    def test_degenerate_leading_coefficient_raises(self):
        # L = n makes the last leading coefficient vanish identically
        with pytest.raises(DegeneracyError):
            recurrence_values(make(5, 2, 5, Parity.PLUS), 0.0)


class TestAssembleP:
    """The link polynomial P = sum_j w_j R_j, evaluated through the
    recurrence."""

    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_interpolates_tb_eigenvalues(self, parity):
        n = 8
        for K in range(n + 1):
            for L in range(0, min(5, n - 1) + 1):
                p = make(n, K, L, parity)
                for mode in joint_spectrum(p):
                    assert abs(eval_P_stable(p, mode.t) - mode.q) < 1e-8

    def test_full_band_gives_constant_one(self):
        p = make(6, 6, 3, Parity.MINUS)
        for mode in joint_spectrum(p):
            assert abs(eval_P_stable(p, mode.t) - 1.0) < 1e-12

    def test_degree_bound(self):
        # degree <= window rank - 1: off the nodes P agrees with the numpy
        # interpolant of that degree (kept to window rank <= 6, where the
        # monomial interpolant itself stays accurate)
        for p in (make(6, 2, 3, Parity.MINUS), make(8, 3, 4, Parity.PLUS),
                  make(9, 3, 4, Parity.PLUS), make(9, 4, 5, Parity.PLUS)):
            assert p.time_rank <= 6
            nodes, coeffs, _ = numpy_link(p)
            mids = (nodes[1:] + nodes[:-1]) / 2
            assert mx(eval_P_stable(p, mids) - np.polynomial.polynomial.polyval(mids, coeffs)) < 1e-12


class TestOperatorEvaluation:
    def test_operator_identity_example(self):
        _, _, defect = numpy_link(make(6, 2, 3, Parity.MINUS))
        assert mx(defect) < 1e-8


class TestFullIdentity:
    @pytest.mark.parametrize(
        "n,K,L,parity,tol",
        [
            (6, 2, 3, Parity.MINUS, 1e-8),
            (8, 3, 4, Parity.PLUS, 1e-8),
            (12, 5, 7, Parity.MINUS, 1e-8),
        ],
    )
    def test_residuals(self, n, K, L, parity, tol):
        assert verify_Q_equals_piP(make(n, K, L, parity)) < tol

    def test_full_band_exact(self):
        for L in (1, 3, 5):
            assert verify_Q_equals_piP(make(6, 6, L, Parity.PLUS)) < 1e-12

    def test_empty_window_trivial(self):
        assert verify_Q_equals_piP(make(6, 3, 0, Parity.MINUS)) == 0.0


class TestHighPrecisionOracle:
    def test_unpacks_as_pair_with_trials(self):
        p = make(8, 2, 5, Parity.PLUS)
        res = link_residuals_hp(p)
        r_op, r_eig = res
        assert (r_op, r_eig) == (res.operator, res.eigenbasis)
        assert len(res.trials) >= 2
        assert res.digits == tuple(sorted(set(res.digits)))
        assert res.trials[-1][1:] == (r_op, r_eig)

    def test_precisions_agree_on_small_grid(self):
        for n in range(2, 13):
            for parity in (Parity.PLUS, Parity.MINUS):
                for K in range(n + 1):
                    for L in range(n):
                        res = link_residuals_hp(make(n, K, L, parity))
                        for digits, r_op, r_eig in res.trials:
                            assert r_op < 1e-20 and r_eig < 1e-20, (n, K, L, parity, digits)

    @pytest.mark.parametrize("n,K,L,parity", [
        (8, 3, 4, Parity.PLUS), (12, 5, 7, Parity.MINUS), (24, 6, 18, Parity.PLUS),
        (64, 16, 48, Parity.PLUS),
    ])
    def test_perturbed_block_fails_at_every_precision(self, monkeypatch, n, K, L, parity):
        import tblim.polymap as polymap

        exact = polymap.band_window_block

        def perturbed(p, ctx=None, cos=None):
            e = exact(p, ctx, cos)
            if ctx is None:
                e = e.copy()
                e[0, 1] += 1e-6
            else:
                e[0][1] += ctx.mpf("1e-6")
            return e

        monkeypatch.setattr(polymap, "band_window_block", perturbed)
        p = make(n, K, L, parity)
        assert verify_Q_equals_piP(p) >= 1e-7
        res = link_residuals_hp(p)
        assert len(res.trials) >= 2
        for digits, r_op, r_eig in res.trials:
            assert r_op >= 1e-7 and r_eig >= 1e-8, (digits, r_op, r_eig)

    @pytest.mark.parametrize("n,K,L", [(64, 16, 48), (128, 32, 96)])
    def test_near_full_windows_need_adaptive_digits(self, n, K, L):
        res = link_residuals_hp(make(n, K, L, Parity.PLUS))
        assert res.operator < 1e-20 and res.eigenbasis < 1e-20
        # the double-precision defect of these windows is far above 1, so a
        # fixed 40 digits would not resolve them
        assert verify_Q_equals_piP(make(n, K, L, Parity.PLUS)) > 1.0
        assert min(res.digits) > 40

    def test_block_route_builds_no_n_by_n_matrix(self, monkeypatch):
        import sys

        import mpmath

        import tblim.cli  # noqa: F401  (loads every tblim module)
        from tblim.core_model import TridiagonalOperator

        def refuse(*args, **kwargs):
            raise AssertionError("an n x n builder or an mpmath eigensolver ran")

        for name, module in list(sys.modules.items()):
            if name == "tblim" or name.startswith("tblim."):
                for attr in ("fourier_matrix", "tb_operator", "projector_band"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        monkeypatch.setattr(TridiagonalOperator, "to_dense", refuse)
        for attr in ("eigsy", "eig", "matrix"):
            monkeypatch.setattr(mpmath.mp, attr, refuse)
        p = make(64, 16, 48, Parity.PLUS)
        assert verify_Q_equals_piP(p) > 1.0
        modes = joint_spectrum(p)
        vals = eval_P_stable(p, np.array([m.t for m in modes]))
        assert vals.shape == (len(modes),)
        r_op, r_eig = link_residuals_hp(p)
        assert r_op < 1e-20 and r_eig < 1e-20


class TestStableEvaluation:
    def test_operator_identity_on_window_is_tight(self):
        # the recurrence on the window block keeps rounding level where
        # Horner's rule on the monomial coefficients loses it (7.4e-3 and
        # 4.4e7 here)
        assert verify_Q_equals_piP(make(96, 24, 8, Parity.PLUS)) < 1e-12
        assert verify_Q_equals_piP(make(96, 16, 16, Parity.PLUS)) < 1e-8

    def test_matches_dense_oracle(self):
        for p in (make(6, 2, 3, Parity.MINUS), make(9, 4, 5, Parity.PLUS),
                  make(10, 3, 9, Parity.MINUS)):
            _, _, defect = numpy_link(p)
            assert abs(verify_Q_equals_piP(p) - mx(defect)) < 1e-9

    def test_array_evaluation_matches_scalar(self):
        p = make(12, 5, 7, Parity.PLUS)
        ts = np.array([m.t for m in joint_spectrum(p)])
        vals = eval_P_stable(p, ts)
        assert vals.shape == ts.shape
        # the same recurrence elementwise; only the summation order of the
        # weighted sum may differ
        for t, v in zip(ts, vals):
            assert abs(eval_P_stable(p, t) - v) < 1e-14


class TestRefineEigenvalues:
    @staticmethod
    def wilkinson(size):
        half = (size - 1) // 2
        return [float(abs(k)) for k in range(-half, half + 1)], [1.0] * (size - 1)

    def test_close_pair_gives_distinct_roots(self):
        import mpmath

        # the top two eigenvalues of W21+ agree to 7e-14
        diag, off = self.wilkinson(21)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        guesses = np.linalg.eigvalsh(dense)
        with mpmath.workdps(50):
            roots = refine_eigenvalues(diag, off, guesses, mpmath.mp)
            exact = sorted(mpmath.eigsy(mpmath.matrix(dense.tolist()), eigvals_only=True))
            assert len(roots) == 21
            assert all(b > a for a, b in zip(roots, roots[1:]))
            assert 0 < roots[-1] - roots[-2] < 1e-12
            assert max(abs(a - b) for a, b in zip(roots, exact)) < mpmath.mpf(10) ** -45

    def test_duplicate_guess_is_refused(self):
        import mpmath

        diag, off = self.wilkinson(7)
        guesses = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        guesses[0] = guesses[1]
        with mpmath.workdps(40):
            with pytest.raises(ConvergenceError):
                refine_eigenvalues(diag, off, guesses, mpmath.mp)



# A scalar mpf transcription of the oracle's earlier kernels: Newton on the
# characteristic polynomial and its derivative, one root at a time, Sturm
# counts one point at a time, and the residuals from mpf dot products.  The
# fixed-point kernels of ``polymap`` are checked against it.

def scalar_charpoly(diag, e2, x):
    f_prev, f = 1, x - diag[0]
    d_prev, d = 0, 1
    for k in range(1, len(diag)):
        f_prev, f, d_prev, d = (
            f, (x - diag[k]) * f - e2[k - 1] * f_prev,
            d, f + (x - diag[k]) * d - e2[k - 1] * d_prev,
        )
    return f, d


def scalar_count_below(diag, e2, x, tiny):
    count, u = 0, None
    for k in range(len(diag)):
        u = diag[k] - x - (e2[k - 1] / u if k else 0)
        if not u:
            u = tiny
        if u < 0:
            count += 1
    return count


def scalar_refine(diag, off, guesses, ctx):
    m = len(diag)
    diag = [ctx.mpf(d) for d in diag]
    e2 = [ctx.mpf(e) ** 2 for e in off[: m - 1]]
    scale = 1 + max(abs(d) for d in diag) + 2 * max((abs(ctx.mpf(e)) for e in off[: m - 1]), default=0)
    tol = 4 * ctx.eps * scale
    roots = []
    for guess in guesses:
        x, last = ctx.mpf(guess), None
        for _ in range(40):
            f, df = scalar_charpoly(diag, e2, x)
            if not df:
                break
            step = f / df
            x -= step
            if abs(step) <= tol or (last is not None and abs(step) > last / 2):
                break
            last = abs(step)
        roots.append(x)
    roots.sort()
    for i, x in enumerate(roots):
        h = min((abs(roots[k] - x) for k in (i - 1, i + 1) if 0 <= k < m), default=scale) / 4
        if scalar_count_below(diag, e2, x - h, ctx.eps) != i \
                or scalar_count_below(diag, e2, x + h, ctx.eps) != i + 1:
            raise ConvergenceError(f"refined eigenvalue {i} of {m} does not bracket")
    return roots


def scalar_link_residuals_at(p, guesses, ctx):
    import tblim.polymap as polymap

    diag, couplings = polymap._window_rows(p, ctx)
    e_rows = polymap.band_window_block(p, ctx)
    e_cols = [[row[c] for row in e_rows] for c in range(len(diag))]
    w = [ctx.fdot(col, e_cols[0]) for col in e_cols]
    op_sq = eig = ctx.mpf(0)
    roots = scalar_refine(diag, couplings, guesses, ctx)
    for t in roots:
        r = polymap._recurrence(diag, couplings, t)
        norm = ctx.sqrt(ctx.fdot(r, r))
        v = [x / norm for x in r]
        ev = [ctx.fdot(row, v) for row in e_rows]
        p_t = ctx.fdot(w, r)
        eig = max(eig, abs(p_t - ctx.fdot(ev, ev)))
        defect = [ctx.fdot(col, ev) - p_t * vi for col, vi in zip(e_cols, v)]
        op_sq += ctx.fdot(defect, defect)
    return max(float(ctx.sqrt(op_sq)), abs(float(couplings[-1]))), float(eig), roots


FIXED_POINT_CASES = [
    (24, 6, 18, Parity.PLUS), (64, 16, 48, Parity.PLUS), (96, 16, 16, Parity.PLUS),
    (96, 48, 12, Parity.PLUS), (12, 5, 7, Parity.MINUS),
]


class TestFixedPointOracle:
    """The fixed-point kernels of ``link_residuals_hp`` against the scalar
    mpf transcription above."""

    @staticmethod
    def assert_roots_match(block, guesses, digits):
        """``block(ctx)`` gives the diagonal and off-diagonal in the precision
        of ``ctx``."""
        import mpmath

        for dps in digits:
            with mpmath.workdps(dps):
                diag, off = block(mpmath.mp)
                scale = 1 + max(abs(v) for v in diag) + 2 * max((abs(v) for v in off), default=0)
                fixed = refine_eigenvalues(diag, off, guesses, mpmath.mp)
                ref = scalar_refine(diag, off, guesses, mpmath.mp)
                worst = max(abs(a - b) for a, b in zip(fixed, ref))
                assert worst <= mpmath.mpf(10) ** -(dps - 5) * scale, (dps, worst)

    @pytest.mark.parametrize("n,K,L,parity", FIXED_POINT_CASES)
    def test_roots_match_scalar_newton(self, n, K, L, parity):
        # where the window eigenvalues cluster ((96, 48, 12) and (96, 16, 16)),
        # a fixed-point Newton on f and f' loses about ten digits; the pivot
        # form must not
        import tblim.polymap as polymap

        p = make(n, K, L, parity)
        m = p.time_rank
        diag, couplings = polymap._window_coefficients(p)
        guesses = np.linalg.eigvalsh(np.diag(diag) + np.diag(couplings[: m - 1], 1)
                                     + np.diag(couplings[: m - 1], -1))

        def block(ctx):
            diag, couplings = polymap._window_rows(p, ctx)
            return diag, couplings[: m - 1]

        self.assert_roots_match(block, guesses, link_residuals_hp(p).digits)

    def test_roots_match_scalar_newton_on_wilkinson(self):
        diag, off = TestRefineEigenvalues.wilkinson(21)
        guesses = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        self.assert_roots_match(lambda ctx: (diag, off), guesses, (30, 40, 60))

    @pytest.mark.parametrize("n,K,L,parity", FIXED_POINT_CASES)
    def test_same_verdicts_and_digits_as_scalar_route(self, monkeypatch, n, K, L, parity):
        import tblim.polymap as polymap

        p = make(n, K, L, parity)
        res = link_residuals_hp(p)
        monkeypatch.setattr(polymap, "_link_residuals_at", scalar_link_residuals_at)
        ref = link_residuals_hp(p)
        assert res.digits == ref.digits
        for (digits, r_op, r_eig), (_, s_op, s_eig) in zip(res.trials, ref.trials):
            assert (r_op < 1e-7, r_eig < 1e-8) == (s_op < 1e-7, s_eig < 1e-8)
            assert abs(r_op - s_op) < 1e-30 and abs(r_eig - s_eig) < 1e-30, digits

    def test_perturbed_block_fails_at_high_digits(self, monkeypatch):
        # past ~300 digits 2**P no longer fits a float, so the residuals must
        # come out of exact integer divisions
        import tblim.polymap as polymap

        exact = polymap.band_window_block

        def perturbed(p, ctx=None, cos=None):
            e = exact(p, ctx, cos)
            if ctx is None:
                e = e.copy()
                e[0, 1] += 1e-6
            else:
                e[0][1] += ctx.mpf("1e-6")
            return e

        monkeypatch.setattr(polymap, "band_window_block", perturbed)
        monkeypatch.setattr(polymap, "_starting_digits", lambda *args: 600)
        res = link_residuals_hp(make(24, 6, 18, Parity.PLUS))
        assert len(res.trials) >= 2 and min(res.digits) >= 600
        for digits, r_op, r_eig in res.trials:
            assert np.isfinite(r_op) and np.isfinite(r_eig)
            assert r_op >= 1e-7 and r_eig >= 1e-8, (digits, r_op, r_eig)


def test_import_leaves_mpmath_unloaded():
    import os
    import subprocess
    import sys

    import tblim

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tblim.__file__)))
    subprocess.run([sys.executable, "-c",
                    "import sys, tblim; assert 'mpmath' not in sys.modules"],
                   env=env, check=True)
