import sys

import numpy as np
import pytest

from tblim.core_model import ModelParams, Parity, SignalVector, band_window_block, position_kind
from tblim.errors import DomainError, SupportError
from tblim.recon import (
    Verdict,
    conditioning_report,
    forward_observe,
    reconstruct,
    reconstruct_signal,
    reconstruction_verdict,
)
from tblim.spectral import svd_E


def make(n, K, L, parity):
    return ModelParams(n=n, K=K, L=L, parity=parity)


def window_signal(p, rng):
    coeffs = np.zeros(p.dim, dtype=complex)
    for r, j in enumerate(p.indices):
        if j <= p.L:
            coeffs[r] = rng.normal() + 1j * rng.normal()
    return SignalVector(coeffs, position_kind(p.parity))


class TestForwardObserve:
    def test_zero_signal(self):
        p = make(8, 3, 4, Parity.PLUS)
        data = forward_observe(SignalVector(np.zeros(p.dim), position_kind(Parity.PLUS)), p)
        assert np.all(data.values == 0)
        assert data.values.size == p.band_rank

    def test_matches_projector_product(self):
        from tblim.core_model import fourier_matrix

        p = make(8, 3, 4, Parity.MINUS)
        rng = np.random.default_rng(0)
        f_sig = window_signal(p, rng)
        data = forward_observe(f_sig, p)
        full = fourier_matrix(p).entries @ f_sig.coeffs
        band = [r for r, k in enumerate(p.indices) if k <= p.K]
        assert np.max(np.abs(data.values - full[band])) < 1e-12

    def test_support_violation(self):
        p = make(8, 3, 2, Parity.PLUS)
        bad = SignalVector(np.ones(p.dim), position_kind(Parity.PLUS))
        with pytest.raises(SupportError):
            forward_observe(bad, p)


class TestReconstruct:
    def test_full_band_exact_recovery(self):
        p = make(8, 8, 4, Parity.PLUS)
        rng = np.random.default_rng(1)
        f_sig = window_signal(p, rng)
        rep = reconstruct(forward_observe(f_sig, p))
        assert rep.verdict is Verdict.EXACT
        assert np.max(np.abs(rep.f_hat.coeffs - f_sig.coeffs)) < 1e-10

    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_round_trip_error_bound(self, parity):
        # recovery needs band rank >= window rank, i.e. K >= L
        p = make(8, 4, 3, parity)
        rng = np.random.default_rng(2)
        f_sig = window_signal(p, rng)
        rep = reconstruct(forward_observe(f_sig, p))
        sig = rep.singular_values
        err = np.linalg.norm(rep.f_hat.coeffs - f_sig.coeffs) / np.linalg.norm(f_sig.coeffs)
        assert err < 1e-8 * sig[0] / sig[rep.kept_modes - 1]

    def test_rank_deficient_unrecoverable(self):
        p = make(8, 1, 6, Parity.PLUS)
        rng = np.random.default_rng(3)
        rep = reconstruct(forward_observe(window_signal(p, rng), p))
        assert rep.verdict is Verdict.UNRECOVERABLE
        assert rep.discarded_modes > 0

    def test_singular_values_padded_to_window_rank(self):
        p = make(8, 1, 6, Parity.PLUS)
        rng = np.random.default_rng(4)
        rep = reconstruct(forward_observe(window_signal(p, rng), p))
        assert rep.singular_values.size == p.time_rank
        assert rep.kept_modes + rep.discarded_modes == p.time_rank


def truncated_pinv(e, b, kept):
    """Test-local truncated pseudo-inverse solution through a full SVD."""
    u, s, vh = np.linalg.svd(e)
    return vh[:kept].T @ ((u[:, :kept].T @ b) / s[:kept])


def all_instances(max_n):
    for n in range(1, max_n + 1):
        for K in range(n + 1):
            for L in range(n + 1):
                for parity in (Parity.PLUS, Parity.MINUS) if n >= 2 else (Parity.PLUS,):
                    yield make(n, K, L, parity)


class TestTruncationRule:
    """The least-squares route keeps exactly the modes the verdict rule keeps
    on the singular values it reports, and its solution is the truncated
    pseudo-inverse of the band x window block."""

    @pytest.mark.parametrize("tol", [None, 0.0, 1e-14, 1e-3, "sigma_1", 2.0])
    def test_every_instance_up_to_n12(self, tol):
        rng = np.random.default_rng(11)
        for p in all_instances(12):
            f_sig = window_signal(p, rng)
            x = f_sig.coeffs[: p.time_rank]
            e = band_window_block(p)
            ref_s = np.zeros(p.time_rank)
            if e.size:
                ref_s[: min(e.shape)] = np.linalg.svd(e, compute_uv=False)
            top = ref_s[0] if p.time_rank else 0.0
            data = forward_observe(f_sig, p)
            zero_tol = tol
            if tol == "sigma_1":  # the sigma_1 the rule reads is the reported one
                zero_tol = reconstruct(data).singular_values[0] if p.time_rank else 0.0
            rep = reconstruct(data, zero_tol)
            where = (p, tol)
            s = rep.singular_values
            assert s.shape == (p.time_rank,), where
            assert np.max(np.abs(s - ref_s), initial=0.0) <= 1e-13 * max(top, 1.0), where
            assert (rep.verdict, rep.kept_modes) == \
                reconstruction_verdict(s, p.time_rank, zero_tol), where
            assert rep.discarded_modes == p.time_rank - rep.kept_modes, where
            kept = rep.kept_modes
            assert rep.worst_kept_sigma == (s[kept - 1] if kept else 0.0), where
            got = rep.f_hat.coeffs
            assert np.all(got[p.time_rank:] == 0), where
            norm = np.linalg.norm(x)
            if kept == 0:
                assert np.all(got == 0), where
                continue
            want = truncated_pinv(e, e @ x, kept)
            bound = 1e-12 * (s[0] / s[kept - 1]) * norm
            assert np.linalg.norm(got[: p.time_rank] - want) <= bound, where
            # E x_hat is the band data less its part on the discarded modes,
            # which is at most sigma_(kept+1) ||x||
            below = ref_s[kept] if kept < p.time_rank else 0.0
            miss = np.linalg.norm(e @ (got[: p.time_rank] - x))
            assert miss <= (1e-12 * s[0] + below) * norm, where

    def test_debug_log_line_per_solve(self, caplog):
        p = make(8, 4, 3, Parity.MINUS)
        data = forward_observe(window_signal(p, np.random.default_rng(14)), p)
        with caplog.at_level("DEBUG", logger="tblim"):
            reconstruct(data)
            reconstruct(data, 0.5)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("reconstruct")]
        assert len(lines) == 2
        assert "1 least-squares solve" in lines[0] and "2 least-squares solve" in lines[1]


class TestVerdictRule:
    def test_rule(self):
        assert reconstruction_verdict([1.0, 0.5], 2) == (Verdict.EXACT, 2)
        assert reconstruction_verdict([1.0, 1e-9], 2) == (Verdict.ILL_CONDITIONED, 2)
        assert reconstruction_verdict([1.0, 1e-11], 2) == (Verdict.UNRECOVERABLE, 1)
        assert reconstruction_verdict([1.0], 2) == (Verdict.UNRECOVERABLE, 1)  # band narrower
        assert reconstruction_verdict([1.0, 1e-9], 2, zero_tol=1e-8) == (Verdict.UNRECOVERABLE, 1)
        assert reconstruction_verdict([1.0, 0.0], 2, zero_tol=0.0) == (Verdict.UNRECOVERABLE, 1)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN threshold keeps no mode, so every verdict would read unrecoverable
        p = make(8, 3, 3, Parity.PLUS)
        data = forward_observe(window_signal(p, np.random.default_rng(0)), p)
        for call in (lambda: reconstruct(data, tol),
                     lambda: reconstruction_verdict([1.0, 0.5], 2, tol),
                     lambda: conditioning_report(p, tol)):
            with pytest.raises(DomainError, match="finite tolerance >= 0"):
                call()

    def test_agrees_with_reconstruct(self):
        rng = np.random.default_rng(5)
        for K, L in [(8, 3), (1, 6), (3, 3), (2, 5)]:
            p = make(8, K, L, Parity.MINUS)
            rep = reconstruct(forward_observe(window_signal(p, rng), p))
            assert reconstruction_verdict(rep.singular_values, p.time_rank) == \
                (rep.verdict, rep.kept_modes)


class TestConditioning:
    def test_full_band_all_ones(self):
        eigs, near_zero = conditioning_report(make(6, 6, 3, Parity.PLUS))
        assert np.allclose(eigs, 1.0)
        assert near_zero == 0

    def test_eigenvalues_in_unit_interval(self):
        eigs, _ = conditioning_report(make(8, 3, 4, Parity.MINUS))
        assert eigs.min() > -1e-12 and eigs.max() < 1 + 1e-12

    def test_near_zero_count_matches_svd_rank(self):
        # (17, 8, 8, plus) has sigma_min/sigma_max = 3.9e-8: every mode is kept
        cases = [(8, 2, 5), (17, 8, 8), (18, 9, 9), (19, 9, 9), (19, 10, 10),
                 (12, 3, 9), (12, 12, 12), (12, 0, 5), (12, 5, 0)]
        rng = np.random.default_rng(6)
        for n, K, L in cases:
            for parity in (Parity.PLUS, Parity.MINUS):
                p = make(n, K, L, parity)
                _, near_zero = conditioning_report(p)
                sig = svd_E(p)
                tol = 1e-10 * sig[0]
                rank = int(np.sum(sig > tol))
                assert near_zero == p.time_rank - rank
                rep = reconstruct(forward_observe(window_signal(p, rng), p))
                assert near_zero == rep.discarded_modes

    def test_sigma_min_monotone_in_band(self):
        # report-level property: enlarging the band never hurts the worst mode
        n, L = 8, 3
        prev = -1.0
        for K in range(L, n + 1):
            p = make(n, K, L, Parity.PLUS)
            sig = np.sort(svd_E(p))[::-1][: p.time_rank]
            smin = sig[-1]
            assert smin >= prev - 1e-12
            prev = smin


class TestFullSignalWrapper:
    def test_round_trip(self):
        n, K, L = 8, 5, 4
        rng = np.random.default_rng(5)
        f = np.zeros(2 * n, dtype=complex)
        for x in list(range(0, L + 1)) + list(range(2 * n - L, 2 * n)):
            f[x] = rng.normal() + 1j * rng.normal()
        rep_plus, rep_minus, f_hat = reconstruct_signal(f, n, K, L)
        assert rep_plus.verdict is Verdict.EXACT
        assert rep_minus.verdict is Verdict.EXACT
        assert np.max(np.abs(f_hat - f)) < 1e-8

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            reconstruct_signal(np.zeros(7), 4, 2, 2)

    def test_support_violation_propagates(self):
        n = 6
        f = np.ones(2 * n, dtype=complex)
        with pytest.raises(SupportError):
            reconstruct_signal(f, n, 3, 2)


class TestBlockRoute:
    def test_no_singular_vectors_formed(self, monkeypatch):
        svd = np.linalg.svd

        def values_only(a, *args, **kwargs):
            assert kwargs.get("compute_uv") is False, "an SVD formed singular vectors"
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", values_only)
        n, K, L = 24, 6, 10
        f = np.zeros(2 * n, dtype=complex)
        f[: L + 1] = np.random.default_rng(9).normal(size=L + 1)
        f[2 * n - L:] = f[L:0:-1]
        reconstruct_signal(f, n, K, L, 1e-3)
        for parity in (Parity.PLUS, Parity.MINUS):
            conditioning_report(make(n, K, L, parity))


    def test_no_n_by_n_builder_on_recon_path(self, monkeypatch):
        import tblim.cli  # noqa: F401  (loads every tblim module)

        def refuse(*args, **kwargs):
            raise AssertionError("an n x n builder ran on the band x window route")

        for name, module in list(sys.modules.items()):
            if name == "tblim" or name.startswith("tblim."):
                for attr in ("fourier_matrix", "tb_operator", "projector_band"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        n, K, L = 64, 40, 12
        rng = np.random.default_rng(8)
        f = np.zeros(2 * n, dtype=complex)
        for x in list(range(0, L + 1)) + list(range(2 * n - L, 2 * n)):
            f[x] = rng.normal() + 1j * rng.normal()
        rep_plus, rep_minus, f_hat = reconstruct_signal(f, n, K, L)
        assert rep_plus.verdict is Verdict.EXACT and rep_minus.verdict is Verdict.EXACT
        assert np.max(np.abs(f_hat - f)) < 1e-8
        for parity in (Parity.PLUS, Parity.MINUS):
            p = make(n, K, L, parity)
            eigs, near_zero = conditioning_report(p)
            assert eigs.size == p.time_rank and near_zero == 0
            assert svd_E(p).size == p.dim
