import numpy as np
import pytest

from nmfkit import diagnostics, linalg
from nmfkit.diagnostics import (
    KktReport,
    inom_h_surrogate,
    inom_w_surrogate,
    kkt_residual,
    parinom_surrogate,
)
from nmfkit.errors import ContractViolationError
from nmfkit.solvers import Algorithm, SolverConfig, solve
from nmfkit.verify import MAJORIZATION_TOL, majorization_gaps

from _util import planted_instance, random_instance


class TestKktResidual:
    def test_zero_at_exact_fit(self):
        V, pair = planted_instance(0)
        report = kkt_residual(V, pair.W, pair.H)
        assert report.w_residual <= 1e-12
        assert report.h_residual <= 1e-12

    def test_scalar_example(self):
        report = kkt_residual(np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]))
        # grad wrt H is 2*1*1 - 2*2 = -2; min(1, -2) = -2, so residual 2.
        assert report.h_residual == 2.0
        assert report.w_residual == 2.0
        assert report.combined == 2.0

    @pytest.mark.parametrize("w, h", [(1.0, float("nan")), (float("nan"), 1.0)])
    def test_nan_residual_reaches_combined(self, w, h):
        report = KktReport(w_residual=w, h_residual=h)
        assert np.isnan(report.combined)
        assert "combined: nan\n" in report.to_text()

    def test_transposition_invariance(self):
        for i in range(10):
            rng = np.random.default_rng(100 + i)
            V = rng.uniform(0, 1, (7, 9))
            W = rng.uniform(0, 1, (7, 3))
            H = rng.uniform(0, 1, (3, 9))
            a = kkt_residual(V, W, H)
            b = kkt_residual(V.T, H.T, W.T)
            assert abs(a.w_residual - b.h_residual) <= 1e-12
            assert abs(a.h_residual - b.w_residual) <= 1e-12
            assert abs(a.combined - b.combined) <= 1e-12

    def test_shape_error(self):
        with pytest.raises(ContractViolationError, match="cannot form residuals"):
            kkt_residual(np.ones((2, 2)), np.ones((3, 1)), np.ones((1, 2)))

    def test_solve_reduces_residual(self):
        for i in range(3):
            V, _ = random_instance(200 + i, n=10, m=12, r=3)
            config = SolverConfig(
                algorithm=Algorithm.INOM, rank=3, tol=1e-8, seed=300 + i
            )
            from nmfkit.solvers import initial_factors

            start = initial_factors(V, config.rank, config.seed)
            before = kkt_residual(V, start.W, start.H).combined
            pair, _ = solve(V, config)
            after = kkt_residual(V, pair.W, pair.H).combined
            assert after <= 1e-2 * before

    def test_report_text_is_key_value(self):
        report = kkt_residual(np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]))
        text = report.to_text()
        assert "w_residual: " in text
        assert "h_residual: " in text
        assert "combined: " in text


class TestSurrogates:
    def test_inom_surrogates_touch_objective(self):
        for i in range(10):
            V, pair = random_instance(400 + i)
            W, H = pair.W, pair.H
            f = linalg.frobenius_residual(V, W, H)
            assert abs(inom_h_surrogate(V, W, H, H) - f) <= 1e-9 * max(1.0, f)
            assert abs(inom_w_surrogate(V, W, H, W) - f) <= 1e-9 * max(1.0, f)

    @pytest.mark.parametrize("n, m, r", [(2, 2, 1), (3, 40, 2), (40, 3, 3), (17, 29, 5)])
    def test_inom_w_surrogate_is_the_mirrored_quadratic_bound(self, n, m, r):
        # The W bound is the H bound of the transposed problem; it must agree
        # with the W-side formula written out, up to summation order.
        rng = np.random.default_rng(n * m * r)
        V = rng.uniform(0.0, 1.0, (n, m))
        W_ref = rng.uniform(0.0, 1.0, (n, r))
        H = rng.uniform(0.0, 1.0, (r, m))
        for W in (W_ref, rng.uniform(0.0, 2.0, (n, r))):
            G = H @ H.T
            nu = linalg.max_row_sum(2.0 * G)
            f_ref = linalg.frobenius_residual(V, W_ref, H)
            grad = 2.0 * (W_ref @ G) - 2.0 * (V @ H.T)
            D = W - W_ref
            explicit = f_ref + float(np.sum(grad * D)) + 0.5 * nu * float(np.sum(D * D))
            got = inom_w_surrogate(V, W_ref, H, W)
            assert abs(got - explicit) <= 8 * np.finfo(float).eps * max(1.0, explicit)

    def test_inom_surrogates_dominate(self):
        rng = np.random.default_rng(5)
        for i in range(5):
            V, pair = random_instance(500 + i)
            W, H = pair.W, pair.H
            for _ in range(50):
                Hs = rng.uniform(0.0, 2.0, H.shape)
                g = inom_h_surrogate(V, W, H, Hs)
                f = linalg.frobenius_residual(V, W, Hs)
                assert g >= f - 1e-9
                Ws = rng.uniform(0.0, 2.0, W.shape)
                g = inom_w_surrogate(V, W, H, Ws)
                f = linalg.frobenius_residual(V, Ws, H)
                assert g >= f - 1e-9

    def test_parinom_surrogate_touches_and_dominates(self):
        rng = np.random.default_rng(6)
        for i in range(5):
            V, pair = random_instance(600 + i)
            W, H = pair.W, pair.H
            f = linalg.frobenius_residual(V, W, H)
            assert abs(parinom_surrogate(V, W, H, W, H) - f) <= 1e-9 * max(1.0, f)
            for _ in range(50):
                Ws = rng.uniform(1e-3, 2.0, W.shape)
                Hs = rng.uniform(1e-3, 2.0, H.shape)
                g = parinom_surrogate(V, W, H, Ws, Hs)
                fs = linalg.frobenius_residual(V, Ws, Hs)
                assert g >= fs - 1e-9

    def test_parinom_update_minimizes_surrogate(self):
        from nmfkit.solvers import parinom_update

        rng = np.random.default_rng(7)
        V, pair = random_instance(700)
        W, H = pair.W, pair.H
        Wn, Hn = parinom_update(V, W, H)
        g_min = parinom_surrogate(V, W, H, Wn, Hn)
        for _ in range(25):
            Ws = np.maximum(1e-9, Wn * rng.uniform(0.8, 1.2, W.shape))
            Hs = np.maximum(1e-9, Hn * rng.uniform(0.8, 1.2, H.shape))
            assert parinom_surrogate(V, W, H, Ws, Hs) >= g_min - 1e-9


def _within_tol(gaps):
    return all(gap <= MAJORIZATION_TOL for gap in gaps)


class TestMajorizationGaps:
    def test_zero_samples_equality_only(self):
        V, pair = random_instance(900)
        for alg in (Algorithm.INOM, Algorithm.PARINOM):
            gaps = majorization_gaps(V, pair, alg, samples=0)
            assert _within_tol(gaps)
            assert gaps.domination == 0.0

    def test_inom_hundred_samples_no_violations(self):
        V, pair = random_instance(901, n=4, m=6, r=2)
        gaps = majorization_gaps(V, pair, Algorithm.INOM, samples=100, seed=1)
        assert _within_tol(gaps)

    def test_parinom_gaps_within_tol(self):
        V, pair = random_instance(902)
        gaps = majorization_gaps(V, pair, Algorithm.PARINOM, samples=100, seed=2)
        assert _within_tol(gaps)

    def test_unsupported_algorithm_rejected(self):
        # ACC_PARINOM steps with the PARINOM map but has no bound of its own.
        V, pair = random_instance(903)
        for alg in (Algorithm.MU, Algorithm.ACC_PARINOM):
            with pytest.raises(ContractViolationError, match="no majorization bound"):
                majorization_gaps(V, pair, alg, samples=1)

    def test_parinom_needs_strictly_positive_factors(self):
        V, pair = random_instance(903)
        pair.H[0, 0] = 0.0
        with pytest.raises(ContractViolationError, match="strictly positive"):
            majorization_gaps(V, pair, Algorithm.PARINOM, samples=1)

    def test_nan_gap_is_kept(self, monkeypatch):
        # NaN away from the anchor in the second of INOM's two bounds.
        original = diagnostics.inom_w_surrogate

        def nan_away(V, W_ref, H, W):
            return original(V, W_ref, H, W) if W is W_ref else float("nan")

        monkeypatch.setattr(diagnostics, "inom_w_surrogate", nan_away)
        V, pair = random_instance(905)
        gaps = majorization_gaps(V, pair, Algorithm.INOM, samples=3)
        assert np.isnan(gaps.domination)
        assert gaps.anchor <= MAJORIZATION_TOL

    def test_gaps_hold_along_solve_iterates(self):
        # Spot-check every 10th iterate visited by solve() for both
        # algorithms with a bound of their own.
        for alg in (Algorithm.INOM, Algorithm.PARINOM):
            V, _ = random_instance(904, n=8, m=9, r=2)
            seen = []

            def spot_check(k, state, _V=V, _alg=alg):
                if k % 10 == 0:
                    gaps = majorization_gaps(_V, state, _alg, samples=10, seed=k)
                    seen.append(_within_tol(gaps))

            config = SolverConfig(algorithm=alg, rank=2, tol=1e-12, max_iters=60, seed=3)
            solve(V, config, callback=spot_check)
            assert seen and all(seen)
