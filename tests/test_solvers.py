import math

import numpy as np
import pytest

from nmfkit import linalg, solvers
from nmfkit.diagnostics import inom_h_surrogate, nmf_gradients
from nmfkit.errors import (
    ContractViolationError,
    DegenerateFactorError,
    NumericalFailureError,
    PositivityError,
)
from nmfkit.solvers import (
    Algorithm,
    FactorPair,
    SolverConfig,
    fast_hals_iterate,
    initial_factors,
    inom_iterate,
    inom_update_h,
    inom_update_w,
    mu_iterate,
    parinom_iterate,
    parinom_update,
    solve,
)

from _util import planted_instance, random_instance

ALL = list(Algorithm)


def objective(V, pair):
    return linalg.frobenius_residual(V, pair.W, pair.H)


class TestInomUpdates:
    def test_h_gradient_vanishes_at_fit(self):
        V, pair = planted_instance(0)
        Hn, _ = inom_update_h(V, pair.W, pair.H)
        assert np.abs(Hn - pair.H).max() <= 1e-12

    def test_h_scalar_example(self):
        V, W, H = np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]])
        Hn, mu = inom_update_h(V, W, H)
        assert mu == 2.0
        assert Hn == np.array([[2.0]])
        assert linalg.frobenius_residual(V, W, Hn) == 0.0

    def test_h_step_descends_surrogate_and_objective(self):
        rng = np.random.default_rng(8)
        V = linalg.normalize_columns(rng.uniform(0.5, 1.5, (4, 6)))
        W = linalg.normalize_columns(rng.uniform(0.1, 1.0, (4, 2)))
        H = rng.uniform(0.1, 1.0, (2, 6))
        Hn, _ = inom_update_h(V, W, H)
        g_new = inom_h_surrogate(V, W, H, Hn)
        g_old = inom_h_surrogate(V, W, H, H)
        f_old = linalg.frobenius_residual(V, W, H)
        f_new = linalg.frobenius_residual(V, W, Hn)
        assert g_new <= g_old + 1e-12
        assert f_new <= f_old + 1e-12

    def test_w_gradient_vanishes_at_fit(self):
        V, pair = planted_instance(1)
        Wn, *_ = inom_update_w(V, pair.W, pair.H)
        assert np.abs(Wn - pair.W).max() <= 1e-12

    def test_w_scalar_example(self):
        V, W, H = np.array([[2.0]]), np.array([[1.0]]), np.array([[2.0]])
        Wn, nu, *_ = inom_update_w(V, W, H)
        assert nu == 8.0
        assert Wn == np.array([[1.0]])

    def test_w_step_descends_objective(self):
        rng = np.random.default_rng(9)
        V = rng.uniform(0.5, 1.5, (5, 7))
        W = rng.uniform(0.1, 1.0, (5, 3))
        H = rng.uniform(0.1, 1.0, (3, 7))
        Wn, *_ = inom_update_w(V, W, H)
        assert linalg.frobenius_residual(V, Wn, H) <= linalg.frobenius_residual(
            V, W, H
        )

    def test_zero_factor_raises(self):
        V = np.ones((2, 2))
        with pytest.raises(DegenerateFactorError):
            inom_update_h(V, np.zeros((2, 1)), np.ones((1, 2)))
        with pytest.raises(DegenerateFactorError):
            inom_update_w(V, np.ones((2, 1)), np.zeros((1, 2)))

    def test_pre_projection_step_is_projected_gradient(self):
        # The update before clipping equals H - (1/mu) grad_H f; verified for
        # 10 instances against the analytic gradient and central differences.
        from _util import fd_gradient_h

        for i in range(10):
            V, pair = random_instance(100 + i, n=6, m=5, r=2)
            W, H = pair.W, pair.H
            G = W.T @ W
            mu = linalg.max_row_sum(2.0 * G)
            _, GH = nmf_gradients(V, W, H)
            pre = H - GH / mu
            Hn, mu_out = inom_update_h(V, W, H)
            assert mu_out == mu
            assert np.abs(np.maximum(0.0, pre) - Hn).max() <= 1e-12
            fd = fd_gradient_h(V, W, H)
            rel = np.linalg.norm(fd - GH) / np.linalg.norm(GH)
            assert rel <= 1e-6


class TestInomIterate:
    def test_fixed_point(self):
        V, pair = planted_instance(2)
        out, _ = inom_iterate(V, pair)
        assert np.abs(out.W - pair.W).max() <= 1e-12
        assert np.abs(out.H - pair.H).max() <= 1e-12

    def test_first_iteration_decreases_sim1_instance(self):
        rng = np.random.default_rng(10)
        V = linalg.normalize_columns(rng.uniform(100.0, 200.0, (100, 200)))
        config = SolverConfig(algorithm=Algorithm.INOM, rank=1, seed=11)
        state = initial_factors(V, config)
        f0 = objective(V, state)
        f1 = objective(V, inom_iterate(V, state)[0])
        assert f1 < f0

    def test_output_satisfies_invariants(self):
        for i in range(5):
            V, pair = random_instance(200 + i)
            out, _ = inom_iterate(V, pair)
            out.validate()


class TestParinom:
    def test_scalar_example(self):
        V, W, H = np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]])
        Wn, Hn = parinom_update(V, W, H)
        assert abs(Wn[0, 0] - 2.0**0.25) <= 1e-15
        assert abs(Hn[0, 0] - 2.0**0.25) <= 1e-15
        out, _ = parinom_iterate(V, FactorPair(W, H))
        f = linalg.frobenius_residual(V, out.W, out.H)
        assert abs(f - (2.0 - math.sqrt(2.0)) ** 2) <= 1e-12

    def test_fixed_point(self):
        V, pair = planted_instance(3)
        out, _ = parinom_iterate(V, pair)
        assert np.abs(out.W - pair.W).max() <= 1e-12
        assert np.abs(out.H - pair.H).max() <= 1e-12

    def test_update_order_is_irrelevant(self):
        # W' and H' are built from iteration-i values only, so evaluating the
        # raw maps one at a time in either order changes nothing.
        V, pair = random_instance(31)
        W, H = pair.W, pair.H
        Wn1, Hn1 = parinom_update(V, W, H)
        Hn2 = parinom_update(V, W, H)[1]
        Wn2 = parinom_update(V, W, H)[0]
        assert np.array_equal(Wn1, Wn2)
        assert np.array_equal(Hn1, Hn2)

    def test_objective_decreases(self):
        for i in range(5):
            V, pair = random_instance(400 + i)
            f0 = objective(V, pair)
            out, _ = parinom_iterate(V, pair)
            assert objective(V, out) <= f0 + 1e-9 * max(1.0, f0)


class TestPositivityGuard:
    # Zero rows of H make W H H^T zero in the PARINOM and MU W updates; a
    # zero column of H makes MU's W'^T W' H zero after a valid W update.
    @pytest.mark.parametrize(
        "step, W, H, what",
        [
            (parinom_iterate, [[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], "W"),
            (mu_iterate, [[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], "W"),
            (mu_iterate, [[1.0], [1.0]], [[1.0, 0.0]], "H"),
        ],
        ids=["parinom-W", "mu-W", "mu-H"],
    )
    def test_zero_denominator_raises(self, step, W, H, what):
        V = np.ones((2, 2))
        with pytest.raises(PositivityError, match=f"the (MU )?{what} update"):
            step(V, FactorPair(np.array(W), np.array(H)))


class TestMu:
    def test_fixed_point(self):
        V, pair = planted_instance(4)
        out, _ = mu_iterate(V, pair)
        assert np.abs(out.W - pair.W).max() <= 1e-12
        assert np.abs(out.H - pair.H).max() <= 1e-12

    def test_scalar_example_reaches_exact_fit(self):
        V = np.array([[2.0]])
        out, _ = mu_iterate(V, FactorPair(np.array([[1.0]]), np.array([[1.0]])))
        assert out.W == np.array([[1.0]])
        assert out.H == np.array([[2.0]])
        assert linalg.frobenius_residual(V, out.W, out.H) == 0.0

    def test_objective_decreases(self):
        for i in range(5):
            V, pair = random_instance(500 + i)
            f0 = objective(V, pair)
            assert objective(V, mu_iterate(V, pair)[0]) <= f0 + 1e-9 * max(1.0, f0)


class TestFastHals:
    def test_fixed_point(self):
        V, pair = planted_instance(5)
        out, _ = fast_hals_iterate(V, pair)
        assert np.abs(out.W - pair.W).max() <= 1e-12
        assert np.abs(out.H - pair.H).max() <= 1e-12

    def test_rank_one_sweep_matches_closed_form(self):
        # For r = 1 the sweep must reproduce the closed-form alternating
        # nonnegative least-squares solution: h = [V^T w]_+ / ||w||^2, then
        # w = [V h]_+ normalized.
        for i in range(10):
            rng = np.random.default_rng(600 + i)
            V = rng.uniform(-0.2, 1.0, (6, 8))
            V = np.maximum(V, 0.0)
            w = linalg.normalize_columns(rng.uniform(0.1, 1.0, (6, 1)))
            h = rng.uniform(0.1, 1.0, (1, 8))
            out, _ = fast_hals_iterate(V, FactorPair(w, h))
            h_star = np.maximum(0.0, (V.T @ w[:, 0]) / (w[:, 0] @ w[:, 0]))
            assert np.abs(out.H[0] - h_star).max() <= 1e-10
            w_raw = np.maximum(0.0, V @ h_star)
            w_star = w_raw / np.sqrt(w_raw @ w_raw)
            assert np.abs(out.W[:, 0] - w_star).max() <= 1e-10

    def test_objective_decreases_per_sweep(self):
        for i in range(5):
            V, pair = random_instance(700 + i)
            f0 = objective(V, pair)
            out, _ = fast_hals_iterate(V, pair)
            assert objective(V, out) <= f0 + 1e-9 * max(1.0, f0)
            out.validate()

    def test_zero_gram_diagonal_names_component(self):
        from nmfkit.errors import DegenerateComponentError

        V = np.ones((4, 5))
        W = np.ones((4, 2))
        W[:, 1] = 0.0
        H = np.ones((2, 5))
        with pytest.raises(DegenerateComponentError) as err:
            fast_hals_iterate(V, FactorPair(W, H))
        assert err.value.component == 1


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ContractViolationError):
            SolverConfig(algorithm=Algorithm.INOM, rank=0)
        with pytest.raises(ContractViolationError):
            SolverConfig(algorithm=Algorithm.INOM, rank=1, tol=0.0)
        with pytest.raises(ContractViolationError):
            SolverConfig(algorithm=Algorithm.INOM, rank=1, max_iters=0)
        with pytest.raises(ContractViolationError):
            SolverConfig(algorithm=Algorithm.INOM, rank=1, target_fraction=math.nan)

    def test_infinite_tol_is_allowed(self):
        SolverConfig(algorithm=Algorithm.INOM, rank=1, tol=math.inf)


class TestSolve:
    def test_rank_above_min_dimension_rejected(self):
        V = np.ones((3, 4))
        config = SolverConfig(algorithm=Algorithm.INOM, rank=4)
        with pytest.raises(ContractViolationError):
            solve(V, config)

    def test_negative_data_rejected(self):
        V = np.array([[1.0, -1.0]])
        with pytest.raises(ContractViolationError):
            solve(V, SolverConfig(algorithm=Algorithm.INOM, rank=1))

    def test_non_finite_data_rejected(self):
        for bad in (np.nan, np.inf):
            V = np.array([[1.0, bad], [2.0, 3.0]])
            with pytest.raises(ContractViolationError):
                solve(V, SolverConfig(algorithm=Algorithm.INOM, rank=1))

    def test_init_of_wrong_shape_rejected(self):
        V = np.ones((3, 4))
        config = SolverConfig(algorithm=Algorithm.INOM, rank=2)
        for init in (
            FactorPair(np.ones((3, 1)), np.ones((1, 4))),
            FactorPair(np.ones((3, 2)), np.ones((2, 5))),
        ):
            with pytest.raises(ContractViolationError):
                solve(V, config, init=init)

    def test_negative_init_rejected(self):
        V = np.ones((3, 4))
        config = SolverConfig(algorithm=Algorithm.INOM, rank=2)
        W = np.ones((3, 2))
        H = np.ones((2, 4))
        H[1, 2] = -1e-3
        with pytest.raises(ContractViolationError):
            solve(V, config, init=FactorPair(W, H))
        with pytest.raises(ContractViolationError):
            solve(V, config, init=FactorPair(-W, np.ones((2, 4))))

    def test_given_init_is_iterate_zero(self):
        V, start = random_instance(22)
        config = SolverConfig(algorithm=Algorithm.MU, rank=3, max_iters=2, seed=23)
        _, trace = solve(V, config, init=start)
        assert trace.objectives[0] == objective(V, start)
        seeded = initial_factors(V, config)
        assert trace.objectives[0] != objective(V, seeded)

    def test_infinite_tol_two_point_trace(self):
        V = np.random.default_rng(12).uniform(0.5, 1.5, (5, 6))
        config = SolverConfig(algorithm=Algorithm.INOM, rank=2, tol=math.inf, seed=3)
        _, trace = solve(V, config)
        assert len(trace) == 2
        assert trace.converged
        assert trace.stop_reason == "tol"

    def test_stop_reason_target(self):
        V = np.random.default_rng(12).uniform(0.5, 1.5, (5, 6))
        config = SolverConfig(
            algorithm=Algorithm.MU, rank=2, tol=math.inf, target_fraction=0.99, seed=3
        )
        _, trace = solve(V, config)
        assert trace.stop_reason == "target"
        assert trace.converged
        assert trace.final_objective <= 0.99 * trace.objectives[0]

    def test_stop_reason_max_iters(self):
        V = np.random.default_rng(12).uniform(0.5, 1.5, (5, 6))
        config = SolverConfig(
            algorithm=Algorithm.ACC_MU, rank=2, tol=1e-300, max_iters=3, seed=3
        )
        _, trace = solve(V, config)
        assert trace.stop_reason == "max_iters"
        assert not trace.converged
        assert trace.iterations == 3

    def test_sim1_all_algorithms_monotone_same_start(self):
        rng = np.random.default_rng(13)
        V = linalg.normalize_columns(rng.uniform(100.0, 200.0, (100, 200)))
        initial = []
        for alg in ALL:
            config = SolverConfig(algorithm=alg, rank=1, tol=1e-6, seed=14)
            _, trace = solve(V, config)
            assert trace.is_monotone()
            assert trace.converged
            initial.append(trace.objectives[0])
        assert np.ptp(initial) == 0.0  # identical seeded start for everyone

    def test_planted_residual_collapse_every_algorithm(self):
        for alg in ALL:
            for i in range(3):
                V, _ = planted_instance(900 + i)
                config = SolverConfig(
                    algorithm=alg, rank=2, target_fraction=1e-6, seed=15 + i
                )
                _, trace = solve(V, config)
                assert trace.final_objective <= 1e-6 * trace.objectives[0], alg
                assert trace.stop_reason == "target", alg

    def test_numerical_failure_carries_iteration(self, monkeypatch):
        def bad_update(V, W, H):
            return np.full_like(H, np.nan), 1.0

        monkeypatch.setattr(solvers, "inom_update_h", bad_update)
        V = np.ones((3, 4))
        config = SolverConfig(algorithm=Algorithm.INOM, rank=2, seed=16)
        with pytest.raises(NumericalFailureError) as err:
            solve(V, config)
        assert err.value.iteration == 1

    def test_inom_trace_records_step_sizes(self):
        V = np.random.default_rng(20).uniform(0.5, 1.5, (6, 7))
        config = SolverConfig(algorithm=Algorithm.INOM, rank=2, max_iters=3, tol=1e-15, seed=21)
        _, trace = solve(V, config)
        for rec in trace.records[1:]:
            assert rec.mu is not None and rec.mu > 0
            assert rec.nu is not None and rec.nu > 0
        assert trace.records[0].mu is None

    def test_trace_csv_format(self, tmp_path):
        V = np.random.default_rng(17).uniform(0.5, 1.5, (5, 6))
        config = SolverConfig(algorithm=Algorithm.MU, rank=2, max_iters=5, tol=1e-15, seed=18)
        _, trace = solve(V, config)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,objective,elapsed_s"
        assert len(lines) == len(trace) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == trace.objectives[0]

    def test_initial_factors_deterministic(self):
        V = np.ones((6, 7))
        config = SolverConfig(algorithm=Algorithm.INOM, rank=3, seed=19)
        a = initial_factors(V, config)
        b = initial_factors(V, config)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.H, b.H)
        a.validate()


class TestTraceObjective:
    """The trace's Gram-form objectives against the exact residual."""

    @staticmethod
    def _check(V, config):
        exact = []
        _, trace = solve(
            V, config, callback=lambda k, s: exact.append(objective(V, s))
        )
        recorded = trace.objectives[1:]
        threshold = linalg.GRAM_EXACT_BELOW * float(np.vdot(V, V))
        assert len(recorded) == len(exact)
        for k, (rec, ex) in enumerate(zip(recorded, exact), start=1):
            assert rec >= 0.0, (config.algorithm, k)
            if rec < threshold:
                assert rec == ex, (config.algorithm, k)
            else:
                assert abs(rec - ex) <= 1e-10 * ex, (config.algorithm, k)
        return recorded.min() < threshold

    @pytest.mark.parametrize("alg", ALL)
    def test_column_normalized_instance(self, alg):
        V, _ = random_instance(30, n=20, m=30)
        config = SolverConfig(algorithm=alg, rank=4, tol=1e-10, max_iters=300, seed=31)
        self._check(V, config)

    @pytest.mark.parametrize("alg", ALL)
    def test_unnormalized_instance_with_large_norm(self, alg):
        V = np.random.default_rng(32).uniform(100.0, 200.0, (20, 30))
        config = SolverConfig(algorithm=alg, rank=4, tol=1e-10, max_iters=300, seed=33)
        self._check(V, config)

    @pytest.mark.parametrize("alg", ALL)
    def test_planted_instance_reaches_exact_fallback(self, alg):
        V, _ = planted_instance(900)
        config = SolverConfig(algorithm=alg, rank=2, tol=1e-14, max_iters=1500, seed=15)
        assert self._check(V, config)
