import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nmfkit import linalg, solvers, squarem, verify
from nmfkit.diagnostics import inom_h_surrogate, nmf_gradients
from nmfkit.errors import ContractViolationError, NumericalFailureError
from nmfkit.solvers import (
    Algorithm,
    FactorPair,
    SolverConfig,
    base_map,
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

from _util import (
    MatmulCounter,
    hals_sweep_oracle,
    planted_instance,
    random_instance,
    with_target_at,
)

ALL = list(Algorithm)

# Inputs that are no real matrix: a ragged nesting, a non-numeric entry, a
# list of complex numbers and a complex array.
NOT_REAL_MATRICES = [
    [[1.0, 2.0], [3.0]],
    [["a", "b"]],
    [[1 + 1j, 2.0], [3.0, 4j]],
    np.array([[1 + 1j, 2.0], [3.0, 4j]]),
]
NOT_REAL_IDS = ["ragged", "strings", "complex-list", "complex-array"]


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
        with pytest.raises(NumericalFailureError, match="no H step size"):
            inom_update_h(V, np.zeros((2, 1)), np.ones((1, 2)))
        with pytest.raises(NumericalFailureError, match="no W step size"):
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


# r = 1, r = min(n, m) and a wide V.
BLOCK_SHAPES = [(7, 5, 1), (7, 5, 5), (4, 60, 3)]


class TestSharedBlockSteps:
    @pytest.mark.parametrize("n, m, r", BLOCK_SHAPES)
    def test_both_blocks_match_written_out_steps(self, n, m, r):
        V, pair = random_instance(n * m + r, n=n, m=m, r=r)
        W, H = pair.W, pair.H
        G = W.T @ W
        mu = linalg.max_row_sum(2.0 * G)
        Hn, mu_out = inom_update_h(V, W, H)
        assert mu_out == mu
        assert np.array_equal(
            Hn, np.maximum(0.0, H + (2.0 * (W.T @ V) - 2.0 * (G @ H)) / mu)
        )
        G = H @ H.T
        nu = linalg.max_row_sum(2.0 * G)
        Wn, nu_out, VHt, G_out = inom_update_w(V, W, H)
        assert nu_out == nu
        assert np.array_equal(VHt, V @ H.T) and np.array_equal(G_out, G)
        assert np.array_equal(
            Wn, np.maximum(0.0, W + (2.0 * (V @ H.T) - 2.0 * (W @ G)) / nu)
        )
        # The W step is the H step of the transposed problem.
        Ht, mu_t = inom_update_h(V.T, H.T, W.T)
        assert mu_t == nu_out
        np.testing.assert_allclose(Ht.T, Wn, rtol=1e-12, atol=1e-15)
        out, _ = fast_hals_iterate(V, pair)
        W_ref, H_ref = hals_sweep_oracle(V, W, H)
        assert np.array_equal(out.W, W_ref) and np.array_equal(out.H, H_ref)

    @pytest.mark.parametrize(
        "scale", [2.0**-500, 1.0, 2.0**500], ids=["tiny", "unit", "huge"]
    )
    def test_projected_step_equals_doubled_form(self, scale):
        # The step divides (cross - GX) by the row sum of G and returns twice
        # that row sum: bit for bit the quotient of the doubled products by
        # the row sum of 2 G.
        rng = np.random.default_rng(520)
        for r, m in [(1, 5), (4, 9), (12, 40)]:
            cross, GX, X = (scale * rng.uniform(0.0, 2.0, (r, m)) for _ in range(3))
            G = scale * rng.uniform(0.0, 1.0, (r, r))
            want = np.maximum(
                0.0, X + (2.0 * cross - 2.0 * GX) / linalg.max_row_sum(2.0 * G)
            )
            cross0 = cross.copy()
            got, mu = solvers._projected_step(cross, GX.copy(), X, G, "W", "H")
            assert got.tobytes() == want.tobytes()
            assert mu == linalg.max_row_sum(2.0 * G)
            assert np.array_equal(cross, cross0)  # only read


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
        state = initial_factors(V, config.rank, config.seed)
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

    def test_quarter_power_step_matches_pow_form(self):
        rng = np.random.default_rng(410)
        for shape in [(7, 3), (3, 11), (40, 20)]:
            N, D, X = (rng.uniform(0.05, 5.0, shape) for _ in range(3))
            pow_form = np.maximum(solvers.POSITIVITY_FLOOR, ((N * X**4) / D) ** 0.25)
            buf = D.copy()
            got = solvers._ratio_step(N, buf, X, "W", quarter=True)
            assert got is buf  # written into the step's own denominator
            assert np.all(np.abs(got - pow_form) <= 1e-14 * pow_form)

    def test_planted_pair_with_huge_h_is_fixed_point(self):
        # H * H**3 overflows here, so a step that forms H**4 turns H into inf.
        V, pair = planted_instance(3)
        H = pair.H * 1e80
        V = pair.W @ H
        out, _ = parinom_iterate(V, FactorPair(pair.W, H))
        assert np.all(np.isfinite(out.H))
        assert np.abs(out.W - pair.W).max() <= 1e-12
        assert (np.abs(out.H - H) / H).max() <= 1e-12

    def test_inputs_and_carried_products_unchanged(self):
        V, pair = random_instance(411, n=20, m=30, r=4)
        v_sq = float(np.vdot(V, V))
        W0, H0 = pair.W.copy(), pair.H.copy()
        products = fresh_products(V, pair)
        saved = tuple(p.copy() for p in products)
        out, info = parinom_iterate(V, pair, v_sq=v_sq, products=products)
        assert np.array_equal(pair.W, W0) and np.array_equal(pair.H, H0)
        for p, q in zip(products, saved):
            assert np.array_equal(p, q)
        # The returned pair and its products share no memory with the inputs.
        for a in (out.W, out.H, *info["products"]):
            for b in (V, pair.W, pair.H, *products):
                assert not np.shares_memory(a, b)


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
        with pytest.raises(NumericalFailureError, match=f"the (MU )?{what} update"):
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

    def test_ratio_step_matches_out_of_place_formula(self):
        rng = np.random.default_rng(510)
        for shape in [(7, 3), (3, 11), (40, 20)]:
            N, D, X = (rng.uniform(0.05, 5.0, shape) for _ in range(3))
            X[0] *= 1e-13  # a row whose update falls to the floor
            N0, X0 = N.copy(), X.copy()
            out_of_place = np.maximum(solvers.POSITIVITY_FLOOR, X * (N / D))
            buf = D.copy()
            got = solvers._ratio_step(N, buf, X, "MU W")
            assert got is buf  # written into the step's own denominator
            assert got.tobytes() == out_of_place.tobytes()
            assert np.array_equal(N, N0) and np.array_equal(X, X0)

    def test_objective_decreases(self):
        for i in range(5):
            V, pair = random_instance(500 + i)
            f0 = objective(V, pair)
            assert objective(V, mu_iterate(V, pair)[0]) <= f0 + 1e-9 * max(1.0, f0)

    def test_objective_matches_exact_residual(self):
        # The objective takes the rescaled W'^T W' against the returned pair's
        # H H^T; only its rounding differs from the exact residual.
        for i in range(20):
            V, pair = random_instance(530 + i, n=15 + i, m=25, r=1 + i % 6)
            v_sq = float(np.vdot(V, V))
            out, info = mu_iterate(V, pair, v_sq=v_sq)
            assert abs(info["objective"] - objective(V, out)) <= 1e-12 * v_sq


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
        V = np.ones((4, 5))
        W = np.ones((4, 2))
        W[:, 1] = 0.0
        H = np.ones((2, 5))
        with pytest.raises(NumericalFailureError, match="component 1$"):
            fast_hals_iterate(V, FactorPair(W, H))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ContractViolationError):
            SolverConfig(algorithm=Algorithm.INOM, rank=0)
        with pytest.raises(ContractViolationError):
            SolverConfig(algorithm=Algorithm.INOM, rank=1, tol=0.0)
        with pytest.raises(ContractViolationError):
            SolverConfig(algorithm=Algorithm.INOM, rank=1, max_iters=0)
        with pytest.raises(ContractViolationError):
            SolverConfig(algorithm=Algorithm.INOM, rank=1, target=math.nan)

    @pytest.mark.parametrize("bad", ["inom", None, 1])
    def test_algorithm_outside_the_enum_rejected(self, bad):
        with pytest.raises(ContractViolationError, match="inom, parinom, mu"):
            SolverConfig(bad, rank=2)

    def test_infinite_tol_is_allowed(self):
        SolverConfig(algorithm=Algorithm.INOM, rank=1, tol=math.inf)


class TestSolve:
    def test_rank_above_min_dimension_rejected(self):
        V = np.ones((3, 4))
        config = SolverConfig(algorithm=Algorithm.INOM, rank=4)
        with pytest.raises(ContractViolationError):
            solve(V, config)

    @pytest.mark.parametrize("scale", [0.0, 1e-300])
    def test_underflowing_norm_rejected(self, scale):
        # ||V||_F**2 below the smallest normal float64, an all-zero V included.
        V = scale * np.ones((3, 4))
        config = SolverConfig(algorithm=Algorithm.INOM, rank=2)
        with pytest.raises(ContractViolationError, match=f"largest entry {scale!r}"):
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

    def test_non_finite_init_named_as_a_float(self):
        V = np.ones((3, 4))
        W = np.ones((3, 2))
        W[1, 0] = np.nan
        config = SolverConfig(algorithm=Algorithm.INOM, rank=2)
        with pytest.raises(ContractViolationError, match=r"entry \(1, 0\) is nan$"):
            solve(V, config, init=FactorPair(W, np.ones((2, 4))))

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

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.value)
    @pytest.mark.parametrize(
        "zero, message",
        [
            (lambda W, H: W[2].fill(0.0), "init W row 2 has a sum of squares of 0.0,"),
            (lambda W, H: W[:, 1].fill(0.0), "init W column 1 has a sum of squares of 0.0,"),
            (lambda W, H: W.fill(0.0), "init W row 0 has a sum of squares of 0.0,"),
            (lambda W, H: H[1].fill(0.0), "init H row 1 has a sum of squares of 0.0,"),
            (lambda W, H: H[:, 4].fill(0.0), "init H column 4 has a sum of squares of 0.0,"),
            (lambda W, H: W[2].fill(5e-324), "init W row 2 has a sum of squares of 0.0,"),
            (lambda W, H: W[:, 1].fill(5e-324), "init W column 1 has a sum of squares of 0.0,"),
            (lambda W, H: H[:, 4].fill(5e-324), "init H column 4 has a sum of squares of 0.0,"),
            # 1e-160 is normal, but its square is subnormal.
            (lambda W, H: H[1].fill(1e-160), "init H row 1 has a sum of squares of 1.2e-319,"),
        ],
        ids=[
            "W-row", "W-column", "W-all", "H-row", "H-column",
            "W-row-subnormal", "W-column-subnormal", "H-column-subnormal",
            "H-row-square-subnormal",
        ],
    )
    def test_init_with_zero_line_refused(self, alg, zero, message):
        # Some map cannot step from such a start (a zero denominator, Gram
        # diagonal or step size, or a non-finite quotient), so every
        # algorithm refuses it up front, without a numpy warning.
        V, start = random_instance(25)
        zero(start.W, start.H)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match=f"^{message}"):
                solve(V, SolverConfig(algorithm=alg, rank=3), init=start)

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.value)
    def test_init_with_zero_entries_runs(self, alg):
        # The rule is about whole rows and columns, not single entries.
        V, start = random_instance(25)
        start.W[0, 0] = start.W[3, 2] = start.H[1, 5] = 0.0
        _, trace = solve(V, SolverConfig(algorithm=alg, rank=3, max_iters=5), init=start)
        assert trace.is_monotone()

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.value)
    @pytest.mark.parametrize("factor", ["W", "H"])
    def test_init_whose_objective_overflows_refused(self, alg, factor):
        V, start = random_instance(25)
        setattr(start, factor, getattr(start, factor) * 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            with pytest.raises(ContractViolationError, match="rescale V or init$"):
                solve(V, SolverConfig(algorithm=alg, rank=3), init=start)

    def test_one_dimensional_data_refused(self):
        with pytest.raises(ContractViolationError, match="V must be 2-D, got 1-D"):
            solve(np.ones(4), SolverConfig(algorithm=Algorithm.INOM, rank=1))

    @pytest.mark.parametrize("bad", NOT_REAL_MATRICES, ids=NOT_REAL_IDS)
    def test_data_that_is_not_a_real_matrix_refused(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(ContractViolationError, match="^V must "):
                solve(bad, SolverConfig(algorithm=Algorithm.MU, rank=1))

    @pytest.mark.parametrize("bad", NOT_REAL_MATRICES, ids=NOT_REAL_IDS)
    def test_init_that_is_not_a_real_matrix_refused(self, bad):
        V = np.ones((2, 2))
        config = SolverConfig(algorithm=Algorithm.MU, rank=1)
        with pytest.raises(ContractViolationError, match="^init W must "):
            solve(V, config, init=FactorPair(bad, np.ones((1, 2))))
        with pytest.raises(ContractViolationError, match="^init H must "):
            solve(V, config, init=FactorPair(np.ones((2, 1)), bad))

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.value)
    @pytest.mark.parametrize(
        "cast",
        [lambda X: X, lambda X: X.astype(np.float32), lambda X: X.tolist()],
        ids=["int", "float32", "list"],
    )
    def test_init_coerced_to_float64_as_v_is(self, alg, cast):
        # An integer, float32 or nested-list start solves bit for bit as the
        # same values given in float64, and the factors come back float64.
        rng = np.random.default_rng(24)
        V = rng.uniform(0.5, 1.5, (20, 30))
        W, H = rng.integers(1, 5, (20, 3)), rng.integers(1, 5, (3, 30))
        config = SolverConfig(algorithm=alg, rank=3, max_iters=5)
        pair, trace = solve(V, config, init=FactorPair(cast(W), cast(H)))
        ref, ref_trace = solve(V, config, init=FactorPair(W * 1.0, H * 1.0))
        assert pair.W.dtype == pair.H.dtype == np.float64
        assert np.array_equal(pair.W, ref.W) and np.array_equal(pair.H, ref.H)
        assert np.array_equal(trace.objectives, ref_trace.objectives)

    def test_given_init_is_iterate_zero(self):
        V, start = random_instance(22)
        config = SolverConfig(algorithm=Algorithm.MU, rank=3, max_iters=2, seed=23)
        _, trace = solve(V, config, init=start)
        assert trace.objectives[0] == objective(V, start)
        seeded = initial_factors(V, config.rank, config.seed)
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
        config = with_target_at(
            V, SolverConfig(algorithm=Algorithm.MU, rank=2, tol=math.inf, seed=3), 0.99
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
                config = with_target_at(
                    V, SolverConfig(algorithm=alg, rank=2, seed=15 + i), 1e-6
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
        a = initial_factors(V, config.rank, config.seed)
        b = initial_factors(V, config.rank, config.seed)
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


def fresh_products(V, pair):
    return V @ pair.H.T, pair.W.T @ pair.W, pair.H @ pair.H.T


def uncarried_solve(V, config, steps):
    """``steps`` iterations of ``config``'s map, each called without products,
    as (final pair, objectives, backtracks). INOM alone is handed what its
    previous call handed on: its memory, which is part of its iteration."""
    state = initial_factors(V, config.rank, config.seed)
    v_sq = float(np.vdot(V, V))
    f = [objective(V, state)]
    backtracks = []
    base = solvers._ACCELERATED.get(config.algorithm)
    info = {}
    for _ in range(steps):
        if base is not None:
            state, accel = squarem.squarem_step(
                V, state, base_map(base), f0=f[-1], v_sq=v_sq
            )
            f.append(accel.objective)
            backtracks.append(accel.backtracks)
        else:
            memory = info.get("products") if config.algorithm is Algorithm.INOM else None
            state, info = base_map(config.algorithm)(
                V, state, v_sq=v_sq, products=memory
            )
            f.append(info["objective"])
    return state, np.array(f), backtracks


# The maps that hand on products: (V H^T, W^T W, H H^T) of the returned pair,
# None for an entry the map does not form.
CARRYING = [Algorithm.PARINOM, Algorithm.MU, Algorithm.FAST_HALS]

# The O(nmr) products one call, or one accelerated step, forms: (handed the
# products of its pair, handed none). Each backtrack adds one candidate's.
PRODUCTS_PER_STEP = {
    Algorithm.INOM: (2, 2),
    Algorithm.PARINOM: (2, 3),
    Algorithm.MU: (2, 2),
    Algorithm.FAST_HALS: (2, 2),
    Algorithm.ACC_PARINOM: (5, 6),
    Algorithm.ACC_MU: (4, 5),
}


class TestProductCarry:
    """PARINOM, MU and Fast-HALS hand products of their output pair to the
    next call; the carry must change no bit of any iterate. INOM hands on
    its memory instead and takes the paper's step from any products."""

    @pytest.mark.parametrize("alg", list(solvers.BASE_MAPS), ids=lambda a: a.value)
    def test_products_belong_to_returned_pair(self, alg):
        # Products are handed on only with the objective. INOM's are its
        # memory: the returned pair itself and the pair it stepped from, on
        # an uncarried call and on each carried call after it.
        V, pair = random_instance(600, n=20, m=30, r=4)
        v_sq = float(np.vdot(V, V))
        if alg is Algorithm.INOM:
            memory = None
            for _ in range(4):
                out, info = base_map(alg)(V, pair, v_sq=v_sq, products=memory)
                memory = info["products"]
                assert isinstance(memory, solvers.InomMemory)
                assert memory.W is out.W and memory.H is out.H
                assert memory.W_prev is pair.W and memory.H_prev is pair.H
                assert (memory.mu, memory.nu, memory.objective) == (
                    info["mu"], info["nu"], info["objective"]
                )
                pair = out
            # The carried calls were inertial: t grew past its start at 1.
            assert memory.t > 1.0
        else:
            out, info = base_map(alg)(V, pair, v_sq=v_sq)
            handed = [p for p in info["products"] if p is not None]
            assert handed
            for got, want in zip(info["products"], fresh_products(V, out)):
                assert got is None or np.array_equal(got, want)
        _, bare = base_map(alg)(V, pair)
        assert "products" not in bare

    @pytest.mark.parametrize("alg", [Algorithm.INOM], ids=lambda a: a.value)
    def test_other_maps_ignore_products(self, alg):
        V, pair = random_instance(605, n=20, m=30, r=4)
        v_sq = float(np.vdot(V, V))
        plain, plain_info = base_map(alg)(V, pair, v_sq=v_sq)
        wrong = tuple(np.full_like(p, np.nan) for p in fresh_products(V, pair))
        for products in (fresh_products(V, pair), wrong):
            out, info = base_map(alg)(V, pair, v_sq=v_sq, products=products)
            assert np.array_equal(out.W, plain.W)
            assert np.array_equal(out.H, plain.H)
            assert info["objective"] == plain_info["objective"]

    @pytest.mark.parametrize("alg", CARRYING, ids=lambda a: a.value)
    def test_carried_loop_equals_uncarried(self, alg):
        V, start = random_instance(601, n=20, m=30, r=4)
        v_sq = float(np.vdot(V, V))
        step = base_map(alg)
        carried, plain, products = start.copy(), start.copy(), None
        for _ in range(50):
            carried, info = step(V, carried, v_sq=v_sq, products=products)
            products = info["products"]
            plain, plain_info = step(V, plain, v_sq=v_sq)
            assert np.array_equal(carried.W, plain.W)
            assert np.array_equal(carried.H, plain.H)
            assert info["objective"] == plain_info["objective"]

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.value)
    def test_solve_equals_uncarried_map_loop(self, alg):
        V, _ = random_instance(602, n=20, m=30)
        config = SolverConfig(algorithm=alg, rank=4, tol=1e-300, max_iters=40, seed=603)
        pair, trace = solve(V, config)
        assert trace.iterations == 40
        plain, f, backtracks = uncarried_solve(V, config, 40)
        assert np.array_equal(pair.W, plain.W)
        assert np.array_equal(pair.H, plain.H)
        assert np.array_equal(trace.objectives, f)
        if backtracks:
            assert [r.backtracks for r in trace.records[1:]] == backtracks

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.value)
    def test_products_formed_per_carried_step(self, alg):
        carried, first = PRODUCTS_PER_STEP[alg]
        V, pair = random_instance(521, n=20, m=30, r=4)  # backtracks in 20 steps
        V = V.view(MatmulCounter)
        v_sq = float(np.vdot(V, V))
        f, products, total = objective(V.view(np.ndarray), pair), None, 0
        base = solvers._ACCELERATED.get(alg)
        for k in range(21):
            V.calls = 0
            if base is None:
                pair, info = base_map(alg)(V, pair, v_sq=v_sq, products=products)
                products, b = info.get("products"), 0
            else:
                pair, accel = squarem.squarem_step(
                    V, pair, base_map(base), f0=f, v_sq=v_sq, products=products
                )
                f, products, b = accel.objective, accel.products, accel.backtracks
                # An accepted candidate, not a two-step iterate, so the next
                # step's first application is handed V H^T.
                assert products[0] is not None
            assert V.calls == (carried if k else first) + b
            total += b
        # The count covers the backtracking candidates.
        assert total > 0 or base is None


def paper_inom_step(V, pair, v_sq):
    """The paper's INOM iteration written out from its two block updates,
    with the Gram-form objective of the result: the oracle of every call that
    is not inertial."""
    Hn, mu = inom_update_h(V, pair.W, pair.H)
    Wn, nu, VHt, G = inom_update_w(V, pair.W, Hn)
    W, H = solvers.normalize_pair(Wn, Hn)
    info = {"mu": mu, "nu": nu}
    if v_sq is not None:
        cross = float(np.vdot(VHt, Wn))
        info["objective"] = linalg.gram_objective(V, W, H, v_sq, cross, Wn.T @ Wn, G)
    return FactorPair(W, H), info


def assert_paper_step(V, pair, out, info, v_sq):
    want, want_info = paper_inom_step(V, pair, v_sq)
    assert np.array_equal(out.W, want.W)
    assert np.array_equal(out.H, want.H)
    assert [info.get(k) for k in want_info] == list(want_info.values())


class TestInertialInom:
    """INOM handed its own memory takes the paper's block steps from
    extrapolated anchors; every other call is the paper's step bit for bit."""

    def _momentum_pair(self, seed):
        # Two calls from a random start: the pair and the memory of the
        # second, whose t exceeds 1, so the next carried call has momentum.
        V, start = random_instance(seed, n=20, m=30, r=4)
        v_sq = float(np.vdot(V, V))
        pair, info = inom_iterate(V, start, v_sq=v_sq)
        pair, info = inom_iterate(V, pair, v_sq=v_sq, products=info["products"])
        assert info["products"].t > 1.0
        return V, v_sq, start, pair, info["products"]

    def test_uncarried_call_is_paper_step(self):
        V, pair = random_instance(620, n=20, m=30, r=4)
        v_sq = float(np.vdot(V, V))
        out, info = inom_iterate(V, pair, v_sq=v_sq)
        assert_paper_step(V, pair, out, info, v_sq)
        assert info["products"].t == 1.0
        out, info = inom_iterate(V, pair)
        assert_paper_step(V, pair, out, info, None)
        assert "objective" not in info and "products" not in info

    @pytest.mark.parametrize(
        "kind", ["squarem-tuple", "other-pair", "equal-copy", "no-v_sq"]
    )
    def test_foreign_products_give_paper_step(self, kind):
        V, v_sq, start, pair, memory = self._momentum_pair(621)
        # The memory is live: on its own pair the call is inertial.
        inertial, _ = inom_iterate(V, pair, v_sq=v_sq, products=memory)
        plain, _ = paper_inom_step(V, pair, v_sq)
        assert not np.array_equal(inertial.H, plain.H)
        if kind == "squarem-tuple":
            products = linalg.pair_objective(V, pair.W, pair.H, v_sq)[1]
        elif kind == "other-pair":
            products = inom_iterate(V, start, v_sq=v_sq)[1]["products"]
        elif kind == "equal-copy":
            products, pair = memory, pair.copy()
        else:
            products, v_sq = memory, None
        out, info = inom_iterate(V, pair, v_sq=v_sq, products=products)
        assert_paper_step(V, pair, out, info, v_sq)
        if v_sq is not None:
            assert info["products"].t == 1.0

    @pytest.mark.parametrize("outcome", ["rise", "failure"])
    def test_bad_inertial_step_returns_paper_step_and_resets_t(self, outcome):
        V, v_sq, _, pair, memory = self._momentum_pair(622)
        rng = np.random.default_rng(623)
        if outcome == "rise":
            W_prev = linalg.normalize_columns(rng.uniform(0.0, 1.0, size=pair.W.shape))
            H_prev = pair.H - 10.0 * (1.0 + pair.H.max())
        else:
            # W's anchor is so far below zero that its step zeroes a column.
            W_prev, H_prev = pair.W + 10.0, memory.H_prev
        far = replace(memory, W_prev=W_prev, H_prev=H_prev, t=50.0)
        _, nesterov = solvers._nesterov(far.t)
        if outcome == "rise":
            _, raised = solvers._inom_step(V, pair.W, pair.H, v_sq, far, nesterov)
            assert raised["objective"] > far.objective
        else:
            with pytest.raises(NumericalFailureError):
                solvers._inom_step(V, pair.W, pair.H, v_sq, far, nesterov)
        out, info = inom_iterate(V, pair, v_sq=v_sq, products=far)
        assert_paper_step(V, pair, out, info, v_sq)
        handed = info["products"]
        assert handed.t == 1.0
        assert handed.W is out.W and handed.W_prev is pair.W

    @pytest.mark.parametrize("nesterov, step_prev", [(0.3, 1e3), (0.9, 1.0), (0.0, 1e3)])
    def test_extrapolation_weight_follows_the_rule(self, nesterov, step_prev):
        # beta = min(nesterov, INERTIA_BOUND * sqrt(L_prev / L)) with L twice
        # the largest row sum of F F^T; the second case binds the cap.
        rng = np.random.default_rng(625)
        X, X_prev = rng.uniform(0.0, 1.0, size=(2, 4, 9))
        F = rng.uniform(0.0, 1.0, size=(4, 7))
        step = 2.0 * linalg.max_row_sum(F @ F.T)
        beta = min(nesterov, solvers.INERTIA_BOUND * math.sqrt(step_prev / step))
        assert (beta < nesterov) is (nesterov == 0.9)
        out = solvers._extrapolate(X, X_prev, nesterov, step_prev, F)
        np.testing.assert_allclose(out, X + beta * (X - X_prev), rtol=1e-14, atol=0.0)
        assert (out is X) is (beta == 0.0)

    def test_verify_anchor_is_extrapolated_and_majorized(self):
        V, _, start, pair, _ = self._momentum_pair(626)
        anchor = verify.inertial_anchor(V, start)
        assert np.array_equal(anchor.W, pair.W)
        assert not np.array_equal(anchor.H, pair.H)
        gaps = verify.majorization_gaps(V, anchor, Algorithm.INOM, samples=50, seed=627)
        assert max(gaps) <= verify.MAJORIZATION_TOL

    def test_zero_momentum_measure_catches_a_nonzero_beta(self, monkeypatch):
        V, start = random_instance(624, n=20, m=30, r=4)
        assert verify.zero_momentum_exact(V, start)
        extrapolate = solvers._extrapolate
        monkeypatch.setattr(
            solvers,
            "_extrapolate",
            lambda X, X_prev, nesterov, *rest: extrapolate(X, X_prev, nesterov + 0.5, *rest),
        )
        assert not verify.zero_momentum_exact(V, start)

    def test_carried_traces_are_monotone(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=60, deadline=None, database=None, derandomize=True
        )
        @hypothesis.given(
            st.integers(2, 12), st.integers(2, 12), st.integers(1, 4),
            st.integers(0, 2**32 - 1),
        )
        def check(n, m, r, seed):
            V = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, m))
            config = SolverConfig(
                algorithm=Algorithm.INOM, rank=min(r, n, m), tol=1e-300,
                max_iters=40, seed=seed,
            )
            # The trace and the exact residual of every iterate.
            assert verify.monotone_rise(V, config) <= 0.0

        check()


class TestCallbackGuard:
    """``solve`` hands its factors to the callback between two map calls that
    share products, so the callback may only observe them."""

    def test_in_place_write_raises(self):
        V, _ = random_instance(610)
        config = SolverConfig(algorithm=Algorithm.PARINOM, rank=3, max_iters=5, seed=611)

        def scribble(k, state):
            state.H[0, 0] = 1.0

        with pytest.raises(ValueError):
            solve(V, config, callback=scribble)
        pair, _ = solve(V, config, callback=lambda k, s: None)
        assert pair.W.flags.writeable and pair.H.flags.writeable

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.value)
    def test_reassigned_copy_keeps_trajectory(self, alg):
        V, _ = random_instance(612, n=20, m=30)
        config = SolverConfig(algorithm=alg, rank=4, tol=1e-300, max_iters=20, seed=613)

        def recopy(k, state):
            state.W = state.W.copy()

        pair, trace = solve(V, config)
        copied, copied_trace = solve(V, config, callback=recopy)
        assert np.array_equal(pair.W, copied.W)
        assert np.array_equal(pair.H, copied.H)
        assert np.array_equal(trace.objectives, copied_trace.objectives)

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.value)
    def test_replaced_factor_drops_carried_products(self, alg):
        # The callback observes only: replacing the pair's factors with new
        # values leaves the solve bitwise equal to one without a callback.
        V, _ = random_instance(614, n=20, m=30)
        config = SolverConfig(algorithm=alg, rank=4, tol=1e-300, max_iters=6, seed=615)

        def shake(k, state):
            if k == 3:
                state.W = linalg.normalize_columns(state.W + 0.1)
                state.H = 1.5 * state.H

        pair, trace = solve(V, config)
        shaken, shaken_trace = solve(V, config, callback=shake)
        assert np.array_equal(pair.W, shaken.W)
        assert np.array_equal(pair.H, shaken.H)
        assert np.array_equal(trace.objectives, shaken_trace.objectives)


class TestMonotoneSlack:
    """``IterationTrace.is_monotone`` and ``verify.monotone_rise`` apply the
    one rule, ``solvers.objective_rise``."""

    @pytest.mark.parametrize("factor, monotone", [(0.5, True), (2.0, False)])
    @pytest.mark.parametrize("f0", [0.5, 10.0])
    def test_trace_check_and_verify_measure_agree(self, monkeypatch, f0, factor, monotone):
        rise = factor * solvers.MONOTONE_SLACK * max(1.0, f0)
        trace = solvers.IterationTrace()
        for k, f in enumerate([f0, f0 + rise, f0 + rise]):
            trace.append(solvers.TraceRecord(k, f, 0.0))
        monkeypatch.setattr(solvers, "solve", lambda V, config, callback=None: (None, trace))
        assert trace.is_monotone() is monotone
        measured = verify.monotone_rise(np.ones((2, 2)), SolverConfig(Algorithm.MU, rank=1))
        assert (measured <= 0.0) is monotone

    def test_rise_is_nan_when_any_objective_is(self):
        assert math.isnan(solvers.objective_rise([3.0, math.nan, 1.0]))
        assert math.isnan(solvers.objective_rise([math.nan, 1.0]))
        assert solvers.objective_rise([3.0]) == -math.inf
        assert solvers.objective_rise([]) == -math.inf
