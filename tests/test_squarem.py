import sys
from types import SimpleNamespace

import numpy as np
import pytest

from nmfkit import linalg, solvers, squarem, verify
from nmfkit.errors import NumericalFailureError
from nmfkit.solvers import (
    Algorithm,
    FactorPair,
    SolverConfig,
    mu_iterate,
    normalize_pair,
    parinom_iterate,
    solve,
)
from nmfkit.squarem import AccelState, squarem_step

from _util import (
    planted_instance,
    random_instance,
    traced_peak,
)


def objective(V, pair):
    return linalg.frobenius_residual(V, pair.W, pair.H)


def accelerate(V, pair, base, **kw):
    # squarem_step takes f0 and ||V||^2 from its caller; here both are exact.
    f0, v_sq = objective(V, pair), float(np.vdot(V, V))
    return squarem_step(V, pair, base, f0=f0, v_sq=v_sq, **kw)


class TestSquaremStep:
    def test_fixed_point_returns_two_step_iterate(self):
        V, pair = planted_instance(0, n=6, m=8, r=2)
        out, accel = accelerate(V, pair, parinom_iterate)
        # r and v vanish, the degenerate fallback returns the two-step value,
        # which at a fixed point is the starting state.
        assert np.abs(out.W - pair.W).max() <= 1e-12
        assert np.abs(out.H - pair.H).max() <= 1e-12
        assert accel.alpha == -1.0

    def test_scalar_mu_hand_trace(self):
        # One MU step on V=[[2]] from W=H=[[1]] lands on the exact fit
        # (W renormalized to 1, H carrying the scale 2), so both base steps
        # coincide and the accelerated result is that same fixed point.
        V = np.array([[2.0]])
        state = FactorPair(np.array([[1.0]]), np.array([[1.0]]))
        out, _ = accelerate(V, state, mu_iterate)
        assert out.W == np.array([[1.0]])
        assert out.H == np.array([[2.0]])
        assert objective(V, out) == 0.0

    def test_alpha_minus_one_identity_is_exact(self):
        for i in range(5):
            V, pair = random_instance(100 + i)
            x1, _ = parinom_iterate(V, pair)
            x2, _ = parinom_iterate(V, x1)
            out, accel = accelerate(V, pair, parinom_iterate, force_alpha=-1.0)
            assert np.array_equal(out.W, x2.W)
            assert np.array_equal(out.H, x2.H)
            assert isinstance(accel, AccelState)

    def test_alpha_minus_one_identity_with_carried_products_at_large_scale(self):
        # With H near 1e80 a PARINOM step that forms H**4 overflows; the
        # square-root step does not, and alpha = -1 still gives x2 exactly.
        for i in range(3):
            V, pair = random_instance(120 + i)
            V, pair = 1e80 * V, FactorPair(pair.W, 1e80 * pair.H)
            products = (V @ pair.H.T, pair.W.T @ pair.W, pair.H @ pair.H.T)
            x1, _ = parinom_iterate(V, pair, products=products)
            x2, _ = parinom_iterate(V, x1)
            out, accel = accelerate(
                V, pair, parinom_iterate, force_alpha=-1.0, products=products
            )
            assert np.all(np.isfinite(out.H))
            assert np.array_equal(out.W, x2.W)
            assert np.array_equal(out.H, x2.H)
            assert np.isfinite(accel.objective)

    def test_accepted_steps_monotone_and_dominate_plain(self):
        # 5 seeded instances, 50 accelerated steps against 100 plain steps:
        # accepted objectives never rise and never trail the plain trace.
        for i in range(5):
            V, start = random_instance(200 + i)
            gaps = verify.acceleration_gaps(V, start, Algorithm.PARINOM, 50)
            assert gaps.rise <= 0.0
            assert gaps.lag <= 0.0

    def test_backtrack_count_recorded(self):
        total = 0
        for i in range(10):
            V, pair = random_instance(300 + i)
            _, accel = accelerate(V, pair, parinom_iterate)
            assert accel.backtracks >= 0
            assert accel.alpha <= 0.0
            total += accel.backtracks
        # the extrapolation should be accepted outright at least sometimes
        assert total < 10 * 1000

    @pytest.mark.parametrize("alg", list(solvers.BASE_MAPS), ids=lambda a: a.value)
    def test_every_base_map_keeps_identity_descent_and_dominance(self, alg):
        # Any monotone map is a valid base: alpha = -1 reproduces its
        # two-step iterate bit for bit, and 10 accelerated steps never rise
        # and never end worse than 20 plain steps.
        for i in range(10):
            V, start = random_instance(320 + i)
            gaps = verify.acceleration_gaps(V, start, alg, 10)
            assert gaps.identity_exact
            assert gaps.rise <= 0.0
            assert gaps.lag <= 0.0

    def test_nan_iterate_fails_the_measure(self, monkeypatch):
        # A base map whose output turns NaN after its 8th call: the NaN
        # objectives must surface in rise and lag, not be dropped by a max.
        real, calls = solvers.mu_iterate, []

        def broken(V, pair, **kw):
            out, info = real(V, pair, **kw)
            calls.append(None)
            if len(calls) > 8:
                out = FactorPair(out.W * np.nan, out.H * np.nan)
            return out, info

        monkeypatch.setattr(solvers, "mu_iterate", broken)
        V, start = random_instance(340)
        gaps = verify.acceleration_gaps(V, start, Algorithm.MU, 5)
        assert np.isnan(gaps.rise) and np.isnan(gaps.lag)

    def test_one_alpha_lands_the_moving_factor_while_the_still_one_stays(self):
        # A base map that leaves W unchanged and moves H halfway to a planted
        # H*: W's differences are zero, so the joint norms are H's and the one
        # alpha is -2, which lands H on H* in one extrapolation and leaves W
        # where it was.
        V, planted = planted_instance(5, n=6, m=8, r=2)
        H_star = planted.H

        def fake(V, pair, *, v_sq=None, products=None):
            out = FactorPair(pair.W.copy(), 0.5 * pair.H + 0.5 * H_star)
            info = {} if v_sq is None else {"objective": objective(V, out)}
            return out, info

        x0 = FactorPair(planted.W, 2.0 * H_star + 0.3)
        x1, _ = fake(V, x0)
        x2, _ = fake(V, x1)
        out, accel = accelerate(V, x0, fake)
        assert abs(accel.alpha + 2.0) <= 1e-12
        assert accel.backtracks == 0
        assert accel.alpha_w == accel.alpha_h == accel.alpha
        rw, rh = x1.W - x0.W, x1.H - x0.H
        vw, vh = x2.W - x1.W - rw, x2.H - x1.H - rh
        W = squarem._extrapolate(x0.W, rw, vw, accel.alpha)
        H = squarem._extrapolate(x0.H, rh, vh, accel.alpha)
        normalize_pair(W, H)
        assert np.array_equal(out.W, W)
        assert np.array_equal(out.H, H)
        assert np.abs(out.W - x0.W).max() <= 1e-15
        assert np.abs(out.H - H_star).max() <= 1e-12
        assert objective(V, out) < objective(V, x2)

    def test_both_factors_moving_share_one_alpha(self):
        # W and H contract toward a planted pair at different rates, 1/2 and
        # 3/4, so a per-factor step would pick -2 for W and -4 for H. The one
        # alpha is -||r|| / ||v|| over the stacked pair, and the candidate is
        # both factors extrapolated with it.
        V, planted = planted_instance(6, n=6, m=8, r=2)

        def fake(V, pair, *, v_sq=None, products=None):
            out = FactorPair(
                0.5 * pair.W + 0.5 * planted.W, 0.75 * pair.H + 0.25 * planted.H
            )
            info = {} if v_sq is None else {"objective": objective(V, out)}
            return out, info

        x0 = FactorPair(planted.W + 0.2, 1.5 * planted.H + 0.3)
        x1, _ = fake(V, x0)
        x2, _ = fake(V, x1)
        out, accel = accelerate(V, x0, fake)
        rw, rh = x1.W - x0.W, x1.H - x0.H
        vw, vh = x2.W - x1.W - rw, x2.H - x1.H - rh

        def norm(*blocks):
            return np.sqrt(sum(np.vdot(b, b) for b in blocks))

        assert accel.backtracks == 0
        assert accel.alpha == pytest.approx(-norm(rw, rh) / norm(vw, vh), rel=1e-14)
        assert abs(accel.alpha + 2.0) > 0.1 and abs(accel.alpha + 4.0) > 0.1
        assert accel.alpha_w == accel.alpha_h == accel.alpha
        W = squarem._extrapolate(x0.W, rw, vw, accel.alpha)
        H = squarem._extrapolate(x0.H, rh, vh, accel.alpha)
        normalize_pair(W, H)
        assert np.array_equal(out.W, W)
        assert np.array_equal(out.H, H)

    def test_halving_drives_alpha_to_minus_one(self):
        alpha = -7.3
        gaps = []
        for _ in range(6):
            gaps.append(abs(alpha + 1.0))
            alpha = (alpha - 1.0) / 2.0
        for a, b in zip(gaps, gaps[1:]):
            assert abs(b - a / 2.0) <= 1e-15


@pytest.fixture
def scored(monkeypatch):
    """``scored(*values)`` makes :func:`squarem_step` score its candidates
    ``values[0]``, ``values[1]``, ... in turn, each with its real products;
    the base maps' own objectives are untouched."""

    def script(*values):
        values = list(values)

        def pair_objective(V, W, H, v_sq):
            return values.pop(0), linalg.pair_objective(V, W, H, v_sq)[1]

        monkeypatch.setattr(
            squarem, "linalg", SimpleNamespace(pair_objective=pair_objective)
        )

    return script


def recorded(base):
    """``base`` and the list of ``(pair, info)`` it returns, call by call."""
    calls = []

    def recording(V, pair, **kw):
        calls.append(base(V, pair, **kw))
        return calls[-1]

    return recording, calls


def still(V, pair, *, v_sq=None, products=None):
    """A base map that returns a fresh copy of its pair, so ||v|| is 0."""
    out = pair.copy()
    f, p = linalg.pair_objective(V, out.W, out.H, v_sq) if v_sq else (None, None)
    return out, {"objective": f, "products": p}


class TestTwoStepExit:
    """Every way a step ends at alpha = -1 hands back the second base
    application's own pair and products, and the backtracks made."""

    @staticmethod
    def _snaps_after(alpha):
        count = 0
        while alpha != -1.0:
            alpha, count = squarem._backtrack(alpha), count + 1
        return count

    @pytest.mark.parametrize(
        "case", ["forced", "degenerate", "snapped", "worse-than-x2"]
    )
    def test_returns_second_applications_pair_and_products(self, scored, case):
        V, pair = random_instance(540)
        f0 = objective(V, pair)
        base, kw, backtracks = parinom_iterate, {}, 0
        if case == "forced":
            kw = {"force_alpha": -1.0}
        elif case == "degenerate":
            base = still
        elif case == "snapped":
            # Every candidate rises, so alpha backtracks until it snaps.
            kw = {"force_alpha": -3.0}
            backtracks = self._snaps_after(-3.0)
            scored(*[np.inf] * backtracks)
        else:
            # One rejected candidate, then one that ties x0: accepted, but
            # the two-step iterate is lower.
            backtracks = 1
            scored(np.inf, f0)
        step, calls = recorded(base)
        out, accel = accelerate(V, pair, step, **kw)
        assert len(calls) == 2
        x2, info = calls[1]
        assert out is x2
        assert accel.products is info["products"] is not None
        assert accel.objective == info["objective"]
        assert accel.alpha == -1.0
        assert accel.backtracks == backtracks

    def test_nan_candidate_is_accepted_at_once(self, scored):
        V, pair = random_instance(541)
        scored(np.nan)
        step, calls = recorded(parinom_iterate)
        out, accel = accelerate(V, pair, step)
        # Not the two-step iterate: the NaN candidate itself, at once.
        assert out is not calls[1][0]
        assert accel.backtracks == 0 and accel.alpha != -1.0
        assert np.isnan(accel.objective)

    def test_nan_candidate_stops_solve_at_its_iteration(self, monkeypatch):
        V, _ = random_instance(542)
        config = SolverConfig(
            Algorithm.ACC_PARINOM, rank=3, tol=1e-300, max_iters=20, seed=7
        )
        real, armed = linalg.pair_objective, []

        def pair_objective(V, W, H, v_sq):
            f, p = real(V, W, H, v_sq)
            return (np.nan if armed else f), p

        def arm_after_third(k, pair):
            if k == 3:
                armed.append(True)

        monkeypatch.setattr(
            squarem, "linalg", SimpleNamespace(pair_objective=pair_objective)
        )
        with pytest.raises(NumericalFailureError) as info:
            solve(V, config, callback=arm_after_third)
        assert info.value.iteration == 4


class TestProductCarry:
    """A step returns its accepted pair's products for the next step's
    first base application."""

    @pytest.mark.parametrize("base", [parinom_iterate, mu_iterate], ids=["parinom", "mu"])
    def test_products_belong_to_accepted_pair(self, base):
        for i in range(5):
            V, pair = random_instance(500 + i)
            out, accel = accelerate(V, pair, base)
            # MU's two-step iterate hands on H H^T alone; None marks the rest.
            fresh = (V @ out.H.T, out.W.T @ out.W, out.H @ out.H.T)
            for got, want in zip(accel.products, fresh):
                assert got is None or np.array_equal(got, want)

    @pytest.mark.parametrize("base", [parinom_iterate, mu_iterate], ids=["parinom", "mu"])
    def test_carried_steps_equal_uncarried(self, base):
        V, start = random_instance(521, n=20, m=30, r=4)  # backtracks in 4 steps
        v_sq = float(np.vdot(V, V))
        carried, plain = start.copy(), start.copy()
        f_carried = f_plain = objective(V, start)
        products = None
        for _ in range(50):
            carried, accel = squarem_step(
                V, carried, base, f0=f_carried, v_sq=v_sq, products=products
            )
            f_carried, products = accel.objective, accel.products
            plain, plain_accel = squarem_step(V, plain, base, f0=f_plain, v_sq=v_sq)
            f_plain = plain_accel.objective
            assert np.array_equal(carried.W, plain.W)
            assert np.array_equal(carried.H, plain.H)
            assert f_carried == f_plain
            assert accel.backtracks == plain_accel.backtracks


class TestAcceleratedSolve:
    def test_acc_algorithms_run_and_descend(self):
        for alg in (Algorithm.ACC_PARINOM, Algorithm.ACC_MU):
            V, _ = random_instance(400)
            config = SolverConfig(algorithm=alg, rank=3, tol=1e-10, max_iters=200, seed=5)
            pair, trace = solve(V, config)
            assert trace.is_monotone()
            pair.validate()
            assert trace.records[1].backtracks is not None

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="older interpreters keep call arguments on the caller's stack",
    )
    def test_solve_keeps_no_carried_products_past_first_application(self, monkeypatch):
        # A caller that holds the carried products through the step, as
        # solve once did, keeps V H^T (n x r) alive while the step forms its
        # two-step iterate's products; solve hands them over instead.
        rng = np.random.default_rng(530)
        V = linalg.normalize_columns(rng.uniform(0.0, 1.0, (300, 60)))
        r, n = 20, V.shape[0]
        config = SolverConfig(Algorithm.ACC_PARINOM, rank=r, tol=1e-300, max_iters=5, seed=6)
        (pair, trace), handed = traced_peak(solve, V, config)
        real = squarem.squarem_step

        def holding(V, state, base, *, products=None, **kw):
            return real(V, state, base, products=products, **kw)

        monkeypatch.setattr(squarem, "squarem_step", holding)
        (held_pair, held_trace), held = traced_peak(solve, V, config)
        assert np.array_equal(pair.W, held_pair.W)
        assert np.array_equal(pair.H, held_pair.H)
        assert np.array_equal(trace.objectives, held_trace.objectives)
        assert held - handed >= n * r * 8
