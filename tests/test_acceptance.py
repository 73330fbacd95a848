"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity (run with ``pytest -s`` to see
them inline)."""

import time

import numpy as np

from nmfkit import bench, cli, datagen, diagnostics, linalg, solvers, verify
from nmfkit.bench import BenchScenario, MatrixKind, run_scenario, sim1_run
from nmfkit.solvers import Algorithm, SolverConfig, inom_update_h

from _util import fd_gradient_h, planted_instance, random_instance

ALL_SIX = list(Algorithm)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_01_monotonicity_all_algorithms():
    t0 = time.perf_counter()
    rises = []
    for alg in ALL_SIX:
        for i in range(20):
            r = (1, 5, 10)[i % 3]
            rng = np.random.default_rng(1000 + i)
            V = linalg.normalize_columns(rng.uniform(0.5, 1.5, (30, 40)))
            config = SolverConfig(
                algorithm=alg, rank=r, tol=1e-15, max_iters=50, seed=2000 + i
            )
            rises.append(verify.monotone_rise(V, config))
    worst = float(np.max(rises))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 0.0 and elapsed < 60.0,
        f"6 algorithms x 20 instances monotone (worst margin {worst:.3e}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_majorization_suite():
    gaps = []
    for i in range(10):
        V, state = random_instance(3000 + i, n=8, m=10, r=3)
        gaps += [
            verify.majorization_gaps(V, state, alg, samples=100, seed=4000 + i)
            for alg in (Algorithm.INOM, Algorithm.PARINOM)
        ]
    worst_eq, worst_dom = np.max(gaps, axis=0)
    _report(
        2,
        worst_eq <= verify.MAJORIZATION_TOL and worst_dom <= verify.MAJORIZATION_TOL,
        f"touching gap <= {worst_eq:.3e}, domination slack <= {worst_dom:.3e} "
        "over 10 instances x 100 samples",
    )


def test_criterion_03_psd_bound():
    rng = np.random.default_rng(5000)
    gaps = []
    for _ in range(200):
        size = int(rng.integers(2, 21))
        B = rng.uniform(0.0, 1.0, (size, size))
        gaps.append(verify.psd_gap(B + B.T))
    worst = float(np.min(gaps))
    _report(3, worst >= -1e-9, f"min eigenvalue of (bound*I - A) = {worst:.3e} over 200 draws")


def test_criterion_04_gradient_check():
    worst_identity = 0.0
    worst_fd = 0.0
    for i in range(10):
        V, state = random_instance(6000 + i, n=6, m=5, r=2)
        W, H = state.W, state.H
        _, GH = diagnostics.nmf_gradients(V, W, H)
        mu = linalg.max_row_sum(2.0 * (W.T @ W))
        pre = H - GH / mu
        Hn, _ = inom_update_h(V, W, H)
        worst_identity = max(
            worst_identity, float(np.abs(np.maximum(0.0, pre) - Hn).max())
        )
        fd = fd_gradient_h(V, W, H, step=1e-5)
        worst_fd = max(
            worst_fd, float(np.linalg.norm(fd - GH) / np.linalg.norm(GH))
        )
    _report(
        4,
        worst_identity <= 1e-12 and worst_fd <= 1e-6,
        f"projected-gradient identity gap {worst_identity:.3e}, "
        f"finite-difference relative error {worst_fd:.3e}",
    )


def test_criterion_05_fixed_point_suite():
    drifts = []
    for i in range(10):
        V, pair = planted_instance(7000 + i, n=8, m=10, r=3)
        drifts += [verify.fixed_point_drift(V, pair, alg) for alg in solvers.BASE_MAPS]
    worst = float(np.max(drifts))
    _report(
        5,
        worst <= 1e-12,
        f"planted factorization drift <= {worst:.3e} under all four base maps",
    )


def test_criterion_07_squarem_identity_and_dominance():
    gaps = [
        verify.acceleration_gaps(V, start, alg, 50)
        for V, start in (random_instance(9000 + i) for i in range(20))
        for alg in solvers.BASE_MAPS
    ]
    exact = all(g.identity_exact for g in gaps)
    worst_rise = float(np.max([g.rise for g in gaps]))
    worst_gap = float(np.max([g.lag for g in gaps]))
    _report(
        7,
        exact and worst_rise <= 0.0 and worst_gap <= 0.0,
        f"alpha=-1 identity exact, accepted steps monotone (worst margin "
        f"{worst_rise:.3e}), acc-vs-plain dominance margin {worst_gap:.3e} "
        "under all four base maps",
    )


def test_criterion_08_kkt_residual_reduction():
    ratios = []
    for i in range(10):
        rng = np.random.default_rng(10000 + i)
        V = linalg.normalize_columns(rng.uniform(0.5, 1.5, (10, 12)))
        for alg in (Algorithm.INOM, Algorithm.FAST_HALS):
            config = SolverConfig(algorithm=alg, rank=3, tol=1e-8, seed=11000 + i)
            ratios.append(verify.kkt_ratio(V, config))
    worst_ratio = float(np.max(ratios))
    _report(
        8,
        worst_ratio <= 1e-2,
        f"stationarity residual shrank by >= {1.0 / worst_ratio:.0f}x "
        "(required 100x) on 10 instances x 2 algorithms",
    )


def test_criterion_09_sim1_reproduction(tmp_path):
    t0 = time.perf_counter()
    result = sim1_run(scale=1.0, seed=0)
    all_converged = all(t.converged for t in result.traces.values())
    all_monotone = all(t.is_monotone() for t in result.traces.values())
    finals = np.array([t.final_objective for t in result.traces.values()])
    spread = float((finals.max() - finals.min()) / finals.min())
    bench.sim1_write_outputs(tmp_path, result)
    files_ok = all(
        (tmp_path / name).exists()
        for name in ("sim1_traces.csv", "sim1_objective_vs_time.svg")
    )
    elapsed = time.perf_counter() - t0
    _report(
        9,
        all_converged and all_monotone and spread <= 0.05 and files_ok and elapsed < 300.0,
        f"six algorithms converged, final objectives within {spread:.2%}, "
        f"trace CSV/SVG emitted, {elapsed:.1f}s",
    )


def test_criterion_10_sim2_sim3_methodology_twentieth_scale():
    scenarios = [
        BenchScenario(
            name="sim2-dense",
            n=500,
            m=2500,
            rank_values=(25, 50),
            kind=MatrixKind.DENSE_UNIFORM,
            trials=2,
            seed=0,
        ),
        BenchScenario(
            name="sim2-sparse",
            n=500,
            m=2500,
            rank_values=(25, 50),
            kind=MatrixKind.SPARSE70,
            trials=2,
            seed=0,
        ),
        BenchScenario(
            name="sim3-m5000",
            n=50,
            m=5000,
            rank_values=(5,),
            kind=MatrixKind.DENSE_UNIFORM,
            trials=2,
            seed=0,
        ),
    ]
    all_achieved = True
    reproducible = True
    cells = 0
    for scenario in scenarios:
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        cells += len(first.rows)
        all_achieved = all_achieved and all(r.achieved for r in first.rows)
        reproducible = reproducible and [r.iters for r in first.rows] == [
            r.iters for r in second.rows
        ]
    _report(
        10,
        all_achieved and reproducible,
        f"{cells} cells all reached the 70% target; iteration counts "
        "bit-identical across reruns",
    )


def _bss_solve(algorithm, noise_variance, seed=0):
    scenario = datagen.BssScenario(noise_variance=noise_variance, seed=seed)
    sources, _, observed = datagen.generate_bss(scenario)
    pair, _ = cli.solve_bss(scenario, observed, algorithm)
    matches = cli.match_sources(pair.H, sources)
    return float(np.mean([c for _, _, c in matches]))


def test_criterion_11_bss_reproduction():
    t0 = time.perf_counter()
    clean_inom = _bss_solve(Algorithm.INOM, 0.0)
    clean_hals = _bss_solve(Algorithm.FAST_HALS, 0.0)
    noisy = {
        alg.value: _bss_solve(alg, 0.01)
        for alg in (Algorithm.INOM, Algorithm.FAST_HALS, Algorithm.MU)
    }
    elapsed = time.perf_counter() - t0
    # noisy correlations are reported, not asserted
    noisy_text = ", ".join(f"{k}={v:.3f}" for k, v in noisy.items())
    _report(
        11,
        clean_inom >= 0.95 and clean_hals >= 0.95 and elapsed < 120.0,
        f"noiseless mean correlation inom={clean_inom:.3f} "
        f"fast-hals={clean_hals:.3f}; noisy (reported only): {noisy_text}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_12_sparse_generator():
    fractions = []
    for seed in range(3):
        M = datagen.generate_sparse(1000, 1000, 0.7, seed=seed)
        fractions.append(float(np.mean(M == 0.0)))
    ok = all(0.69 <= f <= 0.71 for f in fractions)
    _report(
        12,
        ok,
        "achieved zero fractions "
        + ", ".join(f"{f:.4f}" for f in fractions)
        + " within 0.70 +/- 0.01",
    )
