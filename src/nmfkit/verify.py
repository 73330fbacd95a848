"""Self-check suites behind the ``verify`` CLI command.

Each suite re-derives a property the solvers must satisfy (monotone descent,
bound domination, fixed points, the step-size eigenvalue bound, parallel
equivalence, stationarity decrease) on seeded random instances and counts
violations. Suites call the solver modules through their module namespaces
so a fault injected there (for example in a test) is observed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics, linalg, solvers
from .bench import derive_seed
from .errors import NmfError
from .solvers import Algorithm, FactorPair, SolverConfig

__all__ = ["SuiteResult", "run_all", "SUITES"]

MONOTONE_SLACK = 1e-9
FIXED_POINT_TOL = 1e-12


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    counterexample: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, detail: str) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = detail


def _random_instance(seed: int, n: int = 12, m: int = 15, r: int = 3):
    rng = np.random.default_rng(seed)
    V = linalg.normalize_columns(rng.uniform(0.5, 1.5, size=(n, m)))
    return V, r


def _suite_monotonicity(seed: int, quick: bool) -> SuiteResult:
    result = SuiteResult("monotonicity")
    instances = 2 if quick else 4
    iters = 15 if quick else 30
    for alg in solvers.Algorithm:
        for i in range(instances):
            V, r = _random_instance(derive_seed(seed, 10, i), r=(i % 3) * 2 + 1)
            config = SolverConfig(
                algorithm=alg, rank=r, tol=1e-15, max_iters=iters, seed=derive_seed(seed, 11, i)
            )
            # The exact residual at every iterate (the trace holds it only at
            # iterate 0), so a wrong Gram formula cannot pass this check.
            exact = []

            def record(k, s):
                exact.append(linalg.frobenius_residual(V, s.W, s.H))

            _, trace = solvers.solve(V, config, callback=record)
            f = np.array([trace.objectives[0], *exact])
            bad = np.flatnonzero(f[1:] > f[:-1] + MONOTONE_SLACK * np.maximum(1.0, f[:-1]))
            result.record(
                bad.size == 0,
                f"algorithm={alg.value} instance={i} iteration={int(bad[0]) + 1 if bad.size else -1} "
                f"objective rose from {f[bad[0]]!r} to {f[bad[0] + 1]!r}"
                if bad.size
                else "",
            )
    return result


def _suite_majorization(seed: int, quick: bool) -> SuiteResult:
    result = SuiteResult("majorization")
    instances = 2 if quick else 5
    samples = 20 if quick else 100
    for i in range(instances):
        V, r = _random_instance(derive_seed(seed, 20, i))
        rng = np.random.default_rng(derive_seed(seed, 21, i))
        W = linalg.normalize_columns(rng.uniform(0.1, 1.0, size=(V.shape[0], r)))
        H = rng.uniform(0.1, 1.0, size=(r, V.shape[1]))
        state = FactorPair(W, H)
        for alg in (Algorithm.INOM, Algorithm.PARINOM):
            report = diagnostics.audit_majorization(
                V, state, alg, samples=samples, seed=derive_seed(seed, 22, i)
            )
            result.record(
                report.passed,
                f"instance={i} audit failed:\n{report.to_text()}",
            )
    return result


def _suite_fixed_point(seed: int, quick: bool) -> SuiteResult:
    result = SuiteResult("fixed-point")
    instances = 2 if quick else 5
    maps = {
        "inom": solvers.inom_iterate,
        "parinom": solvers.parinom_iterate,
        "mu": solvers.mu_iterate,
        "fast-hals": solvers.fast_hals_iterate,
    }
    for i in range(instances):
        rng = np.random.default_rng(derive_seed(seed, 30, i))
        n, m, r = 8, 10, 3
        W = linalg.normalize_columns(rng.uniform(0.5, 1.5, size=(n, r)))
        H = rng.uniform(0.5, 1.5, size=(r, m))
        V = W @ H
        for name, step in maps.items():
            out, _ = step(V, FactorPair(W.copy(), H.copy()))
            drift = max(
                float(np.abs(out.W - W).max()), float(np.abs(out.H - H).max())
            )
            result.record(
                drift <= FIXED_POINT_TOL,
                f"map={name} instance={i} planted factorization drifted by {drift!r}",
            )
    return result


def _suite_psd_bound(seed: int, quick: bool) -> SuiteResult:
    result = SuiteResult("psd-bound")
    count = 50 if quick else 200
    rng = np.random.default_rng(derive_seed(seed, 40))
    for i in range(count):
        size = int(rng.integers(2, 21))
        B = rng.uniform(0.0, 1.0, size=(size, size))
        A = B + B.T
        bound = linalg.max_row_sum(A)
        min_eig = float(np.linalg.eigvalsh(bound * np.eye(size) - A)[0])
        result.record(
            min_eig >= -1e-9,
            f"sample={i} size={size} min eigenvalue {min_eig!r} below -1e-9",
        )
    return result


def _suite_parallel_equivalence(seed: int, quick: bool) -> SuiteResult:
    result = SuiteResult("parallel-equivalence")
    instances = 5 if quick else 20
    for i in range(instances):
        V, r = _random_instance(derive_seed(seed, 50, i))
        rng = np.random.default_rng(derive_seed(seed, 51, i))
        W = linalg.normalize_columns(rng.uniform(0.1, 1.0, size=(V.shape[0], r)))
        H = rng.uniform(0.1, 1.0, size=(r, V.shape[1]))
        pair = FactorPair(W, H)
        seq, _ = solvers.parinom_iterate(V, pair.copy(), parallel=False)
        par, _ = solvers.parinom_iterate(V, pair.copy(), parallel=True)
        same = np.array_equal(seq.W, par.W) and np.array_equal(seq.H, par.H)
        result.record(
            same, f"instance={i} concurrent update differed from sequential"
        )
    return result


def _suite_kkt_decrease(seed: int, quick: bool) -> SuiteResult:
    result = SuiteResult("kkt-decrease")
    instances = 2 if quick else 5
    for i in range(instances):
        rng = np.random.default_rng(derive_seed(seed, 60, i))
        V = linalg.normalize_columns(rng.uniform(0.5, 1.5, size=(10, 12)))
        for alg in (Algorithm.INOM, Algorithm.FAST_HALS):
            config = SolverConfig(
                algorithm=alg,
                rank=3,
                tol=1e-8,
                max_iters=5000,
                seed=derive_seed(seed, 61, i),
            )
            start = solvers.initial_factors(V, config)
            before = diagnostics.kkt_residual(V, start.W, start.H).combined
            pair, _ = solvers.solve(V, config)
            after = diagnostics.kkt_residual(V, pair.W, pair.H).combined
            result.record(
                after <= 1e-2 * before,
                f"algorithm={alg.value} instance={i} stationarity residual went "
                f"{before!r} -> {after!r} (needs 100x drop)",
            )
    return result


SUITES = (
    ("monotonicity", _suite_monotonicity),
    ("majorization", _suite_majorization),
    ("fixed-point", _suite_fixed_point),
    ("psd-bound", _suite_psd_bound),
    ("parallel-equivalence", _suite_parallel_equivalence),
    ("kkt-decrease", _suite_kkt_decrease),
)


def run_all(seed: int = 0, quick: bool = False) -> list[SuiteResult]:
    """Run every suite; reduced sample counts with ``quick=True``.

    A suite that aborts with a solver error counts as failed with the error
    text as its counterexample; a broken solver must never crash the harness
    that is supposed to flag it.
    """
    out: list[SuiteResult] = []
    for name, suite in SUITES:
        try:
            out.append(suite(seed, quick))
        except NmfError as exc:
            aborted = SuiteResult(name)
            aborted.record(False, f"suite aborted: {exc}")
            out.append(aborted)
    return out
