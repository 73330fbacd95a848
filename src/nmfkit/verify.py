"""Self-check suites behind the ``verify`` CLI command.

Each invariant has one measure here, taking a single instance: the largest
objective rise of a solve (:func:`monotone_rise`), the drift of a planted
factorization under one base map (:func:`fixed_point_drift`), the smallest
eigenvalue of the row-sum step bound minus the matrix (:func:`psd_gap`) and
the stationarity-residual ratio of a solve (:func:`kkt_ratio`). The suites
apply them, and ``diagnostics.audit_majorization``, to seeded random
instances and count violations; the acceptance tests apply the same
measures to their own instances. Measures call the solver modules through
their module namespaces so a fault injected there (for example in a test) is
observed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics, linalg, solvers
from .datagen import derive_seed
from .errors import NmfError
from .solvers import MONOTONE_SLACK, Algorithm, FactorPair, SolverConfig

__all__ = [
    "SuiteResult",
    "run_all",
    "SUITES",
    "monotone_rise",
    "fixed_point_drift",
    "psd_gap",
    "kkt_ratio",
]

# Largest entry change a planted factorization may show under one map.
FIXED_POINT_TOL = 1e-12
# Most negative eigenvalue allowed for max_row_sum(A) * I - A.
PSD_TOL = 1e-9
# A solve must shrink the stationarity residual by at least this factor.
KKT_DROP = 1e-2

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


def monotone_rise(V, config: SolverConfig) -> float:
    """Largest rise of the objective between consecutive iterates of one
    solve, beyond ``MONOTONE_SLACK * max(1, f)``; at most 0 when the solve
    descends.

    Both the trace objectives and the exact residual of every iterate are
    checked, so a wrong Gram-form objective cannot hide an ascent.
    """
    exact = []

    def record(k, state):
        exact.append(linalg.frobenius_residual(V, state.W, state.H))

    _, trace = solvers.solve(V, config, callback=record)
    rises = [
        f[1:] - f[:-1] - MONOTONE_SLACK * np.maximum(1.0, f[:-1])
        for f in (trace.objectives, np.array([trace.objectives[0], *exact]))
    ]
    return float(np.max(np.concatenate(rises)))


def fixed_point_drift(V, pair: FactorPair, alg: Algorithm) -> float:
    """Largest entry change of ``pair`` under one step of the base map of
    ``alg`` (a key of ``solvers.BASE_MAPS``); ``pair`` is an exact
    factorization of ``V``, so the change should be zero up to rounding."""
    out, _ = getattr(solvers, solvers.BASE_MAPS[alg])(V, pair.copy())
    return float(np.max([np.abs(out.W - pair.W).max(), np.abs(out.H - pair.H).max()]))


def psd_gap(A) -> float:
    """Smallest eigenvalue of ``max_row_sum(A) * I - A``, which is
    nonnegative when the row-sum bound dominates A in the PSD order."""
    bound = linalg.max_row_sum(A)
    return float(np.linalg.eigvalsh(bound * np.eye(A.shape[0]) - A)[0])


def kkt_ratio(V, config: SolverConfig) -> float:
    """Combined KKT residual after the solve over the one at its seeded start,
    which the solve is given as its iterate 0."""
    start = solvers.initial_factors(V, config.rank, config.seed)
    before = diagnostics.kkt_residual(V, start.W, start.H).combined
    pair, _ = solvers.solve(V, config, init=start)
    return diagnostics.kkt_residual(V, pair.W, pair.H).combined / before


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
            rise = monotone_rise(V, config)
            result.record(
                rise <= 0.0,
                f"algorithm={alg.value} instance={i} objective rose by {rise!r} "
                "beyond the slack",
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
    for i in range(instances):
        rng = np.random.default_rng(derive_seed(seed, 30, i))
        n, m, r = 8, 10, 3
        W = linalg.normalize_columns(rng.uniform(0.5, 1.5, size=(n, r)))
        H = rng.uniform(0.5, 1.5, size=(r, m))
        V, pair = W @ H, FactorPair(W, H)
        for alg in solvers.BASE_MAPS:
            drift = fixed_point_drift(V, pair, alg)
            result.record(
                drift <= FIXED_POINT_TOL,
                f"map={alg.value} instance={i} planted factorization drifted by {drift!r}",
            )
    return result


def _suite_psd_bound(seed: int, quick: bool) -> SuiteResult:
    result = SuiteResult("psd-bound")
    count = 50 if quick else 200
    rng = np.random.default_rng(derive_seed(seed, 40))
    for i in range(count):
        size = int(rng.integers(2, 21))
        B = rng.uniform(0.0, 1.0, size=(size, size))
        gap = psd_gap(B + B.T)
        result.record(
            gap >= -PSD_TOL,
            f"sample={i} size={size} min eigenvalue {gap!r} below {-PSD_TOL!r}",
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
                algorithm=alg, rank=3, tol=1e-8, seed=derive_seed(seed, 61, i)
            )
            ratio = kkt_ratio(V, config)
            result.record(
                ratio <= KKT_DROP,
                f"algorithm={alg.value} instance={i} stationarity residual "
                f"shrank only to {ratio!r} of its start (needs {KKT_DROP!r})",
            )
    return result


SUITES = (
    ("monotonicity", _suite_monotonicity),
    ("majorization", _suite_majorization),
    ("fixed-point", _suite_fixed_point),
    ("psd-bound", _suite_psd_bound),
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
