"""Self-check suites behind the ``verify`` CLI command.

Each invariant has one measure here, taking a single instance: the largest
objective rise of a solve (:func:`monotone_rise`), how far an algorithm's
upper bounds miss or undercut the objective (:func:`majorization_gaps`,
also at inertial INOM's extrapolated anchor, :func:`inertial_anchor`), the
drift of a planted factorization under one base map (:func:`fixed_point_drift`),
the smallest eigenvalue of the row-sum step bound minus the matrix
(:func:`psd_gap`), the stationarity-residual ratio of a solve
(:func:`kkt_ratio`) and the SQUAREM invariants around one base map
(:func:`acceleration_gaps`), whose alpha = -1 identity around INOM is also
inertial INOM's beta = 0 identity. The suites apply them to seeded random
instances and count violations; the acceptance tests apply the same
measures to their own instances. Measures call the solver and diagnostics
modules through their module namespaces so a fault injected there (for
example in a test) is observed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import diagnostics, linalg, solvers, squarem
from .datagen import derive_seed
from .errors import ContractViolationError, NmfError
from .solvers import Algorithm, FactorPair, SolverConfig, objective_rise

__all__ = [
    "SuiteResult",
    "run_all",
    "SUITES",
    "monotone_rise",
    "MajorizationGaps",
    "majorization_gaps",
    "inertial_anchor",
    "fixed_point_drift",
    "psd_gap",
    "kkt_ratio",
    "AccelerationGaps",
    "acceleration_gaps",
]

# Largest relative gap an upper bound may show at its anchor, and largest
# f - g it may show at a sample point.
MAJORIZATION_TOL = 1e-9
# Largest entry change a planted factorization may show under one map.
FIXED_POINT_TOL = 1e-12
# Most negative eigenvalue allowed for max_row_sum(A) * I - A.
PSD_TOL = 1e-9
# A solve must shrink the stationarity residual by at least this factor.
KKT_DROP = 1e-2
# Absolute slack by which k accelerated steps may trail 2k plain ones.
DOMINANCE_SLACK = 1e-9

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
    solve, as :func:`solvers.objective_rise` measures it; at most 0 when the
    solve descends.

    Both the trace objectives and the exact residual of every iterate are
    checked, so a wrong Gram-form objective cannot hide an ascent. Every
    iterate must also pass :meth:`FactorPair.validate` (nonnegative factors,
    unit-norm W columns), whose error a violation raises.
    """
    exact = []

    def record(k, state):
        state.validate()
        exact.append(linalg.frobenius_residual(V, state.W, state.H))

    _, trace = solvers.solve(V, config, callback=record)
    f = trace.objectives
    return float(np.max([objective_rise(f), objective_rise([f[0], *exact])]))


class MajorizationGaps(NamedTuple):
    """How far an algorithm's upper bounds miss the objective; see
    :func:`majorization_gaps`."""

    anchor: float
    domination: float


def majorization_gaps(
    V, state: FactorPair, alg: Algorithm, samples: int, seed: int = 0
) -> MajorizationGaps:
    """The upper bounds of ``alg`` anchored at ``state`` (INOM: the H and W
    block bounds; PARINOM: the joint bound, which needs strictly positive
    factors), checked two ways: ``anchor`` is the largest relative gap
    ``|g - f| / max(1, f)`` at the anchor, and ``domination`` the largest
    ``f - g`` over ``samples`` random points per bound (0.0 with no samples).
    Both are at most ``MAJORIZATION_TOL`` when each bound touches and
    dominates the objective; a NaN gap is kept, so it fails that comparison.
    """
    linalg.require_count(samples, "samples", 0)
    linalg.require_count(seed, "seed", 0)
    V = linalg.as_matrix(V, "V")
    W, H = state.W, state.H
    rng = np.random.default_rng(seed)
    top_w = 2.0 * max(1.0, float(W.max()))
    top_h = 2.0 * max(1.0, float(H.max()))
    # Each bound g(W', H') with the draw of its sample points; a block bound
    # keeps the other factor at the anchor's.
    if alg is Algorithm.INOM:
        bounds = (
            (lambda W1, H1: diagnostics.inom_h_surrogate(V, W, H, H1),
             lambda: (W, rng.uniform(0.0, top_h, size=H.shape))),
            (lambda W1, H1: diagnostics.inom_w_surrogate(V, W, H, W1),
             lambda: (rng.uniform(0.0, top_w, size=W.shape), H)),
        )
    elif alg is Algorithm.PARINOM:
        if np.any(W <= 0.0) or np.any(H <= 0.0):
            raise ContractViolationError(
                "the PARINOM bound needs strictly positive factors"
            )
        bounds = (
            (lambda W1, H1: diagnostics.parinom_surrogate(V, W, H, W1, H1),
             lambda: (rng.uniform(1e-6, top_w, size=W.shape),
                      rng.uniform(1e-6, top_h, size=H.shape))),
        )
    else:
        raise ContractViolationError(
            f"no majorization bound is defined for {alg.value}"
        )
    f_here = linalg.frobenius_residual(V, W, H)
    anchor = [abs(g(W, H) - f_here) / max(1.0, f_here) for g, _ in bounds]
    gaps = [
        linalg.frobenius_residual(V, *p) - g(*p)
        for g, draw in bounds
        for p in (draw() for _ in range(samples))
    ]
    # numpy's max keeps a NaN gap; Python's max would drop it.
    return MajorizationGaps(float(np.max(anchor)), float(np.max(gaps)) if gaps else 0.0)


def inertial_anchor(V, start: FactorPair) -> FactorPair:
    """``(W, H_ext)``, where a carried INOM call anchors its H bound, after a
    real two-iterate history from ``start``: one uncarried call, then one
    carried call, whose memory gives the next call nonzero momentum (unless
    it fell back). ``H_ext = H + beta (H - H_prev)`` may have negative
    entries; the bound is a quadratic in H, defined there all the same."""
    v_sq = float(np.vdot(V, V))
    step = solvers.base_map(Algorithm.INOM)
    x, info = step(V, start.copy(), v_sq=v_sq)
    x, info = step(V, x, v_sq=v_sq, products=info["products"])
    memory = info["products"]
    _, nesterov = solvers._nesterov(memory.t)
    H_ext = solvers._extrapolate(x.H, memory.H_prev, nesterov, memory.mu, x.W.T)
    return FactorPair(x.W, H_ext)


def fixed_point_drift(V, pair: FactorPair, alg: Algorithm) -> float:
    """Largest entry change of ``pair`` under one step of the base map of
    ``alg`` (a key of ``solvers.BASE_MAPS``); ``pair`` is an exact
    factorization of ``V``, so the change should be zero up to rounding."""
    v_sq = float(np.vdot(V, V))
    out, _ = solvers.base_map(alg)(V, pair.copy(), v_sq=v_sq)
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


class AccelerationGaps(NamedTuple):
    """The SQUAREM invariants around one base map, among them inertial
    INOM's beta = 0 identity; see :func:`acceleration_gaps`."""

    identity_exact: bool
    rise: float
    lag: float


def acceleration_gaps(
    V, start: FactorPair, alg: Algorithm, steps: int
) -> AccelerationGaps:
    """SQUAREM around the base map of ``alg`` (a key of
    ``solvers.BASE_MAPS``) from ``start``, checked three ways:
    ``identity_exact`` tells whether alpha = -1 gives the two-step iterate
    of two uncarried calls and its objective bit for bit; ``rise`` is
    :func:`solvers.objective_rise` over ``steps`` accepted steps (an
    integer of at least 1); and ``lag`` is the largest amount by which the
    objective after k accelerated steps exceeds the one after 2k plain
    steps, beyond ``DOMINANCE_SLACK``. ``rise`` and ``lag`` are at most 0
    when the invariants hold, and NaN when an objective is. Every objective
    of ``rise`` and ``lag`` is the exact residual of its iterate, so a wrong
    Gram-form value in the step cannot hide a violation.

    Around INOM the identity is also inertial INOM's beta = 0 identity: the
    step's second application is handed the memory of an uncarried first
    call, whose t = 1 gives beta = 0 though its previous pair differs, so
    it must be the paper's step bit for bit.
    """
    linalg.require_count(steps, "steps", 1)
    step = solvers.base_map(alg)
    v_sq = float(np.vdot(V, V))

    def objective(pair):
        return linalg.frobenius_residual(V, pair.W, pair.H)

    plain = [objective(start)]
    x1, _ = step(V, start.copy(), v_sq=v_sq)
    x2, info = step(V, x1, v_sq=v_sq)
    forced, forced_state = squarem.squarem_step(
        V, start.copy(), step, f0=plain[0], v_sq=v_sq, force_alpha=-1.0
    )
    exact = (
        np.array_equal(forced.W, x2.W)
        and np.array_equal(forced.H, x2.H)
        and forced_state.objective == info["objective"]
    )

    # The plain run goes on from the two-step iterate.
    plain += [objective(x1), objective(x2)]
    s = x2
    for _ in range(2 * steps - 2):
        s, _ = step(V, s, v_sq=v_sq)
        plain.append(objective(s))
    s, accel = start.copy(), [plain[0]]
    for _ in range(steps):
        s, _ = squarem.squarem_step(V, s, step, f0=accel[-1], v_sq=v_sq)
        accel.append(objective(s))
    # numpy's max keeps a NaN objective; Python's max would drop it.
    lag = np.max(np.subtract(accel[1:], plain[2::2]) - DOMINANCE_SLACK)
    return AccelerationGaps(bool(exact), objective_rise(accel), float(lag))


def _random_instance(seed: int, n: int = 12, m: int = 15, r: int = 3):
    rng = np.random.default_rng(seed)
    V = linalg.normalize_columns(rng.uniform(0.5, 1.5, size=(n, m)))
    return V, r


def _suite_monotonicity(seed: int, quick: bool) -> Iterator[tuple[bool, str]]:
    instances = 2 if quick else 4
    iters = 15 if quick else 30
    for alg in solvers.Algorithm:
        for i in range(instances):
            V, r = _random_instance(derive_seed(seed, 10, i), r=(i % 3) * 2 + 1)
            config = SolverConfig(
                algorithm=alg, rank=r, tol=1e-15, max_iters=iters, seed=derive_seed(seed, 11, i)
            )
            rise = monotone_rise(V, config)
            yield (
                rise <= 0.0,
                f"algorithm={alg.value} instance={i} objective rose by {rise!r} "
                "beyond the slack",
            )


def _suite_majorization(seed: int, quick: bool) -> Iterator[tuple[bool, str]]:
    instances = 2 if quick else 5
    samples = 20 if quick else 100
    for i in range(instances):
        V, r = _random_instance(derive_seed(seed, 20, i))
        rng = np.random.default_rng(derive_seed(seed, 21, i))
        W = linalg.normalize_columns(rng.uniform(0.1, 1.0, size=(V.shape[0], r)))
        H = rng.uniform(0.1, 1.0, size=(r, V.shape[1]))
        state = FactorPair(W, H)
        cases = (
            ("inom", state, Algorithm.INOM),
            ("parinom", state, Algorithm.PARINOM),
            ("inertial inom", inertial_anchor(V, state), Algorithm.INOM),
        )
        for name, anchor, alg in cases:
            gaps = majorization_gaps(V, anchor, alg, samples, derive_seed(seed, 22, i))
            yield (
                all(gap <= MAJORIZATION_TOL for gap in gaps),
                f"algorithm={name} instance={i} bound misses the objective "
                f"by {gaps.anchor!r} at its anchor and undercuts it by "
                f"{gaps.domination!r} at a sample",
            )


def _suite_fixed_point(seed: int, quick: bool) -> Iterator[tuple[bool, str]]:
    instances = 2 if quick else 5
    for i in range(instances):
        rng = np.random.default_rng(derive_seed(seed, 30, i))
        n, m, r = 8, 10, 3
        W = linalg.normalize_columns(rng.uniform(0.5, 1.5, size=(n, r)))
        H = rng.uniform(0.5, 1.5, size=(r, m))
        V, pair = W @ H, FactorPair(W, H)
        for alg in solvers.BASE_MAPS:
            drift = fixed_point_drift(V, pair, alg)
            yield (
                drift <= FIXED_POINT_TOL,
                f"map={alg.value} instance={i} planted factorization drifted by {drift!r}",
            )


def _suite_psd_bound(seed: int, quick: bool) -> Iterator[tuple[bool, str]]:
    count = 50 if quick else 200
    rng = np.random.default_rng(derive_seed(seed, 40))
    for i in range(count):
        size = int(rng.integers(2, 21))
        B = rng.uniform(0.0, 1.0, size=(size, size))
        gap = psd_gap(B + B.T)
        yield (
            gap >= -PSD_TOL,
            f"sample={i} size={size} min eigenvalue {gap!r} below {-PSD_TOL!r}",
        )


def _suite_kkt_decrease(seed: int, quick: bool) -> Iterator[tuple[bool, str]]:
    instances = 2 if quick else 5
    for i in range(instances):
        rng = np.random.default_rng(derive_seed(seed, 60, i))
        V = linalg.normalize_columns(rng.uniform(0.5, 1.5, size=(10, 12)))
        for alg in (Algorithm.INOM, Algorithm.FAST_HALS):
            config = SolverConfig(
                algorithm=alg, rank=3, tol=1e-8, seed=derive_seed(seed, 61, i)
            )
            ratio = kkt_ratio(V, config)
            yield (
                ratio <= KKT_DROP,
                f"algorithm={alg.value} instance={i} stationarity residual "
                f"shrank only to {ratio!r} of its start (needs {KKT_DROP!r})",
            )


def _suite_acceleration(seed: int, quick: bool) -> Iterator[tuple[bool, str]]:
    instances = 2 if quick else 5
    steps = 5 if quick else 10
    for alg in solvers.BASE_MAPS:
        for i in range(instances):
            V, r = _random_instance(derive_seed(seed, 70, i), r=i % 3 + 2)
            start = solvers.initial_factors(V, r, derive_seed(seed, 71, i))
            gaps = acceleration_gaps(V, start, alg, steps)
            where = f"map={alg.value} instance={i}"
            yield (
                gaps.identity_exact,
                f"{where} alpha = -1 did not reproduce the two-step iterate "
                "and its objective",
            )
            yield (
                gaps.rise <= 0.0,
                f"{where} accepted step raised the objective by {gaps.rise!r} "
                "beyond the slack",
            )
            yield (
                gaps.lag <= 0.0,
                f"{where} accelerated steps trailed twice as many plain steps "
                f"by {gaps.lag!r} beyond the slack",
            )


# Each suite yields an (ok, detail) pair per check; detail is the counterexample.
SUITES = (
    ("monotonicity", _suite_monotonicity),
    ("majorization", _suite_majorization),
    ("fixed-point", _suite_fixed_point),
    ("psd-bound", _suite_psd_bound),
    ("kkt-decrease", _suite_kkt_decrease),
    ("acceleration", _suite_acceleration),
)


def run_all(seed: int = 0, quick: bool = False) -> list[SuiteResult]:
    """Run every suite; reduced sample counts with ``quick=True``.

    A suite that aborts with a solver error counts as one failed check, its
    earlier checks dropped, with the error text as its counterexample; a
    broken solver must never crash the harness that is supposed to flag it.
    """
    out: list[SuiteResult] = []
    for name, suite in SUITES:
        try:
            checks = list(suite(seed, quick))
        except NmfError as exc:
            checks = [(False, f"suite aborted: {exc}")]
        result = SuiteResult(name)
        for ok, detail in checks:
            result.record(ok, detail)
        out.append(result)
    return out
