"""NMF iteration maps (INOM, PARINOM, MU, Fast-HALS) and the outer solve loop.

All maps minimize ``||V - W H||_F**2`` over entrywise-nonnegative factors.
They are pure functions of ``(V, state)``: inputs are never mutated, so
multiple solves may share a read-only V concurrently. INOM updates H, then
W from the new H. PARINOM builds both factor updates from the incoming pair
(the paper's "parallel" update), so they are independent; they are
evaluated one after the other.

Conventions kept by every full iteration:
  * both factors stay entrywise nonnegative;
  * columns of W end the iteration with unit Euclidean norm. For INOM,
    PARINOM and MU the column scales are moved into the rows of H, which
    leaves the product W H (and hence the objective) unchanged. Fast-HALS
    renormalizes each column inside its sweep, where the unit-norm update is
    itself the exact block minimizer.

Every full iteration map has one signature, ``(V, pair, *, v_sq=None) ->
(pair, info)``. Given ``v_sq = ||V||_F**2``, ``info["objective"]`` is the
objective of ``pair``, formed in Gram form (:func:`linalg.gram_objective`)
from products the step has already computed; without it the objective is
not evaluated. The multiplicative maps and Fast-HALS floor their entries at
the fixed constant :data:`POSITIVITY_FLOOR`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import (
    ContractViolationError,
    DegenerateComponentError,
    DegenerateFactorError,
    NumericalFailureError,
    PositivityError,
)

__all__ = [
    "Algorithm",
    "SolverConfig",
    "FactorPair",
    "TraceRecord",
    "IterationTrace",
    "normalize_pair",
    "initial_factors",
    "inom_update_h",
    "inom_update_w",
    "inom_iterate",
    "parinom_iterate",
    "mu_iterate",
    "fast_hals_iterate",
    "solve",
]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 5000
# Lower bound on every entry a multiplicative or Fast-HALS update produces:
# a numerical guard that keeps the next ratio update defined, not a
# parameter of the method.
POSITIVITY_FLOOR = 1e-12


class Algorithm(Enum):
    INOM = "inom"
    PARINOM = "parinom"
    MU = "mu"
    FAST_HALS = "fast-hals"
    ACC_PARINOM = "acc-parinom"
    ACC_MU = "acc-mu"


@dataclass(frozen=True)
class SolverConfig:
    """Everything a solve needs besides the data matrix itself."""

    algorithm: Algorithm
    rank: int
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS
    seed: int = 0
    target_fraction: Optional[float] = None

    def __post_init__(self):
        if self.rank < 1:
            raise ContractViolationError(f"rank must be >= 1, got {self.rank}")
        if not self.tol > 0:
            raise ContractViolationError(f"tol must be > 0, got {self.tol}")
        if self.target_fraction is not None and not 0.0 < self.target_fraction <= 1.0:
            raise ContractViolationError(
                f"target_fraction must be in (0, 1], got {self.target_fraction}"
            )
        if self.max_iters < 1:
            raise ContractViolationError(
                f"max_iters must be >= 1, got {self.max_iters}"
            )


@dataclass
class FactorPair:
    """The pair (W: n x r, H: r x m) carried between iterations."""

    W: np.ndarray
    H: np.ndarray

    def copy(self) -> "FactorPair":
        return FactorPair(self.W.copy(), self.H.copy())

    @property
    def rank(self) -> int:
        return self.W.shape[1]

    def validate(self, unit_norm_tol: float = 1e-9) -> None:
        """Check nonnegativity, conformability and unit-norm W columns."""
        linalg.require_nonnegative(self.W, "W")
        linalg.require_nonnegative(self.H, "H")
        if self.W.shape[1] != self.H.shape[0]:
            raise ContractViolationError(
                f"W has {self.W.shape[1]} columns but H has {self.H.shape[0]} rows"
            )
        norms = linalg.column_norms(self.W)
        if np.any(np.abs(norms - 1.0) > unit_norm_tol):
            raise ContractViolationError(
                f"W columns must have unit norm, got norms {norms}"
            )


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    objective: float
    elapsed_s: float
    mu: Optional[float] = None
    nu: Optional[float] = None
    backtracks: Optional[int] = None


@dataclass
class IterationTrace:
    """Per-iteration objective / timing / step-diagnostic log of one solve.

    ``stop_reason`` says why the solve ended: ``"tol"`` (relative objective
    change at most ``config.tol``), ``"target"`` (objective at most
    ``config.target_fraction`` times the start) or ``"max_iters"``.
    """

    records: list[TraceRecord] = field(default_factory=list)
    stop_reason: Optional[str] = None

    @property
    def converged(self) -> bool:
        """True when the stopping rule, not the iteration cap, ended the solve."""
        return self.stop_reason in ("tol", "target")

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    @property
    def elapsed(self) -> np.ndarray:
        return np.array([r.elapsed_s for r in self.records])

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration

    def is_monotone(self, slack: float = 1e-9) -> bool:
        """True when f never rises by more than ``slack * max(1, f)``."""
        f = self.objectives
        return bool(np.all(f[1:] <= f[:-1] + slack * np.maximum(1.0, f[:-1])))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("iter,objective,elapsed_s\n")
            for r in self.records:
                fh.write(f"{r.iteration},{r.objective!r},{r.elapsed_s!r}\n")


def normalize_pair(W: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalize the columns of W and move their scales into the rows of
    H, which leaves the product W H unchanged.

    Raises :class:`DegenerateFactorError` when a column of W is zero.
    """
    norms = linalg.column_norms(W)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateFactorError(
            f"column {int(zero[0])} of W collapsed to zero during the iteration"
        )
    return W / norms, H * norms[:, None]


def initial_factors(V: np.ndarray, config: SolverConfig) -> FactorPair:
    """Seeded uniform-[0,1) starting factors with W column-normalized.

    For a fixed seed this is deterministic, so several algorithms given the
    same config seed start from the same factors and the same objective.
    """
    n, m = V.shape
    rng = np.random.default_rng(config.seed)
    W = rng.random((n, config.rank))
    H = rng.random((config.rank, m))
    return FactorPair(linalg.normalize_columns(W), H)


def inom_update_h(V, W, H) -> tuple[np.ndarray, float]:
    """One INOM block update of H with W fixed.

    The step size ``mu`` is the maximum row sum of ``2 W^T W``, which
    dominates the block Hessian, so the projected step
    ``max(0, H + (2 W^T V - 2 W^T W H) / mu)`` minimizes the quadratic upper
    bound of the objective anchored at H and can only decrease the misfit.

    Returns the updated H and ``mu``.
    """
    G = W.T @ W
    mu = linalg.max_row_sum(2.0 * G)
    if mu == 0.0:
        raise DegenerateFactorError("W is identically zero; no H step size exists")
    Hn = np.maximum(0.0, H + (2.0 * (W.T @ V) - 2.0 * (G @ H)) / mu)
    return Hn, mu


def inom_update_w(V, W, H):
    """One INOM block update of W with H fixed; returns (W', nu, V H^T, H H^T).

    ``nu`` is the maximum row sum of ``2 H H^T``. The step's two products
    are returned so that the caller can form the objective without a fresh
    O(nmr) product.
    """
    G = H @ H.T
    nu = linalg.max_row_sum(2.0 * G)
    if nu == 0.0:
        raise DegenerateFactorError("H is identically zero; no W step size exists")
    VHt = V @ H.T
    Wn = np.maximum(0.0, W + (2.0 * VHt - 2.0 * (W @ G)) / nu)
    return Wn, nu, VHt, G


def inom_iterate(
    V, state: FactorPair, *, v_sq: Optional[float] = None
) -> tuple[FactorPair, dict]:
    """Full INOM iteration: H step, then W step, then renormalize W.

    Per-iteration cost is O(2 r n m + 2 r^2 (n + m)). The info dict holds
    the step sizes ``"mu"`` and ``"nu"``; with ``v_sq`` the objective reuses
    the W step's ``V H^T`` and ``H H^T``.
    """
    Hn, mu = inom_update_h(V, state.W, state.H)
    Wn, nu, VHt, G = inom_update_w(V, state.W, Hn)
    pair = FactorPair(*normalize_pair(Wn, Hn))
    info = {"mu": mu, "nu": nu}
    if v_sq is not None:
        cross = float(np.vdot(VHt, Wn))
        info["objective"] = linalg.gram_objective(
            V, pair.W, pair.H, v_sq, cross, Wn.T @ Wn, G
        )
    return pair, info


def _quarter_power_step(numerator, denominator, X, what):
    if np.any(denominator == 0.0):
        raise PositivityError(
            f"zero denominator entry in the {what} update; factors must stay "
            "strictly positive"
        )
    return np.maximum(POSITIVITY_FLOOR, ((numerator * X**4) / denominator) ** 0.25)


def parinom_update(V, W, H):
    """Raw PARINOM quarter-power maps, before any normalization.

    W' = ((V H^T  o W^4) / (W H H^T))^(1/4)
    H' = ((W^T V o H^4) / (W^T W H))^(1/4)

    Both are computed entirely from the incoming (W, H), so they are mutually
    independent and the order in which they are evaluated does not matter.
    Entries are floored at ``POSITIVITY_FLOOR`` afterwards because the
    multiplicative form needs strictly positive factors on the next call.
    """
    Wn = _quarter_power_step(V @ H.T, W @ (H @ H.T), W, "W")
    Hn = _quarter_power_step(W.T @ V, (W.T @ W) @ H, H, "H")
    return Wn, Hn


def parinom_iterate(
    V, state: FactorPair, *, v_sq: Optional[float] = None
) -> tuple[FactorPair, dict]:
    """Full PARINOM iteration: the joint W/H update of :func:`parinom_update`,
    both factors computed from the incoming pair, then W renormalized.

    Every product of the step belongs to the incoming pair, so with ``v_sq``
    the objective costs one fresh ``W'^T V``.
    """
    pair = FactorPair(*normalize_pair(*parinom_update(V, state.W, state.H)))
    if v_sq is None:
        return pair, {}
    W, H = pair.W, pair.H
    f = linalg.gram_objective(V, W, H, v_sq, float(np.vdot(W.T @ V, H)), W.T @ W, H @ H.T)
    return pair, {"objective": f}


def mu_iterate(
    V, state: FactorPair, *, v_sq: Optional[float] = None
) -> tuple[FactorPair, dict]:
    """Multiplicative-update iteration: W ratio step, then H ratio step.

    The H step uses the freshly updated W in both its numerator and
    denominator, which keeps exact factorizations fixed points of the map.
    W is renormalized (scales moved into H) after the pair of updates. With
    ``v_sq`` the objective reuses the H step's ``W'^T V`` and ``W'^T W'``.
    """
    W, H = state.W, state.H
    den_w = W @ (H @ H.T)
    if np.any(den_w == 0.0):
        raise PositivityError("zero denominator entry in the MU W update")
    Wn = np.maximum(POSITIVITY_FLOOR, W * ((V @ H.T) / den_w))
    WtW = Wn.T @ Wn
    den_h = WtW @ H
    if np.any(den_h == 0.0):
        raise PositivityError("zero denominator entry in the MU H update")
    WtV = Wn.T @ V
    Hn = np.maximum(POSITIVITY_FLOOR, H * (WtV / den_h))
    pair = FactorPair(*normalize_pair(Wn, Hn))
    if v_sq is None:
        return pair, {}
    cross = float(np.vdot(WtV, Hn))
    f = linalg.gram_objective(V, pair.W, pair.H, v_sq, cross, WtW, Hn @ Hn.T)
    return pair, {"objective": f}


def fast_hals_iterate(
    V, state: FactorPair, *, v_sq: Optional[float] = None
) -> tuple[FactorPair, dict]:
    """One Fast-HALS sweep: every row of H, then every column of W.

    Each inner step is the exact nonnegative minimizer of the objective over
    that single row/column (for W, over the unit sphere, hence the in-loop
    normalization), using Gram-matrix precomputations instead of explicit
    residuals. With ``v_sq`` the objective reuses the W sweep's ``V H^T``
    and ``H H^T``.
    """
    W = state.W.copy()
    H = state.H.copy()
    r = W.shape[1]
    P = V.T @ W
    Q = W.T @ W
    for j in range(r):
        if Q[j, j] == 0.0:
            raise DegenerateComponentError(j, f"zero Gram diagonal for component {j}")
        H[j] = np.maximum(POSITIVITY_FLOOR, H[j] + (P[:, j] - H.T @ Q[:, j]) / Q[j, j])
    R = V @ H.T
    S = H @ H.T
    for j in range(r):
        if S[j, j] == 0.0:
            raise DegenerateComponentError(j, f"zero Gram diagonal for component {j}")
        w = np.maximum(POSITIVITY_FLOOR, W[:, j] + (R[:, j] - W @ S[:, j]) / S[j, j])
        W[:, j] = w / math.sqrt(float(w @ w))
    pair = FactorPair(W, H)
    if v_sq is None:
        return pair, {}
    f = linalg.gram_objective(V, W, H, v_sq, float(np.vdot(R, W)), W.T @ W, S)
    return pair, {"objective": f}


# The base map each SQUAREM-accelerated algorithm wraps.
_ACCELERATED = {
    Algorithm.ACC_PARINOM: Algorithm.PARINOM,
    Algorithm.ACC_MU: Algorithm.MU,
}


def solve(
    V,
    config: SolverConfig,
    init: Optional[FactorPair] = None,
    *,
    callback: Optional[Callable[[int, FactorPair], None]] = None,
) -> tuple[FactorPair, IterationTrace]:
    """Run the configured iteration map until the stopping rule holds or
    ``config.max_iters`` is reached.

    The stopping rule is the relative objective change dropping to
    ``config.tol``. When ``config.target_fraction`` is set it replaces that
    rule: the solve stops at the first iteration whose objective is at most
    ``target_fraction`` times the starting objective, and ``tol`` is ignored.

    Parameters
    ----------
    V : array, shape (n, m)
        Nonnegative data matrix. Column-normalize it beforehand if the
        normalized-cone convention is wanted; this routine uses V as given.
    config : SolverConfig
        Algorithm, rank, stopping rule and seed.
    init : FactorPair, optional
        Starting factors, shapes (n, rank) and (rank, m), entrywise finite
        and nonnegative; they are copied and become iterate 0. When omitted the
        seeded uniform start of :func:`initial_factors` is used.
    callback : callable, optional
        Invoked as ``callback(iteration, state)`` after each full iteration.

    Returns
    -------
    (FactorPair, IterationTrace)
        Final factors and the full objective/timing trace. The objective
        sequence in the trace is non-increasing. ``trace.stop_reason`` is
        ``"tol"``, ``"target"`` or ``"max_iters"``; ``trace.converged`` is
        true for the first two.

    Notes
    -----
    ``||V||_F**2`` is computed once per solve, and each iteration's objective
    comes from the iteration map in Gram form (:func:`linalg.gram_objective`),
    accurate to about ``eps * ||V||_F**2``. The objective of iterate 0, and
    any value below ``linalg.GRAM_EXACT_BELOW * ||V||_F**2``, is the exact
    :func:`linalg.frobenius_residual`.
    """
    V = linalg.as_matrix(V, "V")
    linalg.require_nonnegative(V, "V")
    n, m = V.shape
    if config.rank > min(n, m):
        raise ContractViolationError(
            f"rank {config.rank} exceeds min(n, m) = {min(n, m)}"
        )

    if init is None:
        state = initial_factors(V, config)
    else:
        if init.W.shape != (n, config.rank) or init.H.shape != (config.rank, m):
            raise ContractViolationError(
                f"init shapes {init.W.shape}/{init.H.shape} do not match "
                f"({n}, {config.rank})/({config.rank}, {m})"
            )
        linalg.require_nonnegative(init.W, "init W")
        linalg.require_nonnegative(init.H, "init H")
        state = init.copy()

    base = _ACCELERATED.get(config.algorithm)
    if base is not None:
        from . import squarem
    else:
        # The maps are looked up here, per solve, so that a replaced module
        # attribute (a tracer, a test fake) is the one called.
        step = {
            Algorithm.INOM: inom_iterate,
            Algorithm.PARINOM: parinom_iterate,
            Algorithm.MU: mu_iterate,
            Algorithm.FAST_HALS: fast_hals_iterate,
        }.get(config.algorithm)
        if step is None:
            raise ContractViolationError(f"unknown algorithm {config.algorithm!r}")
    v_sq = float(np.vdot(V, V))
    trace = IterationTrace()
    f_prev = linalg.frobenius_residual(V, state.W, state.H)
    if not np.isfinite(f_prev):
        raise NumericalFailureError("initial objective is not finite", iteration=0)
    trace.append(TraceRecord(0, f_prev, 0.0))
    target = None if config.target_fraction is None else config.target_fraction * f_prev

    t0 = time.perf_counter()
    trace.stop_reason = "max_iters"
    for k in range(1, config.max_iters + 1):
        if base is None:
            state, info = step(V, state, v_sq=v_sq)
        else:
            state, accel = squarem.squarem_step(V, state, base, f0=f_prev, v_sq=v_sq)
            info = {"objective": accel.objective, "backtracks": accel.backtracks}
        f_k = info["objective"]
        if not np.isfinite(f_k):
            raise NumericalFailureError(
                f"objective became non-finite at iteration {k}", iteration=k
            )
        trace.append(
            TraceRecord(
                k,
                f_k,
                time.perf_counter() - t0,
                mu=info.get("mu"),
                nu=info.get("nu"),
                backtracks=info.get("backtracks"),
            )
        )
        if callback is not None:
            callback(k, state)
        if target is not None:
            done, reason = f_k <= target, "target"
        else:
            rel_change = abs(f_k - f_prev) / f_prev if f_prev > 0.0 else 0.0
            done, reason = rel_change <= config.tol, "tol"
        if done:
            trace.stop_reason = reason
            break
        f_prev = f_k
    return state, trace
