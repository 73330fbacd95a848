"""NMF iteration maps (INOM, PARINOM, MU, Fast-HALS) and the outer solve loop.

All maps minimize ``||V - W H||_F**2`` over entrywise-nonnegative factors.
They are pure functions of ``(V, state)``: a map writes only arrays it
formed itself, never V or the incoming pair, so multiple solves may share a
read-only V concurrently. INOM updates H, then W from the new H. PARINOM
builds both factor updates from the incoming pair (the paper's "parallel"
update), so they are independent; they are evaluated one after the other.
Its maps are ``W o (V H^T / (W H H^T))^{1/4}`` and ``H o (W^T V / (W^T W
H))^{1/4}``, with the quarter power taken as two square roots. MU takes the
same ratios to the first power.

Each block rule is written once and serves both factors: ``_ratio_step``,
the floored ratio step of MU and PARINOM, written into the step's own
freshly formed denominator; ``_projected_step``, INOM's step, whose W update
is the H update of the transposed problem; and ``_hals_sweep``, Fast-HALS's
exact row solves, run on H and on the view ``W.T``.

Conventions kept by every full iteration:
  * both factors stay entrywise nonnegative;
  * columns of W end the iteration with unit Euclidean norm. For INOM,
    PARINOM and MU the column scales are moved into the rows of H, which
    leaves the product W H (and hence the objective) unchanged. Fast-HALS
    renormalizes each column inside its sweep, where the unit-norm update is
    itself the exact block minimizer.

Every full iteration map has one signature, ``(V, pair, *, v_sq,
products=None) -> (pair, info)``, with ``v_sq = ||V||_F**2``.
``info["objective"]`` is the objective of ``pair``, formed in Gram form
(:func:`linalg.gram_objective`) from products the step has already computed.

The products carry: each product is formed once across consecutive calls.
``products`` is ``(V H^T, W^T W, H H^T)`` of a pair, with None for an entry
the map did not form. Every call hands on, as ``info["products"]``, the
products of the pair it returns that its objective formed, and the same
map's next call, given them as ``products=``, reads the ones its step needs
instead of forming them again; it forms any entry it reads that is None.
:func:`solve` threads them from one call to the next. A map hands on only
entries formed by the same expression the consumer would use, so a carried
run of PARINOM, MU or Fast-HALS and an uncarried run are bitwise equal.
``products=None`` means "form them here", so a pair built or changed by
hand never meets stale products.

  * PARINOM hands on all three (:func:`linalg.pair_objective`) and its step
    reads all three, so a carried call forms two O(nmr) products, the step's
    ``W^T V`` and the objective's ``V H'^T`` (three uncarried);
  * MU hands on ``(None, None, H H^T)`` and its W step reads ``H H^T``, and
    ``V H^T`` too when it is given, as a SQUAREM candidate's products give
    it;
  * Fast-HALS hands on ``(None, W^T W, H H^T)`` and its H sweep reads
    ``W^T W``;
  * INOM hands on no products but its memory, an :class:`InomMemory` of the
    returned pair and the pair before it, which makes its next call on that
    pair inertial (:func:`inom_iterate`); a carried call still forms two
    O(nmr) products. Given anything else, a product tuple included, it takes
    the paper's step.

The multiplicative maps and Fast-HALS floor their entries at the fixed
constant :data:`POSITIVITY_FLOOR`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import ContractViolationError, NumericalFailureError

__all__ = [
    "Algorithm",
    "SolverConfig",
    "FactorPair",
    "TraceRecord",
    "IterationTrace",
    "objective_rise",
    "normalize_pair",
    "initial_factors",
    "inom_update_h",
    "inom_update_w",
    "InomMemory",
    "inom_iterate",
    "parinom_iterate",
    "mu_iterate",
    "fast_hals_iterate",
    "base_map",
    "solve",
]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 5000
# Lower bound on every entry a multiplicative or Fast-HALS update produces:
# a numerical guard that keeps the next ratio update defined, not a
# parameter of the method.
POSITIVITY_FLOOR = 1e-12
# A step may raise the objective by at most this much times max(1, f).
MONOTONE_SLACK = 1e-9


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
    target: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.algorithm, Algorithm):
            choices = ", ".join(a.value for a in Algorithm)
            raise ContractViolationError(
                f"algorithm must be an Algorithm ({choices}), got {self.algorithm!r}"
            )
        linalg.require_count(self.rank, "rank", 1)
        linalg.require_real(self.tol, "tol")
        if not self.tol > 0:
            raise ContractViolationError(f"tol must be > 0, got {self.tol}")
        if self.target is not None:
            linalg.require_real(self.target, "target")
            if not self.target >= 0.0:
                raise ContractViolationError(
                    f"target must be a nonnegative objective level, got {self.target}"
                )
        linalg.require_count(self.max_iters, "max_iters", 1)
        linalg.require_count(self.seed, "seed", 0)


# Largest distance from 1 that FactorPair.validate allows a W column norm.
UNIT_NORM_TOL = 1e-9


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

    def validate(self) -> None:
        """Check nonnegativity, conformability and unit-norm W columns, each
        norm within ``UNIT_NORM_TOL`` of 1."""
        linalg.require_nonnegative(self.W, "W")
        linalg.require_nonnegative(self.H, "H")
        if self.W.shape[1] != self.H.shape[0]:
            raise ContractViolationError(
                f"W has {self.W.shape[1]} columns but H has {self.H.shape[0]} rows"
            )
        norms = linalg.column_norms(self.W)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
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
    ``config.target``) or ``"max_iters"``.
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

    def is_monotone(self) -> bool:
        """True when f never rises by more than ``MONOTONE_SLACK * max(1, f)``."""
        return objective_rise(self.objectives) <= 0.0

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("iter,objective,elapsed_s\n")
            for r in self.records:
                fh.write(f"{r.iteration},{r.objective!r},{r.elapsed_s!r}\n")


def objective_rise(f) -> float:
    """Largest rise ``f[k+1] - f[k]`` of an objective sequence beyond
    ``MONOTONE_SLACK * max(1, f[k])``: at most 0 when the sequence descends,
    -inf for fewer than two values, and NaN when any value is NaN."""
    f = np.asarray(f, dtype=np.float64)
    if f.size < 2:
        return -np.inf
    return float(np.max(f[1:] - f[:-1] - MONOTONE_SLACK * np.maximum(1.0, f[:-1])))


def normalize_pair(W: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Unit-normalize the columns of W and move their scales into the rows of
    H, both in place, which leaves the product W H unchanged; returns the
    column norms. The caller hands over arrays its step has just formed, so
    no one else holds them.

    Raises :class:`NumericalFailureError`, naming the first zero column of
    W, before either array is written.
    """
    norms = linalg.column_norms(W)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise NumericalFailureError(
            f"column {int(zero[0])} of W collapsed to zero during the iteration"
        )
    W /= norms
    H *= norms[:, None]
    return norms


def initial_factors(V: np.ndarray, rank: int, seed: int) -> FactorPair:
    """Seeded uniform-[0,1) starting factors of V's shape and the given rank,
    with W column-normalized.

    For a fixed seed this is deterministic, so several algorithms given the
    same rank and seed start from the same factors and the same objective.
    """
    linalg.require_count(rank, "rank", 1)
    linalg.require_count(seed, "seed", 0)
    n, m = V.shape
    rng = np.random.default_rng(seed)
    W = rng.random((n, rank))
    H = rng.random((rank, m))
    return FactorPair(linalg.normalize_columns(W), H)


def inom_update_h(V, W, H) -> tuple[np.ndarray, float]:
    """One INOM block update of H with W fixed, :func:`_projected_step` with
    ``G = W^T W``; returns the updated H and its step size ``mu``."""
    G = W.T @ W
    return _projected_step(W.T @ V, G @ H, H, G, "W", "H")


def inom_update_w(V, W, H):
    """One INOM block update of W with H fixed, :func:`_projected_step` with
    ``G = H H^T``; returns (W', nu, V H^T, H H^T). The two products let the
    caller form the objective without a fresh O(nmr) product."""
    G = H @ H.T
    VHt = V @ H.T
    Wn, nu = _projected_step(VHt, W @ G, W, G, "H", "W")
    return Wn, nu, VHt, G


# Inertial INOM weighs each block's extrapolation by
# min((t_{k-1} - 1) / t_k, INERTIA_BOUND * sqrt(L_{k-1} / L_k)).
INERTIA_BOUND = 0.9999


@dataclass(frozen=True, eq=False)
class InomMemory:
    """What a carried :func:`inom_iterate` call hands the next one as
    ``info["products"]``: the pair it returned (``W``, ``H``, matched by
    identity against the next call's pair), the pair it stepped from
    (``W_prev``, ``H_prev``), Nesterov's ``t``, the two block step sizes
    ``mu`` and ``nu``, and the returned pair's objective."""

    W: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)
    W_prev: np.ndarray = field(repr=False)
    H_prev: np.ndarray = field(repr=False)
    t: float
    mu: float
    nu: float
    objective: float


def inom_iterate(
    V, state: FactorPair, *, v_sq: float, products=None
) -> tuple[FactorPair, dict]:
    """Full INOM iteration: H step, then W step, then renormalize W; inertial
    when handed its own memory.

    Per-iteration cost is O(2 r n m + 2 r^2 (n + m)). The info dict holds
    the step sizes ``"mu"`` and ``"nu"``, the objective, which reuses the W
    step's ``V H^T`` and ``H H^T``, and, as ``"products"``, an
    :class:`InomMemory` of the returned pair.

    Given, as ``products``, the memory that the previous call handed on with
    this very pair, the iteration is inertial (TITAN: Hien, Phan & Gillis,
    "An Inertial Block Majorization Minimization Framework for Nonsmooth
    Nonconvex Optimization", JMLR 24, 2023). Each block takes the paper's
    step from the extrapolated anchor ``X + beta (X - X_prev)``, H with
    ``G = W^T W`` and then W with ``G = H' H'^T``, where
    ``beta = min((t_{k-1} - 1) / t_k, INERTIA_BOUND * sqrt(L_{k-1} / L_k))``
    with Nesterov's ``t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2`` and ``L`` the
    block's step size (``mu`` or ``nu``). It forms the same two O(nmr)
    products as the paper's step. If its Gram-form objective exceeds the
    incoming pair's (or is NaN, or the step fails), the call returns the
    paper's step from the incoming pair and resets ``t`` to 1, so a carried
    trace never rises; such a call forms four O(nmr) products.

    For a Lipschitz-gradient block surrogate, which each INOM block bound is
    (``mu`` dominates the block Hessian), TITAN's subsequential convergence
    theorem admits ``0 <= beta <= sqrt(C L_{k-1} / L_k)`` with a constant
    ``C < 1``; the rule here has ``C = INERTIA_BOUND**2``, and a fallback
    call is the ``beta = 0`` step, which that range also admits. The theorem
    does not cover the renormalization of W between iterations, which
    rescales the pair the extrapolation is taken from, so the claim made
    here is only the observed one: the carried trace is monotone, by the
    fallback.

    Otherwise (``products`` None, a SQUAREM candidate's product tuple, or
    memory of another pair) the call is the paper's step, bit for bit, and
    ``t`` starts at 1, so the next carried call has ``beta = 0``.
    """
    W, H = state.W, state.H
    memory, pair = products, None
    if isinstance(memory, InomMemory) and memory.W is W and memory.H is H:
        t, nesterov = _nesterov(memory.t)
        try:
            pair, info = _inom_step(V, W, H, v_sq, memory, nesterov)
        except NumericalFailureError:
            pass
        else:
            if not info["objective"] <= memory.objective:
                pair = None
    if pair is None:
        t = 1.0
        pair, info = _inom_step(V, W, H, v_sq)
    info["products"] = InomMemory(
        pair.W, pair.H, W, H, t, info["mu"], info["nu"], info["objective"]
    )
    return pair, info


def _nesterov(t: float) -> tuple[float, float]:
    """Nesterov's next ``t_k = (1 + sqrt(1 + 4 t^2)) / 2`` after ``t`` and
    the momentum ``(t - 1) / t_k`` that caps the next call's beta."""
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
    return t_next, (t - 1.0) / t_next


def _inom_step(V, W, H, v_sq, memory=None, nesterov=0.0):
    """The paper's INOM iteration from (W, H), each block anchored at its
    extrapolation from ``memory``'s previous pair when ``memory`` is given.
    The block steps are the module's ``inom_update_h`` and ``inom_update_w``,
    looked up at call time."""
    if memory is not None:
        H = _extrapolate(H, memory.H_prev, nesterov, memory.mu, W.T)
    Hn, mu = inom_update_h(V, W, H)
    if memory is not None:
        W = _extrapolate(W, memory.W_prev, nesterov, memory.nu, Hn)
    Wn, nu, VHt, G = inom_update_w(V, W, Hn)
    # The cross term and W'^T W' of the pair before normalization, which has
    # the same W H: normalize_pair writes W' and H' in place.
    cross, WtW = float(np.vdot(VHt, Wn)), Wn.T @ Wn
    normalize_pair(Wn, Hn)
    f = linalg.gram_objective(V, Wn, Hn, v_sq, cross, WtW, G)
    return FactorPair(Wn, Hn), {"mu": mu, "nu": nu, "objective": f}


def _extrapolate(X, X_prev, nesterov, step_prev, F):
    """``X + beta (X - X_prev)``, the inertial anchor of one block, or X
    itself when beta is 0. ``beta = min(nesterov, INERTIA_BOUND *
    sqrt(step_prev / step))``, where ``step`` is the block's step size, twice
    the largest row sum of ``G = F F^T`` for the fixed factor F (``W^T`` for
    H, ``H'`` for W). F is nonnegative, so the row sums are ``F (F^T 1)``:
    two O(r (n + m)) passes, not G itself. A zero F gives beta 0, and the
    step then reports it."""
    step = 2.0 * float(np.max(F @ F.sum(axis=0)))
    if not step > 0.0:
        return X
    beta = min(nesterov, INERTIA_BOUND * math.sqrt(step_prev / step))
    if not beta > 0.0:
        return X
    out = np.subtract(X, X_prev)
    out *= beta
    out += X
    return out


def _projected_step(cross, GX, X, G, fixed, block):
    """``max(0, X + (2 cross - 2 GX) / mu)`` and ``mu``, the largest row sum of
    ``2 G``, which dominates the block Hessian, so the step minimizes the
    quadratic upper bound anchored at X. For H, ``cross = W^T V``, ``G = W^T
    W`` and ``GX = G H``; ``GX`` is the caller's fresh product, overwritten
    with the step, and ``cross`` is only read.

    The step is formed as ``(cross - GX) / s`` with ``s`` the largest row sum
    of ``G`` and ``mu = 2 s``. Doubling a float64 is exact short of overflow,
    so this is the same double as the written-out quotient, without two
    passes that double the products."""
    half = linalg.max_row_sum(G)
    if half == 0.0:
        raise NumericalFailureError(
            f"{fixed} is identically zero; no {block} step size exists"
        )
    out = np.subtract(cross, GX, out=GX)
    out /= half
    np.add(X, out, out=out)
    return np.maximum(0.0, out, out=out), 2.0 * half


def _ratio_step(numerator, denominator, X, what, *, quarter=False):
    """``max(POSITIVITY_FLOOR, X o (numerator / denominator))``, with the
    ratio taken to the quarter power as two square roots when ``quarter``,
    written into ``denominator``, which the caller has just formed and hands
    over; ``numerator`` and ``X`` are only read.

    Raises :class:`NumericalFailureError` when the denominator has a zero
    entry. It is a product of nonnegative factors, so its minimum is zero
    exactly when some entry is.
    """
    if denominator.min() == 0.0:
        raise NumericalFailureError(
            f"zero denominator entry in the {what} update; factors must stay "
            "strictly positive"
        )
    out = denominator
    np.divide(numerator, out, out=out)
    if quarter:
        np.sqrt(out, out=out)
        np.sqrt(out, out=out)
    np.multiply(X, out, out=out)
    return np.maximum(out, POSITIVITY_FLOOR, out=out)


def parinom_update(V, W, H, *, products=None):
    """Raw PARINOM quarter-power maps, before any normalization.

    W' = W o (V H^T / (W H H^T))^(1/4)
    H' = H o (W^T V / (W^T W H))^(1/4)

    The quarter power is taken as two square roots and no entry is raised to
    the fourth power, so the step stays finite wherever the products, their
    ratio and the new factor are. Both maps are computed entirely from the
    incoming (W, H), so they are mutually independent and the order in which
    they are evaluated does not matter. Entries are floored at
    ``POSITIVITY_FLOOR`` afterwards because the multiplicative form needs
    strictly positive factors on the next call. ``products`` is
    ``(V H^T, W^T W, H H^T)`` of (W, H) when the caller already holds them,
    with None for an entry it does not hold; when None, or for a None entry,
    they are formed here. ``W^T V`` is always formed here. Neither the
    inputs nor the products are written.
    """
    VHt, WtW, HHt = (None, None, None) if products is None else products
    VHt = V @ H.T if VHt is None else VHt
    WtW = W.T @ W if WtW is None else WtW
    HHt = H @ H.T if HHt is None else HHt
    Wn = _ratio_step(VHt, W @ HHt, W, "W", quarter=True)
    Hn = _ratio_step(W.T @ V, WtW @ H, H, "H", quarter=True)
    return Wn, Hn


def parinom_iterate(
    V, state: FactorPair, *, v_sq: float, products=None
) -> tuple[FactorPair, dict]:
    """Full PARINOM iteration: the joint W/H update of :func:`parinom_update`,
    both factors computed from the incoming pair, then W renormalized.

    The objective forms the returned pair's ``V H'^T``, ``W'^T W'`` and
    ``H' H'^T``, and ``info["products"]`` hands them on. Given the incoming
    pair's products, the step forms only ``W^T V`` and the objective's
    ``V H'^T``: two O(nmr) products per iteration instead of three.
    """
    Wn, Hn = parinom_update(V, state.W, state.H, products=products)
    products = None  # drop the incoming products before forming the new ones
    normalize_pair(Wn, Hn)
    f, products = linalg.pair_objective(V, Wn, Hn, v_sq)
    return FactorPair(Wn, Hn), {"objective": f, "products": products}


def mu_iterate(
    V, state: FactorPair, *, v_sq: float, products=None
) -> tuple[FactorPair, dict]:
    """Multiplicative-update iteration: W ratio step, then H ratio step.

    The H step uses the freshly updated W in both its numerator and
    denominator, which keeps exact factorizations fixed points of the map.
    Each update is PARINOM's floored ratio step without the quarter power,
    written into its own denominator. W is renormalized (scales moved into
    H) after the pair of updates. The W step reads ``V H^T`` from
    ``products[0]`` and ``H H^T`` from ``products[2]`` when they are given;
    MU itself hands on no ``V H^T``, but a SQUAREM candidate scored by
    :func:`linalg.pair_objective` carries one.

    The objective reuses the H step's ``W'^T V``, rescales its ``W'^T W'``
    by the column norms (O(r^2)) and forms ``H H^T`` of the returned H,
    which ``info["products"]`` hands on as ``(None, None, H H^T)``: the next
    call's W step then forms no Gram matrix of H.
    """
    W, H = state.W, state.H
    HHt = H @ H.T if products is None or products[2] is None else products[2]
    VHt = V @ H.T if products is None or products[0] is None else products[0]
    products = None  # drop the incoming products before forming the new ones
    Wn = _ratio_step(VHt, W @ HHt, W, "MU W")
    VHt = None  # n x r, not needed by the H step
    WtW = Wn.T @ Wn
    WtV = Wn.T @ V
    Hn = _ratio_step(WtV, WtW @ H, H, "MU H")
    # The cross term of the pair before normalize_pair rescales H' in place;
    # its norms then rescale W'^T W'.
    cross = float(np.vdot(WtV, Hn))
    norms = normalize_pair(Wn, Hn)
    HHt = Hn @ Hn.T
    f = linalg.gram_objective(V, Wn, Hn, v_sq, cross, WtW / np.outer(norms, norms), HHt)
    return FactorPair(Wn, Hn), {"objective": f, "products": (None, None, HHt)}


def _hals_sweep(X, P, Q, *, unit):
    """Fast-HALS's exact solve of each row of X in turn, in place:
    ``max(POSITIVITY_FLOOR, X[j] + (P[:, j] - X^T Q[:, j]) / Q[j, j])``, over
    the unit sphere (divided by its norm) when ``unit``. For H, ``P = V^T W``
    and ``Q = W^T W``; W's sweep runs on the view ``W.T``."""
    for j in range(X.shape[0]):
        if Q[j, j] == 0.0:
            raise NumericalFailureError(f"zero Gram diagonal for component {j}")
        x = np.maximum(POSITIVITY_FLOOR, X[j] + (P[:, j] - X.T @ Q[:, j]) / Q[j, j])
        X[j] = x / math.sqrt(float(x @ x)) if unit else x


def fast_hals_iterate(
    V, state: FactorPair, *, v_sq: float, products=None
) -> tuple[FactorPair, dict]:
    """One Fast-HALS sweep: :func:`_hals_sweep` over the rows of H, then over
    the columns of W, each one's exact nonnegative minimizer (for W, on the
    unit sphere). The H sweep reads ``W^T W`` from ``products[1]`` when it is
    given. The objective reuses the W sweep's ``V H^T`` and ``H H^T`` and
    forms the final ``W^T W``; ``info["products"]`` hands on ``(None, W^T W,
    H H^T)``."""
    W = state.W.copy()
    H = state.H.copy()
    WtW = W.T @ W if products is None or products[1] is None else products[1]
    products = None  # drop the incoming products before forming the new ones
    _hals_sweep(H, V.T @ W, WtW, unit=False)
    R = V @ H.T
    S = H @ H.T
    _hals_sweep(W.T, R, S, unit=True)
    WtW = W.T @ W
    f = linalg.gram_objective(V, W, H, v_sq, float(np.vdot(R, W)), WtW, S)
    return FactorPair(W, H), {"objective": f, "products": (None, WtW, S)}


# The attribute of this module holding each base algorithm's map. It is read
# per call, so that a replaced attribute (a tracer, a test fake) is the one
# called.
BASE_MAPS = {
    Algorithm.INOM: "inom_iterate",
    Algorithm.PARINOM: "parinom_iterate",
    Algorithm.MU: "mu_iterate",
    Algorithm.FAST_HALS: "fast_hals_iterate",
}
# The base map each SQUAREM-accelerated algorithm wraps.
_ACCELERATED = {
    Algorithm.ACC_PARINOM: Algorithm.PARINOM,
    Algorithm.ACC_MU: Algorithm.MU,
}


def base_map(alg: Algorithm):
    """The map ``solve`` steps with for ``alg``: its own for a base algorithm,
    the wrapped one for a SQUAREM-accelerated one, looked up at call time."""
    return globals()[BASE_MAPS[_ACCELERATED.get(alg, alg)]]


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
    ``config.tol``. When ``config.target`` is set it replaces that rule: the
    solve stops at the first iteration whose objective is at most
    ``config.target``, and ``tol`` is ignored.

    Parameters
    ----------
    V : array, shape (n, m)
        Nonnegative data matrix whose ``||V||_F**2`` is a finite float64.
        Column-normalize it beforehand if the normalized-cone convention is
        wanted; this routine uses V as given.
    config : SolverConfig
        Algorithm, rank, stopping rule and seed.
    init : FactorPair, optional
        Starting factors, shapes (n, rank) and (rank, m), entrywise finite
        and nonnegative, every row and column of either factor with a sum of
        squares of at least the smallest normal float64 (which excludes an
        all-zero or subnormal one), and a finite objective
        ``||V - W H||_F**2``; any other start is refused with
        :class:`ContractViolationError`. They are coerced to float64 as V is,
        copied, and become iterate 0. When omitted the seeded uniform
        start of :func:`initial_factors` is used.
    callback : callable, optional
        Invoked as ``callback(iteration, pair)`` after each full iteration.
        It observes only: ``pair`` is a separate :class:`FactorPair` of the
        solve's factors, read-only during the call, and assigning to its
        fields leaves the solve unchanged.

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
    :func:`linalg.frobenius_residual`, summed by row blocks of at most
    ``linalg.BLOCK_ENTRIES`` entries: for a larger V it can differ from a
    one-shot sum in the last bit, and no n x m array is formed.
    """
    V = linalg.as_matrix(V, "V")
    linalg.require_nonnegative(V, "V")
    v_sq = float(np.vdot(V, V))
    if not np.isfinite(v_sq):
        raise ContractViolationError(
            f"||V||_F**2 overflows float64 at this scale (largest entry "
            f"{float(V.max())!r}); rescale V"
        )
    if v_sq < np.finfo(np.float64).tiny:
        raise ContractViolationError(
            f"||V||_F**2 = {v_sq!r} is below the smallest normal float64 at "
            f"this scale (largest entry {float(V.max())!r}); rescale V"
        )
    n, m = V.shape
    if config.rank > min(n, m):
        raise ContractViolationError(
            f"rank {config.rank} exceeds min(n, m) = {min(n, m)}"
        )

    if init is None:
        state = initial_factors(V, config.rank, config.seed)
    else:
        state = FactorPair(
            linalg.as_matrix(init.W, "init W"), linalg.as_matrix(init.H, "init H")
        )
        if state.W.shape != (n, config.rank) or state.H.shape != (config.rank, m):
            raise ContractViolationError(
                f"init shapes {state.W.shape}/{state.H.shape} do not match "
                f"({n}, {config.rank})/({config.rank}, {m})"
            )
        linalg.require_nonnegative(state.W, "init W")
        linalg.require_nonnegative(state.H, "init H")
        # From a row or column whose squares sum to zero or to a subnormal,
        # some map meets a zero denominator, Gram diagonal or step size, a W
        # column it cannot normalize, or a quotient that overflows.
        tiny = np.finfo(np.float64).tiny
        for name, M in (("W", state.W), ("H", state.H)):
            for spec, line in (("ij,ij->i", "row"), ("ij,ij->j", "column")):
                # A sum that overflows passes the rule; the objective check
                # below refuses it.
                with np.errstate(over="ignore"):
                    sq = np.einsum(spec, M, M)
                small = np.flatnonzero(sq < tiny)
                if small.size:
                    k = int(small[0])
                    raise ContractViolationError(
                        f"init {name} {line} {k} has a sum of squares of "
                        f"{float(sq[k])!r}, below the smallest normal float64 "
                        f"{float(tiny)!r}; every row and column of W and H "
                        "needs one at least that large"
                    )
        state = state.copy()

    alg = config.algorithm
    step = base_map(alg)
    accelerated = alg in _ACCELERATED
    if accelerated:
        from . import squarem
    trace = IterationTrace()
    # An overflow is reported by the error below, not by a warning.
    with np.errstate(over="ignore"):
        f_prev = linalg.frobenius_residual(V, state.W, state.H)
    if not np.isfinite(f_prev):
        raise ContractViolationError(
            f"the objective of the start overflows float64 (largest entries: W "
            f"{float(state.W.max())!r}, H {float(state.H.max())!r}); rescale V or init"
        )
    trace.append(TraceRecord(0, f_prev, 0.0))
    target = config.target

    t0 = time.perf_counter()
    trace.stop_reason = "max_iters"
    # The carried products live only in ``info`` (``accel`` is dropped) and
    # are popped into the next call, which then holds the only reference
    # (CPython 3.11 and later move call arguments into the callee's frame),
    # so nothing here keeps them past the step's first base application.
    info = {}
    for k in range(1, config.max_iters + 1):
        if not accelerated:
            state, info = step(
                V, state, v_sq=v_sq, products=info.pop("products", None)
            )
        else:
            state, accel = squarem.squarem_step(
                V,
                state,
                step,
                f0=f_prev,
                v_sq=v_sq,
                products=info.pop("products", None),
            )
            info = {
                "objective": accel.objective,
                "backtracks": accel.backtracks,
                "products": accel.products,
            }
            del accel
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
            W, H = state.W, state.H
            writeable = W.flags.writeable, H.flags.writeable
            W.flags.writeable = H.flags.writeable = False
            try:
                callback(k, FactorPair(W, H))
            finally:
                W.flags.writeable, H.flags.writeable = writeable
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
