"""Squared-extrapolation acceleration for monotone fixed-point NMF maps.

One accelerated step applies the wrapped map twice, extrapolates each factor
along its squared iterate difference, and backtracks the extrapolation
weights toward -1 until the Frobenius objective does not rise. At alpha = -1
the candidate is exactly the two-step iterate, so backtracking always
terminates because the wrapped map itself never increases the objective.

The objective serves only as the descent test on each candidate (Varadhan &
Roland, Scand. J. Statist. 35(2), 2008). A step takes the start point's
value from the caller (``solve`` already holds it) and the two-step
iterate's value from the wrapped map. Each extrapolated candidate costs one
Gram-form evaluation (:func:`linalg.gram_objective`), whose only O(nmr)
product is ``W^T V``. No step builds the n x m residual, except where the
Gram form falls back to the exact value near a perfect fit. The accepted
candidate's value is returned in :class:`AccelState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import NumericalFailureError
from .solvers import (
    DEFAULT_FLOOR,
    FactorPair,
    mu_iterate,
    normalize_pair,
    parinom_iterate,
)

__all__ = [
    "FixedPointMap",
    "AccelState",
    "parinom_map",
    "mu_map",
    "squarem_step",
]

MAX_BACKTRACKS = 1000
DEGENERATE_NORM = 1e-15
# Backtracking halves |alpha + 1| each round; once it is this small the
# candidate is numerically the two-step iterate, so snap alpha to -1.
_ALPHA_SNAP = 1e-12


@dataclass(frozen=True)
class FixedPointMap:
    """A single-step NMF iteration map.

    ``step(V, pair)`` returns ``(next pair, info)``, as the maps of
    :mod:`nmfkit.solvers` do; ``step(V, pair, v_sq=...)`` also fills
    ``info["objective"]``. ``step`` must never increase the Frobenius
    objective; that property is what guarantees the backtracking loop
    terminates.
    """

    step: Callable[..., tuple[FactorPair, dict]]


def parinom_map(floor: float = DEFAULT_FLOOR) -> FixedPointMap:
    return FixedPointMap(
        step=lambda V, pair, **kw: parinom_iterate(V, pair, floor=floor, **kw)
    )


def mu_map(floor: float = DEFAULT_FLOOR) -> FixedPointMap:
    return FixedPointMap(
        step=lambda V, pair, **kw: mu_iterate(V, pair, floor=floor, **kw)
    )


@dataclass(frozen=True)
class AccelState:
    """Outcome of one accelerated step; ``objective`` is that of ``pair``."""

    pair: FactorPair
    alpha_w: float
    alpha_h: float
    backtracks: int
    objective: float


def _frob(M: np.ndarray) -> float:
    return math.sqrt(float(np.sum(M * M)))


def squarem_step(
    V,
    state: FactorPair,
    fp_map: FixedPointMap,
    *,
    f0: float,
    v_sq: float,
    floor: float = DEFAULT_FLOOR,
    force_alpha: float | None = None,
) -> tuple[FactorPair, AccelState]:
    """One accelerated outer step of ``fp_map`` from ``state``.

    Per factor X in {W, H}: with x1 = step(x0) and x2 = step(x1),
    r = x1 - x0, v = x2 - x1 - r and alpha = -||r||_F / ||v||_F, the
    candidate is ``max(0, x0 - 2 alpha r + alpha^2 v)`` floored at ``floor``,
    with the W candidate column-normalized. While the candidate objective
    exceeds the objective at x0, both alphas move as alpha <- (alpha - 1) / 2
    and the candidate is rebuilt. A factor whose ||v|| is below
    ``DEGENERATE_NORM`` skips extrapolation and takes its two-step value.
    If the accepted extrapolation is still worse than the plain two-step
    iterate, the two-step iterate is returned, so acceleration never loses
    to simply applying the map twice.

    ``force_alpha`` pins both alphas (useful for checking the alpha = -1
    identity, which reproduces the two-step iterate exactly). ``f0`` is the
    objective of ``state`` and ``v_sq`` is ``||V||_F**2``; ``solve`` already
    holds both.
    """
    x0 = state
    x1, _ = fp_map.step(V, x0)
    x2, info = fp_map.step(V, x1, v_sq=v_sq)
    f2 = info["objective"]

    rw = x1.W - x0.W
    vw = x2.W - x1.W - rw
    rh = x1.H - x0.H
    vh = x2.H - x1.H - rh

    nvw = _frob(vw)
    nvh = _frob(vh)
    degen_w = nvw < DEGENERATE_NORM
    degen_h = nvh < DEGENERATE_NORM

    alpha_w = -1.0 if degen_w else -_frob(rw) / nvw
    alpha_h = -1.0 if degen_h else -_frob(rh) / nvh
    if force_alpha is not None:
        alpha_w = alpha_h = force_alpha

    def build(aw: float, ah: float) -> tuple[FactorPair, float]:
        w_is_x2 = degen_w or aw == -1.0
        h_is_x2 = degen_h or ah == -1.0
        if w_is_x2 and h_is_x2:
            # Return the two-step iterate verbatim (already normalized);
            # renormalizing would perturb it at roundoff level.
            return x2.copy(), f2
        Wc = x2.W if w_is_x2 else np.maximum(floor, x0.W - 2.0 * aw * rw + aw * aw * vw)
        Hc = x2.H if h_is_x2 else np.maximum(floor, x0.H - 2.0 * ah * rh + ah * ah * vh)
        Wc, Hc = normalize_pair(Wc, Hc)
        cross = float(np.vdot(Wc.T @ V, Hc))
        f = linalg.gram_objective(V, Wc, Hc, v_sq, cross, Wc.T @ Wc, Hc @ Hc.T)
        return FactorPair(Wc, Hc), f

    candidate, f_candidate = build(alpha_w, alpha_h)
    backtracks = 0
    while f_candidate > f0:
        pinned_w = degen_w or alpha_w == -1.0
        pinned_h = degen_h or alpha_h == -1.0
        if pinned_w and pinned_h:
            # Candidate equals the two-step iterate; accept it on the wrapped
            # map's own monotonicity.
            break
        if backtracks >= MAX_BACKTRACKS:
            raise NumericalFailureError(
                f"backtracking failed to restore descent after {backtracks} rounds"
            )
        if not pinned_w:
            alpha_w = (alpha_w - 1.0) / 2.0
            if abs(alpha_w + 1.0) < _ALPHA_SNAP:
                alpha_w = -1.0
        if not pinned_h:
            alpha_h = (alpha_h - 1.0) / 2.0
            if abs(alpha_h + 1.0) < _ALPHA_SNAP:
                alpha_h = -1.0
        backtracks += 1
        candidate, f_candidate = build(alpha_w, alpha_h)

    # Never finish worse than the plain two-step iterate.
    if f_candidate > f2:
        candidate, f_candidate = x2.copy(), f2
        alpha_w = alpha_h = -1.0

    return candidate, AccelState(
        pair=candidate,
        alpha_w=alpha_w,
        alpha_h=alpha_h,
        backtracks=backtracks,
        objective=f_candidate,
    )
