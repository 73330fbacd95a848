"""Squared-extrapolation acceleration for monotone fixed-point NMF maps.

One accelerated step applies a base map twice, extrapolates the pair (W, H)
along its squared iterate difference with one step length alpha, and
backtracks alpha toward -1 until the Frobenius objective does not rise. At
alpha = -1 the candidate is exactly the two-step iterate, so backtracking
always terminates because the base map itself never increases the
objective. The base map is any monotone map of :mod:`solvers`' one
signature ``(V, pair, *, v_sq=None, products=None) -> (pair, info)``,
passed in by the caller.

The objective serves only as the descent test on each candidate (Varadhan &
Roland, Scand. J. Statist. 35(2), 2008). A step takes the start point's
value from the caller (``solve`` already holds it) and the two-step
iterate's value from the base map. Each extrapolated candidate costs one
Gram-form evaluation (:func:`linalg.pair_objective`), whose only O(nmr)
product is ``V H^T``. No step builds the n x m residual, except where the
Gram form falls back to the exact value near a perfect fit. The accepted
candidate's value and products ``(V H^T, W^T W, H H^T)`` are returned in
:class:`AccelState`, and the next step hands those products to its first
base application, which reads the ones its step needs: all three for
PARINOM, ``V H^T`` and ``H H^T`` for MU, ``W^T W`` for Fast-HALS and none
for INOM, which takes its plain step from them. With b
the backtrack count, an accelerated PARINOM step so forms 5 + b O(nmr)
products: one in the first base application, three in the second (its
objective included) and one per extrapolated candidate. An accelerated MU
step forms 4 + b: one in the first base application, two in the second and
one per candidate. A step whose products are not given forms one more,
and so does an MU step from an accepted two-step iterate, whose products
hold no ``V H^T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import NumericalFailureError
from .solvers import POSITIVITY_FLOOR, FactorPair, normalize_pair

# Not called here: perfbench's tracer wraps these two names in this module;
# the next benchmark change drops them.
from .solvers import mu_iterate, parinom_iterate  # noqa: F401

__all__ = ["AccelState", "squarem_step"]

MAX_BACKTRACKS = 1000
DEGENERATE_NORM = 1e-15
# Backtracking halves |alpha + 1| each round; once it is this small the
# candidate is numerically the two-step iterate, so snap alpha to -1.
_ALPHA_SNAP = 1e-12


@dataclass(frozen=True)
class AccelState:
    """Outcome of one accelerated step. ``alpha`` is the accepted step length
    of the pair, -1 for the two-step iterate. ``objective`` is that of the
    pair :func:`squarem_step` returns with it, and ``products`` that pair's
    ``(V H^T, W^T W, H H^T)`` for the next step's ``products=``. When the
    accepted pair is the two-step iterate they are what the base map handed
    on with it: None in each entry it did not form, or INOM's memory, which
    the next step's first application, called without ``v_sq``, ignores."""

    alpha: float
    backtracks: int
    objective: float
    products: Optional[tuple] = field(repr=False, compare=False)

    # Read-only aliases of ``alpha`` for perfbench's tracer, which reads
    # these two names; the next benchmark change drops them.
    @property
    def alpha_w(self) -> float:
        return self.alpha

    @property
    def alpha_h(self) -> float:
        return self.alpha


def _sq(M: np.ndarray) -> float:
    return float(np.vdot(M, M))


def _extrapolate(x0, r, v, alpha: float) -> np.ndarray:
    return np.maximum(POSITIVITY_FLOOR, x0 - 2.0 * alpha * r + alpha * alpha * v)


def _backtrack(alpha: float) -> float:
    """Halve ``|alpha + 1|``, snapping to -1 once negligible; -1 stays -1."""
    alpha = (alpha - 1.0) / 2.0
    return -1.0 if abs(alpha + 1.0) < _ALPHA_SNAP else alpha


def squarem_step(
    V,
    state: FactorPair,
    base_map: Callable,
    *,
    f0: float,
    v_sq: float,
    force_alpha: float | None = None,
    products=None,
) -> tuple[FactorPair, AccelState]:
    """One accelerated outer step of ``base_map`` from ``state``.

    ``base_map`` is a map such as ``solvers.parinom_iterate``, with the
    signature ``(V, pair, *, v_sq=None, products=None) -> (pair, info)``;
    it must not raise the objective. With x1 = base_map(x0),
    x2 = base_map(x1), r = x1 - x0 and v = x2 - x1 - r, all over the pair
    (W, H) stacked, the step length is alpha = -||r|| / ||v||, one value for
    both factors. The candidate is ``max(POSITIVITY_FLOOR, x0 - 2 alpha r +
    alpha^2 v)`` per factor, column-normalized as a pair. When ||v|| is below
    ``DEGENERATE_NORM`` alpha is -1, the two-step iterate. While the
    candidate objective exceeds the objective at x0, alpha moves as
    alpha <- (alpha - 1) / 2, snapping to -1 once within ``_ALPHA_SNAP``,
    and the candidate is rebuilt. A candidate whose objective does not
    exceed it (a NaN one included, which ``solve`` then reports) is
    accepted, and kept unless it is worse than the plain two-step iterate,
    so acceleration never loses to simply applying the map twice.

    Every other outcome (alpha forced or snapped to -1, a degenerate ||v||,
    an accepted candidate worse than x2) returns x2 itself, the pair and
    products the second base application made, with alpha = -1 and the
    backtracks counted so far.

    ``force_alpha`` sets alpha unless ||v|| is degenerate (useful for
    checking the alpha = -1 identity, which reproduces the two-step iterate
    exactly). ``f0`` is the objective of ``state`` and ``v_sq`` is
    ``||V||_F**2``; ``solve`` already holds both. ``products`` are those of
    ``state``, as the previous step's :class:`AccelState` returned them, or
    None to form them here.
    """
    x0 = state
    x1, _ = base_map(V, x0, products=products)
    # Only the first application reads x0's products; drop them before x2's
    # are formed.
    products = None
    x2, info = base_map(V, x1, v_sq=v_sq)
    f2, p2 = info["objective"], info.get("products")

    rw = x1.W - x0.W
    vw = x2.W - x1.W - rw
    rh = x1.H - x0.H
    vh = x2.H - x1.H - rh

    norm_v = math.sqrt(_sq(vw) + _sq(vh))
    if norm_v < DEGENERATE_NORM:
        alpha = -1.0
    elif force_alpha is not None:
        alpha = force_alpha
    else:
        alpha = -math.sqrt(_sq(rw) + _sq(rh)) / norm_v

    backtracks = 0
    # At alpha = -1 the candidate would be the two-step iterate, which the
    # loop does not rebuild: renormalizing it would perturb it at roundoff.
    while alpha != -1.0:
        Wc, Hc = _extrapolate(x0.W, rw, vw, alpha), _extrapolate(x0.H, rh, vh, alpha)
        normalize_pair(Wc, Hc)
        f, pc = linalg.pair_objective(V, Wc, Hc, v_sq)
        # A NaN objective is accepted, so that solve reports it.
        if not f > f0:
            if f > f2:
                break
            return FactorPair(Wc, Hc), AccelState(alpha, backtracks, f, pc)
        if backtracks >= MAX_BACKTRACKS:
            raise NumericalFailureError(
                f"backtracking failed to restore descent after {backtracks} rounds"
            )
        alpha = _backtrack(alpha)
        backtracks += 1

    # The two-step iterate, accepted on the base map's own monotonicity.
    return x2, AccelState(-1.0, backtracks, f2, p2)
