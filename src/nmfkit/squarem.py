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
product is ``W^T V``. No step builds the n x m residual, except where the
Gram form falls back to the exact value near a perfect fit. The accepted
candidate's value and products are returned in :class:`AccelState`, and
the next step hands those products to its first base application, which
reads the ones its step needs: all three for PARINOM, ``H H^T`` for MU and
``W^T W`` for Fast-HALS. An accelerated PARINOM step so forms 5 + b O(nmr)
products, where b is the backtrack count: one in the first base
application, three in the second (its objective included) and one per
extrapolated candidate. An accelerated MU step forms one Gram matrix of H,
an O(r^2 m) product, fewer than two uncarried MU calls: its first base
application reads the ``H H^T`` that the previous step's accepted pair
carries.
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
    ``(W^T V, W^T W, H H^T)`` for the next step's ``products=``. When the
    accepted pair is the two-step iterate they are what the base map handed
    on with it: None in each entry it did not form, or None in place of the
    tuple for a map that hands on none."""

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
    alpha <- (alpha - 1) / 2, which keeps -1 at -1, and the candidate is
    rebuilt. If the accepted extrapolation is still worse than the plain
    two-step iterate, the two-step iterate is returned, so acceleration never
    loses to simply applying the map twice.

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

    def build(alpha: float) -> tuple[FactorPair, float, Optional[tuple]]:
        if alpha == -1.0:
            # Return the two-step iterate verbatim (already normalized);
            # renormalizing would perturb it at roundoff level.
            return x2.copy(), f2, p2
        Wc, Hc = normalize_pair(
            _extrapolate(x0.W, rw, vw, alpha), _extrapolate(x0.H, rh, vh, alpha)
        )
        f, pc = linalg.pair_objective(V, Wc, Hc, v_sq)
        return FactorPair(Wc, Hc), f, pc

    candidate, f_candidate, p_candidate = build(alpha)
    backtracks = 0
    # At alpha = -1 the candidate is the two-step iterate, accepted on the
    # base map's own monotonicity.
    while f_candidate > f0 and alpha != -1.0:
        if backtracks >= MAX_BACKTRACKS:
            raise NumericalFailureError(
                f"backtracking failed to restore descent after {backtracks} rounds"
            )
        alpha = _backtrack(alpha)
        backtracks += 1
        # Drop the rejected candidate's products before forming the next.
        p_candidate = None
        candidate, f_candidate, p_candidate = build(alpha)

    # Never finish worse than the plain two-step iterate.
    if f_candidate > f2:
        candidate, f_candidate, p_candidate = x2.copy(), f2, p2
        alpha = -1.0

    return candidate, AccelState(
        alpha=alpha,
        backtracks=backtracks,
        objective=f_candidate,
        products=p_candidate,
    )
