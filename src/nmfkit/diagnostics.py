"""Convergence and correctness instrumentation: the mathematics only.

* the first-order (KKT) stationarity residual ``min(X, grad_X f)`` for the
  nonnegativity-constrained misfit, which vanishes exactly at stationary
  points;
* direct evaluators for the quadratic (INOM) and separable quarter-power /
  logarithm (PARINOM) upper bounds, so that ``verify.majorization_gaps``
  and the tests can confirm that each bound touches the objective at the
  anchor point and dominates it everywhere else. The INOM W bound is the H
  bound of the transposed problem, so the quadratic bound is written once.

Tolerances and verdicts live in ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import linalg
from .errors import ContractViolationError

__all__ = ["kkt_residual", "inom_h_surrogate", "inom_w_surrogate", "parinom_surrogate"]


@dataclass(frozen=True)
class KktReport:
    """Stationarity residuals for both factors; zero iff first-order optimal."""

    w_residual: float
    h_residual: float

    @property
    def combined(self) -> float:
        # np.maximum, not max(): a NaN in either residual must surface.
        return float(np.maximum(self.w_residual, self.h_residual))

    def to_text(self) -> str:
        return (
            f"w_residual: {self.w_residual!r}\n"
            f"h_residual: {self.h_residual!r}\n"
            f"combined: {self.combined!r}\n"
        )


def nmf_gradients(V, W, H) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``||V - W H||_F**2`` with respect to W and H."""
    GW = 2.0 * (W @ (H @ H.T)) - 2.0 * (V @ H.T)
    GH = 2.0 * ((W.T @ W) @ H) - 2.0 * (W.T @ V)
    return GW, GH


def kkt_residual(V, W, H) -> KktReport:
    """Max-abs entry of ``min(X, grad_X f)`` for each factor X.

    The entrywise minimum vanishes exactly where either the entry is active
    at zero with a nonnegative gradient or the gradient is zero, so the
    residual is 0 iff (W, H) is first-order stationary for the
    nonnegativity-constrained problem.
    """
    V = linalg.as_matrix(V, "V")
    W = linalg.as_matrix(W, "W")
    H = linalg.as_matrix(H, "H")
    if W.shape[0] != V.shape[0] or H.shape[1] != V.shape[1] or W.shape[1] != H.shape[0]:
        raise ContractViolationError(
            f"cannot form residuals from V {V.shape}, W {W.shape}, H {H.shape}"
        )
    GW, GH = nmf_gradients(V, W, H)
    w_res = float(np.abs(np.minimum(W, GW)).max())
    h_res = float(np.abs(np.minimum(H, GH)).max())
    return KktReport(w_residual=w_res, h_residual=h_res)


def inom_h_surrogate(V, W, H_ref, H) -> float:
    """Quadratic upper bound on ``f(W, .)`` anchored at ``H_ref``.

    Equals the objective at ``H = H_ref`` and dominates it elsewhere because
    the isotropic curvature (max row sum of ``2 W^T W``) dominates the true
    block Hessian.
    """
    G = W.T @ W
    mu = linalg.max_row_sum(2.0 * G)
    f_ref = linalg.frobenius_residual(V, W, H_ref)
    grad = 2.0 * (G @ H_ref) - 2.0 * (W.T @ V)
    D = H - H_ref
    return f_ref + float(np.sum(grad * D)) + 0.5 * mu * float(np.sum(D * D))


def inom_w_surrogate(V, W_ref, H, W) -> float:
    """Quadratic upper bound on ``f(., H)`` anchored at ``W_ref``: the H
    bound of the transposed problem, since ``||V - W H|| = ||V^T - H^T W^T||``.
    """
    return inom_h_surrogate(V.T, H.T, W_ref.T, W.T)


def parinom_surrogate(V, W_ref, H_ref, W, H) -> float:
    """Separable upper bound on the joint objective anchored at (W_ref, H_ref).

    The quadratic-in-the-product part of the objective is bounded by
    quarter-power terms (AM-GM on each four-factor monomial) and the negative
    cross term by its tangent logarithm bound; both touch at the anchor. All
    four matrices must be strictly positive.
    """
    VHt = V @ H_ref.T
    WtV = W_ref.T @ V
    WHHt = W_ref @ (H_ref @ H_ref.T)
    WtWH = (W_ref.T @ W_ref) @ H_ref
    quart_w = (W / W_ref) ** 4
    quart_h = (H / H_ref) ** 4
    positive = 0.5 * float(np.sum(WHHt * W_ref * quart_w)) + 0.5 * float(
        np.sum(WtWH * H_ref * quart_h)
    )
    cross_ref = float(np.sum(VHt * W_ref))
    negative = -2.0 * (
        cross_ref
        + float(np.sum(VHt * W_ref * np.log(W / W_ref)))
        + float(np.sum(WtV * H_ref * np.log(H / H_ref)))
    )
    return float(np.sum(V * V)) + positive + negative
