"""Shared helpers for the test suite: independent oracles, instance builders
and a memory probe."""

import tracemalloc
from dataclasses import replace

import numpy as np

from nmfkit import linalg, solvers
from nmfkit.solvers import FactorPair, initial_factors


def frobenius_oracle(V, W, H):
    """Triple-loop evaluation of ||V - W H||_F^2, independent of BLAS."""
    n, m = V.shape
    r = W.shape[1]
    total = 0.0
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(r):
                acc += W[i, k] * H[k, j]
            d = V[i, j] - acc
            total += d * d
    return total


def random_instance(seed, n=10, m=12, r=3, normalized=True):
    """Random nonnegative V plus a strictly positive starting pair."""
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.5, 1.5, size=(n, m))
    if normalized:
        V = linalg.normalize_columns(V)
    W = linalg.normalize_columns(rng.uniform(0.1, 1.0, size=(n, r)))
    H = rng.uniform(0.1, 1.0, size=(r, m))
    return V, FactorPair(W, H)


def hals_sweep_oracle(V, W, H):
    """Reference Fast-HALS sweep written as two loops, one per factor: the
    rows of H with ``W^T W``, then the columns of W with ``H H^T``, each
    column renormalized as soon as it is solved. Returns fresh (W, H)."""
    W, H = W.copy(), H.copy()
    r = W.shape[1]
    P, Q = V.T @ W, W.T @ W
    for j in range(r):
        H[j] = np.maximum(
            solvers.POSITIVITY_FLOOR, H[j] + (P[:, j] - H.T @ Q[:, j]) / Q[j, j]
        )
    R, S = V @ H.T, H @ H.T
    for j in range(r):
        w = np.maximum(
            solvers.POSITIVITY_FLOOR, W[:, j] + (R[:, j] - W @ S[:, j]) / S[j, j]
        )
        W[:, j] = w / np.sqrt(w @ w)
    return W, H


def with_target_at(V, config, fraction):
    """``config`` with ``target`` at ``fraction`` times the objective of its
    seeded start, which a solve without ``init`` takes as iterate 0."""
    start = initial_factors(V, config.rank, config.seed)
    f0 = linalg.frobenius_residual(V, start.W, start.H)
    return replace(config, target=fraction * f0)


def planted_instance(seed, n=4, m=6, r=2):
    """Exactly factorizable V = W* H* with strictly positive factors."""
    rng = np.random.default_rng(seed)
    W = linalg.normalize_columns(rng.uniform(0.5, 1.5, size=(n, r)))
    H = rng.uniform(0.5, 1.5, size=(r, m))
    return W @ H, FactorPair(W, H)


def traced_peak(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` under tracemalloc; return ``(result,
    peak_bytes)``, the peak counting only what the call itself allocated."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def fd_gradient_h(V, W, H, step=1e-5):
    """Central finite-difference gradient of the misfit with respect to H."""
    G = np.zeros_like(H)
    for i in range(H.shape[0]):
        for j in range(H.shape[1]):
            Hp = H.copy()
            Hp[i, j] += step
            Hm = H.copy()
            Hm[i, j] -= step
            G[i, j] = (
                linalg.frobenius_residual(V, W, Hp)
                - linalg.frobenius_residual(V, W, Hm)
            ) / (2.0 * step)
    return G


class MatmulCounter(np.ndarray):
    """A view of V that counts the matrix products it takes part in, i.e. the
    O(nmr) products of a step; products of the factors alone are not seen.
    Views of it, such as ``V.T``, add to the same count.

    Use ``V = V.view(MatmulCounter)`` and read or reset ``V.calls``.
    """

    def __array_finalize__(self, obj):
        self._count = getattr(obj, "_count", None) or [0]

    @property
    def calls(self):
        return self._count[0]

    @calls.setter
    def calls(self, n):
        self._count[0] = n

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.calls += 1
        plain = tuple(
            x.view(np.ndarray) if isinstance(x, MatmulCounter) else x for x in inputs
        )
        return getattr(ufunc, method)(*plain, **kwargs)
