"""Kernel Gram blocks and symmetrization.

Everything here works on dense float64 arrays. gram_matrix symmetrizes
its Gram as (M + M') / 2 and checks it finite before returning, so the
trainer builds its working kernels from it with no further check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "gram_matrix",
    "cross_gram",
    "median_heuristic_gamma",
    "symmetrize",
]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters.

    family is "linear" or "rbf"; for rbf the kernel is
    exp(-gamma * ||a - b||^2) and gamma must be positive and finite.
    """

    family: str
    gamma: float | None = None

    def __post_init__(self):
        if self.family not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "rbf" and (self.gamma is None or not 0 < self.gamma < np.inf):
            raise ValueError("rbf kernel needs gamma > 0 and finite")


def _as_sample_matrix(X) -> np.ndarray:
    try:
        X = np.asarray(X, dtype=float)
    except ValueError as exc:
        raise ValueError("samples must share a common dimension") from exc
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise ValueError(f"expected a matrix of row samples, got ndim={X.ndim}")
    return X


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Gram matrix of row samples X under spec, returned symmetrized.

    Parameters
    ----------
    spec : KernelSpec
    X : array_like, shape (n, d)
        One sample per row, n >= 1.

    Returns
    -------
    ndarray, shape (n, n)
        Finite and exactly symmetric, as solve_dual requires; PSD up to
        round-off; rbf entries lie in (0, 1]. A linear kernel on features
        large enough to overflow (above about 1e154) raises ValueError.
    """
    X = _as_sample_matrix(X)
    if X.shape[0] == 0:
        raise ValueError("empty sample set")
    K = symmetrize(cross_gram(spec, X, X))
    _check_finite(K)
    return K


def _sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """||x_i||^2 + ||z_j||^2 - 2 x_i.z_j, which round-off can leave slightly negative."""
    sx = np.einsum("ij,ij->i", X, X)
    sz = np.einsum("ij,ij->i", Z, Z)
    cross = X @ Z.T
    cross *= 2.0
    d2 = sx[:, None] + sz[None, :]
    d2 -= cross
    return d2


def cross_gram(spec: KernelSpec, X, Z) -> np.ndarray:
    """Rectangular kernel block k(x_i, z_j), shape (len(X), len(Z))."""
    X = _as_sample_matrix(X)
    Z = _as_sample_matrix(Z)
    if X.shape[1] != Z.shape[1]:
        raise ValueError(f"dimension mismatch {X.shape[1]} vs {Z.shape[1]}")
    if spec.family == "linear":
        return X @ Z.T
    d2 = _sq_dists(X, Z)
    np.maximum(d2, 0.0, out=d2)
    d2 *= -spec.gamma
    return np.exp(d2, out=d2)


def median_heuristic_gamma(X) -> float:
    """Bandwidth 1 / median(||x_i - x_j||^2) over distinct pairs.

    Falls back to 1.0 when the median is not positive (all points
    coincident or a single sample).
    """
    X = _as_sample_matrix(X)
    n = X.shape[0]
    if n < 2:
        return 1.0
    pairs = _sq_dists(X, X)[np.triu_indices(n, k=1)]
    med = _median(pairs)
    if med <= 0.0:
        return 1.0
    return 1.0 / med


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit.

    The same partition and np.mean as np.median, with its NaN check done
    here: np.median's own check imports numpy.ma (about 13 ms) on first use.
    """
    n = values.size
    half = n // 2
    kth = [half, -1] if n % 2 else [half - 1, half, -1]
    part = np.partition(values, kth)
    # NaN sorts last, so a NaN anywhere lands in the last slot
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[half - 1 + n % 2 : half + 1]))


def symmetrize(M) -> np.ndarray:
    """(M + M') / 2."""
    M = np.asarray(M, dtype=float)
    _check_square(M)
    return 0.5 * (M + M.T)


def _check_square(M: np.ndarray) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")


def _check_finite(M: np.ndarray) -> None:
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
