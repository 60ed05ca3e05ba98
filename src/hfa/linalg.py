"""Kernels: a domain's checked Gram and rectangular cross-kernel blocks.

Everything here works on dense float64 arrays, and an rbf Gram or block
is built in one distance array (_sq_dists). kernel_gram builds each
domain's Gram and checks it finite and exactly symmetric where it is
built, so the trainer builds its working kernels from it with no further
check (hfa.evaluate checks a Gram pair that a caller hands in, once per
training call).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# bytes of the chunk of norm sums that _sq_dists holds beside its output;
# numpy (2.4) adds two broadcast buffers of up to this size each. On the
# 60 x 512 blocks of the predict benchmark, 8-64 KiB ran within 15% of
# each other and about 40% under the two-array form in a fresh process
# (x86-64), and 128 KiB as slowly as that form; 32 KiB keeps a chunk's
# transient under 0.1 MiB
_CHUNK_BYTES = 1 << 15

__all__ = [
    "KernelSpec",
    "kernel_gram",
    "cross_gram",
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


def kernel_gram(family: str, gamma: float | None, X) -> tuple[KernelSpec, np.ndarray]:
    """(KernelSpec, Gram) of row samples X (n >= 1) for a kernel family,
    from one distance array. For rbf, gamma None takes the median rule from
    the same distances: 1 / median(||x_i - x_j||^2) over distinct pairs, or
    1.0 when that is not positive (one sample, or all coincident).

    X is copied to C-contiguous rows first, so that X @ X.T is one symmetric
    product; the loaders, Dataset.subset, standardize_apply and
    generate_synthetic all give such rows. The Gram is then checked finite
    and exactly symmetric, as solve_dual requires; rbf entries lie in
    (0, 1]. A linear kernel on features above about 1e154 overflows.
    """
    X = np.ascontiguousarray(_as_sample_matrix(X))
    if X.shape[0] == 0:
        raise ValueError("empty sample set")
    if family == "linear":
        spec, K = KernelSpec("linear"), X @ X.T
    else:
        d2 = _sq_dists(X, X)
        spec = KernelSpec(family, _median_gamma(d2) if gamma is None else gamma)
        K = _rbf(d2, spec.gamma)
    if not np.all(np.isfinite(K)):
        raise ValueError("Gram has non-finite entries")
    if not np.array_equal(K, K.T):
        raise ValueError("Gram is not exactly symmetric")
    return spec, K


def _sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """||x_i||^2 + ||z_j||^2 - 2 x_i.z_j, which round-off can leave slightly
    negative, in one array: 2 X Z' is subtracted in place, a chunk of rows
    at a time, from the sums of squared norms. Each entry rounds as
    fl(fl(sx_i + sz_j) - 2 c_ij), as with both terms held whole."""
    sx = np.einsum("ij,ij->i", X, X)
    sz = np.einsum("ij,ij->i", Z, Z)
    d2 = X @ Z.T
    d2 *= 2.0
    step = max(_CHUNK_BYTES // (8 * max(len(sz), 1)), 1)
    for r in range(0, len(sx), step):
        rows = d2[r : r + step]
        np.subtract(sx[r : r + step, None] + sz, rows, out=rows)
    return d2


def _rbf(d2: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * max(d2, 0)), computed in d2's own array."""
    np.maximum(d2, 0.0, out=d2)
    d2 *= -gamma
    return np.exp(d2, out=d2)


def cross_gram(spec: KernelSpec, X, Z) -> np.ndarray:
    """Rectangular kernel block k(x_i, z_j), shape (len(X), len(Z))."""
    X, Z = _as_sample_matrix(X), _as_sample_matrix(Z)
    if X.shape[1] != Z.shape[1]:
        raise ValueError(f"dimension mismatch {X.shape[1]} vs {Z.shape[1]}")
    if spec.family == "linear":
        return X @ Z.T
    return _rbf(_sq_dists(X, Z), spec.gamma)


def _median_gamma(d2: np.ndarray) -> float:
    """The median rule's bandwidth from the n x n squared distances d2: 1 /
    the median of its strict upper triangle, or 1.0 when that median is not
    positive (n < 2, or all points coincident)."""
    rows = np.arange(len(d2))
    med = _median(d2[rows[:, None] < rows]) if len(d2) > 1 else 0.0  # the distinct pairs, row by row
    return 1.0 if med <= 0.0 else 1.0 / med


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit; partitions
    values in place.

    The same partition and np.mean as np.median, with its NaN check done
    here: np.median's own check imports numpy.ma (about 13 ms) on first use.
    """
    n = values.size
    half = n // 2
    values.partition([half, -1] if n % 2 else [half - 1, half, -1])
    # NaN sorts last, so a NaN anywhere lands in the last slot
    if np.isnan(values[-1]):
        return float(values[-1])
    return float(np.mean(values[half - 1 + n % 2 : half + 1]))
