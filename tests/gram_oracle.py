"""Gram helpers the library no longer ships, and the Gram route it replaced.

The library builds each domain's Gram in one call, hfa.linalg.kernel_gram:
one distance array gives both the median-rule bandwidth and the Gram, which
is checked, not symmetrized. gram_matrix and median_heuristic_gamma here are
thin adapters over the same production code, so the tests that pin their
values keep testing it. symmetrize and its square check serve the dense
oracles. old_domain_gram is the route kernel_gram replaced, kept to show
that kernel_gram gives the same bits: the median over _sq_dists(X, X) at
np.triu_indices, then symmetrize(cross_gram(spec, X, X)). two_array_sq_dists
is _sq_dists as it was before it subtracted in place, one row chunk at a
time: the same two roundings, with both terms held whole.
"""

import numpy as np

from hfa.linalg import KernelSpec, _as_sample_matrix, _median, _median_gamma, _sq_dists, cross_gram, kernel_gram


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """kernel_gram's Gram of row samples X under spec."""
    return kernel_gram(spec.family, spec.gamma, X)[1]


def median_heuristic_gamma(X) -> float:
    """kernel_gram's median-rule bandwidth for row samples X, from the same
    distance array; NaN for NaN features, which KernelSpec then refuses."""
    X = np.ascontiguousarray(_as_sample_matrix(X))
    return _median_gamma(_sq_dists(X, X))


def check_square(M: np.ndarray) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")


def check_finite(M: np.ndarray) -> None:
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")


def symmetrize(M) -> np.ndarray:
    """(M + M') / 2."""
    M = np.asarray(M, dtype=float)
    check_square(M)
    return 0.5 * (M + M.T)


def old_domain_gram(family: str, X) -> tuple[KernelSpec, np.ndarray]:
    """One domain's kernel and Gram by the route before kernel_gram, with the
    median rule for rbf: two distance arrays, the pairs taken at
    np.triu_indices, and the product symmetrized."""
    X = _as_sample_matrix(X)
    if family == "linear":
        spec = KernelSpec("linear")
    else:
        n = X.shape[0]
        gamma = 1.0
        if n >= 2:
            med = _median(_sq_dists(X, X)[np.triu_indices(n, k=1)])
            gamma = 1.0 / med if med > 0.0 else 1.0
        spec = KernelSpec("rbf", gamma)
    K = symmetrize(cross_gram(spec, X, X))
    check_finite(K)
    return spec, K


def two_array_sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """fl(fl(||x_i||^2 + ||z_j||^2) - 2 x_i.z_j) from two block-sized arrays:
    every norm sum, then 2 X Z' subtracted from them."""
    sx = np.einsum("ij,ij->i", X, X)
    sz = np.einsum("ij,ij->i", Z, Z)
    cross = X @ Z.T
    cross *= 2.0
    d2 = sx[:, None] + sz[None, :]
    d2 -= cross
    return d2
