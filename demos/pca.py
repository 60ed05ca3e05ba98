"""PCA by retained energy, the preprocessing demos/file_formats.py shows.

It is not part of the hfa package, as no command uses it: scripts in
demos/ import it as `pca`, and the tests find it through pytest's
pythonpath setting in pyproject.toml.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hfa import Dataset
from hfa.linalg import symmetrize


@dataclass(frozen=True)
class PcaBasis:
    """Centered projection basis with the full covariance spectrum."""

    mean: np.ndarray
    components: np.ndarray  # (k, d), rows are principal directions
    eigenvalues: np.ndarray  # all d, descending, clipped at numerical rank

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.components.T

    @property
    def retained_energy(self) -> float:
        total = float(self.eigenvalues.sum())
        if total == 0.0:
            return 1.0
        k = self.components.shape[0]
        return float(self.eigenvalues[:k].sum()) / total


def pca_fit_transform(dataset: Dataset, energy: float) -> tuple[Dataset, PcaBasis]:
    """Project onto the fewest principal axes holding `energy` variance.

    Parameters
    ----------
    dataset : Dataset
        At least two samples.
    energy : float in (0, 1]
        Fraction of total centered variance to retain.

    Returns
    -------
    (projected, basis) : Dataset and PcaBasis
        Output dim k is the smallest k whose leading eigenvalue sum
        reaches the requested energy; eigenvalues below 1e-12 of the
        largest count as zero so round-off cannot inflate k.
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError(f"energy must lie in (0, 1], got {energy}")
    n = len(dataset)
    if n < 2:
        raise ValueError("PCA needs at least 2 samples")
    mean = dataset.X.mean(axis=0)
    Xc = dataset.X - mean
    cov = symmetrize(Xc.T @ Xc / (n - 1))
    w, V = np.linalg.eigh(cov)
    w, V = w[::-1], V[:, ::-1]  # descending
    cutoff = (w[0] if w[0] > 0 else 0.0) * 1e-12
    w = np.where(w > cutoff, w, 0.0)
    total = float(w.sum())
    if total == 0.0:
        k = 1  # flat data: a single (zero-variance) axis
    else:
        ratios = np.cumsum(w) / total
        k = int(np.searchsorted(ratios, energy - 1e-12)) + 1
        k = min(k, w.size)
    basis = PcaBasis(mean=mean, components=V[:, :k].T, eigenvalues=w)
    return Dataset(Xc @ V[:, :k], dataset.y), basis
