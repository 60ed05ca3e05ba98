"""Trace-constrained PSD metric in factored form.

At fixed dual coefficients beta the adversarial objective is linear in
the metric H:

    G(H) = -1/2 (beta' F beta + v' H v),    v = lift @ beta,

with F = base and lift as hfa.core.PrecomputedKernels holds them,
minimized over the feasible set {H PSD, trace(H) <= budget}. Its
minimizer is the rank-1 vertex budget * hh', h = v / ||v||. The trainer
(hfa.core._alternate) takes Frank-Wolfe steps toward that vertex, each
mapping H to (1 - t) * H + t * budget * hh' with t in [0, 1], from a
scaled identity, so H is always

    H = scale * I + sum_k weights[k] * atoms[k] atoms[k]',

which is how TransformMetric stores it. The dense matrix route of the
subproblem is the reference in tests/metric_oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransformMetric",
    "initial_metric",
]


@dataclass(frozen=True)
class TransformMetric:
    """PSD metric scale * I + sum_k weights[k] * atoms[k] atoms[k]' with a trace budget.

    The metric couples the two domain blocks of the working kernel; its
    order is n_s+n_t on the kernelized path (d_s+d_t on the explicit
    path of tests/linear_oracle.py). scale and weights are nonnegative, so the metric is
    PSD by construction; atoms holds one row per rank-1 term, and its
    column count is the order.
    """

    budget: float
    scale: float
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if not self.budget > 0:
            raise ValueError("trace budget must be positive")
        if not (np.isfinite(self.scale) and self.scale >= 0):
            raise ValueError(f"scale must be finite and nonnegative, got {self.scale}")
        if atoms.ndim != 2 or atoms.shape[1] < 1:
            raise ValueError(f"atoms must be 2-D with at least one column, got shape {atoms.shape}")
        if weights.shape != (atoms.shape[0],):
            raise ValueError(f"need one weight per atom, got {weights.shape} for {atoms.shape[0]} atoms")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights))):
            raise ValueError("atoms and weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def order(self) -> int:
        return self.atoms.shape[1]

    @property
    def trace(self) -> float:
        return self.scale * self.order + float(self.weights @ np.einsum("ij,ij->i", self.atoms, self.atoms))

    def energy(self, v: np.ndarray) -> float:
        """v' H v."""
        proj = self.atoms @ v
        return self.scale * float(v @ v) + float(self.weights @ (proj * proj))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H v."""
        return self.scale * v + self.atoms.T @ (self.weights * (self.atoms @ v))

    @property
    def matrix(self) -> np.ndarray:
        """The dense order x order metric, built on each access; for inspection."""
        roots = self.atoms.T * np.sqrt(self.weights)
        dense = roots @ roots.T  # numpy's A @ A.T kernel returns an exactly symmetric result
        dense[np.diag_indices(self.order)] += self.scale
        return dense

    def rank1_update(self, gamma: float, delta: float, v: np.ndarray) -> TransformMetric:
        """The metric gamma * H + delta * vv', with one more atom."""
        return TransformMetric(
            self.budget,
            gamma * self.scale,
            np.vstack([self.atoms, v]),
            np.append(gamma * self.weights, delta),
        )

    def is_feasible(self, tol: float = 1e-10) -> bool:
        """Trace within budget * (1 + tol); PSD holds by construction."""
        return self.trace <= self.budget * (1.0 + tol)


def initial_metric(order: int, budget: float) -> TransformMetric:
    """Scaled identity (budget/order) * I, the alternation's start point."""
    if order < 1:
        raise ValueError("order must be positive")
    return TransformMetric(budget, budget / order, np.empty((0, order)), np.empty(0))

