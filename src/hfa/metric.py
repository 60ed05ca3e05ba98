"""Trace-constrained PSD metric in factored form, with atoms in dual coordinates.

At fixed dual coefficients beta the adversarial objective is linear in
the metric H:

    G(H) = -1/2 (beta' F beta + v' H v),    v = L beta,

with F the working kernel at a zero metric and L the lift of dual
coefficients into the metric space, minimized over the feasible set
{H PSD, trace(H) <= budget}. Its minimizer is the rank-1 vertex
budget * hh', h = v / ||v||. The trainer (hfa.evaluate._alternate) takes
Frank-Wolfe steps toward that vertex, each mapping H to
(1 - t) * H + t * budget * hh' with t in [0, 1], from a scaled identity,
so H is always

    H = scale * I + sum_k weights[k] * h_k h_k',    ||h_k|| = 1.

Every h_k is L times a dual vector, h_k = L c_k, so TransformMetric keeps
the atoms c_k and reads H only through M = L'L: h_k'v = c_k'M beta,
||v||^2 = beta'M beta and L'h_k = M c_k; L is never formed. On the
kernelized path L = blockdiag(Ks^(1/2), Kt^(1/2)), so M is
F = blockdiag(Ks, Kt), read one domain block at a time. The metric adds
L'HL = scale * F + (F C')W(C F) to the working kernel (C the atoms, W the
weights), a sum the trainer never forms: it steps the kernel itself, which
is affine in H. The dense matrix route of the subproblem is the reference
in tests/metric_oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransformMetric",
    "initial_metric",
]


@dataclass(frozen=True, eq=False)
class TransformMetric:
    """PSD metric scale * I + sum_k weights[k] * h_k h_k' of order `order`, with a trace budget.

    The metric couples the two domain blocks of the working kernel; its
    order is n_s+n_t on the kernelized path (d_s+d_t on the explicit
    path of tests/linear_oracle.py). Row k of atoms holds the dual
    coordinates c_k of the unit vector h_k = L c_k, so atoms has one
    column per training sample whatever the order. scale and weights are
    nonnegative, so the metric is PSD by construction, and its trace is
    scale * order + sum(weights).
    """

    order: int
    budget: float
    scale: float
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if not self.order >= 1:
            raise ValueError(f"order must be positive, got {self.order}")
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
    def trace(self) -> float:
        return self.scale * self.order + float(np.sum(self.weights))

    def energy(self, beta: np.ndarray, m: np.ndarray) -> float:
        """v' H v for v = L beta, given m = M beta."""
        proj = self.atoms @ m
        return self.scale * float(beta @ m) + float(self.weights @ (proj * proj))

    def apply(self, beta: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The dual coordinates g of H v (H v = L g) for v = L beta, given m = M beta."""
        return self.scale * beta + self.atoms.T @ (self.weights * (self.atoms @ m))

    def rank1_update(self, gamma: float, delta: float, c: np.ndarray) -> TransformMetric:
        """The metric gamma * H + delta * hh' for the unit vector h = L c, with c as one
        more atom; an atom whose weight gamma * weights[k] is not above 0 is dropped."""
        weights = gamma * self.weights
        keep = weights > 0.0
        return TransformMetric(
            self.order,
            self.budget,
            gamma * self.scale,
            np.vstack([self.atoms[keep], c]),
            np.append(weights[keep], delta),
        )

    def is_feasible(self, tol: float = 1e-10) -> bool:
        """Trace within budget * (1 + tol); PSD holds by construction."""
        return self.trace <= self.budget * (1.0 + tol)


def initial_metric(order: int, budget: float, n: int) -> TransformMetric:
    """Scaled identity (budget/order) * I with no atoms over n dual coordinates,
    the alternation's start point."""
    if order < 1:
        raise ValueError("order must be positive")
    return TransformMetric(order, budget, budget / order, np.empty((0, n)), np.empty(0))
