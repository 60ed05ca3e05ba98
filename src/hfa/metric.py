"""Trace-constrained PSD metric in factored form and its scalar step rule.

At fixed dual coefficients beta the adversarial objective is linear in
the metric H:

    G(H) = -1/2 (beta' F beta + v' H v),    v = lift @ beta,

minimized over the feasible set {H PSD, trace(H) <= budget}. Its
minimizer is the rank-1 vertex budget * vv' / ||v||^2; the alternation
deliberately walks toward it with damped projected-gradient steps
instead of jumping, which keeps the outer loop stable. Every such step
maps H to gamma * H + delta * vv' with gamma, delta >= 0, and the walk
starts from a scaled identity, so H is always

    H = scale * I + sum_k weights[k] * atoms[k] atoms[k]',

which is how TransformMetric stores it. The dense matrix route that the
step rule reproduces is the reference in tests/metric_oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransformMetric",
    "MetricFactors",
    "METRIC_STEPS",
    "initial_metric",
    "lift_vector",
]

# projected-gradient steps per outer iteration, and the backtracking
# constants of their step-size search
METRIC_STEPS = 10
_SHRINK = 0.5
_ETA_MIN = 1e-12
_MAX_BACKTRACKS = 50


@dataclass(frozen=True)
class TransformMetric:
    """PSD metric scale * I + sum_k weights[k] * atoms[k] atoms[k]' with a trace budget.

    The metric couples the two domain blocks of the working kernel; its
    order is d_s+d_t on the explicit-feature path and n_s+n_t on the
    kernelized path. scale and weights are nonnegative, so the metric is
    PSD by construction; atoms holds one row per rank-1 term.
    """

    order: int
    budget: float
    scale: float
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if self.order < 1:
            raise ValueError("order must be positive")
        if not self.budget > 0:
            raise ValueError("trace budget must be positive")
        if not (np.isfinite(self.scale) and self.scale >= 0):
            raise ValueError(f"scale must be finite and nonnegative, got {self.scale}")
        if atoms.ndim != 2 or atoms.shape[1] != self.order:
            raise ValueError(f"atoms must have {self.order} columns, got shape {atoms.shape}")
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
            self.order,
            self.budget,
            gamma * self.scale,
            np.vstack([self.atoms, v]),
            np.append(gamma * self.weights, delta),
        )

    def is_feasible(self, tol: float = 1e-10) -> bool:
        """Trace within budget * (1 + tol); PSD holds by construction."""
        return self.trace <= self.budget * (1.0 + tol)


@dataclass(frozen=True)
class MetricFactors:
    """Fixed matrices defining the subproblem for one training set.

    base is the block-diagonal Gram of both domains (order n); lift maps
    dual coefficients into the metric space, so v = lift @ beta. On the
    kernelized path lift is blockdiag of the Gram square roots; on the
    explicit path it is blockdiag of the column-sample matrices.
    """

    base: np.ndarray
    lift: np.ndarray
    n_source: int
    n_target: int

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        lift = np.asarray(self.lift, dtype=float)
        n = self.n_source + self.n_target
        if base.shape != (n, n):
            raise ValueError(f"base must be {n}x{n}, got {base.shape}")
        if lift.ndim != 2 or lift.shape[1] != n:
            raise ValueError(f"lift must have {n} columns, got {lift.shape}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "lift", lift)

    @property
    def n(self) -> int:
        return self.n_source + self.n_target

    @property
    def metric_order(self) -> int:
        return self.lift.shape[0]


def initial_metric(order: int, budget: float) -> TransformMetric:
    """Scaled identity (budget/order) * I, the alternation's start point."""
    if order < 1:
        raise ValueError("order must be positive")
    return TransformMetric(order, budget, budget / order, np.empty((0, order)), np.empty(0))


def lift_vector(factors: MetricFactors, beta: np.ndarray) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (factors.n,):
        raise ValueError(f"beta must have length {factors.n}, got {beta.shape}")
    return factors.lift @ beta


def _stall_threshold(gnorm: float, trace: float, f0: float) -> float:
    return 1e-13 * (gnorm * max(trace, 1.0) + abs(f0))


def _scalar_inner_loop(metric: TransformMetric, v: np.ndarray, const: float) -> tuple[float, float]:
    """Coefficients (gamma, delta) with H_out = gamma * H_in + delta * vv'.

    Runs METRIC_STEPS line-searched projected-gradient steps on
    G(H) = -1/2 (const + v'Hv). Because the gradient -1/2 vv' is constant
    at fixed beta, every projected step maps (gamma, delta) affinely: add
    (eta/2) to delta, then scale both by the trace cap. So the whole loop
    runs on these two scalars plus trace(H_in) and v'H_in v, and the
    caller applies the result as a rank-1 update. const = beta' base beta
    only sets the stall scale. A step is accepted when the v-energy rises
    by more than that scale; the objective is exactly linear in H, so
    this is the sufficient-decrease test.
    """
    nv2 = float(v @ v)
    nv4 = nv2 * nv2
    gnorm = 0.5 * nv2  # ||-(1/2) vv'||_F = ||v||^2 / 2
    eps = np.finfo(float).eps
    budget = metric.budget
    trace_base = metric.trace
    energy_base = metric.energy(v)
    gamma, delta = 1.0, 0.0
    for _ in range(METRIC_STEPS):
        tr = gamma * trace_base + delta * nv2
        energy = gamma * energy_base + delta * nv4
        stall = 2.0 * _stall_threshold(gnorm, tr, -0.5 * (const + energy))
        eta = tr / (gnorm + eps)
        if eta <= _ETA_MIN:
            eta = 1.0 / (gnorm + eps)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            d_new = delta + 0.5 * eta
            tr_new = gamma * trace_base + d_new * nv2
            scale = 1.0 if tr_new <= budget else budget / tr_new
            energy_new = scale * (gamma * energy_base + d_new * nv4)
            if energy_new - energy > stall:
                gamma *= scale
                delta = scale * d_new
                accepted = True
                break
            eta *= _SHRINK
            if eta < _ETA_MIN:
                break
        if not accepted:
            break
    return gamma, delta
