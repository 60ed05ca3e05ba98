"""Cross-domain augmented-feature SVM training and prediction.

The model couples a labeled source domain (dim d_s) and a sparsely
labeled target domain (dim d_t) by implicitly embedding both into a
shared augmented space. Only the PSD coupling metric is learned: the
trainer minimizes the SVM dual value over the trace-bounded metrics by
Frank-Wolfe steps toward a rank-1 vertex, re-solving the dual (warm
started) at each trial step, and stops on a certified saddle gap;
prediction needs target kernel values only.

The one shipped training path is kernelized: its metric has order
n_s+n_t over per-domain Gram square roots. The paper's explicit path,
with a metric of order d_s+d_t over raw features, lives next to the
tests as an oracle (tests/linear_oracle.py) and runs the same outer loop;
the optimal objectives of the two agree when the linear kernel is used
and sample counts do not exceed feature dimensions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from hfa.data import Dataset
from hfa.linalg import (
    KernelSpec,
    cross_gram,
    default_ridge,
    gram_matrix,
    median_heuristic_gamma,
    sym_eigen,
    symmetrize,
)
from hfa.metric import (
    MetricFactors,
    TransformMetric,
    initial_metric,
)
from hfa.svm import DegenerateProblemError, DualProblem, solve_dual

log = logging.getLogger("hfa")

# SMO stopping gap for every dual solve in training
SVM_TOL = 1e-6

__all__ = [
    "HfaConfig",
    "HfaModel",
    "KernelExpansion",
    "PrecomputedKernels",
    "kernelized_factors",
    "prepare_kernels",
    "hfa_train",
]


@dataclass(frozen=True)
class HfaConfig:
    """Training settings.

    C is the SVM box bound and lam the metric trace budget. kernel_gamma
    None selects the per-domain median-distance bandwidth at training
    time. The alternation stops after t_max outer iterations, or one
    iteration after the certified relative saddle gap (P - max L) / |P|
    falls to conv_tol, so the last objective change is within conv_tol
    too (see _alternate). standardize asks `hfa train` and the experiment
    runner to z-score each domain's features; the trainer itself does not
    read it. The SMO tolerance (SVM_TOL) and the Gram ridges are fixed.
    """

    C: float = 1.0
    lam: float = 1.0
    kernel_family: str = "rbf"
    kernel_gamma: float | None = None
    t_max: int = 100
    conv_tol: float = 1e-5
    standardize: bool = False

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError("C must be positive")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.kernel_family not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel family {self.kernel_family!r}")
        if self.kernel_gamma is not None and not self.kernel_gamma > 0:
            raise ValueError("kernel_gamma must be positive when given")
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")
        if not self.conv_tol > 0:
            raise ValueError("conv_tol must be positive")

    def kernel_spec_for(self, X: np.ndarray) -> KernelSpec:
        """Resolve the kernel for one domain's training rows."""
        if self.kernel_family == "linear":
            return KernelSpec("linear")
        gamma = self.kernel_gamma if self.kernel_gamma is not None else median_heuristic_gamma(X)
        return KernelSpec("rbf", gamma)


def _block_diag(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    out = np.zeros((n + B.shape[0], A.shape[1] + B.shape[1]))
    out[:n, : A.shape[1]] = A
    out[n:, A.shape[1]:] = B
    return out


def kernelized_factors(Ks, Kt, ks_sqrt, kt_sqrt) -> MetricFactors:
    """Subproblem factors from per-domain Grams and their square roots."""
    Ks, Kt = np.asarray(Ks, dtype=float), np.asarray(Kt, dtype=float)
    ks_sqrt, kt_sqrt = np.asarray(ks_sqrt, dtype=float), np.asarray(kt_sqrt, dtype=float)
    if ks_sqrt.shape != Ks.shape or kt_sqrt.shape != Kt.shape:
        raise ValueError("square-root factors must match their Gram matrices")
    base = _block_diag(Ks, Kt)
    lift = _block_diag(ks_sqrt, kt_sqrt)
    return MetricFactors(base=base, lift=lift, n_source=Ks.shape[0], n_target=Kt.shape[0])


def _sqrt_factors(K: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Ridged square root of a Gram matrix and its paired inverse factor.

    Eigendirections below 1e-12 of the largest eigenvalue are zeroed in
    both factors, which makes inv @ K == sqrt hold to round-off; the
    predictor relies on that identity to reproduce training-kernel
    decision values exactly.
    """
    w, V = sym_eigen(K)
    wmax = w[0] if w.size and w[0] > 0 else 0.0
    keep = w > 1e-12 * wmax
    safe_w = np.where(keep, w, 1.0)
    s = np.where(keep, np.sqrt(safe_w + ridge), 0.0)
    inv = np.where(keep, s / safe_w, 0.0)
    return symmetrize((V * s) @ V.T), symmetrize((V * inv) @ V.T)


@dataclass(frozen=True)
class PrecomputedKernels:
    """Gram factors shared by all models on one training set.

    factors.base is blockdiag(Ks, Kt) and factors.lift blockdiag of their
    ridged square roots; kt_inv_sqrt @ Kt == kt_sqrt up to round-off.
    """

    kernel_target: KernelSpec
    factors: MetricFactors
    kt_inv_sqrt: np.ndarray


def prepare_kernels(source_X: np.ndarray, target_X: np.ndarray, cfg: HfaConfig) -> PrecomputedKernels:
    """Resolve kernels and factor each Gram of a training pair once, ridged by default_ridge."""
    spec_t = cfg.kernel_spec_for(target_X)
    Ks = gram_matrix(cfg.kernel_spec_for(source_X), source_X)
    Kt = gram_matrix(spec_t, target_X)
    ks_sqrt, _ = _sqrt_factors(Ks, default_ridge(Ks))
    kt_sqrt, kt_inv_sqrt = _sqrt_factors(Kt, default_ridge(Kt))
    return PrecomputedKernels(
        kernel_target=spec_t,
        factors=kernelized_factors(Ks, Kt, ks_sqrt, kt_sqrt),
        kt_inv_sqrt=kt_inv_sqrt,
    )


def _validate_binary_pair(source: Dataset, target: Dataset) -> None:
    if len(source) < 1 or len(target) < 1:
        raise ValueError("both domains need at least one training sample")
    y = np.concatenate([source.y, target.y])
    if not np.all(np.isin(y, (-1, 1))):
        raise ValueError("training labels must be +1 or -1")
    if np.all(y == 1) or np.all(y == -1):
        raise DegenerateProblemError("both classes must appear across the two domains")


def _alternate(factors: MetricFactors, y: np.ndarray, cfg: HfaConfig, monitor=None):
    """Run the alternation; returns (metric, final solution, objective trace, saddle gap).

    P(H) = max_alpha 1'alpha - 1/2 beta'(F + L'HL)beta is convex in H, and at
    fixed beta its linear minimizer over {H PSD, trace(H) <= lam} is the
    rank-1 vertex lam*hh', h = v/||v||, v = L beta. Each outer iteration is
    one Frank-Wolfe step H <- (1-t)H + t*lam*hh' (Jaggi, ICML 2013), so the
    working kernel is K(t) = F + (1-t)*coupling + t*lam*uu' with u = L'h.
    By Danskin's theorem dP/dt = -1/2 (lam (u'beta_t)^2 - beta_t' coupling
    beta_t) at the dual solution for K(t); t = 1 is taken when that slope is
    not positive there, else the lower of t = 1 and the secant root of the
    slope between t = 0 and 1, halved until P does not rise.

    Every solve's alpha also gives L(alpha) = 1'alpha - 1/2 beta'F beta -
    1/2 lam ||L beta||^2, a lower bound on the saddle value, so
    (P - max L) / |P| is a certified relative gap. The loop stops one step
    after it reaches cfg.conv_tol, which bounds that last step's change of
    P by conv_tol too, or after cfg.t_max solves are accepted.
    """
    lam, lift = cfg.lam, factors.lift
    metric = initial_metric(factors.metric_order, lam)
    coupling = symmetrize(lift.T @ (metric.scale * lift))
    sol = solve_dual(DualProblem(factors.base + coupling, y, cfg.C), SVM_TOL)
    lower = -np.inf

    def slope(s, t, w):
        # dP/dt at the solution s for K(t), w = L s.beta; s's alpha also
        # tightens the bound
        nonlocal lower
        energy, along = metric.energy(w), lam * float(h @ w) ** 2
        lower = max(lower, s.objective + 0.5 * ((1.0 - t) * energy + t * along - lam * float(w @ w)))
        return -0.5 * (along - energy)

    def trial(t):
        # solve at K(t), warm started from the accepted alpha
        coupling_t = (1.0 - t) * coupling + (t * lam) * np.outer(u, u)
        s = solve_dual(DualProblem(factors.base + coupling_t, y, cfg.C), SVM_TOL, warm_start=sol.alpha)
        return s, coupling_t, slope(s, t, lift @ s.beta)

    objective = []
    reached = False
    for tau in range(cfg.t_max):
        if tau > 0:
            if reached:
                break
            reached = gap <= cfg.conv_tol
            if slope_0 < 0.0:
                u = lift.T @ h
                t = 1.0
                best, coupling_t, slope_1 = trial(t)
                if slope_1 > 0.0:
                    t_root = slope_0 / (slope_0 - slope_1)
                    step = trial(t_root)
                    if step[0].objective < best.objective:
                        t, (best, coupling_t, _) = t_root, step
                while best.objective > sol.objective:
                    t *= 0.5
                    log.info("outer %d step halved to t = %.3e", tau, t)
                    best, coupling_t, _ = trial(t)
                metric = metric.rank1_update(1.0 - t, t * lam, h)
                coupling, sol = coupling_t, best
            else:
                # H already minimizes at this beta (gap 0): the step is t = 0
                sol = solve_dual(DualProblem(factors.base + coupling, y, cfg.C), SVM_TOL, warm_start=sol.alpha)
        v = lift @ sol.beta
        norm = np.sqrt(float(v @ v))
        h = v / norm if norm > 0.0 else v  # v = 0 leaves no direction, and slope 0
        slope_0 = slope(sol, 0.0, v)
        gap = (sol.objective - lower) / max(abs(sol.objective), 1e-12)
        objective.append(sol.objective)
        log.info("outer %d objective %.10e gap %.3e", tau, sol.objective, gap)
        if monitor is not None:
            monitor(tau, metric, sol)
    return metric, sol, np.array(objective), gap


@dataclass(frozen=True)
class KernelExpansion:
    """Deployed predictor f(x) = k(X, x)' coef + bias over stored target rows X.

    Both experiment arms predict in this form: the cross-domain model with
    coef = Kt^{-1/2} (H v)_t + beta_t, the target-only SVM with coef = beta.
    """

    X: np.ndarray
    kernel: KernelSpec
    coef: np.ndarray
    bias: float

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def query_rows(self, X) -> np.ndarray:
        """X as a 2-D float array of target-domain rows (a 1-D X is one row)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected target-domain rows of dimension {self.dim}, got {X.shape}")
        return X

    def from_block(self, K: np.ndarray) -> np.ndarray:
        """Decision values from K = cross_gram(kernel, self.X, rows), shape (rows,)."""
        return K.T @ self.coef + self.bias

    def decision_function(self, X) -> np.ndarray:
        """Decision values for target-domain rows X, shape (m,)."""
        X = self.query_rows(X)
        if X.shape[0] == 0:
            return np.empty(0)
        return self.from_block(cross_gram(self.kernel, self.X, X))


@dataclass(frozen=True)
class HfaModel:
    """Trained kernelized model over one binary source/target pair.

    Prediction delegates to `expansion`, all that a saved model keeps. The
    other fields are what training produced and are not saved; beta splits
    as (beta_source, beta_target) in training order and saddle_gap is the
    certified relative gap at exit.
    """

    expansion: KernelExpansion
    metric: TransformMetric
    beta: np.ndarray
    objective_trace: np.ndarray
    saddle_gap: float

    def decision_function(self, X) -> np.ndarray:
        """Decision values for target-domain rows X, shape (m,)."""
        return self.expansion.decision_function(X)


def hfa_train(
    source: Dataset,
    target: Dataset,
    cfg: HfaConfig = HfaConfig(),
    kernels: PrecomputedKernels | None = None,
    monitor=None,
) -> HfaModel:
    """Train the kernelized model on +-1 labeled source/target data.

    Parameters
    ----------
    source, target : Dataset
        Binary training sets; both label signs must appear in the union.
    cfg : HfaConfig
    kernels : PrecomputedKernels, optional
        Shared Gram factorization when training several relabelings of
        the same samples (one-vs-rest); must match the sample counts.
    monitor : callable, optional
        monitor(iteration, metric, dual_solution), called once per outer
        iteration including the initial solve.

    Returns
    -------
    HfaModel, whose `expansion` is the deployed predictor
    """
    _validate_binary_pair(source, target)
    if kernels is None:
        kernels = prepare_kernels(source.X, target.X, cfg)
    elif kernels.factors.n_source != len(source) or kernels.factors.n_target != len(target):
        raise ValueError("precomputed kernels do not match the training sample counts")
    y = np.concatenate([source.y, target.y]).astype(float)
    metric, sol, trace, gap = _alternate(kernels.factors, y, cfg, monitor)
    n_s = len(source)
    lift = kernels.factors.lift
    beta_s, beta_t = sol.beta[:n_s], sol.beta[n_s:]
    v = np.concatenate([lift[:n_s, :n_s] @ beta_s, lift[n_s:, n_s:] @ beta_t])
    coef = kernels.kt_inv_sqrt @ metric.apply(v)[n_s:] + beta_t
    return HfaModel(
        expansion=KernelExpansion(target.X, kernels.kernel_target, coef, sol.bias),
        metric=metric,
        beta=sol.beta,
        objective_trace=trace,
        saddle_gap=gap,
    )
