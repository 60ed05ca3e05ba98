"""Dense matrix-route reference for the metric subproblem.

At fixed dual coefficients beta the objective is linear in the metric H:

    G(H) = -1/2 (beta' base beta + v' H v),    v = lift @ beta,

minimized over {H PSD, trace(H) <= budget}. This module solves it the
direct way, on explicit order x order matrices and an explicit lift L,
which the library never forms: the gradient -1/2 vv',
projected-gradient steps (eigenvalue clip, then trace cap) chosen by a
backtracking line search, and the closed-form rank-1 vertex
budget * vv' / ||v||^2, where the trainer's full Frank-Wolfe step
(t = 1) lands; the unit and acceptance suites compare against these
functions.

The functions read a metric through .matrix, .budget, .trace and .order
only (DenseMetric; `lifted` turns a factored hfa.metric.TransformMetric
into one). They read the subproblem through .base (n x n) and .lift
(order x n) only, as a types.SimpleNamespace holds them; for the
kernelized path, base = blockdiag(Ks, Kt) of prepare_kernels's two Grams
(linear_oracle.block_gram) and lift = gram_root(base).
"""

from dataclasses import dataclass

import numpy as np

from hfa.linalg import KernelSpec
from hfa.metric import TransformMetric
from gram_oracle import check_finite, check_square, symmetrize


@dataclass(frozen=True)
class DenseMetric:
    """Explicit square matrix with a trace budget; symmetrized on construction."""

    matrix: np.ndarray
    budget: float

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"metric must be square, got {M.shape}")
        if not self.budget > 0:
            raise ValueError("trace budget must be positive")
        object.__setattr__(self, "matrix", symmetrize(M))

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def is_feasible(self, tol: float = 1e-10) -> bool:
        """PSD within -tol*trace and trace within budget*(1+tol)."""
        t = self.trace
        if t > self.budget * (1.0 + tol):
            return False
        w = np.linalg.eigvalsh(self.matrix)
        return bool(w.min() >= -tol * max(t, 1.0) if w.size else True)


def sym_eigen(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    M : array_like, square
        Symmetrized internally before factoring.

    Returns
    -------
    w : ndarray
        Eigenvalues in descending order.
    V : ndarray
        Orthonormal eigenvectors as columns, aligned with w, so that
        M ~= V @ diag(w) @ V.T.
    """
    M = np.asarray(M, dtype=float)
    check_square(M)
    check_finite(M)
    w, V = np.linalg.eigh(symmetrize(M))
    return w[::-1], V[:, ::-1]


def gram_root(M: np.ndarray) -> np.ndarray:
    """A lift L with L'L = M for a PSD M: its symmetric square root, with the
    eigenvalues at or below 1e-12 of the largest (round-off of a cut
    direction) set to 0."""
    w, V = sym_eigen(M)
    keep = w > 1e-12 * w.max(initial=0.0)
    return symmetrize((V * np.sqrt(np.where(keep, w, 0.0))) @ V.T)


def unit_atoms(rng, k: int, lift: np.ndarray) -> np.ndarray:
    """k random dual vectors c, one per row, with ||lift @ c|| = 1."""
    C = rng.standard_normal((k, lift.shape[1]))
    return C / np.linalg.norm(C @ lift.T, axis=1)[:, None]


def lifted(metric: TransformMetric, lift: np.ndarray) -> DenseMetric:
    """The dense order x order metric scale * I + sum_k w_k (L c_k)(L c_k)' of a
    factored metric whose atoms c_k are dual coordinates for the lift L."""
    if lift.shape != (metric.order, metric.atoms.shape[1]):
        raise ValueError(f"lift shape {lift.shape} != (order, n) = {(metric.order, metric.atoms.shape[1])}")
    roots = (lift @ metric.atoms.T) * np.sqrt(metric.weights)
    return DenseMetric(roots @ roots.T + metric.scale * np.eye(metric.order), metric.budget)


@dataclass(frozen=True)
class LineSearchParams:
    """Backtracking constants for the projected-gradient step."""

    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    eta_min: float = 1e-12
    max_backtracks: int = 50


def lift_vector(factors, beta: np.ndarray) -> np.ndarray:
    """v = lift @ beta, the vector the metric subproblem sees; checks beta's length."""
    beta = np.asarray(beta, dtype=float)
    n = factors.lift.shape[1]
    if beta.shape != (n,):
        raise ValueError(f"beta must have length {n}, got {beta.shape}")
    return factors.lift @ beta


def kernel_value(spec: KernelSpec, a, b) -> float:
    """k(a, b) for a single pair of vectors, straight from the definition."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    if spec.family == "linear":
        return float(a @ b)
    d = a - b
    return float(np.exp(-spec.gamma * (d @ d)))


def psd_project(M) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clip negative eigenvalues at 0."""
    M = np.asarray(M, dtype=float)
    w, V = sym_eigen(M)
    if w.size == 0 or w[-1] >= 0.0:
        # already PSD, return unchanged apart from symmetrization
        return symmetrize(M)
    s = np.maximum(w, 0.0)
    return symmetrize((V * s) @ V.T)


def trace_cap(M, cap: float) -> np.ndarray:
    """Scale M by cap / trace(M) when trace(M) > cap, else return M as is."""
    if not cap > 0:
        raise ValueError("cap must be positive")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    t = float(np.trace(M))
    if t <= cap:
        return M
    return M * (cap / t)


def frobenius_inner(A, B) -> float:
    """Frobenius inner product <A, B> = sum_ij A_ij B_ij."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    return float(np.tensordot(A, B))


def sdp_objective(beta: np.ndarray, metric, factors) -> float:
    """G(H) = -1/2 (beta' base beta + v' H v)."""
    beta = np.asarray(beta, dtype=float)
    if metric.order != factors.lift.shape[0]:
        raise ValueError(f"metric order {metric.order} != factor order {factors.lift.shape[0]}")
    v = lift_vector(factors, beta)
    return -0.5 * float(beta @ (factors.base @ beta) + v @ (metric.matrix @ v))


def sdp_gradient(beta: np.ndarray, factors) -> np.ndarray:
    """dG/dH = -1/2 vv'; symmetric, negative semidefinite, rank <= 1."""
    v = lift_vector(factors, beta)
    return -0.5 * np.outer(v, v)


def sdp_closed_form(beta: np.ndarray, budget: float, factors) -> DenseMetric:
    """Analytic minimizer budget * vv' / ||v||^2; zero metric when v = 0."""
    if not budget > 0:
        raise ValueError("trace budget must be positive")
    v = lift_vector(factors, beta)
    nv = float(v @ v)
    p = factors.lift.shape[0]
    if nv == 0.0:
        # objective is constant in H, any feasible point is optimal
        return DenseMetric(np.zeros((p, p)), budget)
    return DenseMetric(np.outer(v, v) * (budget / nv), budget)


def _project_feasible(M: np.ndarray, budget: float) -> np.ndarray:
    return trace_cap(psd_project(M), budget)


def _stall_threshold(gnorm: float, trace: float, f0: float) -> float:
    return 1e-13 * (gnorm * max(trace, 1.0) + abs(f0))


def sdp_pgd_step(metric, beta: np.ndarray, eta: float, factors) -> DenseMetric:
    """One projected-gradient update H <- project(H - eta * dG/dH).

    The projection clips negative eigenvalues, then rescales onto the
    trace budget; along the actual gradient direction the update adds a
    PSD rank-1 term, so the eigenvalue clip only absorbs round-off.
    """
    if not eta >= 0:
        raise ValueError("step size must be nonnegative")
    grad = sdp_gradient(beta, factors)
    stepped = metric.matrix - eta * grad
    return DenseMetric(_project_feasible(stepped, metric.budget), metric.budget)


def line_search(
    metric,
    beta: np.ndarray,
    grad: np.ndarray,
    factors,
    params: LineSearchParams = LineSearchParams(),
) -> tuple[float, bool]:
    """Backtracking step-size choice for the projected-gradient update.

    Starts from eta0 = trace(H) / (||grad||_F + eps) and halves until the
    projected candidate satisfies the sufficient-decrease test

        G(P(H - eta g)) <= G(H) + c * <g, P(H - eta g) - H>,

    with the inner product required to be negative so an accepted step
    makes actual progress.

    Returns
    -------
    (eta, stalled) : tuple of float and bool
        stalled is True when no step above eta_min passes the test, which
        happens exactly when H already sits at the feasible minimizer.
    """
    grad = np.asarray(grad, dtype=float)
    gnorm = float(np.linalg.norm(grad))
    if gnorm == 0.0:
        raise ValueError("line search requires a nonzero gradient")
    H = metric.matrix
    f0 = sdp_objective(beta, metric, factors)
    # progress below round-off scale counts as a stall, not a step
    stall = _stall_threshold(gnorm, metric.trace, f0)
    eps = np.finfo(float).eps
    eta = metric.trace / (gnorm + eps)
    if eta <= params.eta_min:
        eta = 1.0 / (gnorm + eps)
    for _ in range(params.max_backtracks):
        cand = _project_feasible(H - eta * grad, metric.budget)
        ref = frobenius_inner(grad, cand - H)
        f1 = sdp_objective(beta, DenseMetric(cand, metric.budget), factors)
        if ref < -stall and f1 <= f0 + params.sufficient_decrease * ref:
            return eta, False
        eta *= params.shrink
        if eta < params.eta_min:
            break
    return params.eta_min, True


def optimize_metric(
    metric,
    beta: np.ndarray,
    factors,
    steps: int = 10,
    params: LineSearchParams = LineSearchParams(),
):
    """Run up to `steps` line-searched projected-gradient updates at fixed beta.

    Stops early when the line search stalls (H at the subproblem
    optimum). A zero gradient (beta = 0) returns the metric unchanged.
    """
    grad = sdp_gradient(beta, factors)
    if not np.any(grad):
        return metric
    for _ in range(steps):
        eta, stalled = line_search(metric, beta, grad, factors, params)
        if stalled:
            break
        metric = sdp_pgd_step(metric, beta, eta, factors)
    return metric
