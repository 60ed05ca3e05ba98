"""Binary SVM dual solver for precomputed kernel matrices.

Sequential minimal optimization over the standard dual

    max_alpha  sum_i alpha_i - (1/2) beta' K beta,   beta_i = alpha_i y_i,
    s.t.       0 <= alpha_i <= C,   y' alpha = 0,

with second-order working-set selection (Fan, Chen & Lin, "Working Set
Selection Using Second Order Information for Training Support Vector
Machines", JMLR 2005; the rule LIBSVM uses), interleaved with Newton
steps on the free set (the active-set step of SimpleSVM, Vishwanathan,
Smola & Murty, ICML 2003), solved through a Cholesky factor of the free
kernel block, with a min-norm eigendecomposition only for a block that is
singular or near it. solve_dual is the one entry. It checks its
labels and box bound on every call, but takes K as given: the code that
builds a kernel makes it finite and exactly symmetric (kernel_gram checks
each domain Gram, hfa_train and train_multiclass a caller's pair once per
call, and the trainer's working kernels are exactly symmetric by
construction), so no solve pays for an n x n scan or copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DualSolution",
    "DegenerateProblemError",
    "solve_dual",
]

# SMO stopping gap, the default of solve_dual and of every solve in training
SVM_TOL = 1e-6
# curvature floor for the pair step denominator K_ii + K_jj - 2 K_ij
_CURVATURE_FLOOR = 1e-12
# relative margin deciding whether an alpha sits at a box bound
_BOUND_EPS = 1e-12
# fewest pair updates between free-set Newton steps
_NEWTON_INTERVAL = 10
# a Newton step on m free alphas costs about m^3 / (work * n) pair updates,
# and the next step waits at least that many. work is _NEWTON_WORK for a
# step through the Cholesky factor and _NEWTON_WORK_EIGH for the min-norm
# fallback. At n = 900 (rbf, BLAS at 1 thread) a pair update took about
# 33 us, and a whole step on m = 40, 100 and 150 free alphas 0.17, 0.28 and
# 0.60 ms through the factor, against 0.47, 1.1 and 2.3 ms through eigh
_NEWTON_WORK = 100
_NEWTON_WORK_EIGH = 10
# a free-set block whose Cholesky pivots all exceed this fraction of the
# largest is solved through its factor, any other by the min-norm solve
_CHOLESKY_PIVOT = 1e-8
# eigenvalues of the free-set KKT matrix at or below this fraction of the
# largest magnitude count as zero in its min-norm solve
_NEWTON_RCOND = 1e-12


class DegenerateProblemError(ValueError):
    """Raised when the training labels contain only one class."""


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Optimal multipliers with the bias and dual objective value.

    beta = alpha * y is stored alongside alpha because every consumer
    (decision values, the metric subproblem) works in beta form.
    """

    alpha: np.ndarray
    beta: np.ndarray
    bias: float
    objective: float
    iterations: int


def _update_budget(n: int) -> int:
    """Pair updates a solve of order n may make before it gives up."""
    return 200 * n + 200_000


def solve_dual(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float = SVM_TOL,
    warm_start: np.ndarray | None = None,
) -> DualSolution:
    """Solve the box-constrained dual by SMO with second-order pair selection.

    Each step takes i = argmax_{I_up} G and, among j in I_low with
    G_j < G_i, the j that maximizes (G_i - G_j)^2 / (K_ii + K_jj - 2 K_ij)
    (Fan, Chen & Lin, JMLR 2005), then moves alpha_i and alpha_j along the
    equality constraint to the clipped optimum of that pair.

    While the exit test fails, a Newton step on the free set (the alphas
    strictly inside the box) is tried at entry and again after each
    _NEWTON_INTERVAL (10) pair updates, or after about m^3 / 100n updates
    (m^3 / 10n after a min-norm step) when the m free alphas are so many
    that the step costs more than 10 updates. A solve whose last pair
    update met the exit test tries one more step, so that it ends as close
    to the optimum as a solve that ended on a Newton step, and then checks
    the exit test again. The step solves the equality-constrained QP over
    the free alphas, with the rest held at their bounds, through the
    Cholesky factor of their kernel block, or by a min-norm solve of its
    bordered KKT matrix when that block is singular or near it, cuts the
    step to the box, and keeps it only if the objective rises; see
    _free_set_step and _newton_direction. When successive solves share a
    free set, as the warm-started trials of the Frank-Wolfe loop do, one
    such step replaces most pair updates. A warm start that already meets
    the exit test is returned unchanged.

    Parameters
    ----------
    K : ndarray, shape (n, n)
        Finite, exactly symmetric kernel matrix. That is not checked here,
        which would scan K on every solve: the code that builds K checks it.
    y : ndarray, shape (n,)
        Labels +-1, both signs present (else DegenerateProblemError).
    C : float
        Box bound, positive and finite.
    tol : float
        Stop when the violating-pair gap max_{I_up} G - min_{I_low} G
        drops to tol, with G_i = y_i - (K beta)_i.
    warm_start : ndarray, optional
        Feasible alpha to start from; infeasible entries are clipped to
        the box (the equality constraint must already hold).

    Returns
    -------
    DualSolution
        alpha within the box to round-off, |y' alpha| <= 1e-8 * n * C,
        and bias from free support vectors when any exist.

    Raises
    ------
    RuntimeError
        When the gap still exceeds tol after 200 n + 200,000 pair updates
        (_update_budget), naming tol, the violating-pair gap left, the
        updates made and n. Newton steps are not counted, here or in
        DualSolution.iterations.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"labels must be a nonempty vector, got shape {y.shape}")
    n = y.size
    if K.shape != (n, n):
        raise ValueError(f"kernel matrix must be {n} x {n} to match the labels, got {K.shape}")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +-1")
    if np.all(y > 0) or np.all(y < 0):
        raise DegenerateProblemError("labels contain a single class")
    if not 0.0 < C < np.inf:
        raise ValueError("C must be positive and finite")
    budget = _update_budget(n)

    if warm_start is not None:
        alpha = np.clip(np.asarray(warm_start, dtype=float), 0.0, C)
        if alpha.shape != (n,):
            raise ValueError("warm_start length mismatch")
        if abs(float(y @ alpha)) > 1e-6 * n * C:
            raise ValueError("warm_start violates the equality constraint")
    else:
        alpha = np.zeros(n)

    pos = y > 0
    G = y - K @ (alpha * y)
    diag = K.diagonal().copy()

    bound_eps = _BOUND_EPS * C
    up, low = _bound_masks(alpha, pos, C)

    iterations = 0
    # pair-update counts at which the next Newton step is due and at which
    # the last one was tried
    next_newton, tried_at = 0, -1
    while True:
        G_up = G + up
        i = int(G_up.argmax())
        G_i = G_up[i]
        # b_j = G_i - G_j on I_low, -inf outside it: its max is the gap
        b = G_i - G
        b -= low
        gap = b[b.argmax()]
        done = not gap > tol
        if done and (iterations == 0 or tried_at == iterations):
            break
        # a solve that made pair updates tries one more step before it stops
        if (done or iterations >= next_newton) and tried_at != iterations:
            tried_at = iterations
            next_newton = iterations + _free_set_step(K, y, C, tol, alpha, G)
            up, low = _bound_masks(alpha, pos, C)
            continue
        if iterations == budget:
            raise RuntimeError(
                f"SMO stopped after {budget} pair updates (the update budget) on n={n} "
                f"with violating-pair gap {gap:.6g}, tol={tol:g}"
            )
        iterations += 1

        # second-order choice of j: b_j^2 / a_ij, twice the objective gain
        # of the pair step, largest over I_low entries with G_j < G_i.
        # Rows of K are read (contiguous), which needs K exactly symmetric.
        K_i = K[i]
        a = diag + diag[i]
        a -= 2.0 * K_i
        np.maximum(a, _CURVATURE_FLOOR, out=a)
        np.maximum(b, 0.0, out=b)
        b *= b
        b /= a
        j = int(b.argmax())

        t = (G_i - G[j]) / a[j]
        # box caps for moving alpha_i up-direction and alpha_j down-direction
        cap_i = C - alpha[i] if pos[i] else alpha[i]
        cap_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(t, cap_i, cap_j)

        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        G -= t * (K_i - K[j])
        for k in (i, j):
            below, above = alpha[k] < C - bound_eps, alpha[k] > bound_eps
            in_up, in_low = (below, above) if pos[k] else (above, below)
            up[k] = 0.0 if in_up else -np.inf
            low[k] = 0.0 if in_low else np.inf

    np.clip(alpha, 0.0, C, out=alpha)
    beta = alpha * y
    G = y - K @ beta

    free_margin = 1e-8 * C
    free = (alpha > free_margin) & (alpha < C - free_margin)
    if np.any(free):
        bias = float(G[free].mean())
    else:
        # every alpha at a bound: the KKT conditions only bracket the bias,
        # take the midpoint of the admissible interval. Both sets are
        # nonempty for n < 1e6: an empty lower set needs every positive
        # alpha at C and every negative one at 0, so |y'alpha| >=
        # C (n_pos - 1e-8 n), but y'alpha keeps its start value (at most
        # 1e-6 n C) up to round-off; likewise for upper with n_neg
        at_0 = alpha <= free_margin
        at_C = alpha >= C - free_margin
        lower = (pos & at_0) | (~pos & at_C)
        upper = (pos & at_C) | (~pos & at_0)
        bias = 0.5 * (float(G[lower].max()) + float(G[upper].min()))

    # K beta = y - G, so the objective needs no second product with K
    objective = float(alpha.sum() - 0.5 * (beta @ (y - G)))
    return DualSolution(alpha=alpha, beta=beta, bias=bias, objective=objective, iterations=iterations)


def _bound_masks(alpha: np.ndarray, pos: np.ndarray, C: float) -> tuple[np.ndarray, np.ndarray]:
    """I_up and I_low as additive masks, 0 inside the set and -inf / +inf
    outside, so that G + up and G + low drop the rest from an arg-max/min."""
    bound_eps = _BOUND_EPS * C
    below_C = alpha < C - bound_eps
    above_0 = alpha > bound_eps
    up = np.where(np.where(pos, below_C, above_0), 0.0, -np.inf)
    low = np.where(np.where(pos, above_0, below_C), 0.0, np.inf)
    return up, low


def _free_set_step(K: np.ndarray, y: np.ndarray, C: float, tol: float, alpha: np.ndarray, G: np.ndarray) -> int:
    """Newton step on the free set, in place on alpha and G; returns the
    number of pair updates to make before the next one (at least
    _NEWTON_INTERVAL, more on a free set large enough that the step costs
    more than that many updates).

    With F the alphas strictly inside the box and the rest held fixed, the
    dual is a QP in alpha_F with one equality constraint. In beta form its
    optimum moves beta_F by delta solving

        [[K_FF, 1], [1', 0]] [delta; rho] = [G_F; 0]

    (the alpha-form system [[Q_FF, y_F], [y_F', 0]], Q = diag(y) K diag(y),
    with rows and columns scaled by y_F), after which every free G_i equals
    rho; _newton_direction solves it. The step alpha_F + s y_F delta is cut
    to the box (s <= 1, or any s >= 0 along a zero-curvature ray) and taken
    only if it raises the dual objective.
    """
    bound_eps = _BOUND_EPS * C
    F = np.flatnonzero((alpha > bound_eps) & (alpha < C - bound_eps))
    m = F.size
    if m < 2:
        return _NEWTON_INTERVAL
    K_F = K[F]
    K_FF = K_F[:, F]
    G_F = G[F]
    delta, s_max, factored = _newton_direction(K_FF, G_F, tol)
    wait = max(_NEWTON_INTERVAL, m**3 // ((_NEWTON_WORK if factored else _NEWTON_WORK_EIGH) * alpha.size))
    # ratio test: the largest s <= s_max that keeps alpha_F + s d in [0, C]
    a_F, d = alpha[F], y[F] * delta
    room = np.divide(np.where(d > 0.0, C - a_F, a_F), np.abs(d), out=np.full(m, np.inf), where=d != 0.0)
    s = min(s_max, float(room.min()))
    gain = s * float(G_F @ delta) - 0.5 * s * s * float(delta @ (K_FF @ delta))
    if not gain > 0.0:
        return wait
    step = np.clip(a_F + s * d, 0.0, C) - a_F
    alpha[F] += step
    G -= (y[F] * step) @ K_F
    return wait


def _newton_direction(K_FF: np.ndarray, G_F: np.ndarray, tol: float) -> tuple[np.ndarray, float, bool]:
    """The free-set step delta of _free_set_step and the largest multiple
    s_max of it to try: 1 for the QP's optimum, inf along a ray.

    When K_FF has a Cholesky factor whose pivots (the squared diagonal of
    the factor) all exceed _CHOLESKY_PIVOT times the largest, K_FF is
    positive definite and not near singular, and the bordered system
    reduces to two solves with K_FF: K_FF [a b] = [G_F 1], rho = 1'a / 1'b
    and delta = a - rho b.

    Any other block takes the min-norm solve of the bordered matrix from
    its eigendecomposition. When K_FF is singular and [G_F; 0] has a part
    in the null space of the bordered matrix, the QP over F rises without
    bound along that part until an alpha meets the box: delta is then that
    part, a direction of zero curvature, and s is limited by the box alone.
    Pair updates alone zigzag slowly on such a free set (badly scaled,
    rank-deficient linear kernels). A part whose norm is within tol counts
    as round-off.
    """
    m = G_F.size
    try:
        pivots = np.square(np.linalg.cholesky(K_FF).diagonal())
        factored = pivots.min() > _CHOLESKY_PIVOT * pivots.max()
    except np.linalg.LinAlgError:
        factored = False
    if factored:
        a, b = np.linalg.solve(K_FF, np.column_stack((G_F, np.ones(m)))).T
        return a - (a.sum() / b.sum()) * b, 1.0, True
    M = np.ones((m + 1, m + 1))
    M[:m, :m] = K_FF
    M[m, m] = 0.0
    w, V = np.linalg.eigh(M)
    keep = np.abs(w) > _NEWTON_RCOND * np.abs(w).max()
    coef = G_F @ V[:m]
    # the part of [G_F; 0] in the null space of M: a direction along which
    # the objective rises at rate |ray|^2 with no curvature
    ray = V[:m, ~keep] @ coef[~keep]
    if float(ray @ ray) > tol * tol:
        return ray, np.inf, False
    return V[:m, keep] @ (coef[keep] / w[keep]), 1.0, False
