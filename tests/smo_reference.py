"""Reference copy of the SMO loop in `hfa.svm.solve_dual`, kept as an oracle.

It is the solver as it stood before the per-solve curvature-row cache:
every pair update rebuilds the curvature row K_ii + K_jj - 2 K_ij. The
cache only reuses rows computed by the same expression, so the shipped
solver must take the same pair path and return the same bits; the test
that compares the two lives in `tests/test_svm.py`.

An SMO change that is meant to alter the path (shrinking, a stall guard,
a different working-set rule) retires this oracle.
"""

import numpy as np

from hfa.svm import _BOUND_EPS, _CURVATURE_FLOOR, DualProblem, DualSolution


def reference_solve_dual(
    problem: DualProblem,
    tol: float = 1e-6,
    warm_start: np.ndarray | None = None,
    max_iter: int | None = None,
) -> DualSolution:
    """Solve the box-constrained dual by SMO with second-order pair selection.

    Each step takes i = argmax_{I_up} G and, among j in I_low with
    G_j < G_i, the j that maximizes (G_i - G_j)^2 / (K_ii + K_jj - 2 K_ij)
    (Fan, Chen & Lin, JMLR 2005), then moves alpha_i and alpha_j along the
    equality constraint to the clipped optimum of that pair.

    Parameters
    ----------
    problem : DualProblem
    tol : float
        Stop when the violating-pair gap max_{I_up} G - min_{I_low} G
        drops to tol, with G_i = y_i - (K beta)_i.
    warm_start : ndarray, optional
        Feasible alpha to start from; infeasible entries are clipped to
        the box (the equality constraint must already hold).
    max_iter : int, optional
        Guard on pair updates; a solve whose gap still exceeds tol after
        max_iter updates raises RuntimeError naming tol, the
        violating-pair gap left, the updates made and n.

    Returns
    -------
    DualSolution
        alpha within the box to round-off, |y' alpha| <= 1e-8 * n * C,
        and bias from free support vectors when any exist.
    """
    K, y, C = problem.K, problem.y, problem.C
    n = problem.size
    if max_iter is None:
        max_iter = 200 * n + 200_000

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
    below_C = alpha < C - bound_eps
    above_0 = alpha > bound_eps
    # I_up and I_low as additive masks, 0 inside the set and -inf / +inf
    # outside, so that G + up and G + low drop the rest from an arg-max/min
    up = np.where(np.where(pos, below_C, above_0), 0.0, -np.inf)
    low = np.where(np.where(pos, above_0, below_C), 0.0, np.inf)

    iterations = 0
    while True:
        G_up = G + up
        i = int(G_up.argmax())
        G_i = G_up[i]
        # b_j = G_i - G_j on I_low, -inf outside it: its max is the gap
        b = G_i - G
        b -= low
        gap = b[b.argmax()]
        if not gap > tol:
            break
        if iterations == max_iter:
            raise RuntimeError(
                f"SMO stopped after {max_iter} pair updates (the max_iter budget) on n={n} "
                f"with violating-pair gap {gap:.6g}, tol={tol:g}"
            )
        iterations += 1

        # second-order choice of j: b_j^2 / a_ij, twice the objective gain
        # of the pair step, largest over I_low entries with G_j < G_i.
        # Rows of K are read (contiguous); DualProblem made K exactly symmetric.
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
        # take the midpoint of the admissible interval
        at_0 = alpha <= free_margin
        at_C = alpha >= C - free_margin
        lower = (pos & at_0) | (~pos & at_C)
        upper = (pos & at_C) | (~pos & at_0)
        lo = float(G[lower].max()) if np.any(lower) else -np.inf
        hi = float(G[upper].min()) if np.any(upper) else np.inf
        if np.isfinite(lo) and np.isfinite(hi):
            bias = 0.5 * (lo + hi)
        elif np.isfinite(lo):
            bias = lo
        elif np.isfinite(hi):
            bias = hi
        else:
            bias = 0.0

    # K beta = y - G, so the objective needs no second product with K
    objective = float(alpha.sum() - 0.5 * (beta @ (y - G)))
    return DualSolution(alpha=alpha, beta=beta, bias=float(bias), objective=objective, iterations=iterations)

