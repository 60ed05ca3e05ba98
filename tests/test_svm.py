import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qp_oracle import dual_objectives, project_box_hyperplane, random_problems, solve_qp_batch

from hfa.svm import (
    DegenerateProblemError,
    DualProblem,
    solve_dual,
)


def test_problem_validation():
    K = np.eye(2)
    y = np.array([1.0, -1.0])
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 3)), y, 1.0)
    with pytest.raises(ValueError):
        DualProblem(K, np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        DualProblem(np.array([[1.0, np.inf], [np.inf, 1.0]]), y, 1.0)
    with pytest.raises(ValueError):
        DualProblem(K, np.array([1.0, 2.0]), 1.0)
    with pytest.raises(DegenerateProblemError):
        DualProblem(K, np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        DualProblem(K, y, 0.0)


def test_analytic_two_point_problem():
    # points +1 and -1 on the line with a linear kernel: the margin
    # saturates both multipliers at 0.5 with zero bias
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([1.0, -1.0])
    sol = solve_dual(DualProblem(K, y, 1.0))
    assert_allclose(sol.alpha, [0.5, 0.5], atol=1e-9)
    assert sol.bias == pytest.approx(0.0, abs=1e-9)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    assert_allclose(K.T @ sol.beta + sol.bias, [1.0, -1.0], atol=1e-8)


def test_tiny_C_collapses_box():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 8))
    K = A @ A.T
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    C = 1e-9
    sol = solve_dual(DualProblem(K, y, C))
    assert np.all(sol.alpha <= C + 1e-21)
    assert abs(sol.objective) <= 6 * C * 1.1


def test_solution_invariants():
    rng = np.random.default_rng(1)
    for trial in range(15):
        n = int(rng.integers(3, 10))
        A = rng.standard_normal((n, n + 2))
        K = A @ A.T
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y > 0) or np.all(y < 0):
            y[0] = -y[0]
        C = float(rng.choice([0.1, 1.0, 10.0]))
        sol = solve_dual(DualProblem(K, y, C))
        assert np.all(sol.alpha >= -1e-12) and np.all(sol.alpha <= C + 1e-12)
        assert abs(float(y @ sol.alpha)) <= 1e-8 * n * C
        assert np.array_equal(sol.beta, sol.alpha * y)  # exact by construction


def test_objective_matches_projected_gradient_oracle():
    rng = np.random.default_rng(2)
    K, y, C = random_problems(rng, 12, n_max=7)
    _, oracle_obj = solve_qp_batch(K, y, C)
    for p in range(12):
        sol = solve_dual(DualProblem(K[p], y[p], float(C[p])), tol=1e-9)
        assert sol.objective == pytest.approx(float(oracle_obj[p]), abs=1e-7)


def test_objective_dominates_random_feasible_points():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = 7
        A = rng.standard_normal((n, n + 1))
        K = A @ A.T
        y = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
        C = 1.0
        sol = solve_dual(DualProblem(K, y, C), tol=1e-8)
        raw = rng.uniform(0.0, C, size=(100, n))
        feas = project_box_hyperplane(raw, np.broadcast_to(y, (100, n)), np.full(100, C))
        vals = dual_objectives(np.broadcast_to(K, (100, n, n)), np.broadcast_to(y, (100, n)), feas)
        assert sol.objective >= vals.max() - 1e-8


def test_monotonicity_in_C():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = 6
        A = rng.standard_normal((n, n))
        K = A @ A.T
        y = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
        objs = [solve_dual(DualProblem(K, y, C)).objective for C in (0.1, 1.0, 10.0)]
        assert objs[0] <= objs[1] + 1e-9 and objs[1] <= objs[2] + 1e-9


def test_complementary_slackness_on_free_vectors():
    rng = np.random.default_rng(5)
    tol = 1e-6
    for _ in range(10):
        n = 12
        X = rng.standard_normal((n, 3))
        d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)
        K = np.exp(-0.5 * d2)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y > 0) or np.all(y < 0):
            y[0] = -y[0]
        C = 1.0
        sol = solve_dual(DualProblem(K, y, C), tol=tol)
        f = K @ sol.beta + sol.bias
        free = (sol.alpha > 1e-8 * C) & (sol.alpha < C - 1e-8 * C)
        if np.any(free):
            assert np.max(np.abs(y[free] * f[free] - 1.0)) <= 10 * tol


def test_bias_inside_admissible_interval():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = 9
        A = rng.standard_normal((n, n + 3))
        K = A @ A.T
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y > 0) or np.all(y < 0):
            y[0] = -y[0]
        C = float(rng.choice([0.5, 2.0]))
        sol = solve_dual(DualProblem(K, y, C), tol=1e-8)
        G = y - K @ sol.beta
        margin = 1e-8 * C
        lower = ((y > 0) & (sol.alpha <= margin)) | ((y < 0) & (sol.alpha >= C - margin))
        upper = ((y > 0) & (sol.alpha >= C - margin)) | ((y < 0) & (sol.alpha <= margin))
        lo = G[lower].max() if lower.any() else -np.inf
        hi = G[upper].min() if upper.any() else np.inf
        slack = 1e-6 * max(1.0, abs(sol.bias))
        assert lo - slack <= sol.bias <= hi + slack


def test_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(7)
    n = 8
    A = rng.standard_normal((n, n + 2))
    K = A @ A.T
    y = np.array([1.0, -1.0] * 4)
    p = DualProblem(K, y, 1.0)
    cold = solve_dual(p, tol=1e-8)
    warm = solve_dual(p, tol=1e-8, warm_start=cold.alpha)
    assert warm.iterations == 0
    assert warm.objective == pytest.approx(cold.objective, abs=1e-10)
    # a feasible but non-optimal start still reaches the same objective
    third = solve_dual(p, tol=1e-8, warm_start=np.zeros(n))
    assert third.objective == pytest.approx(cold.objective, abs=1e-8)
    with pytest.raises(ValueError):
        solve_dual(p, warm_start=y * 0.5 + 0.5)  # violates equality constraint
    with pytest.raises(ValueError):
        solve_dual(p, warm_start=np.zeros(n - 1))


def test_guard_on_iteration_budget():
    # a solve that reaches tol on its last allowed update succeeds
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([1.0, -1.0])
    sol = solve_dual(DualProblem(K, y, 1.0), tol=1e-12, max_iter=1)
    assert sol.iterations == 1
    # the message names the budget, n, tol and the gap left after the last update
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 3))
    K = np.exp(-0.5 * np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2))
    y = np.array([1.0, -1.0] * 10)
    with pytest.raises(RuntimeError) as info:
        solve_dual(DualProblem(K, y, 1.0), tol=1e-6, max_iter=3)
    message = str(info.value)
    assert "after 3 pair updates" in message and "n=20" in message and "tol=1e-06" in message
    gap = float(re.search(r"violating-pair gap (\S+),", message).group(1))
    assert 1e-6 < gap < np.inf


def _violating_gap(K, y, C, alpha):
    """max_{I_up} G - min_{I_low} G recomputed from alpha, as solve_dual defines it."""
    G = y - K @ (alpha * y)
    eps = 1e-12 * C
    below_C, above_0 = alpha < C - eps, alpha > eps
    up = np.where(y > 0, below_C, above_0)
    low = np.where(y > 0, above_0, below_C)
    return (G[up].max() if up.any() else -np.inf) - (G[low].min() if low.any() else np.inf)


@st.composite
def psd_problems_with_warm_start(draw):
    """Random PSD K (full rank, or low rank A A'), both label signs, C in [1e-3, 1e2],
    and a feasible warm start with alphas at 0, at C and strictly inside the box."""
    n = draw(st.integers(6, 16))
    rank = draw(st.one_of(st.just(n + 2), st.integers(1, n - 1)))
    n_pos = draw(st.integers(2, n - 2))
    C = 10.0 ** draw(st.floats(-3.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, rank))
    y = rng.permutation(np.r_[np.ones(n_pos), -np.ones(n - n_pos)])
    # equal alphas on (positive, negative) pairs keep y'alpha = 0
    pos, neg = np.flatnonzero(y > 0), np.flatnonzero(y < 0)
    m = min(pos.size, neg.size)
    values = np.r_[C, rng.uniform(0.05, 0.95) * C, rng.choice([0.0, C, 0.5 * C], m - 2)]
    if pos.size == neg.size:
        values[-1] = 0.0  # every index is paired: make one pair sit at 0
    warm = np.zeros(n)
    warm[pos[:m]] = values
    warm[neg[:m]] = values
    return A @ A.T, y, C, warm


@settings(max_examples=200, deadline=None)
@given(psd_problems_with_warm_start())
def test_exit_conditions_cold_and_warm(case):
    K, y, C, warm = case
    n, tol = y.size, 1e-6
    p = DualProblem(K, y, C)
    cold = solve_dual(p, tol)
    warm_sol = solve_dual(p, tol, warm_start=warm)
    # recomputing G from alpha differs from SMO's running G by round-off only
    roundoff = 64 * np.finfo(float).eps * n * C * np.abs(p.K).max()
    for sol in (cold, warm_sol):
        assert np.all(sol.alpha >= 0.0) and np.all(sol.alpha <= C)
        assert abs(float(y @ sol.alpha)) <= 1e-8 * n * C
        assert _violating_gap(p.K, y, C, sol.alpha) <= tol + roundoff
    assert warm_sol.objective == pytest.approx(cold.objective, rel=1e-8)
