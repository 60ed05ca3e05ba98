import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from gram_oracle import gram_matrix, median_heuristic_gamma
from qp_oracle import dual_objectives, project_box_hyperplane, random_problems, solve_qp_batch

from hfa.linalg import KernelSpec
import hfa.svm
from hfa.svm import DegenerateProblemError, _free_set_step, _newton_direction, solve_dual


def test_problem_validation():
    # the O(n) checks every solve makes; K's values are its builder's to check
    K = np.eye(2)
    y = np.array([1.0, -1.0])
    with pytest.raises(ValueError, match="must be 2 x 2"):
        solve_dual(np.ones((2, 3)), y, 1.0)
    with pytest.raises(ValueError, match="must be 1 x 1"):
        solve_dual(K, np.array([1.0]), 1.0)
    with pytest.raises(ValueError, match="nonempty vector"):
        solve_dual(np.ones((0, 0)), np.ones(0), 1.0)
    with pytest.raises(ValueError, match=r"\+-1"):
        solve_dual(K, np.array([1.0, 2.0]), 1.0)
    with pytest.raises(DegenerateProblemError):
        solve_dual(K, np.array([1.0, 1.0]), 1.0)
    for C in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="C must be positive"):
            solve_dual(K, y, C)


def test_analytic_two_point_problem():
    # points +1 and -1 on the line with a linear kernel: the margin
    # saturates both multipliers at 0.5 with zero bias
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([1.0, -1.0])
    sol = solve_dual(K, y, 1.0)
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
    sol = solve_dual(K, y, C)
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
        sol = solve_dual(K, y, C)
        assert np.all(sol.alpha >= -1e-12) and np.all(sol.alpha <= C + 1e-12)
        assert abs(float(y @ sol.alpha)) <= 1e-8 * n * C
        assert np.array_equal(sol.beta, sol.alpha * y)  # exact by construction


def test_objective_matches_projected_gradient_oracle():
    rng = np.random.default_rng(2)
    K, y, C = random_problems(rng, 12, n_max=7)
    _, oracle_obj = solve_qp_batch(K, y, C)
    for p in range(12):
        sol = solve_dual(K[p], y[p], float(C[p]), tol=1e-9)
        assert sol.objective == pytest.approx(float(oracle_obj[p]), abs=1e-7)


def test_objective_dominates_random_feasible_points():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = 7
        A = rng.standard_normal((n, n + 1))
        K = A @ A.T
        y = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
        C = 1.0
        sol = solve_dual(K, y, C, tol=1e-8)
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
        objs = [solve_dual(K, y, C).objective for C in (0.1, 1.0, 10.0)]
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
        sol = solve_dual(K, y, C, tol=tol)
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
        sol = solve_dual(K, y, C, tol=1e-8)
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
    cold = solve_dual(K, y, 1.0, tol=1e-8)
    warm = solve_dual(K, y, 1.0, tol=1e-8, warm_start=cold.alpha)
    assert warm.iterations == 0
    assert warm.objective == pytest.approx(cold.objective, abs=1e-10)
    # a feasible but non-optimal start still reaches the same objective
    third = solve_dual(K, y, 1.0, tol=1e-8, warm_start=np.zeros(n))
    assert third.objective == pytest.approx(cold.objective, abs=1e-8)
    with pytest.raises(ValueError):
        solve_dual(K, y, 1.0, warm_start=y * 0.5 + 0.5)  # violates equality constraint
    with pytest.raises(ValueError):
        solve_dual(K, y, 1.0, warm_start=np.zeros(n - 1))


def test_warm_start_after_small_kernel_change_needs_no_pair_update():
    # a Frank-Wolfe trial moves K a little and keeps the free set: the
    # Newton step at entry lands on the new optimum, so no pair update is made
    rng = np.random.default_rng(9)
    n, C, tol = 20, 1.0, 1e-6
    X = rng.standard_normal((n, 3))
    K = gram_matrix(KernelSpec("rbf", median_heuristic_gamma(X)), X)
    y = np.array([1.0, -1.0] * 10)
    start = solve_dual(K, y, C, tol=1e-12)
    u = rng.standard_normal(n)
    moved = K + 1e-3 * np.outer(u, u)
    cold = solve_dual(moved, y, C, tol=1e-12)

    def memberships(alpha):
        return alpha <= 1e-8 * C, alpha >= C - 1e-8 * C

    assert all(np.array_equal(a, b) for a, b in zip(memberships(start.alpha), memberships(cold.alpha)))
    assert np.sum(~np.logical_or(*memberships(start.alpha))) >= 2
    assert _violating_gap(moved, y, C, start.alpha) > 100 * tol
    warm = solve_dual(moved, y, C, tol=tol, warm_start=start.alpha)
    assert warm.iterations == 0
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
    assert_allclose(warm.alpha, cold.alpha, atol=1e-9)


def test_newton_step_waits_longer_after_a_large_free_set():
    # a step through the Cholesky factor on m free alphas costs about
    # m^3 / (100 n) pair updates, so the next step waits that long when it is
    # more than the usual 10
    rng = np.random.default_rng(10)
    n = 60
    X = rng.standard_normal((n, 3))
    K = gram_matrix(KernelSpec("rbf", median_heuristic_gamma(X)), X)
    y = np.array([1.0, -1.0] * 30)
    for free, wait in ((4, 10), (60, 60**3 // (100 * 60))):
        alpha = np.zeros(n)
        alpha[:free] = 0.5
        G = y - K @ (alpha * y)
        assert _free_set_step(K, y, 1.0, 1e-6, alpha, G) == wait


def _failing_cholesky(K):
    raise np.linalg.LinAlgError("forced")


@pytest.mark.parametrize("seed", range(6))
def test_cholesky_step_equals_min_norm_step_on_positive_definite_blocks(seed, monkeypatch):
    # on a positive definite free block the two solves of the bordered
    # system give one step, to the round-off of the block's condition
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 30))
    X = rng.standard_normal((m, 4))
    K_FF = gram_matrix(KernelSpec("rbf", median_heuristic_gamma(X)), X) if seed % 2 else X @ X.T + np.eye(m)
    G_F = rng.standard_normal(m)
    with mock.patch.object(np.linalg, "eigh", side_effect=np.linalg.eigh) as eigh:
        factored = _newton_direction(K_FF, G_F, 1e-6)
    assert eigh.call_count == 0 and factored[1:] == (1.0, True)
    monkeypatch.setattr(np.linalg, "cholesky", _failing_cholesky)
    min_norm = _newton_direction(K_FF, G_F, 1e-6)
    assert min_norm[1:] == (1.0, False)
    scale = float(np.abs(min_norm[0]).max())
    assert np.max(np.abs(factored[0] - min_norm[0])) <= 100 * np.finfo(float).eps * np.linalg.cond(K_FF) * scale
    # both solve the bordered system: K_FF delta = G_F - rho, 1'delta = 0
    delta = factored[0]
    residual = G_F - K_FF @ delta
    assert np.ptp(residual) <= 1e-9 * np.abs(G_F).max() and abs(delta.sum()) <= 1e-9 * scale


def test_singular_block_takes_min_norm_step_along_zero_curvature_ray():
    # a linear kernel on 8 points of 2 features: every free block of more
    # than 2 alphas is singular, so the step falls back to the
    # eigendecomposition, and the part of G_F in the null space of the
    # bordered matrix is a ray that runs to the box
    rng = np.random.default_rng(11)
    n, C = 8, 1.0
    X = rng.standard_normal((n, 2))
    K = gram_matrix(KernelSpec("linear"), X)
    y = np.array([1.0, -1.0] * 4)
    alpha = np.full(n, 0.5)
    G = y - K @ (alpha * y)
    delta, s_max, factored = _newton_direction(K, G, 1e-6)
    assert (s_max, factored) == (np.inf, False)
    assert np.max(np.abs(K @ delta)) <= 1e-12 * np.abs(K).max() * np.abs(delta).max()
    assert abs(delta.sum()) <= 1e-12 * np.abs(delta).max() and G @ delta > 0
    before = float(alpha.sum() - 0.5 * (alpha * y) @ K @ (alpha * y))
    with mock.patch.object(np.linalg, "eigh", side_effect=np.linalg.eigh) as eigh:
        _free_set_step(K, y, C, 1e-6, alpha, G)
    assert eigh.call_count == 1
    # the ray is cut only by the box: an alpha lands on a bound, the objective rises
    assert np.any((alpha <= 1e-12) | (alpha >= C - 1e-12)) and np.all((alpha >= 0.0) & (alpha <= C))
    after = float(alpha.sum() - 0.5 * (alpha * y) @ K @ (alpha * y))
    assert after > before
    assert np.allclose(G, y - K @ (alpha * y), atol=1e-12)


def test_guard_on_iteration_budget(monkeypatch):
    # a solve that reaches tol on its last allowed update succeeds
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([1.0, -1.0])
    monkeypatch.setattr(hfa.svm, "_update_budget", lambda n: 1)
    sol = solve_dual(K, y, 1.0, tol=1e-12)
    assert sol.iterations == 1
    # the message names the budget, n, tol and the gap left after the last update
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 3))
    K = np.exp(-0.5 * np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2))
    y = np.array([1.0, -1.0] * 10)
    monkeypatch.setattr(hfa.svm, "_update_budget", lambda n: 3)
    with pytest.raises(RuntimeError) as info:
        solve_dual(K, y, 1.0, tol=1e-6)
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
    cold = solve_dual(K, y, C, tol)
    warm_sol = solve_dual(K, y, C, tol, warm_start=warm)
    # recomputing G from alpha differs from SMO's running G by round-off only
    roundoff = 64 * np.finfo(float).eps * n * C * np.abs(K).max()
    for sol in (cold, warm_sol):
        assert np.all(sol.alpha >= 0.0) and np.all(sol.alpha <= C)
        assert abs(float(y @ sol.alpha)) <= 1e-8 * n * C
        assert _violating_gap(K, y, C, sol.alpha) <= tol + roundoff
    assert warm_sol.objective == pytest.approx(cold.objective, rel=1e-8)


@st.composite
def smo_cases(draw, n):
    """RBF, linear or rank-deficient Gram of order n, C in [1e-2, 1e2], and a
    cold start or a feasible warm start."""
    kind = draw(st.sampled_from(["rbf", "linear", "rank_deficient"]))
    C = 10.0 ** draw(st.floats(-2.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pos = draw(st.integers(1, n - 1))
    y = rng.permutation(np.r_[np.ones(n_pos), -np.ones(n - n_pos)])
    if kind == "rbf":
        X = rng.standard_normal((n, 3))
        K = gram_matrix(KernelSpec("rbf", median_heuristic_gamma(X)), X)
    elif kind == "linear":
        K = gram_matrix(KernelSpec("linear"), rng.standard_normal((n, 5)))
    else:
        A = rng.standard_normal((n, draw(st.integers(1, max(1, n // 2)))))
        K = A @ A.T
    warm = None
    if draw(st.booleans()):
        # alphas at 0, at C and inside the box; shrinking the side with the
        # larger sum makes y'alpha = 0 up to round-off
        warm = rng.uniform(0.0, C, n) * (rng.random(n) < 0.7)
        warm[rng.random(n) < 0.2] = C
        pos_sum, neg_sum = warm[y > 0].sum(), warm[y < 0].sum()
        if pos_sum > neg_sum:
            warm[y > 0] *= neg_sum / pos_sum
        elif neg_sum > 0.0:
            warm[y < 0] *= pos_sum / neg_sum
    return (K, y, C), warm


@st.composite
def smo_batches(draw):
    """25 smo_cases of one order n in [2, 40]: one oracle call solves them all,
    and an oracle iteration costs about the same for 1 problem or 25."""
    n = draw(st.integers(2, 40))
    return draw(st.lists(smo_cases(n), min_size=25, max_size=25))


@settings(max_examples=4, deadline=None)
@given(smo_batches())
def test_reaches_qp_optimum_within_default_budget(batch):
    # SMO with its free-set Newton steps meets its exit test inside the
    # default update budget, and no feasible point the independent QP
    # oracle finds beats its objective. The oracle is checked one-sided:
    # on large C it can stop short of the optimum by more than 1e-7.
    tol, objectives = 1e-9, []
    for (K, y, C), warm in batch:
        n = y.size
        sol = solve_dual(K, y, C, tol, warm_start=warm)
        roundoff = 64 * np.finfo(float).eps * n * C * np.abs(K).max()
        assert np.all(sol.alpha >= 0.0) and np.all(sol.alpha <= C)
        assert abs(float(y @ sol.alpha)) <= 1e-8 * n * C
        assert _violating_gap(K, y, C, sol.alpha) <= tol + roundoff
        objectives.append(sol.objective)
    K, y, C = (np.array(v) for v in zip(*(problem for problem, _ in batch)))
    _, oracle_obj = solve_qp_batch(K, y, C, max_iter=400)
    assert np.all(np.array(objectives) >= oracle_obj - 1e-7)
