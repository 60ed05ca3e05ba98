import numpy as np
import pytest
from numpy.testing import assert_allclose

from hfa.metric import (
    MetricFactors,
    TransformMetric,
    initial_metric,
)
from metric_oracle import (
    DenseMetric,
    LineSearchParams,
    lift_vector,
    line_search,
    optimize_metric,
    sdp_closed_form,
    sdp_gradient,
    sdp_objective,
    sdp_pgd_step,
)


def block_diag(A, B):
    n, m = A.shape[0], B.shape[0]
    out = np.zeros((n + m, n + m))
    out[:n, :n] = A
    out[n:, n:] = B
    return out


def random_factors(rng, ns, nt, order=None):
    A = rng.standard_normal((ns, ns + 2))
    B = rng.standard_normal((nt, nt + 2))
    base = block_diag(A @ A.T, B @ B.T)
    order = order if order is not None else ns + nt
    lift = rng.standard_normal((order, ns + nt))
    return MetricFactors(base=base, lift=lift, n_source=ns, n_target=nt)


def random_feasible_metric(rng, order, budget):
    A = rng.standard_normal((order, order))
    M = A @ A.T
    M *= rng.uniform(0.05, 1.0) * budget / np.trace(M)
    return DenseMetric(M, budget)


def random_factored_metric(rng, order, budget):
    """scale * I plus 0-4 atoms, at a random fraction of the budget."""
    k = int(rng.integers(0, 5))
    m = TransformMetric(order, budget, float(rng.uniform(0.1, 1.0)),
                        rng.standard_normal((k, order)), rng.uniform(0.0, 1.0, k))
    s = rng.uniform(0.05, 1.0) * budget / m.trace
    return TransformMetric(order, budget, s * m.scale, m.atoms, s * m.weights)


def test_transform_metric_validation():
    atoms, weights = np.array([[1.0, 2.0]]), np.array([0.5])
    for bad in (
        dict(order=0, atoms=np.empty((0, 0)), weights=np.empty(0)),
        dict(budget=0.0),
        dict(scale=-1e-3),
        dict(scale=np.nan),
        dict(atoms=np.ones((1, 3))),
        dict(weights=np.array([0.5, 0.5])),
        dict(weights=np.array([-0.5])),
        dict(atoms=np.array([[np.inf, 0.0]])),
    ):
        args = dict(order=2, budget=5.0, scale=0.25, atoms=atoms, weights=weights) | bad
        with pytest.raises(ValueError):
            TransformMetric(**args)
    m = TransformMetric(2, 5.0, 0.25, atoms, weights)
    assert_allclose(m.matrix, [[0.75, 1.0], [1.0, 2.25]], atol=0)
    assert m.trace == pytest.approx(3.0, rel=1e-15)
    v = np.array([1.0, -1.0])
    assert m.energy(v) == pytest.approx(1.0, rel=1e-15)
    assert_allclose(m.apply(v), [-0.25, -1.25], atol=1e-15)
    # gamma * H + delta * vv' appends one atom and rescales the rest
    u = m.rank1_update(0.5, 2.0, v)
    assert_allclose(u.matrix, 0.5 * m.matrix + 2.0 * np.outer(v, v), atol=1e-15)
    assert u.atoms.shape == (2, 2) and m.atoms.shape == (1, 2)
    with pytest.raises(ValueError):
        m.rank1_update(1.0, -1.0, v)


def test_is_feasible():
    assert TransformMetric(3, 4.0, 1.0, np.empty((0, 3)), np.empty(0)).is_feasible()
    assert not TransformMetric(3, 2.0, 1.0, np.empty((0, 3)), np.empty(0)).is_feasible()
    assert not TransformMetric(2, 4.0, 1.0, np.array([[1.0, 1.0]]), np.array([1.5])).is_feasible()
    # the budget check allows tol relative slack
    assert TransformMetric(1, 2.0, 2.0 * (1 + 1e-12), np.empty((0, 1)), np.empty(0)).is_feasible()


def test_initial_metric():
    m = initial_metric(5, 2.0)
    assert np.array_equal(m.matrix, np.eye(5) * 0.4)
    assert m.is_feasible()
    with pytest.raises(ValueError):
        initial_metric(0, 2.0)


def test_factors_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MetricFactors(base=np.eye(3), lift=np.eye(3), n_source=2, n_target=2)
    with pytest.raises(ValueError):
        MetricFactors(base=np.eye(4), lift=np.ones((4, 3)), n_source=2, n_target=2)
    f = random_factors(rng, 3, 2)
    assert f.n == 5 and f.metric_order == 5


def test_objective_explicit_formula():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = random_factors(rng, 3, 4)
        beta = rng.standard_normal(7)
        H = random_feasible_metric(rng, 7, 3.0)
        v = lift_vector(f, beta)
        expect = -0.5 * (beta @ f.base @ beta + v @ H.matrix @ v)
        assert sdp_objective(beta, H, f) == pytest.approx(expect, rel=1e-12)


def test_objective_trivial_cases():
    rng = np.random.default_rng(2)
    f = random_factors(rng, 2, 3)
    beta = rng.standard_normal(5)
    zero_H = DenseMetric(np.zeros((5, 5)), 1.0)
    assert sdp_objective(beta, zero_H, f) == pytest.approx(-0.5 * beta @ f.base @ beta, rel=1e-12)
    assert sdp_objective(np.zeros(5), random_feasible_metric(rng, 5, 1.0), f) == pytest.approx(0.0, abs=1e-15)


def central_fd(beta, H, f, i, j, h=1e-5):
    # symmetric entry pair perturbed together; equals (2 - delta_ij) * grad_ij
    E = np.zeros((H.order, H.order))
    E[i, j] = h
    E[j, i] = h
    up = sdp_objective(beta, DenseMetric(H.matrix + E, H.budget), f)
    dn = sdp_objective(beta, DenseMetric(H.matrix - E, H.budget), f)
    return (up - dn) / (2.0 * h)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ns, nt = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        f = random_factors(rng, ns, nt)
        beta = rng.standard_normal(ns + nt)
        H = random_feasible_metric(rng, ns + nt, 2.0)
        g = sdp_gradient(beta, f)
        # the objective is linear in H, so the only FD error is
        # cancellation noise at scale eps * |G| / (2h)
        noise = 1e-10 * (1.0 + abs(sdp_objective(beta, H, f)))
        for _ in range(5):
            i, j = rng.integers(0, ns + nt, size=2)
            fd = central_fd(beta, H, f, int(i), int(j))
            factor = 1.0 if i == j else 2.0
            assert fd == pytest.approx(factor * g[i, j], rel=1e-5, abs=noise)


def test_gradient_structure():
    rng = np.random.default_rng(4)
    f = random_factors(rng, 3, 3)
    beta = rng.standard_normal(6)
    g = sdp_gradient(beta, f)
    v = lift_vector(f, beta)
    assert_allclose(g, -0.5 * np.outer(v, v), atol=1e-14)
    assert np.linalg.matrix_rank(g, tol=1e-10) <= 1
    assert np.trace(g) == pytest.approx(-0.5 * v @ v, rel=1e-12)
    assert np.array_equal(sdp_gradient(np.zeros(6), f), np.zeros((6, 6)))


def test_closed_form_examples():
    f = MetricFactors(base=np.eye(3), lift=np.eye(3), n_source=2, n_target=1)
    # v = e1
    m = sdp_closed_form(np.array([1.0, 0.0, 0.0]), 2.0, f)
    assert_allclose(m.matrix, np.diag([2.0, 0.0, 0.0]), atol=1e-15)

    f2 = MetricFactors(base=np.eye(2), lift=np.eye(2), n_source=1, n_target=1)
    m2 = sdp_closed_form(np.array([1.0, 1.0]), 1.0, f2)
    assert_allclose(m2.matrix, np.full((2, 2), 0.5), atol=1e-15)

    z = sdp_closed_form(np.zeros(2), 1.0, f2)
    assert np.array_equal(z.matrix, np.zeros((2, 2)))


def test_closed_form_beats_random_feasible_points():
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = random_factors(rng, 3, 4)
        beta = rng.standard_normal(7)
        budget = float(rng.uniform(0.5, 4.0))
        star = sdp_closed_form(beta, budget, f)
        assert star.is_feasible(1e-10)
        assert star.trace == pytest.approx(budget, rel=1e-12)
        f_star = sdp_objective(beta, star, f)
        for _ in range(100):
            cand = random_feasible_metric(rng, 7, budget)
            assert f_star <= sdp_objective(beta, cand, f) + 1e-10


def test_pgd_step_zero_gradient_fixed_point():
    rng = np.random.default_rng(6)
    f = random_factors(rng, 2, 2)
    H = random_feasible_metric(rng, 4, 2.0)
    out = sdp_pgd_step(H, np.zeros(4), 0.7, f)
    assert np.array_equal(out.matrix, H.matrix)


def test_pgd_step_from_zero_matches_closed_form_direction():
    rng = np.random.default_rng(7)
    f = random_factors(rng, 3, 2)
    beta = rng.standard_normal(5)
    H0 = DenseMetric(np.zeros((5, 5)), 1.5)
    out = sdp_pgd_step(H0, beta, 1e6, f)
    star = sdp_closed_form(beta, 1.5, f)
    assert_allclose(out.matrix, star.matrix, atol=1e-8 * star.trace)


def test_pgd_step_stays_feasible():
    rng = np.random.default_rng(8)
    f = random_factors(rng, 4, 3)
    beta = rng.standard_normal(7)
    H = initial_metric(7, 2.0)
    for eta in (1e-4, 0.1, 3.0, 250.0):
        H = sdp_pgd_step(H, beta, eta, f)
        assert H.is_feasible(1e-10)


def test_line_search_decrease_and_projection_free_value():
    rng = np.random.default_rng(9)
    for _ in range(10):
        f = random_factors(rng, 3, 3)
        beta = rng.standard_normal(6)
        budget = 8.0
        # small trace keeps the first candidate strictly inside the cap
        H = DenseMetric(np.eye(6) * (budget / 32.0), budget)
        g = sdp_gradient(beta, f)
        eta, stalled = line_search(H, beta, g, f)
        assert not stalled
        after = sdp_pgd_step(H, beta, eta, f)
        drop = sdp_objective(beta, H, f) - sdp_objective(beta, after, f)
        v = lift_vector(f, beta)
        # objective is linear along the step, so the decrease is exactly
        # eta * <g, g> = eta * ||v||^4 / 4 while the projection is inactive
        expect = eta * 0.25 * float(v @ v) ** 2
        cap_active = after.trace >= budget * (1 - 1e-9)
        if not cap_active:
            assert drop == pytest.approx(expect, rel=1e-10)
        assert drop > 0


def test_line_search_monotone_objective():
    rng = np.random.default_rng(10)
    f = random_factors(rng, 4, 4)
    beta = rng.standard_normal(8)
    H = initial_metric(8, 3.0)
    g = sdp_gradient(beta, f)
    prev = sdp_objective(beta, H, f)
    for _ in range(20):
        eta, stalled = line_search(H, beta, g, f)
        if stalled:
            break
        H = sdp_pgd_step(H, beta, eta, f)
        cur = sdp_objective(beta, H, f)
        assert cur <= prev + 1e-12
        prev = cur


def test_line_search_stalls_at_optimum():
    rng = np.random.default_rng(11)
    f = random_factors(rng, 3, 2)
    beta = rng.standard_normal(5)
    star = sdp_closed_form(beta, 2.0, f)
    g = sdp_gradient(beta, f)
    eta, stalled = line_search(star, beta, g, f)
    assert stalled
    assert eta == LineSearchParams().eta_min
    with pytest.raises(ValueError):
        line_search(star, np.zeros(5), np.zeros((5, 5)), f)


def test_repeated_steps_reach_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(5):
        ns, nt = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        f = random_factors(rng, ns, nt)
        beta = rng.standard_normal(ns + nt)
        budget = float(rng.uniform(0.5, 3.0))
        H = initial_metric(ns + nt, budget)
        target = sdp_objective(beta, sdp_closed_form(beta, budget, f), f)
        g = sdp_gradient(beta, f)
        steps = 0
        for steps in range(1, 501):
            eta, stalled = line_search(H, beta, g, f)
            if stalled:
                break
            H = sdp_pgd_step(H, beta, eta, f)
            if abs(sdp_objective(beta, H, f) - target) <= 1e-4 * abs(target):
                break
        assert abs(sdp_objective(beta, H, f) - target) <= 1e-4 * abs(target)
        assert steps < 500


def test_optimize_metric_matches_manual_loop():
    rng = np.random.default_rng(13)
    f = random_factors(rng, 3, 4)
    beta = rng.standard_normal(7)
    H0 = initial_metric(7, 2.5)

    manual = H0
    g = sdp_gradient(beta, f)
    for _ in range(6):
        eta, stalled = line_search(manual, beta, g, f)
        if stalled:
            break
        manual = sdp_pgd_step(manual, beta, eta, f)

    out = optimize_metric(H0, beta, f, steps=6)
    assert_allclose(out.matrix, manual.matrix, atol=1e-12)
    # zero gradient leaves the metric untouched
    same = optimize_metric(H0, np.zeros(7), f, steps=6)
    assert np.array_equal(same.matrix, H0.matrix)


def test_frank_wolfe_vertex_matches_closed_form():
    # a full Frank-Wolfe step (t = 1) from any feasible metric lands on the
    # rank-1 vertex budget * hh', the exact minimizer of the subproblem
    rng = np.random.default_rng(14)
    for trial in range(12):
        ns, nt = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        n = ns + nt
        f = random_factors(rng, ns, nt)
        beta = rng.standard_normal(n)
        budget = float(rng.uniform(0.5, 3.0))
        H0 = initial_metric(n, budget) if trial < 3 else random_factored_metric(rng, n, budget)
        v = lift_vector(f, beta)
        vertex = H0.rank1_update(0.0, budget, v / np.linalg.norm(v))
        ref = sdp_closed_form(beta, budget, f)
        assert_allclose(vertex.matrix, ref.matrix, rtol=0, atol=1e-12 * max(1.0, budget))
        assert vertex.trace == pytest.approx(budget, rel=1e-12)
