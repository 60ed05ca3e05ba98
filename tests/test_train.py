"""Alternating trainer, predictors and cross-path agreement."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hfa.evaluate
import hfa.svm
from hfa.core import HfaConfig
from hfa.data import Dataset, SyntheticSpec, generate_synthetic, sample_protocol
from hfa.evaluate import hfa_train, prepare_kernels
from hfa.svm import DegenerateProblemError, solve_dual
from gram_oracle import symmetrize
from linear_oracle import block_gram, build_KH_kernelized, hfa_train_linear, linear_factors
from metric_oracle import DenseMetric, gram_root, lifted, psd_project, trace_cap


def binary_pair(seed=0, n_s=25, n_t=8, d_s=6, d_t=4):
    """Small labeled source/target pair with +-1 labels and real structure."""
    rng = np.random.default_rng(seed)
    A_s = rng.standard_normal((d_s, 2))
    A_t = rng.standard_normal((d_t, 2))
    mu = rng.standard_normal((2, 2)) * 2.0

    def draw(A, n, d):
        y = rng.integers(0, 2, size=n)
        z = mu[y] + 0.7 * rng.standard_normal((n, 2))
        X = z @ A.T + 0.3 * rng.standard_normal((n, d))
        return X, np.where(y == 1, 1, -1)

    Xs, ys = draw(A_s, n_s, d_s)
    Xt, yt = draw(A_t, n_t, d_t)
    return Dataset(Xs, ys), Dataset(Xt, yt)


def test_tiny_budget_reduces_to_uncoupled_svm():
    source, target = binary_pair(seed=1)
    cfg = HfaConfig(C=1.0, lam=1e-12, kernel_family="rbf", t_max=5)
    pk = prepare_kernels(source.X, target.X, cfg)
    model = hfa_train(source, target, cfg, kernels=pk)
    y = np.concatenate([source.y, target.y]).astype(float)
    ref = solve_dual(block_gram(pk), y, cfg.C, tol=1e-9)
    assert np.isclose(model.objective_trace[-1], ref.objective, rtol=1e-6)


def test_metric_stays_feasible_every_iteration():
    source, target = binary_pair(seed=2)
    seen = []

    def monitor(it, metric, sol):
        seen.append((it, metric, sol.objective))

    cfg = HfaConfig(C=10.0, lam=2.0, t_max=30, conv_tol=1e-7)
    model = hfa_train(source, target, cfg, monitor=monitor)
    assert len(seen) == len(model.objective_trace)
    assert [it for it, _, _ in seen] == list(range(len(seen)))
    lift = gram_root(block_gram(prepare_kernels(source.X, target.X, cfg)))
    for _, metric, obj in seen:
        t = metric.trace
        eigs = np.linalg.eigvalsh(lifted(metric, lift).matrix)
        assert eigs[0] >= -1e-10 * max(t, 1.0)
        assert t <= cfg.lam * (1.0 + 1e-10)
    assert np.allclose([o for _, _, o in seen], model.objective_trace)


@st.composite
def small_binary_problems(draw):
    """A random binary source/target pair, a path (rbf, linear kernel or the
    explicit linear path) and a config with lam and C over four decades."""
    n_s, n_t = draw(st.integers(2, 12)), draw(st.integers(2, 8))
    d_s, d_t = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.permutation(np.r_[1, -1, np.where(rng.random(n_s + n_t - 2) < 0.5, 1, -1)])
    source = Dataset(rng.standard_normal((n_s, d_s)) * draw(st.sampled_from([0.1, 1.0, 10.0])), y[:n_s])
    target = Dataset(rng.standard_normal((n_t, d_t)), y[n_s:])
    path = draw(st.sampled_from(["rbf", "linear", "explicit"]))
    cfg = HfaConfig(C=10.0 ** draw(st.floats(-1.0, 1.0)), lam=10.0 ** draw(st.floats(-2.0, 2.0)),
                    kernel_family="rbf" if path == "rbf" else "linear", t_max=15)
    probe = rng.standard_normal(d_s + d_t if path == "explicit" else n_s + n_t)
    return source, target, path, cfg, probe


@settings(max_examples=60, deadline=None)
@given(small_binary_problems())
def test_metric_feasible_along_alternation(problem):
    # every metric the monitor sees is PSD by its factors and within the
    # budget, its factor formulas match its dense matrix, and every working
    # kernel handed to the dual solver, which does not scan it, is finite and
    # exactly symmetric
    source, target, path, cfg, probe = problem
    kernels, steps = [], []
    # the trainer's F, which is also M, a lift L with L'L = M built here, and
    # the probe in dual coordinates
    if path == "explicit":
        base, lift = linear_factors(source.X.T, target.X.T)
    else:
        base = block_gram(prepare_kernels(source.X, target.X, cfg))
        lift = gram_root(base)
    norm_M = np.linalg.norm(base, 2)
    dual = lift.T @ probe

    def record(K, *args, **kwargs):
        kernels.append(np.array(K))
        return solve_dual(K, *args, **kwargs)

    def monitor(it, metric, step):
        steps.append(step)
        assert metric.scale >= 0 and np.all(metric.weights > 0)
        t = metric.trace
        assert t <= cfg.lam * (1.0 + 1e-12)
        # every atom c is a unit vector L c (c'Mc = 1), which the trace formula
        # assumes; a quadratic form in dual coordinates rounds at the scale
        # ||M|| |c|^2, large where c lies mostly in directions M cuts
        C = metric.atoms
        rounding = np.maximum(1.0, norm_M * np.einsum("ij,ij->i", C, C))
        assert np.all(np.abs(np.einsum("ij,ij->i", C @ base, C) - 1.0) <= 1e-12 * rounding)
        assert np.linalg.eigvalsh(lifted(metric, lift).matrix)[0] >= -1e-10 * t
        # L'HL = scale M + (M C')W(C M) is what the metric adds to the working
        # kernel, and ||L'HL|| <= ||M|| trace(H) sets the scale of both products
        U = base @ C.T
        coupling = metric.scale * base + (U * metric.weights) @ U.T
        norm = float(np.linalg.norm(dual))
        assert abs(metric.energy(dual, base @ dual) - dual @ coupling @ dual) <= 1e-12 * t * norm_M * norm**2
        assert np.max(np.abs(base @ metric.apply(dual, base @ dual) - coupling @ dual)) <= 1e-12 * t * norm_M * norm

    with mock.patch.object(hfa.evaluate, "solve_dual", record):
        train = hfa_train_linear if path == "explicit" else hfa_train
        model = train(source, target, cfg, monitor=monitor)
    # one solve per accepted step plus at most one more line-search trial,
    # and one per halved step
    trace = model.objective_trace
    halvings = sum(len(step.halved) for step in steps)
    assert len(trace) <= len(kernels) <= 2 * len(trace) - 1 + halvings
    assert all(np.array_equal(K, K.T) and np.all(np.isfinite(K)) for K in kernels)

    # the saddle-gap certificate on the same run: the objective never rises
    # and falls at every step that starts above conv_tol, the gap is
    # nonnegative, a run that stops early has met conv_tol on both the gap
    # and its last change, and P * (1 - gap) is a real lower bound: no
    # feasible metric has a smaller dual optimum
    gap = model.saddle_gap
    # per-iteration (objective, gap) as the monitor sees them
    logged = [(step.objective, step.gap) for step in steps]
    assert [obj for obj, _ in logged] == list(trace) and logged[-1][1] == gap
    scale = max(abs(trace[-1]), 1e-12)
    assert np.all(np.diff(trace) <= 1e-12 * scale)
    assert all(g >= -1e-9 for _, g in logged)
    assert all(trace[k + 1] < trace[k] for k, (_, g) in enumerate(logged[:-1]) if g > cfg.conv_tol)
    if len(trace) < cfg.t_max:
        assert gap <= cfg.conv_tol
        assert abs(trace[-1] - trace[-2]) <= cfg.conv_tol * max(abs(trace[-2]), 1e-12)
    bound = trace[-1] * (1.0 - gap)
    y = np.concatenate([source.y, target.y]).astype(float)
    p = lift.shape[0]
    rng = np.random.default_rng(len(source) * 100 + len(target))
    for _ in range(5):
        A = rng.standard_normal((p, p)) * 10.0 ** rng.uniform(-2, 2)
        H = DenseMetric(trace_cap(psd_project(A + A.T), cfg.lam), cfg.lam)
        K = symmetrize(base + lift.T @ H.matrix @ lift)
        try:
            with mock.patch.object(hfa.svm, "_update_budget", lambda n: 20_000):
                P_H = solve_dual(K, y, cfg.C, tol=1e-8, warm_start=model.beta * y).objective
        except RuntimeError:
            # SMO can crawl on badly scaled low-rank linear kernels (README,
            # practical notes); the trained alpha's value under H is still a
            # lower estimate of P(H), so the assertion stays sound
            P_H = float(np.sum(np.abs(model.beta)) - 0.5 * model.beta @ K @ model.beta)
        assert bound <= P_H + 1e-9 * scale


# Two draws of small_binary_problems, as the failing runs under
# --hypothesis-seed=13 and 38 printed them (8 significant digits). The cold
# first solve in _alternate is a badly scaled, rank-deficient linear-kernel
# dual on which pair updates alone zigzag past SMO's update budget; they
# run the property test's checks on the path the free-set Newton steps in
# solve_dual take.
def test_metric_feasible_along_alternation_seed_13():
    source = Dataset(np.array([
        [4.10513909e+00, 6.08383639e+00, -7.05943312e+00, -1.16587850e+00, 7.24191291e+00],
        [-9.45475096e+00, -2.46434836e-01, 1.99982649e+00, 6.29595845e+00, 7.50071056e+00],
        [-6.45575923e+00, 5.51368163e+00, -1.39135650e+01, 2.44846003e+00, 3.73834210e+00],
        [-1.07628200e+01, -2.78326425e-01, 8.81866163e+00, 5.01273068e+00, -1.07557465e+01],
        [-1.62729008e+01, 1.16417862e+01, 2.44249688e+00, 1.59075061e+01, 2.37120079e+01],
        [-2.14385139e+01, -1.33325149e+00, -5.70675771e+00, -1.97510950e+00, 1.07121828e+01],
        [-1.78844949e-02, -6.14760470e+00, -6.79571593e+00, 1.82699624e+01, 9.00986016e+00],
        [-9.89061551e+00, 5.04954958e+00, 2.88920078e+00, -1.08101006e+01, -8.69759898e+00],
        [7.86051239e+00, 3.06258657e+00, -8.09229201e+00, -1.32395472e+01, 2.32414417e+01],
        [-2.83345072e+00, 2.60215174e+00, -1.68112616e+01, 2.71494828e+01, 7.98261990e+00],
    ]), np.array([1, -1, -1, 1, -1, 1, 1, 1, 1, 1]))
    target = Dataset(np.array([[-0.0409109], [-0.19416863], [0.67579045], [0.0444809],
                                         [-1.07270852], [-0.24105572], [0.17661461]]),
                     np.array([-1, 1, 1, -1, 1, -1, 1]))
    cfg = HfaConfig(C=1.0, lam=100.0, kernel_family="linear", t_max=15)
    probe = np.array([-0.99289483, -0.01420037, -2.14739941, 0.81750552, 0.93232237,
                      -1.0526965, -0.93276711, -0.06313632, -1.37074328, -0.66583015,
                      0.17475405, 0.45529591, 1.10496892, -0.67464655, -0.78214599,
                      0.12136118, -0.95541617])
    test_metric_feasible_along_alternation.hypothesis.inner_test((source, target, "linear", cfg, probe))


def test_metric_feasible_along_alternation_seed_38():
    source = Dataset(np.array([[-7.69521347], [-4.51747758], [10.16091883], [-0.67946039],
                                         [-17.61562177], [17.54595222], [15.25313012], [-3.93086112]]),
                     np.array([-1, 1, 1, 1, -1, 1, -1, 1]))
    target = Dataset(np.array([[0.59876858], [0.97675364]]), np.array([-1, -1]))
    cfg = HfaConfig(C=10.0, lam=100.0, kernel_family="linear", t_max=15)
    probe = np.array([-1.64876429, -2.1568037])
    test_metric_feasible_along_alternation.hypothesis.inner_test((source, target, "explicit", cfg, probe))


def test_metric_feasible_along_alternation_null_direction():
    # a draw (at full precision; rounded to 8 digits it passes) whose every
    # dual solution has beta'M beta about 5e-19 of its round-off scale
    # (|beta|' sqrt(diag M))^2: v = L beta is round-off, and normalizing it
    # to c'Mc = 1 made an atom of norm 1.3e7 whose energy the factors no
    # longer reproduce
    source = Dataset(np.array([
        [-18.110184472131298, -1.06124173609212], [5.360219604277255, 7.541668372340158],
        [-16.487296810787853, 8.186445415747638], [0.3503304412628711, -3.8150978408386726],
        [8.254798404489339, 13.759146839216822], [-5.997114143740962, 4.63780788824274],
        [-11.392401533271556, -1.8897380315285357], [-4.723821316927237, 5.194484197145202],
        [10.935830296118631, 19.338008045180914], [-7.2289780221379, -2.911653975575237],
        [-12.002183868922936, 5.441642478788648],
    ]), np.array([1, -1, -1, -1, -1, -1, -1, -1, 1, 1, 1]))
    target = Dataset(np.array([[-0.4681259541616219], [-0.7053482043788261]]), np.array([-1, -1]))
    cfg = HfaConfig(C=1.0, lam=1.0, kernel_family="linear", t_max=15)
    probe = np.array([-1.494523220658971, -0.1438329688327683, 0.601790036535786, -0.6452583604114266,
                      -0.25315209669956973, 0.11734009805730006, -1.041910118774318, -1.354767205468071,
                      1.2342013502370197, 0.49437122454214105, 0.1637641422529544, 0.5832364900395721,
                      0.6684514794522258])
    test_metric_feasible_along_alternation.hypothesis.inner_test((source, target, "linear", cfg, probe))


def test_halving_loop_ends_when_every_trial_raises_the_objective():
    # a solver whose warm-started trials all report an objective above the
    # accepted one: the step is halved _MAX_HALVINGS times, then taken as
    # t = 0 (solution and metric kept), and the alternation ends there
    source, target = binary_pair(seed=4)
    cfg = HfaConfig(C=1.0, lam=1.0, t_max=50, conv_tol=1e-12)
    calls, steps = [], []

    def higher(K, y, C, warm_start=None):
        calls.append(warm_start is not None)
        sol = solve_dual(K, y, C, warm_start=warm_start)
        return sol if warm_start is None else replace(sol, objective=sol.objective + 1e6)

    with mock.patch.object(hfa.evaluate, "solve_dual", higher):
        model = hfa_train(source, target, cfg, monitor=lambda it, metric, step: steps.append((metric, step)))
    (metric_0, step_0), (metric_1, step_1) = steps
    assert step_0.halved == ()
    halved = step_1.halved
    assert len(halved) == hfa.evaluate._MAX_HALVINGS and halved[0] <= 0.5
    assert all(b == a / 2 for a, b in zip(halved, halved[1:]))
    # the t = 1 trial, at most one secant trial, then one trial per halving
    assert calls[0] is False and all(calls[1:])
    assert len(halved) + 1 <= len(calls) - 1 <= len(halved) + 2
    assert metric_1 is metric_0 and metric_0.atoms.shape[0] == 0
    assert np.array_equal(step_1.alpha, step_0.alpha) and list(model.objective_trace) == [step_0.objective] * 2
    assert model.saddle_gap == step_1.gap


@settings(max_examples=60, deadline=None)
@given(small_binary_problems())
def test_working_kernel_is_the_metric_kernel(problem):
    # the trainer steps the working kernel itself, K <- (1-t)K + tV, and never
    # forms L'HL; every kernel that produced an accepted solution equals
    # F + L'HL = F + scale F + (F C')W(C F) of the metric the monitor sees
    # with that solution, up to round-off
    source, target, path, cfg, _ = problem
    if path == "explicit":
        F = linear_factors(source.X.T, target.X.T)[0]
    else:
        F = block_gram(prepare_kernels(source.X, target.X, cfg))
    solved, checked = {}, []

    def record(K, *args, **kwargs):
        sol = solve_dual(K, *args, **kwargs)
        solved[id(sol.alpha)] = (sol.alpha, np.array(K))
        return sol

    def monitor(it, metric, step):
        alpha, K = solved[id(step.alpha)]
        assert alpha is step.alpha
        C, w = metric.atoms, metric.weights
        U = F @ C.T
        want = F + metric.scale * F + (U * w) @ U.T
        # Round-off bound. Every working kernel's entries are at most
        # max|F| (1 + lam), as |L'HL|_ij <= sqrt(F_ii F_jj) trace(H), and
        # each of the it + 1 accepted steps rounds each entry a few times
        # (the products and the sum of (1-t)K + tV). u = F c, here and in the
        # trainer (blockwise), rounds at n eps |F||c|, which is far above |u|
        # where c lies mostly in directions F cuts (linear kernel, n > d);
        # its product lam uu' carries that into the entries at the weight the
        # atom holds now. 2,500 drawn problems came within 0.99 of one eps
        # times this scale; the bound allows 8.
        A = np.abs(F) @ np.abs(C.T)
        scale = (it + 1) * np.max(np.abs(F)) * (1.0 + cfg.lam)
        scale += len(F) * float(w @ np.max(A, axis=0, initial=0.0) ** 2)
        assert np.max(np.abs(K - want)) <= 8 * np.finfo(float).eps * scale
        checked.append(it)

    with mock.patch.object(hfa.evaluate, "solve_dual", record):
        train = hfa_train_linear if path == "explicit" else hfa_train
        model = train(source, target, cfg, monitor=monitor)
    assert checked == list(range(len(model.objective_trace)))


def test_training_is_deterministic():
    source, target = binary_pair(seed=3)
    cfg = HfaConfig(C=2.0, lam=1.0, t_max=15)
    a = hfa_train(source, target, cfg)
    b = hfa_train(source, target, cfg)
    assert np.array_equal(a.beta, b.beta)
    assert all(np.array_equal(getattr(a.metric, k), getattr(b.metric, k)) for k in ("scale", "atoms", "weights"))
    assert a.bias == b.bias


def test_prediction_consistent_with_working_kernel():
    # target training rows must score exactly as the dual expansion says
    for seed in range(4):
        source, target = binary_pair(seed=seed, n_t=10)
        cfg = HfaConfig(C=1.0, lam=1.0, t_max=20)
        pk = prepare_kernels(source.X, target.X, cfg)
        model = hfa_train(source, target, cfg, kernels=pk)
        KH = build_KH_kernelized(pk, model.metric)
        expansion = KH @ model.beta + model.bias
        n_s = len(source)
        for j in range(len(target)):
            assert np.isclose(model.decision_function(target.X[j][None, :])[0], expansion[n_s + j], atol=1e-8)


def test_shared_kernels_match_per_model_preparation():
    source, target = binary_pair(seed=5)
    cfg = HfaConfig(C=1.0, lam=1.0, t_max=10)
    pk = prepare_kernels(source.X, target.X, cfg)
    a = hfa_train(source, target, cfg, kernels=pk)
    b = hfa_train(source, target, cfg)
    assert np.array_equal(a.beta, b.beta)
    assert all(np.array_equal(getattr(a.metric, k), getattr(b.metric, k)) for k in ("scale", "atoms", "weights"))


def test_shared_kernels_size_mismatch():
    source, target = binary_pair(seed=6)
    cfg = HfaConfig()
    pk = prepare_kernels(source.X[:-1], target.X, cfg)
    with pytest.raises(ValueError, match="sample counts"):
        hfa_train(source, target, cfg, kernels=pk)
    # the same total count, split one row earlier
    pk = prepare_kernels(source.X[:-1], np.vstack([target.X, target.X[:1]]), cfg)
    with pytest.raises(ValueError, match="sample counts"):
        hfa_train(source, target, cfg, kernels=pk)


def test_label_validation():
    source, target = binary_pair(seed=7)
    zero_one = Dataset(source.X, np.where(source.y > 0, 1, 0))
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        hfa_train(zero_one, target, HfaConfig())
    all_pos = Dataset(source.X, np.ones(len(source), dtype=int))
    pos_t = Dataset(target.X, np.ones(len(target), dtype=int))
    with pytest.raises(DegenerateProblemError):
        hfa_train(all_pos, pos_t, HfaConfig())


def test_converges_on_separable_synthetic():
    spec = SyntheticSpec(latent_dim=3, num_classes=2, d_s=10, d_t=8,
                         source_per_class=30, target_per_class=8, seed=1)
    src, tgt = generate_synthetic(spec)
    source = src.binary_view(1)
    target = tgt.binary_view(1)
    cfg = HfaConfig()
    model = hfa_train(source, target, cfg)
    assert len(model.objective_trace) < cfg.t_max
    assert np.all(np.isfinite(model.objective_trace))


def test_linear_and_kernelized_objectives_agree():
    # linear kernel, more features than samples, strictly PD Grams
    rng = np.random.default_rng(21)
    for trial in range(4):
        n_s, n_t, d_s, d_t = 10, 5, 14, 9
        source = Dataset(rng.standard_normal((n_s, d_s)),
                         np.sign(rng.standard_normal(n_s)).astype(int))
        target = Dataset(rng.standard_normal((n_t, d_t)),
                         np.sign(rng.standard_normal(n_t)).astype(int))
        if abs(int(np.sum(source.y)) + int(np.sum(target.y))) == n_s + n_t:
            continue
        cfg = HfaConfig(C=1.0, lam=1.0, kernel_family="linear", t_max=400, conv_tol=1e-11)
        kern = hfa_train(source, target, cfg, kernels=prepare_kernels(source.X, target.X, cfg))
        lin = hfa_train_linear(source, target, cfg)
        a, b = kern.objective_trace[-1], lin.objective_trace[-1]
        assert abs(a - b) <= 1e-3 * max(abs(a), abs(b))


def test_linear_decision_matches_cross_kernel_expansion():
    source, target = binary_pair(seed=9, n_s=12, n_t=6)
    cfg = HfaConfig(C=1.0, lam=1.5, kernel_family="linear", t_max=20)
    model = hfa_train_linear(source, target, cfg)
    H = lifted(model.metric, linear_factors(source.X.T, target.X.T)[1]).matrix
    d_s = source.dim
    rng = np.random.default_rng(0)
    X_new = rng.standard_normal((5, target.dim))
    got = model.decision_function(X_new)
    for r, x in enumerate(X_new):
        f = model.bias
        for i in range(len(source)):
            f += model.beta[i] * (source.X[i] @ H[:d_s, d_s:] @ x)
        for j in range(len(target)):
            k = target.X[j] @ x + target.X[j] @ H[d_s:, d_s:] @ x
            f += model.beta[len(source) + j] * k
        assert np.isclose(got[r], f, atol=1e-9)


def test_decision_function_shape_errors():
    source, target = binary_pair(seed=10)
    model = hfa_train(source, target, HfaConfig(t_max=5))
    x = target.X[0]
    assert np.array_equal(model.decision_function(x), model.decision_function(x[None, :]))
    with pytest.raises(ValueError, match="dimension"):
        model.decision_function(np.zeros(target.dim + 1))
    with pytest.raises(ValueError, match="dimension"):
        model.decision_function(np.zeros((2, target.dim + 2)))
    assert model.decision_function(np.empty((0, target.dim))).size == 0


@pytest.mark.parametrize("family", ["linear", "rbf"])
def test_decision_function_of_no_rows(family):
    # cross_gram returns an (n_t, 0) block, which scores to shape (0,)
    source, target = binary_pair(seed=10)
    model = hfa_train(source, target, HfaConfig(kernel_family=family, t_max=5))
    scores = model.decision_function(target.X[:0])
    assert scores.shape == (0,) and scores.dtype == np.float64


def test_objective_trace_starts_at_uncoupled_budget_spread():
    # iteration 0 solves with the scaled-identity metric, not a zero metric
    source, target = binary_pair(seed=12)
    cfg = HfaConfig(C=1.0, lam=1.0, t_max=1)
    pk = prepare_kernels(source.X, target.X, cfg)
    model = hfa_train(source, target, cfg, kernels=pk)
    n = len(source) + len(target)
    F = block_gram(pk)
    S = gram_root(F)
    K0 = symmetrize(F + (cfg.lam / n) * S @ S)
    y = np.concatenate([source.y, target.y]).astype(float)
    ref = solve_dual(K0, y, cfg.C, tol=1e-8)
    assert np.isclose(model.objective_trace[0], ref.objective, rtol=1e-5)


@pytest.mark.parametrize("family", ["rbf", "linear"])
def test_learned_atoms_are_unit_and_weighted(family):
    # every atom c the trainer keeps has lifted norm ||L c||^2 = c'Mc = 1,
    # so trace = scale * order + sum(weights) is checked rather than
    # assumed, and weighs above 0 (a full step drops the atoms before it);
    # the linear Grams (n > d) have cut directions
    source, pool = generate_synthetic(SyntheticSpec(source_per_class=20))
    target, _ = sample_protocol(pool, 5, seed=0)
    cfg = HfaConfig(kernel_family=family)
    pk = prepare_kernels(source.X, target.X, cfg)
    F = block_gram(pk)
    for c in range(6):
        metric = hfa_train(source.binary_view(c), target.binary_view(c), cfg, kernels=pk).metric
        C = metric.atoms
        assert len(C) >= 1 and np.all(metric.weights > 0)
        assert np.max(np.abs(np.einsum("ij,ij->i", C @ F, C) - 1.0)) <= 1e-12
