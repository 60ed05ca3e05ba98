"""Multiclass wrapping, accuracy, baseline, and experiment-runner tests."""

import tracemalloc

import numpy as np
import pytest

import hfa.core
from hfa import evaluate
from hfa.core import HfaConfig, KernelExpansion
from hfa.data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    sample_protocol,
    standardize_apply,
    standardize_pair,
)
from hfa.evaluate import (
    ExperimentReport,
    _domain_gram,
    accuracy,
    decision_matrix,
    hfa_train,
    prepare_kernels,
    render_report,
    run_experiment,
    svm_t_baseline,
    train_multiclass,
)
from hfa.linalg import KernelSpec, cross_gram
from hfa.svm import solve_dual
from gram_oracle import gram_matrix


def constant_model(score, dim=3):
    """A KernelExpansion scoring every row `score`: one zero coefficient over one stored row."""
    return KernelExpansion(np.zeros((1, dim)), KernelSpec("linear"), np.zeros(1), score)


def tiny_pools(seed=3, num_classes=3):
    spec = SyntheticSpec(latent_dim=3, num_classes=num_classes, d_s=8, d_t=6,
                         source_per_class=12, target_per_class=8, seed=seed)
    return generate_synthetic(spec)


FAST = HfaConfig(t_max=4)


def test_model_count_equals_class_count():
    source, target = tiny_pools()
    models = train_multiclass(source, target, FAST)
    assert [c for c, _ in models] == [0, 1, 2]


def test_two_class_decisions_near_negations():
    source, target = tiny_pools(seed=5, num_classes=2)
    models = train_multiclass(source, target, FAST)
    _, scores = decision_matrix(models, target.X)
    # one-vs-rest with complementary labels: signs should anti-agree
    anti = np.mean(np.sign(scores[:, 0]) != np.sign(scores[:, 1]))
    assert anti > 0.9


def test_decision_matrix_builds_one_kernel_block_per_set(monkeypatch):
    source, target = tiny_pools()
    hfa_models = train_multiclass(source, target, FAST)
    base_models = svm_t_baseline(target, FAST)
    X = tiny_pools(seed=9)[1].X
    blocks = []
    real = hfa.core.cross_gram
    monkeypatch.setattr(hfa.core, "cross_gram", lambda *a: blocks.append(a) or real(*a))
    for models in (hfa_models, base_models):
        blocks.clear()
        _, scores = decision_matrix(models, X)
        assert len(blocks) == 1  # every class shares target.X and the kernel
        assert np.array_equal(scores, np.column_stack([m.decision_function(X) for _, m in models]))
    # a set whose models do not share the stored rows is refused before any scoring
    blocks.clear()
    with pytest.raises(ValueError, match="class 99: every model in a set must share the target rows"):
        decision_matrix(hfa_models + [(99, constant_model(0.5, dim=X.shape[1]))], X)
    assert not blocks
    # a query of 2.5 row blocks: one kernel block per set and row block
    step = hfa.core._row_blocks(len(target), 10**6)[0][1]
    long = np.resize(X, (5 * step // 2, X.shape[1]))
    blocks.clear()
    decision_matrix(hfa_models, long)
    assert [len(b[2]) for b in blocks] == [step, step, len(long) - 2 * step]


@pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", 0.3)], ids=["linear", "rbf"])
def test_blocked_scores_equal_per_model_and_per_block(kernel):
    rng = np.random.default_rng(4)
    stored = rng.standard_normal((40, 5))
    models = [(c, KernelExpansion(stored, kernel, rng.standard_normal(40), float(rng.standard_normal())))
              for c in (2, 0, 1)]
    step = hfa.core._row_blocks(len(stored), 10**6)[0][1]
    X = rng.standard_normal((5 * step // 2, 5))
    bounds = hfa.core._row_blocks(len(stored), len(X))
    assert len(bounds) == 3
    by_class = dict(models)
    for rows in (X, X[7], X[:0]):
        classes, scores = decision_matrix(models, rows)
        assert scores.shape == (len(np.atleast_2d(rows)), 3)
        assert np.array_equal(scores, np.column_stack([by_class[c].decision_function(rows) for c in classes]))
    classes, scores = decision_matrix(models, X)
    for start, stop in bounds:
        assert np.array_equal(scores[start:stop], decision_matrix(models, X[start:stop])[1])
    # and blocking rounds every score as one product over all the rows does
    K = cross_gram(kernel, stored, X)
    assert np.array_equal(scores, np.column_stack([K.T @ by_class[c].coef + by_class[c].bias for c in classes]))


def test_row_blocks_are_aligned_and_never_short():
    step = hfa.core._row_blocks(40, 10**6)[0][1]
    assert step % 256 == 0 and 40 * step * 8 <= hfa.core._BLOCK_BYTES
    assert hfa.core._row_blocks(40, 0) == [(0, 0)]
    # a remainder under 256 rows joins the last block, one of 256 or more is a block
    assert hfa.core._row_blocks(40, 2 * step + 255) == [(0, step), (step, 2 * step + 255)]
    assert hfa.core._row_blocks(40, 2 * step + 256) == [(0, step), (step, 2 * step), (2 * step, 2 * step + 256)]
    assert hfa.core._row_blocks(10**5, 300) == [(0, 300)]  # at least 256 rows, whatever n_t


def test_decision_matrix_memory_is_one_block():
    # the parent built the whole n_t x rows cross-kernel, and a second array
    # of that size inside cross_gram: a traced peak of twice the bound below
    rng = np.random.default_rng(5)
    stored = rng.standard_normal((100, 20))
    models = [(c, KernelExpansion(stored, KernelSpec("rbf", 0.05), rng.standard_normal(100), 0.0))
              for c in range(6)]
    X = rng.standard_normal((5000, 20))
    assert len(hfa.core._row_blocks(len(stored), len(X))) >= 3
    tracemalloc.start()
    try:
        decision_matrix(models, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(stored) * len(X) * 8  # one unblocked float64 cross-kernel


def test_single_class_target_rejected():
    source, target = tiny_pools()
    one = Dataset(target.X, np.zeros(len(target), dtype=int))
    with pytest.raises(ValueError, match="2 classes"):
        train_multiclass(source, one, FAST)
    with pytest.raises(ValueError, match="2 classes"):
        svm_t_baseline(one, FAST)


def one_row(label, dim=3):
    """A single all-zero row labeled `label`: accuracy 1.0 means it is classified as `label`."""
    return Dataset(np.zeros((1, dim)), np.array([label]))


def test_classify_argmax_and_ties():
    models = [(0, constant_model(0.7)), (1, constant_model(-0.2)), (2, constant_model(0.1))]
    assert accuracy(models, one_row(0)) == 1.0
    tied = [(4, constant_model(0.5)), (2, constant_model(0.5)), (7, constant_model(-1.0))]
    assert accuracy(tied, one_row(2)) == 1.0  # exact tie goes to the smaller class
    assert accuracy(list(reversed(tied)), one_row(2)) == 1.0  # regardless of list order
    with pytest.raises(ValueError, match="nonempty"):
        accuracy([], one_row(0))
    with pytest.raises(ValueError, match="dimension"):
        accuracy(models, one_row(0, dim=5))


def test_classify_matches_sign_rule_in_binary_case():
    rng = np.random.default_rng(8)
    for _ in range(50):
        f = float(rng.standard_normal())
        models = [(0, constant_model(f)), (1, constant_model(-f))]
        want = 0 if f > 0 else (1 if f < 0 else 0)
        assert accuracy(models, one_row(want)) == 1.0


def test_accuracy_all_correct_and_fixture():
    models = [(0, constant_model(1.0)), (1, constant_model(-1.0))]
    test = Dataset(np.zeros((4, 3)), np.zeros(4, dtype=int))
    assert accuracy(models, test) == 1.0
    # constant predictor says class 0; hand count: 2 of 5 rows are class 0
    mixed = Dataset(np.zeros((5, 3)), np.array([0, 1, 1, 0, 1]))
    assert accuracy(models, mixed) == pytest.approx(2 / 5)
    with pytest.raises(ValueError, match="nonempty"):
        accuracy(models, Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int)))


def test_one_vs_rest_models_train_as_they_do_alone():
    # the one-vs-rest models share the kernels of their training set, and
    # train bit for bit as they do alone
    spec = SyntheticSpec(latent_dim=3, num_classes=3, d_s=6, d_t=5, source_per_class=6,
                         target_per_class=3, seed=4)
    source, target = generate_synthetic(spec)
    cfg = HfaConfig(t_max=5)
    models = train_multiclass(source, target, cfg)
    assert len(models) == 3
    for c, model in models:
        alone = hfa_train(source.binary_view(c), target.binary_view(c), cfg)
        assert np.array_equal(model.beta, alone.beta)
        assert np.array_equal(model.objective_trace, alone.objective_trace)


def test_svm_t_baseline_rejects_overflowing_features():
    # a linear Gram of finite rows near 1e200 overflows; the target domain's
    # factoring names it before any solve
    target = Dataset(np.array([[1e200], [2e200], [-1e200], [3.0]]), np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError, match="^target features overflow the linear kernel: .*data.standardize = true$"):
        svm_t_baseline(target, HfaConfig(kernel_family="linear"))


def test_overflow_remedy_leaves_out_standardizing_when_it_is_set():
    target = Dataset(np.array([[1e200], [2e200], [-1e200], [3.0]]), np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError, match="^target features overflow the linear kernel: rescale them$"):
        svm_t_baseline(target, HfaConfig(kernel_family="linear", standardize=True))


def test_svm_t_matches_direct_dual_solve():
    _, target = tiny_pools(seed=9)
    cfg = HfaConfig()
    models = svm_t_baseline(target, cfg)
    spec = _domain_gram(cfg, target.X, "target")[0]
    K = gram_matrix(spec, target.X)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, target.dim))
    for c, model in models:
        assert isinstance(model, KernelExpansion)
        y = np.where(target.y == c, 1.0, -1.0)
        sol = solve_dual(K, y, cfg.C)
        from hfa.linalg import cross_gram
        want = cross_gram(spec, target.X, X).T @ sol.beta + sol.bias
        np.testing.assert_allclose(model.decision_function(X), want, atol=1e-10)


def test_report_invariants():
    acc = np.array([0.5, 0.7, 0.6])
    rep = ExperimentReport("hfa", acc, (0, 1, 2), {"hfa.C": 1.0})
    assert not rep.single_trial
    assert rep.mean == float(np.mean(acc))
    assert rep.std == float(np.std(acc, ddof=1))
    assert abs(rep.mean - np.mean(rep.accuracies)) <= 1e-12
    assert abs(rep.std - np.std(rep.accuracies, ddof=1)) <= 1e-12
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ExperimentReport("hfa", np.array([1.2]), (0,), {})
    with pytest.raises(ValueError, match="seed"):
        ExperimentReport("hfa", acc, (0, 1), {})


def test_render_report_recomputable():
    acc = np.array([1 / 3, 2 / 3, 1 / 7])
    rep = ExperimentReport("hfa", acc, (5, 6, 7), {"hfa.C": 1.0, "kernel.gamma": None})
    text = render_report(rep)
    assert "method = hfa" in text
    assert "kernel.gamma = none" in text
    assert f"summary = {rep.mean:.4f} ± {rep.std:.4f}" in text
    rows = [line.split("\t") for line in text.splitlines() if line and line[0].isdigit()]
    parsed = np.array([float(r[2]) for r in rows])
    assert np.array_equal(parsed, acc)  # table preserves exact values
    mean_line = next(line for line in text.splitlines() if line.startswith("mean = "))
    assert float(mean_line.split(" = ")[1]) == rep.mean


def test_render_single_trial_flag():
    rep = ExperimentReport("hfa", np.array([0.5]), (0,), {})
    assert rep.single_trial and rep.std == 0.0
    assert "(single trial)" in render_report(rep)


def test_run_experiment_deterministic_and_paired():
    source, target = tiny_pools(seed=4)
    run1 = run_experiment(source, target, FAST, per_class_target=3, trials=2, base_seed=7)
    run2 = run_experiment(source, target, FAST, per_class_target=3, trials=2, base_seed=7)
    assert np.array_equal(run1.hfa.accuracies, run2.hfa.accuracies)
    assert np.array_equal(run1.svm_t.accuracies, run2.svm_t.accuracies)
    assert run1.hfa.seeds == (7, 8) == run1.svm_t.seeds
    assert run1.hfa.config["protocol.per_class_target"] == 3
    assert run1.svm_t.method == "svm_t"
    assert run1.paired_gains().shape == (2,)


def test_run_experiment_single_trial():
    source, target = tiny_pools(seed=4)
    run = run_experiment(source, target, FAST, per_class_target=3, trials=1, base_seed=0)
    assert run.hfa.single_trial and run.hfa.std == 0.0


def test_run_experiment_infeasible_before_training(monkeypatch):
    source, target = tiny_pools(seed=4)
    calls = []
    import hfa.evaluate as ev
    monkeypatch.setattr(ev, "_train_binary", lambda *a, **k: calls.append(1))
    with pytest.raises(ValueError, match="target class"):
        run_experiment(source, target, FAST, per_class_target=100, trials=2, base_seed=0)
    with pytest.raises(ValueError, match="held-out"):
        run_experiment(source, target, FAST, per_class_target=8, trials=2, base_seed=0)
    with pytest.raises(ValueError, match="source class"):
        run_experiment(source, target, FAST, per_class_target=3, trials=2,
                       base_seed=0, per_class_source=100)
    assert calls == []  # feasibility rejected before any training


def test_run_experiment_source_subsampling():
    source, target = tiny_pools(seed=4)
    run = run_experiment(source, target, FAST, per_class_target=3, trials=1,
                         base_seed=0, per_class_source=5)
    assert run.hfa.config["protocol.per_class_source"] == 5
    full = run_experiment(source, target, FAST, per_class_target=3, trials=1, base_seed=0)
    assert run.hfa.config != full.hfa.config


def test_run_experiment_standardize_path():
    source, target = tiny_pools(seed=4)
    cfg = HfaConfig(t_max=4, standardize=True)
    run1 = run_experiment(source, target, cfg, per_class_target=3, trials=1, base_seed=2)
    run2 = run_experiment(source, target, cfg, per_class_target=3, trials=1, base_seed=2)
    assert np.array_equal(run1.hfa.accuracies, run2.hfa.accuracies)


def test_report_echoes_every_setting_that_moves_its_numbers():
    # standardize, t_max and conv_tol change the accuracies, so each report's
    # config block names them by their config-file keys
    source, target = tiny_pools(seed=4)
    cfg = HfaConfig(t_max=3, conv_tol=1e-4, standardize=True)
    run = run_experiment(source, target, cfg, per_class_target=3, trials=1, base_seed=2)
    for report in (run.hfa, run.svm_t):
        lines = set(render_report(report).splitlines())
        assert {"data.standardize = True", "hfa.t_max = 3", "hfa.conv_tol = 0.0001"} <= lines


def test_shared_kernel_between_arms():
    # each arm resolves its target kernel from the same training rows, so
    # both expand over the same kernel; reproduce one trial by hand
    source, target = tiny_pools(seed=6)
    cfg = HfaConfig(t_max=4)
    run = run_experiment(source, target, cfg, per_class_target=3, trials=1, base_seed=1)
    train_t, test_t = sample_protocol(target, 3, 1)
    hfa_models = train_multiclass(source, train_t, cfg)
    base = svm_t_baseline(train_t, cfg)
    kernels = {m.kernel for _, m in hfa_models} | {m.kernel for _, m in base}
    _, (spec_t, _) = prepare_kernels(source.X, train_t.X, cfg)
    assert kernels == {spec_t}
    assert accuracy(hfa_models, test_t) == run.hfa.accuracies[0]
    assert accuracy(base, test_t) == run.svm_t.accuracies[0]


@pytest.mark.parametrize("standardize", [False, True])
@pytest.mark.parametrize("per_class_source, source_calls", [(None, 1), (5, 3)])
def test_run_experiment_factors_each_domain_once(monkeypatch, per_class_source, source_calls, standardize):
    # each trial builds its target Gram once, for both arms; a source that
    # every trial trains on whole has its Gram built once per experiment
    source, target = tiny_pools(seed=4)
    cfg = HfaConfig(t_max=4, standardize=standardize)
    rows, kernel_gram = [], hfa.evaluate.kernel_gram
    monkeypatch.setattr(hfa.evaluate, "kernel_gram", lambda *args: rows.append(len(args[-1])) or kernel_gram(*args))
    run = run_experiment(source, target, cfg, per_class_target=3, trials=3, base_seed=0,
                         per_class_source=per_class_source)
    # 3 target rows per class over 3 classes; the source has 5 or 12 per class
    assert (len(rows) - rows.count(9), rows.count(9)) == (source_calls, 3)
    # the shared factors score as freshly built ones in every trial
    for t, seed in enumerate(run.hfa.seeds):
        train_t, test_t = sample_protocol(target, 3, seed)
        train_s = source if per_class_source is None else sample_protocol(source, per_class_source, seed)[0]
        if standardize:
            train_s, train_t, mean_t, scale_t = standardize_pair(train_s, train_t)
            test_t = Dataset(standardize_apply(test_t.X, mean_t, scale_t), test_t.y)
        assert accuracy(train_multiclass(train_s, train_t, cfg), test_t) == run.hfa.accuracies[t]
        assert accuracy(svm_t_baseline(train_t, cfg), test_t) == run.svm_t.accuracies[t]
