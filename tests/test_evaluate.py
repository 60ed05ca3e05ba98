"""Multiclass wrapping, accuracy, baseline, and experiment-runner tests."""

import numpy as np
import pytest

from hfa import evaluate
from hfa.core import SVM_TOL, HfaConfig, KernelExpansion, prepare_kernels
from hfa.data import Dataset, SyntheticSpec, generate_synthetic, sample_protocol
from hfa.evaluate import (
    ExperimentReport,
    accuracy,
    decision_matrix,
    render_report,
    run_experiment,
    svm_t_baseline,
    train_multiclass,
)
from hfa.linalg import gram_matrix
from hfa.svm import DualProblem, solve_dual


class FixedModel:
    """Test stand-in returning a constant score for every row."""

    def __init__(self, score, dim=3):
        self.score = score
        self.dim = dim

    def decision_function(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.dim:
            raise ValueError(f"expected rows of dimension {self.dim}")
        return np.full(X.shape[0], self.score)


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
    real = evaluate.cross_gram
    monkeypatch.setattr(evaluate, "cross_gram", lambda *a: blocks.append(a) or real(*a))
    for models in (hfa_models, base_models):
        blocks.clear()
        _, scores = decision_matrix(models, X)
        assert len(blocks) == 1  # every class shares target.X and the kernel
        assert np.array_equal(scores, np.column_stack([m.decision_function(X) for _, m in models]))
    # a model that is not a kernel expansion is scored on its own
    blocks.clear()
    _, scores = decision_matrix(hfa_models + [(99, FixedModel(0.5, dim=X.shape[1]))], X)
    assert len(blocks) == 1 and np.array_equal(scores[:, -1], np.full(len(X), 0.5))


def test_single_class_target_rejected():
    source, target = tiny_pools()
    one = Dataset("t", target.X, np.zeros(len(target), dtype=int))
    with pytest.raises(ValueError, match="2 classes"):
        train_multiclass(source, one, FAST)
    with pytest.raises(ValueError, match="2 classes"):
        svm_t_baseline(one, FAST)


def one_row(label, dim=3):
    """A single all-zero row labeled `label`: accuracy 1.0 means it is classified as `label`."""
    return Dataset("t", np.zeros((1, dim)), np.array([label]))


def test_classify_argmax_and_ties():
    models = [(0, FixedModel(0.7)), (1, FixedModel(-0.2)), (2, FixedModel(0.1))]
    assert accuracy(models, one_row(0)) == 1.0
    tied = [(4, FixedModel(0.5)), (2, FixedModel(0.5)), (7, FixedModel(-1.0))]
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
        models = [(0, FixedModel(f)), (1, FixedModel(-f))]
        want = 0 if f > 0 else (1 if f < 0 else 0)
        assert accuracy(models, one_row(want)) == 1.0


def test_accuracy_all_correct_and_fixture():
    models = [(0, FixedModel(1.0)), (1, FixedModel(-1.0))]
    test = Dataset("t", np.zeros((4, 3)), np.zeros(4, dtype=int))
    assert accuracy(models, test) == 1.0
    # constant predictor says class 0; hand count: 2 of 5 rows are class 0
    mixed = Dataset("t", np.zeros((5, 3)), np.array([0, 1, 1, 0, 1]))
    assert accuracy(models, mixed) == pytest.approx(2 / 5)
    with pytest.raises(ValueError, match="nonempty"):
        accuracy(models, Dataset("t", np.zeros((0, 3)), np.zeros(0, dtype=int)))


def test_svm_t_matches_direct_dual_solve():
    _, target = tiny_pools(seed=9)
    cfg = HfaConfig()
    models = svm_t_baseline(target, cfg)
    spec = cfg.kernel_spec_for(target.X)
    K = gram_matrix(spec, target.X)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, target.dim))
    for c, model in models:
        assert isinstance(model, KernelExpansion)
        y = np.where(target.y == c, 1.0, -1.0)
        sol = solve_dual(DualProblem(K, y, cfg.C), SVM_TOL)
        from hfa.linalg import cross_gram
        want = cross_gram(spec, target.X, X).T @ sol.beta + sol.bias
        np.testing.assert_allclose(model.decision_function(X), want, atol=1e-10)


def test_report_invariants():
    acc = np.array([0.5, 0.7, 0.6])
    rep = ExperimentReport("hfa", acc, (0, 1, 2), {"hfa.C": 1.0}, False)
    assert rep.mean == float(np.mean(acc))
    assert rep.std == float(np.std(acc, ddof=1))
    assert abs(rep.mean - np.mean(rep.accuracies)) <= 1e-12
    assert abs(rep.std - np.std(rep.accuracies, ddof=1)) <= 1e-12
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ExperimentReport("hfa", np.array([1.2]), (0,), {}, True)
    with pytest.raises(ValueError, match="seed"):
        ExperimentReport("hfa", acc, (0, 1), {}, False)


def test_render_report_recomputable():
    acc = np.array([1 / 3, 2 / 3, 1 / 7])
    rep = ExperimentReport("hfa", acc, (5, 6, 7), {"hfa.C": 1.0, "kernel.gamma": None}, False)
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
    rep = ExperimentReport("hfa", np.array([0.5]), (0,), {}, True)
    assert rep.std == 0.0
    assert "(single trial)" in render_report(rep)


def test_run_experiment_deterministic_and_paired():
    source, target = tiny_pools(seed=4)
    run1 = run_experiment(source, target, FAST, per_class_target=3, trials=2, base_seed=7)
    run2 = run_experiment(source, target, FAST, per_class_target=3, trials=2, base_seed=7)
    assert np.array_equal(run1.hfa.accuracies, run2.hfa.accuracies)
    assert np.array_equal(run1.svm_t.accuracies, run2.svm_t.accuracies)
    assert run1.hfa.seeds == (7, 8) == run1.svm_t.seeds
    assert run1.hfa.config["protocol.per_class_target"] == 3
    assert run1.svm_t.config["method"] == "svm_t"
    assert run1.paired_gains().shape == (2,)


def test_run_experiment_single_trial():
    source, target = tiny_pools(seed=4)
    run = run_experiment(source, target, FAST, per_class_target=3, trials=1, base_seed=0)
    assert run.hfa.single_trial and run.hfa.std == 0.0


def test_run_experiment_infeasible_before_training(monkeypatch):
    source, target = tiny_pools(seed=4)
    calls = []
    import hfa.evaluate as ev
    monkeypatch.setattr(ev, "hfa_train", lambda *a, **k: calls.append(1))
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


def test_shared_kernel_between_arms():
    # the baseline reuses the experiment's resolved target kernel; verify
    # the wiring by reproducing one trial by hand
    source, target = tiny_pools(seed=6)
    cfg = HfaConfig(t_max=4)
    run = run_experiment(source, target, cfg, per_class_target=3, trials=1, base_seed=1)
    train_t, test_t = sample_protocol(target, 3, 1)
    pk = prepare_kernels(source.X, train_t.X, cfg)
    base = svm_t_baseline(train_t, cfg, kernel=pk.kernel_target)
    assert accuracy(base, test_t) == run.svm_t.accuracies[0]
