"""One-vs-rest multiclass wrapping, accuracy, and repeated-split experiments.

An experiment draws `trials` train/test partitions of the target pool
(seeds base_seed+trial), trains the cross-domain model and a target-only
SVM baseline on identical splits, and reports per-trial accuracies with
their mean and sample standard deviation. Paired splits make per-trial
differences between the two arms directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hfa.core import (
    HfaConfig,
    HfaModel,
    KernelExpansion,
    _check_kernels,
    _check_shared,
    _decision_columns,
    _domain_gram,
    _train_binary,
    prepare_kernels,
)
from hfa.data import Dataset, sample_protocol, standardize_apply, standardize_pair
from hfa.svm import solve_dual

__all__ = [
    "ExperimentReport",
    "ExperimentRun",
    "train_multiclass",
    "svm_t_baseline",
    "accuracy",
    "decision_matrix",
    "run_experiment",
    "render_report",
]


def train_multiclass(source: Dataset, target: Dataset, cfg: HfaConfig = HfaConfig(), monitor=None,
                     kernels=None) -> list[tuple[int, HfaModel]]:
    """Train one binary model per class on the full source+target data,
    sharing one pair of Grams across the classes.

    Parameters
    ----------
    source, target : Dataset
        Training sets with original (nonnegative integer) labels; the
        target set must contain at least 2 distinct classes.
    cfg : HfaConfig
    monitor : callable, optional
        hfa_train's monitor, for every class in turn.
    kernels : ((KernelSpec, ndarray), (KernelSpec, ndarray)), optional
        The pair of (kernel, Gram) that prepare_kernels returns, as
        hfa_train takes it; built here when not given. A pair given here is
        checked once, before any class trains, not once per class.

    Returns
    -------
    list of (class label, model), one per label present in either
    domain, in ascending order.
    """
    present = target.class_counts()
    if len(present) < 2:
        raise ValueError("target training data must contain at least 2 classes")
    classes = sorted(source.class_counts().keys() | present.keys())
    if kernels is None:
        kernels = prepare_kernels(source.X, target.X, cfg)
    else:
        _check_kernels(kernels, len(source), len(target))
    return [(c, _train_binary(source.binary_view(c), target.binary_view(c), cfg, kernels, monitor)) for c in classes]


def svm_t_baseline(target: Dataset, cfg: HfaConfig = HfaConfig(),
                   target_gram=None) -> list[tuple[int, KernelExpansion]]:
    """One-vs-rest SVMs on the target Gram matrix only, one per target
    class in ascending order, as kernel expansions with coef = beta, over
    the (kernel, Gram) pair target_gram, this target's hfa.core._domain_gram
    (built here when not given; run_experiment shares it with hfa's arm)."""
    present = target.class_counts()
    if len(present) < 2:
        raise ValueError("target training data must contain at least 2 classes")
    spec, K = _domain_gram(cfg, target.X, "target") if target_gram is None else target_gram
    models = []
    for c in present:
        y = np.where(target.y == c, 1.0, -1.0)
        sol = solve_dual(K, y, cfg.C)
        models.append((c, KernelExpansion(target.X, spec, sol.beta, sol.bias)))
    return models


def decision_matrix(models, X) -> tuple[np.ndarray, np.ndarray]:
    """Per-class decision values for rows X from (class, KernelExpansion)
    pairs, an HfaModel being one.

    Returns (classes ascending, scores of shape (rows, classes)); the
    model list must be nonempty, and every model must share the stored
    rows and kernel, as a loaded or freshly trained one-vs-rest set does
    (else ValueError). The rows are scored in row blocks sized from a
    fixed byte budget over the stored rows (n_t), so memory is bounded by
    one n_t x block cross-kernel, not by the number of query rows; the
    classes share one cross_gram per block, and each class's column comes
    from the loop its decision_function runs, so scores are bit-identical
    to per-model calls.
    """
    classes, expansions = _model_columns(models)
    return classes, _decision_columns(expansions, X)


def _model_columns(models) -> tuple[np.ndarray, list[KernelExpansion]]:
    """decision_matrix's models sorted by class and checked: (classes, their expansions)."""
    if not models:
        raise ValueError("model list must be nonempty")
    models = sorted(models, key=lambda cm: cm[0])
    _check_shared(models)
    return np.array([c for c, _ in models]), [e for _, e in models]


def accuracy(models, test: Dataset) -> float:
    """Fraction of test rows whose argmax class equals the true label;
    ties go to the smallest class."""
    if len(test) == 0:
        raise ValueError("test set must be nonempty")
    classes, scores = decision_matrix(models, test.X)
    # argmax returns the first maximum and columns ascend by class
    predicted = classes[np.argmax(scores, axis=1)]
    return float(np.mean(predicted == test.y))


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Per-trial accuracies for one method arm plus their aggregates."""

    method: str
    accuracies: np.ndarray
    seeds: tuple[int, ...]
    config: dict

    def __post_init__(self):
        acc = np.asarray(self.accuracies, dtype=float)
        if acc.ndim != 1 or acc.size == 0:
            raise ValueError("need at least one per-trial accuracy")
        if np.any(acc < 0) or np.any(acc > 1):
            raise ValueError("accuracies must lie in [0, 1]")
        if acc.size != len(self.seeds):
            raise ValueError("one seed per trial required")
        object.__setattr__(self, "accuracies", acc)

    @property
    def single_trial(self) -> bool:
        return self.accuracies.size == 1

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        # sample (n-1) standard deviation; 0 by convention for one trial
        if self.accuracies.size < 2:
            return 0.0
        return float(np.std(self.accuracies, ddof=1))


@dataclass(frozen=True, eq=False)
class ExperimentRun:
    """Both arms of one experiment, trained on identical splits."""

    hfa: ExperimentReport
    svm_t: ExperimentReport

    def paired_gains(self) -> np.ndarray:
        return self.hfa.accuracies - self.svm_t.accuracies


def _check_feasible(dataset: Dataset, per_class: int, role: str, need_rest: bool) -> None:
    counts = dataset.class_counts()
    for c, k in counts.items():
        if k < per_class:
            raise ValueError(f"{role} class {c} has {k} samples, needs {per_class}")
    if need_rest and sum(counts.values()) <= per_class * len(counts):
        raise ValueError(f"{role} pool leaves no held-out samples at {per_class} per class")


def run_experiment(
    source: Dataset,
    target: Dataset,
    cfg: HfaConfig = HfaConfig(),
    per_class_target: int = 3,
    trials: int = 10,
    base_seed: int = 0,
    per_class_source: int | None = None,
    monitor=None,
) -> ExperimentRun:
    """Repeated-random-split comparison of the cross-domain model and SVM_T.

    Trial t draws its target train/test partition (and source training
    subset when per_class_source is given) with seed base_seed+t; both
    arms see byte-identical partitions and read one target kernel and Gram
    (hfa.core._domain_gram); without per_class_source every trial trains
    on the same source rows, whose Gram is built once per experiment. monitor
    is passed to train_multiclass in every trial. Infeasible protocols fail
    before any training starts.

    Returns
    -------
    ExperimentRun with one ExperimentReport per arm.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if per_class_target < 1:
        raise ValueError("per_class_target must be positive")
    _check_feasible(target, per_class_target, "target", need_rest=True)
    if per_class_source is not None:
        if per_class_source < 1:
            raise ValueError("per_class_source must be positive")
        _check_feasible(source, per_class_source, "source", need_rest=False)

    echo = {
        "hfa.C": cfg.C,
        "hfa.lambda": cfg.lam,
        "hfa.t_max": cfg.t_max,
        "hfa.conv_tol": cfg.conv_tol,
        "kernel.family": cfg.kernel_family,
        "kernel.gamma": cfg.kernel_gamma,
        "protocol.per_class_target": per_class_target,
        "protocol.trials": trials,
        "protocol.base_seed": base_seed,
        "protocol.per_class_source": per_class_source,
        "data.standardize": cfg.standardize,
    }
    seeds = tuple(base_seed + t for t in range(trials))
    acc_h, acc_t = [], []
    gram_s = None
    for seed in seeds:
        train_t, test_t = sample_protocol(target, per_class_target, seed)
        train_s = source if per_class_source is None else sample_protocol(source, per_class_source, seed)[0]
        if cfg.standardize:
            train_s, train_t, mean_t, scale_t = standardize_pair(train_s, train_t)
            test_t = Dataset(standardize_apply(test_t.X, mean_t, scale_t), test_t.y)
        if gram_s is None or per_class_source is not None:
            gram_s = _domain_gram(cfg, train_s.X, "source")
        gram_t = _domain_gram(cfg, train_t.X, "target")
        models = train_multiclass(train_s, train_t, cfg, monitor=monitor, kernels=(gram_s, gram_t))
        acc_h.append(accuracy(models, test_t))
        acc_t.append(accuracy(svm_t_baseline(train_t, cfg, gram_t), test_t))
    return ExperimentRun(
        hfa=ExperimentReport("hfa", np.array(acc_h), seeds, echo),
        svm_t=ExperimentReport("svm_t", np.array(acc_t), seeds, echo),
    )


def render_report(report: ExperimentReport) -> str:
    """Structured text: config block, per-trial table, exact aggregates.

    Accuracies, mean and std are printed with shortest round-trip repr
    so the aggregates are recomputable from the table exactly.
    """
    lines = [f"method = {report.method}"]
    for key, value in report.config.items():
        lines.append(f"{key} = {'none' if value is None else value}")
    lines.append("trial\tseed\taccuracy")
    for t, (seed, acc) in enumerate(zip(report.seeds, report.accuracies)):
        lines.append(f"{t}\t{seed}\t{float(acc)!r}")
    lines.append(f"mean = {report.mean!r}")
    lines.append(f"std = {report.std!r}")
    suffix = "  (single trial)" if report.single_trial else ""
    lines.append(f"summary = {report.mean:.4f} ± {report.std:.4f}{suffix}")
    return "\n".join(lines) + "\n"
