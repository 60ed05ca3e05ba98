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

from hfa.core import SVM_TOL, HfaConfig, HfaModel, KernelExpansion, PrecomputedKernels, hfa_train, prepare_kernels
from hfa.data import Dataset, sample_protocol, standardize_apply, standardize_fit
from hfa.linalg import KernelSpec, cross_gram, gram_matrix
from hfa.svm import DualProblem, solve_dual

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


def train_multiclass(
    source: Dataset,
    target: Dataset,
    cfg: HfaConfig = HfaConfig(),
    kernels: PrecomputedKernels | None = None,
) -> list[tuple[int, HfaModel]]:
    """Train one binary model per class on the full source+target data.

    Parameters
    ----------
    source, target : Dataset
        Training sets with original (nonnegative integer) labels; the
        target set must contain at least 2 distinct classes.
    cfg : HfaConfig
    kernels : PrecomputedKernels, optional
        Shared Gram factorization; computed once here when omitted.

    Returns
    -------
    list of (class label, model), one per label present in either
    domain, in ascending order.
    """
    if np.unique(target.y).size < 2:
        raise ValueError("target training data must contain at least 2 classes")
    classes = sorted(set(int(c) for c in source.y) | set(int(c) for c in target.y))
    if kernels is None:
        kernels = prepare_kernels(source.X, target.X, cfg)
    return [
        (c, hfa_train(source.binary_view(c), target.binary_view(c), cfg, kernels=kernels))
        for c in classes
    ]


def svm_t_baseline(
    target: Dataset,
    cfg: HfaConfig = HfaConfig(),
    kernel: KernelSpec | None = None,
) -> list[tuple[int, KernelExpansion]]:
    """One-vs-rest SVMs on the target Gram matrix only, one per target
    class in ascending order, as kernel expansions with coef = beta.

    kernel overrides the config-resolved spec; an experiment passes the
    cross-domain arm's target kernel here so both arms share it.
    """
    present = np.unique(target.y)
    if present.size < 2:
        raise ValueError("target training data must contain at least 2 classes")
    spec = kernel if kernel is not None else cfg.kernel_spec_for(target.X)
    K = gram_matrix(spec, target.X)
    models = []
    for c in present.tolist():
        y = np.where(target.y == c, 1.0, -1.0)
        sol = solve_dual(DualProblem(K, y, cfg.C), SVM_TOL)
        models.append((c, KernelExpansion(target.X, spec, sol.beta, sol.bias)))
    return models


def decision_matrix(models, X) -> tuple[np.ndarray, np.ndarray]:
    """Per-class decision values for rows X.

    Returns (classes ascending, scores of shape (rows, classes)); the
    model list must be nonempty. Kernel expansions (an HfaModel through
    its `expansion`) that share one stored-rows array and kernel, as a
    loaded or freshly trained one-vs-rest set does, share one cross_gram
    block; each class's column is then the matrix-vector product its
    decision_function computes, so scores are bit-identical to per-model
    calls. Other models are scored through their decision_function.
    """
    if not models:
        raise ValueError("model list must be nonempty")
    order = sorted(range(len(models)), key=lambda i: models[i][0])
    classes = np.array([models[i][0] for i in order])
    blocks = {}  # (id of stored rows, kernel) -> cross_gram block
    columns = []
    for i in order:
        model = models[i][1]
        expansion = model.expansion if isinstance(model, HfaModel) else model
        if not isinstance(expansion, KernelExpansion):
            columns.append(model.decision_function(X))
            continue
        key = (id(expansion.X), expansion.kernel)
        rows = expansion.query_rows(X)
        if key not in blocks:
            blocks[key] = cross_gram(expansion.kernel, expansion.X, rows)
        columns.append(expansion.from_block(blocks[key]))
    return classes, np.column_stack(columns)


def accuracy(models, test: Dataset) -> float:
    """Fraction of test rows whose argmax class equals the true label;
    ties go to the smallest class."""
    if len(test) == 0:
        raise ValueError("test set must be nonempty")
    classes, scores = decision_matrix(models, test.X)
    # argmax returns the first maximum and columns ascend by class
    predicted = classes[np.argmax(scores, axis=1)]
    return float(np.mean(predicted == test.y))


@dataclass(frozen=True)
class ExperimentReport:
    """Per-trial accuracies for one method arm plus their aggregates."""

    method: str
    accuracies: np.ndarray
    seeds: tuple[int, ...]
    config: dict
    single_trial: bool

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
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        # sample (n-1) standard deviation; 0 by convention for one trial
        if self.accuracies.size < 2:
            return 0.0
        return float(np.std(self.accuracies, ddof=1))


@dataclass(frozen=True)
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
) -> ExperimentRun:
    """Repeated-random-split comparison of the cross-domain model and SVM_T.

    Trial t draws its target train/test partition (and source training
    subset when per_class_source is given) with seed base_seed+t; both
    arms see byte-identical partitions and share the target kernel.
    Infeasible protocols fail before any training starts.

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
        "kernel.family": cfg.kernel_family,
        "kernel.gamma": cfg.kernel_gamma,
        "protocol.per_class_target": per_class_target,
        "protocol.trials": trials,
        "protocol.base_seed": base_seed,
        "protocol.per_class_source": per_class_source,
    }
    seeds = tuple(base_seed + t for t in range(trials))
    acc_h, acc_t = [], []
    for seed in seeds:
        train_t, test_t = sample_protocol(target, per_class_target, seed)
        train_s = source if per_class_source is None else sample_protocol(source, per_class_source, seed)[0]
        if cfg.standardize:
            mean_s, scale_s = standardize_fit(train_s.X)
            train_s = Dataset(train_s.domain, standardize_apply(train_s.X, mean_s, scale_s), train_s.y)
            mean_t, scale_t = standardize_fit(train_t.X)
            train_t = Dataset(train_t.domain, standardize_apply(train_t.X, mean_t, scale_t), train_t.y)
            test_t = Dataset(test_t.domain, standardize_apply(test_t.X, mean_t, scale_t), test_t.y)
        kernels = prepare_kernels(train_s.X, train_t.X, cfg)
        hfa_models = train_multiclass(train_s, train_t, cfg, kernels=kernels)
        base_models = svm_t_baseline(train_t, cfg, kernel=kernels.kernel_target)
        acc_h.append(accuracy(hfa_models, test_t))
        acc_t.append(accuracy(base_models, test_t))
    single = trials == 1
    return ExperimentRun(
        hfa=ExperimentReport("hfa", np.array(acc_h), seeds, dict(echo, method="hfa"), single),
        svm_t=ExperimentReport("svm_t", np.array(acc_t), seeds, dict(echo, method="svm_t"), single),
    )


def render_report(report: ExperimentReport) -> str:
    """Structured text: config block, per-trial table, exact aggregates.

    Accuracies, mean and std are printed with shortest round-trip repr
    so the aggregates are recomputable from the table exactly.
    """
    lines = [f"method = {report.method}"]
    for key, value in report.config.items():
        if key == "method":
            continue
        lines.append(f"{key} = {'none' if value is None else value}")
    lines.append("trial\tseed\taccuracy")
    for t, (seed, acc) in enumerate(zip(report.seeds, report.accuracies)):
        lines.append(f"{t}\t{seed}\t{float(acc)!r}")
    lines.append(f"mean = {report.mean!r}")
    lines.append(f"std = {report.std!r}")
    suffix = "  (single trial)" if report.single_trial else ""
    lines.append(f"summary = {report.mean:.4f} ± {report.std:.4f}{suffix}")
    return "\n".join(lines) + "\n"
