"""Cross-domain augmented-feature SVM training, one-vs-rest multiclass
wrapping, accuracy, and repeated-split experiments.

The model couples a labeled source domain (dim d_s) and a sparsely
labeled target domain (dim d_t) by implicitly embedding both into a
shared augmented space. Only the PSD metric is learned: the
trainer minimizes the SVM dual value over the trace-bounded metrics by
Frank-Wolfe steps toward a rank-1 vertex, re-solving the dual (warm
started) at each trial step, and stops on a certified saddle gap.
The trained model is the target kernel expansion of hfa.core, which is
all that prediction loads.

The one shipped training path is kernelized as in the paper: its metric
has order n_s+n_t over the per-domain Gram square roots L = K^(1/2), and
the trainer reads it only through dual vectors and M = L'L, which is the
block-diagonal of the two domain Grams, read one block at a time, with no
L formed (hfa.metric).
The paper's explicit path, with a metric of order d_s+d_t over raw
features, lives next to the tests as an oracle (tests/linear_oracle.py)
and runs the same outer loop; the optimal objectives of the two agree
when the linear kernel is used and sample counts do not exceed feature
dimensions.

An experiment draws `trials` train/test partitions of the target pool
(seeds base_seed+trial), trains the cross-domain model and a target-only
SVM baseline on identical splits, and reports per-trial accuracies with
their mean and sample standard deviation. Paired splits make per-trial
differences between the two arms directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hfa.core import HfaConfig, KernelExpansion, _decision_columns, _model_columns
from hfa.data import Dataset, sample_protocol, standardize_apply, standardize_pair
from hfa.linalg import KernelSpec, kernel_gram
from hfa.metric import TransformMetric, initial_metric
from hfa.svm import DegenerateProblemError, DualSolution, solve_dual

# most halvings of a Frank-Wolfe step (600 random small problems needed 17)
_MAX_HALVINGS = 60
# float64 machine epsilon
_EPS = float(np.finfo(float).eps)

__all__ = [
    "HfaModel",
    "OuterStep",
    "prepare_kernels",
    "hfa_train",
    "ExperimentReport",
    "ExperimentRun",
    "train_multiclass",
    "svm_t_baseline",
    "accuracy",
    "decision_matrix",
    "run_experiment",
    "render_report",
]


def _domain_gram(cfg: HfaConfig, X: np.ndarray, domain: str) -> tuple[KernelSpec, np.ndarray]:
    """One domain's kernel, resolved from its training rows (the rbf
    bandwidth is cfg.kernel_gamma, else the median rule on X), and its Gram
    K. Features large enough to overflow the kernel (above about 1e154)
    fail with one ValueError that names the domain ("source" or "target")
    and a remedy: standardizing, unless cfg.standardize already asks for it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return kernel_gram(cfg.kernel_family, cfg.kernel_gamma, X)
    except FloatingPointError:
        remedy = "rescale them" if cfg.standardize else "rescale them or set data.standardize = true"
        raise ValueError(f"{domain} features overflow the {cfg.kernel_family} kernel: {remedy}") from None


def prepare_kernels(source_X: np.ndarray, target_X: np.ndarray, cfg: HfaConfig):
    """((spec_s, Ks), (spec_t, Kt)): each domain's kernel and Gram from _domain_gram,
    which every model on the same rows shares; nothing joins them (see _alternate)."""
    return _domain_gram(cfg, source_X, "source"), _domain_gram(cfg, target_X, "target")


def _check_kernels(kernels, n_s: int, n_t: int) -> None:
    """Raise ValueError unless a caller's Grams have orders n_s and n_t and are finite and exactly symmetric."""
    (_, Ks), (_, Kt) = kernels
    if Ks.shape != (n_s, n_s) or Kt.shape != (n_t, n_t):
        raise ValueError("precomputed kernels do not match the training sample counts")
    for domain, K in (("source", Ks), ("target", Kt)):
        if not (np.all(np.isfinite(K)) and np.array_equal(K, K.T)):
            raise ValueError(f"the {domain} Gram must be finite and exactly symmetric")


def _validate_binary_pair(source: Dataset, target: Dataset) -> None:
    if len(source) < 1 or len(target) < 1:
        raise ValueError("both domains need at least one training sample")
    y = np.concatenate([source.y, target.y])
    if not np.all(np.isin(y, (-1, 1))):
        raise ValueError("training labels must be +1 or -1")
    if np.all(y == 1) or np.all(y == -1):
        raise DegenerateProblemError("both classes must appear across the two domains")


@dataclass(frozen=True, eq=False)
class OuterStep(DualSolution):
    """An outer iteration as the trainer's monitor sees it: the accepted
    dual solution, the certified relative saddle gap after the iteration,
    and the step sizes t its halving loop tried, in order."""

    gap: float
    halved: tuple[float, ...]


def _alternate(Ks: np.ndarray, Kt: np.ndarray, order: int, y: np.ndarray, cfg: HfaConfig, monitor=None):
    """Run the alternation; returns (metric, final solution, M @ its beta, objective trace, saddle gap).

    Ks and Kt are the two domains' Grams, and F = blockdiag(Ks, Kt) is the
    working kernel at a zero metric. F is also M = L'L for the lift L
    (order x n) of dual coefficients into the metric space, v = L beta:
    L = blockdiag(Ks^(1/2), Kt^(1/2)) on the kernelized path, and
    blockdiag(Xs, Xt) of order d_s + d_t on the explicit oracle's, which
    shares this loop. Neither F nor L is formed: M x is (Ks x_s, Kt x_t),
    and every lifted vector the loop needs is L times a dual vector, so
    h'v = c'M beta, ||v||^2 = beta'M beta and L'h = M c for h = L c.

    P(H) = max_alpha 1'alpha - 1/2 beta'(F + L'HL)beta is convex in H, and at
    fixed beta its linear minimizer over {H PSD, trace(H) <= lam} is the
    rank-1 vertex lam*hh', h = v/||v|| = L c with c = beta/sqrt(beta'M beta).
    Each outer iteration is one Frank-Wolfe step H <- (1-t)H + t*lam*hh'
    (Jaggi, ICML 2013). The working kernel K = F + L'HL is affine in H, so
    it takes the same step, K(t) = (1-t)K + tV toward the vertex kernel
    V = F + lam*uu' with u = L'h = Mc, from K = (1 + lam/order)F at the start
    metric (lam/order)I; the loop keeps K itself. By Danskin's theorem
    dP/dt = -1/2 (lam (u'beta_t)^2 - v_t'H v_t) at the dual solution for
    K(t); t = 1 is taken when that slope is not positive there, else the
    lower of t = 1 and the secant root of the slope between t = 0 and 1,
    halved until P does not rise, or at most _MAX_HALVINGS times: then the
    step is t = 0 and the loop ends, as the next iteration would repeat
    this one. With Ks and Kt finite and exactly symmetric, each working
    kernel is exactly symmetric by construction (scalings and sums of
    symmetric arrays, and uu'), and lam*u'u is checked finite, so
    solve_dual's precondition holds with no n x n scan.

    Every solve's alpha also gives L(alpha) = 1'alpha - 1/2 beta'F beta -
    1/2 lam beta'M beta, a lower bound on the saddle value, so
    (P - max L) / |P| is a certified relative gap. The loop stops one step
    after it reaches cfg.conv_tol, which bounds that last step's change of
    P by conv_tol too, or after cfg.t_max solves are accepted.
    """
    lam, n_s = cfg.lam, len(Ks)
    metric = initial_metric(order, lam, len(y))

    def gram(x):
        # M x, one domain block at a time
        return np.concatenate([Ks @ x[:n_s], Kt @ x[n_s:]])

    def vertex(u):
        # F + lam*uu'
        V = lam * np.outer(u, u)
        V[:n_s, :n_s] += Ks
        V[n_s:, n_s:] += Kt
        return V

    # beta'M beta rounds at n eps (|beta|'r)^2 with r = sqrt(diag M), as
    # |M_ij| <= r_i r_j for PSD M; a beta whose value is below that has v = 0
    # up to round-off, and scaling it to c'Mc = 1 would blow noise up into an
    # atom
    root_diag = np.sqrt(np.abs(np.concatenate([np.diagonal(Ks), np.diagonal(Kt)])))
    K = (1.0 + lam / order) * vertex(np.zeros(len(y)))
    sol = solve_dual(K, y, cfg.C)
    lower = -np.inf

    def slope(s, t, m):
        # dP/dt at the solution s for K(t), m = M s.beta; s's alpha also
        # tightens the bound
        nonlocal lower
        energy, along = metric.energy(s.beta, m), lam * float(c @ m) ** 2
        lower = max(lower, s.objective + 0.5 * ((1.0 - t) * energy + t * along - lam * float(s.beta @ m)))
        return -0.5 * (along - energy)

    def trial(t):
        # solve at K(t), warm started from the accepted alpha
        K_t = V if t == 1.0 else (1.0 - t) * K + t * V
        s = solve_dual(K_t, y, cfg.C, warm_start=sol.alpha)
        return s, K_t, slope(s, t, gram(s.beta))

    objective = []
    reached = False
    for tau in range(cfg.t_max):
        halved = []
        if tau > 0:
            if reached:
                break
            reached = gap <= cfg.conv_tol
            if slope_0 < 0.0:
                u = gram(c)
                if not np.isfinite(lam * float(u @ u)):
                    raise ValueError(f"outer {tau}: the step direction is not finite")
                V = vertex(u)
                t = 1.0
                best, K_best, slope_1 = trial(t)
                if slope_1 > 0.0:
                    t_root = slope_0 / (slope_0 - slope_1)
                    step = trial(t_root)
                    if step[0].objective < best.objective:
                        t, (best, K_best, _) = t_root, step
                    del step  # its kernel, unless taken, would outlive this step
                while best.objective > sol.objective and len(halved) < _MAX_HALVINGS:
                    t *= 0.5
                    halved.append(t)
                    best, K_best, _ = trial(t)
                if best.objective > sol.objective:
                    reached = True  # t = 0: the next iteration would repeat this one
                else:
                    metric = metric.rank1_update(1.0 - t, t * lam, c)
                    K, sol = K_best, best
            else:
                # H already minimizes at this beta (gap 0): the step is t = 0
                sol = solve_dual(K, y, cfg.C, warm_start=sol.alpha)
        m = gram(sol.beta)
        norm2 = float(sol.beta @ m)
        if norm2 > len(y) * _EPS * float(np.abs(sol.beta) @ root_diag) ** 2:
            c = sol.beta / np.sqrt(norm2)
        else:  # v = 0, so M beta = 0 up to round-off: no direction, and slope 0
            c = m = np.zeros_like(m)
        slope_0 = slope(sol, 0.0, m)
        gap = (sol.objective - lower) / max(abs(sol.objective), 1e-12)
        objective.append(sol.objective)
        if monitor is not None:
            monitor(tau, metric, OuterStep(**vars(sol), gap=gap, halved=tuple(halved)))
    return metric, sol, m, np.array(objective), gap


@dataclass(frozen=True, eq=False)
class HfaModel(KernelExpansion):
    """Trained kernelized model over one binary source/target pair: the
    deployed kernel expansion over the target training rows, plus what
    training produced and a saved model does not keep. beta splits as
    (beta_source, beta_target) in training order and saddle_gap is the
    certified relative gap at exit.
    """

    metric: TransformMetric
    beta: np.ndarray
    objective_trace: np.ndarray
    saddle_gap: float


def hfa_train(
    source: Dataset,
    target: Dataset,
    cfg: HfaConfig = HfaConfig(),
    kernels=None,
    monitor=None,
) -> HfaModel:
    """Train the kernelized model on +-1 labeled source/target data.

    Parameters
    ----------
    source, target : Dataset
        Binary training sets; both label signs must appear in the union.
    cfg : HfaConfig
    kernels : ((KernelSpec, ndarray), (KernelSpec, ndarray)), optional
        prepare_kernels's pair, shared by several relabelings of the same
        samples (one-vs-rest). Each Gram must have its domain's sample count
        as its order and be finite and exactly symmetric, as the trainer
        builds its working kernels from them unchecked: a pair given here is
        checked once, and one built here is checked where it is built.
    monitor : callable, optional
        monitor(iteration, metric, step), called once per outer iteration
        including the initial solve, after its step. step is an OuterStep:
        the iteration's DualSolution with the certified relative saddle
        gap after it and the step sizes its halving loop tried. The `hfa`
        command prints its progress lines from it.

    Returns
    -------
    HfaModel
    """
    if kernels is not None:
        _check_kernels(kernels, len(source), len(target))
    return _train_binary(source, target, cfg, kernels, monitor)


def _train_binary(source: Dataset, target: Dataset, cfg: HfaConfig, kernels, monitor) -> HfaModel:
    """hfa_train, its kernels None (built here) or a pair _check_kernels passed."""
    _validate_binary_pair(source, target)
    if kernels is None:
        kernels = prepare_kernels(source.X, target.X, cfg)
    (_, Ks), (spec_t, Kt) = kernels
    n_s = len(source)
    y = np.concatenate([source.y, target.y]).astype(float)
    metric, sol, m, trace, gap = _alternate(Ks, Kt, len(y), y, cfg, monitor)
    # H v = L g, and the target rows of L'L g are Kt g_t
    coef = metric.apply(sol.beta, m)[n_s:] + sol.beta[n_s:]
    return HfaModel(
        X=target.X, kernel=spec_t, coef=coef, bias=sol.bias,
        metric=metric, beta=sol.beta, objective_trace=trace, saddle_gap=gap,
    )


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
    the (kernel, Gram) pair target_gram, this target's _domain_gram
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
    (_domain_gram); without per_class_source every trial trains
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
