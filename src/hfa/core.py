"""Cross-domain augmented-feature SVM training and prediction.

The model couples a labeled source domain (dim d_s) and a sparsely
labeled target domain (dim d_t) by implicitly embedding both into a
shared augmented space. Only the PSD metric is learned: the
trainer minimizes the SVM dual value over the trace-bounded metrics by
Frank-Wolfe steps toward a rank-1 vertex, re-solving the dual (warm
started) at each trial step, and stops on a certified saddle gap;
prediction needs target kernel values only.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hfa.data import Dataset
from hfa.linalg import KernelSpec, cross_gram, kernel_gram
from hfa.metric import TransformMetric, initial_metric
from hfa.svm import DegenerateProblemError, DualSolution, solve_dual

# most halvings of a Frank-Wolfe step (600 random small problems needed 17)
_MAX_HALVINGS = 60
# float64 machine epsilon
_EPS = float(np.finfo(float).eps)
# bytes of one n_t x rows float64 cross-kernel block when scoring query
# rows: prediction memory is bounded by a block, not by the query's length
_BLOCK_BYTES = 1 << 18
# scoring blocks have a multiple of this many rows and none has fewer, so
# that each score rounds as in one product over all the rows: OpenBLAS
# (0.3.31, AVX-512 x86-64) rounds the rows past a product's last full
# 16-row group with other kernels, and differently again when the product
# has at most 192 rows
_BLOCK_ALIGN = 256

__all__ = [
    "HfaConfig",
    "HfaModel",
    "KernelExpansion",
    "OuterStep",
    "prepare_kernels",
    "hfa_train",
]


@dataclass(frozen=True)
class HfaConfig:
    """Training settings.

    C is the SVM box bound and lam the metric trace budget. kernel_gamma
    None selects the per-domain median-distance bandwidth at training
    time. The alternation stops after t_max outer iterations, or one
    iteration after the certified relative saddle gap (P - max L) / |P|
    falls to conv_tol, so the last objective change is within conv_tol
    too (see _alternate). standardize asks `hfa train` and the experiment
    runner to z-score each domain's features; the trainer itself does not
    read it. The SMO tolerance (hfa.svm.SVM_TOL) is fixed.
    """

    C: float = 1.0
    lam: float = 1.0
    kernel_family: str = "rbf"
    kernel_gamma: float | None = None
    t_max: int = 100
    conv_tol: float = 1e-5
    standardize: bool = False

    def __post_init__(self):
        if not 0 < self.C < np.inf:
            raise ValueError("C must be positive and finite")
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if self.kernel_family not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel family {self.kernel_family!r}")
        if self.kernel_gamma is not None and not 0 < self.kernel_gamma < np.inf:
            raise ValueError("kernel_gamma must be positive and finite when given")
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")
        if not self.conv_tol > 0:
            raise ValueError("conv_tol must be positive")


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
class KernelExpansion:
    """Deployed predictor f(x) = k(X, x)' coef + bias over stored target rows X.

    Both experiment arms predict in this form: the cross-domain model
    (HfaModel) with coef = g_t + beta_t (L g = H v, see hfa_train), the
    target-only SVM with coef = beta. It is all that a saved model keeps.
    """

    X: np.ndarray
    kernel: KernelSpec
    coef: np.ndarray
    bias: float

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def query_rows(self, X) -> np.ndarray:
        """X as a 2-D float array of target-domain rows (a 1-D X is one row)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected target-domain rows of dimension {self.dim}, got {X.shape}")
        return X

    def decision_function(self, X) -> np.ndarray:
        """Decision values for target-domain rows X, shape (m,).

        Scored in row blocks by the loop a set of expansions shares
        (hfa.evaluate.decision_matrix), so a model scores the same alone
        and in a set, bit for bit.
        """
        return _decision_columns([self], X)[:, 0]


def _row_blocks(n_stored: int, m: int) -> list[tuple[int, int]]:
    """(start, stop) of the blocks that score m query rows against n_stored stored rows.

    A block has a multiple of _BLOCK_ALIGN rows, as many as an n_stored x
    rows float64 block in _BLOCK_BYTES allows, and the last block takes a
    remainder shorter than _BLOCK_ALIGN rows.
    """
    step = max(_BLOCK_BYTES // (8 * max(n_stored, 1)) // _BLOCK_ALIGN, 1) * _BLOCK_ALIGN
    starts = list(range(0, m, step)) or [0]
    if len(starts) > 1 and m - starts[-1] < _BLOCK_ALIGN:
        starts.pop()
    return list(zip(starts, starts[1:] + [m]))


def _check_shared(models) -> None:
    """Raise ValueError unless every (class, expansion) pair shares the first
    one's stored rows (by value) and kernel, as a one-vs-rest set does."""
    first = models[0][1]
    for c, e in models:
        if e.kernel != first.kernel or not np.array_equal(e.X, first.X):
            raise ValueError(f"class {c}: every model in a set must share the target rows and kernel")


def _decision_columns(expansions, X) -> np.ndarray:
    """Decision values of each expansion for rows X, shape (rows, expansions).

    The expansions share the first one's stored rows and kernel
    (_check_shared). The rows are scored in the blocks of _row_blocks, with
    one cross_gram block K each; each column is then K.T @ coef + bias.
    """
    first = expansions[0]
    X = first.query_rows(X)
    scores = np.empty((len(X), len(expansions)))
    for start, stop in _row_blocks(len(first.X), len(X)):
        K = cross_gram(first.kernel, first.X, X[start:stop])
        for j, e in enumerate(expansions):
            scores[start:stop, j] = K.T @ e.coef + e.bias
    return scores


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
