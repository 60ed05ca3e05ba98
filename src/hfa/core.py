"""Training settings and the deployed predictor, all that scoring loads.

A trained model is a target-domain kernel expansion f(x) = k(X_t, x)' coef
+ bias over the stored target rows X_t, so prediction needs target kernel
values only: the rows, their kernel and the coefficients. It is scored
here, in row blocks whose cross-kernel has a fixed byte budget; this
module imports nothing beyond numpy and hfa.linalg, so `hfa predict`
loads neither the SVM solver, the metric nor the trainer (hfa.evaluate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hfa.linalg import KernelSpec, cross_gram

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
    "KernelExpansion",
]


@dataclass(frozen=True)
class HfaConfig:
    """Training settings.

    C is the SVM box bound and lam the metric trace budget. kernel_gamma
    None selects the per-domain median-distance bandwidth at training
    time. The alternation stops after t_max outer iterations, or one
    iteration after the certified relative saddle gap (P - max L) / |P|
    falls to conv_tol, so the last objective change is within conv_tol
    too (see hfa.evaluate._alternate). standardize asks `hfa train` and
    the experiment runner to z-score each domain's features; the trainer
    itself does not read it. The SMO tolerance (hfa.svm.SVM_TOL) is fixed.
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


@dataclass(frozen=True, eq=False)
class KernelExpansion:
    """Deployed predictor f(x) = k(X, x)' coef + bias over stored target rows X.

    Both experiment arms predict in this form: the cross-domain model
    (hfa.evaluate.HfaModel) with coef = g_t + beta_t (L g = H v, see
    hfa.evaluate._train_binary), the target-only SVM with coef = beta. It
    is all that a saved model keeps.
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
        (_decision_columns), so a model scores the same alone and in a
        set, bit for bit.
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


def _model_columns(models) -> tuple[np.ndarray, list[KernelExpansion]]:
    """(class, expansion) pairs sorted by class and checked (_check_shared):
    (classes, their expansions), the columns _decision_columns scores."""
    if not models:
        raise ValueError("model list must be nonempty")
    models = sorted(models, key=lambda cm: cm[0])
    _check_shared(models)
    return np.array([c for c, _ in models]), [e for _, e in models]
