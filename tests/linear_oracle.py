"""Explicit linear path of HFA, the reference for the kernelized trainer.

The paper derives HFA on explicit augmented features: a source vector x
becomes [P x ; x ; 0] and a target vector [Q x ; 0 ; x], and the learned
metric H = [P, Q]'[P, Q] has order d_s + d_t over raw features. The
library trains only the kernelized form, whose metric has order n_s + n_t
over the per-domain Gram square roots K^(1/2). This module keeps the explicit form
for cross-checking at small scale: the augmentation maps, the working
kernel of the explicit path from a dense metric matrix and of the
kernelized path from a factored one, and a trainer that runs the
library's own Frank-Wolfe loop (hfa.evaluate._alternate) on the explicit
factors. The loop reads the metric through M = L'L only, which on both
paths is the block-diagonal F of the path's two domain Grams:
L = blockdiag(Xs, Xt) makes M = blockdiag(Xs'Xs, Xt'Xt) here, and
L = K^(1/2) makes M = blockdiag(Ks, Kt) on the kernelized path. With a
linear kernel and no more samples than feature dimensions the two paths
reach the same optimal objective, with nothing patched into either.
"""

from dataclasses import dataclass

import numpy as np

import hfa.evaluate
from hfa.core import HfaConfig
from hfa.data import Dataset
from hfa.metric import TransformMetric
from gram_oracle import symmetrize


def _block_diag(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    out = np.zeros((n + B.shape[0], A.shape[1] + B.shape[1]))
    out[:n, : A.shape[1]] = A
    out[n:, A.shape[1]:] = B
    return out


def block_gram(kernels) -> np.ndarray:
    """F = blockdiag(Ks, Kt) from prepare_kernels's ((spec_s, Ks), (spec_t, Kt))."""
    (_, Ks), (_, Kt) = kernels
    return _block_diag(Ks, Kt)


def augment_source(x, P, target_dim: int) -> np.ndarray:
    """Source embedding [P @ x ; x ; 0_{target_dim}]."""
    x = np.asarray(x, dtype=float).ravel()
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape[1] != x.size:
        raise ValueError(f"P has {P.shape[1]} columns but x has dimension {x.size}")
    if target_dim < 0:
        raise ValueError("target_dim must be nonnegative")
    return np.concatenate([P @ x, x, np.zeros(target_dim)])


def augment_target(x, Q, source_dim: int) -> np.ndarray:
    """Target embedding [Q @ x ; 0_{source_dim} ; x]."""
    x = np.asarray(x, dtype=float).ravel()
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape[1] != x.size:
        raise ValueError(f"Q has {Q.shape[1]} columns but x has dimension {x.size}")
    if source_dim < 0:
        raise ValueError("source_dim must be nonnegative")
    return np.concatenate([Q @ x, np.zeros(source_dim), x])


def linear_grams(Xs: np.ndarray, Xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The explicit path's domain Grams (Xs'Xs, Xt'Xt) for column-sample
    matrices Xs (d_s x n_s) and Xt (d_t x n_t), each exactly symmetric."""
    Xs = np.asarray(Xs, dtype=float)
    Xt = np.asarray(Xt, dtype=float)
    if Xs.ndim != 2 or Xt.ndim != 2:
        raise ValueError("sample matrices must be 2-D with samples as columns")
    return symmetrize(Xs.T @ Xs), symmetrize(Xt.T @ Xt)


def linear_factors(Xs: np.ndarray, Xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(base, lift) of the explicit path for column-sample matrices Xs
    (d_s x n_s) and Xt (d_t x n_t): base = blockdiag(Xs'Xs, Xt'Xt) and
    lift = blockdiag(Xs, Xt), of order d_s + d_t."""
    Gs, Gt = linear_grams(Xs, Xt)
    return _block_diag(Gs, Gt), _block_diag(np.asarray(Xs, dtype=float), np.asarray(Xt, dtype=float))


def build_KH_linear(Xs: np.ndarray, Xt: np.ndarray, metric) -> np.ndarray:
    """Working kernel of the explicit path for a dense metric (metric_oracle.DenseMetric);
    equals the Gram matrix of the augmented vectors when the metric factors
    as [P,Q]'[P,Q].

    Xs and Xt hold samples as columns (d_s x n_s and d_t x n_t); the
    metric order must be d_s + d_t.
    """
    base, lift = linear_factors(Xs, Xt)
    if metric.order != lift.shape[0]:
        raise ValueError(f"metric order {metric.order} != d_s + d_t = {lift.shape[0]}")
    return symmetrize(base + lift.T @ (metric.matrix @ lift))


def build_KH_kernelized(kernels, metric: TransformMetric) -> np.ndarray:
    """Working kernel of the kernelized path for a factored metric, from
    prepare_kernels's two Grams: F = blockdiag(Ks, Kt) is also M = L'L, so
    F + L'HL = F + scale * M + (M C')W(C M), with C the metric's atoms and
    W its weights."""
    M = block_gram(kernels)
    if metric.order != M.shape[0]:
        raise ValueError(f"metric order {metric.order} != n_s + n_t = {M.shape[0]}")
    U = M @ metric.atoms.T
    return symmetrize(M + metric.scale * M + (U * metric.weights) @ U.T)


@dataclass(frozen=True)
class LinearHfaModel:
    """Trained explicit-path model; the metric has order d_s + d_t."""

    source: Dataset
    target: Dataset
    metric: TransformMetric
    beta: np.ndarray
    bias: float
    objective_trace: np.ndarray
    saddle_gap: float

    @property
    def n_source(self) -> int:
        return len(self.source)

    @property
    def beta_source(self) -> np.ndarray:
        return self.beta[: self.n_source]

    @property
    def beta_target(self) -> np.ndarray:
        return self.beta[self.n_source:]

    def weight_vector(self) -> np.ndarray:
        """Effective target-space weights: metric coupling plus the direct term.

        The metric maps v = L beta to H v = L g, whose target block is
        Xt' g_t for the lift L = blockdiag(Xs', Xt') of rows Xs and Xt.
        """
        base, _ = linear_factors(self.source.X.T, self.target.X.T)
        g = self.metric.apply(self.beta, base @ self.beta)
        return self.target.X.T @ (g[self.n_source:] + self.beta_target)

    def decision_function(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.target.dim:
            raise ValueError(f"expected target-domain rows of dimension {self.target.dim}, got {X.shape}")
        return X @ self.weight_vector() + self.bias


def hfa_train_linear(
    source: Dataset,
    target: Dataset,
    cfg: HfaConfig = HfaConfig(),
    monitor=None,
) -> LinearHfaModel:
    """Train the explicit path directly on raw features (linear kernel),
    through the library's own outer loop."""
    hfa.evaluate._validate_binary_pair(source, target)
    y = np.concatenate([source.y, target.y]).astype(float)
    Gs, Gt = linear_grams(source.X.T, target.X.T)
    metric, sol, _, trace, gap = hfa.evaluate._alternate(Gs, Gt, source.dim + target.dim, y, cfg, monitor)
    return LinearHfaModel(
        source=source,
        target=target,
        metric=metric,
        beta=sol.beta,
        bias=sol.bias,
        objective_trace=trace,
        saddle_gap=gap,
    )
