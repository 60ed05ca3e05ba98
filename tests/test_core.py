"""Augmentation maps, working-kernel builders and kernel preparation."""

from unittest import mock

import numpy as np
import pytest

import hfa.core
from hfa.core import HfaConfig, hfa_train, prepare_kernels, _domain_gram
from hfa.data import Dataset
from hfa.evaluate import svm_t_baseline
from hfa.linalg import KernelSpec, gram_matrix, median_heuristic_gamma
from hfa.metric import TransformMetric
from linear_oracle import (
    _block_diag,
    augment_source,
    augment_target,
    block_gram,
    build_KH_kernelized,
    build_KH_linear,
    linear_factors,
)
from metric_oracle import DenseMetric, gram_root, lifted, unit_atoms


def pq_metric(rng, d_s, d_t, p):
    """Metric [P,Q]'[P,Q] from random factor rows, plus the factors."""
    P = rng.standard_normal((p, d_s))
    Q = rng.standard_normal((p, d_t))
    H = np.hstack([P, Q]).T @ np.hstack([P, Q])
    return DenseMetric(H, float(np.trace(H)) + 1.0), P, Q


def augmented_by_hand(x, other, P, lead):
    """[P x ; x ; 0] when lead, else [P x ; 0 ; x]; `other` is the other domain's dim."""
    head = P @ x
    if lead:
        return np.concatenate([head, x, np.zeros(other)])
    return np.concatenate([head, np.zeros(other), x])


# ---------------------------------------------------------------- augmentation


def test_augment_source_layout():
    P = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
    x = np.array([1.0, 2.0, 3.0])
    out = augment_source(x, P, target_dim=4)
    assert np.array_equal(out[:2], P @ x)
    assert np.array_equal(out[2:5], x)
    assert np.array_equal(out[5:], np.zeros(4))


def test_augment_target_layout():
    Q = np.array([[2.0, 1.0]])
    x = np.array([0.5, -0.5])
    out = augment_target(x, Q, source_dim=3)
    assert np.array_equal(out[:1], Q @ x)
    assert np.array_equal(out[1:4], np.zeros(3))
    assert np.array_equal(out[4:], x)


def test_augment_validation():
    with pytest.raises(ValueError):
        augment_source(np.ones(3), np.ones((2, 4)), 1)
    with pytest.raises(ValueError):
        augment_target(np.ones(3), np.ones((2, 3)), -1)


def test_cross_domain_inner_product_meets_in_projected_space():
    rng = np.random.default_rng(0)
    P, Q = rng.standard_normal((6, 4)), rng.standard_normal((6, 3))
    u, x = rng.standard_normal(4), rng.standard_normal(3)
    a = augment_source(u, P, target_dim=3)
    b = augment_target(x, Q, source_dim=4)
    assert a.size == b.size == 6 + 4 + 3
    assert np.isclose(a @ b, (P @ u) @ (Q @ x), atol=1e-12)


# ---------------------------------------------------------------- linear builder


def test_build_KH_linear_matches_augmented_gram():
    rng = np.random.default_rng(14)
    for trial in range(20):
        d_s, d_t = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        p = int(rng.integers(1, 6))
        n_s, n_t = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        Xs = rng.standard_normal((n_s, d_s))
        Xt = rng.standard_normal((n_t, d_t))
        metric, P, Q = pq_metric(rng, d_s, d_t, p)
        K = build_KH_linear(Xs.T, Xt.T, metric)
        aug = [augmented_by_hand(x, d_t, P, True) for x in Xs]
        aug += [augmented_by_hand(x, d_s, Q, False) for x in Xt]
        G = np.array([[a @ b for b in aug] for a in aug])
        assert np.max(np.abs(K - G)) <= 1e-10


def test_build_KH_linear_zero_metric_is_uncoupled():
    rng = np.random.default_rng(1)
    Xs, Xt = rng.standard_normal((3, 4)), rng.standard_normal((2, 5))
    metric = DenseMetric(np.zeros((9, 9)), 1.0)
    K = build_KH_linear(Xs.T, Xt.T, metric)
    assert np.allclose(K[:3, :3], Xs @ Xs.T, atol=1e-12)
    assert np.allclose(K[3:, 3:], Xt @ Xt.T, atol=1e-12)
    assert np.allclose(K[:3, 3:], 0.0)


def test_build_KH_linear_order_mismatch():
    rng = np.random.default_rng(2)
    Xs, Xt = rng.standard_normal((3, 4)), rng.standard_normal((2, 5))
    with pytest.raises(ValueError, match="metric order"):
        build_KH_linear(Xs.T, Xt.T, DenseMetric(np.eye(8), 1.0))


# ------------------------------------------------------------- kernelized builder


def grams(rng, n_s, n_t, gamma=0.7):
    """Two rbf Grams and the ((spec, Ks), (spec, Kt)) pair that prepare_kernels would return."""
    spec = KernelSpec("rbf", gamma)
    Xs, Xt = rng.standard_normal((n_s, 3)), rng.standard_normal((n_t, 4))
    Ks, Kt = gram_matrix(spec, Xs), gram_matrix(spec, Xt)
    return Ks, Kt, ((spec, Ks), (spec, Kt))


def test_build_KH_kernelized_oracle():
    # base + L'HL with L = blockdiag(Ks^(1/2), Kt^(1/2)) built here and H dense
    rng = np.random.default_rng(3)
    Ks, Kt, pk = grams(rng, 4, 3)
    n = 7
    S = _block_diag(gram_root(Ks), gram_root(Kt))
    metric = TransformMetric(n, 5.0, 0.3, unit_atoms(rng, 3, S), rng.uniform(0.1, 1.0, 3))
    K = build_KH_kernelized(pk, metric)
    assert np.allclose(K, _block_diag(Ks, Kt) + S @ lifted(metric, S).matrix @ S, atol=1e-12)


def test_build_KH_kernelized_zero_metric_blockdiag():
    rng = np.random.default_rng(4)
    Ks, Kt, pk = grams(rng, 5, 2)
    K = build_KH_kernelized(pk, TransformMetric(7, 1.0, 0.0, np.empty((0, 7)), np.empty(0)))
    assert np.allclose(K[:5, :5], Ks) and np.allclose(K[5:, 5:], Kt)
    assert np.allclose(K[:5, 5:], 0.0)


def test_build_KH_kernelized_shape_errors():
    rng = np.random.default_rng(5)
    *_, pk = grams(rng, 4, 3)
    with pytest.raises(ValueError, match="metric order"):
        build_KH_kernelized(pk, TransformMetric(6, 1.0, 0.1, np.empty((0, 7)), np.empty(0)))


def test_factor_helpers_compose_the_same_kernel():
    rng = np.random.default_rng(6)
    *_, pk = grams(rng, 3, 3)
    assert block_gram(pk).shape == (6, 6)
    Xs, Xt = rng.standard_normal((3, 2)), rng.standard_normal((4, 5))
    base, lift = linear_factors(Xs.T, Xt.T)
    assert base.shape == (7, 7) and lift.shape == (2 + 5, 7)


# ---------------------------------------------------------------- configuration


def test_config_validation():
    for bad in (
        dict(C=0.0),
        dict(lam=-1.0),
        dict(kernel_family="poly"),
        dict(kernel_gamma=0.0),
        dict(t_max=0),
        dict(conv_tol=0.0),
    ):
        with pytest.raises(ValueError):
            HfaConfig(**bad)


def test_kernel_spec_resolution():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((10, 3))

    def spec(cfg):
        return _domain_gram(cfg, X, "target")[0]

    assert spec(HfaConfig(kernel_family="linear")).family == "linear"
    assert spec(HfaConfig(kernel_family="rbf", kernel_gamma=2.5)).gamma == 2.5
    assert spec(HfaConfig(kernel_family="rbf")).gamma == median_heuristic_gamma(X)


def test_prepare_kernels_contract():
    rng = np.random.default_rng(10)
    Xs, Xt = rng.standard_normal((6, 3)), rng.standard_normal((4, 5))
    cfg = HfaConfig(kernel_family="rbf")
    pk = prepare_kernels(Xs, Xt, cfg)
    base = block_gram(pk)
    assert base.shape == (10, 10)
    spec_s, spec_t = _domain_gram(cfg, Xs, "source")[0], _domain_gram(cfg, Xt, "target")[0]
    assert pk[1][0] == spec_t and spec_s.family == "rbf"
    # different domains resolve different bandwidths
    assert spec_s.gamma != spec_t.gamma
    # the diagonal blocks are the Grams, bit for bit; the domains do not couple
    Ks, Kt = gram_matrix(spec_s, Xs), gram_matrix(spec_t, Xt)
    assert np.array_equal(base[:6, :6], Ks) and np.array_equal(base[6:, 6:], Kt)
    assert not base[:6, 6:].any() and not base[6:, :6].any()
    # base is M = L'L for the lift L = gram_root(base) = blockdiag(Ks^(1/2), Kt^(1/2))
    root = gram_root(base)
    assert np.max(np.abs(root @ root - base)) <= 1e-12 * np.max(np.abs(base))


@pytest.mark.parametrize("family", ["rbf", "linear"])
def test_prepare_kernels_and_svm_t_baseline_factor_nothing(family):
    # the metric reads each Gram itself, so neither arm decomposes it, and a
    # standalone target-only baseline builds its one Gram and nothing else
    rng = np.random.default_rng(12)
    Xs, Xt = rng.standard_normal((14, 3)), rng.standard_normal((11, 4))
    cfg = HfaConfig(kernel_family=family)
    target = Dataset(Xt, np.arange(11) % 3)
    eigh, gram_matrix_ = np.linalg.eigh, hfa.core.gram_matrix
    with mock.patch.object(np.linalg, "eigh", side_effect=eigh) as spy, \
            mock.patch.object(hfa.core, "gram_matrix", side_effect=gram_matrix_) as grams_built:
        prepare_kernels(Xs, Xt, cfg)
        assert (spy.call_count, grams_built.call_count) == (0, 2)
        grams_built.reset_mock()
        svm_t_baseline(target, cfg)
    # the SMO solves may take Newton steps (eigh inside hfa.svm), so the
    # baseline's count is of Grams only
    assert grams_built.call_count == 1


def train_on(kernels):
    """hfa_train on a 4-row source and 3-row target pair handed these kernels;
    both refuse before anything reads the rows."""
    source = Dataset(np.zeros((4, 3)), np.array([1, -1, 1, -1]))
    target = Dataset(np.zeros((3, 4)), np.array([1, -1, 1]))
    return hfa_train(source, target, HfaConfig(), kernels=kernels)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("domain", ["source", "target"])
def test_non_finite_domain_gram_fails_fast(domain, value):
    # the trainer builds working kernels from the two Grams unchecked, so
    # hfa_train refuses a non-finite one
    Ks, Kt, _ = grams(np.random.default_rng(4), 4, 3)
    bad = (Ks if domain == "source" else Kt).copy()
    bad[1, 2] = bad[2, 1] = value
    kernels = ((None, bad), (None, Kt)) if domain == "source" else ((None, Ks), (None, bad))
    with pytest.raises(ValueError, match=f"the {domain} Gram must be finite and exactly symmetric"):
        train_on(kernels)


@pytest.mark.parametrize("domain", ["source", "target"])
def test_asymmetric_domain_gram_fails_fast(domain):
    Ks, Kt, _ = grams(np.random.default_rng(5), 4, 3)
    bad = (Ks if domain == "source" else Kt).copy()
    bad[0, 1] = np.nextafter(bad[0, 1], np.inf)
    kernels = ((None, bad), (None, Kt)) if domain == "source" else ((None, Ks), (None, bad))
    with pytest.raises(ValueError, match=f"the {domain} Gram must be finite and exactly symmetric"):
        train_on(kernels)

