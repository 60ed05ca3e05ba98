"""Augmentation maps, working-kernel builders and kernel preparation."""

import dataclasses

import numpy as np
import pytest

from hfa.core import HfaConfig, PrecomputedKernels, prepare_kernels, _block_diag, _sqrt_factors
from hfa.linalg import KernelSpec, default_ridge, gram_matrix, median_heuristic_gamma, symmetrize
from hfa.metric import initial_metric
from linear_oracle import augment_source, augment_target, build_KH_kernelized, build_KH_linear, linear_factors
from metric_oracle import DenseMetric


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


def grams_and_roots(rng, n_s, n_t, gamma=0.7):
    """Grams, their ridged roots, and the PrecomputedKernels built from them."""
    spec = KernelSpec("rbf", gamma)
    Xs, Xt = rng.standard_normal((n_s, 3)), rng.standard_normal((n_t, 4))
    Ks, Kt = gram_matrix(spec, Xs), gram_matrix(spec, Xt)
    ks, _ = _sqrt_factors(Ks, default_ridge(Ks))
    kt, kt_inv = _sqrt_factors(Kt, default_ridge(Kt))
    return Ks, Kt, ks, kt, PrecomputedKernels(spec, _block_diag(Ks, Kt), _block_diag(ks, kt), kt_inv)


def test_build_KH_kernelized_oracle():
    rng = np.random.default_rng(3)
    Ks, Kt, ks, kt, pk = grams_and_roots(rng, 4, 3)
    n = 7
    B = rng.standard_normal((n, n))
    H = B @ B.T
    metric = DenseMetric(H, float(np.trace(H)) + 1.0)
    K = build_KH_kernelized(pk, metric)
    S = np.zeros((n, n))
    S[:4, :4], S[4:, 4:] = ks, kt
    base = np.zeros((n, n))
    base[:4, :4], base[4:, 4:] = Ks, Kt
    assert np.allclose(K, base + S @ metric.matrix @ S, atol=1e-12)


def test_build_KH_kernelized_zero_metric_blockdiag():
    rng = np.random.default_rng(4)
    Ks, Kt, _, _, pk = grams_and_roots(rng, 5, 2)
    K = build_KH_kernelized(pk, DenseMetric(np.zeros((7, 7)), 1.0))
    assert np.allclose(K[:5, :5], Ks) and np.allclose(K[5:, 5:], Kt)
    assert np.allclose(K[:5, 5:], 0.0)


def test_build_KH_kernelized_shape_errors():
    rng = np.random.default_rng(5)
    *_, pk = grams_and_roots(rng, 4, 3)
    with pytest.raises(ValueError, match="metric order"):
        build_KH_kernelized(pk, DenseMetric(np.eye(6), 1.0))


def test_factor_helpers_compose_the_same_kernel():
    rng = np.random.default_rng(6)
    *_, pk = grams_and_roots(rng, 3, 3)
    assert pk.base.shape == pk.lift.shape == (6, 6)
    Xs, Xt = rng.standard_normal((3, 2)), rng.standard_normal((4, 5))
    base, lift = linear_factors(Xs.T, Xt.T)
    assert base.shape == (7, 7) and lift.shape == (2 + 5, 7)


# ---------------------------------------------------------------- sqrt factors


def test_sqrt_factor_squares_to_ridged_gram():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 8))
    K = X @ X.T  # full rank almost surely
    ridge = 1e-6
    s, _ = _sqrt_factors(K, ridge)
    assert np.allclose(s @ s, K + ridge * np.eye(8), rtol=1e-10, atol=1e-10)


def test_inverse_factor_pairs_with_sqrt_on_singular_gram():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, 3))
    X = np.vstack([X, X[0]])  # duplicate row makes the Gram singular
    K = X @ X.T
    s, inv = _sqrt_factors(K, 1e-8)
    assert np.max(np.abs(inv @ K - s)) <= 1e-10 * np.max(np.abs(s))


def test_sqrt_factor_zeroes_null_directions():
    K = np.diag([4.0, 1.0, 0.0])
    s, inv = _sqrt_factors(K, 1e-10)
    assert s[2, 2] == 0.0 and inv[2, 2] == 0.0
    assert np.isclose(s[0, 0], np.sqrt(4.0 + 1e-10))


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
    assert HfaConfig(kernel_family="linear").kernel_spec_for(X).family == "linear"
    spec = HfaConfig(kernel_family="rbf", kernel_gamma=2.5).kernel_spec_for(X)
    assert spec.gamma == 2.5
    auto = HfaConfig(kernel_family="rbf").kernel_spec_for(X)
    assert auto.gamma == median_heuristic_gamma(X)


def test_prepare_kernels_contract():
    rng = np.random.default_rng(10)
    Xs, Xt = rng.standard_normal((6, 3)), rng.standard_normal((4, 5))
    cfg = HfaConfig(kernel_family="rbf")
    pk = prepare_kernels(Xs, Xt, cfg)
    base, lift = pk.base, pk.lift
    assert base.shape == lift.shape == (10, 10) and pk.kt_inv_sqrt.shape == (4, 4)
    spec_s, spec_t = cfg.kernel_spec_for(Xs), cfg.kernel_spec_for(Xt)
    assert pk.kernel_target == spec_t and spec_s.family == "rbf"
    # different domains resolve different bandwidths
    assert spec_s.gamma != spec_t.gamma
    # the diagonal blocks are the Grams and their ridged roots, recomputed
    # here independently; the domains do not couple in either factor
    Ks, Kt = gram_matrix(spec_s, Xs), gram_matrix(spec_t, Xt)
    assert np.array_equal(base[:6, :6], Ks) and np.array_equal(base[6:, 6:], Kt)
    assert np.array_equal(lift[:6, :6], _sqrt_factors(Ks, default_ridge(Ks))[0])
    assert np.array_equal(lift[6:, 6:], _sqrt_factors(Kt, default_ridge(Kt))[0])
    assert not base[:6, 6:].any() and not base[6:, :6].any()
    assert not lift[:6, 6:].any() and not lift[6:, :6].any()
    assert np.max(np.abs(pk.kt_inv_sqrt @ Kt - lift[6:, 6:])) <= 1e-9


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["base", "lift"])
def test_non_finite_kernel_factors_fail_fast(name, value):
    # the trainer builds working kernels from base and lift unchecked, so
    # PrecomputedKernels refuses non-finite ones, naming the factor
    *_, pk = grams_and_roots(np.random.default_rng(4), 4, 3)
    bad = getattr(pk, name).copy()
    bad[1, 5] = bad[5, 1] = value
    with pytest.raises(ValueError, match=f"kernel {name} must be finite"):
        dataclasses.replace(pk, **{name: bad})


def test_asymmetric_kernel_base_fails_fast():
    *_, pk = grams_and_roots(np.random.default_rng(5), 4, 3)
    bad = pk.base.copy()
    bad[0, 1] = np.nextafter(bad[0, 1], np.inf)
    with pytest.raises(ValueError, match="kernel base must be finite and exactly symmetric"):
        dataclasses.replace(pk, base=bad)


def test_start_coupling_is_built_once_per_budget():
    *_, pk = grams_and_roots(np.random.default_rng(6), 4, 3)
    first = pk.start_coupling(2.0)
    assert pk.start_coupling(2.0) is first
    # the start metric of the alternation, through the square roots
    assert np.array_equal(first, symmetrize(pk.lift.T @ (initial_metric(7, 2.0).scale * pk.lift)))
    assert not np.array_equal(pk.start_coupling(3.0), first)
    # a copy with other factors starts with no couplings of its own
    assert dataclasses.replace(pk, lift=2.0 * pk.lift).start_coupling(2.0) is not first
