"""Augmentation maps, working-kernel builders and kernel preparation."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

import hfa.core
from hfa.core import HfaConfig, PrecomputedKernels, prepare_kernels, _block_diag, _factor_domain, _sqrt_factors
from hfa.linalg import KernelSpec, default_ridge, gram_matrix, median_heuristic_gamma, symmetrize
from hfa.metric import TransformMetric
from linear_oracle import augment_source, augment_target, build_KH_kernelized, build_KH_linear, linear_factors
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


def ridged_root(K):
    """The ridged square root V diag(sqrt(w + default_ridge)) V' of a full-rank
    Gram, computed here without _sqrt_factors."""
    w, V = np.linalg.eigh(K)
    return (V * np.sqrt(w + default_ridge(K))) @ V.T


def grams_and_roots(rng, n_s, n_t, gamma=0.7):
    """Grams, their ridged grams M, and the PrecomputedKernels built from them."""
    spec = KernelSpec("rbf", gamma)
    Xs, Xt = rng.standard_normal((n_s, 3)), rng.standard_normal((n_t, 4))
    Ks, Kt = gram_matrix(spec, Xs), gram_matrix(spec, Xt)
    (ms, _), (mt, coef_map) = _sqrt_factors(Ks, target=False), _sqrt_factors(Kt, target=True)
    return Ks, Kt, ms, mt, PrecomputedKernels(spec, _block_diag(Ks, Kt), _block_diag(ms, mt), coef_map)


def test_build_KH_kernelized_oracle():
    # base + L'HL with L built here from the Grams and H dense
    rng = np.random.default_rng(3)
    Ks, Kt, _, _, pk = grams_and_roots(rng, 4, 3)
    n = 7
    S = _block_diag(ridged_root(Ks), ridged_root(Kt))
    metric = TransformMetric(n, 5.0, 0.3, unit_atoms(rng, 3, S), rng.uniform(0.1, 1.0, 3))
    K = build_KH_kernelized(pk, metric)
    assert np.allclose(K, _block_diag(Ks, Kt) + S @ lifted(metric, S).matrix @ S, atol=1e-12)


def test_build_KH_kernelized_zero_metric_blockdiag():
    rng = np.random.default_rng(4)
    Ks, Kt, _, _, pk = grams_and_roots(rng, 5, 2)
    K = build_KH_kernelized(pk, TransformMetric(7, 1.0, 0.0, np.empty((0, 7)), np.empty(0)))
    assert np.allclose(K[:5, :5], Ks) and np.allclose(K[5:, 5:], Kt)
    assert np.allclose(K[:5, 5:], 0.0)


def test_build_KH_kernelized_shape_errors():
    rng = np.random.default_rng(5)
    *_, pk = grams_and_roots(rng, 4, 3)
    with pytest.raises(ValueError, match="metric order"):
        build_KH_kernelized(pk, TransformMetric(6, 1.0, 0.1, np.empty((0, 7)), np.empty(0)))


def test_factor_helpers_compose_the_same_kernel():
    rng = np.random.default_rng(6)
    *_, pk = grams_and_roots(rng, 3, 3)
    assert pk.base.shape == pk.gram.shape == (6, 6)
    Xs, Xt = rng.standard_normal((3, 2)), rng.standard_normal((4, 5))
    base, lift = linear_factors(Xs.T, Xt.T)
    assert base.shape == (7, 7) and lift.shape == (2 + 5, 7)


# ---------------------------------------------------------------- sqrt factors


def sqrt_factors(K, ridge=None):
    """M and Q of _sqrt_factors for one Gram K as the target's, checking that
    as the source's it gives the same M and no Q; a given ridge replaces
    default_ridge."""
    rule = default_ridge if ridge is None else (lambda _: ridge)
    with mock.patch.object(hfa.core, "default_ridge", rule):
        ms, none = _sqrt_factors(K, target=False)
        mt, Q = _sqrt_factors(K, target=True)
    assert np.array_equal(ms, mt) and none is None
    return mt, Q


def test_sqrt_factor_squares_to_ridged_gram():
    # M = L'L is K + ridge * I where no direction is cut
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 8))
    K = X @ X.T  # full rank almost surely
    ridge = 1e-6
    M, Q = sqrt_factors(K, ridge)
    assert np.allclose(M, K + ridge * np.eye(8), rtol=1e-10, atol=1e-10)
    assert np.allclose(Q @ K, M, rtol=1e-10, atol=1e-10)


def cut_directions(K):
    """Orthonormal columns spanning K's eigendirections at or below 1e-12 of its largest."""
    w, V = np.linalg.eigh(K)
    return V[:, w <= 1e-12 * w[-1]]


def test_inverse_factor_pairs_with_sqrt_on_singular_gram():
    # on a singular Gram (a duplicate row) and a linear Gram with n > d,
    # M and Q vanish on the cut directions and Q K == M holds to round-off
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, 3))
    duplicate = np.vstack([X, X[0]])
    wide = rng.standard_normal((12, 5))
    for K in (duplicate @ duplicate.T, gram_matrix(KernelSpec("linear"), wide)):
        M, Q = sqrt_factors(K)
        P = cut_directions(K)
        assert P.shape[1] == len(K) - np.linalg.matrix_rank(K) > 0
        scale = np.max(np.abs(M))
        assert np.max(np.abs(M @ P)) <= 1e-12 * scale and np.max(np.abs(Q @ P)) <= 1e-12 * np.max(np.abs(Q))
        assert np.max(np.abs(Q @ K - M)) <= 1e-10 * scale


def test_sqrt_factor_zeroes_null_directions():
    K = np.diag([4.0, 1.0, 0.0])
    M, Q = sqrt_factors(K, 1e-10)
    assert M[2, 2] == 0.0 and Q[2, 2] == 0.0
    assert np.isclose(M[0, 0], 4.0 + 1e-10, rtol=1e-15) and np.isclose(Q[0, 0], (4.0 + 1e-10) / 4.0, rtol=1e-15)


def test_ridged_gram_is_exactly_symmetric():
    rng = np.random.default_rng(11)
    for n in (5, 40, 131):
        X = rng.standard_normal((n, 3))
        K = gram_matrix(KernelSpec("rbf", 0.5), X)
        M, Q = sqrt_factors(K)
        assert np.array_equal(M, M.T) and np.array_equal(Q, Q.T)


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
        return _factor_domain(cfg, X, "target")[0]

    assert spec(HfaConfig(kernel_family="linear")).family == "linear"
    assert spec(HfaConfig(kernel_family="rbf", kernel_gamma=2.5)).gamma == 2.5
    assert spec(HfaConfig(kernel_family="rbf")).gamma == median_heuristic_gamma(X)


def test_prepare_kernels_contract():
    rng = np.random.default_rng(10)
    Xs, Xt = rng.standard_normal((6, 3)), rng.standard_normal((4, 5))
    cfg = HfaConfig(kernel_family="rbf")
    pk = prepare_kernels(Xs, Xt, cfg)
    base, gram = pk.base, pk.gram
    assert base.shape == gram.shape == (10, 10) and pk.coef_map.shape == (4, 4)
    spec_s, spec_t = _factor_domain(cfg, Xs, "source")[0], _factor_domain(cfg, Xt, "target")[0]
    assert pk.kernel_target == spec_t and spec_s.family == "rbf"
    # different domains resolve different bandwidths
    assert spec_s.gamma != spec_t.gamma
    # the diagonal blocks are the Grams and their ridged grams L'L, with L
    # recomputed here independently; the domains couple in neither
    Ks, Kt = gram_matrix(spec_s, Xs), gram_matrix(spec_t, Xt)
    assert np.array_equal(base[:6, :6], Ks) and np.array_equal(base[6:, 6:], Kt)
    for block, K in ((gram[:6, :6], Ks), (gram[6:, 6:], Kt)):
        L = ridged_root(K)
        assert np.max(np.abs(block - L @ L)) <= 1e-12 * np.max(np.abs(block))
    assert not base[:6, 6:].any() and not base[6:, :6].any()
    assert not gram[:6, 6:].any() and not gram[6:, :6].any()
    # the coef map turns Kt into the target block of M, and M into gram_root(M) squared
    assert np.max(np.abs(pk.coef_map @ Kt - gram[6:, 6:])) <= 1e-9
    root = gram_root(gram)
    assert np.max(np.abs(root @ root - gram)) <= 1e-12 * np.max(np.abs(gram))


def reference_factors(K):
    """M and Q of a Gram K, built here from np.linalg.eigh of symmetrize(K),
    with eigenvalues descending and the 1e-12 cut."""
    w, V = np.linalg.eigh(symmetrize(K))
    w, V = w[::-1], V[:, ::-1]
    keep = w > 1e-12 * max(w[0], 0.0)
    safe_w = np.where(keep, w, 1.0)
    ridged = np.where(keep, safe_w + default_ridge(K), 0.0)
    return symmetrize((V * ridged) @ V.T), symmetrize((V * (ridged / safe_w)) @ V.T), keep


@pytest.mark.parametrize("family, n_s, n_t", [("rbf", 9, 7), ("linear", 14, 11)])
def test_prepare_kernels_bit_equal_to_eigh_reference(family, n_s, n_t):
    # one eigendecomposition per domain, straight on the checked Gram, gives
    # every bit that factoring a symmetrized copy gives; the linear pair has
    # n > d, so its cut acts in both domains
    rng = np.random.default_rng(12)
    Xs, Xt = rng.standard_normal((n_s, 3)), rng.standard_normal((n_t, 4))
    cfg = HfaConfig(kernel_family=family)
    eigh = np.linalg.eigh
    with mock.patch.object(np.linalg, "eigh", side_effect=eigh) as spy:
        pk = prepare_kernels(Xs, Xt, cfg)
    assert spy.call_count == 2
    Ks = gram_matrix(_factor_domain(cfg, Xs, "source")[0], Xs)
    Kt = gram_matrix(_factor_domain(cfg, Xt, "target")[0], Xt)
    ms, _, keep_s = reference_factors(Ks)
    mt, coef_map, keep_t = reference_factors(Kt)
    assert (family == "linear") == (not keep_s.all()) == (not keep_t.all())
    assert np.array_equal(pk.base, _block_diag(Ks, Kt))
    assert np.array_equal(pk.gram, _block_diag(ms, mt))
    assert np.array_equal(pk.coef_map, coef_map)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["base", "gram"])
def test_non_finite_kernel_factors_fail_fast(name, value):
    # the trainer builds working kernels from base and gram unchecked, so
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
    # the start coupling is a multiple of gram, so gram is held to the same check
    bad = pk.gram.copy()
    bad[0, 1] = np.nextafter(bad[0, 1], np.inf)
    with pytest.raises(ValueError, match="kernel gram must be finite and exactly symmetric"):
        dataclasses.replace(pk, gram=bad)
