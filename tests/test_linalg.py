import numpy as np
import pytest
from numpy.testing import assert_allclose

from hfa.linalg import (
    KernelSpec,
    cross_gram,
    default_ridge,
    gram_matrix,
    median_heuristic_gamma,
    sym_eigen,
    symmetrize,
)
from metric_oracle import frobenius_inner, kernel_value, psd_project, trace_cap


def random_sym(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return 0.5 * (A + A.T)


def random_psd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return A @ A.T


def test_kernel_spec_validation():
    KernelSpec("linear")
    KernelSpec("rbf", gamma=0.5)
    with pytest.raises(ValueError):
        KernelSpec("poly")
    with pytest.raises(ValueError):
        KernelSpec("rbf")
    with pytest.raises(ValueError):
        KernelSpec("rbf", gamma=0.0)
    with pytest.raises(ValueError):
        KernelSpec("rbf", gamma=-1.0)


def test_kernel_value_against_formula():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        assert kernel_value(KernelSpec("linear"), a, b) == pytest.approx(np.dot(a, b), rel=1e-14)
        g = float(rng.uniform(0.1, 2.0))
        expect = np.exp(-g * np.sum((a - b) ** 2))
        assert kernel_value(KernelSpec("rbf", g), a, b) == pytest.approx(expect, rel=1e-14)


def test_kernel_value_dim_mismatch():
    with pytest.raises(ValueError):
        kernel_value(KernelSpec("linear"), np.ones(3), np.ones(4))


def test_gram_matrix_matches_pairwise_loop():
    rng = np.random.default_rng(1)
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 0.37)):
        X = rng.standard_normal((9, 4))
        K = gram_matrix(spec, X)
        brute = np.array([[kernel_value(spec, X[i], X[j]) for j in range(9)] for i in range(9)])
        assert_allclose(K, brute, atol=1e-12)
        assert np.array_equal(K, K.T)
        # at this size a column-strided view gives a product that is not
        # exactly symmetric until gram_matrix symmetrizes it
        strided = gram_matrix(spec, rng.standard_normal((660, 8))[:, ::2])
        assert np.array_equal(strided, strided.T)


def test_gram_matrix_rbf_range_and_psd():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((12, 5))
    K = gram_matrix(KernelSpec("rbf", 0.8), X)
    assert np.all(K > 0) and np.all(K <= 1.0 + 1e-15)
    assert_allclose(np.diag(K), 1.0, atol=1e-15)
    w = np.linalg.eigvalsh(K)
    assert w.min() >= -1e-10 * max(1.0, w.max())


def test_gram_matrix_errors():
    with pytest.raises(ValueError):
        gram_matrix(KernelSpec("linear"), np.empty((0, 3)))
    with pytest.raises(ValueError):
        gram_matrix(KernelSpec("linear"), [[1.0, 2.0], [1.0]])


def test_cross_gram_matches_pairwise_loop():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 4))
    Z = rng.standard_normal((5, 4))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 1.3)):
        G = cross_gram(spec, X, Z)
        brute = np.array([[kernel_value(spec, X[i], Z[j]) for j in range(5)] for i in range(6)])
        assert_allclose(G, brute, atol=1e-12)
    with pytest.raises(ValueError):
        cross_gram(KernelSpec("linear"), X, rng.standard_normal((5, 3)))


def test_median_heuristic_matches_brute_force():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((11, 3))
    d2 = []
    for i in range(11):
        for j in range(i + 1, 11):
            d2.append(np.sum((X[i] - X[j]) ** 2))
    assert median_heuristic_gamma(X) == pytest.approx(1.0 / np.median(d2), rel=1e-12)


def test_median_heuristic_degenerate():
    assert median_heuristic_gamma(np.zeros((5, 2))) == 1.0
    assert median_heuristic_gamma(np.ones((1, 4))) == 1.0


def test_sym_eigen_reconstruction_and_order():
    rng = np.random.default_rng(5)
    for n in (1, 2, 6, 13):
        M = random_sym(rng, n)
        w, V = sym_eigen(M)
        assert np.all(np.diff(w) <= 1e-12)
        assert_allclose(V.T @ V, np.eye(n), atol=1e-10)
        assert_allclose((V * w) @ V.T, M, atol=1e-10)


def test_sym_eigen_known_2x2():
    # [[2,1],[1,2]] has eigenvalues 3 and 1
    w, V = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(w, [3.0, 1.0], atol=1e-12)


def test_sym_eigen_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_eigen(np.ones((2, 3)))
    with pytest.raises(ValueError):
        sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_psd_project_known_case():
    P = psd_project(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert_allclose(P, np.ones((2, 2)), atol=1e-12)


def test_psd_project_identity_on_psd():
    rng = np.random.default_rng(8)
    M = random_psd(rng, 5)
    assert_allclose(psd_project(M), symmetrize(M), atol=1e-12 * np.trace(M))


def test_psd_project_is_nearest_psd():
    # projection must beat random PSD candidates in Frobenius distance
    rng = np.random.default_rng(9)
    for _ in range(10):
        M = random_sym(rng, 4)
        P = psd_project(M)
        w = np.linalg.eigvalsh(P)
        assert w.min() >= -1e-10
        base = np.linalg.norm(P - M)
        for _ in range(50):
            cand = random_psd(rng, 4)
            assert base <= np.linalg.norm(cand - M) + 1e-10
        # idempotent
        assert_allclose(psd_project(P), P, atol=1e-10)


def test_trace_cap():
    M = np.eye(3) * 2.0
    out = trace_cap(M, 3.0)
    assert np.trace(out) == pytest.approx(3.0, rel=1e-15)
    assert np.array_equal(trace_cap(M, 7.0), M)
    with pytest.raises(ValueError):
        trace_cap(M, 0.0)


def test_default_ridge():
    assert default_ridge(np.eye(4) * 2.0) == pytest.approx(2e-8, rel=1e-12)
    assert default_ridge(np.zeros((3, 3))) == 1e-12


def test_frobenius_inner_matches_loop():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))
    assert frobenius_inner(A, B) == pytest.approx(float(np.sum(A * B)), rel=1e-13)
    with pytest.raises(ValueError):
        frobenius_inner(A, np.ones((3, 3)))
