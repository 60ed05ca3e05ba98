import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import hfa.linalg
from hfa.linalg import KernelSpec, _median, cross_gram, kernel_gram
from gram_oracle import gram_matrix, median_heuristic_gamma, symmetrize, two_array_sq_dists
from metric_oracle import frobenius_inner, kernel_value, psd_project, sym_eigen, trace_cap


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
    with pytest.raises(ValueError, match="finite"):
        KernelSpec("rbf", gamma=np.inf)


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
        # exactly symmetric; kernel_gram copies it to C-contiguous rows first
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
    # finite features above about 1e154 overflow a linear kernel: the Gram is
    # checked where it is built, since the dual solver does not scan it
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        gram_matrix(KernelSpec("linear"), [[1e200, 1.0], [1.0, -1e200]])


def test_kernel_gram_checks_its_symmetry(monkeypatch):
    # kernel_gram relies on X @ X.T of C-contiguous rows being exactly
    # symmetric, and checks it rather than assuming it
    X = np.random.default_rng(3).standard_normal((5, 2))
    skewed = hfa.linalg._sq_dists(X, X)
    skewed[0, 1] += 0.5
    monkeypatch.setattr(hfa.linalg, "_sq_dists", lambda X, Z: skewed.copy())
    with pytest.raises(ValueError, match="Gram is not exactly symmetric"):
        kernel_gram("rbf", None, X)


# X has chunks * (rows of X in one chunk) + extra rows and Z has m: below,
# at and above one chunk, several chunks, 1 x 1, chunks of one row (a row
# of Z's longer than a chunk), the 0-row query hfa predict scores for an
# empty body, and no rows of X
@pytest.mark.parametrize("chunks, extra, m", [(1, -1, 64), (1, 0, 64), (1, 1, 64), (3, 5, 64),
                                              (0, 1, 1), (0, 3, 5000), (0, 60, 0), (0, 0, 7)])
def test_sq_dists_matches_the_two_array_formula(chunks, extra, m):
    # the in-place chunked subtraction rounds each entry as the two-array
    # formula does, bit for bit
    n = chunks * (hfa.linalg._CHUNK_BYTES // (8 * max(m, 1))) + extra
    rng = np.random.default_rng(n + m)
    X, Z = 3.0 * rng.standard_normal((n, 7)), rng.standard_normal((m, 7)) + 1.0
    d2 = hfa.linalg._sq_dists(X, Z)
    assert d2.shape == (n, m) and d2.flags.c_contiguous
    assert np.array_equal(d2, two_array_sq_dists(X, Z))
    assert np.array_equal(hfa.linalg._sq_dists(X, X), two_array_sq_dists(X, X))


@pytest.mark.parametrize("n", [1, 2, 63, 300])
def test_kernel_gram_from_chunked_distances_is_exactly_symmetric(n):
    # an rbf Gram over several chunks is exactly symmetric, and is the
    # median rule and exponential of the two-array distances
    X = np.random.default_rng(n).standard_normal((n, 5))
    K = kernel_gram("rbf", None, X)[1]
    assert np.array_equal(K, K.T)
    d2 = two_array_sq_dists(X, X)
    gamma = 1.0 / np.median(d2[np.triu_indices(n, k=1)]) if n > 1 else 1.0
    assert np.array_equal(K, np.exp(-gamma * np.maximum(d2, 0.0)))


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


@pytest.mark.parametrize("X, gamma", [
    (np.random.default_rng(4).standard_normal((11, 3)), 0.15102001672983692),  # 55 pairs
    (np.random.default_rng(5).standard_normal((4, 2)), 0.37286122801126637),  # 6 pairs
    (np.array([[0.0, 1.0], [2.0, -1.0]]), 0.125),
    (np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]), 0.2222222222222222),  # ties
])
def test_median_heuristic_pinned_values(X, gamma):
    # the values np.median gave before the partition-based median replaced it
    assert median_heuristic_gamma(X) == gamma


def test_median_heuristic_nan_input():
    assert np.isnan(median_heuristic_gamma(np.array([[0.0], [np.nan], [1.0]])))


def _assert_same_median(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        want = np.median(values)
        got = _median(values.copy())
    assert np.float64(got).tobytes() == want.tobytes(), (got, want)


@pytest.mark.parametrize("values", [
    [3.0],
    [2.0, 1.0],
    [5.0, 2.0, 2.0, 1.0, 2.0],
    [4.0, 1.0, 1.0, 4.0],
    [-0.0],
    [-0.0, -0.0],
    [0.0, -0.0, -0.0],
    [-0.0, 0.0, -0.0, 0.0],
    [np.inf, 1.0, 2.0],
    [-np.inf, np.inf],
    [np.inf, np.inf, -1.0, 7.0],
    [1.0, np.nan, 2.0],
    [1.0, np.nan, 2.0, 3.0],
    [np.nan],
])
def test_median_matches_numpy_bit_for_bit(values):
    _assert_same_median(values)


def test_median_of_nan_input_is_nan():
    assert np.isnan(_median(np.array([4.0, 1.0, np.nan, 2.0])))
    assert np.isnan(_median(np.array([np.nan, 1.0, 2.0])))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0])), min_size=1, max_size=40))
def test_median_matches_numpy_on_random_arrays(values):
    _assert_same_median(values)


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


def test_frobenius_inner_matches_loop():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))
    assert frobenius_inner(A, B) == pytest.approx(float(np.sum(A * B)), rel=1e-13)
    with pytest.raises(ValueError):
        frobenius_inner(A, np.ones((3, 3)))
