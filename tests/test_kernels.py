"""GNN kernels against their direct reference implementations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_spd, tridiag
from gnla.kernels import (chebyshev_reference, gnn_chebyshev, gnn_jacobi,
                          gnn_power_method, gnn_spmv, gnn_weighted_norm,
                          jacobi_reference, power_method_reference,
                          weighted_norm_reference)
from gnla.sparse import diag, from_coo, from_dense, identity, spmv_csr


def test_spmv_identity():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(gnn_spmv(identity(3), x), x)


@pytest.mark.parametrize("self_edges", [True, False])
def test_spmv_matches_reference(self_edges):
    rng = np.random.default_rng(0)
    A = random_spd(rng, 30, 0.2)
    x = rng.standard_normal(30)
    got = gnn_spmv(A, x, self_edges=self_edges)
    assert np.allclose(got, spmv_csr(A, x), rtol=1e-14, atol=1e-14)


def test_spmv_dimension_mismatch():
    with pytest.raises(ValueError):
        gnn_spmv(identity(3), np.ones(4))


def test_weighted_norm_identity_weight():
    x = np.array([3.0, 4.0])
    assert gnn_weighted_norm(identity(2), x) == pytest.approx(5.0, abs=1e-14)


def test_weighted_norm_matches_reference():
    rng = np.random.default_rng(1)
    W = random_spd(rng, 25, 0.2)
    x = rng.standard_normal(25)
    got = gnn_weighted_norm(W, x)
    assert got == pytest.approx(weighted_norm_reference(W, x), rel=1e-12)


def test_weighted_norm_rejects_indefinite():
    W = from_dense(np.array([[-1.0]]))
    with pytest.raises(ValueError):
        gnn_weighted_norm(W, np.array([1.0]))


def test_jacobi_matches_reference_bitwise():
    rng = np.random.default_rng(2)
    A = random_spd(rng, 20, 0.3)
    b = rng.standard_normal(20)
    x0 = rng.standard_normal(20)
    got = gnn_jacobi(A, b, x0, 2.0 / 3.0, 15)
    want = jacobi_reference(A, b, x0, 2.0 / 3.0, 15)
    assert np.array_equal(got, want)


def test_jacobi_zero_diagonal_raises():
    A = from_dense(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        gnn_jacobi(A, np.ones(2), np.zeros(2), 1.0, 1)


def test_jacobi_checks_lengths_and_never_returns_x0():
    A, x0 = tridiag(3), np.ones(3)
    for b in (np.ones(1), np.ones(4)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gnn_jacobi(A, b, x0, 1.0, 0)
    x = gnn_jacobi(A, np.ones(3), x0, 1.0, 0)
    assert np.array_equal(x, x0) and not np.shares_memory(x, x0)


def test_jacobi_converges_on_dominant_system():
    A = tridiag(12)
    b = np.ones(12)
    x = gnn_jacobi(A, b, np.zeros(12), 2.0 / 3.0, 1500)
    assert np.linalg.norm(b - spmv_csr(A, x)) < 1e-10


def test_chebyshev_matches_reference_bitwise():
    A = tridiag(15)
    lam = 2.0 - 2.0 * np.cos(np.pi * np.array([1, 15]) / 16)
    b = np.arange(1.0, 16.0)
    got = gnn_chebyshev(A, b, np.zeros(15), lam[0], lam[1], 10)
    want = chebyshev_reference(A, b, np.zeros(15), lam[0], lam[1], 10)
    assert np.array_equal(got, want)


def test_chebyshev_beats_jacobi():
    A = tridiag(31)
    lam = 2.0 - 2.0 * np.cos(np.pi * np.array([1, 31]) / 32)
    b = np.ones(31)
    x_c = chebyshev_reference(A, b, np.zeros(31), lam[0], lam[1], 30)
    x_j = jacobi_reference(A, b, np.zeros(31), 2.0 / 3.0, 30)
    assert (np.linalg.norm(b - spmv_csr(A, x_c))
            < np.linalg.norm(b - spmv_csr(A, x_j)))


def test_chebyshev_degenerate_spectrum_raises():
    with pytest.raises(ValueError):
        gnn_chebyshev(identity(3), np.ones(3), np.zeros(3), 1.0, 1.0, 5)
    with pytest.raises(ValueError):
        gnn_chebyshev(identity(3), np.ones(3), np.zeros(3), -1.0, 1.0, 5)


def test_power_method_diagonal_matrix():
    A = from_dense(np.diag([1.0, 3.0, 2.0]))
    v, lam = gnn_power_method(A, np.ones(3), 100)
    assert lam == pytest.approx(3.0, rel=1e-10)
    assert abs(v[1]) == pytest.approx(1.0, rel=1e-8)


def test_power_method_matches_reference_bitwise():
    rng = np.random.default_rng(4)
    A = random_spd(rng, 18, 0.3)
    b0 = rng.standard_normal(18)
    v_g, lam_g = gnn_power_method(A, b0, 50)
    v_r, lam_r = power_method_reference(A, b0, 50)
    assert np.array_equal(v_g, v_r)
    assert lam_g == lam_r


def test_power_method_zero_start_raises():
    with pytest.raises(ValueError):
        gnn_power_method(identity(3), np.zeros(3), 5)


# -- properties on random patterns: n = 0, n = 1 and empty rows ---------------

@st.composite
def systems(draw):
    """A random n x n pattern (n <= 6, any row may be empty) and two vectors."""
    n = draw(st.integers(0, 6))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                    dtype=bool).reshape(n, n)
    rows, cols = np.nonzero(mask)
    value = st.floats(-10, 10)
    vals = draw(st.lists(value, min_size=len(rows), max_size=len(rows)))
    x, y = (np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=float)
            for _ in range(2))
    return from_coo(n, rows, cols, vals), x, y


EMPTY = (from_coo(0, [], [], []), np.zeros(0), np.zeros(0))
ONE = (from_dense([[2.0]]), np.array([1.5]), np.array([-1.0]))
EMPTY_ROW = (from_dense([[2.0, -1.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 3.0]]),
             np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, -0.5]))


def _close(got, want, scale=1.0):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, scale))


def _scale(A, x) -> float:
    """Largest |A| |x| entry: the size of the sums a product rounds."""
    return float(np.max(np.abs(A.to_dense()) @ np.abs(x), initial=0.0))


@settings(max_examples=150, deadline=None)
@given(systems(), st.booleans())
@example(EMPTY, True)
@example(EMPTY, False)
@example(ONE, False)
@example(EMPTY_ROW, False)
def test_spmv_property(system, self_edges):
    A, x, _ = system
    _close(gnn_spmv(A, x, self_edges=self_edges), A.to_dense() @ x, _scale(A, x))


@settings(max_examples=150, deadline=None)
@given(systems())
@example(EMPTY)
@example(ONE)
@example(EMPTY_ROW)
def test_weighted_norm_property(system):
    W, x, _ = system
    scale = float(np.abs(x) @ (np.abs(W.to_dense()) @ np.abs(x))) if W.n else 0.0
    quad = float(x @ spmv_csr(W, x))
    try:
        got = gnn_weighted_norm(W, x)
    except ValueError as exc:
        assert "quadratic form is negative" in str(exc)
        assert quad < 1e-12 * max(1.0, scale)
        return
    assert quad > -1e-12 * max(1.0, scale)
    # compare squares: the square root magnifies rounding near zero
    _close(got ** 2, max(quad, 0.0), scale)


@settings(max_examples=150, deadline=None)
@given(systems(), st.floats(0.1, 1.5), st.integers(0, 5))
@example(EMPTY, 0.5, 3)
@example(ONE, 0.5, 3)
@example(EMPTY_ROW, 0.5, 3)
@example((from_dense([[2.2250738585e-311]]), np.zeros(1), np.zeros(1)), 1.0, 1)
def test_jacobi_property(system, omega, iters):
    A, b, x0 = system
    if np.any(diag(A) == 0):
        with pytest.raises(ValueError, match="zero diagonal in row"):
            gnn_jacobi(A, b, x0, omega, iters)
        if iters:     # the reference divides by the zero instead
            with np.errstate(all="ignore"):
                assert not np.all(np.isfinite(jacobi_reference(A, b, x0, omega, iters)))
        return
    with np.errstate(all="ignore"):
        want = jacobi_reference(A, b, x0, omega, iters)
        if np.all(np.isfinite(want)):
            _close(gnn_jacobi(A, b, x0, omega, iters), want)
        else:   # e.g. omega / d overflows on a subnormal diagonal: the executor says so
            with pytest.raises(FloatingPointError, match="non-finite"):
                gnn_jacobi(A, b, x0, omega, iters)


@settings(max_examples=150, deadline=None)
@given(systems(), st.integers(0, 5))
@example(EMPTY, 3)
@example(ONE, 3)
@example(EMPTY_ROW, 3)
@example(EMPTY_ROW, 0)
@example((ONE[0], np.array([5e-324]), ONE[2]), 0)     # b0's squares underflow
def test_power_method_property(system, iters):
    A, b0, _ = system
    if not np.sum(b0 * b0) > 0:
        for solver in (gnn_power_method, power_method_reference):
            with pytest.raises(ValueError, match="b0 must have a nonzero norm"):
                solver(A, b0, iters)
        return
    try:
        want_v, want_lam = power_method_reference(A, b0, iters)
    except ValueError:
        with pytest.raises(ValueError, match="null space"):
            gnn_power_method(A, b0, iters)
        return
    got_v, got_lam = gnn_power_method(A, b0, iters)
    _close(got_v, want_v)
    _close(got_lam, want_lam, _scale(A, np.abs(want_v)))


@st.composite
def spd_systems(draw):
    """A diagonally dominant SPD n x n matrix (1 <= n <= 6) on a random symmetric
    pattern in which any row may have no off-diagonal entries, and two vectors."""
    n = draw(st.integers(1, 6))
    value = st.floats(-10, 10)
    upper = np.triu(np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                             dtype=bool).reshape(n, n), 1)
    dense = np.zeros((n, n))
    dense[upper] = draw(st.lists(value, min_size=int(upper.sum()), max_size=int(upper.sum())))
    dense += dense.T
    margin = draw(st.lists(st.floats(0.1, 10), min_size=n, max_size=n))
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + margin)
    b, x0 = (np.array(draw(st.lists(value, min_size=n, max_size=n))) for _ in range(2))
    return from_dense(dense), b, x0


@settings(max_examples=150, deadline=None)
@given(spd_systems(), st.integers(0, 8))
@example(ONE, 3)
@example((from_dense(np.diag([2.0, 3.0, 5.0])), np.ones(3), np.zeros(3)), 3)
@example((from_dense(np.diag([2.0, 2.0])), np.ones(2), np.zeros(2)), 3)
@example((from_dense([[4.0, -1.0, 0.0], [-1.0, 4.0, 0.0], [0.0, 0.0, 1.0]]),
          np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, -0.5])), 5)
def test_chebyshev_property(system, n_iters):
    A, b, x0 = system
    lam = np.linalg.eigvalsh(A.to_dense())
    if lam[0] == lam[-1]:      # n = 1, or a multiple of the identity
        for solver in (gnn_chebyshev, chebyshev_reference):
            with pytest.raises(ValueError, match="degenerate spectrum"):
                solver(A, b, x0, lam[0], lam[-1], n_iters)
        return
    want = chebyshev_reference(A, b, x0, lam[0], lam[-1], n_iters)
    _close(gnn_chebyshev(A, b, x0, lam[0], lam[-1], n_iters), want,
           float(np.max(np.abs(want))))
