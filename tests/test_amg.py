"""Strength of connection, C/F splitting, direct interpolation, two-level cycle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd, tridiag
from gnla import amg
from gnla.amg import (CFPartition, cf_split_greedy, direct_interpolation,
                      soc_classic, soc_sa, step, two_level_solve)
from gnla.kernels import jacobi_reference
from gnla.sparse import SparseMatrixCSR, diag, from_coo, from_dense, spmv_csr


def five_point_laplace(m: int):
    """2-D 5-point Poisson matrix on an m-by-m grid (Dirichlet)."""
    n = m * m
    dense = np.zeros((n, n))
    for i in range(m):
        for j in range(m):
            k = i * m + j
            dense[k, k] = 4.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = i + di, j + dj
                if 0 <= a < m and 0 <= b < m:
                    dense[k, a * m + b] = -1.0
    return from_dense(dense)


def test_step_activation():
    assert np.array_equal(step(np.array([-1.0, 0.0, 0.5])), [0.0, 0.0, 1.0])


def test_soc_sa_values():
    A = from_dense(np.array([[4.0, -2.0], [-2.0, 1.0]]))
    S = soc_sa(A).to_dense()
    assert S[0, 1] == pytest.approx(4.0 / 4.0)
    assert S[0, 0] == pytest.approx(1.0)


def test_soc_sa_diagonal_scaling_invariance():
    # S(DAD) = S(A) for any positive diagonal scaling D
    rng = np.random.default_rng(0)
    A = random_spd(rng, 20, 0.3)
    d = rng.uniform(0.5, 2.0, 20)
    A_scaled = from_dense(np.outer(d, d) * A.to_dense())
    assert np.allclose(soc_sa(A_scaled).to_dense(), soc_sa(A).to_dense(),
                       rtol=1e-13, atol=1e-13)


def test_soc_classic_known_pattern():
    # anisotropic 9-point stencil: only N/S survive tau = 0.25
    dense = np.array([
        [1.068, -0.533, 0.266, -0.1335],
        [-0.533, 1.068, -0.1335, 0.266],
        [0.266, -0.1335, 1.068, -0.533],
        [-0.1335, 0.266, -0.533, 1.068]])
    S = soc_classic(from_dense(dense), 0.25).to_dense()
    # N/S is strong; the positive E/W entry has a negative ratio and drops out;
    # the corner ratio 0.1335/0.533 = 0.2505 sits just above tau and survives
    assert S[0, 1] == 1.0 and S[0, 2] == 0.0 and S[0, 3] == 1.0


def test_soc_classic_positive_scaling_invariance():
    rng = np.random.default_rng(1)
    A = tridiag(15)
    S = soc_classic(A, 0.25).to_dense()
    scale = rng.uniform(0.5, 3.0)
    S2 = soc_classic(from_dense(scale * A.to_dense()), 0.25).to_dense()
    assert np.allclose(S, S2, atol=1e-13)


def test_soc_classic_no_negative_offdiag_raises():
    A = from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        soc_classic(A)
    # a row holding only its diagonal entry has no off-diagonal at all
    A = from_dense(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 3.0]]))
    with pytest.raises(ValueError, match="row 2 has no negative off-diagonal"):
        soc_classic(A)


def test_soc_classic_tau_validation():
    with pytest.raises(ValueError):
        soc_classic(tridiag(5), tau=0.0)


def test_cf_split_is_maximal_independent_set():
    A = five_point_laplace(6)
    S = soc_classic(A, 0.25)
    cf = cf_split_greedy(S)
    dense = S.to_dense()
    C = np.flatnonzero(cf.labels == "C")
    # no two C vertices strongly connected; every F vertex touches a C vertex
    for i in C:
        for j in C:
            if i != j:
                assert dense[i, j] == 0.0 and dense[j, i] == 0.0
    for i in np.flatnonzero(cf.labels == "F"):
        assert any(dense[i, j] != 0 or dense[j, i] != 0 for j in C)


def test_direct_interpolation_c_rows_are_unit():
    A = five_point_laplace(5)
    S = soc_classic(A, 0.25)
    cf = cf_split_greedy(S)
    _, P = direct_interpolation(A, S, cf)
    for i, k in cf.coarse_index.items():
        row = np.zeros(cf.num_coarse)
        row[k] = 1.0
        assert np.array_equal(P[i], row)


def test_direct_interpolation_f_rows_sum_to_one_on_zero_rowsum():
    # 1-D periodic Laplacian has zero row sums; interpolation preserves constants
    n = 16
    dense = 2.0 * np.eye(n)
    for i in range(n):
        dense[i, (i + 1) % n] = -1.0
        dense[i, (i - 1) % n] = -1.0
    A = from_dense(dense)
    S = soc_classic(A, 0.25)
    cf = cf_split_greedy(S)
    _, P = direct_interpolation(A, S, cf)
    fine = np.flatnonzero(cf.labels == "F")
    assert np.allclose(P[fine].sum(axis=1), 1.0, atol=1e-12)


def test_direct_interpolation_pattern_mismatch_raises():
    A = tridiag(5)
    S = soc_classic(five_point_laplace(3), 0.25)
    with pytest.raises(ValueError):
        direct_interpolation(A, S, cf_split_greedy(soc_classic(A, 0.25)))


def test_two_level_beats_plain_jacobi():
    A = tridiag(63)
    b = np.ones(63)
    x, residuals = two_level_solve(A, b, iters=30, collect_residuals=True)
    assert residuals[-1] < 1e-8
    x_j = jacobi_reference(A, b, np.zeros(63), 2.0 / 3.0, 30)
    assert np.linalg.norm(b - spmv_csr(A, x_j)) > 1e-2


def test_two_level_monotone_residuals():
    A = tridiag(31)
    _, residuals = two_level_solve(A, np.ones(31), iters=8, collect_residuals=True)
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_two_level_solve_is_scale_free():
    # det(A_coarse) of the scaled matrix underflows to 0; the matrix is still SPD
    A, b = tridiag(63), np.ones(63)
    x = two_level_solve(A, b, iters=30)
    x_s, residuals = two_level_solve(tridiag(63, -1e-12, 2e-12, -1e-12), 1e-12 * b,
                                     iters=30, collect_residuals=True)
    assert residuals[-1] < 1e-8 * residuals[0]
    assert np.allclose(x_s, x, rtol=1e-10, atol=0)


def test_two_level_solve_builds_no_dense_operator(monkeypatch):
    # neither A.to_dense() (n x n) nor direct_interpolation's P (n x |C|)
    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator was built")

    monkeypatch.setattr(SparseMatrixCSR, "to_dense", refuse)
    monkeypatch.setattr(amg, "direct_interpolation", refuse)
    A, b = tridiag(63), np.ones(63)
    _, residuals = two_level_solve(A, b, iters=30, collect_residuals=True)
    assert residuals[-1] < 1e-8
    # tau = 1 leaves no strong connection: every vertex is C, P = I, and one
    # cycle solves exactly
    _, residuals = two_level_solve(A, b, tau=1.0, iters=1, collect_residuals=True)
    assert residuals[-1] < 1e-12 * residuals[0]


def test_two_level_solve_singular_coarse_matrix_raises():
    # P = [1, 1]^T spans A's null space, so A_coarse = P^T A P is exactly 0
    A = from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    S = soc_classic(A)
    cf = cf_split_greedy(S)
    _, P = direct_interpolation(A, S, cf)
    assert np.array_equal(P, [[1.0], [1.0]])
    _, rows, cols, vals = amg._interpolation(A, S, cf)
    assert np.array_equal(amg._galerkin(A, rows, cols, vals, 1), [[0.0]])
    with pytest.raises(np.linalg.LinAlgError, match="^coarse matrix is singular$"):
        two_level_solve(A, np.ones(2))


# -- property tests of the layer kernels against dense per-row oracles ------

SIGNED = st.one_of(st.integers(-8, 8).map(lambda k: k / 4.0),        # ties and zeros
                   st.floats(0.25, 4.0), st.floats(-4.0, -0.25))
WEIGHT = st.one_of(st.just(0.0), st.integers(1, 8).map(lambda k: k / 4.0),
                   st.floats(0.25, 4.0))


@st.composite
def general_matrices(draw):
    """Random patterns and signs: empty rows, rows holding only a diagonal
    entry, positive off-diagonals, stored zeros and n = 1 all occur."""
    n = draw(st.integers(1, 7))
    stored = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    values = np.array(draw(st.lists(SIGNED, min_size=n * n, max_size=n * n)))
    rows, cols = np.nonzero(stored.reshape(n, n))
    return from_coo(n, rows, cols, values.reshape(n, n)[rows, cols])


@st.composite
def m_matrices(draw):
    """Diagonally dominant M-matrices with every diagonal stored, and a random
    strength pattern on the same sparsity pattern."""
    n = draw(st.integers(1, 7))
    off = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(off, False)
    weights = np.array(draw(st.lists(WEIGHT, min_size=n * n, max_size=n * n))).reshape(n, n)
    strong = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    extra = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    dense = np.where(off, -weights, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + extra)
    rows, cols = np.nonzero(off | np.eye(n, dtype=bool))
    A = from_coo(n, rows, cols, dense[rows, cols])
    S = from_coo(n, rows, cols, strong[rows, cols].astype(float))
    return A, S


@settings(max_examples=300, deadline=None)
@given(general_matrices(), st.sampled_from([0.25, 0.5, 1.0]))
def test_soc_layers_match_row_oracles(A, tau):
    want_classic, undefined = [], []
    for i in range(A.n):
        cols, vals = A.row(i)
        m_neg = max(-vals[cols != i], default=-np.inf)
        if m_neg > 0:
            want_classic += [float(-a / m_neg - tau > 0) for a in vals]
        else:
            undefined.append(i)
    if undefined:
        with pytest.raises(ValueError, match=f"row {undefined[0]} has no negative"):
            soc_classic(A, tau)
    else:
        S = soc_classic(A, tau)
        assert np.array_equal(S.col_idx, A.col_idx)
        assert np.array_equal(S.values, want_classic)


def _set_greedy_labels(S_hat) -> list[str]:
    """The greedy split written with one Python set of strong neighbours per
    vertex (either direction, diagonal and stored zeros excluded)."""
    neighbors = [set() for _ in range(S_hat.n)]
    for i in range(S_hat.n):
        for j, s in zip(*S_hat.row(i)):
            if s != 0 and j != i:
                neighbors[i].add(int(j))
                neighbors[j].add(i)
    labels = [""] * S_hat.n
    for i in range(S_hat.n):
        if labels[i] == "":
            labels[i] = "C"
            for j in neighbors[i]:
                if labels[j] == "":
                    labels[j] = "F"
    return labels


@settings(max_examples=300, deadline=None)
@given(general_matrices())
def test_cf_split_matches_set_based_greedy(S_hat):
    # P keeps its bits only if every label does
    cf = cf_split_greedy(S_hat)
    want = _set_greedy_labels(S_hat)
    assert cf.labels.dtype == np.dtype("U1") and cf.labels.tolist() == want
    assert cf.coarse_index == {i: k for k, i in enumerate(
        i for i, label in enumerate(want) if label == "C")}


@settings(max_examples=300, deadline=None)
@given(m_matrices())
def test_direct_interpolation_matches_row_oracle(case):
    A, S = case
    cf = cf_split_greedy(S)
    coarse = cf.labels == "C"
    strong = S.to_dense() != 0
    want = np.zeros((A.n, cf.num_coarse))
    for i in range(A.n):
        cols, vals = A.row(i)
        if coarse[i]:
            want[i, cf.coarse_index[i]] = 1.0
            continue
        nbrs = [(j, a) for j, a in zip(cols, vals) if j != i]
        num = sum(a for _, a in nbrs)
        den = vals[cols == i][0] * sum(a for j, a in nbrs if coarse[j] and strong[i, j])
        if den == 0:
            with pytest.raises(ValueError, match=f"F row {i} has no usable strong"):
                direct_interpolation(A, S, cf)
            return
        for j, a in nbrs:
            if coarse[j] and strong[i, j]:
                want[i, cf.coarse_index[j]] = -a * (num / den)
    _, P = direct_interpolation(A, S, cf)
    np.testing.assert_allclose(P, want, rtol=1e-14, atol=0)


@st.composite
def weak_c_neighbour_cases(draw):
    """M-matrices with a C/F split in which every F row has a strong C
    neighbour, and F row 2 also has a weak one (C vertex 1)."""
    n = draw(st.integers(3, 8))
    coarse = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    coarse[:3] = [True, True, False]
    off = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    strong = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    for i in np.flatnonzero(~coarse):
        j = draw(st.sampled_from(np.flatnonzero(coarse).tolist()))
        off[i, j] = strong[i, j] = True
    off[2, :2], strong[2, :2] = True, [True, False]
    np.fill_diagonal(off, False)
    weights = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=n * n, max_size=n * n)))
    dense = np.where(off, -weights.reshape(n, n), 0.0)
    extra = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    # zero row sums occur; a row with no off-diagonal entry gets A_ii >= 1
    np.fill_diagonal(dense, -dense.sum(axis=1) + extra + ~off.any(axis=1))
    rows, cols = np.nonzero(off | np.eye(n, dtype=bool))
    A = from_coo(n, rows, cols, dense[rows, cols])
    S = from_coo(n, rows, cols, strong[rows, cols].astype(float))
    labels = np.where(coarse, "C", "F")
    cf = CFPartition(labels, {int(c): k for k, c in enumerate(np.flatnonzero(coarse))})
    return A, S, cf


@settings(max_examples=200, deadline=None)
@given(weak_c_neighbour_cases())
def test_direct_interpolation_f_rows_sum_from_strong_c_neighbours(case):
    # P is 0 in weak C columns, and each F row sums to 1 - (sum_j A_ij) / A_ii
    A, S, cf = case
    dense, strong = A.to_dense(), S.to_dense() != 0
    _, P = direct_interpolation(A, S, cf)
    fine = np.flatnonzero(cf.labels == "F")
    for i in fine:
        for j, k in cf.coarse_index.items():
            if not strong[i, j]:
                assert P[i, k] == 0.0
    want = 1.0 - dense[fine].sum(axis=1) / np.diag(dense)[fine]
    np.testing.assert_allclose(P[fine].sum(axis=1), want, rtol=1e-12, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(weak_c_neighbour_cases(), st.booleans())
def test_sparse_galerkin_product_matches_dense(case, all_coarse):
    # each entry within 1e-13 of the magnitude of the terms it sums
    A, S, cf = case
    if all_coarse:
        cf = CFPartition(np.full(A.n, "C"), {i: i for i in range(A.n)})
    _, rows, cols, vals = amg._interpolation(A, S, cf)
    _, P = direct_interpolation(A, S, cf)
    dense = A.to_dense()
    got = amg._galerkin(A, rows, cols, vals, cf.num_coarse)
    want = P.T @ dense @ P
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(P).T @ np.abs(dense) @ np.abs(P)))
    if all_coarse:   # P = I, so A_coarse is A itself
        assert np.array_equal(P, np.eye(A.n)) and np.array_equal(got, dense)
