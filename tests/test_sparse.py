"""CSR construction, products, and Matrix Market round-trips."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import random_spd
from gnla.fem import jacobi_instance, paper_jacobi_config
from gnla.sparse import (MatrixFormatError, SparseMatrixCSR, diag, from_coo,
                         from_dense, identity, read_matrix_market, segment_reduce,
                         spectrum_bounds, spmm_csr, spmv_csr, transpose,
                         write_matrix_market)


def test_identity_spmv():
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(spmv_csr(identity(3), x), x)


def test_from_coo_sorts_and_sums_duplicates():
    A = from_coo(3, [2, 0, 0, 2], [0, 1, 1, 0], [1.0, 2.0, 3.0, 4.0],
                 sum_duplicates=True)
    assert A.nnz == 2
    assert A.to_dense()[0, 1] == 5.0
    assert A.to_dense()[2, 0] == 5.0


def test_from_coo_rejects_duplicates_by_default():
    with pytest.raises(MatrixFormatError, match=re.escape("duplicate (row, col) entry (0, 1)")):
        from_coo(2, [1, 0, 0], [0, 1, 1], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("rows, cols, message", [
    ([0, 3], [0, 1], "entry 1: row index 3 out of range for n = 3"),
    ([0, -1], [0, 1], "entry 1: row index -1 out of range for n = 3"),
    ([0, 1], [0, -1], "entry 1: column index -1 out of range for n = 3"),
], ids=["row_n", "row_minus_1", "column_minus_1"])
def test_from_coo_rejects_out_of_range_indices(rows, cols, message):
    with pytest.raises(MatrixFormatError, match=re.escape(message)):
        from_coo(3, rows, cols, [1.0, 2.0])


@st.composite
def coo_triplets(draw):
    """n and unordered (row, col, value) triplets, positions possibly repeated."""
    n = draw(st.integers(0, 6))
    if n == 0:
        return n, []
    index = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(index, index, st.floats(-1e6, 1e6)), max_size=15))


@settings(max_examples=200, deadline=None)
@given(coo_triplets())
@example((0, []))
@example((1, []))
@example((1, [(0, 0, 1.5), (0, 0, -0.5)]))
@example((3, [(2, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (0, 1, 4.0)]))   # row 1 empty
def test_from_coo_matches_dense_oracle(coo):
    n, triplets = coo
    rows = np.array([t[0] for t in triplets], dtype=np.int64)
    cols = np.array([t[1] for t in triplets], dtype=np.int64)
    vals = np.array([t[2] for t in triplets])
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)        # duplicates summed in input order
    positions = sorted(set(zip(rows.tolist(), cols.tolist())))
    A = from_coo(n, rows, cols, vals, sum_duplicates=True)
    assert A.n == n and A.nnz == len(positions)
    assert np.array_equal(A.row_ptr, np.searchsorted([r for r, _ in positions],
                                                     np.arange(n + 1)))
    assert np.array_equal(A.col_idx, [c for _, c in positions])
    assert np.array_equal(A.to_dense(), dense)
    if len(positions) < len(triplets):
        with pytest.raises(MatrixFormatError, match="duplicate"):
            from_coo(n, rows, cols, vals)
    else:
        assert from_coo(n, rows, cols, vals).values.tobytes() == A.values.tobytes()


def test_csr_validation():
    with pytest.raises(MatrixFormatError):
        SparseMatrixCSR(2, [0, 1], [0], [1.0])          # row_ptr too short
    with pytest.raises(MatrixFormatError):
        SparseMatrixCSR(2, [0, 2, 2], [1, 0], [1.0, 1.0])  # decreasing columns
    with pytest.raises(MatrixFormatError):
        SparseMatrixCSR(2, [0, 1, 2], [0, 5], [1.0, 1.0])  # column out of range


def test_csr_columns_may_decrease_across_rows():
    # row 0 ends at column 2, row 1 is empty, row 2 starts again at column 0
    A = SparseMatrixCSR(3, [0, 2, 2, 4], [1, 2, 0, 1], [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(A.to_dense(), [[0, 1, 2], [0, 0, 0], [3, 4, 0]])


def test_csr_repeated_column_names_its_row():
    with pytest.raises(MatrixFormatError, match=r"^row 2: columns not strictly increasing"):
        SparseMatrixCSR(3, [0, 2, 2, 4], [1, 2, 1, 1], [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csr_rejects_non_finite_values(bad):
    with pytest.raises(MatrixFormatError, match=r"^row 1: non-finite value"):
        from_coo(3, [0, 2, 1], [0, 2, 1], [1.0, 2.0, bad])
    dense = np.eye(3)
    dense[1, 2] = bad
    with pytest.raises(MatrixFormatError, match=r"^row 1: non-finite value"):
        from_dense(dense)


@pytest.mark.parametrize("ufunc", [np.add, np.minimum, np.maximum])
def test_segment_reduce_empty_slices_give_zero(ufunc):
    entries = np.array([[3.0, -1.0], [-2.0, 5.0], [4.0, 0.5], [1.0, -7.0]])
    splits = np.array([0, 0, 2, 2, 3, 4, 4])
    want = np.zeros((6, 2))
    for k in range(6):
        if splits[k + 1] > splits[k]:
            want[k] = ufunc.reduce(entries[splits[k]:splits[k + 1]], axis=0)
    assert np.array_equal(segment_reduce(ufunc, entries, splits), want)
    assert np.array_equal(segment_reduce(ufunc, entries[:, 0], splits), want[:, 0])
    assert np.array_equal(segment_reduce(ufunc, entries[:0], np.zeros(3, dtype=int)),
                          np.zeros((2, 2)))


def _general_segment_reduce(ufunc, entries, splits):
    """segment_reduce's general path: zeros, then reduceat on the non-empty slices."""
    out = np.zeros((len(splits) - 1,) + entries.shape[1:])
    nonempty = np.flatnonzero(np.diff(splits) > 0)
    if len(nonempty):
        out[nonempty] = ufunc.reduceat(entries, splits[:-1][nonempty], axis=0)
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.add, np.minimum, np.maximum]), st.booleans(),
       st.integers(0, 3), st.booleans(), st.data())
def test_segment_reduce_matches_general_path_bitwise(ufunc, allow_empty, width,
                                                     integer, data):
    # every slice non-empty takes reduceat alone; the bits and dtype must not move
    counts = data.draw(st.lists(st.integers(0 if allow_empty else 1, 4), max_size=10))
    splits = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    shape = (int(splits[-1]),) + ((width,) if width else ())
    size = int(np.prod(shape))
    values = st.integers(-9, 9) if integer else st.floats(width=64)
    entries = np.array(data.draw(st.lists(values, min_size=size, max_size=size)),
                       dtype=np.int64 if integer else np.float64).reshape(shape)
    got = segment_reduce(ufunc, entries, splits)
    want = _general_segment_reduce(ufunc, entries, splits)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_empty_rows_sum_to_zero():
    A = from_coo(3, [0], [0], [2.0])
    assert np.array_equal(spmv_csr(A, np.ones(3)), [2.0, 0.0, 0.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
def test_spmv_matches_dense(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n, 0.3)
    x = rng.standard_normal(n)
    assert np.allclose(spmv_csr(A, x), A.to_dense() @ x, rtol=1e-13, atol=1e-13)


def test_spmm_matches_dense():
    rng = np.random.default_rng(0)
    A = random_spd(rng, 12, 0.3)
    X = rng.standard_normal((12, 5))
    assert np.allclose(spmm_csr(A, X), A.to_dense() @ X, rtol=1e-13, atol=1e-13)


def test_spmm_columns_bitwise_match_spmv():
    # Chebyshev on probes and on single vectors must agree bit-for-bit
    rng = np.random.default_rng(1)
    A = random_spd(rng, 20, 0.2)
    X = rng.standard_normal((20, 4))
    Y = spmm_csr(A, X)
    for k in range(4):
        assert np.array_equal(Y[:, k], spmv_csr(A, X[:, k]))


def test_diag_and_transpose():
    dense = np.array([[2.0, -1.0, 0.0], [0.0, 3.0, 5.0], [7.0, 0.0, 0.0]])
    A = from_dense(dense)
    assert np.array_equal(diag(A), [2.0, 3.0, 0.0])
    assert np.array_equal(transpose(A).to_dense(), dense.T)


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    A = random_spd(rng, 17, 0.2)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, A)
    B = read_matrix_market(path)
    assert B.n == A.n
    assert np.array_equal(B.row_ptr, A.row_ptr)
    assert np.array_equal(B.col_idx, A.col_idx)
    assert np.array_equal(B.values, A.values)   # 17 digits round-trip exactly


def test_matrix_market_write_format(tmp_path):
    A = from_coo(3, [2, 0, 0], [1, 0, 2], [-0.0, 0.1, 1e-300])
    path = tmp_path / "a.mtx"
    write_matrix_market(path, A)
    assert path.read_text() == ("%%MatrixMarket matrix coordinate real general\n"
                                "3 3 3\n1 1 0.10000000000000001\n1 3 1e-300\n"
                                "3 2 -0\n")


def test_matrix_market_symmetric(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 2\n1 1 2.0\n2 1 -1.0\n")
    A = read_matrix_market(path)
    assert np.array_equal(A.to_dense(), [[2.0, -1.0], [-1.0, 0.0]])


HEADER = "%%MatrixMarket matrix coordinate real general\n"

# malformed file -> the line its error message names
MALFORMED = {
    "": 1,
    "%%MatrixMarket matrix array real general\n2 2 4\n": 1,
    HEADER + "2 3 1\n1 1 1.0\n": 2,                     # not square
    HEADER + "2 2 2\n1 1 1.0\n": 2,                     # entry count
    HEADER + "2 2 1\n3 1 1.0\n": 3,                     # index out of range
    HEADER + "2 2 1\n1 x 1.0\n": 3,                     # non-numeric index
    HEADER + "2 x 1\n1 1 1.0\n": 2,                     # size line
    HEADER + "2 2 2\n1 1 1.0\n2 2\n": 4,                # two fields
    HEADER + "2 2 2\n1 1 1.0\n1 2 1.0 3\n": 4,          # four fields
    HEADER + "2 2 1\n1 1 abc\n": 3,                     # non-numeric value
    HEADER + "% note\n2 2 2\n1 1 1.0\n\n% note\n2 2 nan\n": 7,
    "%%MatrixMarket matrix coordinate real symmetric\n"
    "2 2 2\n1 1 1.0\n3 1 1.0\n": 4,                    # symmetric, out of range
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_matrix_market_malformed(tmp_path, text):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    prefix = f"{path}:{MALFORMED[text]}: "
    with pytest.raises(MatrixFormatError, match="^" + re.escape(prefix)):
        read_matrix_market(path)


@pytest.mark.parametrize("symmetry, entries, position", [
    ("general", "2 1 1.0\n1 1 2.0\n2 1 3.0\n", (2, 1)),
    ("symmetric", "1 1 1.0\n2 1 -1.0\n1 2 -1.0\n", (1, 2)),   # both triangles listed
], ids=["general", "symmetric_both_triangles"])
def test_matrix_market_duplicate_entry_named(tmp_path, symmetry, entries, position):
    path = tmp_path / "dup.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n2 2 3\n{entries}")
    with pytest.raises(MatrixFormatError, match="^" + re.escape(
            f"{path}: duplicate (row, col) entry {position}")):
        read_matrix_market(path)


def test_matrix_market_comments_and_blank_lines_between_entries(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(HEADER + "% a comment\n2 2 2\n\n1 1 1.5\n  % another\n2 1 -2\n")
    assert np.array_equal(read_matrix_market(path).to_dense(), [[1.5, 0.0], [-2.0, 0.0]])


@st.composite
def coo_matrices(draw):
    n = draw(st.integers(1, 6))
    pattern = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rows, cols = np.nonzero(np.array(pattern).reshape(n, n))
    vals = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=len(rows), max_size=len(rows)))
    return n, rows, cols, vals


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(coo_matrices())
@example((1, [0], [0], [2.5]))
@example((1, [], [], []))                     # n = 1 with its only row empty
@example((3, [0, 2], [1, 0], [-0.0, 5e-324]))  # row 1 empty
def test_matrix_market_write_read_roundtrip(tmp_path, coo):
    A = from_coo(*coo)
    path = tmp_path / "r.mtx"
    write_matrix_market(path, A)
    B = read_matrix_market(path)
    assert B.n == A.n
    assert np.array_equal(B.row_ptr, A.row_ptr)
    assert np.array_equal(B.col_idx, A.col_idx)
    assert B.values.tobytes() == A.values.tobytes()   # signed zeros too


# signed zeros, subnormals and the largest finite doubles, which the writer
# must spell as the per-entry "%.17g" did
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1.0]


@st.composite
def matrices_with_repeats(draw):
    """Matrices whose values come from a pool of at most four, so values repeat."""
    n = draw(st.integers(0, 6))
    pattern = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rows, cols = np.nonzero(np.array(pattern, dtype=bool).reshape(n, n))
    pool = draw(st.lists(st.sampled_from(EDGE_FLOATS)
                         | st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=4))
    vals = draw(st.lists(st.sampled_from(pool), min_size=len(rows), max_size=len(rows)))
    return from_coo(n, rows, cols, vals)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrices_with_repeats())
@example(from_coo(0, [], [], []))
@example(from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [-0.0, 0.0, 0.0, -0.0]))
@example(from_coo(3, [0, 1, 2, 2], [2, 1, 0, 2], [5e-324, -5e-324, 1.7976931348623157e308,
                                                  -1.7976931348623157e308]))
def test_write_matrix_market_matches_per_entry_oracle(tmp_path, A):
    path = tmp_path / "w.mtx"
    write_matrix_market(path, A)
    entries = zip((A.row_of_entry() + 1).tolist(), (A.col_idx + 1).tolist(),
                  A.values.tolist())
    want = ("%%MatrixMarket matrix coordinate real general\n"
            f"{A.n} {A.n} {A.nnz}\n" + "".join("%d %d %.17g\n" % e for e in entries))
    assert path.read_bytes() == want.encode()


def _nonsymmetric():
    rng = np.random.default_rng(4)
    return from_dense(rng.standard_normal((30, 30)) * (rng.random((30, 30)) < 0.3))


def _empty_row():
    # row and column 7 empty: the smallest eigenvalue, 0, lives on e_7 alone
    dense = random_spd(np.random.default_rng(5), 20, 0.3).to_dense()
    dense[7] = 0.0
    dense[:, 7] = 0.0
    return from_dense(dense)


SPECTRUM_CASES = {
    "nonsymmetric": _nonsymmetric,
    "n=1": lambda: from_dense([[-3.5]]),
    # four distinct eigenvalues: the Krylov space is exhausted after 4 steps
    "repeated-diagonal": lambda: from_dense(np.diag(np.tile([0.5, 1.0, 2.0, 5.0], 10))),
    "empty-row": _empty_row,
    "paper-laplacian": lambda: jacobi_instance(paper_jacobi_config(), 0).A,
}


@pytest.mark.parametrize("case", list(SPECTRUM_CASES))
def test_spectrum_bounds_match_dense_eigvalsh(case):
    A = SPECTRUM_CASES[case]()
    dense = A.to_dense()
    w = np.linalg.eigvalsh((dense + dense.T) / 2)
    lo, hi = spectrum_bounds(A)
    scale = max(abs(w[0]), abs(w[-1]))
    assert abs(lo - w[0]) <= 1e-12 * scale
    assert abs(hi - w[-1]) <= 1e-12 * scale


def test_spectrum_bounds_of_empty_matrix_raises():
    with pytest.raises(ValueError, match="spectrum_bounds needs a matrix with at least one row"):
        spectrum_bounds(identity(0))
