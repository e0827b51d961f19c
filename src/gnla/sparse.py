"""Square sparse CSR matrices, reference linear algebra, and Matrix Market I/O."""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class MatrixFormatError(ValueError):
    """Raised for malformed Matrix Market files or inconsistent CSR data."""


def dense_vector(values) -> np.ndarray:
    """Validate and return a 1-D float64 vector with finite entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SparseMatrixCSR:
    """Square sparse matrix in CSR layout.

    Columns within each row are strictly increasing; explicit stored zeros are
    permitted so derived matrices can keep the sparsity pattern of their input.
    Instances are immutable after construction and safe to share.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_ptr", np.asarray(self.row_ptr, dtype=np.int64))
        object.__setattr__(self, "col_idx", np.asarray(self.col_idx, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        rp, ci = self.row_ptr, self.col_idx
        if rp.shape != (self.n + 1,):
            raise MatrixFormatError("row_ptr must have length n+1")
        if rp[0] != 0 or rp[-1] != len(ci) or np.any(np.diff(rp) < 0):
            raise MatrixFormatError("row_ptr must be non-decreasing from 0 to nnz")
        if len(ci) != len(self.values):
            raise MatrixFormatError("col_idx and values length mismatch")
        if len(ci) and (ci.min() < 0 or ci.max() >= self.n):
            raise MatrixFormatError("column index out of range")
        # compare each entry with the one before it, except at a row's start
        bad = np.flatnonzero(np.diff(ci) <= 0) + 1
        bad = bad[~np.isin(bad, rp)]
        if len(bad):
            raise MatrixFormatError(f"row {_row_of(rp, bad[0])}: "
                                    "columns not strictly increasing")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if len(bad):
            raise MatrixFormatError(f"row {_row_of(rp, bad[0])}: "
                                    f"non-finite value {self.values[bad[0]]}")

    @property
    def nnz(self) -> int:
        return len(self.values)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i``."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        return self.col_idx[lo:hi], self.values[lo:hi]

    def row_of_entry(self) -> np.ndarray:
        """Row index of each stored entry, aligned with ``values``."""
        return np.repeat(np.arange(self.n), np.diff(self.row_ptr))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[self.row_of_entry(), self.col_idx] = self.values
        return dense


def _row_of(row_ptr: np.ndarray, k: int) -> int:
    """Row holding stored entry ``k``."""
    return int(np.searchsorted(row_ptr, k, side="right")) - 1


def from_coo(n: int, rows, cols, vals, sum_duplicates: bool = False) -> SparseMatrixCSR:
    """Build a CSR matrix from unordered coordinate triplets."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    for name, idx in (("row", rows), ("column", cols)):
        if len(idx) and (idx.min() < 0 or idx.max() >= n):
            k = np.flatnonzero((idx < 0) | (idx >= n))[0]
            raise MatrixFormatError(f"entry {k}: {name} index {idx[k]} out of range for n = {n}")
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if len(rows):
        dup = (np.diff(rows) == 0) & (np.diff(cols) == 0)
        if np.any(dup):
            if not sum_duplicates:
                k = np.argmax(dup)
                raise MatrixFormatError(f"duplicate (row, col) entry ({rows[k]}, {cols[k]})")
            keep = np.concatenate(([True], ~dup))
            group = np.cumsum(keep) - 1
            summed = np.zeros(group[-1] + 1)
            np.add.at(summed, group, vals)
            rows, cols, vals = rows[keep], cols[keep], summed
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_ptr, rows + 1, 1)
    np.cumsum(row_ptr, out=row_ptr)
    return SparseMatrixCSR(n, row_ptr, cols, vals)


def from_dense(dense) -> SparseMatrixCSR:
    """The nonzero entries of a square dense matrix."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise MatrixFormatError("dense input must be square")
    rows, cols = np.nonzero(dense)
    return from_coo(dense.shape[0], rows, cols, dense[rows, cols])


def identity(n: int) -> SparseMatrixCSR:
    idx = np.arange(n)
    return SparseMatrixCSR(n, np.arange(n + 1), idx, np.ones(n))


def spmv_csr(A: SparseMatrixCSR, x: np.ndarray) -> np.ndarray:
    """y = A x, each row summed over its stored entries in stored order."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix is {A.n}x{A.n}, vector has length {len(x)}")
    products = A.values * x[A.col_idx]
    return segment_reduce(np.add, products, A.row_ptr)


def spmm_csr(A: SparseMatrixCSR, X: np.ndarray) -> np.ndarray:
    """Y = A X for a dense n-by-k matrix X, row sums in stored order."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != A.n:
        raise ValueError("dimension mismatch")
    products = A.values[:, None] * X[A.col_idx]
    return segment_reduce(np.add, products, A.row_ptr)


def segment_reduce(ufunc: np.ufunc, entries: np.ndarray, splits: np.ndarray) -> np.ndarray:
    """Reduce the slices ``entries[splits[k]:splits[k + 1]]`` along axis 0 with
    ``ufunc`` (np.add, np.minimum, np.maximum); empty slices reduce to zero."""
    if len(splits) > 1 and np.all(splits[1:] > splits[:-1]):   # no empty slice
        return ufunc.reduceat(entries, splits[:-1], axis=0).astype(np.float64, copy=False)
    out = np.zeros((len(splits) - 1,) + entries.shape[1:])
    nonempty = np.flatnonzero(np.diff(splits) > 0)
    if len(nonempty):
        # reduceat would misbehave on empty slices; restrict to non-empty ones
        out[nonempty] = ufunc.reduceat(entries, splits[:-1][nonempty], axis=0)
    return out


def diag(A: SparseMatrixCSR) -> np.ndarray:
    """Diagonal entries of A; absent entries are zero."""
    d = np.zeros(A.n)
    rows = A.row_of_entry()
    on_diag = rows == A.col_idx
    d[rows[on_diag]] = A.values[on_diag]
    return d


def transpose(A: SparseMatrixCSR) -> SparseMatrixCSR:
    return from_coo(A.n, A.col_idx, A.row_of_entry(), A.values)


def spectrum_bounds(A: SparseMatrixCSR) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetric part S of A: Lanczos
    with full reorthogonalisation (Golub & Van Loan, sec. 10.1), one SpMV per
    step. The extreme Ritz values are taken once both residuals |beta_j y_last|
    are <= 1e-12 max|theta| (checked every 10 steps), at a breakdown (beta = 0)
    or at step n, where they are exact."""
    n = A.n
    if n == 0:
        raise ValueError("spectrum_bounds needs a matrix with at least one row")
    rows = A.row_of_entry()
    # [v, v]/2 over both orientations: a symmetric A keeps its values exactly
    S = from_coo(n, np.concatenate((rows, A.col_idx)), np.concatenate((A.col_idx, rows)),
                 np.concatenate((A.values, A.values)) / 2, sum_duplicates=True)
    Q = np.empty((min(n, 32), n))           # Lanczos basis as rows, grown by blocks
    q = np.random.default_rng(12345).standard_normal(n)
    Q[0] = q / np.linalg.norm(q)
    alpha, beta = np.zeros(n), np.zeros(n)
    for j in range(n):
        w = spmv_csr(S, Q[j])
        alpha[j] = Q[j] @ w
        for _ in range(2):                  # Gram-Schmidt twice keeps Q orthonormal
            w -= Q[:j + 1].T @ (Q[:j + 1] @ w)
        beta[j] = np.linalg.norm(w)
        stop = beta[j] == 0 or j == n - 1
        if stop or j % 10 == 9:
            # the tridiagonal; eigh reads only its lower triangle
            theta, Y = np.linalg.eigh(np.diag(alpha[:j + 1]) + np.diag(beta[:j], -1))
            resid = beta[j] * np.abs(Y[-1, [0, -1]])
            if stop or np.all(resid <= 1e-12 * np.max(np.abs(theta))):
                return float(theta[0]), float(theta[-1])
        if j + 1 == len(Q):
            Q = np.concatenate((Q, np.empty((min(n, 2 * len(Q)) - len(Q), n))))
        Q[j + 1] = w / beta[j]


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def read_matrix_market(path) -> SparseMatrixCSR:
    """Read a square matrix in Matrix Market coordinate format.

    The field type must be real or integer, the symmetry general or symmetric,
    and every value finite.
    """
    with open(path) as fh:
        text = fh.read()
    if not text:
        raise MatrixFormatError(f"{path}:1: empty file")
    lines = text.split("\n")
    header = lines[0].split()
    if (
        len(header) < 4
        or header[0] != "%%MatrixMarket"
        or header[1].lower() != "matrix"
        or header[2].lower() != "coordinate"
    ):
        raise MatrixFormatError(f"{path}:1: malformed Matrix Market header")
    field = header[3].lower()
    if field not in ("real", "integer"):
        raise MatrixFormatError(f"{path}:1: unsupported field type '{field}' "
                                "(expected real or integer)")
    symmetry = header[4].lower() if len(header) > 4 else "general"
    if symmetry not in ("general", "symmetric"):
        raise MatrixFormatError(f"{path}:1: unsupported symmetry '{symmetry}'")

    size_idx = next((k for k in range(1, len(lines)) if _is_data(lines[k])), None)
    if size_idx is None:
        raise MatrixFormatError(f"{path}: missing size line")
    size_no = size_idx + 1
    try:
        nrows, ncols, nnz = (int(p) for p in lines[size_idx].split())
    except ValueError:   # not three integers
        raise MatrixFormatError(f"{path}:{size_no}: malformed size line") from None
    if nrows != ncols:
        raise MatrixFormatError(f"{path}:{size_no}: matrix is not square ({nrows}x{ncols})")

    # one vectorised parse of the entry lines; the line-by-line reader runs
    # only when it fails or finds a bad entry, to name the offending line
    body = lines[size_idx + 1:]
    try:
        data = np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1) if nnz else None
    except ValueError:
        data = None
    if (data is None or len(data) != nnz or not np.all(np.isfinite(data["v"]))
            or not np.all((data["i"] >= 1) & (data["i"] <= nrows)
                          & (data["j"] >= 1) & (data["j"] <= ncols))):
        data = _read_entries(path, body, size_no, nrows, nnz)
    i, j, v = data["i"] - 1, data["j"] - 1, data["v"]
    if symmetry == "symmetric":
        off = i != j
        i, j, v = (np.concatenate((i, j[off])), np.concatenate((j, i[off])),
                   np.concatenate((v, v[off])))
    try:
        return from_coo(nrows, i, j, v)
    except MatrixFormatError:   # in range and finite by now, so a position repeats
        pos, count = np.unique(np.column_stack((i, j)) + 1, axis=0, return_counts=True)
        raise MatrixFormatError(f"{path}: duplicate (row, col) entry "
                                f"{tuple(pos[count > 1][0].tolist())}") from None


def _is_data(line: str) -> bool:
    """Neither blank nor a % comment."""
    return bool(line.strip()) and not line.lstrip().startswith("%")


def _read_entries(path, body: list[str], size_no: int, n: int, nnz: int) -> np.ndarray:
    """Entry lines parsed one at a time; raises on the first bad line."""
    entries = [(no, ln) for no, ln in enumerate(body, start=size_no + 1) if _is_data(ln)]
    if len(entries) != nnz:
        raise MatrixFormatError(f"{path}:{size_no}: expected {nnz} entries, "
                                f"found {len(entries)}")
    data = np.zeros(nnz, dtype=_ENTRY)
    for k, (no, ln) in enumerate(entries):
        parts = ln.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"{path}:{no}: expected 'row col value'")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise MatrixFormatError(f"{path}:{no}: {exc}") from None
        if not math.isfinite(v):
            raise MatrixFormatError(f"{path}:{no}: non-finite value '{parts[2]}'")
        if not (1 <= i <= n and 1 <= j <= n):
            raise MatrixFormatError(f"{path}:{no}: index ({i}, {j}) out of range")
        data[k] = (i, j, v)
    return data


@contextmanager
def atomic_write(path):
    """Text file handle whose contents replace ``path`` only once the block
    completes: they go to a temporary file in the same directory, which an
    error removes, leaving any earlier file at ``path`` as it was."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def format_floats(values) -> np.ndarray:
    """'%.17g' (an exact round trip) of each float in ``values``, as an object array of
    its shape. Each distinct bit pattern is formatted once, so -0.0 stays '-0'."""
    values = np.asarray(values, dtype=np.float64)
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % v for v in keys.view(np.float64).tolist()], dtype=object)
    return text[inverse.reshape(values.shape)]   # its shape varies with the NumPy version


def write_matrix_market(path, A: SparseMatrixCSR) -> None:
    """Write in coordinate/general format with 17 significant digits (exact round-trip)."""
    index = np.array([f"{k} " for k in range(1, A.n + 1)], dtype=object)
    cells = np.full((A.nnz, 4), "\n", dtype=object)     # "row col value\n"
    cells[:, 0], cells[:, 1] = index[A.row_of_entry()], index[A.col_idx]
    cells[:, 2] = format_floats(A.values)
    with atomic_write(path) as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.n} {A.n} {A.nnz}\n")
        fh.write("".join(cells.ravel().tolist()))
