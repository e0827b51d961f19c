"""Shared test helpers: random sparse SPD systems, small demo matrices and
the sine basis of the unit-square grid."""

import numpy as np

from gnla.fem import sine_mode_basis
from gnla.sparse import SparseMatrixCSR, from_coo, from_dense


def random_spd(rng: np.random.Generator, n: int, density: float = 0.1) -> SparseMatrixCSR:
    """Sparse SPD matrix: random symmetric pattern made diagonally dominant."""
    mask = rng.random((n, n)) < density
    mask |= mask.T
    np.fill_diagonal(mask, False)
    dense = np.zeros((n, n))
    vals = rng.standard_normal((n, n))
    dense[mask] = ((vals + vals.T) / 2)[mask]
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    return from_dense(dense)


def tridiag(n: int, lo: float = -1.0, mid: float = 2.0, hi: float = -1.0) -> SparseMatrixCSR:
    i = np.arange(n)
    rows = np.concatenate([i, i[:-1], i[1:]])
    cols = np.concatenate([i, i[1:], i[:-1]])
    vals = np.concatenate([np.full(n, mid), np.full(n - 1, hi), np.full(n - 1, lo)])
    return from_coo(n, rows, cols, vals)


def dst_basis(N_y: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal sine basis on the N_y x N_y grid of interior unit-square
    points x_i = i/(N_y+1); N_y counts interior unknowns per direction."""
    if N_y < 2:
        raise ValueError("N_y must be at least 2")
    g = np.arange(1, N_y + 1) / (N_y + 1)
    X, Y = np.meshgrid(g, g)
    return sine_mode_basis(np.column_stack([X.ravel(), Y.ravel()]), N_y)
