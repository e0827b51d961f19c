"""AMG strength-of-connection, C/F splitting, direct interpolation, two-level demo."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_net import (GNLayerSpec, apply_layer, graph_to_matrix, matrix_to_graph,
                        with_attrs)
from .sparse import SparseMatrixCSR, dense_vector, diag, from_coo, spmv_csr


@dataclass(frozen=True)
class CFPartition:
    """Coarse/fine vertex split. ``labels[i]`` is 'C' or 'F'; ``coarse_index``
    maps each C vertex to its column in the final interpolation operator."""

    labels: np.ndarray
    coarse_index: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels))
        if not set(np.unique(self.labels)) <= {"C", "F"}:
            raise ValueError("labels must be 'C' or 'F'")

    @property
    def num_coarse(self) -> int:
        return len(self.coarse_index)

    def indicator(self) -> np.ndarray:
        """1.0 on C vertices, 0.0 on F vertices."""
        return (self.labels == "C").astype(np.float64)


def soc_sa(A: SparseMatrixCSR) -> SparseMatrixCSR:
    """Smoothed-aggregation strength S_ij = A_ij^2 / (A_ii A_jj) on A's pattern."""
    d = diag(A)
    zero = np.flatnonzero(d == 0)
    if len(zero):
        raise ValueError(f"zero diagonal in row {zero[0]}")
    graph = matrix_to_graph(A, self_edges=True, vertex_attrs=d[:, None])
    layer = GNLayerSpec(
        phi_e=lambda E, Vs, Vd, g: E[:, :1] ** 2 / (Vd[:, :1] * Vs[:, :1]),
    )
    return graph_to_matrix(apply_layer(graph, layer))


def step(x: np.ndarray) -> np.ndarray:
    """Heaviside with step(0) = 0: the thresholding activation."""
    return (np.asarray(x) > 0).astype(np.float64)


def soc_classic(A: SparseMatrixCSR, tau: float = 0.25) -> SparseMatrixCSR:
    """Classic strength S_ij = -A_ij / max_{k != i}(-A_ik), two layers.

    The entries become step(S_ij - tau); the surviving ones (value 1) mark
    strong connections. Rows with no negative off-diagonal have an undefined
    metric and raise.
    """
    if not (0 < tau <= 1):
        raise ValueError("tau must lie in (0, 1]")
    graph = matrix_to_graph(A, self_edges=True)   # no vertex attribute until layer 1
    off_diag = (graph.src != graph.dst)[:, None]
    # layer 1: row maximum of -A_ij over off-diagonal edges; the self-edge's 0
    # leaves a row without a negative off-diagonal at v <= 0
    layer1 = GNLayerSpec(
        phi_e=lambda E, Vs, Vd, g: np.where(off_diag, -E, 0.0),
        phi_v=lambda V, ebar, g: ebar,
        rho_ev="max",
    )
    mid = apply_layer(graph, layer1)
    v = mid.vertex_attrs[:, 0]
    bad = np.flatnonzero(~(v > 0))
    if len(bad):
        raise ValueError(f"row {bad[0]} has no negative off-diagonal; "
                         "classic strength is undefined")

    layer2 = GNLayerSpec(phi_e=lambda E, Vs, Vd, g: step(-E[:, :1] / Vd[:, :1] - tau))
    # restore A_ij on the edges for the second layer's update
    mid = with_attrs(mid, edge_attrs=graph.edge_attrs)
    return graph_to_matrix(apply_layer(mid, layer2))


def cf_split_greedy(S_hat: SparseMatrixCSR) -> CFPartition:
    """Greedy maximal independent set in the (symmetrized) strength graph.

    Vertices are visited in index order; an unlabeled vertex becomes C and its
    strong neighbors (in either direction) become F.
    """
    n = S_hat.n
    rows = S_hat.row_of_entry()
    keep = (S_hat.values != 0) & (rows != S_hat.col_idx)
    i, j = rows[keep], S_hat.col_idx[keep]
    # the symmetrized strong graph as one CSR; duplicates (i->j and j->i) merge
    G = from_coo(n, np.concatenate((i, j)), np.concatenate((j, i)), np.ones(2 * len(i)),
                 sum_duplicates=True)
    ptr, nbr = G.row_ptr.tolist(), G.col_idx.tolist()
    labels = [""] * n
    for v in range(n):
        if not labels[v]:
            labels[v] = "C"
            for u in nbr[ptr[v]:ptr[v + 1]]:
                if not labels[u]:
                    labels[u] = "F"
    labels = np.array(labels, dtype="U1")
    coarse = {int(v): k for k, v in enumerate(np.flatnonzero(labels == "C"))}
    return CFPartition(labels, coarse)


def direct_interpolation(A: SparseMatrixCSR, S_hat: SparseMatrixCSR,
                         cf: CFPartition) -> tuple[SparseMatrixCSR, np.ndarray]:
    """Direct interpolation weights via two layers plus post-processing.

    Vertex attrs start as [C_i], the coarse indicator. With s_ij = [S_hat_ij != 0]
    for j != i (and s_ii = 0), layer 1 passes C_j to each edge and forms, per
    vertex, alpha_i = (sum_j A_ij) / (A_ii * sum_j A_ij C_j s_ij) with both sums
    over off-diagonal stored entries; its vertex update captures A_ii and
    writes [C_i, alpha_i]. Layer 2 sets P_ij = (1-C_i)(-A_ij alpha_i s_ij),
    so an F row interpolates from its strong C neighbours only and sums to
    1 - (sum_j A_ij) / A_ii over all j. Post-processing puts 1 on the diagonal
    of C rows and removes F columns.

    Returns (P_square, P): layer 2's output on A's pattern, F columns
    included, and the dense n-by-|C| prolongator holding its C columns.
    """
    P_square, rows, cols, vals = _interpolation(A, S_hat, cf)
    P = np.zeros((A.n, cf.num_coarse))
    P[rows, cols] = vals
    return P_square, P


def _interpolation(A: SparseMatrixCSR, S_hat: SparseMatrixCSR, cf: CFPartition):
    """``direct_interpolation``'s P_square, then P's C-column entries as
    row-major triplets (row, coarse column, value)."""
    d = diag(A)
    C = cf.indicator()
    shat_vals = _aligned_values(A, S_hat)
    graph = matrix_to_graph(A, self_edges=True, vertex_attrs=C[:, None])
    off_diag = (graph.src != graph.dst)[:, None]
    strong = off_diag & (shat_vals != 0)[:, None]

    def phi_v1(V, ebar, g):
        alpha = np.zeros(len(V))
        fine = V[:, 0] == 0
        den = d * ebar[:, 1]
        bad = fine & (den == 0)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"F row {i} has no usable strong coarse neighbors")
        alpha[fine] = ebar[fine, 0] / den[fine]
        return np.column_stack([V[:, 0], alpha])

    # layer 1: each edge writes A_ij and A_ij C_j [S_hat_ij != 0], both 0 on
    # the self-edge; their sums are alpha_i's numerator and denominator
    layer1 = GNLayerSpec(
        phi_e=lambda E, Vs, Vd, g: np.column_stack(
            [np.where(off_diag, E, 0.0), np.where(strong, E * Vs[:, :1], 0.0)]),
        phi_v=phi_v1,
        rho_ev="sum",
    )
    mid = apply_layer(graph, layer1)

    def phi_e2(E, Vs, Vd, g):
        p = (1.0 - Vd[:, 0]) * (-graph.edge_attrs[:, 0] * Vd[:, 1]) * strong[:, 0]
        # post-processing step (a): unit diagonal on C rows
        p = p + Vd[:, 0] * ~off_diag[:, 0]
        return p[:, None]

    P_square = graph_to_matrix(apply_layer(mid, GNLayerSpec(phi_e=phi_e2)))
    # post-processing step (b): keep the C columns, renumbered by coarse_index
    col = np.full(A.n, -1)
    col[list(cf.coarse_index)] = list(cf.coarse_index.values())
    keep = col[P_square.col_idx] >= 0
    return (P_square, P_square.row_of_entry()[keep], col[P_square.col_idx[keep]],
            P_square.values[keep])


def _aligned_values(A: SparseMatrixCSR, S: SparseMatrixCSR) -> np.ndarray:
    """Values of S aligned to A's stored pattern (S must share the pattern)."""
    if (S.n != A.n or not np.array_equal(S.row_ptr, A.row_ptr)
            or not np.array_equal(S.col_idx, A.col_idx)):
        raise ValueError("strength matrix must share A's sparsity pattern")
    return S.values


def _galerkin(A: SparseMatrixCSR, rows, cols, vals, nc: int) -> np.ndarray:
    """Dense P^T A P from P's row-major triplets: each stored A_ij is paired with
    the P entries of row i, then of row j, and one bincount sums the products."""
    start = np.searchsorted(rows, np.arange(A.n + 1))   # P's row pointer

    def pair(row):   # each item k with each P entry of row[k]: (k, entry)
        count = start[row + 1] - start[row]
        k = np.repeat(np.arange(len(row)), count)
        return k, np.arange(len(k)) + np.repeat(start[row] - np.cumsum(count) + count, count)

    e, i = pair(A.row_of_entry())   # A_ij with P_ia
    f, j = pair(A.col_idx[e])       # (P_ia A_ij) with P_jb
    return np.bincount(cols[i[f]] * nc + cols[j], (vals[i] * A.values[e])[f] * vals[j],
                       minlength=nc * nc).reshape(nc, nc)


def two_level_solve(A: SparseMatrixCSR, b, tau: float = 0.25, iters: int = 10,
                    collect_residuals: bool = False):
    """Two-level cycle: two Jacobi sweeps (omega = 2/3), coarse correction, two more.

    A minimal demonstration of the coarse-grid correction; the prolongator
    comes from classic strength, greedy splitting, and direct interpolation.
    Sparse Galerkin product, dense coarse inverse: nothing n-by-n or n-by-|C|.
    """
    b = dense_vector(b)
    S_hat = soc_classic(A, tau)
    cf = cf_split_greedy(S_hat)
    _, pr, pc, pv = _interpolation(A, S_hat, cf)   # all C: P = I, with stored zeros
    try:   # one factorisation for every cycle
        A_coarse_inv = np.linalg.inv(_galerkin(A, pr, pc, pv, cf.num_coarse))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("coarse matrix is singular") from None
    w = (2.0 / 3.0) / diag(A)   # jacobi_reference's weights, computed once
    x = np.zeros(A.n)
    residuals = [float(np.linalg.norm(b - spmv_csr(A, x)))]
    for _ in range(iters):
        # Jacobi sweeps, the coarse correction, Jacobi sweeps, each from its residual
        for coarse in (False, False, True, False, False):
            r = b - spmv_csr(A, x)
            if coarse:
                y = A_coarse_inv @ np.bincount(pc, pv * r[pr], minlength=cf.num_coarse)
                x = x + np.bincount(pr, pv * y[pc], minlength=A.n)
            else:
                x = x + w * r
        residuals.append(float(np.linalg.norm(b - spmv_csr(A, x))))
    if collect_residuals:
        return x, residuals
    return x
