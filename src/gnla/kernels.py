"""Classical sparse linear-algebra kernels expressed as graph-network layers.

Each ``gnn_*`` function assembles one or more :class:`GNLayerSpec` instances and
runs them through the generic executor; the ``*_reference`` functions are the
direct (non-graph) counterparts used for cross-checking.
"""

from __future__ import annotations

import math

import numpy as np

from .graph_net import GNLayerSpec, apply_layer, matrix_to_graph, with_attrs
from .sparse import SparseMatrixCSR, dense_vector, diag, spmv_csr


# -- sparse matrix-vector product --------------------------------------------

def gnn_spmv(A: SparseMatrixCSR, x, self_edges: bool = True) -> np.ndarray:
    """y = A x via one message-passing layer.

    With self-edges, the whole product is edge work plus a sum aggregation.
    Without them the diagonal lives on the vertices and phi_v adds A_ii x_i.
    """
    x = dense_vector(x)
    if len(x) != A.n:
        raise ValueError("dimension mismatch between matrix and vector")
    if self_edges:
        graph = matrix_to_graph(A, self_edges=True, vertex_attrs=x[:, None])
        layer = GNLayerSpec(
            phi_e=lambda E, Vs, Vd, g: E[:, :1] * Vs[:, :1],
            phi_v=lambda V, ebar, g: ebar,
            rho_ev="sum",
        )
    else:
        graph = matrix_to_graph(A, self_edges=False, vertex_attrs=x[:, None])
        # vertex attrs: [x_i, A_ii]
        layer = GNLayerSpec(
            phi_e=lambda E, Vs, Vd, g: E[:, :1] * Vs[:, :1],
            phi_v=lambda V, ebar, g: ebar + V[:, 1:2] * V[:, 0:1],
            rho_ev="sum",
        )
    return apply_layer(graph, layer).vertex_attrs[:, 0]


# -- matrix-weighted norm ----------------------------------------------------

def gnn_weighted_norm(W: SparseMatrixCSR, x) -> float:
    """sqrt(x^T W x) with the quadratic form accumulated on the global attribute."""
    x = dense_vector(x)
    if len(x) != W.n:
        raise ValueError("dimension mismatch between matrix and vector")
    graph = matrix_to_graph(W, self_edges=True, vertex_attrs=x[:, None],
                            global_attrs=np.zeros(1))

    def phi_g(g, e_agg, v_agg):
        quad = v_agg[0]     # the vertex update left x_i (W x)_i; v_agg sums it
        if quad < 0:
            raise ValueError(f"quadratic form is negative ({quad}); matrix is not a valid weight")
        return np.array([math.sqrt(quad)])

    layer = GNLayerSpec(
        phi_e=lambda E, Vs, Vd, g: E[:, :1] * Vs[:, :1],
        phi_v=lambda V, ebar, g: V * ebar,
        phi_g=phi_g,
        rho_ev="sum",
        rho_eg=[],
    )
    return float(apply_layer(graph, layer).global_attrs[0])


def weighted_norm_reference(W: SparseMatrixCSR, x) -> float:
    x = dense_vector(x)
    return math.sqrt(float(x @ spmv_csr(W, x)))


# -- weighted Jacobi ---------------------------------------------------------

def gnn_jacobi(A: SparseMatrixCSR, b, x0, omega: float, iters: int) -> np.ndarray:
    """`iters` sweeps of x <- x + omega D^{-1} (b - A x) as repeated layers."""
    b, x0 = dense_vector(b), dense_vector(x0).copy()   # the result never aliases x0
    if len(b) != A.n or len(x0) != A.n:
        raise ValueError("dimension mismatch between matrix and vectors")
    d = diag(A)
    zero_rows = np.flatnonzero(d == 0)
    if len(zero_rows):
        raise ValueError(f"zero diagonal in row {zero_rows[0]}")
    # vertex attrs: [x_i], the iterate; the vertex update captures A_ii and b_i
    graph = matrix_to_graph(A, self_edges=True, vertex_attrs=x0[:, None],
                            global_attrs=np.array([omega]))
    layer = GNLayerSpec(
        phi_e=lambda E, Vs, Vd, g: E[:, :1] * Vs[:, :1],
        phi_v=lambda V, ebar, g: (V[:, 0] + g[0] / d * (b - ebar[:, 0]))[:, None],
        rho_ev="sum",
    )
    edge0 = graph.edge_attrs
    for _ in range(iters):
        # the edge update consumed A_ij; put it back for the next sweep
        graph = with_attrs(apply_layer(graph, layer), edge_attrs=edge0)
    return graph.vertex_attrs[:, 0]


def jacobi_reference(A: SparseMatrixCSR, b, x0, omega: float, iters: int) -> np.ndarray:
    x = dense_vector(x0).copy()
    b = dense_vector(b)
    d = diag(A)
    for _ in range(iters):
        x = x + omega / d * (b - spmv_csr(A, x))
    return x


# -- Chebyshev solver --------------------------------------------------------

def _cheby_setup(A, b, x0, lam_min, lam_max):
    if not (0 < lam_min <= lam_max):
        raise ValueError("need 0 < lam_min <= lam_max")
    if lam_min == lam_max:
        raise ValueError("degenerate spectrum: lam_min == lam_max")
    x = dense_vector(x0).copy()
    r = dense_vector(b) - spmv_csr(A, x)
    theta = (lam_max + lam_min) / 2.0
    delta = (lam_max - lam_min) / 2.0
    sigma = theta / delta
    rho = 1.0 / sigma
    d = (1.0 / theta) * r
    return x, r, d, delta, sigma, rho


def gnn_chebyshev(A: SparseMatrixCSR, b, x0, lam_min: float, lam_max: float,
                  n_iters: int) -> np.ndarray:
    """Chebyshev iteration as three consecutive layers, run ``n_iters`` times.

    Vertex attrs are [r_i, d_i, x_i]; globals are [delta, sigma, rho, rho_prior].
    Within the layer-2 global update, rho_prior is assigned before rho (the
    multi-assignment runs left to right).
    """
    x, r, d, delta, sigma, rho = _cheby_setup(A, b, x0, lam_min, lam_max)
    graph = matrix_to_graph(A, self_edges=True,
                            vertex_attrs=np.column_stack([r, d, x]),
                            global_attrs=np.array([delta, sigma, rho, 0.0]))

    layer1 = GNLayerSpec(
        phi_v=lambda V, ebar, g: np.column_stack([V[:, 0], V[:, 1], V[:, 2] + V[:, 1]]),
        rho_ev=[],
    )

    def phi_g2(g, e_agg, v_agg):
        delta_, sigma_, rho_, _ = g
        rho_prior = rho_
        rho_new = 1.0 / (2.0 * sigma_ - rho_)
        return np.array([delta_, sigma_, rho_new, rho_prior])

    layer2 = GNLayerSpec(
        phi_e=lambda E, Vs, Vd, g: E[:, :1] * Vs[:, 1:2],
        phi_v=lambda V, ebar, g: np.column_stack([V[:, 0] - ebar[:, 0], V[:, 1], V[:, 2]]),
        phi_g=phi_g2,
        rho_ev="sum",
        rho_eg=[],
        rho_vg=[],
    )
    layer3 = GNLayerSpec(
        phi_v=lambda V, ebar, g: np.column_stack(
            [V[:, 0], g[2] * g[3] * V[:, 1] + (2.0 * g[2] / g[0]) * V[:, 0], V[:, 2]]),
        rho_ev=[],
    )
    for _ in range(n_iters):
        # the edge attribute is A_ij throughout; layer 2 recomputes c_ij in place
        c = apply_layer(graph, layer1)
        c = apply_layer(c, layer2)
        c = apply_layer(c, layer3)
        graph = with_attrs(c, edge_attrs=graph.edge_attrs)
    return graph.vertex_attrs[:, 2]


def chebyshev_reference(A: SparseMatrixCSR, b, x0, lam_min: float, lam_max: float,
                        n_iters: int) -> np.ndarray:
    """Scalar transcription of the Chebyshev iteration; shares float ops with the GNN."""
    x, r, d, delta, sigma, rho = _cheby_setup(A, b, x0, lam_min, lam_max)
    for _ in range(n_iters):
        x = x + d
        r = r - spmv_csr(A, d)
        rho_prior = rho
        rho = 1.0 / (2.0 * sigma - rho)
        d = rho * rho_prior * d + (2.0 * rho / delta) * r
    return x


# -- power method ------------------------------------------------------------

def gnn_power_method(A: SparseMatrixCSR, b0, iters: int) -> tuple[np.ndarray, float]:
    """Dominant eigenpair: normalized power iterations then a Rayleigh quotient.

    Vertex attrs are [b_i], the iterate; globals are [h1, h2, lam]. A layer
    whose phi_g needs a sum over the vertices writes [b_i, y_i] and reads
    sum(y) as v_agg[1]; the layer after it reads b_i only.
    """
    b0 = dense_vector(b0)
    if not np.sum(b0 * b0) > 0:     # zero, or its squares underflow
        raise ValueError("b0 must have a nonzero norm")
    graph = matrix_to_graph(A, self_edges=True, vertex_attrs=b0[:, None],
                            global_attrs=np.zeros(3))

    spmv_layer = GNLayerSpec(  # b <- A b
        phi_e=lambda E, Vs, Vd, g: E[:, :1] * Vs[:, :1],
        phi_v=lambda V, ebar, g: ebar,
        rho_ev="sum",
    )

    def phi_g_norm(g, e_agg, v_agg):
        h1 = math.sqrt(v_agg[1])
        if h1 == 0:
            raise ValueError("iterate hit the null space (||A b|| = 0)")
        return np.array([h1, g[1], g[2]])

    norm_layer = GNLayerSpec(  # h1 <- ||b||
        phi_v=lambda V, ebar, g: np.column_stack([V[:, 0], V[:, 0] ** 2]),
        phi_g=phi_g_norm,
        rho_ev=[],
        rho_eg=[],
    )
    renorm_layer = GNLayerSpec(
        phi_v=lambda V, ebar, g: V[:, :1] / g[0],
        rho_ev=[],
    )
    edge0 = graph.edge_attrs
    for _ in range(iters):
        for layer in (spmv_layer, norm_layer, renorm_layer):
            graph = apply_layer(graph, layer)
        # restore A_ij on the edges consumed by the spmv layer
        graph = with_attrs(graph, edge_attrs=edge0)

    rayleigh1 = GNLayerSpec(  # h2 <- b^T A b
        phi_e=lambda E, Vs, Vd, g: E[:, :1] * Vs[:, :1],
        phi_v=lambda V, ebar, g: np.column_stack([V[:, 0], V[:, 0] * ebar[:, 0]]),
        phi_g=lambda g, e_agg, v_agg: np.array([g[0], v_agg[1], g[2]]),
        rho_ev="sum",
        rho_eg=[],
    )
    rayleigh2 = GNLayerSpec(  # lam <- h2 / b^T b
        phi_v=lambda V, ebar, g: np.column_stack([V[:, 0], V[:, 0] ** 2]),
        phi_g=lambda g, e_agg, v_agg: np.array([g[0], g[1], g[1] / v_agg[1]]),
        rho_ev=[],
        rho_eg=[],
    )
    graph = apply_layer(apply_layer(graph, rayleigh1), rayleigh2)
    return graph.vertex_attrs[:, 0], float(graph.global_attrs[2])


def power_method_reference(A: SparseMatrixCSR, b0, iters: int) -> tuple[np.ndarray, float]:
    b = dense_vector(b0).copy()
    if not np.sum(b * b) > 0:       # zero, or its squares underflow
        raise ValueError("b0 must have a nonzero norm")
    for _ in range(iters):
        b = spmv_csr(A, b)
        h1 = math.sqrt(float(np.sum(b * b)))
        if h1 == 0:
            raise ValueError("iterate hit the null space (||A b|| = 0)")
        b = b / h1
    h2 = float(b @ spmv_csr(A, b))
    return b, h2 / float(np.sum(b * b))
