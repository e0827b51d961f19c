"""Attributed directed graphs and the generic message-passing layer executor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .sparse import SparseMatrixCSR, diag, segment_reduce

Reducer = str | Sequence[str]


@dataclass(frozen=True)
class AttributedGraph:
    """Directed graph with per-edge, per-vertex, and global attribute arrays.

    Edges are stored in canonical order, sorted by (dst, src), so that all
    edges terminating at a vertex form a contiguous block and aggregation is
    a deterministic contiguous scan.

    Topology is checked once per graph, at construction: the range and order
    of ``edges``, then the in-degrees and incoming splits derived from them.
    A layer changes attributes only, so its output (and ``with_attrs``)
    shares these arrays with its parent and checks only the new attributes.
    """

    num_vertices: int
    edges: np.ndarray          # (Ne, 2) of (src, dst), column-major: src, dst contiguous
    vertex_attrs: np.ndarray   # (Nv, n_v)
    edge_attrs: np.ndarray     # (Ne, n_e), row order matches `edges`
    global_attrs: np.ndarray   # (n_g,)
    # derived from `edges` in __post_init__, read-only
    in_degree: np.ndarray = field(init=False, repr=False, compare=False)   # (Nv,)
    _splits: np.ndarray = field(init=False, repr=False, compare=False)     # (Nv + 1,)

    def __post_init__(self):
        edges = np.asfortranarray(np.asarray(self.edges, dtype=np.int64).reshape(-1, 2))
        object.__setattr__(self, "edges", edges)
        if len(edges) and (edges.min() < 0 or edges.max() >= self.num_vertices):
            raise ValueError("edge endpoint out of range")
        key = edges[:, 1] * self.num_vertices + edges[:, 0]
        if np.any(np.diff(key) < 0):
            raise ValueError("edges must be sorted by (dst, src)")
        in_degree = np.bincount(edges[:, 1], minlength=self.num_vertices)
        splits = np.concatenate(([0], np.cumsum(in_degree)))
        in_degree.flags.writeable = splits.flags.writeable = False
        object.__setattr__(self, "in_degree", in_degree)
        object.__setattr__(self, "_splits", splits)
        _set_attrs(self, self.vertex_attrs, self.edge_attrs, self.global_attrs)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def src(self) -> np.ndarray:
        return self.edges[:, 0]

    @property
    def dst(self) -> np.ndarray:
        return self.edges[:, 1]

    def incoming_splits(self) -> np.ndarray:
        """Offsets delimiting, per vertex, the contiguous block of incoming edges."""
        return self._splits


def _set_attrs(graph: AttributedGraph, vertex_attrs, edge_attrs, global_attrs) -> None:
    """Convert and store the three attribute sets, checking their row counts."""
    va = np.atleast_2d(np.asarray(vertex_attrs, dtype=np.float64))
    ea = np.asarray(edge_attrs, dtype=np.float64)
    if ea.ndim == 1:
        ea = ea[:, None]
    ga = np.atleast_1d(np.asarray(global_attrs, dtype=np.float64))
    object.__setattr__(graph, "vertex_attrs", va)
    object.__setattr__(graph, "edge_attrs", ea)
    object.__setattr__(graph, "global_attrs", ga)
    if va.shape[0] != graph.num_vertices:
        raise ValueError("vertex attribute rows must match vertex count")
    if ea.shape[0] != len(graph.edges):
        raise ValueError("edge attribute rows must match edge count")


def _same_topology(graph: AttributedGraph, vertex_attrs, edge_attrs,
                   global_attrs) -> AttributedGraph:
    """A graph sharing ``graph``'s checked topology, with new attributes."""
    out = object.__new__(AttributedGraph)
    for name in ("num_vertices", "edges", "in_degree", "_splits"):
        object.__setattr__(out, name, getattr(graph, name))
    _set_attrs(out, vertex_attrs, edge_attrs, global_attrs)
    return out


def make_graph(num_vertices, edges, vertex_attrs=None, edge_attrs=None,
               global_attrs=None) -> AttributedGraph:
    """Build a graph, sorting edges (and their attributes) into canonical order."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if vertex_attrs is None:
        vertex_attrs = np.zeros((num_vertices, 0))
    if edge_attrs is None:
        edge_attrs = np.zeros((len(edges), 0))
    if global_attrs is None:
        global_attrs = np.zeros(0)
    edge_attrs = np.asarray(edge_attrs, dtype=np.float64)
    order = np.lexsort((edges[:, 0], edges[:, 1]))
    return AttributedGraph(num_vertices, edges[order], vertex_attrs,
                           edge_attrs[order], global_attrs)


@dataclass(frozen=True)
class GNLayerSpec:
    """The six pluggable functions of one message-passing layer.

    Update functions are vectorized over entities:
      phi_e(edge_attrs, v_src_attrs, v_dst_attrs, g) -> new edge_attrs
      phi_v(vertex_attrs, aggregated_edge_attrs, g)  -> new vertex_attrs
      phi_g(g, edge_aggregate, vertex_aggregate)     -> new g
    A ``None`` update leaves the corresponding attributes unchanged.

    One rule for all three reducers (``rho_ev`` per vertex over its incoming
    edges, ``rho_eg`` and ``rho_vg`` over the whole edge and vertex sets): a
    name ('sum', 'mean', 'min', 'max') or a list of names, outputs
    concatenated in list order. ``[]`` gives a zero-width result, and an
    empty set of rows reduces to zero.
    """

    phi_e: Callable | None = None
    phi_v: Callable | None = None
    phi_g: Callable | None = None
    rho_ev: Reducer = "sum"
    rho_eg: Reducer = "sum"
    rho_vg: Reducer = "sum"


def _reduce_one(attrs: np.ndarray, splits: np.ndarray | None, name: str) -> np.ndarray:
    """Reduce contiguous row blocks, or the whole set when ``splits`` is None;
    empty blocks reduce to zero. The whole set is reduced one contiguous row
    per column, so a 'sum' there has np.sum's pairwise bits."""
    if name == "mean":
        counts = len(attrs) if splits is None else np.diff(splits)[:, None]
        return _reduce_one(attrs, splits, "sum") / np.maximum(counts, 1)
    try:
        ufunc = {"sum": np.add, "min": np.minimum, "max": np.maximum}[name]
    except KeyError:
        raise ValueError(f"unknown reducer '{name}'") from None
    if splits is not None:
        return segment_reduce(ufunc, attrs, splits)
    if len(attrs) == 0:
        return np.zeros(attrs.shape[1])
    return ufunc.reduce(np.ascontiguousarray(attrs.T), axis=1)


def _reduce(attrs: np.ndarray, splits: np.ndarray | None, reducer: Reducer) -> np.ndarray:
    """A name, or a list of names whose outputs are concatenated in list order."""
    if isinstance(reducer, str):
        return _reduce_one(attrs, splits, reducer)
    empty = np.zeros((0,) if splits is None else (len(splits) - 1, 0))
    return np.concatenate([empty] + [_reduce_one(attrs, splits, r) for r in reducer], axis=-1)


def aggregate_incoming(graph: AttributedGraph, edge_attrs: np.ndarray,
                       reducer: Reducer) -> np.ndarray:
    """Per-vertex reduction of the attributes of edges terminating there.

    ``reducer`` is a name ('sum', 'mean', 'min', 'max') or a list of names
    whose outputs are concatenated in list order (none for the empty list).
    Vertices with no incoming edges aggregate to zero for every reducer.
    """
    edge_attrs = np.asarray(edge_attrs, dtype=np.float64)
    if edge_attrs.ndim == 1:
        edge_attrs = edge_attrs[:, None]
    return _reduce(edge_attrs, graph.incoming_splits(), reducer)


def _check_finite(attrs: np.ndarray, kind: str) -> None:
    if np.isfinite(attrs).all():
        return
    bad = ~np.all(np.isfinite(np.atleast_2d(attrs)), axis=-1)
    idx = int(np.flatnonzero(bad.ravel())[0])
    raise FloatingPointError(f"{kind} update produced a non-finite value at index {idx}")


def apply_layer(graph: AttributedGraph, layer: GNLayerSpec) -> AttributedGraph:
    """Execute one message-passing layer.

    Order: every edge update reads the original vertex attributes; then each
    vertex aggregates the *updated* attributes of its terminating edges and
    updates; finally the global attributes update from reductions of the new
    edge and vertex sets. Topology is never modified.
    """
    V, E, g = graph.vertex_attrs, graph.edge_attrs, graph.global_attrs
    if layer.phi_e is not None:
        # edges are sorted by dst, so V[dst] is each row repeated in-degree times
        Vs = np.take(V, graph.src, axis=0)
        Vd = np.repeat(V, graph.in_degree, axis=0)
        E_new = np.atleast_2d(np.asarray(layer.phi_e(E, Vs, Vd, g), dtype=np.float64))
        if E_new.shape[0] != graph.num_edges:
            raise ValueError("edge update changed the number of edges")
        _check_finite(E_new, "edge")
    else:
        E_new = E
    if layer.phi_v is not None:
        ebar = aggregate_incoming(graph, E_new, layer.rho_ev)
        V_new = np.atleast_2d(np.asarray(layer.phi_v(V, ebar, g), dtype=np.float64))
        if V_new.shape[0] != graph.num_vertices:
            raise ValueError("vertex update changed the number of vertices")
        _check_finite(V_new, "vertex")
    else:
        V_new = V
    if layer.phi_g is not None:
        e_agg = _reduce(E_new, None, layer.rho_eg)
        v_agg = _reduce(V_new, None, layer.rho_vg)
        g_new = np.atleast_1d(np.asarray(layer.phi_g(g, e_agg, v_agg), dtype=np.float64))
        _check_finite(g_new, "global")
    else:
        g_new = g
    return _same_topology(graph, V_new, E_new, g_new)


def matrix_to_graph(A: SparseMatrixCSR, self_edges: bool = True,
                    vertex_attrs=None, global_attrs=None) -> AttributedGraph:
    """View a square sparse matrix as an attributed graph.

    Each stored A_ij becomes an edge from vertex j to vertex i carrying A_ij.
    With ``self_edges=False`` diagonal entries are dropped from the edge set
    and appended as a vertex attribute column instead (0 where absent).
    """
    rows = A.row_of_entry()
    src, dst, vals = A.col_idx, rows, A.values
    if vertex_attrs is None:
        vertex_attrs = np.zeros((A.n, 0))
    vertex_attrs = np.atleast_2d(np.asarray(vertex_attrs, dtype=np.float64))
    if not self_edges:
        off = src != dst
        src, dst, vals = src[off], dst[off], vals[off]
        vertex_attrs = np.concatenate([vertex_attrs, diag(A)[:, None]], axis=1)
    if global_attrs is None:
        global_attrs = np.zeros(0)
    # CSR entries are already sorted by (row=dst, col=src); .T is column-major
    return AttributedGraph(A.n, np.stack([src, dst]).T, vertex_attrs,
                           vals[:, None], np.atleast_1d(global_attrs))


def graph_to_matrix(graph: AttributedGraph) -> SparseMatrixCSR:
    """Inverse of ``matrix_to_graph``: edge (src=j, dst=i) becomes entry A_ij,
    the edge's first attribute. Canonical (dst, src) order is CSR order, so the
    read-only incoming splits are the row pointer; columns and values are copies,
    so a later change to the graph's arrays leaves the matrix as it is."""
    if graph.edge_attrs.shape[1] == 0:
        raise ValueError("edges carry no attribute to form a matrix from")
    key = graph.dst * graph.num_vertices + graph.src
    if np.any(np.diff(key) == 0):
        raise ValueError("duplicate (src, dst) edges cannot form a matrix")
    return SparseMatrixCSR(graph.num_vertices, graph.incoming_splits(), graph.src.copy(),
                           graph.edge_attrs[:, 0].copy())


def with_attrs(graph: AttributedGraph, vertex_attrs=None, edge_attrs=None,
               global_attrs=None) -> AttributedGraph:
    """Copy of the graph with some attribute sets replaced."""
    return _same_topology(
        graph,
        graph.vertex_attrs if vertex_attrs is None else vertex_attrs,
        graph.edge_attrs if edge_attrs is None else edge_attrs,
        graph.global_attrs if global_attrs is None else global_attrs)
