"""Attributed graphs, canonical edge order, aggregation, and the layer executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from gnla.graph_net import (AttributedGraph, GNLayerSpec, aggregate_incoming,
                            apply_layer, graph_to_matrix,
                            make_graph, matrix_to_graph, with_attrs)
from gnla.sparse import diag, from_dense, spmv_csr


def small_graph():
    # edges into vertex 0: (1->0), (2->0); into 2: (0->2)
    return make_graph(3, [[0, 2], [2, 0], [1, 0]],
                      vertex_attrs=np.arange(3.0)[:, None],
                      edge_attrs=np.array([[5.0], [6.0], [7.0]]),
                      global_attrs=np.array([2.0]))


def test_make_graph_sorts_edges_with_attrs():
    g = small_graph()
    assert np.array_equal(g.edges, [[1, 0], [2, 0], [0, 2]])
    assert np.array_equal(g.edge_attrs[:, 0], [7.0, 6.0, 5.0])


def test_unsorted_edges_rejected():
    with pytest.raises(ValueError):
        AttributedGraph(3, np.array([[0, 2], [1, 0]]), np.zeros((3, 1)),
                        np.zeros((2, 1)), np.zeros(1))


def test_incoming_splits():
    g = small_graph()
    assert np.array_equal(g.incoming_splits(), [0, 2, 2, 3])


@pytest.mark.parametrize("reducer,expected", [
    ("sum", [13.0, 0.0, 5.0]),
    ("mean", [6.5, 0.0, 5.0]),
    ("min", [6.0, 0.0, 5.0]),
    ("max", [7.0, 0.0, 5.0]),
])
def test_named_reducers_and_empty_blocks(reducer, expected):
    g = small_graph()
    out = aggregate_incoming(g, g.edge_attrs, reducer)
    assert np.array_equal(out[:, 0], expected)


def test_list_reducers_concatenate():
    g = small_graph()
    both = aggregate_incoming(g, g.edge_attrs, ["min", "max"])
    assert both.shape == (3, 2)
    assert np.array_equal(both[0], [6.0, 7.0])


def test_empty_reducer_list_gives_zero_width_ebar():
    g = small_graph()
    assert aggregate_incoming(g, g.edge_attrs, []).shape == (3, 0)
    widths = []
    apply_layer(g, GNLayerSpec(phi_v=lambda V, ebar, g_: widths.append(ebar.shape) or V,
                               rho_ev=[]))
    assert widths == [(3, 0)]


def test_edge_endpoints_are_contiguous():
    A = random_spd(np.random.default_rng(0), 8, 0.4)
    g = matrix_to_graph(A)
    layer = GNLayerSpec(phi_e=lambda E, Vs, Vd, g_: E + Vs, phi_v=lambda V, ebar, g_: ebar)
    for h in (g, matrix_to_graph(A, self_edges=False), small_graph(),
              AttributedGraph(3, np.array([[1, 0], [0, 2]]), np.zeros((3, 1)),
                              np.zeros((2, 1)), np.zeros(0)),
              apply_layer(g, layer), with_attrs(g, vertex_attrs=np.ones((8, 2)))):
        assert h.src.flags.c_contiguous and h.dst.flags.c_contiguous


def test_edge_update_reads_original_vertices():
    # phi_e must see pre-update vertex attributes even though phi_v changes them
    g = small_graph()
    layer = GNLayerSpec(
        phi_e=lambda E, Vs, Vd, g_: Vs[:, :1] + Vd[:, :1],
        phi_v=lambda V, ebar, g_: V * 100.0,
        rho_ev="sum",
    )
    out = apply_layer(g, layer)
    assert np.array_equal(out.edge_attrs[:, 0], [1.0, 2.0, 2.0])
    assert np.array_equal(out.vertex_attrs[:, 0], [0.0, 100.0, 200.0])


def test_vertex_update_sees_updated_edges():
    g = small_graph()
    layer = GNLayerSpec(
        phi_e=lambda E, Vs, Vd, g_: E * 0.0 + 1.0,
        phi_v=lambda V, ebar, g_: ebar,
        rho_ev="sum",
    )
    out = apply_layer(g, layer)
    assert np.array_equal(out.vertex_attrs[:, 0], [2.0, 0.0, 1.0])


def test_global_update_uses_new_edge_and_vertex_sets():
    g = small_graph()
    layer = GNLayerSpec(
        phi_e=lambda E, Vs, Vd, g_: E + 1.0,
        phi_v=lambda V, ebar, g_: V + 1.0,
        phi_g=lambda g_, e_agg, v_agg: np.array([e_agg[0] + v_agg[0]]),
        rho_eg="sum",
        rho_vg="sum",
    )
    out = apply_layer(g, layer)
    assert out.global_attrs[0] == (7 + 6 + 5 + 3) + (0 + 1 + 2 + 3)


def test_none_updates_leave_attrs_unchanged():
    g = small_graph()
    out = apply_layer(g, GNLayerSpec())
    assert np.array_equal(out.vertex_attrs, g.vertex_attrs)
    assert np.array_equal(out.edge_attrs, g.edge_attrs)
    assert np.array_equal(out.global_attrs, g.global_attrs)


def test_non_finite_update_raises():
    g = small_graph()   # edge attrs [7, 6, 5], vertex attrs [0, 1, 2]
    with pytest.raises(FloatingPointError):
        apply_layer(g, GNLayerSpec(phi_e=lambda E, Vs, Vd, g_: E / 0.0))
    with np.errstate(divide="ignore"):
        # the bad value sits in the second column of edge 2
        with pytest.raises(FloatingPointError, match="^edge update .* at index 2$"):
            apply_layer(g, GNLayerSpec(
                phi_e=lambda E, Vs, Vd, g_: np.column_stack([E, np.log(E - 5.0)])))
        with pytest.raises(FloatingPointError, match="^vertex update .* at index 2$"):
            apply_layer(g, GNLayerSpec(phi_v=lambda V, ebar, g_: V / (V - 2.0)))


def test_topology_never_changes():
    g = small_graph()
    out = g
    for _ in range(3):
        out = apply_layer(out, GNLayerSpec(phi_e=lambda E, Vs, Vd, g_: E * 2))
    assert np.array_equal(out.edges, g.edges)
    assert np.array_equal(out.edge_attrs[:, 0], g.edge_attrs[:, 0] * 8)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=2**32 - 1))
def test_matrix_graph_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n, 0.3)
    B = graph_to_matrix(matrix_to_graph(A))
    for got, want in ((B.row_ptr, A.row_ptr), (B.col_idx, A.col_idx), (B.values, A.values)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_graph_to_matrix_does_not_alias_the_graph():
    g = small_graph()   # edges (1->0), (2->0), (0->2) carrying 7, 6, 5
    B = graph_to_matrix(g)
    g.edge_attrs[:] = -1.0
    g.edges[:] = 0
    assert np.array_equal(B.row_ptr, [0, 2, 2, 3])
    assert np.array_equal(B.col_idx, [1, 2, 0])
    assert np.array_equal(B.values, [7.0, 6.0, 5.0])


def test_matrix_to_graph_without_self_edges():
    A = from_dense(np.array([[2.0, -1.0], [-1.0, 3.0]]))
    g = matrix_to_graph(A, self_edges=False)
    assert g.num_edges == 2
    assert np.array_equal(g.vertex_attrs[:, -1], diag(A))


def test_graph_to_matrix_rejects_duplicate_edges():
    g = AttributedGraph(2, np.array([[0, 1], [0, 1]]), np.zeros((2, 1)),
                        np.zeros((2, 1)), np.zeros(1))
    with pytest.raises(ValueError):
        graph_to_matrix(g)


def test_graph_to_matrix_needs_an_edge_attribute():
    g = AttributedGraph(2, np.array([[0, 1]]), np.zeros((2, 1)), np.zeros((1, 0)),
                        np.zeros(1))
    with pytest.raises(ValueError, match="no attribute"):
        graph_to_matrix(g)


def test_with_attrs_replaces_selected_sets():
    g = small_graph()
    out = with_attrs(g, global_attrs=np.array([9.0]))
    assert out.global_attrs[0] == 9.0
    assert np.array_equal(out.edge_attrs, g.edge_attrs)


def test_layers_share_their_parents_topology():
    g = small_graph()
    out = apply_layer(g, GNLayerSpec(phi_e=lambda E, Vs, Vd, g_: E + Vs,
                                     phi_v=lambda V, ebar, g_: ebar))
    copy = with_attrs(out, vertex_attrs=np.ones((3, 2)))
    for h in (out, copy):
        assert h.edges is g.edges
        assert h.in_degree is g.in_degree
        assert h.incoming_splits() is g.incoming_splits()
    assert np.array_equal(g.in_degree, [2, 0, 1])
    with pytest.raises(ValueError, match="^vertex attribute rows must match vertex count$"):
        with_attrs(g, vertex_attrs=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="^edge attribute rows must match edge count$"):
        with_attrs(g, edge_attrs=np.zeros(4))


# -- the executor against a textbook one ------------------------------------

NAMES = ["sum", "mean", "min", "max"]
REDUCERS = st.one_of(st.sampled_from(NAMES),
                     st.lists(st.sampled_from(NAMES), min_size=0, max_size=3))


def _reference_reduce(block: np.ndarray, reducer) -> np.ndarray:
    """Fold the rows of ``block`` left to right; an empty block gives zeros,
    and an empty reducer list a zero-width result."""
    if not isinstance(reducer, str):
        return np.concatenate([np.zeros(0)] + [_reference_reduce(block, r) for r in reducer])
    if len(block) == 0:
        return np.zeros(block.shape[1])
    if reducer == "mean":
        return _reference_reduce(block, "sum") / len(block)
    op = {"sum": np.add, "min": np.minimum, "max": np.maximum}[reducer]
    acc = block[0]
    for row in block[1:]:
        acc = op(acc, row)
    return acc


def reference_layer(graph, layer):
    """apply_layer written plainly: fancy-indexed gathers, one Python loop
    over the vertices, and whole-set folds for the global update."""
    V, E, g = graph.vertex_attrs, graph.edge_attrs, graph.global_attrs
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    if layer.phi_e is not None:
        E = np.atleast_2d(layer.phi_e(E, V[src], V[dst], g))
    if layer.phi_v is not None:
        ebar = np.array([_reference_reduce(E[dst == v], layer.rho_ev)
                         for v in range(graph.num_vertices)])
        V = np.atleast_2d(layer.phi_v(V, ebar, g))
    if layer.phi_g is not None:
        g = layer.phi_g(g, _reference_reduce(E, layer.rho_eg),
                        _reference_reduce(V, layer.rho_vg))
    return V, E, g


@st.composite
def graphs_and_layers(draw):
    """Random multigraphs (isolated vertices, no edges at all, repeated and
    self edges) with several attribute columns, and one layer whose updates
    all run, over random reducers.

    Attributes are multiples of 1/4 and the updates keep every value a small
    multiple of 1/16, so each sum is exact and the order in which the
    executor adds cannot change a bit. Only a mean divides inexactly; when
    the vertices take edge means, their global reduction is min or max.
    """
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=24))
    nv, ne, ng = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    quarters = st.integers(-16, 16).map(lambda k: k / 4.0)

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(quarters, min_size=size, max_size=size)),
                        dtype=np.float64).reshape(shape)

    graph = make_graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                       array(n, nv), array(len(edges), ne), array(ng))
    rho_ev = draw(REDUCERS)
    exact = "mean" not in ([rho_ev] if isinstance(rho_ev, str) else rho_ev)
    layer = GNLayerSpec(
        phi_e=lambda E, Vs, Vd, g: np.concatenate([E, Vs - 2.0 * Vd, Vs * Vd], axis=1)
        + g.sum(),
        phi_v=lambda V, ebar, g: np.concatenate([0.5 * V, ebar - g.sum()], axis=1),
        phi_g=lambda g, e_agg, v_agg: np.concatenate([g, e_agg, v_agg]),
        rho_ev=rho_ev, rho_eg=draw(REDUCERS),
        rho_vg=draw(REDUCERS if exact else st.sampled_from(["min", "max"])))
    return graph, layer


@settings(max_examples=300, deadline=None)
@given(graphs_and_layers())
def test_apply_layer_matches_reference_executor_bitwise(case):
    graph, layer = case
    out = apply_layer(graph, layer)
    for got, want in zip((out.vertex_attrs, out.edge_attrs, out.global_attrs),
                         reference_layer(graph, layer)):
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want, dtype=np.float64).tobytes()


def test_permutation_equivariance():
    # relabeling vertices commutes with one spmv-style layer
    rng = np.random.default_rng(3)
    A = random_spd(rng, 10, 0.3)
    x = rng.standard_normal(10)
    perm = rng.permutation(10)
    P = np.eye(10)[perm]
    A_p = from_dense(P @ A.to_dense() @ P.T)
    y = spmv_csr(A, x)
    y_p = spmv_csr(A_p, P @ x)
    assert np.allclose(P @ y, y_p, rtol=1e-13, atol=1e-13)
