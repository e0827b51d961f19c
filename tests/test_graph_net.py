"""Attributed graphs, canonical edge order, aggregation, and the layer executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from gnla.graph_net import (AttributedGraph, GNLayerSpec, aggregate_incoming,
                            apply_layer, apply_layers, graph_to_matrix,
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
    g = small_graph()
    with pytest.raises(FloatingPointError):
        apply_layer(g, GNLayerSpec(phi_e=lambda E, Vs, Vd, g_: E / 0.0))


def test_topology_never_changes():
    g = small_graph()
    out = apply_layers(g, [GNLayerSpec(phi_e=lambda E, Vs, Vd, g_: E * 2)] * 3)
    assert np.array_equal(out.edges, g.edges)
    assert np.array_equal(out.edge_attrs[:, 0], g.edge_attrs[:, 0] * 8)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=2**32 - 1))
def test_matrix_graph_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n, 0.3)
    B = graph_to_matrix(matrix_to_graph(A))
    assert np.array_equal(B.to_dense(), A.to_dense())


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


def test_with_attrs_replaces_selected_sets():
    g = small_graph()
    out = with_attrs(g, global_attrs=np.array([9.0]))
    assert out.global_attrs[0] == 9.0
    assert np.array_equal(out.edge_attrs, g.edge_attrs)


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
