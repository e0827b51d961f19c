"""MLP specs, parameter stores, Adam, the two model architectures, checkpoints."""

import gc
import os
import weakref

import numpy as np
import pytest

from gnla import autodiff as ad
from gnla import nn
from gnla.fem import assemble_diffusion_periodic, diffusion_graph
from gnla.nn import (LayerSpec, MLPSpec, ModelSpec, ParamStore, adam_init,
                     adam_step, diffusion_model_forward, diffusion_model_spec,
                     init_glorot, jacobi_model_forward, jacobi_model_inputs,
                     jacobi_model_spec, load_checkpoint, mlp,
                     mlp_forward_taped, save_checkpoint)
from gnla.sparse import from_dense
from conftest import random_spd, tridiag


def test_layer_spec_param_count():
    assert LayerSpec(5, 50).param_count == 6 * 50
    assert LayerSpec(5, 50, bias=False).param_count == 250


def test_mlp_builder_widths_and_activations():
    spec = mlp(5, 50, 20, 1, activation="relu")
    assert [l.in_width for l in spec.layers] == [5, 50, 20]
    assert [l.activation for l in spec.layers] == ["relu", "relu", "none"]


def test_mlp_mismatched_widths_rejected():
    with pytest.raises(ValueError):
        MLPSpec((LayerSpec(3, 4), LayerSpec(5, 2)))


def test_unknown_activation_rejected():
    with pytest.raises(ValueError):
        LayerSpec(2, 2, activation="tanh")


def test_param_store_slicing_roundtrip():
    model = ModelSpec("m", (("g", mlp(2, 3, 1)),))
    store = ParamStore(model, np.arange(float(model.param_count)))
    W0 = store.array("g", 0, "W")
    assert W0.shape == (2, 3)
    assert np.array_equal(W0.ravel(), np.arange(6.0))
    assert store.array("g", 0, "b").shape == (3,)


def test_mlp_forward_taped_matches_plain():
    rng = np.random.default_rng(0)
    model = ModelSpec("m", (("g", mlp(4, 8, 2, final_activation="leaky_relu")),))
    store = init_glorot(model, rng)
    x = rng.standard_normal((5, 4))
    h = x @ store.array("g", 0, "W") + store.array("g", 0, "b")
    h = np.where(h > 0, h, 0.0)
    h = h @ store.array("g", 1, "W") + store.array("g", 1, "b")
    oracle = np.where(h > 0, h, 0.01 * h)
    for record in (True, False):
        tape = ad.Tape(record=record)
        out = mlp_forward_taped(tape, model.group("g"), nn.TapedParams(store, tape),
                                "g", tape.leaf(x))
        assert np.array_equal(out.value, oracle)


def test_glorot_init_bounds_and_zero_biases():
    model = jacobi_model_spec()
    store = init_glorot(model, np.random.default_rng(0))
    W = store.array("phi_v", 0, "W")
    assert np.all(np.abs(W) <= np.sqrt(6.0 / 55))
    assert np.array_equal(store.array("phi_v", 0, "b"), np.zeros(50))


def test_adam_matches_hand_computation():
    params = np.array([1.0, -2.0])
    grads = np.array([0.5, -1.0])
    new, state = adam_step(params, grads, adam_init(2), lr=0.1)
    # first step: m_hat = g, v_hat = g^2 -> update is lr * sign(g) (up to eps)
    assert np.allclose(new, params - 0.1 * np.sign(grads), atol=1e-7)
    assert state["t"] == 1


def test_adam_is_deterministic():
    rng = np.random.default_rng(1)
    p = rng.standard_normal(10)
    g = rng.standard_normal(10)
    a, _ = adam_step(p, g, adam_init(10), 1e-3)
    b, _ = adam_step(p, g, adam_init(10), 1e-3)
    assert np.array_equal(a, b)


def test_model_param_counts():
    assert jacobi_model_spec().param_count == 1341
    assert diffusion_model_spec().param_count == 14002


def test_jacobi_model_inputs():
    A = from_dense(np.array([[4.0, -1.0, -2.0],
                             [-1.0, 3.0, 0.0],
                             [0.0, 0.0, 5.0]]))
    feats = jacobi_model_inputs(A)
    assert np.array_equal(feats[0], [4.0, -2.0, -1.5, -3.0, -1.0])
    assert np.array_equal(feats[1], [3.0, -1.0, -1.0, -1.0, -1.0])
    assert np.array_equal(feats[2], [5.0, 0.0, 0.0, 0.0, 0.0])  # no off-diagonal


def test_jacobi_model_taped_matches_plain():
    rng = np.random.default_rng(2)
    A = random_spd(rng, 12, 0.3)
    store = init_glorot(jacobi_model_spec(), rng)
    plain = jacobi_model_forward(A, store)
    tape = ad.Tape()
    taped, _ = jacobi_model_forward(A, store, tape)
    assert np.array_equal(plain, taped.value)


def test_diffusion_model_taped_matches_plain():
    inst = assemble_diffusion_periodic(6, 1, 0, 0, 1)
    graph = diffusion_graph(inst)
    store = init_glorot(diffusion_model_spec(), np.random.default_rng(3))
    plain = diffusion_model_forward(graph, store)
    tape = ad.Tape()
    taped, _ = diffusion_model_forward(graph, store, tape)
    assert np.array_equal(plain, taped.value)
    assert plain.shape == (36, 2)


def test_taped_models_free_their_tape_without_the_cycle_collector():
    inst = assemble_diffusion_periodic(6, 1, 2, 0, 1)
    diffusion = init_glorot(diffusion_model_spec(), np.random.default_rng(0))
    jacobi = init_glorot(jacobi_model_spec(), np.random.default_rng(0))
    gc.disable()
    try:
        tape = ad.Tape()
        pred, params_d = diffusion_model_forward(diffusion_graph(inst), diffusion, tape)
        d, params_j = jacobi_model_forward(tridiag(5), jacobi, tape)
        ad.backward(tape, ad.add(ad.vsum(ad.mul(pred, pred)), ad.vsum(ad.sub(d, 1.0))))
        alive = weakref.ref(tape)
        del tape, pred, params_d, d, params_j
        assert alive() is None
    finally:
        gc.enable()


def test_diffusion_model_rejects_wrong_attrs():
    store = init_glorot(diffusion_model_spec(), np.random.default_rng(0))
    from gnla.graph_net import matrix_to_graph
    bad = matrix_to_graph(tridiag(4))   # 1 edge attr, 0 vertex attrs
    with pytest.raises(ValueError):
        diffusion_model_forward(bad, store)


def test_checkpoint_roundtrip_exact(tmp_path):
    store = init_glorot(jacobi_model_spec(), np.random.default_rng(7))
    path = tmp_path / "ck.json"
    save_checkpoint(path, store, {"note": "x"})
    loaded, meta = load_checkpoint(path)
    assert np.array_equal(loaded.values, store.values)
    assert loaded.model == store.model
    assert meta == {"note": "x"}


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "ck.json"
    store = init_glorot(jacobi_model_spec(), np.random.default_rng(0))
    save_checkpoint(path, store)
    doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
    path.write_text(doc)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_write_failure_keeps_old_file(tmp_path, monkeypatch):
    store = init_glorot(jacobi_model_spec(), np.random.default_rng(0))
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, store, {"run": 1})
    old = path.read_bytes()

    def dump_then_fail(doc, fh):
        fh.write('{"format_version": 1, "param')
        raise OSError("disk full")

    monkeypatch.setattr(nn.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, store, {"run": 2})
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["checkpoint.json"]
